"""Expected values the benchmark checks every output against.

Each check is a plain predicate so the self-test can feed it a wrong value.
The pinned numbers come from the package's own test suite and from the
seed-commit outputs; the tolerances are the ones those tests use.
"""

from __future__ import annotations

import math
from fractions import Fraction

# vertices are 10**n at every level; edge counts of the level-n graph
EDGES = {1: 17, 2: 226, 3: 2436, 4: 24896, 5: 250576}

# certified crossing modulus (left-right), as pinned in tests/test_modulus.py
PINNED_MODULUS = {
    (1, 1.0): 4.0,
    (1, 2.0): 2.0,
    (1, 3.0): 1.0,
    (3, 1.0): 32.0,
    (3, 2.0): 1.5215533734,
    (3, 2.0959): 1.1119183114,
}
PINNED_REL = 2e-5  # the tolerance tests/test_modulus.py allows on PINNED
ORACLE_REL = 1e-6  # solver against mincut / effective conductance
GAP_REL = 5e-6  # certified upper/lower gap, acceptance criterion 10
MONOTONE_SLACK = 20 * 1e-6  # conformal_scan's allowance for monotonicity in p
MINCUT_L4 = 92

MIDDLE_THIRD = Fraction(2, 5)
BALL_SLOPE = math.log(10) / math.log(3)
BALL_SLOPE_TOL = 0.05
COVER_OVERLAP_SEED0 = [1, 1, 2]  # worst overlap on levels 1..3 at suite seed 0
COVER_OVERLAP_CAP = 4

# `pillowspace build -n 3` output files at the seed commit
GOLDEN_SHA256 = {
    "g3.json": "57df9dc6f94f9cfae6dc7d1265e70ad29064ac847997db41784ad6c6f5b015a7",
    "g3.bin": "e46ea79c1f5d5e36e80c738d36acddc68b218c1efe227c36181d7439cb8f2dda",
}


def graph_counts_ok(level, n_vertices, n_edges):
    return n_vertices == 10**level and n_edges == EDGES[level]


def pinned_modulus_ok(level, p, value):
    want = PINNED_MODULUS.get((level, p))
    return want is None or abs(value - want) <= PINNED_REL * want


def matches_oracle(value, oracle):
    return abs(value - oracle) <= ORACLE_REL * abs(oracle)


def certified(converged, lower, upper):
    return bool(converged) and 0 < lower and upper / lower - 1 <= GAP_REL


def monotone_breaks(values_by_p):
    """Exponents at which the value rose over the previous (smaller) exponent."""
    ps = sorted(values_by_p)
    return [
        b for a, b in zip(ps, ps[1:])
        if values_by_p[b] > values_by_p[a] * (1 + MONOTONE_SLACK)
    ]


def ball_slope_ok(estimate):
    return abs(estimate - BALL_SLOPE) <= BALL_SLOPE_TOL


def golden_sha_ok(name, digest):
    return GOLDEN_SHA256[name] == digest


def bfs_row_ok(row, start, u, v, n_vertices):
    """Certificate that row holds hop distances from start.

    Distances are nonnegative, zero only at start, change by at most one
    along every edge (u[k], v[k]), and every other vertex has a neighbour one
    step closer.  Together these pin the BFS distances exactly.
    """
    import numpy as np

    if row.shape != (n_vertices,) or row[start] != 0 or (row < 0).any():
        return False
    if (row == 0).sum() != 1 or (np.abs(row[u] - row[v]) > 1).any():
        return False
    closest = row.copy()
    np.minimum.at(closest, u, row[v])
    np.minimum.at(closest, v, row[u])
    others = np.arange(n_vertices) != start
    return bool((closest[others] == row[others] - 1).all())
