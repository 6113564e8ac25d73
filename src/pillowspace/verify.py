"""Named invariant suites, one per structural claim the package rests on.

Each suite checks one family of invariants across a range of levels and
returns plain dicts ready for JSON reporting.  One suite samples, by the
seed: covering.  The others check every case: self-similar every prefix
block, one masked comparison per depth; automorphisms every flip through its
generators; sheets and quotient every pair, center and radius through one
linear-time certificate.  Reports are deterministic for a fixed seed.  A
runner imports the measures, metrics or modulus module it checks, so a suite
loads no other.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .graphs import (ORACLE_MAX_LEVEL, _TYPE_CODE, _candidate_pairs, _policy, _policy_keeps,
                     adjacency, build_graph, chain_oracle_adjacency, edge_keys, is_automorphism,
                     reference_edges, symmetry_permutations)
from .words import MAX_LEVEL, _seed, _tolerance, check_level

COVER_OVERLAP_CAP = 4  # observed 2 on the default protocol; fail loudly past this


@dataclass
class SuiteReport:
    suite: str
    levels: list[int]
    policy: str
    seed: int
    tolerance: float
    ok: bool
    results: list[dict]


def _suite_counts(n, g, ctx):
    # G_m is ten copies of G_{m-1} plus the edges between first letters: 16
    # cell sides of 3^(m-1) faces, and a seam edge on each of the center's
    # 4*3^(m-1) - 4 boundary squares; at m = 1 that seam is the one "off" drops
    expected = 17 if g.policy == "on" else 16
    for m in range(2, n + 1):
        expected = 10 * expected + 20 * 3 ** (m - 1) - 4
    return {
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "expected_vertices": 10**n,
        "expected_edges": expected,
        "ok": g.n_vertices == 10**n and g.n_edges == expected,
    }


def _suite_adjacency_oracle(n, g, ctx):
    # both deciders answer every candidate pair; the typed yes-set, less the
    # last-letter seams that policy "off" drops, must be the built graph
    pairs = disagreements = 0
    keys = []
    for w, v in _candidate_pairs(n):
        pairs += 1
        t = adjacency(w, v)
        disagreements += t != chain_oracle_adjacency(w, v)
        if _policy_keeps(g.policy, w, v, t):
            keys.append(edge_keys(*sorted((int(w), int(v))), _TYPE_CODE[t], g.n_vertices))
    edges_equal = np.array_equal(np.sort(keys), edge_keys(*g.edge_arrays(), g.n_vertices))
    return {
        "pairs_checked": pairs,
        "disagreements": disagreements,
        "edges_equal": edges_equal,
        "ok": disagreements == 0 and edges_equal,
    }


def _suite_automorphisms(n, g, ctx):
    # the n one-level flips generate the 2^n flips, and a product of
    # automorphisms is one: with the two mirrors, n + 2 checks cover them all
    names = ["top-bottom", "left-right"] + ["0" * k + "1" + "0" * (n - 1 - k) for k in range(n)]
    failures = [name for name, perm in zip(names, symmetry_permutations(n))
                if not is_automorphism(g, perm)]
    return {
        "flips_checked": 2**n,
        "generators_checked": n,
        "mirrors_checked": 2,
        "failures": failures,
        "ok": not failures,
    }


def _suite_self_similar(n, g, ctx):
    # build_graph makes the blocks as shifted copies, so they certify by
    # construction; the reference checks the whole graph while cheap
    ref_equal = g.edges == reference_edges(n, g.policy) if n <= 3 else None
    if n < 2:
        return {
            "blocks_checked": 0,
            "reference_edges_equal": ref_equal,
            "ok": ref_equal,
            "note": "no proper prefixes",
        }
    # at depth k each of the 10^k blocks over a k-letter prefix must carry
    # G_(n-k): shifted to block-local indices, the edges inside the blocks
    # have G_(n-k)'s keys tiled 10^k times.  A certified block's internal
    # metric is its reference's metric, so the certificate is the whole check.
    u, v, t = g.edge_arrays()
    bad_blocks = []
    for k in range(1, n):
        size = 10 ** (n - k)
        inside = u // size == v // size
        block = u[inside] // size
        keys = edge_keys(u[inside] % size, v[inside] % size, t[inside], size)
        want = edge_keys(*build_graph(n - k, g.policy).edge_arrays(), size)
        counts = np.bincount(block, minlength=10**k)
        # edge i of a block with the right count must have key want[i]
        right = counts[block] == len(want)
        at = np.arange(len(keys)) - (np.cumsum(counts) - counts)[block]
        differ = np.unique(block[right][keys[right] != want[at[right]]])
        bad_blocks += [f"{b:0{k}d}" for b in [*np.flatnonzero(counts != len(want)), *differ]]
    return {
        "blocks_checked": (10**n - 10) // 9,
        "bad_blocks": bad_blocks[:5],
        "reference_edges_equal": ref_equal,
        "ok": not bad_blocks and ref_equal is not False,
    }


def _suite_singular_measure(n, g, ctx):
    from .measures import TileMeasure, middle_third_ratios, pushforward_x

    rows, skipped = middle_third_ratios(pushforward_x(TileMeasure.uniform(n)))
    want = Fraction(4, 10)
    off = [r for r in rows if r.ratio != want]
    return {
        "intervals_checked": len(rows),
        "skipped": len(skipped),
        "off_ratio": [(r.level, r.index, str(r.ratio)) for r in off[:5]],
        "ok": not off and not skipped,
    }


def _suite_certificate(n, g, ctx):
    # sheets and quotient: both identities, for every pair, center and radius,
    # follow from the two facts that lipschitz_quotient_check certifies
    from .metrics import lipschitz_quotient_check

    return asdict(lipschitz_quotient_check(g))


def _suite_covering(n, g, ctx):
    from .metrics import _random_balls, cover_preimage

    side = 3**n
    cases = [((side // 2, side // 2), 2 if n > 1 else 1)]
    cases += _random_balls(random.Random(ctx["seed"] + 100 + n), side, 8)
    worst_overlap, failures = 0, []
    for center, radius in cases:
        rep = cover_preimage(g, center, radius, c=5)
        worst_overlap = max(worst_overlap, rep.max_overlap)
        if not rep.ok:
            failures.append((center, radius, rep.witness))
    return {
        "balls_checked": len(cases),
        "worst_overlap": worst_overlap,
        "failures": failures[:5],
        "ok": not failures and worst_overlap <= COVER_OVERLAP_CAP,
    }


def _suite_modulus_oracles(n, g, ctx):
    from .modulus import (ModulusProblem, crossing, effective_conductance, mincut_oracle,
                          solve_modulus)

    net, src, tgt = crossing(g)
    tol = ctx["tolerance"]
    res1 = solve_modulus(ModulusProblem(net, src, tgt, 1.0, tol))
    cut = mincut_oracle(net, src, tgt)
    res2 = solve_modulus(ModulusProblem(net, src, tgt, 2.0, tol))
    cond = effective_conductance(net, src, tgt)
    ok1 = res1.converged and abs(res1.value - cut) <= 10 * tol * cut
    ok2 = res2.converged and abs(res2.value - cond) <= 10 * tol * cond
    return {
        "p1_value": res1.value,
        "mincut": cut,
        "p2_value": res2.value,
        "conductance": cond,
        "ok": ok1 and ok2,
    }


# name -> (runner, default levels, whether the runner reads the graph, top
# level); the default levels are the cheap exhaustive regimes of each suite
SUITES = {
    "counts": (_suite_counts, range(1, 6), True, MAX_LEVEL),
    "adjacency-oracle": (_suite_adjacency_oracle, range(1, 5), True, ORACLE_MAX_LEVEL),
    "sheets": (_suite_certificate, range(1, 5), True, MAX_LEVEL),
    "automorphisms": (_suite_automorphisms, range(1, 4), True, MAX_LEVEL),
    "self-similar": (_suite_self_similar, range(2, 4), True, MAX_LEVEL),
    "singular-measure": (_suite_singular_measure, range(1, 6), False, MAX_LEVEL),
    "quotient": (_suite_certificate, range(1, 4), True, MAX_LEVEL),
    "covering": (_suite_covering, range(1, 4), True, MAX_LEVEL),
    "modulus-oracles": (_suite_modulus_oracles, range(1, 4), True, MAX_LEVEL),
}


def run_suite(suite, levels=None, policy="on", seed=0, tolerance=1e-6):
    """Run one named suite over the given levels and report per-level results.
    Every level is checked against the suite's top in SUITES before any runs.
    The seed serves only the sampling suite, covering."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    runner, default_levels, reads_graph, top = SUITES[suite]
    # build_graph's guards for every suite; reads_graph only decides whether a graph is built
    levels = sorted({check_level(n, top, name=f"{suite} level")
                     for n in (default_levels if levels is None else levels)})
    if not levels:
        raise ValueError("no level to run")
    _policy(policy)
    seed = _seed(seed)
    tolerance = _tolerance(tolerance)
    # no timing in results: written reports must be byte-stable across reruns
    ctx = {"seed": seed, "tolerance": tolerance}
    results = []
    for n in levels:
        g = build_graph(n, policy) if reads_graph else None
        row = runner(n, g, ctx)
        row["level"] = n
        results.append(row)
    ok = all(r["ok"] for r in results)
    return SuiteReport(suite, levels, policy, seed, tolerance, ok, results)
