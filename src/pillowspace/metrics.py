"""Experiments on vertex metrics of the tile graphs.

A MetricMatrix is a dense symmetric distance table over the vertices of one
level.  On top of it: averaging over the sheet-flip group, blowups into
prefix blocks, empirical quasisymmetry-distortion profiles, a certificate
of the sheet isometry and of the ball images of the collapsing projection,
the covering construction over a grid ball, and a Poincare-ratio
diagnostic.  A compact binary format round-trips matrices through files.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import struct
from dataclasses import dataclass

import numpy as np

from .graphs import bfs_blocks, bfs_row, flip_permutation, prefix_subgraph
from .words import _exponent, _grid_table, _integer, _seed, check_level, parse_word

DENSE_LEVEL_LIMIT = 4  # 10^4 x 10^4 float64 is ~0.8 GB; 10^5 x 10^5 would be 80 GB
PI_DILATION = 2  # pi_diagnostic's gradient ball CB has this times the radius of B

_FIXED_ONE = 65536  # 16.16 fixed point in the on-disk format
_MAGIC = b"PLM1"

# enough triples to make a broken metric effectively certain to be caught,
# cheap enough to run on every construction
_VALIDATE_TRIPLES = 20000
_VALIDATE_SEED = 20210
_CHECK_TILE = 256  # side of the square tiles of MetricMatrix's symmetry and sign checks


@dataclass
class MetricMatrix:
    """Symmetric nonnegative distance table over the 10^level vertices of
    one level, indexed as a graph's are: entry (i, j) is d(i, j)."""

    level: int
    entries: np.ndarray
    slack: float = 1e-9  # additive tolerance for the triangle check

    def __post_init__(self):
        self.level = check_level(self.level, DENSE_LEVEL_LIMIT, name="metric level",
                                 over=ValueError)
        self.entries = np.asarray(self.entries, dtype=np.float64)
        n = self.n_vertices
        if self.entries.shape != (n, n):
            raise ValueError(f"entries must be a ({n}, {n}) table at level {self.level}")
        e = self.entries
        if np.diagonal(e).any():
            raise ValueError("diagonal must be zero")
        # Each tile on or above the diagonal against its mirror tile: they
        # cover every pair, and no temporary outgrows a tile.  A finite tile
        # equal to its mirror makes the mirror finite too.  Once the table
        # is symmetric, the diagonal's n zeros must be the tiles' only
        # entries <= 0.
        nonpositive, b = 0, _CHECK_TILE
        for i in range(0, n, b):
            for j in range(i, n, b):
                tile, mirror = e[i : i + b, j : j + b], e[j : j + b, i : i + b].T
                if not np.isfinite(tile).all():
                    raise ValueError("distances must be finite")
                if not np.array_equal(tile, mirror):
                    raise ValueError("table must be symmetric" if np.isfinite(mirror).all()
                                     else "distances must be finite")
                nonpositive += np.count_nonzero(tile <= 0)
        if nonpositive != n:
            raise ValueError("off-diagonal distances must be positive")
        self._check_triangle()

    def _check_triangle(self):
        e, n = self.entries, self.n_vertices
        if n <= 100:
            for k in range(n):  # exhaustive at level <= 2
                if (e > e[:, k, None] + e[None, k, :] + self.slack).any():
                    raise ValueError("triangle inequality violated")
            return
        rng = np.random.default_rng(_VALIDATE_SEED)
        idx = rng.integers(0, n, size=(_VALIDATE_TRIPLES, 3))
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        if (e[i, j] > e[i, k] + e[k, j] + self.slack).any():
            raise ValueError("triangle inequality violated (sampled)")

    @property
    def n_vertices(self):
        return 10**self.level


def graph_metric(g):
    """All-pairs hop distances of a replacement graph as a MetricMatrix
    (levels up to 4), filled from bfs_blocks' rows."""
    check_level(g.level, DENSE_LEVEL_LIMIT, name="dense metric level")
    n = g.n_vertices
    dist = np.empty((n, n))
    for lo, rows in bfs_blocks(g, range(n)):
        if (rows < 0).any():
            raise ValueError("graph is disconnected; hop distance is not a metric")
        dist[lo : lo + len(rows)] = rows
    return MetricMatrix(g.level, dist)


# ---------------------------------------------------------------------------
# the flip group acting on metrics


def symmetrize(d):
    """Average the metric over the sheet-flip group.

    The result is flip-invariant on the nose and still a metric, averages
    of metrics being metrics.  The group of 2^level flips is averaged over
    each of its level generators in turn: the one-level flips commute, so
    the group average is the product of the averages over {identity, flip},
    and each is one gather in place.  Each partial average of a hop metric
    is a dyadic rational of small integers, so for hop metrics the table
    equals the 2^level-term sum over all flips bit for bit.
    """
    level = d.level
    acc = d.entries.copy()
    for k in range(level):
        perm = flip_permutation(d, "0" * k + "1" + "0" * (level - k - 1))
        acc += acc[np.ix_(perm, perm)]
        acc /= 2
    return MetricMatrix(level, acc, slack=max(d.slack, 1e-9))


# ---------------------------------------------------------------------------
# blowups


def _normalizer(block, n, normalization):
    if normalization == "diameter":
        lam = float(block.max())
    elif normalization == "none":
        lam = 1.0
    elif isinstance(normalization, tuple) and len(normalization) == 3 and normalization[0] == "pair":
        a, b = parse_word(normalization[1]), parse_word(normalization[2])
        if len(a) != n or len(b) != n:
            raise ValueError("normalization pair must be words of the blowup level")
        lam = float(block[int(a), int(b)])
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if lam <= 0:
        raise ValueError("normalizer must be positive")
    return lam


def blowup_metric(d, prefix, normalization="diameter"):
    """Restrict the metric to one prefix block and rescale.

    Entry (p, q) of the result is d(prefix+p, prefix+q) / lambda with lambda
    the block diameter, a chosen pair distance, or 1.  The empty prefix with
    normalization "none" is the identity.
    """
    prefix = parse_word(prefix) if prefix else ""
    n = d.level - len(prefix)
    if n < 1:
        raise ValueError("prefix leaves no room for a block level")
    size = 10**n
    start = int(prefix) * size if prefix else 0
    block = d.entries[start : start + size, start : start + size]
    lam = _normalizer(block, n, normalization)
    return MetricMatrix(n, block / lam, slack=max(d.slack, 1e-12))


def internal_block_metric(g, prefix, normalization="none", reference=None):
    """Blowup of the metric measured inside one prefix block.

    The metric is the reference graph's, whose edges certification during
    extraction has shown equal to the block's own, so ambient shortcuts around
    the block do not contribute and the result reproduces the smaller graph's
    metric exactly under normalization "none".  The reference is passed on to
    prefix_subgraph, which builds it when not supplied.  Blocks above
    DENSE_LEVEL_LIMIT raise CapacityError, as graph_metric does.
    """
    block = prefix_subgraph(g, prefix, reference)
    d = graph_metric(block.reference)
    d.entries /= _normalizer(d.entries, block.level, normalization)  # lam > 0 keeps the axioms
    return d


# ---------------------------------------------------------------------------
# quasisymmetry distortion


_BIN_LOG = 0.5 * math.log(2.0)  # multiplicative bins a factor sqrt(2) wide


@dataclass
class DistortionProfile:
    """Per-bin distortion statistics of sampled vertex triples.

    Bin b covers ratios in [sqrt(2)^b, sqrt(2)^(b+1)).  max_ratio is the raw
    per-bin maximum of the second metric's ratio, envelope its running max
    over increasing bins (a monotone nondecreasing empirical distortion
    bound).  Empty interior bins are kept with count 0 and NaN statistics,
    never interpolated.  inverse is the same profile for reciprocal ratios.
    """

    bin_low: np.ndarray
    bin_high: np.ndarray
    count: np.ndarray
    max_ratio: np.ndarray
    envelope: np.ndarray
    samples_used: int
    samples_skipped: int
    inverse: "DistortionProfile | None" = None

    def rows(self):
        """Plot-ready (bin_low, bin_high, count, max_ratio, envelope) tuples."""
        return [
            (float(lo), float(hi), int(c), float(m), float(e))
            for lo, hi, c, m, e in zip(
                self.bin_low, self.bin_high, self.count, self.max_ratio, self.envelope
            )
        ]


def _profile(t, r, skipped):
    """Profile of the ratio pairs (t[i], r[i]): per bin of t, the count and
    the largest r; bins with no t in them hold NaN, which fmax skips."""
    b = np.floor(np.log(t) / _BIN_LOG + 1e-12).astype(np.int64)
    lo = int(b.min())
    count = np.bincount(b - lo)
    max_ratio = np.full(count.size, math.nan)
    np.fmax.at(max_ratio, b - lo, r)
    span = range(lo, lo + count.size)
    return DistortionProfile(
        bin_low=np.array([math.exp(_BIN_LOG * k) for k in span]),
        bin_high=np.array([math.exp(_BIN_LOG * (k + 1)) for k in span]),
        count=count,
        max_ratio=max_ratio,
        envelope=np.fmax.accumulate(max_ratio),
        samples_used=len(t),
        samples_skipped=skipped,
    )


def qs_distortion(d1, d2, samples, seed):
    """Empirical distortion profile of the identity map between two metrics.

    Draws seeded triples (x, y, z), bins t = d1(x,y)/d1(x,z) and records the
    maximum of d2(x,y)/d2(x,z) per bin.  Triples with x = z (ratio undefined)
    or x = y (both ratios zero, no distortion information) are skipped and
    counted.  The inverse profile bins the reciprocal ratios, covering the
    switched-and-reciprocated form of the distortion bound.
    """
    if d1.level != d2.level:
        raise ValueError("profiles need a common vertex universe")
    if _integer(samples, "samples") < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(_seed(seed))
    n = d1.n_vertices
    x, y, z = np.array([rng.randrange(n) for _ in range(3 * samples)]).reshape(-1, 3).T
    keep = (x != z) & (x != y)
    x, y, z = x[keep], y[keep], z[keep]
    if not x.size:
        raise ValueError("all samples degenerate; increase samples")
    t, r = (e[x, y] / e[x, z] for e in (d1.entries, d2.entries))
    skipped = samples - x.size
    profile = _profile(t, r, skipped)
    profile.inverse = _profile(1.0 / t, 1.0 / r, skipped)
    return profile


# ---------------------------------------------------------------------------
# sheet isometry and ball images under the collapsing projection

# the facts the certificate rests on, in the order it checks them
_FACTS = ("(a) every edge joins equal or side-sharing squares",
          "(b) every sheet carries every grid edge",
          "every tile lies on some sheet")


@dataclass
class QuotientReport:
    level: int
    sheets: int  # 2^level: every sheet is checked
    pairs_checked: int  # ordered same-sheet pairs certified at grid L1 distance
    vertices_checked: int  # centers whose ball images are certified at every radius
    ok: bool
    broken: str | None  # the first fact that fails: nothing resting on it is certified
    witness: tuple | None  # (a) the edge's words; (b) the sheet, the grid edge's cells; a tile


def lipschitz_quotient_check(g):
    """Certify the sheet isometry and the projected ball images from two facts.

    Let pi send a tile to its square.  Each fact is one linear pass:
    (a) every edge joins two tiles whose squares are equal or share a side,
        so pi is 1-Lipschitz: d_G(x, y) >= |pi(x) - pi(y)|_1;
    (b) every sheet, the lift flip_permutation(g, bits)[_grid_table(n)] of the
        3^n x 3^n grid, carries every grid edge, so on it d_G <= L1.
    With (a), a sheet that carries every grid edge is isometric to the grid,
    so its (9^n)^2 ordered pairs are certified.  A tile x on such a sheet has
    over every cell c a tile of its sheet at most |pi(x) - c|_1 away, and by
    (a) none nearer: pi maps ball(x, r) onto the grid ball of radius r at every
    r.  With every tile on some sheet, that holds at every center.  A broken
    fact is no counterexample: the report names the first break and certifies
    nothing that rests on it.
    """
    n, N = g.level, g.n_vertices
    u, v, _ = g.edge_arrays()
    sx, sy = g.square_x, g.square_y
    far = np.flatnonzero(np.abs(sx[u] - sx[v]) + np.abs(sy[u] - sy[v]) > 1)
    if far.size:
        k = far[0]
        return QuotientReport(n, 2**n, 0, 0, False, _FACTS[0], (g.words[u[k]], g.words[v[k]]))
    # untyped keys, strictly increasing as the edge arrays are (_check_edges);
    # N * N closes them above every pair, so each search lands on a key
    keys = np.append(u * N + v, N * N)
    grid = _grid_table(n)
    on_sheet = np.zeros(N, dtype=bool)
    carrying, broken, witness = 0, None, None
    for bits in map("".join, itertools.product("01", repeat=n)):
        lift = flip_permutation(g, bits)[grid]
        missing = None
        for step, a, b in (((1, 0), lift[:-1], lift[1:]), ((0, 1), lift[:, :-1], lift[:, 1:])):
            want = (np.minimum(a, b) * N + np.maximum(a, b)).ravel()
            gone = np.flatnonzero(keys[np.searchsorted(keys, want)] != want)
            if gone.size:
                x, y = (int(c) for c in np.unravel_index(gone[0], a.shape))
                missing = (bits, (x, y), (x + step[0], y + step[1]))
                break
        if missing is None:
            carrying += 1
            on_sheet[lift] = True
        elif witness is None:
            broken, witness = _FACTS[1], missing
    if witness is None and not on_sheet.all():
        broken, witness = _FACTS[2], (g.words[int(np.argmin(on_sheet))],)
    return QuotientReport(n, 2**n, carrying * 81**n, int(np.count_nonzero(on_sheet)),
                          witness is None, broken, witness)


# ---------------------------------------------------------------------------
# covering a grid ball's preimage


@dataclass
class CoverReport:
    center: tuple[int, int]
    radius: int
    c: int
    centers: list[str]  # covering centers as words
    ball_radius: int  # common radius c * r of the covering balls
    uniform_radius: bool
    target_covered: bool  # projected image of every ball contains the grid ball
    shrunk_disjoint: bool  # 1/c-scaled balls are pairwise disjoint (by construction)
    preimage_covered: bool  # dilated balls cover the preimage (by construction)
    max_overlap: int
    witness: tuple | None

    @property
    def ok(self):
        return (self.uniform_radius and self.target_covered and self.shrunk_disjoint
                and self.preimage_covered)


def _random_balls(rng, side, count):
    """count grid balls drawn from rng: a cell of the side x side grid, a radius in 0..3."""
    return [((rng.randrange(side), rng.randrange(side)), rng.randint(0, 3))
            for _ in range(count)]


def _cover_args(side, center, radius, c):
    """cover_preimage's center, radius and c, checked on a side x side grid."""
    c, radius = _integer(c, "constant"), _integer(radius, "radius")
    if c < 5:
        raise ValueError("constant must be at least 5 to cover while staying disjoint")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cx, cy = (_integer(a, "grid cell coordinates") for a in center)
    if not (0 <= cx < side and 0 <= cy < side):
        raise ValueError(f"grid cell {center} outside the {side} x {side} grid")
    return (cx, cy), radius, c


def cover_preimage(g, center, radius, c=5):
    """Cover the preimage of a grid ball by graph balls of uniform radius.

    Centers are chosen greedily in vertex order, pairwise more than 2*radius
    apart in the graph, from the fibers over the grid ball; each carries a
    ball of radius c*radius.  The report checks that each ball's projected
    image contains the grid ball and counts the balls' worst overlap.  Two
    properties hold by construction in a hop metric: the radius balls are
    disjoint, as no vertex is within radius of two centers over 2*radius
    apart; and the dilated balls cover the preimage, as each preimage vertex
    is a center or within 2*radius <= c*radius (c >= 5) of the center whose
    row dropped it.
    """
    side = 3**g.level
    (cx, cy), radius, c = _cover_args(side, center, radius, c)
    sx, sy = g.square_x, g.square_y
    cell = sx * side + sy
    pre = np.flatnonzero(np.abs(sx - cx) + np.abs(sy - cy) <= radius)
    # every grid cell carries a tile, so the grid ball is the cells under its preimage
    target = np.unique(cell[pre])

    # the next center is the first preimage vertex no earlier center is near
    ball_radius = c * radius
    centers, witness = [], None
    covered = np.zeros(g.n_vertices, dtype=np.int64)
    left = pre
    while left.size:
        u = int(left[0])
        row = bfs_row(g, u)
        if (row < 0).any():
            raise ValueError("graph is disconnected; balls do not nest")
        centers.append(u)
        members = row <= ball_radius
        covered += members
        missing = np.setdiff1d(target, cell[members])  # sorted, so in (x, y) order
        if missing.size and witness is None:
            witness = ("image", g.words[u], [divmod(int(k), side) for k in missing[:3]])
        left = left[row[left] > 2 * radius]
    return CoverReport(
        center=(cx, cy),
        radius=radius,
        c=c,
        centers=[g.words[u] for u in centers],
        ball_radius=ball_radius,
        uniform_radius=True,
        target_covered=witness is None,
        shrunk_disjoint=True,
        preimage_covered=True,
        max_overlap=int(covered.max()),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Poincare-ratio diagnostic


@dataclass
class PIDiagnostic:
    p: float
    trials: int
    worst_ratio: float
    worst_case: tuple | None  # (function label, center word, radius)
    rows: list[tuple]  # (label, center word, radius, lhs, rhs, ratio)


def _gradient(g, u):
    """Largest |u(y) - u(x)| over the neighbours y of each x (self padding adds 0)."""
    return np.abs(u[g.neighbours] - u).max(axis=0)


def pi_diagnostic(g, m, p, trials, seed):
    """Worst observed ratio of mean oscillation to the gradient term.

    For sampled balls and a small family of test functions (the two cell
    coordinates, the ambient x coordinate of the projected square, and
    random functions constant on level-1 prefix blocks), computes

        mean_B |u - u_B|   over   diam(B) * (mean_CB grad^p)^(1/p)

    with the graph gradient (max absolute difference over incident edges),
    means weighted by the tile measure, CB the ball of PI_DILATION times
    B's radius, and diam(B) proxied by twice the largest center distance
    observed in B.  The maximum ratio is an empirical lower bound for any
    Poincare constant at this level; a function constant on B has mean
    oscillation exactly 0 there, so its ratio is 0 (also for 0/0).
    """
    p = _exponent(p, math.inf)
    if m.level != g.level:
        raise ValueError("measure level must match the graph")
    if _integer(trials, "trials") < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(_seed(seed))
    n = g.n_vertices
    weight = np.zeros(n)
    weight[list(m.mass)] = [float(frac) for frac in m.mass.values()]
    side = 3**g.level

    fixed = [
        ("cell-x", g.square_x.astype(np.float64)),
        ("cell-y", g.square_y.astype(np.float64)),
        ("ambient-x", (g.square_x + 0.5) / side),
    ]
    fixed_grads = [_gradient(g, u) for _, u in fixed]  # once, not on every trial
    block = np.arange(n) // 10 ** (g.level - 1)  # each vertex's level-1 prefix block
    # every trial's function, center and radius first, then one BFS over
    # the centers; a low-frequency function is kept as its ten block values,
    # not as a row of n per trial
    draws = []
    for _ in range(trials):
        which = rng.randrange(len(fixed) + 1)
        values = None
        if which == len(fixed):
            values = np.array([rng.uniform(0.0, 1.0) for _ in range(10)])
        draws.append((which, values, rng.randrange(n), rng.randint(1, max(1, side // 2))))
    centers = [c for _, _, c, _ in draws]
    dists = (row for _, block_rows in bfs_blocks(g, centers) for row in block_rows)
    rows = []
    worst, worst_case = 0.0, None
    for (which, values, center, radius), dist in zip(draws, dists):
        label, u = fixed[which] if values is None else ("low-frequency", values[block])
        if (dist < 0).any():
            raise ValueError("graph is disconnected; balls are ill-defined")
        in_b = dist <= radius
        in_cb = dist <= PI_DILATION * radius
        wb = weight[in_b]
        if wb.sum() == 0:
            continue
        ball = u[in_b]
        ub = float((ball * wb).sum() / wb.sum())
        # u constant on B has no oscillation, whatever the rounding of ub
        lhs = float((np.abs(ball - ub) * wb).sum() / wb.sum()) if np.ptp(ball) else 0.0
        grad = fixed_grads[which] if values is None else _gradient(g, u)
        # CB contains B, so its mass is positive
        wcb = weight[in_cb]
        gterm = float((grad[in_cb] ** p * wcb).sum() / wcb.sum()) ** (1.0 / p)
        diam = 2 * int(dist[in_b].max())
        rhs = diam * gterm
        if lhs == 0.0:
            ratio = 0.0
        elif rhs == 0.0:
            ratio = math.inf
        else:
            ratio = lhs / rhs
        rows.append((label, g.words[center], radius, lhs, rhs, ratio))
        if ratio > worst:
            worst, worst_case = ratio, (label, g.words[center], radius)
    return PIDiagnostic(p, trials, worst, worst_case, rows)


# ---------------------------------------------------------------------------
# persistence


def write_metric_matrix(d, path):
    """Binary dump: magic, level, vertex count, upper triangle in 16.16, row by row."""
    e = d.entries
    # rounding is monotone, so the rounded extremes bound every entry
    lo, hi = np.round(np.array([e.min(), e.max()]) * _FIXED_ONE)
    if not 0 <= lo <= hi < 2**32:
        raise ValueError("distances out of range for the 16.16 format")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", d.level, d.n_vertices))
        for i, row in enumerate(e):
            fh.write(np.round(row[i + 1 :] * _FIXED_ONE).astype("<u4").tobytes())


def read_metric_matrix(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a metric matrix file: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("truncated header")
        level, n = struct.unpack("<II", header)
        check_level(level, DENSE_LEVEL_LIMIT, name="metric level", over=ValueError)
        if n != 10**level:
            raise ValueError("vertex count does not match the level")
        if os.fstat(fh.fileno()).st_size != 12 + 4 * (n * (n - 1) // 2):
            raise ValueError("truncated or oversized payload")
        entries = np.zeros((n, n))
        for i in range(n - 1):
            row = np.frombuffer(fh.read(4 * (n - 1 - i)), dtype="<u4") / _FIXED_ONE
            entries[i, i + 1 :] = row
            entries[i + 1 :, i] = row
    # quantization can nick the triangle inequality by a few fixed-point ulps
    return MetricMatrix(level, entries, slack=4.0 / _FIXED_ONE)
