"""Experiments on vertex metrics of the tile graphs.

A MetricMatrix is a dense symmetric distance table over the vertices of one
level.  On top of it: averaging over the sheet-flip group, blowups into
prefix blocks, empirical quasisymmetry-distortion profiles, the ball-image
check for the collapsing projection, the covering construction over a grid
ball, and a Poincare-ratio diagnostic.  A compact binary format round-trips
matrices through files.
"""

from __future__ import annotations

import math
import os
import random
import struct
from dataclasses import dataclass

import numpy as np

from .graphs import bfs_blocks, bfs_row, bfs_rows, flip_permutation, prefix_subgraph
from .words import BALL_IMAGE_LIMIT, _exponent, _integer, check_level, parse_word

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
        # cover every pair, and no temporary outgrows a tile.  Once the table
        # is symmetric, the diagonal's n zeros must be the tiles' only
        # entries <= 0.
        nonpositive, b = 0, _CHECK_TILE
        for i in range(0, n, b):
            for j in range(i, n, b):
                tile = e[i : i + b, j : j + b]
                if not np.array_equal(tile, e[j : j + b, i : i + b].T):
                    raise ValueError("table must be symmetric")
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


def symmetrize(d, mode="exact", samples=None, seed=None):
    """Average the metric over the sheet-flip group.

    The result is flip-invariant on the nose and still a metric, averages
    of metrics being metrics.  Exact mode averages over the whole group of
    2^level flips as over each of its level generators in turn: the
    one-level flips commute, so the group average is the product of the
    averages over {identity, flip}, and each is one gather in place.  Each
    partial average of a hop metric is a dyadic rational of small integers,
    so the table equals the 2^level-term sum bit for bit; for other tables
    the two differ by rounding at most.  Sampled mode averages `samples`
    seeded uniform group elements instead and is reproducible for a fixed
    seed.
    """
    level = d.level
    if mode == "exact":
        acc = d.entries.copy()
        for k in range(level):
            perm = flip_permutation(d, "0" * k + "1" + "0" * (level - k - 1))
            acc += acc[np.ix_(perm, perm)]
            acc /= 2
    elif mode == "sampled":
        if samples is None or _integer(samples, "samples") < 1:
            raise ValueError("sampled mode needs samples >= 1")
        rng = random.Random(_integer(seed, "seed"))
        draws = ["".join(rng.choice("01") for _ in range(level)) for _ in range(samples)]
        acc = np.zeros_like(d.entries)
        for bits in draws:
            perm = flip_permutation(d, bits)
            acc += d.entries[np.ix_(perm, perm)]
        acc /= len(draws)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
    rng = random.Random(_integer(seed, "seed"))
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
# ball images under the collapsing projection


@dataclass
class QuotientReport:
    level: int
    vertices_checked: int
    max_radius: int
    ok: bool
    witness: tuple | None  # (word, cell, ball_image_radius, grid_radius)


def lipschitz_quotient_check(g):
    """Projected graph balls versus grid balls, all centers and radii.

    For each vertex x the check compares, per grid cell c, the least graph
    distance from x to the fiber over c against the grid distance from x's
    cell to c.  Their equality for every cell is equivalent to the two-sided
    ball identity (image of ball(x, r) = grid ball of radius r) at every
    radius simultaneously.
    """
    check_level(g.level, BALL_IMAGE_LIMIT, name="exhaustive ball-image check level")
    side = 3**g.level
    sx, sy = g.square_x, g.square_y
    cell = sx * side + sy
    gx, gy = np.divmod(np.arange(side * side, dtype=np.int64), side)
    # every grid cell carries at least one tile, so the runs of the vertices
    # sorted by cell start at the cumulative fiber sizes, one run per cell
    by_cell = np.argsort(cell, kind="stable")
    runs = np.concatenate([[0], np.cumsum(np.bincount(cell))[:-1]])
    max_radius = 0
    # One first-letter block of centers per BFS call, not bfs_blocks' calls:
    # the comparison holds about four tables the size of its rows, so one
    # call for all of level 3 peaks at 30 MB of arrays, ten calls at 4 MB.
    block = g.n_vertices // 10
    for lo in range(0, g.n_vertices, block):
        dist = bfs_rows(g, range(lo, lo + block))
        if (dist < 0).any():
            raise ValueError("graph is disconnected; ball images are unbounded")
        nearest = np.minimum.reduceat(dist[:, by_cell], runs, axis=1)
        centers = slice(lo, lo + block)
        grid = np.abs(gx - sx[centers, None]) + np.abs(gy - sy[centers, None])
        bad_rows = np.flatnonzero((nearest != grid).any(axis=1))
        if bad_rows.size:
            r = int(bad_rows[0])
            i = lo + r
            max_radius = max(max_radius, int(dist[: r + 1].max()))
            bad = int(np.flatnonzero(nearest[r] != grid[r])[0])
            witness = (g.words[i], (int(gx[bad]), int(gy[bad])), int(nearest[r, bad]),
                       int(grid[r, bad]))
            return QuotientReport(g.level, i + 1, max_radius, False, witness)
        max_radius = max(max_radius, int(dist.max()))
    return QuotientReport(g.level, g.n_vertices, max_radius, True, None)


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
    c, radius = _integer(c, "constant"), _integer(radius, "radius")
    if c < 5:
        raise ValueError("constant must be at least 5 to cover while staying disjoint")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    side = 3**g.level
    cx, cy = (_integer(a, "grid cell coordinates") for a in center)
    if not (0 <= cx < side and 0 <= cy < side):
        raise ValueError(f"grid cell {center} outside the {side} x {side} grid")
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
    rng = random.Random(_integer(seed, "seed"))
    n = g.n_vertices
    weight = np.zeros(n)
    weight[list(m.mass)] = [float(frac) for frac in m.mass.values()]
    side = 3**g.level

    fixed = [
        ("cell-x", g.square_x.astype(np.float64)),
        ("cell-y", g.square_y.astype(np.float64)),
        ("ambient-x", (g.square_x + 0.5) / side),
    ]
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
        grad = _gradient(g, u)
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
    """Binary dump: magic, level, vertex count, upper triangle in 16.16."""
    e = d.entries
    scaled = np.round(e * _FIXED_ONE)
    if (scaled < 0).any() or (scaled >= 2**32).any():
        raise ValueError("distances out of range for the 16.16 format")
    iu = np.triu_indices(d.n_vertices, k=1)
    payload = scaled[iu].astype("<u4")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", d.level, d.n_vertices))
        fh.write(payload.tobytes())


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
        payload = np.frombuffer(fh.read(), dtype="<u4")
    entries = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    entries[iu] = payload / _FIXED_ONE
    entries += entries.T
    # quantization can nick the triangle inequality by a few fixed-point ulps
    return MetricMatrix(level, entries, slack=4.0 / _FIXED_ONE)
