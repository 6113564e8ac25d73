"""Exact tile measures and their singularity diagnostics.

Masses are Fractions (or ints) keyed by integer word index.  The dict's key
set is the measure's universe: absent tiles are outside the measure entirely,
while an explicit zero entry is a genuine zero-mass tile (the distinction
matters for the doubling check).  The headline computation is the
pushforward to the x-axis, whose middle-third weight ratio is exactly 4/10 for
the uniform measure at every triadic interval: the mechanism behind measure
singularity.  Sums and ratios run on integer numerators over one common
denominator; every result is still an exact Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index

import numpy as np

from .words import GRID_LETTERS, _check_capacity, _square_arrays, parse_word, section


def _check_level(level):
    # before anything is sized by it: uniform's and one_sheet's dicts, pushforward_x's squares
    if type(level) is not int or level < 0:
        raise ValueError(f"measure level must be an int >= 0, got {level!r}")
    _check_capacity(level)


@dataclass
class TileMeasure:
    """Nonnegative rational masses on level-`level` tiles (sparse by universe)."""

    level: int
    mass: dict[int, Fraction]

    def __post_init__(self):
        _check_level(self.level)
        if not self.mass:
            raise ValueError("a tile measure needs a nonempty universe")
        top = 10**self.level
        for idx, m in self.mass.items():
            try:
                idx = index(idx)  # index, not int: 0.5 is no tile
            except TypeError:
                raise ValueError(f"tile index {idx!r} is not an integer") from None
            if not (0 <= idx < top):
                raise ValueError(f"tile index {idx} outside level {self.level}")
            if not isinstance(m, (Fraction, int)):
                raise ValueError(f"mass at tile {idx} is not a Fraction or int: {m!r}")
            if m.numerator < 0:  # the sign, without a Fraction comparison
                raise ValueError(f"negative mass at tile {idx}")
        if self.total() <= 0:
            raise ValueError("total mass must be positive")

    def total(self):
        nums, d = _scaled(self.mass.values())
        return Fraction(sum(nums), d)

    @classmethod
    def uniform(cls, level):
        """Equal mass 10^-level on every tile."""
        _check_level(level)
        m = Fraction(1, 10**level)
        return cls(level, {i: m for i in range(10**level)})

    @classmethod
    def one_sheet(cls, level, bits=None):
        """Uniform mass 9^-level on the tiles of a single sheet.

        The sheet is selected by a flip-group bit string (default: the base
        sheet of the center-free words).  Tiles off the sheet are not part of
        this measure's universe.
        """
        _check_level(level)
        if bits is None:
            bits = "0" * level
        m = Fraction(1, 9**level)
        mass = {}
        for letters in _grid_words(level):
            mass[int(section(letters, bits))] = m
        return cls(level, mass)

    @classmethod
    def dirac(cls, word):
        word = parse_word(word)
        return cls(len(word), {int(word): Fraction(1)})


def _scaled(masses):
    """(numerators, d): the masses as ints over their least common denominator d."""
    masses = list(masses)
    d = math.lcm(*{m.denominator for m in masses})
    return [m.numerator * (d // m.denominator) for m in masses], d


def _grid_words(level):
    import itertools

    for p in itertools.product(GRID_LETTERS, repeat=level):
        yield "".join(p)


@dataclass
class IntervalWeights:
    """Exact weights of the 3^level triadic x-intervals."""

    level: int
    weights: list[Fraction]

    def total(self):
        return sum(self.weights, Fraction(0))


def pushforward_x(measure):
    """Project a tile measure to the x-axis subdivision."""
    n = measure.level
    nums, d = _scaled(measure.mass.values())
    acc = [0] * 3**n
    xs = _square_arrays(n)[0].tolist()  # x of every tile's square, by index
    for idx, a in zip(measure.mass, nums):
        acc[xs[idx]] += a
    return IntervalWeights(n, [Fraction(a, d) for a in acc])


@dataclass(frozen=True)
class RatioRow:
    level: int  # level of the parent interval
    index: int  # parent interval index at that level
    weight: Fraction  # parent weight
    ratio: Fraction  # weight(middle third) / weight(parent)


def middle_third_ratios(interval_weights):
    """Exact mid-third ratios for every positive-weight triadic interval.

    Returns (rows, skipped) where skipped lists the (level, index) pairs of
    zero-weight parents, which have no well-defined ratio.
    """
    n = interval_weights.level
    per_level = {n: list(interval_weights.weights)}
    for m in range(n - 1, -1, -1):
        finer = per_level[m + 1]
        per_level[m] = [
            finer[3 * i] + finer[3 * i + 1] + finer[3 * i + 2] for i in range(3**m)
        ]
    rows, skipped = [], []
    for m in range(n):
        coarse, finer = per_level[m], per_level[m + 1]
        for i, weight in enumerate(coarse):
            if weight == 0:
                skipped.append((m, i))
            else:
                rows.append(RatioRow(m, i, weight, finer[3 * i + 1] / weight))
    return rows, skipped


@dataclass
class DoublingReport:
    max_ratio: Fraction | None  # None when flagged non-doubling
    non_doubling: bool
    witness: tuple | None = None
    pairs_checked: int = 0

    @property
    def ratio(self):
        return math.inf if self.non_doubling else self.max_ratio


def tile_doubling_check(measure, graph):
    """Worst mass ratio over nearby tile pairs at levels n and n-1.

    Same-level pairs run over graph edges inside the universe; cross-level
    pairs compare each tile to its one-letter-coarser parent (prefix sum over
    the universe).  An explicit zero-mass tile adjacent to positive mass is
    non-doubling (infinite ratio).  Masses are compared as integer numerators
    over one denominator, and a ratio hi/lo beats the worst wp/wq so far when
    hi * wq > wp * lo, so the loop divides nothing.
    """
    if graph.level != measure.level:
        raise ValueError("graph level must match the measure level")
    nums, _d = _scaled(measure.mass.values())
    mass = dict(zip(measure.mass, nums))
    wp, wq = 0, 1  # the worst ratio so far, wp / wq
    witness = None
    checked = 0

    for i, j in zip(graph.u.tolist(), graph.v.tolist()):
        if i in mass and j in mass:
            a, b = mass[i], mass[j]
            checked += 1
            if (a == 0) != (b == 0):
                return DoublingReport(None, True, ("edge", i, j), checked)
            if a and b:
                hi, lo = (a, b) if a >= b else (b, a)
                if hi * wq > wp * lo:
                    wp, wq, witness = hi, lo, ("edge", i, j)

    if measure.level >= 1:
        parent_sum = {}
        for idx, a in mass.items():
            parent_sum[idx // 10] = parent_sum.get(idx // 10, 0) + a
        for idx, a in mass.items():
            total = parent_sum[idx // 10]
            checked += 1
            if a == 0 and total > 0:
                return DoublingReport(None, True, ("parent", idx), checked)
            if a and total * wq > wp * a:
                wp, wq, witness = total, a, ("parent", idx)

    return DoublingReport(Fraction(wp, wq), False, witness, checked)


@dataclass
class DimensionFit:
    estimate: float
    residual: float  # max abs deviation of the fit over the data points
    rows: list = field(default_factory=list)  # (variant, level_or_radius, count)


def box_dimension_estimate(levels):
    """Tile-count slope: log(#tiles) against log(1/side) across levels."""
    levels = sorted(set(levels))
    if len(levels) < 2:
        raise ValueError("need at least two levels for a slope")
    xs = np.array([n * math.log(3) for n in levels])
    ys = np.array([n * math.log(10) for n in levels])
    return DimensionFit(*_fit(xs, ys), [("tiles", n, 10**n) for n in levels])


def ball_dimension_estimate(graph, samples, seed, radii_exponents=None):
    """Ball-count slope: log |ball(v, 3^m)| against m log 3, averaged over v.

    Samples only vertices whose largest ball avoids the outer hull (when any
    exist); a clipped ball undercounts and drags the slope down.  The default
    radius grid likewise drops 3^1, whose discreteness bias dominates.
    """
    from .graphs import bfs_rows

    n = graph.level
    if radii_exponents is None:
        radii_exponents = list(range(2, n)) if n >= 4 else list(range(1, n))
    if len(radii_exponents) < 2:
        raise ValueError("need at least two radii")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    side = 3**n
    hull = np.minimum(
        np.minimum(graph.square_x, side - 1 - graph.square_x),
        np.minimum(graph.square_y, side - 1 - graph.square_y),
    )
    candidates = np.nonzero(hull >= 3 ** max(radii_exponents))[0]
    if len(candidates) == 0:
        candidates = np.arange(graph.n_vertices)
    centers = rng.choice(candidates, size=min(samples, len(candidates)), replace=False)
    max_r = 3 ** max(radii_exponents)
    log_counts = np.zeros(len(radii_exponents))
    rows = []
    for dist in bfs_rows(graph, centers, cutoff=max_r):
        values = dist[dist >= 0]
        for col, m in enumerate(radii_exponents):
            count = int((values <= 3**m).sum())
            log_counts[col] += math.log(count)
            rows.append(("balls", 3**m, count))
    log_counts /= len(centers)
    xs = np.array([m * math.log(3) for m in radii_exponents])
    return DimensionFit(*_fit(xs, log_counts), rows)


def _fit(xs, ys):
    """Least-squares slope of ys over xs, and the fit's largest deviation."""
    xbar, ybar = xs.mean(), ys.mean()
    slope = float(((xs - xbar) * (ys - ybar)).sum() / ((xs - xbar) ** 2).sum())
    intercept = float(ybar - slope * xbar)
    return slope, float(np.max(np.abs(ys - (slope * xs + intercept))))
