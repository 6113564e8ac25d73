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

import numpy as np

from .words import (LevelWords, _grid_table, _integer, _seed, _square_arrays, check_level,
                    parse_word)


@dataclass
class TileMeasure:
    """Nonnegative rational masses on level-`level` tiles (sparse by universe)."""

    level: int
    mass: dict[int, Fraction]

    def __post_init__(self):
        self.level = check_level(self.level, low=0, name="measure level")
        if not self.mass:
            raise ValueError("a tile measure needs a nonempty universe")
        top = 10**self.level
        for idx, m in self.mass.items():
            idx = _integer(idx, "tile index")
            if not (0 <= idx < top):
                raise ValueError(f"tile index {idx} outside level {self.level}")
            if isinstance(m, bool) or not isinstance(m, (Fraction, int)):  # a bool is no mass
                raise ValueError(f"mass at tile {idx} is not a Fraction or int: {m!r}")
            if m.numerator < 0:  # the sign, without a Fraction comparison
                raise ValueError(f"negative mass at tile {idx}")
        if not any(self.mass.values()):  # every mass is >= 0, so only all zeros sum to 0
            raise ValueError("total mass must be positive")

    def total(self):
        nums, d = _scaled(self.mass.values())
        return Fraction(sum(nums), d)

    @classmethod
    def uniform(cls, level):
        """Equal mass 10^-level on every tile."""
        level = check_level(level, low=0, name="measure level")
        m = Fraction(1, 10**level)
        return cls(level, {i: m for i in range(10**level)})

    @classmethod
    def one_sheet(cls, level, bits=None):
        """Uniform mass 9^-level on the tiles of a single sheet.

        The sheet is selected by a flip-group bit string (default: the base
        sheet of the center-free words).  Tiles off the sheet are not part of
        this measure's universe.
        """
        from .graphs import flip_permutation  # here: pushforward and ratios load no graphs

        level = check_level(level, low=0, name="measure level")
        flip = flip_permutation(LevelWords(level), "0" * level if bits is None else bits)
        tiles = flip[np.sort(_grid_table(level).ravel())]  # in the center-free words' order
        return cls(level, dict.fromkeys(tiles.tolist(), Fraction(1, 9**level)))

    @classmethod
    def dirac(cls, word):
        word = parse_word(word)
        return cls(len(word), {int(word or "0"): Fraction(1)})  # "": the level-0 tile


def _scaled(masses):
    """(numerators, d): the masses as ints over their least common denominator d."""
    masses = list(masses)
    d = math.lcm(*{m.denominator for m in masses})
    return [m.numerator * (d // m.denominator) for m in masses], d


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
    levels = sorted({_integer(n, "level") for n in levels})  # no cap: it sizes nothing
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
    from .graphs import hop_row

    n = graph.level
    if radii_exponents is None:
        radii_exponents = list(range(2, n)) if n >= 4 else list(range(1, n))
    radii_exponents = [_integer(m, "radius exponent") for m in radii_exponents]
    if not 2 <= len(set(radii_exponents)) == len(radii_exponents) or min(radii_exponents) < 0:
        raise ValueError(f"need at least two radii, distinct and >= 0, got {radii_exponents}")
    if _integer(samples, "samples") < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(_seed(seed))
    side = 3**n
    hull = np.minimum(
        np.minimum(graph.square_x, side - 1 - graph.square_x),
        np.minimum(graph.square_y, side - 1 - graph.square_y),
    )
    candidates = np.nonzero(hull >= 3 ** max(radii_exponents))[0]
    if len(candidates) == 0:
        candidates = np.arange(graph.n_vertices)
    centers = rng.choice(candidates, size=min(samples, len(candidates)), replace=False)
    log_counts = np.zeros(len(radii_exponents))
    rows = []
    for c in centers:  # one row at a time: 20,000 L5 centers hold one row of 10^5
        dist = hop_row(graph, c)
        for col, m in enumerate(radii_exponents):
            count = int((dist <= 3**m).sum())
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
