"""Exact tile measures and their singularity diagnostics.

Tile `tiles[k]` (int64, the universe in the order given) has mass
`numerators[k] / denominator`.  Absent tiles are outside the measure, while a
zero numerator is a genuine zero-mass tile (the doubling check tells them
apart).  Numerators are int64 when max * sum < 2^62, so every sum and cross
product fits, else Python ints in an object array; one numpy path runs on
both, in whole-array passes, and every result is an exact Fraction.  The
headline computation is the pushforward to the x-axis, whose middle-third
weight ratio is exactly 4/10 for the uniform measure at every triadic
interval: the mechanism behind measure singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .words import (LevelWords, _grid_table, _integer, _seed, _square_arrays, check_level,
                    parse_word)


class TileMeasure:
    """Nonnegative rational masses on level-`level` tiles (sparse by universe).

    `TileMeasure(level, {tile: mass})` takes Fraction or int masses.  Two
    measures are equal when their `mass` dicts are; a measure has no hash.
    """

    def __init__(self, level, mass):
        level = check_level(level, low=0, name="measure level")
        if not mass:
            raise ValueError("a tile measure needs a nonempty universe")
        top = 10**level
        for idx, m in mass.items():
            idx = _integer(idx, "tile index")
            if not (0 <= idx < top):
                raise ValueError(f"tile index {idx} outside level {level}")
            if isinstance(m, bool) or not isinstance(m, (Fraction, int)):  # a bool is no mass
                raise ValueError(f"mass at tile {idx} is not a Fraction or int: {m!r}")
            if m.numerator < 0:  # the sign, without a Fraction comparison
                raise ValueError(f"negative mass at tile {idx}")
        if not any(mass.values()):  # every mass is >= 0, so only all zeros sum to 0
            raise ValueError("total mass must be positive")
        d = math.lcm(*{m.denominator for m in mass.values()})
        nums = [m.numerator * (d // m.denominator) for m in mass.values()]
        big = max(nums) * sum(nums) >= 2**62  # else every sum and cross product fits int64
        self.level, self.denominator = level, d
        self.tiles = np.fromiter(map(int, mass), np.int64, len(mass))
        self.numerators = np.array(nums, object if big else np.int64)

    @classmethod
    def _of(cls, level, tiles, denominator):
        """Mass 1/denominator on each of the int64 tiles."""
        measure = cls.__new__(cls)
        vars(measure).update(level=level, tiles=tiles, numerators=np.ones(len(tiles), np.int64),
                             denominator=denominator)
        return measure

    @property
    def mass(self):
        """{tile: Fraction}, in tile order; built on each read, so changing
        it changes no measure."""
        d = self.denominator
        return {t: Fraction(a, d) for t, a in zip(self.tiles.tolist(), self.numerators.tolist())}

    def __eq__(self, other):
        if not isinstance(other, TileMeasure):
            return NotImplemented
        return self.level == other.level and self.mass == other.mass

    def __repr__(self):
        return f"TileMeasure(level={self.level}, tiles={len(self.tiles)}, total={self.total()})"

    def total(self):
        return Fraction(int(self.numerators.sum()), self.denominator)

    @classmethod
    def uniform(cls, level):
        """Equal mass 10^-level on every tile."""
        level = check_level(level, low=0, name="measure level")
        return cls._of(level, np.arange(10**level, dtype=np.int64), 10**level)

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
        return cls._of(level, tiles, 9**level)

    @classmethod
    def dirac(cls, word):
        word = parse_word(word)
        return cls._of(len(word), np.array([int(word or "0")], np.int64), 1)  # "": the level-0 tile


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
    acc = np.zeros(3**n, measure.numerators.dtype)
    xs = _square_arrays(n)[0]  # x of every tile's square, by index
    np.add.at(acc, xs[measure.tiles], measure.numerators)
    return IntervalWeights(n, [Fraction(a, measure.denominator) for a in acc.tolist()])


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

    Same-level pairs run over graph edges inside the universe, in edge
    order; cross-level pairs compare each tile, in tile order, to its
    one-letter-coarser parent (prefix sum over the universe).  An explicit
    zero-mass tile adjacent to positive mass is non-doubling (infinite
    ratio), and the report names the first such pair.  Otherwise it names
    the first pair that reaches the worst ratio.  Edges go one row's worth
    at a time, so no step holds more than a few rows.
    """
    if graph.level != measure.level:
        raise ValueError("graph level must match the measure level")
    tiles, nums = measure.tiles, measure.numerators
    at = np.full(10**measure.level, -1, nums.dtype)  # each tile's numerator, -1 off the universe
    at[tiles] = nums
    worst, checked = (0, 1, None), 0
    for s in range(0, len(graph.u), len(at)):
        u, v = graph.u[s : s + len(at)], graph.v[s : s + len(at)]
        hi, lo = at[u], at[v]
        hi, lo = np.maximum(hi, lo), np.minimum(hi, lo)
        inside = lo >= 0
        if (bad := np.flatnonzero((lo == 0) & (hi > 0))).size:
            k = bad[0]
            return DoublingReport(None, True, ("edge", int(u[k]), int(v[k])),
                                  checked + int(inside[: k + 1].sum()))
        checked += int(inside.sum())
        hi[~inside] = 0  # a pair not compared reads 0/1, which beats nothing
        np.maximum(lo, 1, out=lo)
        worst = _worse(worst, hi, lo, lambda k: ("edge", int(u[k]), int(v[k])))
    if measure.level >= 1:
        total = np.zeros(len(at) // 10, nums.dtype)
        np.add.at(total, tiles // 10, nums)
        total = total[tiles // 10]
        if (bad := np.flatnonzero((nums == 0) & (total > 0))).size:
            return DoublingReport(None, True, ("parent", int(tiles[bad[0]])), checked + int(bad[0]) + 1)
        checked += len(tiles)
        worst = _worse(worst, total, np.maximum(nums, 1), lambda k: ("parent", int(tiles[k])))
    wp, wq, witness = worst
    return DoublingReport(Fraction(int(wp), int(wq)), False, witness, checked)


def _worse(worst, hi, lo, witness):
    """worst = (wp, wq, witness), or the first k of the largest ratio hi[k] /
    lo[k] (lo >= 1), with witness(k), if that is larger still.  Ratios compare
    as exact cross products; a float quotient only picks the first candidate."""
    k = int(_quotients(hi, lo).argmax())
    while (above := hi * lo[k] > hi[k] * lo).any():
        k = int(np.where(above, _quotients(hi, lo), -1.0).argmax())
    k = int((hi * lo[k] == hi[k] * lo).argmax())  # the first to reach it
    wp, wq, _ = worst
    return (hi[k], lo[k], witness(k)) if hi[k] * wq > wp * lo[k] else worst


def _quotients(hi, lo):
    """hi / lo as floats, capped at 2^1000 where Python ints would overflow one."""
    return hi / lo if hi.dtype != object else (np.minimum(hi, lo << 1000) / lo).astype(float)


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
