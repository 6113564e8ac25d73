"""Tests for exact tile measures: pushforward, ratios, doubling, dimension."""

import hashlib
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import pillowspace as ps
from pillowspace.measures import (
    DimensionFit,
    DoublingReport,
    IntervalWeights,
    TileMeasure,
    ball_dimension_estimate,
    box_dimension_estimate,
    middle_third_ratios,
    pushforward_x,
    tile_doubling_check,
)
from pillowspace.words import (GRID_LETTERS, MAX_LEVEL, CapacityError, _prefix_states,
                               _square_arrays, all_words, section, word_square)


@pytest.fixture(scope="module")
def g2():
    return ps.build_graph(2)


@pytest.mark.parametrize("word", ["+5", "1_0", " +5", "5a", "-1"])
def test_measure_words_must_parse(word):
    # int() used to take these: "+5" was the Dirac mass at tile "05"
    with pytest.raises(ValueError):
        TileMeasure.dirac(word)


def test_dirac_of_the_empty_word_is_the_level_zero_mass():
    m = TileMeasure.dirac("")
    assert (m.level, m.mass) == (0, {0: Fraction(1)})
    assert m.mass == TileMeasure.uniform(0).mass == TileMeasure.one_sheet(0).mass


@pytest.mark.parametrize("level", [-1, 1.0, "2", None, True])
def test_measure_level_must_be_a_natural_number(level):
    with pytest.raises(ValueError):
        TileMeasure(level, {0: Fraction(1)})
    with pytest.raises(ValueError):
        TileMeasure.uniform(level)
    with pytest.raises(ValueError):
        TileMeasure.one_sheet(level)


@pytest.mark.parametrize("make", [
    lambda level: TileMeasure(level, {0: Fraction(1)}),
    TileMeasure.uniform,
    TileMeasure.one_sheet,
])
def test_measure_level_is_capped_before_anything_is_sized(make, monkeypatch):
    # TileMeasure(12, ...) was accepted; uniform makes its mass, and one_sheet
    # its grid table, before a dict of 10^level or 9^level entries
    def refuse(*args):
        raise AssertionError("a measure was sized before its level was checked")

    monkeypatch.setattr(ps.measures, "Fraction", refuse)
    monkeypatch.setattr(ps.measures, "_grid_table", refuse)
    for level in (MAX_LEVEL + 1, 12):
        with pytest.raises(CapacityError, match=str(level)):
            make(level)


def test_uniform_total_and_validation():
    m = TileMeasure.uniform(2)
    assert m.total() == 1
    assert len(m.mass) == 100
    with pytest.raises(ValueError):
        TileMeasure(1, {})
    with pytest.raises(ValueError):
        TileMeasure(1, {0: Fraction(-1)})
    with pytest.raises(ValueError):
        TileMeasure(1, {0: Fraction(0)})
    for zero in (0, Fraction(0)):  # every mass zero, int or Fraction
        with pytest.raises(ValueError, match="^total mass must be positive$"):
            TileMeasure(1, {0: zero, 5: Fraction(0), 9: 0})
    with pytest.raises(ValueError):
        TileMeasure(1, {10: Fraction(1)})


@pytest.mark.parametrize("mass", [
    {0.5: Fraction(1), 2: Fraction(1)},  # pushforward_x raised TypeError on it
    {True: Fraction(1), 2: Fraction(1)},  # was read as tile 1
    {"3": Fraction(1)},
    {3: 1.5},  # had a float total
    {3: Fraction(1), 4: 0.25},
])
def test_measure_keys_are_indices_and_masses_exact(mass):
    with pytest.raises(ValueError):
        TileMeasure(1, mass)


def test_measure_refuses_a_bool_mass():
    # True is an int, so it was read as mass 1: this measure had total 3/2
    with pytest.raises(ValueError, match="^mass at tile 0 is not a Fraction or int: True$"):
        TileMeasure(1, {0: True, 1: Fraction(1, 2)})


def test_measure_accepts_int_masses_and_index_keys():
    m = TileMeasure(1, {np.int64(3): 1, 4: Fraction(1, 2)})
    assert m.total() == Fraction(3, 2)
    assert pushforward_x(m).total() == Fraction(3, 2)


@pytest.mark.parametrize("make", [TileMeasure.uniform, TileMeasure.one_sheet])
def test_pushforward_matches_word_squares(make):
    m = make(3)
    weights = [Fraction(0)] * 27
    for idx, w in enumerate(all_words(3)):
        weights[ps.word_square(w).x] += m.mass.get(idx, 0)
    assert pushforward_x(m).weights == weights


def test_pushforward_level_one():
    iw = pushforward_x(TileMeasure.uniform(1))
    assert iw.weights == [Fraction(3, 10), Fraction(4, 10), Fraction(3, 10)]
    assert iw.total() == 1


def test_pushforward_middle_of_middle():
    iw = pushforward_x(TileMeasure.uniform(2))
    assert iw.weights[4] == Fraction(16, 100)  # [4/9,5/9] gets (4/10)^2


def test_uniform_ratios_are_exactly_two_fifths():
    for n in (1, 2, 3):
        rows, skipped = middle_third_ratios(pushforward_x(TileMeasure.uniform(n)))
        assert not skipped
        assert len(rows) == sum(3**m for m in range(n))
        assert all(r.ratio == Fraction(4, 10) for r in rows)


def test_one_sheet_ratios_are_exactly_one_third():
    # level 0 is the one-tile measure, as uniform(0) is; its grid word is ""
    assert TileMeasure.one_sheet(0) == TileMeasure.uniform(0) == TileMeasure(0, {0: Fraction(1)})
    for n in (0, 1, 2, 3):
        rows, skipped = middle_third_ratios(pushforward_x(TileMeasure.one_sheet(n)))
        assert not skipped and len(rows) == sum(3**m for m in range(n))
        assert all(r.ratio == Fraction(1, 3) for r in rows)


@pytest.mark.parametrize("level, bits", [(n, None) for n in range(6)] + [
    (n, "".join(b)) for n in range(1, 5) for b in itertools.product("01", repeat=n)
] + [(1, "10"), (2, "0111"), (3, "1101")])
def test_one_sheet_matches_its_word_form(level, bits):
    # the tiles are the center-free words in order, each lifted by section
    got = TileMeasure.one_sheet(level, bits)
    m = Fraction(1, 9**level)
    want = {int(section("".join(w), bits or "0" * level) or "0"): m
            for w in itertools.product(GRID_LETTERS, repeat=level)}
    assert list(got.mass.items()) == list(want.items())


def test_one_sheet_other_sheets():
    m = TileMeasure.one_sheet(2, bits="11")
    assert m.total() == 1
    words = [ps.all_words(2)[i] for i in m.mass]
    assert all(ps.project_word(w).count("5") == w.count("0") + w.count("5") for w in words)
    rows, _ = middle_third_ratios(pushforward_x(m))
    assert all(r.ratio == Fraction(1, 3) for r in rows)


def test_dirac_ratios():
    rows, skipped = middle_third_ratios(pushforward_x(TileMeasure.dirac("555")))
    # only the nested middle columns carry weight; each ratio is 1
    assert [(r.level, r.index) for r in rows] == [(0, 0), (1, 1), (2, 4)]
    assert all(r.ratio == 1 for r in rows)
    assert (1, 0) in skipped and len(skipped) == (3 - 1) + (9 - 1)


def test_doubling_uniform_is_ten(g2):
    report = tile_doubling_check(TileMeasure.uniform(2), g2)
    assert not report.non_doubling
    assert report.max_ratio == 10
    assert report.ratio == 10


def test_doubling_one_sheet_is_nine(g2):
    report = tile_doubling_check(TileMeasure.one_sheet(2), g2)
    assert not report.non_doubling
    assert report.max_ratio == 9


def test_doubling_flags_explicit_zero(g2):
    mass = {i: Fraction(1, 100) for i in range(100)}
    mass[37] = Fraction(0)
    report = tile_doubling_check(TileMeasure(2, mass), g2)
    assert report.non_doubling
    assert report.ratio == math.inf


def test_doubling_flags_a_zero_tile_under_a_massive_parent():
    # tiles 1 and 9 are opposite corners, so no edge pairs them: the zero
    # mass shows only against the parent block's total
    report = tile_doubling_check(TileMeasure(1, {1: 0, 9: 1}), ps.build_graph(1))
    assert report.non_doubling and report.witness == ("parent", 1)
    assert report.pairs_checked == 1


def test_doubling_ratio_of_int_masses_is_exact(g2):
    # int masses used to divide as floats: max_ratio came back as 100.0
    mass = {i: 100 if i // 10 == 1 else 1 for i in range(100)}
    report = tile_doubling_check(TileMeasure(2, mass), g2)
    assert type(report.max_ratio) is Fraction and report.max_ratio == 100
    assert report.witness == ("edge", 13, 23)


def test_doubling_level_mismatch(g2):
    with pytest.raises(ValueError):
        tile_doubling_check(TileMeasure.uniform(3), g2)


def test_box_dimension_tile_slope_exact():
    fit = box_dimension_estimate([1, 2, 3, 4, 5])
    assert abs(fit.estimate - math.log(10) / math.log(3)) < 1e-12
    assert fit.residual < 1e-12
    with pytest.raises(ValueError):
        box_dimension_estimate([2])


@pytest.mark.parametrize("levels, message", [
    ([1.5, True], "^level must be an integer, got 1.5$"),  # read as a slope of 2.0959
    ([1, True], "^level must be an integer, got True$"),
    ([2, "3"], "^level must be an integer, got '3'$"),
    ([2, np.int64(2)], "^need at least two levels for a slope$"),
])
def test_box_dimension_levels_are_integers(levels, message):
    with pytest.raises(ValueError, match=message):
        box_dimension_estimate(levels)


def test_box_dimension_levels_have_no_cap():
    # the tile counts are formulas: no level sizes anything
    fit = box_dimension_estimate([np.int64(1), 40])
    assert abs(fit.estimate - math.log(10) / math.log(3)) < 1e-12
    assert fit.rows[-1] == ("tiles", 40, 10**40)


def test_ball_dimension_estimate_reproducible(g2):
    a = ball_dimension_estimate(g2, samples=5, seed=7, radii_exponents=[0, 1])
    b = ball_dimension_estimate(g2, samples=5, seed=7, radii_exponents=[0, 1])
    assert a.estimate == b.estimate
    assert isinstance(a, DimensionFit)


@pytest.mark.parametrize("samples", [0, -1, 2.5, True, "3"])
def test_ball_dimension_estimate_needs_a_sample(g2, samples):
    with pytest.raises(ValueError, match="sample"):
        ball_dimension_estimate(g2, samples=samples, seed=7, radii_exponents=[0, 1])


@pytest.mark.parametrize("radii", [[-1, 1], [0.5, 1], [1, 1], [0, 1, 1], [True, 2],
                                   [1, "2"]])
def test_ball_dimension_estimate_needs_distinct_non_negative_integer_radii(g2, radii):
    # [-1, 1] read 1.618 from radius-1/3 balls, [0.5, 1] read 3.21 from
    # radius sqrt(3) and [1, 1] gave nan with a RuntimeWarning
    with pytest.raises(ValueError, match="radi"):
        ball_dimension_estimate(g2, samples=3, seed=7, radii_exponents=radii)


@pytest.mark.parametrize("seed", [2.5, True, "7", None])
def test_ball_dimension_estimate_needs_an_integer_seed(g2, seed):
    # 2.5 raised numpy's TypeError and True drew from the stream of seed 1
    with pytest.raises(ValueError, match="^seed must be an integer"):
        ball_dimension_estimate(g2, samples=3, seed=seed, radii_exponents=[0, 1])
    assert ball_dimension_estimate(g2, samples=3, seed=np.int64(7), radii_exponents=[0, 1]) \
        == ball_dimension_estimate(g2, samples=3, seed=7, radii_exponents=[0, 1])


def test_ball_dimension_estimate_falls_back_to_every_vertex():
    # no vertex of G_1 lies 3 cells inside its 3 x 3 hull, so all ten are centers
    g1 = ps.build_graph(1)
    fit = ball_dimension_estimate(g1, samples=10, seed=1, radii_exponents=[0, 1])
    dist = [ps.graphs.bfs_row(g1, s) for s in range(10)]
    assert sorted(fit.rows) == sorted(("balls", r, int((row <= r).sum()))
                                      for row in dist for r in (1, 3))


# ---------------------------------------------------------------------------
# slow path: the integer kernels against Fraction-by-Fraction reference loops


def reference_total(measure):
    return sum(measure.mass.values(), Fraction(0))


def reference_pushforward_x(measure):
    n = measure.level
    weights = [Fraction(0)] * 3**n
    xs = _square_arrays(n)[0].tolist()
    for idx, m in measure.mass.items():
        if m:
            weights[xs[idx]] += m
    return IntervalWeights(n, weights)


def reference_doubling(measure, graph):
    mass = {i: Fraction(m) for i, m in measure.mass.items()}
    worst, witness, checked = Fraction(0), None, 0
    for i, j in zip(graph.u.tolist(), graph.v.tolist()):
        if i in mass and j in mass:
            a, b = mass[i], mass[j]
            checked += 1
            if (a == 0) != (b == 0):
                return DoublingReport(None, True, ("edge", i, j), checked)
            if a and b:
                r = max(a / b, b / a)
                if r > worst:
                    worst, witness = r, ("edge", i, j)
    parent_sum = {}
    for idx, m in mass.items():
        parent_sum[idx // 10] = parent_sum.get(idx // 10, Fraction(0)) + m
    for idx, m in mass.items():
        total = parent_sum[idx // 10]
        checked += 1
        if total > 0 and m == 0:
            return DoublingReport(None, True, ("parent", idx), checked)
        if total > 0 and m > 0 and total / m > worst:
            worst, witness = total / m, ("parent", idx)
    return DoublingReport(worst, False, witness, checked)


def random_mass(rng, wide):
    """An int, or a Fraction over one of 2, 3, 5, 7 and 10, or, if wide, over
    one of 2, 3, 7 and 10^k."""
    if rng.random() < 0.3:
        return rng.randint(1, 40)
    return Fraction(rng.randint(1, 40),
                    rng.choice([2, 3, 7, 10, 100, 1000, 10**6] if wide else [2, 3, 5, 7, 10]))


def random_measure(rng, level, wide):
    """Mixed masses with explicit zeros and, half the time, a partial
    universe.  Every other measure is constant on each first-letter block,
    so that an edge between blocks, not a parent, holds the worst ratio,
    and equal block masses tie.  A wide measure also has masses 2^-40 and
    3^-30, so that max * sum of its numerators passes 2^62."""
    keep = 1.0 if rng.random() < 0.5 else 0.6
    zeros = rng.choice([0.0, 0.0, 0.01])
    blocks = [random_mass(rng, wide) for _ in range(5)] if rng.random() < 0.5 else None
    mass = {}
    for i in range(10**level):
        if rng.random() >= keep:
            continue
        if rng.random() < zeros:
            mass[i] = rng.choice([0, Fraction(0)])
        elif blocks:
            mass[i] = blocks[(i // 10 ** (level - 1)) % 5]
        else:
            mass[i] = random_mass(rng, wide)
    mass[rng.randrange(10**level)] = Fraction(1, 7)  # positive total
    if wide:
        mass[rng.randrange(10**level)] = Fraction(1, 2**40)
        mass[rng.randrange(10**level)] = Fraction(1, 3**30)
    return TileMeasure(level, mass)


@pytest.mark.parametrize("seed", range(26))
def test_integer_kernels_match_fraction_loops(seed, g2):
    # every third measure is wide, so each numerator kind is taken on purpose
    rng = random.Random(seed)
    level = 4 if seed >= 24 else 2 if seed % 2 else 3
    graph = g2 if level == 2 else ps.build_graph(level)
    m = random_measure(rng, level, wide=seed % 3 == 0)
    assert m.numerators.dtype == (object if seed % 3 == 0 else np.int64)

    total = m.total()
    assert type(total) is Fraction and total == reference_total(m)

    w, ref_w = pushforward_x(m), reference_pushforward_x(m)
    assert all(type(x) is Fraction for x in w.weights)
    assert w.weights == ref_w.weights
    assert middle_third_ratios(w) == middle_third_ratios(ref_w)

    got, want = tile_doubling_check(m, graph), reference_doubling(m, graph)
    assert got == want
    assert got.non_doubling or type(got.max_ratio) is Fraction


def test_measures_made_whole_take_int64_numerators():
    for m in (TileMeasure.uniform(3), TileMeasure.one_sheet(3, "101"), TileMeasure.dirac("555"),
              TileMeasure(1, {3: Fraction(1, 2**20), 4: 1}), TileMeasure(1, {3: Fraction(1, 2**70)})):
        assert m.tiles.dtype == m.numerators.dtype == np.int64


def test_doubling_ratio_past_the_float_range_is_exact():
    # the quotients 10^400 / 1 at the edges and (9 * 10^400 + 1) / 1 at the
    # parent overflow a float: capped, they only pick candidates, and the
    # cross products rank them
    tiny = Fraction(1, 10**400)
    m = TileMeasure(1, {i: tiny if i == 5 else Fraction(1) for i in range(10)})
    assert m.numerators.dtype == object
    got = tile_doubling_check(m, ps.build_graph(1))
    assert got == reference_doubling(m, ps.build_graph(1))
    assert (got.max_ratio, got.witness) == (9 * 10**400 + 1, ("parent", 5))


def test_measure_repr_is_short_and_equality_is_by_mass():
    # the dataclass repr printed all 10^5 masses of uniform(5)
    assert repr(TileMeasure.uniform(5)) == "TileMeasure(level=5, tiles=100000, total=1)"
    # order does not matter, and masses compare by value
    assert TileMeasure(1, {3: 1, 4: Fraction(1, 2)}) == TileMeasure(1, {4: Fraction(2, 4), 3: 1})
    assert TileMeasure(1, {3: 1}) != TileMeasure(1, {3: 1, 4: 0})  # a zero tile is in the universe
    assert TileMeasure(1, {3: 1}) != TileMeasure(2, {3: 1})
    assert TileMeasure(1, {3: 1}) != {3: 1}
    m = TileMeasure.uniform(1)
    with pytest.raises(TypeError):
        hash(m)
    mass = m.mass
    mass[0] = Fraction(5)  # a copy: the measure does not change
    assert m.mass[0] == Fraction(1, 10) and m.total() == 1


def test_doubling_and_pushforward_hold_a_few_rows_at_level_5():
    # a dict of 10^5 Fractions and the graph's edges as Python lists peaked
    # at 43 rows of 10^5 int64; the arrays go one row's worth at a time
    g5 = ps.build_graph(5)
    row = 8 * g5.n_vertices
    tracemalloc.start()
    try:
        m = TileMeasure.uniform(5)
        tile_doubling_check(m, g5)
        pushforward_x(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * row


@pytest.mark.slow
def test_doubling_of_uniform_5_matches_the_fraction_loop():
    m, g5 = TileMeasure.uniform(5), ps.build_graph(5)
    got = tile_doubling_check(m, g5)
    assert got == reference_doubling(m, g5)
    assert got == DoublingReport(Fraction(10), False, ("parent", 0), 350_576)


@pytest.mark.slow
def test_measure_ratios_at_level_6_keeps_its_bytes(tmp_path):
    # the sha256 of the file the Fraction-dict measure wrote
    out = tmp_path / "ratios6.csv"
    proc = subprocess.run([sys.executable, "-m", "pillowspace.cli", "measure", "ratios",
                           "--level", "6", "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "efdb4ef64d0f4274abb50614447489c6a727ea9fc00102b02d25afb14f99db0a"


def test_prefix_states_memo_is_bounded_and_immutable():
    states = _prefix_states("150")
    assert type(states) is tuple and len(states) == 4
    assert all(type(s) is tuple for s in states)
    assert _prefix_states.cache_info().maxsize is not None


def test_word_square_leaves_the_prefix_memo_alone():
    # a whole level walked in order would only churn misses and evict L3 words
    _prefix_states.cache_clear()
    squares = [word_square(w) for w in all_words(4)]
    assert len(squares) == 10**4
    info = _prefix_states.cache_info()
    assert (info.hits, info.misses) == (0, 0)
