"""Tests for exact tile measures: pushforward, ratios, doubling, dimension."""

import math
from fractions import Fraction

import numpy as np
import pytest

import pillowspace as ps
from pillowspace.measures import (
    DimensionFit,
    TileMeasure,
    ball_dimension_estimate,
    blowup_measure,
    box_dimension_estimate,
    middle_third_ratios,
    pushforward_x,
    tile_doubling_check,
)
from pillowspace.words import all_words


@pytest.fixture(scope="module")
def g2():
    return ps.build_graph(2)


@pytest.mark.parametrize("word", ["+5", "1_0", " +5", "5a", "-1"])
def test_measure_words_must_parse(word):
    # int() used to take these: "+5" was the Dirac mass at tile "05"
    with pytest.raises(ValueError):
        TileMeasure.dirac(word)
    with pytest.raises(ValueError):
        blowup_measure(TileMeasure.uniform(3), word)


@pytest.mark.parametrize("level", [-1, 1.0, "2", None, True])
def test_measure_level_must_be_a_natural_number(level):
    with pytest.raises(ValueError):
        TileMeasure(level, {0: Fraction(1)})
    with pytest.raises(ValueError):
        TileMeasure.uniform(level)
    with pytest.raises(ValueError):
        TileMeasure.one_sheet(level)


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
    with pytest.raises(ValueError):
        TileMeasure(1, {10: Fraction(1)})


@pytest.mark.parametrize("mass", [
    {0.5: Fraction(1), 2: Fraction(1)},  # pushforward_x raised TypeError on it
    {"3": Fraction(1)},
    {3: 1.5},  # had a float total
    {3: Fraction(1), 4: 0.25},
])
def test_measure_keys_are_indices_and_masses_exact(mass):
    with pytest.raises(ValueError):
        TileMeasure(1, mass)


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
    for n in (1, 2, 3):
        rows, skipped = middle_third_ratios(pushforward_x(TileMeasure.one_sheet(n)))
        assert not skipped
        assert all(r.ratio == Fraction(1, 3) for r in rows)


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


def test_doubling_level_mismatch(g2):
    with pytest.raises(ValueError):
        tile_doubling_check(TileMeasure.uniform(3), g2)


def test_box_dimension_tile_slope_exact():
    fit = box_dimension_estimate([1, 2, 3, 4, 5])
    assert abs(fit.estimate - math.log(10) / math.log(3)) < 1e-12
    assert fit.residual < 1e-12
    with pytest.raises(ValueError):
        box_dimension_estimate([2])


def test_ball_dimension_estimate_reproducible(g2):
    a = ball_dimension_estimate(g2, samples=5, seed=7, radii_exponents=[0, 1])
    b = ball_dimension_estimate(g2, samples=5, seed=7, radii_exponents=[0, 1])
    assert a.estimate == b.estimate
    assert isinstance(a, DimensionFit)


def test_blowup_uniform_fixed_point():
    m = blowup_measure(TileMeasure.uniform(3), "50")
    assert m.level == 1
    assert m.mass == TileMeasure.uniform(1).mass


def test_blowup_one_sheet():
    m = blowup_measure(TileMeasure.one_sheet(3), "5")
    assert m.level == 2
    assert m.mass == TileMeasure.one_sheet(2).mass
    with pytest.raises(ValueError):
        blowup_measure(TileMeasure.one_sheet(3), "0")  # off the sheet
    with pytest.raises(ValueError):
        blowup_measure(TileMeasure.uniform(2), "55")  # nothing left
