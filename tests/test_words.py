"""Tests for the symbolic layer: parsing, the flip group, exact squares."""

import itertools
import json
import math
import random

import numpy as np
import pytest

from pillowspace import graphs as G
from pillowspace import measures, modulus, verify
from pillowspace import words as W
from pillowspace.graphs import _fold_scaled
from pillowspace.measures import TileMeasure
from pillowspace.metrics import DENSE_LEVEL_LIMIT, MetricMatrix, pi_diagnostic


def test_alphabet_and_letter_table():
    assert len(W.ALPHABET) == 10
    assert W.LETTERS["1"].grid_col == 1 and W.LETTERS["1"].grid_row == 1
    assert W.LETTERS["3"].grid_col == 3 and W.LETTERS["3"].grid_row == 1
    assert W.LETTERS["7"].grid_col == 1 and W.LETTERS["7"].grid_row == 3
    assert W.LETTERS["5"].grid_col == 2 and W.LETTERS["5"].grid_row == 2
    assert W.LETTERS["0"].grid_col == 2 and W.LETTERS["0"].grid_row == 2
    assert W.LETTERS["5"].sheet_bit == 0
    assert W.LETTERS["0"].sheet_bit == 1
    assert W.LETTERS["2"].sheet_bit is None


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_all_words_are_the_zero_padded_indices(level):
    assert W.all_words(level) == [f"{i:0{level}d}" for i in range(10**level)]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_level_words_view_reads_like_the_list(level):
    words, view = W.all_words(level), W.LevelWords(level)
    assert len(view) == len(words) and list(view) == words
    for i in range(-len(words), len(words)):
        assert view[i] == words[i]
    assert view[np.int64(len(words) - 1)] == words[-1]
    for i in (len(words), -len(words) - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0.0]


def test_parse_word_round_trip():
    for word in ("", "5", "120", "987654321", "0000"):
        assert W.parse_word(word) == word


def test_parse_word_triple_form():
    assert W.parse_word("(2,1,1);(2,2,2)") == "20"
    assert W.parse_word("(2,2,1)") == "5"


def test_parse_word_errors_name_position():
    with pytest.raises(W.ParseError, match="position 1"):
        W.parse_word("1a2")
    with pytest.raises(W.ParseError, match="position 0"):
        W.parse_word("(4,1,1)")
    with pytest.raises(W.ParseError, match="position 1"):
        W.parse_word("(2,2,2);(1,1,2)")


@pytest.mark.parametrize("call, message", [
    (lambda: W.letter_at(4, 1), r"^grid position out of range: \(4, 1\)$"),
    (lambda: W.parse_word("(1,1)"), r"^malformed triple at position 0: '\(1,1\)'$"),
    (lambda: W.parse_word("(1,1,1);2"), "^malformed triple at position 1: '2'$"),
    (lambda: W.parse_word("(1,1,1);(1,a,1)"),
     r"^non-integer entry in triple at position 1: '\(1,a,1\)'$"),
])
def test_word_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_flip_composition_is_xor():
    w = "1502"
    assert W.flip(W.flip(w, "1100"), "0110") == W.flip(w, "1010")  # 1100 xor 0110
    assert W.flip(w, "0000") == w
    # involution
    assert W.flip(W.flip(w, "1111"), "1111") == w


def test_flip_requires_covering_bits():
    with pytest.raises(ValueError):
        W.flip("505", "11")


@pytest.mark.parametrize("call", [
    lambda: W.flip("55", 11),
    lambda: W.section("55", 11),
    lambda: G.flip_permutation(G.build_graph(1), 1),
    lambda: TileMeasure.one_sheet(2, 11),
    lambda: TileMeasure.one_sheet(2, ["1", "1"]),
    lambda: TileMeasure.one_sheet(2, b"11"),
], ids=["flip", "section", "flip_permutation", "one_sheet-int", "one_sheet-list",
        "one_sheet-bytes"])
def test_a_bit_string_that_is_not_a_str_is_refused(call):
    # an int raised TypeError from iterating it, and a list of '0'/'1' passed
    with pytest.raises(ValueError, match="bit string must be a str"):
        call()


def test_section_and_project():
    assert W.section("155", "011") == "100"
    assert W.section("155", "010") == "105"
    assert W.project_word(W.section("155", "011")) == "155"
    with pytest.raises(ValueError):
        W.section("105", "111")  # not a grid word
    # flipping a section is the section of the composed bits
    u, g, h = "5519", "1010", "1100"
    assert W.flip(W.section(u, g), h) == W.section(u, "0110")  # g xor h


def test_section_is_flip_on_grid_words():
    # the sheet lift, restated letter by letter: '5' becomes '0' where the bit is 1
    for u in map("".join, itertools.product(W.GRID_LETTERS, repeat=3)):
        for bits in map("".join, itertools.product("01", repeat=3)):
            lifted = "".join("0" if (c == "5" and b == "1") else c for c, b in zip(u, bits))
            assert W.section(u, bits) == W.flip(u, bits) == lifted


def test_word_square_base_cells():
    # letters 1..9 tile the grid row-major from the bottom-left
    for code in W.GRID_LETTERS:
        sq = W.word_square(code)
        assert (sq.x, sq.y) == ((int(code) - 1) % 3, (int(code) - 1) // 3)
    five, zero = W.word_square("5"), W.word_square("0")
    assert (five.x, five.y) == (1, 1) == (zero.x, zero.y)
    assert (five.x_sign, five.y_sign) == (-1, -1)


def test_word_square_55():
    sq = W.word_square("55")
    assert (sq.level, sq.x, sq.y) == (2, 4, 4)
    assert (sq.x_sign, sq.y_sign) == (1, 1)


def test_word_square_orientation_counts_middle_letters():
    rng = random.Random(7)
    for _ in range(200):
        word = "".join(rng.choice(W.ALPHABET) for _ in range(rng.randint(1, 6)))
        sq = W.word_square(word)
        mid_cols = sum(1 for c in word if W.LETTERS[c].grid_col == 2)
        mid_rows = sum(1 for c in word if W.LETTERS[c].grid_row == 2)
        assert sq.x_sign == (-1) ** mid_cols
        assert sq.y_sign == (-1) ** mid_rows


def _fold_orbit_hits_cells(word, px, py, denom):
    # The k-th fold iterate of a point of the word's square lies in the k-th
    # letter's cell; the point is (px, py) / denom, walked on its numerators.
    # This is the independent sampling check of word_square.
    x, y = px, py
    for c in word:
        let = W.LETTERS[c]
        assert (let.grid_col - 1) * denom <= 3 * x <= let.grid_col * denom
        assert (let.grid_row - 1) * denom <= 3 * y <= let.grid_row * denom
        x, y = _fold_scaled(x, denom), _fold_scaled(y, denom)


def test_word_square_agrees_with_fold_dynamics():
    rng = random.Random(19)
    for _ in range(60):
        word = "".join(rng.choice(W.ALPHABET) for _ in range(rng.randint(1, 5)))
        sq = W.word_square(word)
        denom = 42 * 3**sq.level  # offsets inside the square in 42nds of its side
        for fx, fy in ((21, 21), (6, 12), (36, 14)):  # (1/2, 1/2), (1/7, 2/7), (6/7, 1/3)
            _fold_orbit_hits_cells(word, 42 * sq.x + fx, 42 * sq.y + fy, denom)


def test_fold_values():
    # the fold 3t, 2-3t, 3t-2 on the thirds of [0, 1], on numerators over 6
    assert _fold_scaled(1, 6) == 3  # 1/6 -> 1/2
    assert _fold_scaled(3, 6) == 3  # 1/2 -> 1/2
    assert _fold_scaled(5, 6) == 3  # 5/6 -> 1/2
    assert _fold_scaled(2, 6) == 6  # 1/3 -> 1
    assert _fold_scaled(4, 6) == 0  # 2/3 -> 0


def test_grid_word_of_square_inverts_word_square():
    assert W.grid_word_of_square(0, 0, 0) == ""
    for level in (1, 2, 3, 4):
        for x in range(3**level):
            for y in range(3**level):
                word = W.grid_word_of_square(level, x, y)
                assert len(word) == level and "0" not in word
                sq = W.word_square(word)
                assert (sq.x, sq.y) == (x, y)
    for level, x, y in ((0, 1, 0), (1, 3, 0), (1, 0, -1), (W.MAX_LEVEL, 3**W.MAX_LEVEL, 0)):
        with pytest.raises(ValueError):
            W.grid_word_of_square(level, x, y)
    top = 3**W.MAX_LEVEL - 1
    sq = W.word_square(W.grid_word_of_square(W.MAX_LEVEL, top, 1))
    assert (sq.level, sq.x, sq.y) == (W.MAX_LEVEL, top, 1)


@pytest.mark.parametrize("call, error, message", [
    # grid_word_of_square(1, True, 0) returned the string '[[1 4 7]]' and
    # (1, 1.0, 0) raised IndexError; letter_at read True and 1.0 as 1;
    # all_words(True) listed 10 words and all_words(12) began on 10^12
    (lambda: W.grid_word_of_square(1, True, 0), ValueError,
     "^square index must be an integer, got True$"),
    (lambda: W.grid_word_of_square(1, 1.0, 0), ValueError,
     "^square index must be an integer, got 1.0$"),
    (lambda: W.grid_word_of_square(1, 0, 3), ValueError,
     r"^square indices out of range at level 1: \(0, 3\)$"),
    (lambda: W.letter_at(True, 1), ValueError, "^grid column must be an integer, got True$"),
    (lambda: W.letter_at(1.0, 1), ValueError, "^grid column must be an integer, got 1.0$"),
    (lambda: W.letter_at(1, 2.0), ValueError, "^grid row must be an integer, got 2.0$"),
    (lambda: W.letter_at(4, 1), ValueError, r"^grid position out of range: \(4, 1\)$"),
    (lambda: W.LevelWords(True), ValueError, "^word level must be an integer, got True$"),
    (lambda: W.all_words(True), ValueError, "^word level must be an integer, got True$"),
    (lambda: W.all_words(-1), ValueError, "^word level must be >= 0, got -1$"),
    (lambda: W.LevelWords(12), W.CapacityError,
     "^word level 12 exceeds the supported maximum 6$"),
    (lambda: W.all_words(12), W.CapacityError,
     "^word level 12 exceeds the supported maximum 6$"),
])
def test_word_entry_points_check_their_integers(call, error, message, monkeypatch):
    def refuse(self):
        raise AssertionError("words listed before their level was checked")

    monkeypatch.setattr(W.LevelWords, "__iter__", refuse)
    with pytest.raises(error, match=message):
        call()


def test_grid_table_is_capped_and_read_only(monkeypatch):
    table = W._grid_table(2)
    with pytest.raises(ValueError):
        table[0, 0] = 1

    def refuse(n):
        raise AssertionError(f"squares of level {n} computed past the cap")

    monkeypatch.setattr(W, "_square_arrays", refuse)
    with pytest.raises(W.CapacityError):
        W.grid_word_of_square(W.MAX_LEVEL + 1, 0, 0)
    with pytest.raises(ValueError):
        W._grid_table(-1)


def test_projection_preserves_square():
    rng = random.Random(3)
    for _ in range(100):
        word = "".join(rng.choice(W.ALPHABET) for _ in range(4))
        a, b = W.word_square(word), W.word_square(W.project_word(word))
        assert (a.x, a.y) == (b.x, b.y)


# ---------------------------------------------------------------------------
# the level rule: every entry point that sizes or reads by a level checks it
# through check_level first


class _Unsized:
    """A table that fails when it is read: nothing may read one before its level
    is checked."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("a table was read before its level was checked")


def _graph_file(tmp_path, level):
    path = tmp_path / "g.json"
    path.write_text('{"schema": "pillow-graph-v1", "level": %s, "policy": "on", '
                    '"vertices": [], "edges": []}' % json.dumps(level))
    return path


# name -> (call(level, tmp_path), lowest level, top level, error above the top):
# builders raise CapacityError, readers and tables ValueError
LEVEL_ENTRY_POINTS = {
    "build_graph": (lambda n, tmp: G.build_graph(n), 1, W.MAX_LEVEL, W.CapacityError),
    "_grid_table": (lambda n, tmp: W._grid_table(n), 0, W.MAX_LEVEL, W.CapacityError),
    "TileMeasure.uniform": (lambda n, tmp: TileMeasure.uniform(n), 0, W.MAX_LEVEL,
                            W.CapacityError),
    "MetricMatrix": (lambda n, tmp: MetricMatrix(n, _Unsized()), 1, DENSE_LEVEL_LIMIT,
                     ValueError),
    "ReplacementGraph": (lambda n, tmp: G.ReplacementGraph(n, "on", [], [], []), 1,
                         W.MAX_LEVEL, ValueError),
    "read_graph_json": (lambda n, tmp: G.read_graph_json(_graph_file(tmp, n)), 1,
                        W.MAX_LEVEL, ValueError),
    "run_suite": (lambda n, tmp: verify.run_suite("counts", [n]), 1, W.MAX_LEVEL,
                  W.CapacityError),
    "conformal_scan": (lambda n, tmp: modulus.conformal_scan([n], [2.0]), 1,
                       modulus.SCAN_MAX_LEVEL, ValueError),
}


@pytest.mark.parametrize("case", ["bool", "float", "below", "above"])
@pytest.mark.parametrize("entry", list(LEVEL_ENTRY_POINTS))
def test_entry_points_check_their_level_before_building(entry, case, tmp_path, monkeypatch):
    call, low, top, over = LEVEL_ENTRY_POINTS[entry]
    level, error = {"bool": (True, ValueError), "float": (2.0, ValueError),
                    "below": (low - 1, ValueError), "above": (top + 1, over)}[case]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{entry} built something at the unchecked level {level!r}")

    # what each entry point sizes by its level: squares, cross edges, the
    # neighbour table, the word view, a measure's masses and the suites' and
    # the scan's graphs
    for module, name in ((W, "_square_arrays"), (G, "_square_arrays"), (G, "_cross_edges"),
                         (G, "_neighbour_table"), (G, "LevelWords"), (measures, "Fraction"),
                         (verify, "build_graph"), (modulus, "build_graph")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(error) as exc:
        call(level, tmp_path)
    assert "\n" not in str(exc.value)


NUMBER_ENTRY_POINTS = {
    "ModulusProblem p": (lambda x: modulus.ModulusProblem(*modulus.path_network(2), x), "exponent"),
    "ModulusProblem tolerance": (lambda x: modulus.ModulusProblem(
        *modulus.path_network(2), 2.0, tolerance=x), "tolerance"),
    "conformal_scan": (lambda x: modulus.conformal_scan([1], [2.0, x]), "exponent"),
    "run_suite": (lambda x: verify.run_suite("counts", [1], tolerance=x), "tolerance"),
    "pi_diagnostic": (lambda x: pi_diagnostic(G.build_graph(1), TileMeasure.uniform(1), x, 1, 0),
                      "exponent"),
}


BAD_NUMBERS = {"str": "2", "complex": 2 + 0j, "bool": True, "nan": math.nan, "below": 0.5,
               "above": 1e9}


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry in NUMBER_ENTRY_POINTS for case in BAD_NUMBERS
    if (entry, case) != ("pi_diagnostic", "above")])  # its exponents run up to inf
def test_entry_points_refuse_a_non_number_or_out_of_range_exponent_or_tolerance(entry, case):
    # a string or a complex raised TypeError from the range comparison
    call, rule = NUMBER_ENTRY_POINTS[entry]
    value = BAD_NUMBERS[case]
    with pytest.raises(ValueError, match=f"^{rule} must lie in "):
        call(value)


def test_entry_points_take_a_numpy_int_level_as_an_int():
    # a numpy int, as array code hands one over, is stored as an int
    for level in (G.build_graph(np.int64(2)).level, TileMeasure.uniform(np.int64(2)).level,
                  TileMeasure.one_sheet(np.int64(2)).level):
        assert type(level) is int and level == 2
