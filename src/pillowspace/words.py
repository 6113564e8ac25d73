"""Words over the ten-letter tile alphabet and their exact geometry.

Letters name the ten first-stage cells of the doubled-center triadic
subdivision: '1'..'9' are the nine grid cells, row-major from the bottom-left,
and '0' is the second copy of the center cell.  A word of length n names a
tile of the n-th stage; its projected footprint is a triadic square computed
by composing the three fold branches per coordinate.  Everything here is exact
integer arithmetic; no floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Real
from operator import index

import numpy as np

ALPHABET = "0123456789"
GRID_LETTERS = "123456789"
CENTER_LETTERS = "50"
MAX_LEVEL = 6  # largest level anything sized by 10^level or 3^level is built at
BALL_IMAGE_LIMIT = 3  # lipschitz_quotient_check is exhaustive over centers and cells
MAX_TOL = 1e-2  # the coarsest relative certificate gap a modulus solve may target
MAX_P = 64.0  # rho**p overflows float headroom far beyond any sane exponent
_OTHER_SHEET = {"5": "0", "0": "5"}  # the two center letters, each to the other


class ParseError(ValueError):
    """Word text that does not parse; the message names the offending position."""


class CapacityError(RuntimeError):
    """Raised when a build would exceed the supported size."""


def _integer(value, name):
    """value as an int, else ValueError (index, not int: 2.5 is no count, and a
    bool is no number)."""
    if type(value) is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _exponent(p, top=MAX_P):
    """p as a float in [1, top] (an infinite top left out), else ValueError: a
    bool, string or complex is no exponent, and nan lies in no range."""
    if isinstance(p, Real) and not isinstance(p, bool) and 1 <= p <= top and p < math.inf:
        return float(p)
    raise ValueError(f"exponent must lie in [1, {top}{']' if top < math.inf else ')'}, got {p!r}")


def _tolerance(tol):
    """A relative certificate gap as a float in (0, MAX_TOL], else ValueError."""
    if isinstance(tol, Real) and not isinstance(tol, bool) and 0 < tol <= MAX_TOL:
        return float(tol)
    raise ValueError(f"tolerance must lie in (0, {MAX_TOL}], got {tol!r}")


def check_level(level, top=MAX_LEVEL, low=1, name="level", over=CapacityError):
    """level as an int in low..top, checked before anything is sized by it.

    A non-integer or a level below low raises ValueError, a level above top
    raises `over`: CapacityError where a build is refused (CLI exit 64),
    ValueError where a file or a table is malformed.
    """
    level = _integer(level, name)
    if level < low:
        raise ValueError(f"{name} must be >= {low}, got {level}")
    if level > top:
        raise over(f"{name} {level} exceeds the supported maximum {top}")
    return level


def _grid_col(code):
    return 2 if code == "0" else (int(code) - 1) % 3 + 1


def _grid_row(code):
    return 2 if code == "0" else (int(code) - 1) // 3 + 1


@dataclass(frozen=True)
class Letter:
    """One subdivision cell: grid position (col, row in 1..3) plus sheet bit.

    sheet_bit is 0 for '5', 1 for '0', and None for the eight non-center
    letters, which live on the unique sheet of their cell.
    """

    code: str
    grid_col: int
    grid_row: int
    sheet_bit: int | None


LETTERS = {
    c: Letter(c, _grid_col(c), _grid_row(c), {"5": 0, "0": 1}.get(c))
    for c in ALPHABET
}

# (col, row) -> letter code of the base sheet; the center maps to '5'.
_LETTER_AT = {(_grid_col(c), _grid_row(c)): c for c in GRID_LETTERS}


def letter_at(col, row):
    """Base-sheet letter code for a grid position with col, row in 1..3."""
    try:
        return _LETTER_AT[(_integer(col, "grid column"), _integer(row, "grid row"))]
    except KeyError:
        raise ValueError(f"grid position out of range: ({col}, {row})") from None


def parse_word(text):
    """Parse a word from letter codes or from the triple form.

    Accepts "25" as well as "(2,1,1);(2,2,2)".  Triples are (col,row,sheet)
    with sheet 1 for the base copy and 2 for the doubled center.  Returns the
    canonical letter-code string.
    """
    text = text.strip()
    if text.startswith("("):
        return _parse_triples(text)
    for pos, ch in enumerate(text):
        if ch not in ALPHABET:
            raise ParseError(f"invalid character {ch!r} at position {pos}")
    return text


def _parse_triples(text):
    letters = []
    for pos, piece in enumerate(text.split(";")):
        piece = piece.strip()
        if not (piece.startswith("(") and piece.endswith(")")):
            raise ParseError(f"malformed triple at position {pos}: {piece!r}")
        parts = piece[1:-1].split(",")
        if len(parts) != 3:
            raise ParseError(f"malformed triple at position {pos}: {piece!r}")
        try:
            col, row, sheet = (int(p) for p in parts)
        except ValueError:
            raise ParseError(
                f"non-integer entry in triple at position {pos}: {piece!r}"
            ) from None
        if not (1 <= col <= 3 and 1 <= row <= 3) or sheet not in (1, 2):
            raise ParseError(f"triple out of range at position {pos}: {piece!r}")
        if sheet == 2:
            if (col, row) != (2, 2):
                raise ParseError(
                    f"sheet 2 is only defined at the center, position {pos}: {piece!r}"
                )
            letters.append("0")
        else:
            letters.append(letter_at(col, row))
    return "".join(letters)


class LevelWords(Sequence):
    """The 10^level words in lexicographic order as a read-only view: word i
    is i written with `level` digits, formatted only when it is read."""

    def __init__(self, level):
        self.level = check_level(level, low=0, name="word level")

    def __len__(self):
        return 10**self.level

    def __getitem__(self, i):
        i = index(i)  # an int or a numpy int; no slices
        if not -len(self) <= i < len(self):
            raise IndexError(f"word index {i} out of range at level {self.level}")
        return f"{i % len(self):0{self.level}d}" if self.level else ""

    def __iter__(self):
        return map("".join, itertools.product(ALPHABET, repeat=self.level))


def all_words(level):
    """All 10^level words in lexicographic order (index of w is int(w))."""
    return list(LevelWords(level))


# ---------------------------------------------------------------------------
# flip group


def flip(word, bits):
    """Swap '5' and '0' at every level whose bit is 1.

    The bit string holds only '0' and '1' and must cover the word:
    len(bits) >= len(word); anything else raises ValueError.  Levels whose
    letter is not a center letter are untouched regardless of the bit.
    """
    return "".join(_OTHER_SHEET.get(c, c) if b == "1" else c
                   for c, b in zip(word, _bits(bits, len(word))))


def _bits(bits, levels):
    """A flip's bit string, checked: a str of only '0' and '1', at least one per level."""
    if not isinstance(bits, str) or set(bits) - set("01"):
        raise ValueError(f"bit string must be a str holding only '0' and '1', got {bits!r}")
    if len(bits) < levels:
        raise ValueError(f"bit string of length {len(bits)} cannot act on {levels} levels")
    return bits


def section(grid_word, bits):
    """Lift a center-free grid word to the sheet selected by bits: its flip.

    Replaces '5' with '0' exactly at levels whose bit is 1.  project_word of
    the result gives grid_word back.
    """
    if "0" in grid_word:
        raise ValueError("section expects a grid word with no '0' letters")
    return flip(grid_word, bits)


def project_word(word):
    """Collapse the doubled center: every '0' becomes '5'."""
    return word.replace("0", "5")


# ---------------------------------------------------------------------------
# exact projected geometry


@dataclass(frozen=True)
class TriadicSquare:
    """Axis square [x,x+1]/3^level x [y,y+1]/3^level with chart orientation.

    x_sign / y_sign are +1 when the tile chart preserves that coordinate's
    direction and -1 when it reverses it; each middle-column (middle-row)
    letter along the word flips the corresponding sign once.
    """

    level: int
    x: int
    y: int
    x_sign: int
    y_sign: int


def _advance(index, sign, col):
    # One subdivision step of a single coordinate: the branch for column
    # `col` refines [i, i+1] to [3i+off, 3i+off+1], where the offset depends
    # on the current chart direction; the middle branch reverses direction.
    if col == 2:
        return 3 * index + 1, -sign
    if (col == 1) == (sign == 1):
        return 3 * index, sign
    return 3 * index + 2, sign


@functools.lru_cache(maxsize=1 << 12)  # holds every L3 word the oracle suite draws
def _prefix_states(word):
    """States after each prefix, index k = state of word[:k]; k = 0 is root.

    Memoised, so the result is a tuple that no caller can mutate.
    """
    states = [(0, 0, 1, 1)]
    ix = iy = 0
    sx = sy = 1
    for c in word:
        let = LETTERS[c]
        ix, sx = _advance(ix, sx, let.grid_col)
        iy, sy = _advance(iy, sy, let.grid_row)
        states.append((ix, iy, sx, sy))
    return tuple(states)


def word_square(word):
    """Exact projected footprint of a word's tile."""
    # walked outside the memo: a whole level in order would only evict it
    ix, iy, sx, sy = _prefix_states.__wrapped__(word)[-1]
    return TriadicSquare(len(word), ix, iy, sx, sy)


def _square_arrays(n):
    """square_x, square_y of all level-n words, in word order.

    The squares over first letter a are a's chart applied to the level-(n-1)
    squares: shifted into a's cell, mirrored where the chart reverses a
    coordinate.  The same self-similarity drives graphs.build_graph; this
    is the one array form of word_square.
    """
    xs = ys = np.zeros(1, dtype=np.int64)
    charts = [_prefix_states(a)[1] for a in ALPHABET]
    for m in range(1, n + 1):
        side = 3 ** (m - 1)
        xs, ys = (
            np.concatenate([ix * side + (xs if sx > 0 else side - 1 - xs)
                            for ix, _iy, sx, _sy in charts]),
            np.concatenate([iy * side + (ys if sy > 0 else side - 1 - ys)
                            for _ix, iy, _sx, sy in charts]),
        )
    return xs, ys


# levels 0..MAX_LEVEL, 4 MB at the top; typed, so True or 2.0 is checked, not a hit on 1 or 2
@functools.lru_cache(maxsize=None, typed=True)
def _grid_table(n):
    """(3^n, 3^n) read-only table of the index of the center-free word over
    each square: the inverse of _square_arrays on grid words.

    Of the tiles over one square the center-free word has the largest
    index, as '5' > '0'.
    """
    n = check_level(n, low=0)  # before anything is sized by 9^n
    table = np.zeros((3**n, 3**n), dtype=np.int64)
    np.maximum.at(table, _square_arrays(n), np.arange(10**n))
    table.flags.writeable = False
    return table


def grid_word_of_square(level, x, y):
    """The unique center-free word whose square has indices (x, y).

    Inverse of word_square restricted to grid words; other preimages are the
    sheet lifts reachable via section().
    """
    table = _grid_table(level)
    if not all(0 <= _integer(c, "square index") < len(table) for c in (x, y)):
        raise ValueError(f"square indices out of range at level {level}: ({x}, {y})")
    return str(table[x, y]).zfill(level) if level else ""
