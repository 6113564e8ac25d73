"""Replacement graphs of the doubled-center subdivision complex.

Vertices of the level-n graph G_n are the 10^n words; two tiles are joined
when they meet along a face of positive length.  Adjacency is one face test:
a unit side shared by the two projected squares is a common face when, at
every level where the words differ, it lies on the common boundary of the two
level-k squares (a shared grid edge, or the seam of the doubled center).  An
independent chain oracle re-derives the same answer from pointwise membership
under the fold dynamics and arbitrates any disagreement.

The builder follows the self-similarity of the complex: G_n is ten copies of
G_{n-1}, one per first letter, shifted by a * 10^(n-1).  Edges between two
first-level cells are read off one table of the squares: pairs facing each
other across a cell-side cut, plus the 5/0 seams around the centre cell.
The builder runs no adjacency test.  The slow cross-check, reference_edges,
decides with it every candidate pair: each pair of words whose squares
coincide or share a side (_candidate_pairs).

Hop distances: bfs_row is the one traversal, a single-start frontier BFS on
any graph; hop_row is the closed form on G_n (grid L1 distance plus a seam
term), and refuses a graph not certified equal to build_graph's (is_reference).
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import eq, index, itemgetter

import numpy as np

from .words import (
    ALPHABET,
    LETTERS,
    MAX_LEVEL,
    CapacityError,  # the package exports it from this module
    LevelWords,
    _bits,
    _grid_table,
    _integer,
    _prefix_states,
    _square_arrays,
    all_words,
    check_level,
    parse_word,
)

HORIZONTAL = "H"
VERTICAL = "V"
SEAM = "S"
EDGE_TYPES = (HORIZONTAL, VERTICAL, SEAM)
_TYPE_CODE = {t: c for c, t in enumerate(EDGE_TYPES)}  # anything else: len(EDGE_TYPES)
_LETTER_SET = frozenset(ALPHABET)
# bytes.translate table that reads a JSON edge block as numbers: digits stay,
# the type letters become their codes and every other byte a space
_EDGE_NUMBERS = bytes(c if ord("0") <= c <= ord("9") else ord(str(_TYPE_CODE.get(chr(c), " ")))
                      for c in range(256))

GRAPH_SCHEMA = "pillow-graph-v1"
GRAPH_MAGIC = b"PLG1"
_WRITE_RECORDS = 1 << 16  # records per chunk: JSON words or edges, EdgeList tuples
ORACLE_MAX_LEVEL = 5  # verify checks every candidate pair; 516,352 at level 5
_POLICIES = ("off", "on")  # central-edge policies; a policy's index is its binary flag
_FLIP_LETTERS = "5123406789"  # a flipped level's letter d becomes _FLIP_LETTERS[d]


# ---------------------------------------------------------------------------
# face adjacency (normative rule)


def _shared_faces(s, t):
    """The unit sides of the square of level-n state s that t's square also
    has, as midpoints in half level-n units: all four when the squares
    coincide, one when they sit side by side, none otherwise."""
    x, y = s[0], s[1]
    dx, dy = t[0] - x, t[1] - y
    if dx == dy == 0:
        return [(2 * x + 1 + ex, 2 * y + 1 + ey) for ex, ey in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    if abs(dx) + abs(dy) == 1:
        return [(2 * x + 1 + dx, 2 * y + 1 + dy)]
    return []


def _face_type(shared, face):
    """Type of the edge through a common face: "S" when the squares coincide
    (all four sides shared), else "H" across a vertical face (its midpoint's
    x is even) and "V" across a horizontal one."""
    if len(shared) == 4:
        return SEAM
    return HORIZONTAL if face[0] % 2 == 0 else VERTICAL


def adjacency(w, v):
    """Edge type joining the tiles of w and v, or None.

    Returns "H" for tiles meeting across a vertical face (side by side), "V"
    across a horizontal face (stacked), "S" for distinct sheets glued along a
    seam.  Corner-only contact is not an edge.
    """
    if len(w) != len(v):
        raise ValueError("words must have equal length")
    if w == v:
        raise ValueError("adjacency is defined for distinct words")
    n = len(w)
    sw = _prefix_states(w)
    faces = shared = _shared_faces(sw[n], _prefix_states(v)[n])
    if not faces:
        return None  # the squares neither coincide nor share a side
    for k in range(1, n + 1):
        if w[k - 1] == v[k - 1]:
            continue
        # Where the letters differ the tiles meet only on the level-k locus:
        # the seam, i.e. the boundary of the common centre square, for a
        # sheet difference; the edge the two squares share for a grid one.
        # A face lies in both level-k squares already, so either way it is
        # on the locus when it is on the boundary of w's level-k square.
        # That boundary has integer ends in level-n units, so a unit face
        # lies on it exactly when its midpoint does.
        side = 2 * 3 ** (n - k)
        x0, y0 = sw[k][0] * side, sw[k][1] * side
        faces = [(px, py) for px, py in faces
                 if px in (x0, x0 + side) or py in (y0, y0 + side)]
        if not faces:
            return None
    return _face_type(shared, faces[0])


# ---------------------------------------------------------------------------
# chain oracle

# The oracle re-decides adjacency from first principles: a point of the n-th
# stage is a base point plus one sheet choice per level, the sheet choice
# being quotiented away off the open center cell.  Two tiles meet along a
# positive-length face iff some level-n grid edge midpoint admits a chain
# lying in both tiles.  Membership walks the fold dynamics in exact integer
# arithmetic over a fixed denominator.


def _fold_scaled(a, denom):
    b = 3 * a
    if b <= denom:
        return b
    if b <= 2 * denom:
        return 2 * denom - b
    return b - 2 * denom


def _chains_meet(w, v, px, py, denom):
    # Is there a point over (px/denom, py/denom) lying in both tiles?
    x, y = px, py
    for cw, cv in zip(w, v):
        lw, lv = LETTERS[cw], LETTERS[cv]
        x3, y3 = 3 * x, 3 * y
        for let in (lw, lv):
            if not (let.grid_col - 1) * denom <= x3 <= let.grid_col * denom:
                return False
            if not (let.grid_row - 1) * denom <= y3 <= let.grid_row * denom:
                return False
        if denom < x3 < 2 * denom and denom < y3 < 2 * denom:
            # Interior of the center cell: the sheet choice is real, so the
            # two letters must select the same sheet.
            if lw.sheet_bit != lv.sheet_bit:
                return False
        x = _fold_scaled(x, denom)
        y = _fold_scaled(y, denom)
    return True


def chain_oracle_adjacency(w, v, exhaustive=False):
    """Slow independent adjacency decision, levels <= ORACLE_MAX_LEVEL only.

    With exhaustive=True every level-n grid edge is probed; otherwise probing
    is restricted to the edges touching both projected squares, which is
    where any positive-length intersection must lie.
    """
    if len(w) != len(v):
        raise ValueError("words must have equal length")
    if w == v:
        raise ValueError("oracle compares distinct words")
    n = check_level(len(w), ORACLE_MAX_LEVEL, name="chain oracle word length", over=ValueError)
    top = 3**n
    denom = 2 * top
    shared = _shared_faces(_prefix_states(w)[n], _prefix_states(v)[n])
    if exhaustive:
        probes = []
        for i in range(top + 1):
            for j in range(top):
                probes.append((2 * i, 2 * j + 1))  # on line x = i/3^n
                probes.append((2 * j + 1, 2 * i))  # on line y = i/3^n
    else:
        probes = shared
    for face in probes:
        if _chains_meet(w, v, *face, denom):
            return _face_type(shared, face)
    return None


# ---------------------------------------------------------------------------
# graph construction


class EdgeList(Sequence):
    """A graph's sorted (i, j, type) edges as a read-only view of its edge
    arrays: nothing is copied, and an edge's tuple is made only when it is
    read.  It compares equal to a view or a list with the same tuples."""

    __hash__ = None  # compared by value, like the list it stands for

    def __init__(self, u, v, t, n):
        self._arrays, self._n = (u, v, t), n

    def __len__(self):
        return len(self._arrays[0])

    def __getitem__(self, k):
        k = index(k)  # an int or a numpy int; no slices
        if not -len(self) <= k < len(self):
            raise IndexError(f"edge index {k} out of range for {len(self)} edges")
        u, v, t = self._arrays
        return int(u[k]), int(v[k]), EDGE_TYPES[t[k]]

    def __iter__(self):
        # in chunks; ends index one int object per vertex, so no int per edge
        ints = np.arange(self._n).astype(object)
        for s in range(0, len(self), _WRITE_RECORDS):
            u, v, t = (a[s:s + _WRITE_RECORDS] for a in self._arrays)
            names = map(EDGE_TYPES.__getitem__, t.tolist())
            yield from zip(ints[u].tolist(), ints[v].tolist(), names)

    def __eq__(self, other):
        if isinstance(other, EdgeList):  # memoryviews compare without a temporary
            return len(self) == len(other) and all(
                memoryview(a) == memoryview(b) for a, b in zip(self._arrays, other._arrays))
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented


@dataclass(eq=False)  # array fields: the generated __eq__ would not work
class ReplacementGraph:
    """Level-n tile graph on the vertices 0..10^n - 1, stored as edge arrays.

    Vertex i is the tile of word i, i in n digits; `words` formats one only
    when it is read.  Edge k joins u[k] < v[k] with type code t[k] (H=0, V=1,
    S=2), in strictly increasing order of its key (u*n + v)*3 + t
    (edge_keys).  Construction checks the level, the policy and the arrays,
    and derives the projected squares (square_x, square_y) of all tiles.  The
    one adjacency, the neighbour table `neighbours`, is derived on the first
    traversal and kept; reading, writing and comparing a graph never derive it.
    """

    level: int
    policy: str
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    square_x: np.ndarray = field(init=False, repr=False)
    square_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.level = check_level(self.level, MAX_LEVEL, name="graph level", over=ValueError)
        _policy(self.policy)
        n = self.n_vertices
        u, v, t = (np.ascontiguousarray(a, np.int64) for a in (self.u, self.v, self.t))
        _check_edges(u, v, t, n)
        self.u, self.v, self.t = u, v, t
        self.square_x, self.square_y = _square_arrays(self.level)

    def index(self, word):
        if len(word) != self.level or not set(word) <= _LETTER_SET:
            raise ValueError(f"word {word!r} is not a level-{self.level} word")
        return int(word)

    @property
    def words(self):
        return LevelWords(self.level)

    @property
    def n_vertices(self):
        return 10**self.level

    @property
    def n_edges(self):
        return len(self.u)

    @property
    def edges(self):
        """The sorted (i, j, type) tuples as an EdgeList view of the arrays."""
        return EdgeList(self.u, self.v, self.t, self.n_vertices)

    def edge_arrays(self):
        """Edges as three aligned numpy arrays (u, v, type code H=0,V=1,S=2)."""
        return self.u, self.v, self.t

    @cached_property
    def neighbours(self):  # derived on the first traversal, then kept
        return _neighbour_table(self.u, self.v, self.n_vertices)

    @cached_property
    def is_reference(self):
        """Is this G_n, edge for edge build_graph(level, policy)?  Checked on
        first use, then kept; build_graph's own graphs are set True."""
        return self.edges == build_graph(self.level, self.policy).edges


def edge_keys(u, v, t, n):
    """One int64 key per typed edge on n vertices: (u*n + v)*3 + t.

    Keys order edges by (u, v, t); a graph's edge arrays are strictly
    increasing in it.  Exact in int64 up to MAX_LEVEL (below 3 * 10^12).
    """
    return (u * n + v) * len(EDGE_TYPES) + t


def _check_edges(u, v, t, n):
    """Reject edge arrays that are not a sorted simple edge list on n vertices.

    Type codes must name an edge type, every edge must satisfy 0 <= i < j < n,
    and the (i, j) pairs must increase strictly, so the edge keys do too.
    """
    bad = np.flatnonzero(
        (t < 0) | (t >= len(EDGE_TYPES)) | (u < 0) | (u >= v) | (v >= n))
    if bad.size:
        k = bad[0]
        raise ValueError(f"malformed edge ({u[k]}, {v[k]}, {t[k]})")
    # the key without its type: a repeated pair of two types must not pass
    if (np.diff(edge_keys(u, v, 0, n)) <= 0).any():
        raise ValueError("edge list is not sorted or repeats a pair")


def arc_csr(u, v, n):
    """Both arcs of every edge (u[k], v[k]) on n vertices, grouped by tail:
    (indptr, heads, edge id of each arc).  Tails are taken stably over [v, u],
    so a sorted simple edge list (u < v) gets ascending neighbour slices.
    """
    tails = np.concatenate([v, u])
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    # entry j of [v, u] belongs to edge j mod len(u)
    return indptr, np.concatenate([u, v])[order], order % max(len(u), 1)


def _neighbour_table(u, v, n):
    """The (max degree, n) int32 neighbour table of a sorted simple edge
    list on n vertices: column x holds x's lower ends, then its upper ends,
    each ascending (arc_csr's order), padded with x.  The upper ends of x are
    one run of the edges, so only the lower ends take a stable argsort (of v,
    not of both arcs as in arc_csr)."""
    low, up = np.bincount(v, minlength=n), np.bincount(u, minlength=n)
    nb = np.tile(np.arange(n, dtype=np.int32), (max((low + up).max(initial=0), 1), 1))
    places = np.arange(len(u), dtype=np.int32)  # int32 temporaries: small beside the table
    nb[places - (np.cumsum(up) - up - low).astype(np.int32)[u], u] = v
    tails = np.repeat(np.arange(n, dtype=np.int32), low)  # v in ascending order
    nb[places - (np.cumsum(low) - low).astype(np.int32)[tails], tails] = u[np.argsort(v, kind="stable")]
    return nb


def _policy(policy):
    """A central-edge policy, checked: one of _POLICIES, else ValueError."""
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    return policy


def build_graph(n, central_edge_policy="on"):
    """Construct the level-n replacement graph.

    central_edge_policy "on" keeps every seam edge; "off" suppresses seam
    edges whose only differing level is the last letter.

    Connectivity is proved by induction, with no traversal: G_0 is one tile and
    G_m is ten copies of G_{m-1}, connected if its cross edges join the ten blocks;
    if not, no edge joins two groups of blocks, and RuntimeError names the level m.
    """
    n = check_level(n)
    _policy(central_edge_policy)

    u = v = t = np.zeros(0, dtype=np.int64)  # G_0: one tile, no edges
    for m in range(1, n + 1):
        # G_m is ten copies of G_{m-1}, one per first letter: each letter's
        # chart maps the unit square isometrically onto its cell, and the
        # suppressed last-letter seam sits at the same position in a block.
        size = 10 ** (m - 1)
        offs = np.arange(0, 10 * size, size)[:, None]
        cu, cv, ct = _cross_edges(m, central_edge_policy)
        join = np.eye(10, dtype=bool)
        join[cu // size, cv // size] = join[cv // size, cu // size] = True
        if not np.linalg.matrix_power(join, 9)[0].all():  # a path on ten nodes: <= 9 steps
            raise RuntimeError(f"level-{m} graph is not connected")
        u = np.concatenate([(u + offs).ravel(), cu])
        v = np.concatenate([(v + offs).ravel(), cv])
        t = np.concatenate([np.tile(t, 10), ct])
        keys = edge_keys(u, v, t, 10 * size)
        order = np.argsort(keys, kind="stable")  # merges the sorted blocks and cross edges
        u, v, t = u[order], v[order], t[order]

    g = ReplacementGraph(level=n, policy=central_edge_policy, u=u, v=v, t=t)
    g.is_reference = True  # the reference itself: hop_row never rebuilds it
    return g


def _cross_edges(m, policy):
    """Edges (u, v, t) of G_m whose tiles differ in the first letter.

    Read off the level-m square table.  Squares facing each other across a
    cell-side cut are joined: H across the x cuts, V across the y cuts.  The
    shared face lies on the boundary of every square in the cell that holds
    it, so the two tiles meet however their words differ.  Such squares
    carry no centre letter after the first; an end in the centre cell is the
    '5' word, and its '0' twin is joined to the other end too.  Each square
    on the centre cell's boundary ring gives a 5/0 seam, which policy "off"
    drops at m = 1, where the first letter is the last.
    """
    grid = _grid_table(m)
    side, size = 3 ** (m - 1), 10 ** (m - 1)
    twin = 5 * size  # index of '5' + tail less that of '0' + tail
    cut = np.array([side, 2 * side])
    a = np.concatenate([grid[cut - 1].ravel(), grid[:, cut - 1].ravel()])
    b = np.concatenate([grid[cut].ravel(), grid[:, cut].ravel()])
    t = np.repeat([_TYPE_CODE[HORIZONTAL], _TYPE_CODE[VERTICAL]], 6 * side)
    in_a, in_b = a // size == 5, b // size == 5
    ring = np.ones((side, side), dtype=bool)
    ring[1:-1, 1:-1] = False
    seam = grid[side : 2 * side, side : 2 * side][ring]
    if policy == "off" and m == 1:
        seam = seam[:0]
    a = np.concatenate([a, a[in_a] - twin, a[in_b], seam - twin])
    b = np.concatenate([b, b[in_a], b[in_b] - twin, seam])
    t = np.concatenate([t, t[in_a], t[in_b], np.full(seam.size, _TYPE_CODE[SEAM])])
    return np.minimum(a, b), np.maximum(a, b), t


def reference_edges(n, central_edge_policy="on"):
    """Sorted edge list, the slow path build_graph is checked against:
    adjacency, which the builder never runs, decides every pair of
    _candidate_pairs, and _policy_keeps applies the policy.  Every pair
    costs Python calls, so keep n small."""
    policy = _policy(central_edge_policy)
    edges = []
    for w, v in _candidate_pairs(n):
        t = adjacency(w, v)
        if _policy_keeps(policy, w, v, t):
            edges.append((*sorted((int(w), int(v))), t))
    return sorted(edges)


def _candidate_pairs(n):
    """Every pair of level-n words whose squares coincide or share a side,
    grouped by square: the only pairs that _shared_faces gives a face, so
    the only ones adjacency or the chain oracle can call adjacent."""
    over = collections.defaultdict(list)
    for w, x, y in zip(all_words(n), *map(np.ndarray.tolist, _square_arrays(n))):
        over[x, y].append(w)
    for (x, y), here in over.items():
        yield from itertools.combinations(here, 2)
        for there in (over.get((x + 1, y), ()), over.get((x, y + 1), ())):
            yield from itertools.product(here, there)


def _policy_keeps(policy, w, v, t):
    """Is the pair (w, v), of adjacency type t (None: no edge), an edge under
    the policy?  "off" drops the seams whose words differ only in the last letter."""
    return t is not None and not (policy == "off" and t == SEAM and w[:-1] == v[:-1])


# ---------------------------------------------------------------------------
# metric primitives


def _vertex(g, s):
    """A vertex index as an int; ValueError unless it is in range."""
    s = _integer(s, "vertex index")
    if not 0 <= s < g.n_vertices:
        raise ValueError(f"vertex index {s} outside 0..{g.n_vertices - 1}")
    return s


def bfs_row(g, start, cutoff=None):
    """Hop distances from one vertex, as an int64 array over g's vertices.

    Entries are -1 for vertices that are unreachable or farther than cutoff,
    an integer >= 0 if given.  Any graph: the reference for hop_row, and the
    traversal of distance and ball.  The frontier, a vertex array, advances
    one level per step by one gather from the neighbour table (a vertex's
    self padding is itself, already seen).
    """
    start = _vertex(g, start)
    if cutoff is not None and _integer(cutoff, "cutoff") < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    nb = g.neighbours
    row = np.full(g.n_vertices, -1, dtype=np.int64)
    row[start] = 0
    frontier = np.array([start], dtype=np.intp)
    d = 0
    while frontier.size and (cutoff is None or d < cutoff):
        d += 1
        cand = nb[:, frontier].astype(np.intp).ravel()  # intp: no conversion per index
        cand = cand[row[cand] < 0]
        # Dedupe in linear time: each candidate writes its own negative mark
        # (below -1), and of a repeated vertex exactly one reads its mark back.
        marks = -2 - np.arange(cand.size)
        row[cand] = marks
        frontier = cand[row[cand] == marks]
        row[frontier] = d
    return row


def hop_row(g, start):
    """bfs_row(g, start) for g = G_n, from the closed form, with no traversal.

    Let pi send a tile to its square on the 3^n grid, L1 = |pi(x) - pi(y)|_1
    and k the common prefix length of words x != y.  If letters k + 1 are
    '0' and '5' (twins), both squares lie in the level-(k + 1) centre square
    Q, and d(x, y) = L1 + 1 + 2 * gap, where gap is the fewest steps from the
    two squares to Q's boundary ring; under policy "off" with k + 1 = n,
    d = 2.  Otherwise d = L1.  Proof, from facts (a) and (b) of
    metrics.lipschitz_quotient_check, which hold on G_n.  A cell on the ring
    of a level-j cell has no centre letter below level j, so two sheets that
    agree at levels 1..j carry one tile over it.
    (i) d >= L1: by (a) an edge moves pi by at most one step.
    (ii) Not twins: x and y lie in distinct level-(k + 1) cells, so sheets
        through x and through y can agree at levels 1..k + 1.  An L1
        geodesic leaves x's level-(k + 1) cell at a ring cell c; by (b) x's
        sheet runs from x to the shared tile over c, and y's sheet on to y,
        in L1 steps in all.
    (iii) Twins: an edge leaving x's half (its first k + 1 letters) starts
        over Q's ring, and is a seam to the twin over the same cell (no step
        of pi) or a grid edge out of Q.  A walk through a cell r takes
        L1 + 2 * (the distance from r to the pair's bounding box) steps or
        more: L1 + 2 * gap + 1 through a seam, L1 + 2 * gap + 2 out of Q.  At
        a ring cell nearest the box, sheets through x and y that agree below
        level k + 1 carry the two ends of a seam, and (b) gives the legs.
    (iv) Policy "off" with k + 1 = n drops that seam over pi(x) = pi(y), so
        d >= 2; a neighbour cell of Q in its level-(n - 1) cell carries one
        tile, adjacent to both by (b).
    ValueError unless g is G_n (is_reference): there is no second path.
    """
    x = _vertex(g, start)
    row = np.empty((1, g.n_vertices), dtype=np.int64)
    _hop_block(g, x, x + 1, row)
    return row[0]


def _hop_block(g, lo, hi, out):
    """Write rows lo..hi - 1 of G_n's hop distances, hop_row's closed form,
    into out, a (hi - lo, n_vertices) block: the L1 part, then per level and
    centre cell holding starts, the twin term on their rows x its twin block."""
    if not g.is_reference:
        raise ValueError(f"graph is not G_{g.level} under policy {g.policy!r}: "
                         "its hop distances have no closed form")
    n, sx, sy = g.level, g.square_x, g.square_y
    np.abs(np.subtract(sx, sx[lo:hi, None], out=out), out=out)
    out += np.abs(np.subtract(sy, sy[lo:hi, None], dtype=out.dtype))  # no mixed-type add
    for k, steps in enumerate(_ring_steps(n)):
        size = 10 ** (n - k - 1)  # of a level-(k + 1) cell
        for cell in range(lo // size, (hi - 1) // size + 1):
            if cell % 10 not in (0, 5):
                continue
            a, b = max(lo, cell * size), min(hi, (cell + 1) * size)  # its starts
            twin = (cell + 5 - 2 * (cell % 10)) * size  # the twin block: '0' <-> '5'
            rect = out[a - lo : b - lo, twin : twin + size]
            if g.policy == "off" and k == n - 1:
                rect[...] = 2
                continue
            rows, cols = ((steps[sx[i:j]], steps[sy[i:j]]) for i, j in ((a, b), (twin, twin + size)))
            rect += 1 + 2 * np.minimum.outer(np.minimum(*rows), np.minimum(*cols))


@lru_cache(maxsize=None)
def _ring_steps(n):
    """(n, 3^n) table: row k holds min(c % s, s - 1 - c % s), s = 3^(n - k - 1), per
    grid coordinate c: its steps along an axis to the ring of its level-(k + 1) cell."""
    side = 3 ** np.arange(n - 1, -1, -1)[:, None]
    c = np.arange(3**n) % side
    table = np.minimum(c, side - 1 - c)
    table.flags.writeable = False  # memoised: every caller gets this one array
    return table


def distance(g, u, v):
    """Hop distance between two vertices given as words or indices."""
    su = g.index(u) if isinstance(u, str) else u
    sv = _vertex(g, g.index(v) if isinstance(v, str) else v)
    d = int(bfs_row(g, su)[sv])
    if d < 0:
        raise RuntimeError(f"vertices {u!r} and {v!r} are disconnected")
    return d


def ball(g, center, radius):
    """Closed-ball vertex set around a word or index."""
    c = g.index(center) if isinstance(center, str) else center
    return set(np.flatnonzero(bfs_row(g, c, cutoff=radius) >= 0).tolist())


# ---------------------------------------------------------------------------
# structure maps


def boundary_face(g, side):
    """Vertices whose square touches one side of the unit square."""
    top = 3**g.level - 1
    faces = {"left": (g.square_x, 0), "right": (g.square_x, top),
             "bottom": (g.square_y, 0), "top": (g.square_y, top)}
    if side not in faces:
        raise ValueError(f"unknown side {side!r}")
    coord, value = faces[side]
    return set(np.flatnonzero(coord == value).tolist())


@dataclass
class PrefixBlock:
    """Induced subgraph over one prefix, relabeled by suffix words."""

    prefix: str
    level: int  # level of the suffix block
    start: int  # first global index of the block
    reference: ReplacementGraph = field(repr=False)  # certified equal to the block

    @property
    def edges(self):  # block-local indices
        return self.reference.edges


def _prefix_block(level, prefix):
    """The parsed prefix and its block's level in G_level; ValueError unless it
    has 1..level - 1 letters."""
    prefix = parse_word(prefix)
    if not 1 <= len(prefix) < level:
        raise ValueError(f"prefix length must be in 1..{level - 1}")
    return prefix, level - len(prefix)


def prefix_subgraph(g, prefix, reference=None):
    """Extract the block over a prefix and certify it matches level n-k.

    Returns the PrefixBlock; raises if the induced edge set does not equal the
    reference graph's under the suffix bijection.  The reference is built on
    demand when not supplied (it must share g's policy).
    """
    prefix, m = _prefix_block(g.level, prefix)
    size = 10**m
    start = int(prefix) * size
    u, v, t = g.edge_arrays()
    mask = (u >= start) & (v < start + size)  # both ends inside, as u < v
    local = (u[mask] - start, v[mask] - start, t[mask])
    if reference is None:
        reference = build_graph(m, g.policy)
    if reference.level != m or reference.policy != g.policy:
        raise ValueError("reference graph has wrong level or policy")
    if not all(map(np.array_equal, local, reference.edge_arrays())):
        raise RuntimeError(
            f"block over prefix {prefix!r} is not isomorphic to level {m}"
        )
    return PrefixBlock(prefix=prefix, level=m, start=start, reference=reference)


def letter_permutation(level, maps):
    """Fresh index array taking each level-n word to the word whose letter k is
    maps[k][letter k] (or stays): level k permutes slices of the (10^k, 10, -1) view."""
    out = np.arange(10**level, dtype=np.int64)
    for k, letters in enumerate(maps[:level]):
        moved = [d for d, c in enumerate(letters) if c != ALPHABET[d]]  # only these slices copy
        block = out.reshape(10**k, 10, -1)
        block[:, moved] = block[:, [int(letters[d]) for d in moved]]
    return out


def flip_permutation(g, bits):
    """Permutation of the words of g.level (g a graph, metric or LevelWords) under a
    sheet flip: at each level whose bit is "1" (as in words.flip), '0' and '5' swap."""
    return letter_permutation(g.level, [_FLIP_LETTERS if b == "1" else ALPHABET
                                        for b in _bits(bits, g.level)])


def symmetry_permutations(level):
    """Yield automorphisms of G_level, either policy: the mirrors (col, row) -> (col, 4 - row)
    and (4 - col, row), each swapping two faces, then the one-level flips, fixing every face."""
    mirrors = [["0789456123"] * level, ["0321654987"] * level]
    flips = [[ALPHABET] * k + [_FLIP_LETTERS] for k in range(level)]
    return (letter_permutation(level, maps) for maps in mirrors + flips)


def is_automorphism(g, perm):
    """Does the vertex permutation preserve the typed edge set?

    perm must be a length-n integer array holding each vertex once: an entry
    out of range could give two edges the same key.  The image edges' keys,
    sorted once, must equal the graph's own, which are strictly increasing.
    """
    n = g.n_vertices
    perm = np.asarray(perm)
    if perm.dtype.kind not in "iu" or perm.shape != (n,):
        raise ValueError(f"permutation must be an integer array of length {n}")
    perm = perm.astype(np.int64, copy=False)
    if perm.min() < 0 or not (np.bincount(perm, minlength=n) == 1).all():
        raise ValueError(f"permutation must hold each of 0..{n - 1} exactly once")
    u, v, t = g.edge_arrays()
    pu, pv = perm[u], perm[v]
    # edge_keys of the image edges; numpy reuses each temporary, so one buffer
    keys = (np.minimum(pu, pv) * n + np.maximum(pu, pv, out=pv)) * len(EDGE_TYPES) + t
    keys.sort()
    return bool(np.array_equal(keys, edge_keys(u, v, t, n)))


# ---------------------------------------------------------------------------
# persistence


def _json_frame(level, policy):
    """The bytes before the vertex list, between it and the edge list, and after."""
    text = json.dumps({"schema": GRAPH_SCHEMA, "level": level, "policy": policy,
                       "vertices": [], "edges": []}, separators=(",", ":"))
    head, between, tail = text.rsplit("[]", 2)
    return (head + "[").encode(), ("]" + between + "[").encode(), ("]" + tail + "\n").encode()


def _json_chunks(level, policy, u, v, t):
    """The bytes of json.dumps(payload, separators=(",", ":")) + "\n" for a
    graph with edge arrays u, v, t, _WRITE_RECORDS vertex words or edge
    records per chunk (bytes, or a uint8 array).

    A vertex word copies its digits from a table (column k: 0..9 in turn,
    10^(level-1-k) times each).  An edge record [i,j,"T"], is four stores
    into a slot of 2 * level + 8 bytes: i's word ("[", its digits, zero
    bytes) at byte 0, j's (its "[" made ",") at level + 1, ,"T" and "],".  A
    mask drops the zero bytes of ends shorter than level digits; the longest
    tail of records with no such end (the input need not be sorted) goes out
    as its slots.
    """
    w, n, m = level, 10**level, len(u)
    ascii_digits, size = np.arange(ord("0"), ord("9") + 1, dtype="<u8"), 2 * w + 8
    digits = np.empty((n, w), np.uint8)
    for k in range(w):
        digits.reshape(10**k, 10, -1, w)[..., k] = ascii_digits[:, None]
    word = np.frombuffer(b'"' + b"0" * w + b'",', np.uint8)
    head, between, tail = _json_frame(level, policy)
    yield head
    for k in range(0, n, _WRITE_RECORDS):
        slots = np.tile(word, (min(n - k, _WRITE_RECORDS), 1))
        slots[:, 1:w + 1] = digits[k:k + _WRITE_RECORDS]
        yield slots.reshape(-1)[:-1 if k + _WRITE_RECORDS >= n else None]
    yield between
    words = np.empty(n, "<u8")  # per index: little-endian "[", its digits, zero bytes
    words[:10] = ord("[") + (ascii_digits << 8)
    for d in range(1, w):  # a (d + 1)-digit index is a d-digit one and a digit in byte d + 1
        np.add(words[10 ** (d - 1):10**d, None], ascii_digits << 8 * (d + 1),
               out=words[10**d:10 ** (d + 1)].reshape(-1, 10))
    names = np.frombuffer("".join(f',"{e}"' for e in EDGE_TYPES).encode(), "<u4")
    short = (u < 10 ** (w - 1)) | (v < 10 ** (w - 1))
    fixed = m - int(short[::-1].argmax()) if short.any() else 0  # first record of the tail
    for k in range(0, m, _WRITE_RECORDS):
        e = min(k + _WRITE_RECORDS, m)
        slots = np.empty((e - k, size), np.uint8)
        for at, dtype, value in ((0, "<u8", words[u[k:e]]),
                                 (w + 1, "<u8", words[v[k:e]] ^ (ord("[") ^ ord(","))),
                                 (2 * w + 2, "<u4", names[t[k:e]]),
                                 (2 * w + 6, "<u2", int.from_bytes(b"],", "little"))):
            np.ndarray(e - k, dtype, slots, at, (size,))[...] = value
        flat = slots.reshape(-1)[:slots.size - (e == m)]  # no "," after the last record
        cut = min(max(fixed - k, 0), e - k) * size
        yield flat[:cut][flat[:cut] != 0]
        yield flat[cut:]
    yield tail


def write_graph_json(g, path):
    """Write g as pillow-graph-v1 JSON, one encoder chunk (_json_chunks) at a
    time, so neither the whole text nor a Python object per edge is held."""
    with open(path, "wb") as fh:
        fh.writelines(_json_chunks(g.level, g.policy, *g.edge_arrays()))


def _compact_json(data):
    """(level, policy, u, v, t) if data is byte for byte what the encoder
    makes of them, else None.

    _EDGE_NUMBERS keeps the digits of the edge block, makes the type letters
    their codes and every other byte a space.  From the first record whose
    lower end has level digits on, the encoder's records are 2 * level + 8
    bytes long: when the length fits, that part is read as a byte view, by
    Horner sums over digit columns, and np.fromstring reads the text before
    it.  Neither the count nor the values are trusted: a block of spaces
    parses as [0], a digit run past int64 saturates, a bracket or comma out
    of place still parses, and the view takes any byte for a digit.  So the
    count need only split into records, the values are clamped to what the
    encoder takes, and only the byte comparison with its output makes them
    a reading.  No count= is passed: asked for more numbers than the text
    holds, np.fromstring has filled the rest with uninitialised memory.
    """
    for level, policy in itertools.product(range(1, MAX_LEVEL + 1), _POLICIES):
        head, between, tail = _json_frame(level, policy)
        if data.startswith(head):
            break
    else:
        return None
    w, size = level, 2 * level + 8
    start, stop = data.find(between, len(head)) + len(between), len(data) - len(tail)
    hit = re.compile(rb"\[[1-9][0-9]{%d}," % (w - 1)).search(data, start, stop)
    cut = hit.start() if hit and (stop + 1 - hit.start()) % size == 0 else stop
    numbers = np.fromstring(data[start:cut].translate(_EDGE_NUMBERS), np.int64, sep=" ")
    if len(numbers) % 3:
        return None
    k = len(numbers) // 3
    edges = np.empty((3, k + (stop + 1 - cut) // size), np.int64)  # rows u, v, t
    edges[:, :k] = numbers.reshape(-1, 3).T
    fixed = np.frombuffer(data, np.uint8, (edges.shape[1] - k) * size, cut).reshape(-1, size)
    for row, at in ((edges[0, k:], 1), (edges[1, k:], w + 2)):
        row[:] = fixed[:, at]
        for c in range(at + 1, at + w):
            row *= 10
            row += fixed[:, c]
        row -= ord("0") * (10**w - 1) // 9  # each digit's "0", times its place
    edges[2, k:] = np.frombuffer(_EDGE_NUMBERS, np.uint8)[fixed[:, 2 * w + 4]] - ord("0")
    np.clip(edges, 0, [[10**level - 1], [10**level - 1], [len(EDGE_TYPES) - 1]], out=edges)
    at = 0
    for chunk in _json_chunks(level, policy, *edges):
        if not data.startswith(chunk, at):
            return None
        at += len(chunk)
    return (level, policy, *edges) if at == len(data) else None


def read_graph_json(path):
    """Read pillow-graph-v1 JSON.  A file that write_graph_json could have
    written takes the numpy path (_compact_json); any other goes through
    json.load (_read_json_load), which words every error of its reading."""
    with open(path, "rb") as fh:
        read = _compact_json(fh.read())  # the bytes go before the graph is built
    if read is not None:
        return ReplacementGraph(*read)
    return _read_json_load(path)


def _read_json_load(path):
    """pillow-graph-v1 JSON through json.load: any file, every error.

    Checked in turn: the schema, level and policy; the edge records, lists
    [i, j, type] with JSON integer indices (no bool), where an unknown type
    reads as code len(EDGE_TYPES), which construction rejects; the vertex
    list.  The checks and columns are map passes in C: no object per record.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != GRAPH_SCHEMA:
        raise ValueError(f"not a {GRAPH_SCHEMA} file: {path}")
    level = check_level(payload.get("level"), MAX_LEVEL, name="graph level", over=ValueError)
    policy = _policy(payload.get("policy"))
    records, msg = payload.get("edges"), "edge list is not a list of [i, j, type] records"
    if not (type(records) is list and set(map(type, records)) <= {list}
            and set(map(len, records)) <= {3}):
        raise ValueError(msg)
    u, v, t = (list(map(itemgetter(k), records)) for k in range(3))
    if not set(map(type, u)) | set(map(type, v)) <= {int}:
        raise ValueError(msg)
    try:
        u, v = np.array(u, np.int64), np.array(v, np.int64)
    except OverflowError:
        raise ValueError("malformed edge: vertex index out of range") from None
    t = np.fromiter(map(_TYPE_CODE.get, map(str, t), itertools.repeat(len(EDGE_TYPES))), np.int64)
    vertices, words = payload.get("vertices"), LevelWords(level)
    if not (type(vertices) is list and len(vertices) == len(words)
            and all(map(eq, vertices, words))):
        raise ValueError("vertex list is not the lexicographic word list")
    return ReplacementGraph(level=level, policy=policy, u=u, v=v, t=t)


def write_graph_binary(g, path):
    header = (g.level, _POLICIES.index(g.policy), g.n_vertices, g.n_edges)
    with open(path, "wb") as fh:
        fh.write(GRAPH_MAGIC)
        fh.write(struct.pack("<IIII", *header))
        fh.write(np.stack(g.edge_arrays(), axis=1).astype("<u4").tobytes())


def read_graph_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != GRAPH_MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated header")
        level, policy_flag, n_vertices, n_edges = struct.unpack("<IIII", header)
        check_level(level, MAX_LEVEL, name="graph level", over=ValueError)
        if policy_flag >= len(_POLICIES):
            raise ValueError(f"policy flag {policy_flag} is neither 0 (off) nor 1 (on)")
        policy = _POLICIES[policy_flag]
        if n_vertices != 10**level:
            raise ValueError("vertex count does not match the level")
        # checked against the file size, so a bad count allocates nothing
        if os.fstat(fh.fileno()).st_size != 20 + 12 * n_edges:
            raise ValueError("edge block does not match the edge count")
        raw = fh.read()
    # an unknown type code stays a number, which construction rejects
    u, v, t = np.frombuffer(raw, "<u4").reshape(-1, 3).T
    return ReplacementGraph(level=level, policy=policy, u=u, v=v, t=t)


def read_graph(path):
    """Load a graph from either the JSON or the binary format."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == GRAPH_MAGIC:
        return read_graph_binary(path)
    return read_graph_json(path)
