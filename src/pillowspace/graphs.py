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
The builder runs no adjacency test; the per-tile enumeration over all tiles,
reference_edges, decides every pair with it and is the slow cross-check.
"""

from __future__ import annotations

import gc
import itertools
import json
import operator
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from operator import index, itemgetter

import numpy as np

from .words import (
    ALPHABET,
    CENTER_LETTERS,
    LETTERS,
    MAX_LEVEL,
    CapacityError,  # the package exports it from this module
    LevelWords,
    _grid_table,
    _integer,
    _prefix_states,
    _square_arrays,
    check_level,
    flip,
    grid_word_of_square,
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
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # to the four neighbouring squares

GRAPH_SCHEMA = "pillow-graph-v1"
GRAPH_MAGIC = b"PLG1"
_WRITE_RECORDS = 1 << 16  # JSON vertex words or edge records per encoder chunk
_WORD_SOURCES = 64  # bfs_rows takes the bit-parallel path from one full word of starts,
_WORD_VERTICES = 10**4  # on graphs of at most this many vertices
_FRONTIER_SOURCES = 16  # starts the frontier path advances together
BFS_ENTRIES = 10**7  # distance entries per bfs_blocks call: 80 MB of int64 rows
ORACLE_MAX_LEVEL = 3


# ---------------------------------------------------------------------------
# face adjacency (normative rule)


def _shared_faces(s, t):
    """The unit sides of the square of level-n state s that t's square also
    has, as midpoints in half level-n units: all four when the squares
    coincide, one when they sit side by side, none otherwise."""
    x, y = s[0], s[1]
    dx, dy = t[0] - x, t[1] - y
    if dx == dy == 0:
        return [(2 * x + 1 + ex, 2 * y + 1 + ey) for ex, ey in _STEPS]
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


def _check_oracle_level(n):
    if n > ORACLE_MAX_LEVEL:
        raise ValueError(f"chain oracle supports length <= {ORACLE_MAX_LEVEL}, got {n}")


def chain_oracle_adjacency(w, v, exhaustive=False):
    """Slow independent adjacency decision, levels <= 3 only.

    With exhaustive=True every level-n grid edge is probed; otherwise probing
    is restricted to the edges touching both projected squares, which is
    where any positive-length intersection must lie.
    """
    if len(w) != len(v):
        raise ValueError("words must have equal length")
    if w == v:
        raise ValueError("oracle compares distinct words")
    n = len(w)
    _check_oracle_level(n)
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


@dataclass(eq=False)  # array fields: the generated __eq__ would not work
class ReplacementGraph:
    """Level-n tile graph on the vertices 0..10^n - 1, stored as edge arrays.

    Vertex i is the tile of word i, i in n digits; `words` formats one only
    when it is read.  Edge k joins u[k] < v[k] with type code t[k] (H=0, V=1,
    S=2), in strictly increasing order of its key (u*n + v)*3 + t
    (edge_keys).  Construction validates the arrays and derives the projected
    squares (square_x, square_y) of all tiles.  The one adjacency, the
    neighbour table `neighbours`, is derived on the first traversal and kept;
    reading, writing and comparing a graph never derive it.
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
        """Sorted (i, j, type) tuples, derived on each access.

        Not cached: a kept copy would hold the Python objects per edge that
        the arrays save.  Ends index one int object per vertex, so the list
        makes a tuple per edge but no int.
        """
        ints = np.arange(self.n_vertices).astype(object)
        names = map(EDGE_TYPES.__getitem__, self.t.tolist())
        return list(zip(ints[self.u].tolist(), ints[self.v].tolist(), names))

    def edge_arrays(self):
        """Edges as three aligned numpy arrays (u, v, type code H=0,V=1,S=2)."""
        return self.u, self.v, self.t

    @cached_property
    def neighbours(self):  # derived on the first traversal, then kept
        return _neighbour_table(self.u, self.v, self.n_vertices)


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
    nb[np.arange(len(u)) - (np.cumsum(up) - up - low)[u], u] = v
    order = np.argsort(v, kind="stable")
    tails = v[order]
    nb[np.arange(len(v)) - (np.cumsum(low) - low)[tails], tails] = u[order]
    return nb


def build_graph(n, central_edge_policy="on"):
    """Construct the level-n replacement graph.

    central_edge_policy "on" keeps every seam edge; "off" suppresses seam
    edges whose only differing level is the last letter.
    """
    n = check_level(n)
    if central_edge_policy not in ("on", "off"):
        raise ValueError(f"unknown policy {central_edge_policy!r}")

    u = v = t = np.zeros(0, dtype=np.int64)  # G_0: one tile, no edges
    for m in range(1, n + 1):
        # G_m is ten copies of G_{m-1}, one per first letter: each letter's
        # chart maps the unit square isometrically onto its cell, and the
        # suppressed last-letter seam sits at the same position in a block.
        size = 10 ** (m - 1)
        offs = np.arange(0, 10 * size, size)[:, None]
        cu, cv, ct = _cross_edges(m, central_edge_policy)
        u = np.concatenate([(u + offs).ravel(), cu])
        v = np.concatenate([(v + offs).ravel(), cv])
        t = np.concatenate([np.tile(t, 10), ct])
        keys = edge_keys(u, v, t, 10 * size)
        order = np.argsort(keys)
        u, v, t = u[order], v[order], t[order]

    g = ReplacementGraph(level=n, policy=central_edge_policy, u=u, v=v, t=t)
    if not (bfs_row(g, 0) >= 0).all():
        raise RuntimeError(f"level-{n} graph is not connected")
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
    """Sorted edge list from the per-tile enumeration over all 10^n tiles.

    The slow per-vertex path that build_graph is checked against: it decides
    every candidate pair with adjacency, which the builder never runs; no
    level cap, so keep n small.
    """
    return sorted(
        e for w in LevelWords(n) for e in _tile_edges(w, central_edge_policy)
    )


def _tile_edges(w, policy):
    """Edges (i, j, type) from tile w to its partners j > i."""
    n, i = len(w), int(w)
    # Seam partners share the footprint and differ at exactly one center
    # level (boundaries of nested center squares are disjoint, so multi-level
    # sheet flips never meet).
    partners = [w[:k] + flip(c, "1") + w[k + 1 :] for k, c in enumerate(w)
                if c in CENTER_LETTERS and not (policy == "off" and k == n - 1)]
    # Grid partners live over one of the four neighboring squares, on any
    # sheet at each of its center levels.
    x, y = _prefix_states(w)[-1][:2]
    for dx, dy in _STEPS:
        if 0 <= x + dx < 3**n and 0 <= y + dy < 3**n:
            base = grid_word_of_square(n, x + dx, y + dy)
            partners += map("".join, itertools.product(*(
                CENTER_LETTERS if c == "5" else c for c in base)))
    out = []
    for v in partners:
        if int(v) > i:
            t = adjacency(w, v)
            if t is not None:
                out.append((i, int(v), t))
    return out


# ---------------------------------------------------------------------------
# metric primitives


def _vertex_indices(g, vertices):
    """Vertex indices as an int64 array; ValueError unless each is in range."""
    n = g.n_vertices
    try:
        out = [index(s) for s in vertices]  # index, not int: 1.0 is no vertex
    except TypeError:
        raise ValueError("vertex indices must be integers") from None
    bad = [s for s in out if not 0 <= s < n]
    if bad:
        raise ValueError(f"vertex index {bad[0]} outside 0..{n - 1}")
    return np.array(out, dtype=np.int64)


def bfs_rows(g, starts, cutoff=None):
    """Hop distances from each start, as a (len(starts), n) int64 array.

    Entries are -1 for vertices that are unreachable or farther than cutoff,
    an integer >= 0 if given.  All sources advance one level per step, on
    one of two paths that return the same array, chosen by the call's size.
    From _WORD_SOURCES starts on (one full machine word of sources), on a
    graph of at most _WORD_VERTICES vertices, the bit-parallel path
    (_bfs_words) sweeps every vertex per level and advances 64 sources per
    word operation.  Otherwise the frontier path follows the sources' own
    frontiers, _FRONTIER_SOURCES starts at a time.  Both read the graph's
    neighbour table.  On a larger graph the sweep costs more than the
    frontiers (100 L5 rows took 2.3-2.7 s on it against 1.5-1.7 s, and
    0.22-0.25 s against 0.05-0.07 s within 27 hops, on one CPU), and the
    fixed chunks keep the key arrays small, so a call with many starts costs
    what separate calls would (200 L5 rows: 4.7-5.9 s in one frontier call,
    3.1-3.6 s in chunks).  A caller with many starts sizes its calls by the
    shared budget BFS_ENTRIES through bfs_blocks.
    """
    n = g.n_vertices
    starts = _vertex_indices(g, starts)
    if cutoff is not None and _integer(cutoff, "cutoff") < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if len(starts) >= _WORD_SOURCES and n <= _WORD_VERTICES:
        return _bfs_words(g, starts, cutoff)
    out = np.full((len(starts), n), -1, dtype=np.int64)
    for lo in range(0, len(starts), _FRONTIER_SOURCES):
        hi = lo + _FRONTIER_SOURCES
        _bfs_frontier(g, starts[lo:hi], cutoff, out[lo:hi].reshape(-1))
    return out


def bfs_blocks(g, starts, cutoff=None):
    """bfs_rows over many starts in calls of at most BFS_ENTRIES distance
    entries: yields (index of a call's first start, its rows) in order."""
    step = max(1, BFS_ENTRIES // g.n_vertices)
    for lo in range(0, len(starts), step):
        yield lo, bfs_rows(g, starts[lo : lo + step], cutoff)


def _bfs_frontier(g, starts, cutoff, flat):
    """The frontier path of bfs_rows: each (source, vertex) pair of a
    frontier is the flat key source * n + vertex into flat, the rows of the
    starts laid end to end and filled with -1, and is advanced by one gather
    from the neighbour table (a pair's self padding is its own, seen, key)."""
    n, nb = g.n_vertices, g.neighbours
    keys = np.arange(len(starts), dtype=np.int64) * n + starts
    flat[keys] = 0
    d = 0
    while keys.size and (cutoff is None or d < cutoff):
        d += 1
        vert = keys % n
        cand = (nb[:, vert] + (keys - vert)).ravel()
        cand = cand[flat[cand] < 0]
        # Dedupe in linear time: each candidate writes its own negative mark
        # (below -1), and of a repeated pair exactly one reads its mark back.
        marks = -2 - np.arange(cand.size)
        flat[cand] = marks
        keys = cand[flat[cand] == marks]
        flat[keys] = d


def _bfs_words(g, starts, cutoff):
    """bfs_rows with the sources as bits: source s is bit s % 64 of word
    s // 64 of a vertex's row (the multi-source BFS of Then et al., PVLDB
    8(4), 2014).

    A level ORs the frontier rows of each vertex's neighbours, read through
    the graph's neighbour table (whose self padding adds bits already seen),
    and keeps the bits not yet seen.  Distances are never unpacked per level:
    bit b of d + 1 is kept in bit plane b, so a start holds 1 and a vertex
    never seen holds 0, and the planes are unpacked once at the end.
    """
    n, k, nb = g.n_vertices, len(starts), g.neighbours
    new = np.zeros((n, -(-k // 64)), dtype="<u8")  # the frontier
    bit = np.arange(k, dtype="<u8")
    np.bitwise_or.at(new, (starts, bit // 64), np.uint64(1) << bit % 64)
    nxt, tmp = np.empty_like(new), np.empty_like(new)
    unseen = ~new
    planes = [new.copy()]
    d = 0
    while cutoff is None or d < cutoff:
        d += 1
        # take with out and mode="clip" writes in place; mode="raise" buffers
        np.take(new, nb[0], axis=0, out=nxt, mode="clip")
        for col in nb[1:]:
            nxt |= np.take(new, col, axis=0, out=tmp, mode="clip")
        np.bitwise_and(nxt, unseen, out=new)
        if not new.any():
            break
        unseen ^= new
        value = d + 1
        if value == 1 << len(planes):
            planes.append(np.zeros_like(new))
        for b, plane in enumerate(planes):
            if value >> b & 1:
                plane |= new
    return _plane_values(planes, k)


# delta swaps that transpose the 8x8 bit matrix of each uint64, byte b being
# row b (Hacker's Delight, section 7-3)
_TRANSPOSE_8X8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _plane_values(planes, k):
    """The (k, n) int64 array of v - 1, where bit b of v at [s, vertex] is
    bit s of planes[b][vertex]: eight planes at a time, one byte of each
    stacked into a uint64 whose 8x8 bit transpose puts a source's eight bits
    into one byte."""
    n, words = planes[0].shape
    acc = np.zeros((k, n), dtype=np.min_scalar_type((1 << len(planes)) - 1))
    for lo in range(0, len(planes), 8):
        x = np.zeros((words, 8, n, 8), dtype=np.uint8)  # [word, byte, vertex, plane]
        for b, plane in enumerate(planes[lo : lo + 8]):
            rows = np.ascontiguousarray(plane.T).view(np.uint8).reshape(words, n, 8)
            x[..., b] = rows.transpose(0, 2, 1)
        x = x.view("<u8")[..., 0]
        for shift, mask in _TRANSPOSE_8X8:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        # byte i of x[j, m, vertex] now holds the planes' bits of source 64j + 8m + i
        values = x.view(np.uint8).reshape(8 * words, n, 8).transpose(0, 2, 1)
        acc |= np.left_shift(values.reshape(64 * words, n)[:k], lo, dtype=acc.dtype)
    return np.subtract(acc, 1, dtype=np.int64)


def bfs_row(g, start, cutoff=None):
    """Hop distances from one vertex: the one-row case of bfs_rows."""
    return bfs_rows(g, [start], cutoff)[0]


def distance(g, u, v):
    """Hop distance between two vertices given as words or indices."""
    su = g.index(u) if isinstance(u, str) else u
    sv = g.index(v) if isinstance(v, str) else v
    (sv,) = _vertex_indices(g, [sv])
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


def prefix_subgraph(g, prefix, reference=None):
    """Extract the block over a prefix and certify it matches level n-k.

    Returns the PrefixBlock; raises if the induced edge set does not equal the
    reference graph's under the suffix bijection.  The reference is built on
    demand when not supplied (it must share g's policy).
    """
    prefix = parse_word(prefix)
    k = len(prefix)
    if not 1 <= k < g.level:
        raise ValueError(f"prefix length must be in 1..{g.level - 1}")
    m = g.level - k
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


def flip_permutation(g, bits):
    """Vertex permutation induced by a sheet flip, as a fresh index array:
    at each level k whose bit is "1" (as in words.flip), the (10^k, 10, -1)
    view swaps its 0 and 5 slices, the words with letter k '0' and '5'."""
    if len(bits) < g.level:
        raise ValueError("bit string shorter than the level")
    out = np.arange(g.n_vertices, dtype=np.int64)
    for k in range(g.level):
        if bits[k] == "1":
            block = out.reshape(10**k, 10, -1)
            block[:, [0, 5]] = block[:, [5, 0]]
    return out


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
    mapped = np.sort(edge_keys(np.minimum(pu, pv), np.maximum(pu, pv), t, n))
    return bool(np.array_equal(mapped, edge_keys(u, v, t, n)))


# ---------------------------------------------------------------------------
# persistence


def _digit_table(level):
    """The ASCII digits of 0 .. 10^level - 1, zero-padded to level places, as a
    (10^level, level) uint8 table.  Column k is the digit of 10^(level-1-k):
    each of 0..9 in turn, repeated 10^(level-1-k) times, 10^k times over."""
    table = np.empty((10**level, level), np.uint8)
    for k in range(level):
        table.reshape(10**k, 10, -1, level)[..., k] = np.arange(10, dtype=np.uint8)[:, None] + ord("0")
    return table


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

    Each record fills a fixed-width uint8 slot (one byte per edge type name)
    from one table of the vertex indices' digits; a boolean mask drops the
    leading zeros of an edge's ends in one compaction.
    """
    w, n, m = level, 10**level, len(u)
    digits = _digit_table(level)
    shown = np.logical_or.accumulate(digits != ord("0"), axis=1)
    shown[:, -1] = True  # 0 keeps its one digit
    letters = np.frombuffer("".join(EDGE_TYPES).encode(), np.uint8)
    word = np.frombuffer(b'"' + b"0" * w + b'",', np.uint8)
    record = np.frombuffer(b"[" + b"0" * w + b"," + b"0" * w + b',"H"],', np.uint8)
    head, between, tail = _json_frame(level, policy)
    yield head
    for k in range(0, n, _WRITE_RECORDS):
        slots = np.tile(word, (min(n - k, _WRITE_RECORDS), 1))
        slots[:, 1:w + 1] = digits[k:k + _WRITE_RECORDS]
        yield slots.reshape(-1)[:-1 if k + _WRITE_RECORDS >= n else None]
    yield between
    for k in range(0, m, _WRITE_RECORDS):
        i, j = u[k:k + _WRITE_RECORDS], v[k:k + _WRITE_RECORDS]
        slots = np.tile(record, (len(i), 1))
        slots[:, 1:w + 1], slots[:, w + 2:2 * w + 2] = digits[i], digits[j]
        slots[:, 2 * w + 4] = letters[t[k:k + _WRITE_RECORDS]]
        keep = np.ones(slots.shape, bool)
        keep[:, 1:w + 1], keep[:, w + 2:2 * w + 2] = shown[i], shown[j]
        yield slots[keep][:-1 if k + _WRITE_RECORDS >= m else None]  # no "," after the last
    yield tail


def write_graph_json(g, path):
    """Write g as pillow-graph-v1 JSON, one encoder chunk (_json_chunks) at a
    time, so neither the whole text nor a Python object per edge is held."""
    with open(path, "wb") as fh:
        fh.writelines(_json_chunks(g.level, g.policy, *g.edge_arrays()))


def _compact_json(data):
    """(level, policy, u, v, t) if data is byte for byte what the encoder
    makes of them, else None.

    The edge block is read as numbers in one pass: _EDGE_NUMBERS keeps the
    digits, makes the type letters their codes and every other byte a space,
    and np.fromstring parses the result.  Neither the count nor the values
    are trusted: a block of spaces parses as [0], a digit run past int64
    saturates, and a bracket or comma out of place still parses.  So the
    count need only split into records, the values are clamped to what the
    encoder takes, and only the byte comparison with its output makes them
    a reading.  No count= is passed: asked for more numbers than the text
    holds, np.fromstring has filled the rest with uninitialised memory.
    """
    for level, policy in itertools.product(range(1, MAX_LEVEL + 1), ("on", "off")):
        head, between, tail = _json_frame(level, policy)
        if data.startswith(head):
            break
    else:
        return None
    start, stop = data.find(between, len(head)) + len(between), len(data) - len(tail)
    edges = np.fromstring(data[start:stop].translate(_EDGE_NUMBERS), np.int64, sep=" ")
    if len(edges) % 3:
        return None
    edges = edges.reshape(-1, 3)
    np.clip(edges, 0, (10**level - 1, 10**level - 1, len(EDGE_TYPES) - 1), out=edges)
    at = 0
    for chunk in _json_chunks(level, policy, *edges.T):
        if not data.startswith(chunk, at):
            return None
        at += len(chunk)
    return (level, policy, *edges.T) if at == len(data) else None


def _load_json(fh):
    """json.load with the cyclic collector paused, then as the caller had it.

    Decoding makes no reference cycles, yet at L5 the collections that the
    growing payload triggers take about half of the decode time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.load(fh)
    finally:
        if was_enabled:
            gc.enable()


def _edge_columns(records):
    """The JSON edge records as int64 arrays (u, v, t), checked in bulk.

    Each record must be a list [i, j, type] whose indices are JSON integers
    (type int: no bool, float or string).  An unknown type reads as code
    len(EDGE_TYPES), which construction rejects.  Each column is one pass
    over the records into an array, with no list per column: the heap holes
    such lists leave raised the level5 benchmark's peak RSS.
    """
    msg = "edge list is not a list of [i, j, type] records"
    if not (type(records) is list and set(map(type, records)) <= {list}
            and set(map(len, records)) <= {3}):
        raise ValueError(msg)

    def column(k):
        return map(itemgetter(k), records)

    if not set(map(type, column(0))) | set(map(type, column(1))) <= {int}:
        raise ValueError(msg)
    m = len(records)
    try:
        u, v = np.fromiter(column(0), np.int64, m), np.fromiter(column(1), np.int64, m)
    except OverflowError:
        raise ValueError("malformed edge: vertex index out of range") from None
    code = map(_TYPE_CODE.get, map(str, column(2)), itertools.repeat(len(EDGE_TYPES)))
    return u, v, np.fromiter(code, np.int64, m)


def read_graph_json(path):
    """Read pillow-graph-v1 JSON.  A file that write_graph_json could have
    written takes the numpy path (_compact_json); any other goes through
    json.load (_read_json_load), which alone decides what it reads as and
    words every error."""
    with open(path, "rb") as fh:
        read = _compact_json(fh.read())  # the bytes go before the graph is built
    if read is not None:
        try:
            return ReplacementGraph(*read)
        except ValueError:
            pass  # a compact file of a malformed edge list
    return _read_json_load(path)


def _read_json_load(path):
    """pillow-graph-v1 JSON through json.load: any file, every error."""
    with open(path) as fh:
        payload = _load_json(fh)
    if not isinstance(payload, dict) or payload.get("schema") != GRAPH_SCHEMA:
        raise ValueError(f"not a {GRAPH_SCHEMA} file: {path}")
    level = check_level(payload.get("level"), MAX_LEVEL, name="graph level", over=ValueError)
    policy = payload.get("policy")
    if policy not in ("on", "off"):
        raise ValueError(f"unknown policy {policy!r}")
    # Both lists are popped and dropped before the graph is built, so its
    # arrays reuse their memory rather than pin it (built first, the level5
    # benchmark's peak RSS was about 1 MB higher).  The vertices are compared
    # with the words in one pass, with no second list.
    u, v, t = _edge_columns(payload.pop("edges", None))
    vertices, words = payload.pop("vertices", None), LevelWords(level)
    if not (type(vertices) is list and len(vertices) == len(words)
            and all(map(operator.eq, vertices, words))):
        raise ValueError("vertex list is not the lexicographic word list")
    del vertices
    return ReplacementGraph(level=level, policy=policy, u=u, v=v, t=t)


def write_graph_binary(g, path):
    header = (g.level, 1 if g.policy == "on" else 0, g.n_vertices, g.n_edges)
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
        if policy_flag not in (0, 1):
            raise ValueError(f"policy flag {policy_flag} is neither 0 (off) nor 1 (on)")
        policy = ("off", "on")[policy_flag]
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
