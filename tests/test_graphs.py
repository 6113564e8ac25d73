"""Tests for adjacency, the chain oracle, graph construction, and IO."""

import functools
import gc
import hashlib
import itertools
import json
import random
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict, deque

import numpy as np
import pytest

import pillowspace as ps
from pillowspace import graphs as G
from pillowspace.words import LETTERS, _square_arrays, all_words, letter_at

# edge counts pinned after the first oracle-verified builds
PINNED_EDGES = {(1, "on"): 17, (1, "off"): 16, (2, "on"): 226, (2, "off"): 216,
                (3, "on"): 2436, (3, "off"): 2336}


@pytest.fixture(scope="module")
def g1():
    return ps.build_graph(1)


@pytest.fixture(scope="module")
def g2():
    return ps.build_graph(2)


@pytest.fixture(scope="module")
def g3():
    return ps.build_graph(3)


def test_adjacency_base_examples():
    assert ps.adjacency("5", "0") == "S"
    assert ps.adjacency("2", "5") == "V"
    assert ps.adjacency("2", "0") == "V"
    assert ps.adjacency("1", "2") == "H"
    assert ps.adjacency("1", "3") is None
    assert ps.adjacency("1", "5") is None  # diagonal corner contact only


def test_adjacency_seam_needs_boundary_contact():
    # "51" reaches the level-1 seam, "55" sits strictly inside it
    assert ps.adjacency("51", "01") == "S"
    assert ps.adjacency("55", "05") is None
    # two simultaneous sheet differences never meet
    assert ps.adjacency("55", "00") is None


def test_adjacency_preconditions():
    with pytest.raises(ValueError):
        ps.adjacency("5", "5")
    with pytest.raises(ValueError):
        ps.adjacency("5", "55")


def test_adjacency_is_symmetric():
    rng = random.Random(11)
    words = all_words(3)
    for _ in range(3000):
        w, v = rng.choice(words), rng.choice(words)
        if w == v:
            continue
        assert ps.adjacency(w, v) == ps.adjacency(v, w)


def test_oracle_agrees_exhaustively_level_1():
    for w, v in itertools.combinations(all_words(1), 2):
        assert ps.adjacency(w, v) == ps.chain_oracle_adjacency(w, v, exhaustive=True)


def test_oracle_localized_matches_exhaustive_level_2():
    rng = random.Random(23)
    words = all_words(2)
    for _ in range(400):
        w, v = rng.sample(words, 2)
        assert ps.chain_oracle_adjacency(w, v) == ps.chain_oracle_adjacency(
            w, v, exhaustive=True
        )


def test_oracle_agrees_on_mutated_pairs_level_3():
    # near-miss pairs: mutate a few letters so squares often touch
    rng = random.Random(37)
    words = all_words(3)
    for _ in range(4000):
        w = rng.choice(words)
        v = list(w)
        for pos in rng.sample(range(3), rng.randint(1, 2)):
            v[pos] = rng.choice(ps.ALPHABET)
        v = "".join(v)
        if v == w:
            continue
        assert ps.adjacency(w, v) == ps.chain_oracle_adjacency(w, v)


def test_oracle_agrees_on_every_touching_pair_level_3(g3):
    # every pair whose squares coincide or share a side, in both orders: all
    # level-3 edges and every touching pair that is not one
    over = defaultdict(list)
    for w, x, y in zip(all_words(3), *(a.tolist() for a in _square_arrays(3))):
        over[x, y].append(w)
    found, edges = Counter(), []
    for (x, y), ws in over.items():
        pairs = list(itertools.combinations(ws, 2))
        right, up = over.get((x + 1, y), []), over.get((x, y + 1), [])
        pairs += [(w, v) for w in ws for v in right + up]
        for w, v in pairs:
            t = ps.adjacency(w, v)
            assert t == ps.adjacency(v, w) == ps.chain_oracle_adjacency(w, v), (w, v)
            assert t == ps.chain_oracle_adjacency(v, w), (w, v)
            found[t] += 1
            if t is not None:
                edges.append((*sorted((int(w), int(v))), t))
    assert found == {"H": 1112, "V": 1112, "S": 212, None: 952}
    assert sorted(edges) == g3.edges


def test_oracle_refuses_large_levels():
    with pytest.raises(ValueError, match="<= 3"):
        ps.chain_oracle_adjacency("1111", "1112")


def test_g1_statistics(g1):
    assert g1.n_vertices == 10
    assert len(g1.edges) == PINNED_EDGES[(1, "on")]
    # a column's entries other than the vertex itself are its neighbours
    degree = (g1.neighbours != np.arange(g1.n_vertices)).sum(axis=0)
    assert Counter(degree.tolist()) == {2: 4, 4: 4, 5: 2}
    # the two center vertices have degree 5
    for word in ("5", "0"):
        assert degree[g1.index(word)] == 5


def test_g1_policy_off_drops_last_level_seam():
    g = ps.build_graph(1, "off")
    assert len(g.edges) == PINNED_EDGES[(1, "off")]
    kinds = Counter(t for _, _, t in g.edges)
    assert kinds["S"] == 0


def test_pinned_edge_counts(g2, g3):
    assert len(g2.edges) == PINNED_EDGES[(2, "on")]
    assert len(g3.edges) == PINNED_EDGES[(3, "on")]
    assert len(ps.build_graph(2, "off").edges) == PINNED_EDGES[(2, "off")]
    assert len(ps.build_graph(3, "off").edges) == PINNED_EDGES[(3, "off")]


def test_policy_off_only_removes_final_seams(g2):
    on = set(g2.edges)
    off = set(ps.build_graph(2, "off").edges)
    assert off < on
    for i, j, t in on - off:
        assert t == "S"
        w, v = g2.words[i], g2.words[j]
        assert w[:-1] == v[:-1] and {w[-1], v[-1]} == {"5", "0"}


def test_build_guards():
    with pytest.raises(ValueError):
        ps.build_graph(0)
    with pytest.raises(ps.CapacityError, match="7"):
        ps.build_graph(7)
    with pytest.raises(ValueError):
        ps.build_graph(2, "maybe")


def test_edges_sorted_and_simple(g3):
    assert g3.edges == sorted(g3.edges)
    pairs = [(i, j) for i, j, _ in g3.edges]
    assert len(set(pairs)) == len(pairs)
    assert all(i < j for i, j in pairs)


def test_grid_restriction_is_grid_graph(g2):
    # dropping every '0'-vertex leaves one sheet: exactly the 9x9 grid graph
    n = g2.level
    side = 3**n
    keep = [i for i, w in enumerate(g2.words) if "0" not in w]
    pos = {i: (int(g2.square_x[i]), int(g2.square_y[i])) for i in keep}
    keep_set = set(keep)
    induced = {
        tuple(sorted((pos[i], pos[j])))
        for i, j, _ in g2.edges
        if i in keep_set and j in keep_set
    }
    grid = set()
    for x in range(side):
        for y in range(side):
            if x + 1 < side:
                grid.add(tuple(sorted(((x, y), (x + 1, y)))))
            if y + 1 < side:
                grid.add(tuple(sorted(((x, y), (x, y + 1)))))
    assert induced == grid


def test_projection_is_graph_homomorphism(g2):
    # H/V edges project to grid-adjacent squares, seam edges to equal squares
    for i, j, t in g2.edges:
        dx = abs(int(g2.square_x[i]) - int(g2.square_x[j]))
        dy = abs(int(g2.square_y[i]) - int(g2.square_y[j]))
        if t == "S":
            assert (dx, dy) == (0, 0)
        elif t == "H":
            assert (dx, dy) == (1, 0)
        else:
            assert (dx, dy) == (0, 1)


def test_fiber_sizes(g3):
    fibers = Counter(ps.project_word(w) for w in g3.words)
    for grid_word, size in fibers.items():
        centers = grid_word.count("5")
        assert size == 2**centers


def test_distance_and_ball(g1):
    assert ps.distance(g1, "1", "9") == 4
    assert ps.distance(g1, "5", "0") == 1
    assert ps.distance(g1, "1", "1") == 0
    b = ps.ball(g1, "1", 1)
    assert {g1.words[i] for i in b} == {"1", "2", "4"}
    assert len(ps.ball(g1, "5", 100)) == 10


def test_in_sheet_distance_is_grid_distance(g3):
    rng = random.Random(41)
    side = 3**g3.level
    for _ in range(40):
        bits = "".join(rng.choice("01") for _ in range(3))
        ax, ay = rng.randrange(side), rng.randrange(side)
        bx, by = rng.randrange(side), rng.randrange(side)
        a = ps.section(ps.grid_word_of_square(3, ax, ay), bits)
        b = ps.section(ps.grid_word_of_square(3, bx, by), bits)
        if a == b:
            continue
        assert ps.distance(g3, a, b) == abs(ax - bx) + abs(ay - by)


def test_index_rejects_non_words(g3):
    # int() would read these as 10 and 12
    for text in ("1_0", " 12", "+12"):
        with pytest.raises(ValueError, match="level-3 word"):
            g3.index(text)
        with pytest.raises(ValueError):
            ps.distance(g3, text, "111")


def test_boundary_faces(g2):
    side = 3**g2.level
    for name in ("left", "right", "top", "bottom"):
        face = ps.boundary_face(g2, name)
        assert len(face) == side  # no center letter ever touches the hull
        for i in face:
            assert "0" not in g2.words[i] and "5" not in g2.words[i]
    assert ps.boundary_face(g2, "left") & ps.boundary_face(g2, "bottom")  # corner word
    with pytest.raises(ValueError):
        ps.boundary_face(g2, "middle")


def test_flips_are_automorphisms(g3):
    for bits in itertools.product("01", repeat=3):
        perm = ps.flip_permutation(g3, "".join(bits))
        assert ps.is_automorphism(g3, perm)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flip_permutation_is_words_flip(n):
    g = _graph(n, "on")
    for bits in map("".join, itertools.product("01", repeat=n)):
        want = [int(ps.flip(w, bits)) for w in g.words]
        assert ps.flip_permutation(g, bits).tolist() == want


@pytest.mark.parametrize("bits", ["1011", "0101111", "x1y", "1x0", "2?1", "a1b9"])
def test_flip_permutation_reads_only_ones_within_the_level(g3, bits):
    # bits past the level and characters other than "1" flip nothing
    want = [int(ps.flip(w, bits)) for w in g3.words]
    assert ps.flip_permutation(g3, bits).tolist() == want


def test_flip_permutation_returns_a_fresh_array(g2):
    for bits in ("00", "10", "11"):
        first = ps.flip_permutation(g2, bits)
        want = first.copy()
        first[:] = 0
        assert np.array_equal(ps.flip_permutation(g2, bits), want)


def test_non_automorphism_detected(g1):
    perm = np.arange(10)
    perm[1], perm[5] = 5, 1  # swapping a corner with the center breaks edges
    assert not ps.is_automorphism(g1, perm)


@functools.cache
def _graph(n, policy):
    return ps.build_graph(n, policy)


def _slow_is_automorphism(g, perm, typed=True):
    """Independent check: map the set of (min, max, type) tuples through perm."""
    p = [int(x) for x in perm]
    edges = {(i, j, t if typed else None) for i, j, t in g.edges}
    return {(min(p[i], p[j]), max(p[i], p[j]), t) for i, j, t in edges} == edges


def _transpose_permutation(g):
    """Letter-wise transpose: (col, row) becomes (row, col), '0' stays."""
    swap = {c: letter_at(let.grid_row, let.grid_col)
            for c, let in LETTERS.items() if c != "0"}
    swap["0"] = "0"
    return np.array([int("".join(map(swap.get, w))) for w in g.words])


@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_automorphism_matches_slow_path(n, policy):
    g = _graph(n, policy)
    size = g.n_vertices
    rng = np.random.default_rng(10 * n + (policy == "on"))
    perms = [ps.flip_permutation(g, "".join(bits))
             for bits in itertools.product("01", repeat=n)]
    perms += [rng.permutation(size) for _ in range(5)]
    for _ in range(10):
        perm = np.arange(size)
        i, j = rng.choice(size, 2, replace=False)
        perm[[i, j]] = perm[[j, i]]
        perms.append(perm)
    answers = [ps.is_automorphism(g, perm) for perm in perms]
    assert answers == [_slow_is_automorphism(g, perm) for perm in perms]
    assert all(answers[: 2**n])  # every flip


@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_transpose_swaps_edge_types(n, policy):
    # an automorphism of the untyped graph that swaps H and V: only the type
    # code can reject it
    g = _graph(n, policy)
    perm = _transpose_permutation(g)
    assert _slow_is_automorphism(g, perm, typed=False)
    assert not _slow_is_automorphism(g, perm)
    assert not ps.is_automorphism(g, perm)


@pytest.mark.parametrize("case", ["short", "negative", "repeated", "float"])
def test_is_automorphism_rejects_non_permutations(g1, case):
    perm = np.arange(10)
    if case == "short":
        perm = perm[:9]
    elif case == "negative":
        perm[9] = -1  # used to wrap silently
    elif case == "repeated":
        perm[0] = 1
    else:
        perm = perm.astype(float)
    with pytest.raises(ValueError):
        ps.is_automorphism(g1, perm)
    assert ps.is_automorphism(g1, list(range(10)))


@pytest.mark.parametrize("edges", [
    [(0, 1, -1)],  # a negative type code was accepted
    [(0, 1, 0), (0, 1, 1)],  # increasing in the typed key, but one pair twice
])
def test_construction_rejects_bad_type_or_repeated_pair(edges):
    u, v, t = np.array(edges).T
    with pytest.raises(ValueError):
        ps.ReplacementGraph(level=1, policy="on", u=u, v=v, t=t)


def test_prefix_subgraph_all_prefixes_level_3(g3, g2, g1):
    refs = {1: g1, 2: g2}
    for prefix in all_words(1):
        block = ps.prefix_subgraph(g3, prefix, reference=refs[2])
        assert block.edges == g2.edges
    for prefix in random.Random(5).sample(all_words(2), 20):
        block = ps.prefix_subgraph(g3, prefix, reference=refs[1])
        assert block.edges == g1.edges


def test_prefix_subgraph_respects_policy():
    g = ps.build_graph(2, "off")
    ref = ps.build_graph(1, "off")
    for prefix in all_words(1):
        block = ps.prefix_subgraph(g, prefix, reference=ref)
        assert block.edges == ref.edges


def test_prefix_subgraph_validation(g2):
    with pytest.raises(ValueError):
        ps.prefix_subgraph(g2, "55")  # prefix must be shorter than the level
    with pytest.raises(ValueError):
        ps.prefix_subgraph(g2, "")


@pytest.mark.parametrize("damage", ["drop an edge", "change a type"])
def test_prefix_subgraph_rejects_a_damaged_block(g2, g1, damage):
    u, v, t = (a.copy() for a in g2.edge_arrays())
    k = next(k for k, (i, j) in enumerate(zip(u, v)) if 30 <= i < j < 40)
    if damage == "drop an edge":
        u, v, t = (np.delete(a, k) for a in (u, v, t))
    else:
        t[k] = 2 if t[k] != 2 else 0  # "S" <-> "H"
    bad = ps.ReplacementGraph(level=2, policy=g2.policy, u=u, v=v, t=t)
    with pytest.raises(RuntimeError):
        ps.prefix_subgraph(bad, "3", reference=g1)


def test_graph_stores_only_edge_arrays(tmp_path):
    # built and read back from both formats: no Python sequence is stored,
    # and every access derives a fresh tuple list
    built = ps.build_graph(3)
    graphs = [built]
    for write, name in ((ps.write_graph_json, "g3.json"), (ps.write_graph_binary, "g3.bin")):
        write(built, tmp_path / name)
        graphs.append(ps.read_graph(tmp_path / name))
    want = G.reference_edges(3)
    for g in graphs:
        stored = [k for k, x in vars(g).items() if isinstance(x, (list, tuple))]
        assert stored == []
        first, second = g.edges, g.edges
        assert first == want and second == want
        assert first is not second


# ---------------------------------------------------------------------------
# the neighbour table


def _spy_neighbour_table(monkeypatch):
    calls = []
    real = G._neighbour_table
    monkeypatch.setattr(G, "_neighbour_table", lambda u, v, n: calls.append(n) or real(u, v, n))
    return calls


def test_reading_writing_and_comparing_derive_no_table(tmp_path, monkeypatch, g1, g2):
    ps.write_graph_json(g2, tmp_path / "g2.json")
    spaced = json.dumps(json.loads((tmp_path / "g2.json").read_text()), indent=1)
    (tmp_path / "spaced.json").write_text(spaced)
    ps.write_graph_binary(g2, tmp_path / "g2.bin")
    calls = _spy_neighbour_table(monkeypatch)
    for name in ("g2.json", "spaced.json", "g2.bin"):
        g = ps.read_graph(tmp_path / name)
        ps.write_graph_json(g, tmp_path / "again.json")
        ps.write_graph_binary(g, tmp_path / "again.bin")
        assert g.edges == g2.edges
        assert ps.prefix_subgraph(g, "3", g1).level == 1
        assert ps.is_automorphism(g, ps.flip_permutation(g, "11"))
        assert "neighbours" not in vars(g)
    assert calls == []


def test_build_derives_the_table_once_and_traversals_reuse_it(monkeypatch):
    calls = _spy_neighbour_table(monkeypatch)
    g = ps.build_graph(3)
    assert calls == [1000]  # the connectivity certificate
    table = g.neighbours
    G.bfs_rows(g, [0, 555])  # the frontier path
    G.bfs_rows(g, list(range(100)))  # the bit-parallel path
    ps.ball_dimension_estimate(g, 3, 0)
    ps.pi_diagnostic(g, ps.TileMeasure.uniform(3), 2.0, 5, 1)
    assert calls == [1000] and g.neighbours is table


def test_table_derivation_peaks_below_the_arc_csr():
    # the table takes one stable argsort over the edges, arc_csr one over
    # both arcs of every edge
    g = _graph(4, "on")
    u, v, _t = g.edge_arrays()
    peaks = []
    for derive in (G._neighbour_table, G.arc_csr):
        tracemalloc.start()
        try:
            derive(u, v, g.n_vertices)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def test_graph_json_round_trip(tmp_path, g2):
    path = tmp_path / "g2.json"
    ps.write_graph_json(g2, path)
    h = ps.read_graph_json(path)
    assert h.level == g2.level and h.policy == g2.policy
    assert h.edges == g2.edges and list(h.words) == all_words(g2.level)
    # byte-identical rewrite
    path2 = tmp_path / "again.json"
    ps.write_graph_json(h, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_graph_binary_round_trip(tmp_path, g2):
    path = tmp_path / "g2.plg"
    ps.write_graph_binary(g2, path)
    h = ps.read_graph_binary(path)
    assert h.edges == g2.edges and h.level == g2.level and h.policy == g2.policy
    path2 = tmp_path / "again.plg"
    ps.write_graph_binary(h, path2)
    assert path.read_bytes() == path2.read_bytes()
    assert path.read_bytes()[:4] == b"PLG1"
    # format autodetection
    assert ps.read_graph(path).edges == g2.edges


def test_read_graph_json_rejects_corruption(tmp_path, g1):
    path = tmp_path / "g1.json"
    ps.write_graph_json(g1, path)
    text = path.read_text().replace('"pillow-graph-v1"', '"pillow-graph-v0"')
    path.write_text(text)
    with pytest.raises(ValueError, match="pillow-graph-v1"):
        ps.read_graph_json(path)


# ---------------------------------------------------------------------------
# self-similar build against the per-tile reference

# `write_graph_json` / `write_graph_binary` of build_graph(3), fixed since the
# first per-tile builds
GOLDEN_SHA256_L3 = {
    "json": "57df9dc6f94f9cfae6dc7d1265e70ad29064ac847997db41784ad6c6f5b015a7",
    "binary": "e46ea79c1f5d5e36e80c738d36acddc68b218c1efe227c36181d7439cb8f2dda",
}


@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_matches_per_tile_reference(n, policy):
    assert ps.build_graph(n, policy).edges == G.reference_edges(n, policy)


def test_build_matches_per_tile_reference_level_5():
    assert ps.build_graph(5).edges == G.reference_edges(5)


def test_build_runs_no_adjacency_test(monkeypatch):
    want = {(n, policy): G.reference_edges(n, policy)
            for n in range(1, 5) for policy in ("on", "off")}

    def refuse(*args):
        raise AssertionError("the builder ran the per-tile adjacency path")

    monkeypatch.setattr(G, "adjacency", refuse)
    monkeypatch.setattr(G, "_tile_edges", refuse)
    for (n, policy), edges in want.items():
        assert ps.build_graph(n, policy).edges == edges


# L6 edge totals, too large to build in a test: G_6 is ten copies of G_5
# plus the level-6 cross edges
L6_EDGES = {"on": 2_510_616, "off": 2_410_616}


@pytest.mark.parametrize("policy", ["on", "off"])
def test_cross_edge_counts(policy):
    counts = [len(G._cross_edges(m, policy)[0]) for m in range(1, 7)]
    assert counts == [17 if policy == "on" else 16] + [
        20 * 3 ** (m - 1) - 4 for m in range(2, 7)]
    assert 10 * ps.build_graph(5, policy).n_edges + counts[-1] == L6_EDGES[policy]


def test_graph_files_match_golden_hashes(tmp_path, g3):
    for fmt, write in (("json", ps.write_graph_json), ("binary", ps.write_graph_binary)):
        path = tmp_path / f"g3.{fmt}"
        write(g3, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256_L3[fmt]


def _dumps_write_graph_json(g, path):
    """The JSON writer before its records were streamed: one json.dumps of the
    whole payload with the edge tuples, kept as the byte reference."""
    payload = {"schema": G.GRAPH_SCHEMA, "level": g.level, "policy": g.policy,
               "vertices": all_words(g.level), "edges": g.edges}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")) + "\n")


# 7 splits every level unevenly; 113 and 108 divide the 226 and 216 L2 edges,
# so there the last chunk is full
@pytest.mark.parametrize("chunk", [None, 7, 108, 113])
@pytest.mark.parametrize("policy", ["on", "off"])
def test_json_writer_matches_whole_payload_dumps(tmp_path, monkeypatch, policy, chunk):
    if chunk is not None:
        monkeypatch.setattr(G, "_WRITE_RECORDS", chunk)
    for n in (1, 2, 3, 4):
        g = _graph(n, policy)
        _dumps_write_graph_json(g, tmp_path / "want.json")
        ps.write_graph_json(g, tmp_path / "got.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def _spy_load_json(monkeypatch):
    calls = []
    real = G._load_json
    monkeypatch.setattr(G, "_load_json", lambda fh: calls.append(fh) or real(fh))
    return calls


# with 7 and 113 records per chunk the comparison crosses chunk boundaries,
# and at L2 "on" (226 edges) the last chunk is full
@pytest.mark.parametrize("chunk", [None, 7, 113])
@pytest.mark.parametrize("policy", ["on", "off"])
def test_compact_json_reads_without_json_load(tmp_path, monkeypatch, policy, chunk):
    if chunk is not None:
        monkeypatch.setattr(G, "_WRITE_RECORDS", chunk)
    calls = _spy_load_json(monkeypatch)
    for n in (1, 2, 3, 4):
        g = _graph(n, policy)
        ps.write_graph_json(g, tmp_path / "g.json")
        h = ps.read_graph_json(tmp_path / "g.json")
        assert (h.level, h.policy) == (n, policy)
        assert all(map(np.array_equal, h.edge_arrays(), g.edge_arrays()))
        want = G._read_json_load(tmp_path / "g.json")  # the json.load reading agrees
        assert all(map(np.array_equal, h.edge_arrays(), want.edge_arrays()))
    assert len(calls) == 4  # the four direct json.load readings only


@pytest.mark.parametrize("dump", [json.dumps, functools.partial(json.dumps, indent=1)])
def test_spaced_json_reads_through_json_load(tmp_path, monkeypatch, g2, dump):
    calls = _spy_load_json(monkeypatch)
    path = tmp_path / "g2.json"
    ps.write_graph_json(g2, path)
    path.write_text(dump(json.loads(path.read_text())))
    h = ps.read_graph_json(path)
    assert len(calls) == 1
    assert (h.level, h.policy) == (2, "on")
    assert all(map(np.array_equal, h.edge_arrays(), g2.edge_arrays()))


def test_compact_json_read_holds_no_object_per_edge(tmp_path):
    # at level 4 (24,896 edges, 463 kB) the read peaks at about 5.1 times the
    # file size: the bytes, the edge arrays and construction; json.load's
    # records took about 10.8 times
    path = tmp_path / "g4.json"
    ps.write_graph_json(_graph(4, "on"), path)
    ps.read_graph_json(path)  # the square tables and the imports are cached
    tracemalloc.start()
    try:
        ps.read_graph_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * path.stat().st_size


# ---------------------------------------------------------------------------
# array paths against scalar references


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_square_arrays_match_word_square(n):
    g = ps.build_graph(n)
    squares = [ps.word_square(w) for w in g.words]
    assert g.square_x.tolist() == [sq.x for sq in squares]
    assert g.square_y.tolist() == [sq.y for sq in squares]


def _scipy_hops(g, starts=None):
    """Hop distances from scipy, all pairs or from the starts (inf where
    unreachable): a reference independent of bfs_rows."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    u, v, _t = g.edge_arrays()
    adj = csr_matrix((np.ones(len(u)), (u, v)), shape=(g.n_vertices,) * 2)
    return shortest_path(adj, unweighted=True, directed=False, indices=starts)


def _as_bfs_rows(dense, cutoff=None):
    """scipy's distances in bfs_rows' form: -1 where unreachable or past the cutoff."""
    far = np.isinf(dense) if cutoff is None else dense > cutoff
    return np.where(far, -1, dense).astype(np.int64)


@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_graph_metric_matches_shortest_path(n, policy):
    g = ps.build_graph(n, policy)
    assert np.array_equal(ps.graph_metric(g).entries, _scipy_hops(g))


@pytest.mark.parametrize("policy", ["on", "off"])
def test_bfs_row_matches_shortest_path(policy):
    g = ps.build_graph(3, policy)
    dense = _scipy_hops(g)
    for s in range(g.n_vertices):
        assert np.array_equal(G.bfs_row(g, s), dense[s])


def test_bfs_row_cutoff(g3):
    for s in (0, 555, 999):
        full = G.bfs_row(g3, s)
        for r in (0, 1, 5, 12):
            assert np.array_equal(G.bfs_row(g3, s, cutoff=r), np.where(full > r, -1, full))


@pytest.mark.parametrize("cutoff", [2.5, 1.5, 2.0, float("nan"), True, -1])
def test_bfs_cutoff_must_be_a_nonnegative_integer(g2, cutoff):
    # a fractional cutoff was rounded up (the ball of radius 2.5 was the
    # radius-3 ball of 40 tiles), nan gave the start alone, -1 was taken as 0
    with pytest.raises(ValueError, match="^cutoff must be"):
        G.bfs_rows(g2, [0], cutoff)
    with pytest.raises(ValueError, match="^cutoff must be"):
        ps.ball(g2, 0, cutoff)
    assert len(ps.ball(g2, 0, np.int64(2))) == 18


@pytest.mark.parametrize("policy", ["on", "off"])
def test_bfs_rows_batch_matches_shortest_path(policy):
    g = ps.build_graph(3, policy)
    dense = _scipy_hops(g)
    starts = list(range(g.n_vertices)) + [0, 555, 555, 999, 0]
    assert np.array_equal(G.bfs_rows(g, starts), dense[starts])
    for r in (0, 1, 5, 12):
        want = np.where(dense[starts] > r, -1, dense[starts])
        assert np.array_equal(G.bfs_rows(g, starts, cutoff=r), want)


def test_bfs_rows_batch_matches_single_rows():
    # below one word of starts the frontier path runs _FRONTIER_SOURCES starts
    # at a time; a call over three chunks, repeats included, is single rows
    g = ps.build_graph(4)
    k = 2 * G._FRONTIER_SOURCES + 1
    assert k < G._WORD_SOURCES
    starts = random.Random(8).sample(range(g.n_vertices), k - 2) + [42, 42]
    rows = G.bfs_rows(g, starts, cutoff=30)
    for s, row in zip(starts, rows):
        assert np.array_equal(row, G.bfs_row(g, s, cutoff=30))
    assert np.array_equal(G.bfs_rows(g, starts), [G.bfs_row(g, s) for s in starts])


@pytest.mark.parametrize("k", [63, 64, 65, 127, 128, 1000])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bfs_rows_matches_references_across_word_boundaries(n, k):
    # from 64 starts on bfs_rows packs 64 sources per word; it must agree with
    # scipy, with its frontier path and with single rows on both sides of a
    # word boundary, for starts given by word, repeated or as numpy integers
    g = ps.build_graph(n)
    rng = random.Random(100 * n + k)
    words = [g.words[rng.randrange(g.n_vertices)] for _ in range(3)]
    starts = [g.index(w) for w in words] + [np.int32(7), 7]
    starts += rng.choices(range(g.n_vertices), k=k - len(starts))
    dense = _scipy_hops(g, starts)
    for cutoff in (None, 0, 1, 5):
        rows = G.bfs_rows(g, starts, cutoff)
        assert rows.dtype == np.int64 and rows.flags.c_contiguous
        assert np.array_equal(rows, _as_bfs_rows(dense, cutoff))
        frontier = [G.bfs_rows(g, starts[i : i + 63], cutoff) for i in range(0, k, 63)]
        assert np.array_equal(rows, np.vstack(frontier))
        for i in {0, 3, 62, 63, 64, k - 1} & set(range(k)):
            assert np.array_equal(rows[i], G.bfs_row(g, starts[i], cutoff))


def test_bfs_rows_level5_stays_on_the_frontier_path(monkeypatch):
    # past _WORD_VERTICES a full sweep per level loses to the frontiers, so
    # 100 starts take the frontier path and agree with single rows
    g5 = ps.build_graph(5)
    assert g5.n_vertices > G._WORD_VERTICES

    def refuse(*args):
        raise AssertionError("bit-parallel path taken on a level-5 graph")

    monkeypatch.setattr(G, "_bfs_words", refuse)
    starts = random.Random(5).sample(range(g5.n_vertices), 100)
    rows = G.bfs_rows(g5, starts, cutoff=27)
    assert np.array_equal(rows, [G.bfs_row(g5, s, cutoff=27) for s in starts])


@pytest.mark.parametrize("budget", [1, 10**3, 10**7])
def test_bfs_blocks_split_by_the_budget(g3, monkeypatch, budget):
    # calls of max(1, BFS_ENTRIES // n) starts, in order, rows as one call's
    monkeypatch.setattr(G, "BFS_ENTRIES", budget)
    starts = list(range(0, 1000, 7)) + [3, 3]
    blocks = list(G.bfs_blocks(g3, starts, cutoff=9))
    step = max(1, budget // g3.n_vertices)
    assert [lo for lo, _rows in blocks] == list(range(0, len(starts), step))
    assert np.array_equal(np.vstack([rows for _lo, rows in blocks]),
                          G.bfs_rows(g3, starts, cutoff=9))


def test_bfs_rows_past_eight_bit_planes():
    # a path through the 1000 vertices of level 3: hop distances up to 999
    # take ten bit planes, two groups of eight in the final unpacking
    i = np.arange(999)
    path = ps.ReplacementGraph(3, "on", i, i + 1, np.zeros_like(i))
    starts = list(range(0, 1000, 15)) + [999]
    want = np.abs(np.subtract.outer(starts, np.arange(1000)))
    assert np.array_equal(G.bfs_rows(path, starts), want)
    assert np.array_equal(G.bfs_rows(path, starts, cutoff=300), np.where(want > 300, -1, want))


def test_bfs_rows_without_starts(g2):
    rows = G.bfs_rows(g2, [])
    assert rows.shape == (0, g2.n_vertices) and rows.dtype == np.int64


def test_bfs_rows_on_a_disconnected_graph(g2):
    # vertex 5 cut off: from 64 starts on, its row and column stay -1
    u, v, t = g2.edge_arrays()
    keep = (u != 5) & (v != 5)
    bad = ps.ReplacementGraph(2, g2.policy, u[keep], v[keep], t[keep])
    starts = list(range(bad.n_vertices))
    rows = G.bfs_rows(bad, starts)
    assert np.array_equal(rows, _as_bfs_rows(_scipy_hops(bad)))
    assert (rows[5] == -1).sum() == (rows[:, 5] == -1).sum() == bad.n_vertices - 1
    assert np.array_equal(G.bfs_rows(bad, starts, cutoff=5), _as_bfs_rows(_scipy_hops(bad), 5))
    with pytest.raises(ValueError, match="disconnected"):
        ps.graph_metric(bad)


def _deque_bfs(g, start, cutoff=None):
    """Hop distances from start by a queue over g.edges (-1: unreached)."""
    adjacent = defaultdict(list)
    for i, j, _t in g.edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    dist = [-1] * g.n_vertices
    dist[start] = 0
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if cutoff is not None and dist[x] == cutoff:
            continue
        for y in adjacent[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _irregular_graph(kind, g2):
    u, v, t = g2.edge_arrays()
    keep = {"isolated": ~np.isin(u, [0, 5, 50]) & ~np.isin(v, [5, 50, 99]),
            "halves": (v < 50) | (u >= 50),
            "no edges": np.zeros(len(u), bool)}[kind]
    return ps.ReplacementGraph(2, g2.policy, u[keep], v[keep], t[keep])


@pytest.mark.parametrize("kind", ["isolated", "halves", "no edges"])
def test_bfs_paths_on_irregular_graphs_match_a_queue(monkeypatch, g2, kind):
    g = _irregular_graph(kind, g2)
    # the table: each vertex's CSR slice, then itself as padding
    indptr, heads, _edge = G.arc_csr(*g.edge_arrays()[:2], g.n_vertices)
    for x, column in enumerate(g.neighbours.T.tolist()):
        deg = indptr[x + 1] - indptr[x]
        assert column[:deg] == heads[indptr[x] : indptr[x + 1]].tolist()
        assert set(column[deg:]) <= {x}
    words = []
    real = G._bfs_words
    monkeypatch.setattr(G, "_bfs_words", lambda *args: words.append(1) or real(*args))
    rng = random.Random(len(kind))
    frontier = [0, 5, 50, 99, 7, 7] + rng.sample(range(100), 30)
    word = list(range(100)) + frontier
    for starts, path in ((frontier, []), (word, [1])):
        for cutoff in (None, 0, 1, 3):
            words.clear()
            rows = G.bfs_rows(g, starts, cutoff)
            assert words == path
            assert rows.tolist() == [_deque_bfs(g, s, cutoff) for s in starts]
            assert (rows[np.arange(len(starts)), starts] == 0).all()


@pytest.mark.parametrize("start", [-1, -3, 100, 1.0])
def test_bfs_rejects_bad_starts(g2, start):
    # a negative start used to wrap around as a list index
    with pytest.raises(ValueError):
        ps.ball(g2, start, 2)
    with pytest.raises(ValueError):
        ps.distance(g2, start, 5)
    with pytest.raises(ValueError):
        ps.distance(g2, 5, start)
    with pytest.raises(ValueError):
        G.bfs_rows(g2, [0, start])


# ---------------------------------------------------------------------------
# malformed graph files


@pytest.fixture
def no_large_word_lists(monkeypatch):
    # a reader that sizes anything by an unchecked level fails fast here: the
    # word view, the square arrays and the neighbour table are what a graph
    # sizes by it
    def guard(name, too_big):
        real = getattr(G, name)

        def guarded(*args):
            if too_big(*args):
                raise AssertionError(f"{name} sized by a level before the level check")
            return real(*args)

        monkeypatch.setattr(G, name, guarded)

    for name in ("LevelWords", "_square_arrays"):
        guard(name, lambda level: type(level) is not int or level > G.MAX_LEVEL)
    guard("_neighbour_table", lambda u, v, n: n > 10**G.MAX_LEVEL)


def test_build_and_read_make_no_word_list(tmp_path, monkeypatch):
    g3 = ps.build_graph(3)
    ps.write_graph_json(g3, tmp_path / "g3.json")
    ps.write_graph_binary(g3, tmp_path / "g3.bin")

    def refuse(level):
        raise AssertionError(f"all_words({level}) called")

    monkeypatch.setattr(ps.words, "all_words", refuse)
    for g in (ps.build_graph(3), ps.read_graph_json(tmp_path / "g3.json"),
              ps.read_graph_binary(tmp_path / "g3.bin")):
        assert (g.level, g.n_vertices) == (3, 1000)
        assert all(map(np.array_equal, g.edge_arrays(), g3.edge_arrays()))


@pytest.mark.parametrize("level", [0, 7, 9, 40, "3"])
def test_read_graph_json_checks_level_first(tmp_path, no_large_word_lists, level):
    path = tmp_path / "g.json"
    path.write_text(
        '{"schema":"pillow-graph-v1","level":%s,"policy":"on","vertices":[],"edges":[]}'
        % json.dumps(level)
    )
    with pytest.raises(ValueError, match="level"):
        ps.read_graph_json(path)


@pytest.mark.parametrize("level", [0, 7, 9, 40])
def test_read_graph_binary_checks_level_first(tmp_path, no_large_word_lists, level):
    path = tmp_path / "g.bin"
    n_vertices = 10**level if 10**level < 2**32 else 0  # consistent where it fits
    path.write_bytes(b"PLG1" + struct.pack("<IIII", level, 1, n_vertices, 0))
    with pytest.raises(ValueError, match="level"):
        ps.read_graph_binary(path)


def _patched_binary(tmp_path, g, record, field, value):
    path = tmp_path / "g.bin"
    ps.write_graph_binary(g, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 20 + 12 * record + 4 * field, value)
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize(
    "field, value",
    [(2, 3), (2, 7), (1, 99), (1, 10), (0, 5), (1, 0)],  # type, j >= 10, i >= j
)
def test_read_graph_binary_rejects_bad_records(tmp_path, g1, field, value):
    path = _patched_binary(tmp_path, g1, 0, field, value)
    with pytest.raises(ValueError, match="malformed edge"):
        ps.read_graph_binary(path)


def test_read_graph_binary_rejects_bad_counts(tmp_path, g1):
    path = tmp_path / "g.bin"
    ps.write_graph_binary(g1, path)
    data = path.read_bytes()
    huge_count = data[:16] + struct.pack("<I", 2**32 - 1) + data[20:]
    for bad in (data[:12], data[:-1], data + b"\0", huge_count):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            ps.read_graph_binary(path)


def test_read_graph_binary_rejects_unsorted_or_repeated_edges(tmp_path, g1):
    path = tmp_path / "g.bin"
    ps.write_graph_binary(g1, path)
    data = path.read_bytes()
    count = struct.pack("<I", len(g1.edges) + 1)
    swapped = data[:20] + data[32:44] + data[20:32] + data[44:]
    repeated = data[:16] + count + data[20:32] + data[20:]
    retyped = data[:16] + count + data[20:32] + data[20:28] + b"\2\0\0\0" + data[32:]
    for bad in (swapped, repeated, retyped):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="sorted or repeats"):
            ps.read_graph_binary(path)


def test_read_graph_json_rejects_repeated_edges(tmp_path, g1):
    path = tmp_path / "g1.json"
    ps.write_graph_json(g1, path)
    payload = json.loads(path.read_text())
    i, j, _t = payload["edges"][0]
    payload["edges"].insert(1, [i, j, "S"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="sorted or repeats"):
        ps.read_graph_json(path)


@pytest.mark.parametrize("value", [2**70, 0.9, "1"])
def test_read_graph_json_rejects_non_vertex_index(tmp_path, g1, value):
    path = tmp_path / "g1.json"
    ps.write_graph_json(g1, path)
    payload = json.loads(path.read_text())
    payload["edges"][0][0] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        ps.read_graph_json(path)


def test_read_graph_json_rejects_boolean_vertex_index(tmp_path, g1):
    # operator.index(True) == 1, so [false, true, "H"] would read as edge (0, 1, "H")
    path = tmp_path / "g1.json"
    ps.write_graph_json(g1, path)
    payload = json.loads(path.read_text())
    k = payload["edges"].index([0, 2, "V"])
    payload["edges"][k] = [False, True, "H"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"not a list of \[i, j, type\] records"):
        ps.read_graph_json(path)


@pytest.mark.parametrize("where, value", [
    (("edges", 0), [0, 2]),
    (("edges", 0), [0, 2, "V", 0]),
    (("edges", 0), "025"),
    (("edges", 0), {"i": 0, "j": 2, "type": "V"}),
    (("edges",), None),
    (("edges",), {}),  # an empty object used to read as a graph without edges
    (("edges",), {"0": [0, 2, "V"]}),
    (("edges", 0, 2), 1),
    (("edges", 0, 2), ["V"]),
    (("edges", 0, 2), None),
    (("edges", 0, 2), "X"),
    (("edges", 0, 0), -1),
], ids=["length-2", "length-4", "string-record", "object-record", "edges-null",
        "edges-empty-object", "edges-object", "type-number", "type-list",
        "type-null", "type-unknown", "negative-index"])
def test_read_graph_json_rejects_malformed_edges(tmp_path, g1, where, value):
    path = tmp_path / "g1.json"
    ps.write_graph_json(g1, path)
    payload = target = json.loads(path.read_text())
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        ps.read_graph_json(path)
    proc = subprocess.run(
        [sys.executable, "-m", "pillowspace.cli", "modulus", "--graph", str(path),
         "--sides", "left-right"],
        capture_output=True,
        text=True,
    )
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 1 and len(lines) == 1
    assert lines[0].startswith("pillowspace: error:")


@pytest.mark.parametrize("vertices", [
    None, [], list(range(10)), list("0123456789")[::-1], list("012345678")])
def test_read_graph_json_rejects_wrong_vertex_list(tmp_path, g1, vertices):
    path = tmp_path / "g1.json"
    ps.write_graph_json(g1, path)
    payload = json.loads(path.read_text())
    payload["vertices"] = vertices
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="vertex list"):
        ps.read_graph_json(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_read_graph_json_leaves_the_collector_as_it_was(tmp_path, monkeypatch, g1, enabled):
    # spaced, so that json.load reads it: a compact file takes the numpy path
    path = tmp_path / "g1.json"
    ps.write_graph_json(g1, path)
    path.write_text(json.dumps(json.loads(path.read_text())))
    bad = tmp_path / "bad.json"
    bad.write_text(path.read_text()[:-5])
    during = []
    real_load = json.load

    def load(fh):
        during.append(gc.isenabled())
        return real_load(fh)

    monkeypatch.setattr(G.json, "load", load)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert ps.read_graph_json(path).edges == g1.edges
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            ps.read_graph_json(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]  # paused for the decode only


@pytest.mark.parametrize("flag", [2, 7, 2**31])
def test_read_graph_binary_rejects_unknown_policy_flag(tmp_path, g1, flag):
    # any nonzero flag used to read as policy "on"
    path = tmp_path / "g.bin"
    ps.write_graph_binary(g1, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8, flag)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="policy flag"):
        ps.read_graph_binary(path)
    proc = subprocess.run(
        [sys.executable, "-m", "pillowspace.cli", "modulus", "--graph", str(path),
         "--sides", "left-right"],
        capture_output=True,
        text=True,
    )
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 1 and len(lines) == 1 and "policy flag" in lines[0]


@pytest.mark.parametrize("field, value", [(2, 7), (1, 99)])
def test_cli_reports_bad_binary_graph_in_one_line(tmp_path, g1, field, value):
    path = _patched_binary(tmp_path, g1, 0, field, value)
    proc = subprocess.run(
        [sys.executable, "-m", "pillowspace.cli", "modulus", "--graph", str(path),
         "--sides", "left-right"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert "malformed edge" in lines[0]


# scipy costs the CLI about 0.3 s of import time; only the modulus solver may load it
_SCIPY_FREE = """
import contextlib, io, os, sys, tempfile
import pillowspace.cli
import pillowspace as ps
from pillowspace.graphs import bfs_row, bfs_rows
from pillowspace.verify import run_suite
g = ps.build_graph(2)
with tempfile.TemporaryDirectory() as tmp:
    for write in (ps.write_graph_json, ps.write_graph_binary):
        path = os.path.join(tmp, "g")
        write(g, path)
        assert ps.read_graph(path).edges == g.edges
bfs_row(g, 0)
bfs_rows(g, [0, 5, 5], cutoff=3)
ps.ball(g, "55", 3)
ps.distance(g, "11", "99")
assert ps.lipschitz_quotient_check(g).ok
ps.cover_preimage(g, (4, 4), 1)
ps.pi_diagnostic(g, ps.TileMeasure.uniform(2), 2.0, 5, 1)
ps.ball_dimension_estimate(g, 3, 1, radii_exponents=[0, 1])
assert run_suite("sheets", [2]).ok
assert run_suite("quotient", [2]).ok
d = ps.graph_metric(g)
ps.symmetrize(d)
ps.internal_block_metric(g, "5")
assert run_suite("self-similar", [2]).ok
assert run_suite("automorphisms", [2]).ok
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    out = os.path.join(tmp, "sym.bin")
    assert pillowspace.cli.main(["metric", "symmetrize", "--level", "2", "--out", out]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)[:5]
"""


def test_graph_paths_do_not_import_scipy():
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
