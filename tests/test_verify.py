"""Tests for the invariant suites' own bookkeeping."""

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from pillowspace import cli, graphs, metrics, verify
from pillowspace.words import LevelWords, all_words


def test_self_similar_builds_no_graph_per_block(monkeypatch):
    # past the graph itself, one reference per depth serves all its blocks
    calls = []
    build_graph = graphs.build_graph

    def counted(n, policy):
        calls.append(n)
        return build_graph(n, policy)

    def refuse(*args, **kwargs):
        raise AssertionError("a graph built outside the suite's references")

    monkeypatch.setattr(graphs, "build_graph", refuse)  # prefix_subgraph's own build
    monkeypatch.setattr(verify, "build_graph", counted)
    assert verify.run_suite("self-similar", [2, 3, 4]).ok
    assert calls == [2, 1, 3, 2, 1, 4, 3, 2, 1]


def test_self_similar_level_one_has_no_prefixes():
    row = verify.run_suite("self-similar", [1]).results[0]
    assert row["note"] == "no proper prefixes" and row["blocks_checked"] == 0
    assert row["ok"] is row["reference_edges_equal"] is True


def test_graph_free_suites_build_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graph built for a suite that never reads it")

    monkeypatch.setattr(verify, "build_graph", refuse)
    assert verify.run_suite("singular-measure", [1, 2, 3]).ok


def test_levels_and_policy_are_checked_before_any_level_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a level ran before the arguments were checked")

    monkeypatch.setattr(verify, "build_graph", refuse)
    monkeypatch.setattr(verify, "SUITES", {
        name: (refuse, *rest) for name, (_runner, *rest) in verify.SUITES.items()
    })
    for suite in ("counts", "singular-measure"):
        with pytest.raises(graphs.CapacityError):
            verify.run_suite(suite, [1, graphs.MAX_LEVEL + 1])
        with pytest.raises(ValueError):
            verify.run_suite(suite, [1], policy="sideways")


@pytest.mark.parametrize("suite, levels, message", [
    ("nope", None, "^unknown suite 'nope'; choose from counts, "),
    ("counts", [], "^no level to run$"),
])
def test_run_suite_errors_name_their_cause(suite, levels, message):
    with pytest.raises(ValueError, match=message):
        verify.run_suite(suite, levels)


@pytest.mark.parametrize("seed", [None, 2.5, True, "7"])
def test_run_suite_needs_an_integer_seed(seed):
    # None and "7" raised a TypeError from seed + n, 2.5 and True ran
    with pytest.raises(ValueError, match="^seed must be an integer"):
        verify.run_suite("covering", [1], seed=seed)


@pytest.mark.parametrize("tolerance", [math.nan, -1, 0, True, 0.5])
def test_run_suite_checks_its_tolerance_before_any_level_runs(monkeypatch, tolerance):
    # each ran and was reported; 0.5 failed only inside modulus-oracles
    monkeypatch.setattr(verify, "build_graph", lambda *args: pytest.fail("a level ran"))
    with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 0.01\]"):
        verify.run_suite("modulus-oracles", [1], tolerance=tolerance)


def _dropped(u, v, t, block):
    # the first edge with both ends in the block over prefix 3, 37 or 371 goes
    k = np.flatnonzero((u // 10 == block) & (v // 10 == block))[0]
    return np.delete(u, k), np.delete(v, k), np.delete(t, k)


def _retyped(u, v, t, block):
    k = np.flatnonzero((u // 10 == block) & (v // 10 == block))[0]
    t = t.copy()
    t[k] = (t[k] + 1) % 3
    return u, v, t


def _extra(u, v, t, block):
    # tiles 8000 and 8999 share block 8 but not a side
    order = np.argsort(np.append(u * 10**4 + v, 8000 * 10**4 + 8999))
    return np.append(u, 8000)[order], np.append(v, 8999)[order], np.append(t, 0)[order]


@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("n, damage, block, bad", [
    (2, _dropped, 3, ["3"]),
    (3, _dropped, 37, ["3", "37"]),
    (4, _dropped, 371, ["3", "37", "371"]),
    (3, _retyped, 50, ["5", "50"]),
    (4, _extra, None, ["8"]),
], ids=["dropped-L2", "dropped-L3", "dropped-L4", "retyped-L3", "extra-L4"])
def test_self_similar_reports_a_block_that_fails_its_certificate(policy, n, damage, block, bad):
    # each fault is planted in real edge arrays: a block with the wrong edge
    # count is named at every depth that holds it, and so is one whose keys differ
    g = graphs.build_graph(n, policy)
    broken = graphs.ReplacementGraph(n, policy, *damage(*g.edge_arrays(), block))
    row = verify._suite_self_similar(n, broken, {})
    assert not row["ok"] and row["bad_blocks"] == bad


def test_covering_reports_a_ball_that_is_not_covered(monkeypatch):
    cover = metrics.cover_preimage

    def uncovered(g, center, radius, c):
        rep = cover(g, center, radius, c=c)
        return dataclasses.replace(rep, target_covered=False, witness=(center, "uncovered"))

    monkeypatch.setattr(metrics, "cover_preimage", uncovered)
    row = verify.run_suite("covering", [1]).results[0]
    assert not row["ok"] and row["balls_checked"] == 9
    assert [f[2][1] for f in row["failures"]] == ["uncovered"] * 5  # the first five


def test_adjacency_oracle_refuses_a_level_past_the_oracle_before_listing_words(monkeypatch):
    def refuse(level):
        raise AssertionError(f"all_words({level}) called past the oracle's cap")

    monkeypatch.setattr(graphs, "all_words", refuse)
    with pytest.raises(graphs.CapacityError,
                       match="adjacency-oracle level 6 exceeds the supported maximum 5"):
        verify.run_suite("adjacency-oracle", [6])


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_suite_refuses_a_level_past_its_top_before_running(suite, monkeypatch):
    # a suite that builds no graph was capped at MAX_LEVEL, not its top, so
    # run_suite("adjacency-oracle", [4]) left level 4 to the oracle's own check
    # when the oracle's top was 3
    def refuse(*args, **kwargs):
        raise AssertionError(f"{suite} ran before its levels were checked")

    _, defaults, reads_graph, top = verify.SUITES[suite]
    monkeypatch.setitem(verify.SUITES, suite, (refuse, defaults, reads_graph, top))
    for module, name in ((graphs, "all_words"), (verify, "build_graph"), (graphs, "build_graph")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(graphs.CapacityError,
                       match=f"^{suite} level {top + 1} exceeds the supported maximum {top}$"):
        verify.run_suite(suite, [1, top + 1])


def test_quotient_refuses_a_level_past_max_level_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graph built past the quotient suite's top level")

    for module in (graphs, verify):
        monkeypatch.setattr(module, "build_graph", refuse)
    top = verify.MAX_LEVEL
    with pytest.raises(graphs.CapacityError, match=f"quotient level {top + 1} exceeds .* {top}"):
        verify.run_suite("quotient", [top + 1])
    assert cli.main(["verify", "quotient", f"{top + 1}..{top + 2}"]) == 64


# E_1 and E_m = 10 E_{m-1} + 20 3^(m-1) - 4, worked out by hand
PINNED_EDGES = {
    "on": [17, 226, 2_436, 24_896, 250_576, 2_510_616],
    "off": [16, 216, 2_336, 23_896, 240_576, 2_410_616],
}


@pytest.mark.parametrize("policy", ["on", "off"])
def test_counts_suite_expects_the_pinned_edge_counts(policy):
    rep = verify.run_suite("counts", range(1, 6), policy=policy)
    assert rep.ok
    assert [r["expected_edges"] for r in rep.results] == PINNED_EDGES[policy][:5]
    assert [r["edges"] for r in rep.results] == PINNED_EDGES[policy][:5]
    # level 6 without its build: the row only reads the graph's counts
    g6 = types.SimpleNamespace(policy=policy, n_vertices=10**6,
                               n_edges=PINNED_EDGES[policy][5])
    assert verify._suite_counts(6, g6, {})["ok"]


def test_counts_suite_fails_on_a_graph_missing_an_edge(monkeypatch):
    build_graph = verify.build_graph

    def one_edge_short(n, policy):
        u, v, t = (a[1:] for a in build_graph(n, policy).edge_arrays())
        return graphs.ReplacementGraph(level=n, policy=policy, u=u, v=v, t=t)

    monkeypatch.setattr(verify, "build_graph", one_edge_short)
    rep = verify.run_suite("counts", [1, 2])
    assert not rep.ok
    assert all(not r["ok"] and r["edges"] == r["expected_edges"] - 1 for r in rep.results)


@pytest.mark.parametrize("suite, levels", [("sheets", [1, 2, 3, 4]), ("quotient", [1, 2, 3])])
def test_sheets_and_quotient_report_the_certificate_and_run_no_bfs(monkeypatch, suite, levels):
    # both identities follow from the two facts; no suite row needs a BFS
    built = {n: graphs.build_graph(n) for n in levels}

    def refuse(*args, **kwargs):
        raise AssertionError("BFS run by a certified suite")

    monkeypatch.setattr(verify, "build_graph", lambda n, policy: built[n])
    monkeypatch.setattr(graphs, "bfs_row", refuse)
    rep = verify.run_suite(suite, levels, seed=7)
    assert rep.ok
    for row in rep.results:
        n = row["level"]
        assert row == dataclasses.asdict(metrics.lipschitz_quotient_check(built[n]))
        assert row["sheets"] == 2**n and row["pairs_checked"] == 2**n * 81**n
        assert row["vertices_checked"] == 10**n and row["broken"] is None


def test_sheets_suite_names_the_broken_fact(monkeypatch):
    build_graph = verify.build_graph

    def one_grid_edge_short(n, policy):
        g = build_graph(n, policy)
        u, v, t = g.edge_arrays()
        keep = np.arange(len(u)) != np.flatnonzero(t == 0)[0]
        return graphs.ReplacementGraph(n, policy, u[keep], v[keep], t[keep])

    monkeypatch.setattr(verify, "build_graph", one_grid_edge_short)
    row = verify.run_suite("sheets", [2]).results[0]
    assert not row["ok"] and row["broken"] == "(b) every sheet carries every grid edge"
    assert row["witness"][0] in {"00", "01", "10", "11"}


def test_modulus_oracles_suite_matches_the_cut_and_conductance_values():
    rep = verify.run_suite("modulus-oracles")  # L1-L3
    assert rep.ok and rep.levels == [1, 2, 3]
    for row, cut, cond in zip(rep.results, [4, 12, 32], [2.0, 1.5548135039, 1.5215533652]):
        assert row["mincut"] == cut and abs(row["p1_value"] - cut) <= 1e-9 * cut
        assert abs(row["conductance"] - cond) <= 1e-9 * cond
        assert abs(row["p2_value"] - cond) <= 1e-9 * cond


def test_automorphisms_suite_checks_both_mirrors(monkeypatch):
    rep = verify.run_suite("automorphisms", [1, 2, 3])
    assert rep.ok and [r["mirrors_checked"] for r in rep.results] == [2, 2, 2]
    symmetry_permutations = verify.symmetry_permutations

    def spoiled(n):  # the top-bottom mirror replaced by a swap of a corner and the center
        perms = list(symmetry_permutations(n))
        perms[0] = np.arange(10**n)
        perms[0][[1, 5]] = 5, 1
        return perms

    monkeypatch.setattr(verify, "symmetry_permutations", spoiled)
    rep = verify.run_suite("automorphisms", [1])
    assert not rep.ok and rep.results[0]["failures"] == ["top-bottom"]


@pytest.fixture(scope="module")
def built_graphs():
    return {n: graphs.build_graph(n) for n in range(1, 6)}


@pytest.fixture
def cached_builds(monkeypatch, built_graphs):
    monkeypatch.setattr(verify, "build_graph", lambda n, policy: built_graphs[n])
    return built_graphs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_two_bit_flip_is_the_product_of_its_one_bit_flips(n):
    # the group argument of the automorphisms suite: the one-level flips
    # generate every flip, so checking them checks all 2^n
    gens = list(graphs.symmetry_permutations(n))[2:]  # after the two mirrors
    for i, j in itertools.combinations(range(n), 2):
        bits = "".join("1" if k in (i, j) else "0" for k in range(n))
        flip = graphs.flip_permutation(LevelWords(n), bits)
        assert np.array_equal(flip, gens[i][gens[j]])
        assert np.array_equal(flip, gens[j][gens[i]])


def test_automorphisms_generators_agree_with_every_flip_checked(cached_builds):
    # the per-flip slow path: all 2^n flips are automorphisms where the
    # generator suite says so
    rep = verify.run_suite("automorphisms", [1, 2, 3, 4])
    assert rep.ok
    for row in rep.results:
        n, g = row["level"], cached_builds[row["level"]]
        flips = ["".join(b) for b in itertools.product("01", repeat=n)]
        assert all(verify.is_automorphism(g, graphs.flip_permutation(g, b)) for b in flips)
        assert row == {"flips_checked": 2**n, "generators_checked": n, "mirrors_checked": 2,
                       "failures": [], "ok": True, "level": n}


@pytest.mark.parametrize("policy", ["on", "off"])
def test_automorphisms_hold_under_both_policies(policy):
    rep = verify.run_suite("automorphisms", range(1, 6), policy=policy)
    assert rep.ok
    assert [r["flips_checked"] for r in rep.results] == [2, 4, 8, 16, 32]
    assert [r["generators_checked"] for r in rep.results] == [1, 2, 3, 4, 5]


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["on", "off"])
def test_automorphisms_hold_at_level_6_by_generators(policy):
    row = verify.run_suite("automorphisms", [6], policy=policy).results[0]
    assert row["ok"] and row["flips_checked"] == 64 and row["generators_checked"] == 6


@pytest.mark.parametrize("level", [1, 2, 3])
def test_automorphisms_find_a_flip_table_wrong_at_one_level(cached_builds, monkeypatch, level):
    # the flip at one level swaps '0' with '4', not '5': a '0' tile's seam
    # edge is sent to a grid square; caught from that level on, and named
    letter_permutation = graphs.letter_permutation
    wrong = "4123056789"

    def spoiled(n, maps):
        maps = [wrong if k == level - 1 and m == graphs._FLIP_LETTERS else m
                for k, m in enumerate(maps)]
        return letter_permutation(n, maps)

    monkeypatch.setattr(graphs, "letter_permutation", spoiled)
    rep = verify.run_suite("automorphisms", [1, 2, 3, 4])
    assert not rep.ok
    for row in rep.results:
        n = row["level"]
        bad = ["0" * (level - 1) + "1" + "0" * (n - level)] if n >= level else []
        assert row["failures"] == bad and row["ok"] is (n < level)


def test_adjacency_oracle_finds_a_planted_fault_at_level_3(monkeypatch):
    # adjacency blind to seams: every level has a seam, and each must see it
    adjacency = graphs.adjacency
    monkeypatch.setattr(verify, "adjacency",
                        lambda w, v: None if adjacency(w, v) == "S" else adjacency(w, v))
    rep = verify.run_suite("adjacency-oracle", [1, 2, 3])
    assert not rep.ok
    assert all(r["disagreements"] > 0 and not r["edges_equal"] for r in rep.results)


@pytest.mark.parametrize("policy", ["on", "off"])
def test_adjacency_oracle_checks_every_candidate_pair(policy):
    rep = verify.run_suite("adjacency-oracle", policy=policy)  # L1-L4
    assert rep.ok and rep.levels == [1, 2, 3, 4]
    assert [r["pairs_checked"] for r in rep.results] == [17, 262, 3_388, 42_088]
    assert all(r["edges_equal"] and r["disagreements"] == 0 for r in rep.results)


def test_adjacency_oracle_candidates_are_the_pairs_with_a_shared_face():
    # the brute force over every pair at L2: a pair is a candidate exactly
    # when _shared_faces gives its squares a face
    states = {w: graphs._prefix_states(w)[-1] for w in all_words(2)}
    want = {frozenset(p) for p in itertools.combinations(states, 2)
            if graphs._shared_faces(states[p[0]], states[p[1]])}
    got = [frozenset(p) for p in graphs._candidate_pairs(2)]
    assert len(got) == len(set(got)) and set(got) == want


@pytest.mark.parametrize("policy", ["on", "off"])
def test_adjacency_oracle_finds_an_edge_of_the_wrong_type(monkeypatch, policy):
    # one edge of the built graph changes type: both deciders still agree,
    # and the yes-set no longer equals the graph, from level 1 on
    build_graph = graphs.build_graph

    def retyped(n, policy):
        u, v, t = (a.copy() for a in build_graph(n, policy).edge_arrays())
        t[len(t) // 2] = (t[len(t) // 2] + 1) % 3
        return graphs.ReplacementGraph(level=n, policy=policy, u=u, v=v, t=t)

    monkeypatch.setattr(verify, "build_graph", retyped)
    rep = verify.run_suite("adjacency-oracle", [1, 2, 3], policy=policy)
    assert not rep.ok
    assert all(r["disagreements"] == 0 and not r["edges_equal"] for r in rep.results)


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["on", "off"])
def test_adjacency_oracle_checks_every_candidate_pair_at_level_5(policy):
    row = verify.run_suite("adjacency-oracle", [5], policy=policy).results[0]
    assert row["ok"] and row["edges_equal"] and row["disagreements"] == 0
    assert row["pairs_checked"] == 516_352


@pytest.mark.parametrize("policy", ["on", "off"])
def test_self_similar_checks_every_block_at_level_6(policy):
    # (10^6 - 10) / 9 blocks: every prefix of one to five letters
    row = verify.run_suite("self-similar", [6], policy=policy).results[0]
    assert row["ok"] and row["blocks_checked"] == 111_110 and row["bad_blocks"] == []


def test_self_similar_reports_do_not_depend_on_the_seed():
    a, b = (dataclasses.asdict(verify.run_suite("self-similar", [4, 5], seed=seed))
            for seed in (0, 9))
    assert (a.pop("seed"), b.pop("seed")) == (0, 9) and a == b
