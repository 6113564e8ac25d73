"""Tests for the invariant suites' own bookkeeping."""

import pytest

from pillowspace import graphs, metrics, verify
from pillowspace.words import LevelWords, all_words


def test_self_similar_builds_no_graph_per_block(monkeypatch):
    # the suite's own references serve every block certificate
    calls = []
    build_graph = graphs.build_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build_graph(*args, **kwargs)

    for module in (graphs, metrics):
        monkeypatch.setattr(module, "build_graph", counted, raising=False)
    assert verify.run_suite("self-similar", [2, 3]).ok
    assert calls == []


def test_graph_free_suites_build_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graph built for a suite that never reads it")

    monkeypatch.setattr(verify, "build_graph", refuse)
    assert verify.run_suite("singular-measure", [1, 2, 3]).ok
    assert verify.run_suite("adjacency-oracle", [1, 2]).ok


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


def test_adjacency_oracle_draws_the_same_pairs_from_the_word_view(monkeypatch):
    # random.choice reads only len and [i], so a LevelWords view draws the
    # pairs that the list does
    drawn = {}
    monkeypatch.setattr(verify, "chain_oracle_adjacency", lambda w, v: None)
    for name, words in (("list", all_words), ("view", LevelWords)):
        pairs = drawn[name] = []
        monkeypatch.setattr(verify, "all_words", words)
        monkeypatch.setattr(verify, "adjacency", lambda w, v, pairs=pairs: pairs.append((w, v)))
        assert verify._suite_adjacency_oracle(3, None, {"seed": 7})["ok"]
    assert len(drawn["list"]) == verify.ORACLE_SAMPLE_PAIRS
    assert drawn["view"] == drawn["list"]


def test_adjacency_oracle_refuses_a_level_past_the_oracle_before_listing_words(monkeypatch):
    def refuse(level):
        raise AssertionError(f"all_words({level}) called past the oracle's cap")

    monkeypatch.setattr(verify, "all_words", refuse)
    with pytest.raises(ValueError, match="chain oracle supports length <= 3, got 6"):
        verify.run_suite("adjacency-oracle", [6])
