"""Tests for the invariant suites' own bookkeeping."""

import pytest

from pillowspace import graphs, metrics, verify


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
