"""Tests for the invariant suites' own bookkeeping."""

from pillowspace import graphs, metrics, verify


def test_self_similar_computes_each_reference_metric_once(monkeypatch):
    levels = []
    graph_metric = verify.graph_metric

    def counted(g, *args, **kwargs):
        levels.append(g.level)
        return graph_metric(g, *args, **kwargs)

    monkeypatch.setattr(verify, "graph_metric", counted)
    rep = verify.run_suite("self-similar", [2, 3])
    assert rep.ok
    assert [r["metrics_checked"] for r in rep.results] == [10, 110]
    # suite level 2 has block level 1; suite level 3 has block levels 1 and 2
    assert sorted(levels) == [1, 1, 2]


def test_self_similar_builds_no_graph_per_block(monkeypatch):
    # the suite's own references serve every internal block metric
    calls = []
    build_graph = graphs.build_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build_graph(*args, **kwargs)

    for module in (graphs, metrics):
        monkeypatch.setattr(module, "build_graph", counted, raising=False)
    assert verify.run_suite("self-similar", [2, 3]).ok
    assert calls == []
