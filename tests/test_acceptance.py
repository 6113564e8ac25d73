"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with -v to get one pass/fail line per criterion.  Heavier criteria build
the level-5 graph; the whole gate stays around a minute.
"""

import json
import math
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pillowspace import (
    ModulusProblem,
    TileMeasure,
    all_words,
    ball_dimension_estimate,
    box_dimension_estimate,
    build_graph,
    conformal_scan,
    effective_conductance,
    graph_metric,
    grid_network,
    internal_block_metric,
    middle_third_ratios,
    mincut_oracle,
    parallel_network,
    path_network,
    project_word,
    pushforward_x,
    solve_modulus,
    symmetrize,
)
from pillowspace.verify import run_suite

P_GRID = [1.0, 1.5, 2.0, 2.0959, 2.5, 3.0]
CLI = [sys.executable, "-m", "pillowspace.cli"]


def test_criterion_01_vertex_counts_and_level5_budget():
    """10^n vertices for n=1..5, exact; level 5 under 60 s and 2 GB."""
    for n in (1, 2, 3, 4):
        assert build_graph(n).n_vertices == 10**n
    t0 = time.perf_counter()
    g5 = build_graph(5)
    elapsed = time.perf_counter() - t0
    assert g5.n_vertices == 10**5
    assert elapsed < 60, f"level-5 build took {elapsed:.1f} s"
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    assert peak_gb < 2.0, f"peak rss {peak_gb:.2f} GB"


def test_criterion_02_singular_pushforward_exact():
    """Middle-third ratio is exactly 4/10 for every interval at n <= 5."""
    for n in range(1, 6):
        rows, skipped = middle_third_ratios(pushforward_x(TileMeasure.uniform(n)))
        assert not skipped
        assert rows, "no intervals produced"
        assert all(r.ratio == Fraction(4, 10) for r in rows)


def test_criterion_03_dimension_estimates():
    """Tile regression gives log10/log3 exactly; ball regression at n=5 within 0.05."""
    want = math.log(10) / math.log(3)
    fit = box_dimension_estimate([1, 2, 3, 4, 5])
    assert fit.estimate == pytest.approx(want, rel=1e-12)
    assert fit.residual <= 1e-9
    g5 = build_graph(5)
    ball = ball_dimension_estimate(g5, samples=12, seed=20210)
    assert abs(ball.estimate - want) <= 0.05, f"ball slope {ball.estimate:.4f}"


def test_criterion_04_sheet_isometry():
    """In-graph distance equals grid L1 on every ordered pair of every sheet, n <= 4."""
    rep = run_suite("sheets", [1, 2, 3, 4])
    assert rep.ok, rep.results
    for row in rep.results:
        n = row["level"]
        assert row["sheets"] == 2**n and row["pairs_checked"] == 2**n * (9**n) ** 2
        assert row["broken"] is None


def test_criterion_05_self_similarity():
    """Prefix blocks certify as lower levels; internal metrics match exactly."""
    rep = run_suite("self-similar", [2, 3, 4, 5])
    assert rep.ok, rep.results
    exhaustive = {r["level"]: r for r in rep.results}
    assert exhaustive[2]["blocks_checked"] == 10
    assert exhaustive[3]["blocks_checked"] == 110
    assert exhaustive[4]["blocks_checked"] == 1_110
    assert exhaustive[5]["blocks_checked"] == 11_110
    g4 = build_graph(4)
    for prefix in ("9", "50", "123"):
        m = 4 - len(prefix)
        ib = internal_block_metric(g4, prefix)
        assert np.array_equal(ib.entries, graph_metric(build_graph(m)).entries)


def test_criterion_06_flip_symmetry():
    """Flips are automorphisms; symmetrize fixes the graph metric; fiber sizes."""
    rep = run_suite("automorphisms", [1, 2, 3, 5])
    assert rep.ok, rep.results
    by_level = {r["level"]: r for r in rep.results}
    assert by_level[3]["flips_checked"] == 8 and by_level[3]["generators_checked"] == 3
    assert by_level[5]["flips_checked"] == 32 and by_level[5]["generators_checked"] == 5
    for n in (1, 2, 3):
        d = graph_metric(build_graph(n))
        assert np.array_equal(symmetrize(d).entries, d.entries)
    for n in (1, 2, 3):
        fibers = Counter(project_word(w) for w in all_words(n))
        assert len(fibers) == 9**n
        assert all(c == 2 ** u.count("5") for u, c in fibers.items())


def test_criterion_07_adjacency_oracle_agreement():
    """Geometric adjacency equals the symbolic chain oracle, zero disagreements,
    on every candidate pair; the yes-set is the built graph."""
    rep = run_suite("adjacency-oracle", [1, 2, 3])
    assert rep.ok, rep.results
    assert [r["pairs_checked"] for r in rep.results] == [17, 262, 3_388]  # every candidate
    assert all(r["edges_equal"] and r["disagreements"] == 0 for r in rep.results)


def test_criterion_08_lipschitz_quotient():
    """Projected balls equal grid balls for every vertex and radius, n <= 4."""
    rep = run_suite("quotient", [1, 2, 3, 4])
    assert rep.ok, rep.results
    assert all(r["witness"] is None for r in rep.results)
    assert [r["vertices_checked"] for r in rep.results] == [10, 100, 1000, 10_000]


def test_criterion_09_covering_lemma():
    """c=5 covering properties hold exactly; overlap matches the pinned constants."""
    rep = run_suite("covering", [1, 2, 3])
    assert rep.ok, rep.results
    pinned = {1: 1, 2: 1, 3: 2}  # regression: worst overlap per level at seed 0
    for row in rep.results:
        assert not row["failures"]
        assert row["worst_overlap"] == pinned[row["level"]]


def test_criterion_10_modulus_oracles():
    """Solver vs analytic families and grid oracles at 1e-6; certified gap 5e-6."""
    def check(res, want):
        assert res.converged
        assert res.value_upper / res.value_lower - 1 <= 5e-6
        assert abs(res.value - want) <= 1e-6 * want

    for k in (1, 3, 5):
        net, s, t = path_network(k)
        for p in (1.0, 1.5, 2.0, 2.5, 3.0):
            check(solve_modulus(ModulusProblem(net, s, t, p, 1e-6)), k ** (1 - p))
    for m, k in ((3, 1), (2, 4), (4, 3)):
        net, s, t = parallel_network(m, k)
        for p in (1.0, 1.5, 2.0, 2.5, 3.0):
            check(solve_modulus(ModulusProblem(net, s, t, p, 1e-6)), m * k ** (1 - p))
    for rows in (2, 3, 4, 5):
        for cols in (2, 3, 4, 5):
            net, s, t = grid_network(rows, cols)
            check(
                solve_modulus(ModulusProblem(net, s, t, 1.0, 1e-6)),
                mincut_oracle(net, s, t),
            )
            check(
                solve_modulus(ModulusProblem(net, s, t, 2.0, 1e-6)),
                effective_conductance(net, s, t),
            )


def test_criterion_11_modulus_scan_budget():
    """Full (n<=3) x (6 exponents) scan in under 10 minutes, monotone, ratios."""
    t0 = time.perf_counter()
    table = conformal_scan([1, 2, 3], P_GRID)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"scan took {elapsed:.0f} s"
    assert table.monotone_ok
    assert len(table.rows) == 18
    for row in table.rows:
        assert row.converged
        if row.level > 1:  # the cross-level ratio table is populated
            assert row.ratio_to_previous_level is not None
            assert row.ratio_to_previous_level > 0
    assert set(table.critical_p) == {2, 3}
    assert all(p in P_GRID for p in table.critical_p.values())


def test_criterion_12_byte_identical_reruns(tmp_path):
    """Re-running any command with identical flags and seed rewrites identical bytes."""
    m1 = tmp_path / "m1.bin"
    proc = subprocess.run(
        CLI + ["metric", "symmetrize", "--level", "1", "--out", str(m1)],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    g1 = tmp_path / "g1.json"
    proc = subprocess.run(
        CLI + ["build", "-n", "1", "--out", str(g1)], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr

    batteries = [
        ["build", "-n", "2", "--out", "OUT.json"],
        ["verify", "covering", "1..2", "--out", "OUT.json"],
        ["modulus", "--graph", str(g1), "--sides", "left-right",
         "--p-grid", "1,1.5", "--out", "OUT.csv"],
        ["measure", "ratios", "--level", "3", "--out", "OUT.csv"],
        ["measure", "dimension", "--mode", "ball", "--level", "3",
         "--samples", "5", "--seed", "7", "--out", "OUT.csv"],
        ["metric", "symmetrize", "--level", "2", "--out", "OUT.bin"],
        ["metric", "distortion", "--in1", str(m1), "--in2", str(m1),
         "--samples", "300", "--seed", "5", "--out", "OUT.csv"],
        ["metric", "pi-diagnostic", "--level", "2", "--trials", "8",
         "--seed", "3", "--out", "OUT.csv"],
        ["metric", "cover-check", "--level", "2", "--samples", "3",
         "--seed", "9", "--out", "OUT.json"],
    ]
    for i, template in enumerate(batteries):
        blobs = []
        for rerun in ("a", "b"):
            out = tmp_path / f"{i}{rerun}{template[-1][3:]}"
            args = [str(out) if a.startswith("OUT") else a for a in template]
            proc = subprocess.run(CLI + args, capture_output=True)
            assert proc.returncode == 0, (template, proc.stderr)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"output drifted for: {' '.join(template)}"


def test_acceptance_report(capsys):
    """Emit the per-criterion summary table for the log."""
    lines = [
        "1 vertex counts 10^n, level-5 build budget",
        "2 singular pushforward ratios exactly 4/10",
        "3 dimension regressions (exact slope; ball within 0.05)",
        "4 sheet isometry d_G == L1 on every sheet",
        "5 self-similar blocks and internal metrics",
        "6 flip automorphisms, symmetrize fixed point, fiber sizes",
        "7 adjacency oracle agreement",
        "8 Lipschitz quotient ball images",
        "9 covering lemma with c=5",
        "10 modulus vs analytic/oracle values",
        "11 modulus scan budget and monotonicity",
        "12 byte-identical reruns",
    ]
    with capsys.disabled():
        sys.stdout.write("\nacceptance criteria covered:\n")
        for ln in lines:
            sys.stdout.write(f"  {ln}\n")
