import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pillowspace import cli, graphs, verify
from pillowspace.graphs import MAX_LEVEL
from pillowspace.measures import TileMeasure
from pillowspace.metrics import (blowup_metric, internal_block_metric, read_metric_matrix,
                                 write_metric_matrix)

CLI = [sys.executable, "-m", "pillowspace.cli"]


def run(*args):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True
    )


def report_of(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


def data_rows(path):
    out = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    for ln in lines[1:]:
        out.append(dict(zip(header, ln.split(","))))
    return out


@pytest.fixture(scope="module")
def g1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "g1.json"
    proc = run("build", "-n", 1, "--out", path)
    assert proc.returncode == 0
    return path


# ---------------------------------------------------------------------------
# build


def test_build_reports_counts(g1_file):
    proc = run("build", "-n", 1, "--out", g1_file)
    rep = report_of(proc)
    assert proc.returncode == 0
    assert rep["vertices"] == 10 and rep["edges"] == 17
    assert rep["summary"] == "10 vertices, 17 edges"
    assert str(g1_file) in rep["outputs"]
    assert rep["version"]


def test_build_binary_roundtrip(tmp_path):
    path = tmp_path / "g2.bin"
    assert run("build", "-n", 2, "--out", path, "--format", "binary").returncode == 0
    from pillowspace import read_graph

    g = read_graph(path)
    assert g.n_vertices == 100


def test_build_level_zero_is_usage_error(tmp_path):
    proc = run("build", "-n", 0, "--out", tmp_path / "x.json")
    assert proc.returncode == 64
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")


@pytest.mark.parametrize("argv", [
    ["build", "-n", "7", "--out", "g7.json"],
    ["metric", "quotient-check", "--level", str(MAX_LEVEL + 1), "--out", "q.json"],
], ids=["build-level-7", "quotient-check-past-max-level"])
def test_capacity_limit_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 64
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert not os.listdir(tmp_path)


# ---------------------------------------------------------------------------
# verify


def test_verify_counts_passes(tmp_path):
    out = tmp_path / "rep.json"
    proc = run("verify", "counts", "1..2", "--out", out)
    assert proc.returncode == 0
    body = json.loads(out.read_text())
    assert body["ok"] and body["suite"] == "counts"
    assert [r["level"] for r in body["results"]] == [1, 2]


def test_verify_unknown_suite(tmp_path):
    proc = run("verify", "flux-capacitor")
    assert proc.returncode == 64
    assert "counts" in proc.stderr  # usage error lists the suites


def test_verify_bad_range():
    assert run("verify", "counts", "0..2").returncode == 64
    assert run("verify", "counts", "x..y").returncode == 64


@pytest.mark.parametrize("tol", ["0", "0.5", "nan"])
def test_verify_rejects_bad_tolerance(tmp_path, tol):
    out = tmp_path / "rep.json"
    proc = run("verify", "modulus-oracles", "1", "--tol", tol, "--out", out)
    assert proc.returncode == 64
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert not out.exists()


def test_verify_report_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("verify", "covering", "1..2", "--out", a).returncode == 0
    assert run("verify", "covering", "1..2", "--out", b).returncode == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# modulus


def test_modulus_matches_mincut(g1_file, tmp_path):
    out = tmp_path / "scan.csv"
    proc = run(
        "modulus", "--graph", g1_file, "--sides", "left-right",
        "--p-grid", "1,2", "--out", out,
    )
    assert proc.returncode == 0
    rows = data_rows(out)
    assert float(rows[0]["value"]) == 4.0  # min-cut of the level-1 crossing
    assert float(rows[1]["value"]) == pytest.approx(2.0, rel=1e-9)
    assert all(r["converged"] == "True" for r in rows)


def test_modulus_missing_sides(g1_file):
    assert run("modulus", "--graph", g1_file).returncode == 64
    assert run("modulus", "--graph", g1_file, "--sides", "left-up").returncode == 64


@pytest.mark.parametrize("sides", ["left-top", "top-left", "left-bottom", "bottom-left",
                                   "right-top", "top-right", "right-bottom", "bottom-right"])
def test_modulus_refuses_adjacent_faces_before_reading(tmp_path, capsys, sides):
    # two adjacent faces share their corner tile; this used to reach
    # ModulusProblem ("source and target must be disjoint") and exit 1
    argv = ["modulus", "--graph", str(tmp_path / "nope.json"), "--sides", sides]
    assert cli.main(argv) == 64  # a read of the missing file would exit 1
    assert "opposite faces" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--p-grid", "2,1e9"), ("--p-grid", "nan"), ("--p-grid", "inf"), ("--p-grid", "0.5"),
    ("--tol", "0"), ("--tol", "0.5"), ("--tol", "nan"),
])
def test_modulus_rejects_bad_exponent_or_tolerance(g1_file, tmp_path, flag, value):
    out = tmp_path / "scan.csv"
    proc = run(
        "modulus", "--graph", g1_file, "--sides", "left-right", flag, value, "--out", out,
    )
    assert proc.returncode == 64
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert not out.exists()


def test_modulus_missing_graph_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert cli.main(["modulus", "--graph", str(path), "--sides", "left-right"]) == 1
    err = capsys.readouterr().err  # one line that names the path
    assert err.startswith(f"pillowspace: error: cannot read graph file {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["verify", "counts", "3..1"], "level range '3..1' is empty"),
    # an empty range is no range, not the suite's default levels
    (["verify", "counts", ""], "cannot parse level range ''"),
    # before the graph is read: the file does not exist
    (["modulus", "--graph", "MISSING", "--sides", "left-right", "--p-grid", "1,x"],
     "cannot parse p grid '1,x'"),
    (["modulus", "--graph", "MISSING", "--sides", "left-right", "--p-grid", "1,0.5"],
     "exponent must lie in [1, 64.0], got 0.5"),
    (["modulus", "--graph", "MISSING", "--sides", "left-right", "--tol", "0.5"],
     "tolerance must lie in (0, 0.01], got 0.5"),
    # before the graph is built: level 7 is refused there
    (["metric", "pi-diagnostic", "--level", "7", "--p", "nan", "--trials", "1", "--seed", "1"],
     "exponent must lie in [1, inf), got nan"),
    (["metric", "blowup", "--level-from", "2", "--prefix", "1", "--normalization", "bogus",
      "--out", "OUT"], "normalization must be none, diameter, or pair:a:b, not 'bogus'"),
    (["metric", "symmetrize", "--out", "OUT"],
     "pass either --in FILE or a --level to compute from"),
    (["measure", "dimension", "--mode", "box"], "box mode needs --levels"),
    (["measure", "dimension", "--mode", "ball", "--level", "2", "--seed", "1"],
     "ball mode needs --level and --samples"),
    (["measure", "dimension", "--mode", "ball", "--level", "2", "--samples", "5", "--seed", "1"],
     "ball mode needs --level 3 or more, got 2"),
    (["metric", "blowup", "--prefix", "1", "--out", "OUT"], "internal mode needs --level-from"),
], ids=["empty-range", "blank-range", "p-grid", "p-grid-range", "tol-range", "pi-exponent",
        "normalization", "symmetrize-input", "box-levels", "ball-samples", "ball-level",
        "level-from"])
def test_usage_errors_exit_64_with_their_message(tmp_path, capsys, argv, message):
    paths = {"MISSING": tmp_path / "nope.json", "OUT": tmp_path / "out"}
    assert cli.main([str(paths.get(a, a)) for a in argv]) == 64
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"pillowspace: error: {message}\n")
    assert not any(tmp_path.iterdir())


def _samplers():
    from pillowspace.measures import ball_dimension_estimate
    from pillowspace.metrics import graph_metric, pi_diagnostic, qs_distortion

    g = graphs.build_graph(1)
    d = graph_metric(g)
    return {
        "run_suite": lambda seed: verify.run_suite("covering", [1], seed=seed),
        "ball_dimension_estimate": lambda seed: ball_dimension_estimate(g, 3, seed, [0, 1]),
        "qs_distortion": lambda seed: qs_distortion(d, d, 5, seed),
        "pi_diagnostic": lambda seed: pi_diagnostic(g, TileMeasure.uniform(1), 2.0, 2, seed),
    }


@pytest.mark.parametrize("sampler", ["run_suite", "ball_dimension_estimate", "qs_distortion",
                                     "pi_diagnostic"])
@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
])
def test_every_sampler_reads_its_seed_by_one_rule(sampler, seed, message):
    # -1 reached numpy's default_rng in ball_dimension_estimate, whose
    # message names no argument; the random.Random samplers took it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _samplers()[sampler](seed)


@pytest.mark.parametrize("argv", [
    ["verify", "covering", "1"],
    ["measure", "dimension", "--mode", "ball", "--level", "3", "--samples", "3"],
    ["metric", "distortion", "--in1", "MISSING", "--in2", "MISSING", "--samples", "10"],
    ["metric", "cover-check", "--level", "2", "--samples", "2"],
    ["metric", "pi-diagnostic", "--level", "2", "--trials", "2"],
], ids=["verify", "dimension", "distortion", "cover-check", "pi-diagnostic"])
def test_sampling_subcommands_refuse_a_negative_seed(tmp_path, capsys, argv):
    # the seed is read before any input: the metric files do not exist
    paths = {"MISSING": tmp_path / "nope.bin"}
    argv = [str(paths.get(a, a)) for a in argv] + ["--seed", "-1", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 64
    assert capsys.readouterr() == ("", "pillowspace: error: seed must be >= 0, got -1\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["measure", "dimension", "--mode", "box", "--levels", "1..3", "--seed", "-1"],
], ids=["dimension-box"])
def test_a_seed_that_no_sampler_reads_is_still_checked(tmp_path, capsys, argv):
    # box mode samples nothing; it ran and echoed the negative seed
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 64
    assert capsys.readouterr() == ("", "pillowspace: error: seed must be >= 0, got -1\n")
    assert not any(tmp_path.iterdir())


def test_modulus_csv_reproducible(g1_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert (
            run(
                "modulus", "--graph", g1_file, "--sides", "top-bottom",
                "--p-grid", "1.5", "--out", out,
            ).returncode
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# measure


def test_measure_ratios_all_two_fifths(tmp_path):
    out = tmp_path / "r.csv"
    proc = run("measure", "ratios", "--level", 3, "--out", out)
    rep = report_of(proc)
    assert proc.returncode == 0
    assert rep["distinct_ratios"] == ["2/5"]
    assert all(r["ratio"] == "2/5" for r in data_rows(out))


def test_measure_pushforward_total(tmp_path):
    out = tmp_path / "pf.csv"
    assert run("measure", "pushforward", "--level", 2, "--out", out).returncode == 0
    rows = data_rows(out)
    assert len(rows) == 9
    assert sum(Fraction(r["weight"]) for r in rows) == 1


@pytest.mark.parametrize("command", ["pushforward", "ratios"])
@pytest.mark.parametrize("level", [-1, 0, MAX_LEVEL + 1])
def test_measure_level_is_checked_before_allocation(command, level, monkeypatch, capsys):
    def refuse(level):
        raise AssertionError(f"uniform({level}) called with an unchecked level")

    monkeypatch.setattr(TileMeasure, "uniform", refuse)
    assert cli.main(["measure", command, "--level", str(level)]) == 64
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")


def test_measure_dimension_box(tmp_path):
    proc = run("measure", "dimension", "--mode", "box", "--levels", "1..5")
    rep = report_of(proc)
    assert rep["estimate"] == pytest.approx(math.log(10) / math.log(3), rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["measure", "dimension", "--mode", "box", "--levels", f"1..{MAX_LEVEL + 1}"],
    ["verify", "counts", f"1..{MAX_LEVEL + 1}"],
])
def test_level_range_is_capped_before_it_is_built(argv, capsys):
    assert cli.main(argv) == 64
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert str(MAX_LEVEL + 1) in lines[0]


@pytest.mark.parametrize("levels", ["5..6", "6", "2,6"])
def test_verify_adjacency_oracle_range_is_capped_by_the_chain_oracle(levels, monkeypatch,
                                                                    capsys):
    # a level past the chain oracle is a usage error, found before any level runs
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran before its level range was checked")

    _runner, *rest = verify.SUITES["adjacency-oracle"]
    monkeypatch.setitem(verify.SUITES, "adjacency-oracle", (refuse, *rest))
    assert cli.main(["verify", "adjacency-oracle", levels, "--seed", "7"]) == 64
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert f"maximum {graphs.ORACLE_MAX_LEVEL}" in lines[0]


@pytest.mark.parametrize("argv, message", [
    (["build", "-n", "7", "--out", "unused.json"], "level 7 exceeds the supported maximum 6"),
    (["measure", "ratios", "--level", "0"], "level must be >= 1, got 0"),
    (["verify", "adjacency-oracle", "6"],
     "adjacency-oracle level 6 exceeds the supported maximum 5"),
    (["metric", "symmetrize", "--level", "5", "--out", "unused.bin"],
     "level 5 exceeds the supported maximum 4"),
], ids=["build", "measure", "verify", "metric"])
def test_cli_level_errors_use_the_library_level_rule(argv, message, monkeypatch, capsys):
    # words.check_level words every level error; the CLI has no level rule of its own
    def refuse(*args, **kwargs):
        raise AssertionError("graph built before its level was checked")

    monkeypatch.setattr(graphs, "build_graph", refuse)
    assert cli.main(argv) == 64
    assert capsys.readouterr().err == f"pillowspace: error: {message}\n"


def test_measure_dimension_ball_needs_seed():
    proc = run("measure", "dimension", "--mode", "ball", "--level", 2, "--samples", 5)
    assert proc.returncode == 64
    assert "seed" in proc.stderr


@pytest.mark.parametrize("samples", [0, -1])
def test_measure_dimension_ball_rejects_samples_below_one(samples, capsys):
    # as does every subcommand that counts: the parser refuses before a handler runs
    for argv in (
        ["measure", "dimension", "--mode", "ball", "--level", "2", "--samples"],
        ["metric", "distortion", "--in1", "a.bin", "--in2", "b.bin", "--samples"],
        ["metric", "cover-check", "--level", "2", "--samples"],
        ["metric", "pi-diagnostic", "--level", "2", "--trials"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [str(samples), "--seed", "1"])
        out, err = capsys.readouterr()
        assert exc.value.code == 64 and argv[-1] in err, argv
        assert not out


@pytest.mark.parametrize("level", [1, 2])
def test_measure_dimension_ball_below_two_radii_is_usage_error(level, capsys, monkeypatch):
    # the fit needs two radii, so level 3; refused before the graph is built
    def refuse(*args, **kwargs):
        raise AssertionError("graph built before its level was checked")

    monkeypatch.setattr(graphs, "build_graph", refuse)
    argv = ["measure", "dimension", "--mode", "ball", "--level", str(level),
            "--samples", "5", "--seed", "1"]
    assert cli.main(argv) == 64
    assert capsys.readouterr() == (
        "", f"pillowspace: error: ball mode needs --level 3 or more, got {level}\n")


def test_measure_dimension_ball_runs(tmp_path):
    out = tmp_path / "fit.csv"
    proc = run(
        "measure", "dimension", "--mode", "ball", "--level", 3,
        "--samples", 10, "--seed", 4, "--out", out,
    )
    rep = report_of(proc)
    assert proc.returncode == 0
    assert 1.5 < rep["estimate"] < 2.5


# ---------------------------------------------------------------------------
# metric


def test_symmetrize_fixed_point_bytes(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    proc = run("metric", "symmetrize", "--level", 2, "--out", a)
    assert proc.returncode == 0 and report_of(proc)["fixed_point"]
    assert run("metric", "symmetrize", "--in", a, "--out", b).returncode == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("extra", [["--mode", "sampled"], ["--samples", "3"], ["--seed", "1"]],
                         ids=["mode", "samples", "seed"])
def test_symmetrize_has_one_exact_path(tmp_path, capsys, extra):
    # the flip average takes no mode, sample count or seed
    with pytest.raises(SystemExit) as exc:
        cli.main(["metric", "symmetrize", "--level", "1", *extra,
                  "--out", str(tmp_path / "s.bin")])
    assert exc.value.code == 64 and extra[0] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_blowup_internal_reproduces_level_two(tmp_path):
    ref = tmp_path / "m2.bin"
    blown = tmp_path / "b.bin"
    assert run("metric", "symmetrize", "--level", 2, "--out", ref).returncode == 0
    proc = run(
        "metric", "blowup", "--level-from", 4, "--prefix", 50,
        "--mode", "internal", "--out", blown,
    )
    assert proc.returncode == 0
    assert blown.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("mode", ["internal", "ambient"])
def test_blowup_pair_normalization(mode, workdir, capsys):
    # block "5" of level 2 scaled so that its tiles 1 and 9 lie at distance 1
    source = ["--level-from", "2"] if mode == "internal" else ["--in", "m2.bin"]
    in_process_report(["metric", "blowup", "--mode", mode, *source, "--prefix", "5",
                       "--normalization", "pair:1:9", "--out", "b.bin"], capsys)
    if mode == "internal":
        want = internal_block_metric(graphs.build_graph(2), "5", ("pair", "1", "9"))
    else:
        want = blowup_metric(read_metric_matrix("m2.bin"), "5", ("pair", "1", "9"))
    write_metric_matrix(want, "want.bin")
    assert (workdir / "b.bin").read_bytes() == (workdir / "want.bin").read_bytes()
    assert read_metric_matrix("b.bin").entries[1, 9] == 1.0


def test_blowup_bad_prefix(tmp_path):
    proc = run(
        "metric", "blowup", "--level-from", 2, "--prefix", "xx",
        "--mode", "internal", "--out", tmp_path / "b.bin",
    )
    assert proc.returncode == 64


@pytest.mark.parametrize("prefix", ["123456", "1234567"])
def test_blowup_checks_the_prefix_length_before_it_builds(prefix, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("graph built before the prefix length was checked")

    monkeypatch.setattr(graphs, "build_graph", refuse)
    argv = ["metric", "blowup", "--level-from", "6", "--prefix", prefix, "--out", "unused.bin"]
    assert cli.main(argv) == 64
    assert capsys.readouterr().err == "pillowspace: error: prefix length must be in 1..5\n"


def test_distortion_identity_profile(tmp_path):
    m = tmp_path / "m.bin"
    out_a, out_b = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert run("metric", "symmetrize", "--level", 1, "--out", m).returncode == 0
    for out in (out_a, out_b):
        proc = run(
            "metric", "distortion", "--in1", m, "--in2", m,
            "--samples", 400, "--seed", 5, "--out", out,
        )
        assert proc.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    for row in data_rows(out_a):
        if row["direction"] == "forward" and int(row["count"]):
            lo, hi = float(row["bin_low"]), float(row["bin_high"])
            assert lo - 1e-9 <= float(row["max_ratio"]) <= hi + 1e-9


def test_distortion_needs_seed(tmp_path):
    m = tmp_path / "m.bin"
    assert run("metric", "symmetrize", "--level", 1, "--out", m).returncode == 0
    proc = run("metric", "distortion", "--in1", m, "--in2", m, "--samples", 10)
    assert proc.returncode == 64


def test_distortion_reports_short_metric_file_in_one_line(tmp_path):
    short = tmp_path / "short.bin"
    short.write_bytes(b"PLM1\0\0")
    proc = run(
        "metric", "distortion", "--in1", short, "--in2", short,
        "--samples", 10, "--seed", 1, "--out", tmp_path / "p.csv",
    )
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")


def test_quotient_check_cli(tmp_path):
    out = tmp_path / "q.json"
    proc = run("metric", "quotient-check", "--level", 1, "--out", out)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["ok"]
    assert run("metric", "quotient-check", "--level", MAX_LEVEL + 1).returncode == 64


def test_quotient_check_cli_names_a_broken_fact(monkeypatch, capsys):
    # an H edge of G_4 deleted: exit 1, and the summary says what is not certified
    def one_grid_edge_short(n, policy):
        u, v, t = build_graph(n, policy).edge_arrays()
        keep = np.arange(len(u)) != np.flatnonzero(t == 0)[0]
        return graphs.ReplacementGraph(n, policy, u[keep], v[keep], t[keep])

    build_graph = graphs.build_graph
    assert cli.main(["metric", "quotient-check", "--level", "4"]) == 0
    monkeypatch.setattr(graphs, "build_graph", one_grid_edge_short)
    capsys.readouterr()
    assert cli.main(["metric", "quotient-check", "--level", "4"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["summary"] == ("sheet and ball-image certificate at level 4: FAIL, "
                              "not certified: (b) every sheet carries every grid edge")
    assert rep["report"]["witness"][0] == "1111"  # the one sheet of its end "0000"


def test_cover_check_cli(tmp_path):
    out = tmp_path / "c.json"
    proc = run(
        "metric", "cover-check", "--level", 2, "--center", "4,4",
        "--radius", 1, "--out", out,
    )
    assert proc.returncode == 0
    body = json.loads(out.read_text())
    assert body["ok"] and body["worst_overlap"] >= 1
    assert run("metric", "cover-check", "--level", 2, "--samples", 3).returncode == 64
    proc = run("metric", "cover-check", "--level", 2, "--samples", 0, "--seed", 1)
    assert proc.returncode == 64 and "--samples" in proc.stderr
    assert run(
        "metric", "cover-check", "--level", 2, "--center", "4,4",
        "--radius", 1, "--c", 4,
    ).returncode == 64


@pytest.mark.parametrize("argv", [
    ["--samples", "2"],
    ["--center", "4,4"],
    ["--radius", "1"],
    ["--center", "4", "--radius", "1"],
    ["--center", "4,4", "--radius", "1", "--c", "3"],
    ["--center", "4,4", "--radius", "-1"],
    ["--center", "999,1", "--radius", "1"],
], ids=["no-seed", "no-radius", "no-center", "center-not-x-y", "c-below-5", "negative-radius",
        "center-off-the-grid"])
def test_cover_check_checks_arguments_before_it_builds(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("graph built before the arguments were checked")

    monkeypatch.setattr(graphs, "build_graph", refuse)
    assert cli.main(["metric", "cover-check", "--level", "5", *argv]) == 64
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")


@pytest.mark.parametrize("argv, message", [
    (["metric", "cover-check", "--level", "2", "--center", "4,4", "--radius", "1",
      "--samples", "2", "--seed", "1"], "--samples takes no --center"),
    (["metric", "cover-check", "--level", "2", "--radius", "1", "--samples", "2", "--seed", "1"],
     "--samples takes no --radius"),
    (["measure", "dimension", "--mode", "ball", "--level", "3", "--samples", "5", "--seed", "1",
      "--levels", "1..9"], "ball mode takes no --levels"),
    (["measure", "dimension", "--mode", "box", "--levels", "1..3", "--level", "3"],
     "box mode takes no --level"),
    (["measure", "dimension", "--mode", "box", "--levels", "1..3", "--samples", "5"],
     "box mode takes no --samples"),
], ids=["samples-center", "samples-radius", "ball-levels", "box-level", "box-samples"])
def test_a_mode_refuses_the_options_of_the_other(argv, message, tmp_path, monkeypatch, capsys):
    # an option the mode never reads would let a run check something other
    # than what was asked, and still pass
    from pillowspace import measures

    def refuse(*args, **kwargs):
        raise AssertionError("built before the options were checked")

    monkeypatch.setattr(graphs, "build_graph", refuse)
    monkeypatch.setattr(measures, "box_dimension_estimate", refuse)
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 64
    assert capsys.readouterr() == ("", f"pillowspace: error: {message}\n")
    assert not any(tmp_path.iterdir())


# every command that builds a graph, with {level} where its level goes
GRAPH_COMMANDS = {
    "build": ["build", "-n", "{level}", "--out", "unused.json"],
    "ball-dimension": ["measure", "dimension", "--mode", "ball", "--level", "{level}",
                       "--samples", "2", "--seed", "1"],
    "symmetrize": ["metric", "symmetrize", "--level", "{level}", "--out", "unused.bin"],
    "blowup": ["metric", "blowup", "--level-from", "{level}", "--prefix", "5",
               "--out", "unused.bin"],
    "quotient-check": ["metric", "quotient-check", "--level", "{level}"],
    "cover-check": ["metric", "cover-check", "--level", "{level}", "--samples", "2",
                    "--seed", "1"],
    "pi-diagnostic": ["metric", "pi-diagnostic", "--level", "{level}", "--trials", "2",
                      "--seed", "1"],
}


@pytest.mark.parametrize("command, level", [
    *((c, level) for c in GRAPH_COMMANDS for level in (-1, 0)),
    ("build", MAX_LEVEL + 1),
    ("ball-dimension", MAX_LEVEL + 1),
    ("cover-check", MAX_LEVEL + 1),
    ("pi-diagnostic", MAX_LEVEL + 1),
    ("quotient-check", MAX_LEVEL + 1),
    ("symmetrize", 5),  # dense metrics stop at level 4
    ("blowup", 6),  # its level-5 block is past the dense limit
])
def test_graph_level_is_checked_before_it_is_built(command, level, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("graph built before its level was checked")

    monkeypatch.setattr(graphs, "build_graph", refuse)
    argv = [a.format(level=level) for a in GRAPH_COMMANDS[command]]
    assert cli.main(argv) == 64
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert str(level) in lines[0]


def test_pi_diagnostic_cli(tmp_path):
    out = tmp_path / "pi.csv"
    proc = run(
        "metric", "pi-diagnostic", "--level", 2, "--p", 2,
        "--trials", 10, "--seed", 3, "--out", out,
    )
    rep = report_of(proc)
    assert proc.returncode == 0
    assert rep["worst_ratio"] > 0
    assert len(data_rows(out)) == 10
    assert run(
        "metric", "pi-diagnostic", "--level", 2, "--trials", 5
    ).returncode == 64


@pytest.mark.parametrize("p", ["nan", "inf", "0.5"])
def test_pi_diagnostic_rejects_bad_exponent(tmp_path, p):
    out = tmp_path / "pi.csv"
    proc = run(
        "metric", "pi-diagnostic", "--level", 1, "--p", p,
        "--trials", 3, "--seed", 3, "--out", out,
    )
    assert proc.returncode == 64
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert not out.exists()


def test_reports_embed_provenance(g1_file, tmp_path):
    out = tmp_path / "scan.csv"
    proc = run(
        "modulus", "--graph", g1_file, "--sides", "left-right",
        "--p-grid", "1", "--out", out,
    )
    rep = report_of(proc)
    assert rep["tool"] == "pillowspace" and rep["version"]
    assert "wall_clock_s" in rep and "config" in rep
    assert rep["input_sha256"]["graph"]
    head = out.read_text().splitlines()[:5]
    assert head[0].startswith("# pillowspace")
    assert any("input sha256" in ln for ln in head)
    assert any(ln.startswith("# seed:") for ln in head)


# ---------------------------------------------------------------------------
# the report every command prints


REPORT_KEYS = {
    "tool", "version", "command", "config", "seed", "wall_clock_s", "profile",
    "exit_code", "input_sha256", "outputs",
}

# every subcommand and mode, at level <= 2 (ball mode needs level 3 for two
# radii); --out comes last
REPORT_CASES = {
    "build": ["build", "-n", "1", "--out", "g.json"],
    "verify": ["verify", "counts", "1..2", "--out", "counts.json"],
    "modulus": ["modulus", "--graph", "g1.json", "--sides", "left-right",
                "--p-grid", "1,2", "--out", "scan.csv"],
    "measure-pushforward": ["measure", "pushforward", "--level", "2", "--out", "pf.csv"],
    "measure-ratios": ["measure", "ratios", "--level", "2", "--out", "r.csv"],
    "measure-dimension-box": ["measure", "dimension", "--mode", "box", "--levels", "1..2",
                              "--out", "box.csv"],
    "measure-dimension-ball": ["measure", "dimension", "--mode", "ball", "--level", "3",
                               "--samples", "5", "--seed", "1", "--out", "ball.csv"],
    "metric-symmetrize": ["metric", "symmetrize", "--in", "m2.bin", "--out", "s.bin"],
    "metric-blowup-internal": ["metric", "blowup", "--level-from", "2", "--prefix", "5",
                               "--out", "bi.bin"],
    "metric-blowup-ambient": ["metric", "blowup", "--mode", "ambient", "--in", "m2.bin",
                              "--prefix", "5", "--out", "ba.bin"],
    "metric-distortion": ["metric", "distortion", "--in1", "m2.bin", "--in2", "m2.bin",
                          "--samples", "50", "--seed", "2", "--out", "d.csv"],
    "metric-quotient-check": ["metric", "quotient-check", "--level", "2", "--out", "q.json"],
    "metric-cover-check": ["metric", "cover-check", "--level", "2", "--center", "4,4",
                           "--radius", "1", "--out", "c.json"],
    "metric-pi-diagnostic": ["metric", "pi-diagnostic", "--level", "2", "--trials", "5",
                             "--seed", "3", "--out", "pi.csv"],
}
OUT_REQUIRED = {"build", "metric-symmetrize", "metric-blowup-internal", "metric-blowup-ambient"}


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["build", "-n", "1", "--out", "g1.json"]) == 0
    assert cli.main(["metric", "symmetrize", "--level", "2", "--out", "m2.bin"]) == 0
    capsys.readouterr()
    return tmp_path


def in_process_report(argv, capsys):
    code = cli.main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert code == rep["exit_code"] == 0
    return rep


@pytest.mark.parametrize("name", list(REPORT_CASES))
def test_report_contract(name, workdir, capsys):
    argv = REPORT_CASES[name]
    rep = in_process_report(argv, capsys)
    assert REPORT_KEYS <= rep.keys()
    assert set(rep["profile"]) == {"handler_s", "write_s"}
    assert all(s >= 0 for s in rep["profile"].values())
    out = workdir / argv[-1]
    assert rep["outputs"] == {argv[-1]: hashlib.sha256(out.read_bytes()).hexdigest()}
    if name not in OUT_REQUIRED:
        out.unlink()
        before = sorted(os.listdir(workdir))
        rep = in_process_report(argv[:-2], capsys)
        assert rep["outputs"] == {}
        assert sorted(os.listdir(workdir)) == before


def test_modulus_report_gives_stop_reasons(workdir, capsys):
    rep = in_process_report(REPORT_CASES["modulus"], capsys)
    assert rep["stop"] == ["exact", "exact"]
    assert rep["backoffs"] == [0, 0]
    assert len(rep["rows"]) == 2
    argv = ["modulus", "--graph", "g1.json", "--sides", "left-right", "--p-grid", "1,2,3"]
    rep = in_process_report(argv, capsys)
    assert rep["stop"] == ["exact", "exact", "converged"]
    assert rep["backoffs"] == [0, 0, 0]
    assert len(rep["rows"]) == 3


def test_modulus_report_gives_the_solved_vertex_counts(workdir, capsys):
    # G_1 has 10 vertices; its flip and its top-bottom mirror fix the left
    # and right faces and leave 6 orbits, for every exponent
    rep = in_process_report(REPORT_CASES["modulus"], capsys)
    assert rep["solved_vertices"] == [6, 6]
    assert len(rep["rows"]) == 2


# every input file is read through one helper: missing or damaged, it exits 1
# and names the file; a bad argument exits 64 whether the CLI or the library
# catches it
READ_CASES = {
    "symmetrize-in": (["metric", "symmetrize", "--in", "{}", "--out", "s.bin"], "metric"),
    "blowup-in": (["metric", "blowup", "--mode", "ambient", "--in", "{}", "--prefix", "5",
                   "--out", "b.bin"], "metric"),
    "distortion-in1": (["metric", "distortion", "--in1", "{}", "--in2", "m2.bin",
                        "--samples", "10", "--seed", "1"], "metric"),
    "distortion-in2": (["metric", "distortion", "--in1", "m2.bin", "--in2", "{}",
                        "--samples", "10", "--seed", "1"], "metric"),
    "modulus-graph": (["modulus", "--graph", "{}", "--sides", "left-right"], "graph"),
}
EXIT_TABLE = {
    "box-one-level": (["measure", "dimension", "--mode", "box", "--levels", "3"], 64, None),
    "distortion-two-levels": (["metric", "distortion", "--in1", "m1.bin", "--in2", "m2.bin",
                               "--samples", "10", "--seed", "1"], 64, None),
    "distortion-degenerate": (["metric", "distortion", "--in1", "m1.bin", "--in2", "m1.bin",
                               "--samples", "1", "--seed", "0"], 64, None),
}
for _name, (_argv, _kind) in READ_CASES.items():
    for _damage in ("missing", "truncated"):
        _path = f"{_damage}.{'json' if _kind == 'graph' else 'bin'}"
        EXIT_TABLE[f"{_name}-{_damage}"] = (
            [a.format(_path) for a in _argv], 1, f"cannot read {_kind} file {_path}: ")


@pytest.mark.parametrize("name", list(EXIT_TABLE))
def test_exit_code_table(name, workdir, capsys):
    argv, code, message = EXIT_TABLE[name]
    assert cli.main(["metric", "symmetrize", "--level", "1", "--out", "m1.bin"]) == 0
    for damaged, whole in (("truncated.bin", "m2.bin"), ("truncated.json", "g1.json")):
        (workdir / damaged).write_bytes((workdir / whole).read_bytes()[:-5])
    capsys.readouterr()
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert not out and len(lines) == 1 and lines[0].startswith("pillowspace: error: ")
    if message:
        assert lines[0].startswith("pillowspace: error: " + message)


# ---------------------------------------------------------------------------
# the option contract: every subcommand's parsed namespace, with each shared
# option (--out, --seed, --policy, --level) at its default and given; the
# parser loads only the standard library, so it runs in this process

METRIC = {"command": "metric"}
OPTION_CONTRACT = [
    ("build -n 2 --out g.json",
     {"command": "build", "level": 2, "policy": "on", "out": "g.json", "format": None}),
    ("build --level 2 --policy off --out g.bin --format binary",
     {"command": "build", "level": 2, "policy": "off", "out": "g.bin", "format": "binary"}),
    ("verify counts",
     {"command": "verify", "suite": "counts", "levels": None, "policy": "on", "seed": 0,
      "tol": 1e-6, "out": None}),
    ("verify covering 1..3 --seed 7 --policy off --tol 0.001 --out c.json",
     {"command": "verify", "suite": "covering", "levels": "1..3", "policy": "off", "seed": 7,
      "tol": 0.001, "out": "c.json"}),
    ("modulus --graph g.bin --sides left-right",
     {"command": "modulus", "graph": "g.bin", "sides": "left-right",
      "p_grid": "1,1.5,2,2.0959,2.5,3", "tol": 1e-6, "out": None}),
    ("modulus --graph g.bin --sides top-bottom --p-grid 1,2 --tol 0.01 --out m.csv",
     {"command": "modulus", "graph": "g.bin", "sides": "top-bottom", "p_grid": "1,2",
      "tol": 0.01, "out": "m.csv"}),
    ("measure pushforward --level 2",
     {"command": "measure", "subcommand": "pushforward", "level": 2, "out": None}),
    ("measure ratios --level 3 --out r.csv",
     {"command": "measure", "subcommand": "ratios", "level": 3, "out": "r.csv"}),
    ("measure dimension --mode box --levels 1..3",
     {"command": "measure", "subcommand": "dimension", "mode": "box", "levels": "1..3",
      "level": None, "samples": None, "seed": None, "policy": "on", "out": None}),
    ("measure dimension --mode ball --level 3 --samples 5 --seed 1 --policy off --out d.csv",
     {"command": "measure", "subcommand": "dimension", "mode": "ball", "levels": None,
      "level": 3, "samples": 5, "seed": 1, "policy": "off", "out": "d.csv"}),
    ("metric symmetrize --level 2 --out s.bin",
     {**METRIC, "subcommand": "symmetrize", "infile": None, "level": 2, "policy": "on",
      "out": "s.bin"}),
    ("metric symmetrize --in m.bin --policy off --out s.bin",
     {**METRIC, "subcommand": "symmetrize", "infile": "m.bin", "level": None, "policy": "off",
      "out": "s.bin"}),
    ("metric blowup --level-from 2 --prefix 5 --out b.bin",
     {**METRIC, "subcommand": "blowup", "infile": None, "level_from": 2, "policy": "on",
      "prefix": "5", "mode": "internal", "normalization": "none", "out": "b.bin"}),
    ("metric blowup --mode ambient --in m.bin --prefix 5 --normalization diameter"
     " --policy off --out b.bin",
     {**METRIC, "subcommand": "blowup", "infile": "m.bin", "level_from": None, "policy": "off",
      "prefix": "5", "mode": "ambient", "normalization": "diameter", "out": "b.bin"}),
    ("metric distortion --in1 a.bin --in2 b.bin --samples 10",
     {**METRIC, "subcommand": "distortion", "in1": "a.bin", "in2": "b.bin", "samples": 10,
      "seed": None, "out": None}),
    ("metric distortion --in1 a.bin --in2 b.bin --samples 10 --seed 2 --out d.csv",
     {**METRIC, "subcommand": "distortion", "in1": "a.bin", "in2": "b.bin", "samples": 10,
      "seed": 2, "out": "d.csv"}),
    ("metric quotient-check --level 2",
     {**METRIC, "subcommand": "quotient-check", "level": 2, "policy": "on", "out": None}),
    ("metric quotient-check --level 2 --policy off --out q.json",
     {**METRIC, "subcommand": "quotient-check", "level": 2, "policy": "off", "out": "q.json"}),
    ("metric cover-check --level 2 --center 4,4 --radius 1",
     {**METRIC, "subcommand": "cover-check", "level": 2, "policy": "on", "center": "4,4",
      "radius": 1, "c": 5, "samples": None, "seed": None, "out": None}),
    ("metric cover-check --level 3 --samples 9 --seed 11 --c 3 --policy off --out c.json",
     {**METRIC, "subcommand": "cover-check", "level": 3, "policy": "off", "center": None,
      "radius": None, "c": 3, "samples": 9, "seed": 11, "out": "c.json"}),
    ("metric pi-diagnostic --level 2 --trials 5",
     {**METRIC, "subcommand": "pi-diagnostic", "level": 2, "policy": "on", "p": 2.0, "trials": 5,
      "seed": None, "out": None}),
    ("metric pi-diagnostic --level 2 --trials 5 --seed 3 --p 1.5 --policy off --out pi.csv",
     {**METRIC, "subcommand": "pi-diagnostic", "level": 2, "policy": "off", "p": 1.5, "trials": 5,
      "seed": 3, "out": "pi.csv"}),
]


@pytest.mark.parametrize("argv, want", OPTION_CONTRACT, ids=[a for a, _ in OPTION_CONTRACT])
def test_option_contract(argv, want):
    got = vars(cli.build_parser().parse_args(argv.split()))
    got.pop("handler")
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


# a bad value of a shared option, or a missing required --out or --level
OPTION_REFUSALS = [
    "verify counts --seed x",
    "measure dimension --mode box --seed x",
    "metric symmetrize --level 2 --seed x --out s.bin",
    "metric distortion --in1 a --in2 b --samples 1 --seed x",
    "metric cover-check --level 2 --seed x",
    "metric pi-diagnostic --level 2 --trials 1 --seed x",
    "build -n 2 --policy maybe --out g.json",
    "verify counts --policy maybe",
    "measure dimension --mode box --policy maybe",
    "metric symmetrize --level 2 --policy maybe --out s.bin",
    "metric blowup --prefix 5 --policy maybe --out b.bin",
    "metric quotient-check --level 2 --policy maybe",
    "metric cover-check --level 2 --policy maybe",
    "metric pi-diagnostic --level 2 --trials 1 --policy maybe",
    "build -n 2",
    "metric symmetrize --level 2",
    "metric blowup --prefix 5",
    "measure pushforward",
    "measure ratios --level x",
    "metric quotient-check",
    "metric cover-check --samples 1 --seed 0",
    "metric pi-diagnostic --trials 1",
]


@pytest.mark.parametrize("argv", OPTION_REFUSALS)
def test_option_refusals_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv.split())
    assert exc.value.code == 64
    assert "error:" in capsys.readouterr().err
