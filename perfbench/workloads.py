"""The four benchmark workloads.

Each workload has a one-off warm-up (one small call per layer, so lazy
imports such as scipy.sparse or HiGHS are paid before timing), a set-up that
builds its fixtures and is repeated, optional oracle values computed once
untimed, and a pass: a fixed batch of tasks whose wall time is measured.
All seeded inputs derive from the workload seed.

- level5: the large working set (10^5 tiles, about 200 MB of Python
  objects, above the last-level cache).  Graph build, persistence and BFS.
- modulus: the p-modulus solver on fixed L3/L4 networks built in set-up, so
  a graph change moves only setup_s here.
- exhaustive: pure-Python oracles, Fraction arithmetic and dense 1000 x 1000
  metrics on small levels; the working set fits in cache.
- cli: short CLI commands as subprocesses, where interpreter start-up,
  import, argparse, hashing and file writers dominate each latency.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import pillowspace as ps
from pillowspace.verify import run_suite

import oracles as O
from recorder import host_slowness
from schema import CLI_COMMANDS, SOLVES, SUITES, solve_key


def _sides(g):
    return (frozenset(ps.boundary_face(g, "left")), frozenset(ps.boundary_face(g, "right")))


class Workload:
    name = ""
    reference_pass_s = 1.0  # one pass at the seed commit, reference box at rest
    min_passes = 1
    probe_during_calls = True  # see recorder.py

    def __init__(self, seed, work):
        self.seed = seed
        self.work = Path(work)
        self.rng = random.Random(seed)

    def probe(self):
        """The host's slowness now, for scaling times to reference seconds."""
        return host_slowness()

    def warm_up(self, rec):
        pass

    def setup(self, rec):
        return None

    def oracle_values(self, rec, fx):
        """Expected values the checks need, computed once after set-up, untimed."""
        return fx

    def run_pass(self, rec, fx, k):
        raise NotImplementedError

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


class Level5(Workload):
    name = "level5"
    reference_pass_s = 11.0

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.centres = self.rng.sample(range(10**5), 10)
        self.flips = ["".join(self.rng.choice("01") for _ in range(5)) for _ in range(20)]
        self.prefixes = list(ps.ALPHABET)
        self.rng.shuffle(self.prefixes)

    def warm_up(self, rec):
        with rec.task("warm-up"):
            g1 = rec.call("graphs.build_graph_s.L1", ps.build_graph, 1)
            g2 = rec.call("graphs.build_graph_s.L2", ps.build_graph, 2)
            for fmt, write in (("json", ps.write_graph_json), ("binary", ps.write_graph_binary)):
                path = self.work / f"warm.{fmt}"
                rec.call(f"graphs.write_graph_{fmt}_s.L1", write, g1, path)
                back = rec.call(f"graphs.read_graph_s.{fmt}.L1", ps.read_graph, path)
                rec.check("round-trip edges", lambda: back.edges == g1.edges)
            rec.call("graphs.bfs_row_s.L1", ps.graphs.bfs_row, g1, 0)
            rec.call("measures.ball_dimension_estimate_s.L2", ps.ball_dimension_estimate,
                     g2, 2, self.seed, radii_exponents=[0, 1])
            ok = rec.call("graphs.is_automorphism_s.L1",
                          lambda: ps.is_automorphism(g1, ps.flip_permutation(g1, "1")))
            rec.check("flip is an automorphism", lambda: ok)
            rec.call("graphs.prefix_subgraph_s.L2", ps.prefix_subgraph, g2, "3", g1)

    def setup(self, rec):
        with rec.task("reference"):
            ref4 = rec.call("graphs.build_graph_s.L4", ps.build_graph, 4)
            rec.check("L4 counts", lambda: O.graph_counts_ok(4, ref4.n_vertices, len(ref4.edges)))
            return ref4

    def run_pass(self, rec, ref4, k):
        g5 = None
        with rec.task("build"):
            g5 = rec.call("graphs.build_graph_s.L5", ps.build_graph, 5)
            rec.check("10^5 vertices, 250576 edges",
                      lambda: O.graph_counts_ok(5, g5.n_vertices, len(g5.edges)))
            rec.count("graphs.edges.L5", len(g5.edges))
        if g5 is None:
            return
        with rec.task("persist"):
            for fmt, write, suffix in (("json", ps.write_graph_json, "json"),
                                       ("binary", ps.write_graph_binary, "bin")):
                path = self.work / f"g5.{suffix}"
                rec.call(f"graphs.write_graph_{fmt}_s.L5", write, g5, path)
                rec.count(f"graphs.bytes.{fmt}.L5", path.stat().st_size)
            for fmt, suffix in (("json", "json"), ("binary", "bin")):
                back = rec.call(f"graphs.read_graph_s.{fmt}.L5", ps.read_graph, self.work / f"g5.{suffix}")
                rec.check(f"{fmt} round-trip is identical",
                          lambda: (back.level, back.policy, back.edges) == (5, g5.policy, g5.edges))
                del back
        with rec.task("bfs"):
            ends = []  # edge endpoint arrays for the certificate, built untimed on first use

            def edge_ends():
                if not ends:
                    ends.extend(np.array([e[:2] for e in g5.edges], dtype=np.int64).T)
                return ends

            for c in self.centres:
                row = rec.call("graphs.bfs_row_s", ps.graphs.bfs_row, g5, c)
                rec.check("BFS distance certificate",
                          lambda: O.bfs_row_ok(row, c, *edge_ends(), g5.n_vertices))
        with rec.task("ball"):
            fit = rec.call("measures.ball_dimension_estimate_s.L5",
                           ps.ball_dimension_estimate, g5, 12, self.seed)
            rec.check("ball slope near log 10 / log 3", lambda: O.ball_slope_ok(fit.estimate))
        with rec.task("flips"):
            probe = random.Random(self.seed + k).sample(range(g5.n_vertices), 16)

            def flip_is_automorphism(bits):
                perm = ps.flip_permutation(g5, bits)
                return perm, ps.is_automorphism(g5, perm)

            for bits in self.flips:
                perm, ok = rec.call("graphs.is_automorphism_s", flip_is_automorphism, bits)
                rec.check("flip is an automorphism", lambda: ok)
                rec.check("flip permutation agrees with words.flip", lambda: all(
                    perm[i] == int(ps.flip(g5.words[i], bits)) for i in probe))
        with rec.task("prefixes"):
            for prefix in self.prefixes:
                blk = rec.call("graphs.prefix_subgraph_s", ps.prefix_subgraph, g5, prefix, ref4)
                rec.check("block certified against L4", lambda: (
                    blk.level == 4 and blk.start == int(prefix) * 10**4
                    and len(blk.edges) == O.EDGES[4]))


# ---------------------------------------------------------------------------


class Modulus(Workload):
    name = "modulus"
    reference_pass_s = 18.0
    TOL = 1e-6  # the solves take no seeded input: the work is the same at every seed

    def _solve(self, rec, name, net, src, tgt, p):
        return rec.call(name, lambda: ps.solve_modulus(ps.ModulusProblem(net, src, tgt, p, self.TOL)))

    def warm_up(self, rec):
        with rec.task("warm-up"):
            g1 = rec.call("graphs.build_graph_s.L1", ps.build_graph, 1)
            net = rec.call("modulus.from_graph_s.L1", ps.Network.from_graph, g1)
            src, tgt = _sides(g1)
            for p in (1.0, 2.0, 3.0):
                res = self._solve(rec, f"modulus.solve_s.{solve_key(1, p)}", net, src, tgt, p)
                rec.check("pinned L1 value", lambda: O.pinned_modulus_ok(1, p, res.value))
            rec.call("modulus.mincut_oracle_s.L1", ps.mincut_oracle, net, src, tgt)
            rec.call("modulus.effective_conductance_s.L1", ps.effective_conductance, net, src, tgt)

    def setup(self, rec):
        fx = {}
        with rec.task("networks"):
            for n in (3, 4):
                g = rec.call(f"graphs.build_graph_s.L{n}", ps.build_graph, n)
                rec.check(f"L{n} counts", lambda: O.graph_counts_ok(n, g.n_vertices, len(g.edges)))
                net = rec.call(f"modulus.from_graph_s.L{n}", ps.Network.from_graph, g)
                fx[n] = (net, *_sides(g))
        return fx

    def oracle_values(self, rec, fx):
        with rec.task("oracles"):
            fx["cut4"] = rec.call("modulus.mincut_oracle_s.L4", ps.mincut_oracle, *fx[4])
            rec.check("L4 min cut is 92", lambda: fx["cut4"] == O.MINCUT_L4)
            fx["cond4"] = rec.call("modulus.effective_conductance_s.L4",
                                   ps.effective_conductance, *fx[4])
        return fx

    def run_pass(self, rec, fx, k):
        values = {3: {}, 4: {}}  # level -> {p: value}
        for n, p in SOLVES:
            key = solve_key(n, p)
            with rec.task(key):
                res = self._solve(rec, f"modulus.solve_s.{key}", *fx[n], p)
                rec.count(f"modulus.iterations.{key}", res.iterations)
                rec.count(f"modulus.active_paths.{key}", len(res.active_paths))
                rec.count(f"modulus.gap_rel.{key}", res.value_upper / res.value_lower - 1)
                rec.count("modulus.converged", bool(res.converged))
                rec.check("converged with gap <= 5e-6",
                          lambda: O.certified(res.converged, res.value_lower, res.value_upper))
                rec.check("pinned value", lambda: O.pinned_modulus_ok(n, p, res.value))
                if (n, p) == (4, 1.0):
                    rec.check("equals mincut_oracle", lambda: O.matches_oracle(res.value, fx["cut4"]))
                if (n, p) == (4, 2.0):
                    rec.check("equals effective_conductance",
                              lambda: O.matches_oracle(res.value, fx["cond4"]))
                values[n][p] = res.value
                if len(values[n]) == sum(1 for m, _ in SOLVES if m == n):
                    rec.check("value is monotone in p", lambda: not O.monotone_breaks(values[n]))


# ---------------------------------------------------------------------------


class Exhaustive(Workload):
    name = "exhaustive"
    reference_pass_s = 8.5

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.block_prefix = self.rng.choice(ps.ALPHABET)
        self.cover_cases = [((self.rng.randrange(27), self.rng.randrange(27)), self.rng.randint(0, 3))
                            for _ in range(8)]
        self.metric_rows = self.rng.sample(range(1000), 3)

    def warm_up(self, rec):
        with rec.task("warm-up"):
            for suite, _levels, _field in SUITES:
                rep = rec.call(f"verify.run_suite_s.{suite}.L1", run_suite, suite, [1], seed=self.seed)
                rec.check("suite ok", lambda: rep.ok)
            g1 = rec.call("graphs.build_graph_s.L1", ps.build_graph, 1)
            g2 = rec.call("graphs.build_graph_s.L2", ps.build_graph, 2)
            m1 = rec.call("measures.uniform_s.L1", ps.TileMeasure.uniform, 1)
            w1 = rec.call("measures.pushforward_x_s.L1", ps.pushforward_x, m1)
            rec.call("measures.middle_third_ratios_s.L1", ps.middle_third_ratios, w1)
            rec.call("measures.tile_doubling_check_s.L1", ps.tile_doubling_check, m1, g1)
            d1 = rec.call("metrics.graph_metric_s.L1", ps.graph_metric, g1)
            rec.call("metrics.symmetrize_s.L1", ps.symmetrize, d1)
            path = self.work / "warm.bin"
            rec.call("metrics.write_metric_matrix_s.L1", ps.write_metric_matrix, d1, path)
            rec.call("metrics.read_metric_matrix_s.L1", ps.read_metric_matrix, path)
            rec.call("metrics.internal_block_metric_s.L2", ps.internal_block_metric, g2, "3")
            rec.call("metrics.qs_distortion_s.L1", ps.qs_distortion, d1, d1, 50, self.seed)
            rec.call("metrics.lipschitz_quotient_check_s.L1", ps.lipschitz_quotient_check, g1)
            rec.call("metrics.cover_preimage_s.L1", ps.cover_preimage, g1, (1, 1), 0)
            words = rec.call("words.all_words_s.L1", ps.all_words, 1)
            rec.call("words.project_word_s.L1", lambda: Counter(map(ps.project_word, words)))
            rec.call("words.word_square_s.L1", lambda: [ps.word_square(w) for w in words])

    def setup(self, rec):
        with rec.task("fixtures"):
            fx = {}
            for n in (3, 4):
                g = rec.call(f"graphs.build_graph_s.L{n}", ps.build_graph, n)
                rec.check(f"L{n} counts", lambda: O.graph_counts_ok(n, g.n_vertices, len(g.edges)))
                fx[n] = g
            fx["m4"] = rec.call("measures.uniform_s.L4", ps.TileMeasure.uniform, 4)
            fx["w4"] = rec.call("words.all_words_s.L4", ps.all_words, 4)
            return fx

    def run_pass(self, rec, fx, k):
        g3, g4 = fx[3], fx[4]
        with rec.task("suites"):
            for suite, levels, field in SUITES:
                # The L4 sheets are 8 seeded draws of 16, so their number (5 to 8),
                # and with it the suite's cost, would follow the seed; a fixed
                # suite seed keeps the work the same at every workload seed.
                seed = 0 if suite == "sheets" else self.seed
                rep = rec.call(f"verify.run_suite_s.{suite}", run_suite, suite, levels, seed=seed)
                rec.check("suite reports ok", lambda: rep.ok)
                rec.count(f"verify.checks.{suite}", sum(r.get(field, 0) for r in rep.results))
            # the pinned protocol of acceptance criterion 9 (suite seed 0)
            rep = rec.call("verify.run_suite_s.covering", run_suite, "covering", [1, 2, 3], seed=0)
            rec.check("seed-0 covering overlap is {1, 1, 2}", lambda: rep.ok and [
                r["worst_overlap"] for r in rep.results] == O.COVER_OVERLAP_SEED0)
        with rec.task("measures"):
            m5 = rec.call("measures.uniform_s.L5", ps.TileMeasure.uniform, 5)
            w5 = rec.call("measures.pushforward_x_s.L5", ps.pushforward_x, m5)
            rec.check("243 intervals of total mass 1",
                      lambda: len(w5.weights) == 3**5 and w5.total() == 1)
            rows, skipped = rec.call("measures.middle_third_ratios_s.L5", ps.middle_third_ratios, w5)
            rec.check("every middle third is exactly 2/5", lambda: not skipped
                      and len(rows) == (3**5 - 1) // 2 and all(r.ratio == O.MIDDLE_THIRD for r in rows))
            rep = rec.call("measures.tile_doubling_check_s.L4", ps.tile_doubling_check, fx["m4"], g4)
            rec.check("uniform measure doubles by exactly 10",
                      lambda: not rep.non_doubling and rep.max_ratio == 10)
        with rec.task("metrics"):
            d3 = rec.call("metrics.graph_metric_s.L3", ps.graph_metric, g3)
            rec.check("rows equal BFS rows", lambda: all(
                np.array_equal(d3.entries[i], ps.graphs.bfs_row(g3, i)) for i in self.metric_rows))
            s3 = rec.call("metrics.symmetrize_s.L3", ps.symmetrize, d3)
            rec.check("graph metric is flip-invariant", lambda: np.array_equal(s3.entries, d3.entries))
            path = self.work / "m3.bin"
            rec.call("metrics.write_metric_matrix_s.L3", ps.write_metric_matrix, s3, path)
            back = rec.call("metrics.read_metric_matrix_s.L3", ps.read_metric_matrix, path)
            rec.check("metric file round-trip", lambda: np.array_equal(back.entries, s3.entries))
            ib = rec.call("metrics.internal_block_metric_s", ps.internal_block_metric, g4, self.block_prefix)
            rec.check("block metric equals the L3 metric", lambda: np.array_equal(ib.entries, d3.entries))
            prof = rec.call("metrics.qs_distortion_s", ps.qs_distortion, d3, ib, 2000, self.seed)
            rec.check("identity profile stays inside its bins", lambda: (
                prof.samples_used + prof.samples_skipped == 2000 and all(
                    lo - 1e-12 <= mx <= hi + 1e-12 for lo, hi, c, mx, _e in prof.rows() if c)))
            rep = rec.call("metrics.lipschitz_quotient_check_s", ps.lipschitz_quotient_check, g3)
            rec.check("projected balls are grid balls", lambda: rep.ok and rep.witness is None)
            for centre, radius in self.cover_cases:
                cov = rec.call("metrics.cover_preimage_s", ps.cover_preimage, g3, centre, radius, c=5)
                rec.check("cover is uniform, disjoint and complete", lambda: (
                    cov.ok and cov.preimage_covered and cov.max_overlap <= O.COVER_OVERLAP_CAP))
        with rec.task("words"):
            words = rec.call("words.all_words_s", ps.all_words, 5)
            rec.check("10^5 words, index of w is int(w)", lambda: len(words) == 10**5 and all(
                int(w) == i for i, w in enumerate(words)))
            fibres = rec.call("words.project_word_s", lambda: Counter(map(ps.project_word, words)))
            rec.check("9^5 fibres of size 2^#centres", lambda: len(fibres) == 9**5 and all(
                c == 2 ** u.count("5") for u, c in fibres.items()))
            squares = rec.call("words.word_square_s", lambda: [ps.word_square(w) for w in fx["w4"]])
            rec.check("squares invert to the projected grid word", lambda: all(
                ps.grid_word_of_square(4, sq.x, sq.y) == ps.project_word(w)
                for w, sq in zip(fx["w4"], squares)))


# ---------------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    reference_pass_s = 3.7
    min_passes = 2  # outputs are compared across passes
    probe_during_calls = False  # a probe would take the command's CPU
    INTERPRETER_REF_S = 0.05  # a bare interpreter start on the reference host

    def __init__(self, seed, work):
        super().__init__(seed, work)
        s = str(seed)
        args = {
            "build_json": ["build", "-n", "3", "--out", "g3.json"],
            "build_binary": ["build", "-n", "3", "--out", "g3.bin"],
            "verify": ["verify", "counts", "1..3", "--out", "counts.json"],
            "modulus": ["modulus", "--graph", "g3.bin", "--sides", "left-right",
                        "--p-grid", "1,2", "--out", "modulus.csv"],
            "measure_ratios": ["measure", "ratios", "--level", "4", "--out", "ratios.csv"],
            "measure_dimension": ["measure", "dimension", "--mode", "ball", "--level", "3",
                                  "--samples", "5", "--seed", s, "--out", "dimension.csv"],
            "metric_symmetrize": ["metric", "symmetrize", "--level", "2", "--out", "m2.bin"],
            "metric_distortion": ["metric", "distortion", "--in1", "m2.bin", "--in2", "m2.bin",
                                  "--samples", "2000", "--seed", s, "--out", "distortion.csv"],
            "metric_quotient-check": ["metric", "quotient-check", "--level", "2",
                                      "--out", "quotient.json"],
            "metric_cover-check": ["metric", "cover-check", "--level", "2", "--samples", "4",
                                   "--seed", s, "--out", "cover.json"],
            "metric_pi-diagnostic": ["metric", "pi-diagnostic", "--level", "2", "--trials", "20",
                                     "--seed", s, "--out", "pi.csv"],
        }
        self.battery = [(label, args[label]) for label in CLI_COMMANDS]  # in dependency order
        self.first_hashes = {}
        self.env = dict(os.environ)
        src = str(Path(ps.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src

    def probe(self):
        """Start and stop a bare interpreter (fastest of two), over its
        reference time.  Process start-up, imports and page faults dominate a
        command here, and they track this far better than in-process code."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.work, env=self.env,
                           capture_output=True, timeout=60, check=True)
            best = min(best, time.perf_counter() - t0)
        return best / self.INTERPRETER_REF_S

    def _run(self, args):
        return subprocess.run([sys.executable, "-m", "pillowspace.cli", *args], cwd=self.work,
                              env=self.env, capture_output=True, text=True, timeout=150)

    def setup(self, rec):
        with rec.task("interpreter"):
            proc = rec.call("cli.version_s", self._run, ["--version"])
            rec.check("--version exits 0", lambda: proc.returncode == 0)

    def run_pass(self, rec, fx, k):
        written = 0
        for label, args in self.battery:
            with rec.task(label):
                proc = rec.call(f"cli.cmd_s.{label}", self._run, args)
                seconds = rec.ops[-1].raw_seconds
                if not rec.check("exit code 0", lambda: proc.returncode == 0):
                    rec.failures.append(f"{label} stderr: {proc.stderr.strip()[-300:]}")
                    continue
                report = json.loads(proc.stdout)
                handler = float(report["wall_clock_s"])
                rec.count(f"cli.handler_s.{label}", handler, seconds=True)
                rec.count("cli.import_s", seconds - handler, seconds=True)
                for name, digest in report["outputs"].items():
                    data = (self.work / name).read_bytes()
                    written += len(data)
                    rec.check(f"{name} hash matches the report",
                              lambda: hashlib.sha256(data).hexdigest() == digest)
                    if name in O.GOLDEN_SHA256:
                        rec.check(f"{name} matches the golden hash", lambda: O.golden_sha_ok(name, digest))
                    first = self.first_hashes.setdefault(name, digest)
                    rec.check(f"{name} is byte-identical across passes", lambda: digest == first)
                self._check_report(rec, label, report)
        rec.count("cli.bytes_written", written)

    def _check_report(self, rec, label, report):
        if label == "verify":
            rec.check("suite ok", lambda: report["report"]["ok"])
        elif label == "modulus":
            rec.check("pinned L3 values", lambda: all(
                row[7] and O.pinned_modulus_ok(3, row[1], row[4]) for row in report["rows"]))
        elif label == "measure_ratios":
            rec.check("ratios are 2/5", lambda: report["distinct_ratios"] == ["2/5"])
        elif label in ("metric_quotient-check", "metric_cover-check"):
            rec.check("report ok", lambda: report["report"]["ok"])

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Level5, Modulus, Exhaustive, Cli)}
