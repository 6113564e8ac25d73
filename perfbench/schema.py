"""Names and units of every metric the benchmark reports, and the work lists
they are named after.  BENCHMARK.json lists the same metrics; the self-test
checks that the two agree.
"""

WORKLOAD_NAMES = ("level5", "modulus", "exhaustive", "cli")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cmd_s.p50": "s",
    "cmd_s.tail": "s",
}

# (suite, levels, the result field counted as work done)
SUITES = (
    ("sheets", (1, 2, 3, 4), "pairs_checked"),
    ("automorphisms", (1, 2, 3, 4), "flips_checked"),
    ("adjacency-oracle", (1, 2, 3), "pairs_checked"),
    ("quotient", (1, 2, 3), "vertices_checked"),
    ("covering", (1, 2, 3), "balls_checked"),
    ("self-similar", (2, 3), "blocks_checked"),
)

# (level, p): the CLI default grid at L3 (acceptance criterion 11's grid),
# and L4 at the two exponents that have an independent oracle
SOLVES = tuple((3, p) for p in (1.0, 1.5, 2.0, 2.0959, 2.5, 3.0)) + ((4, 1.0), (4, 2.0))

CLI_COMMANDS = (
    "build_json", "build_binary", "verify", "modulus", "measure_ratios", "measure_dimension",
    "metric_symmetrize", "metric_distortion", "metric_quotient-check", "metric_cover-check",
    "metric_pi-diagnostic",
)

LAYERS = ("bench", "words", "graphs", "measures", "modulus", "metrics", "verify", "cli")


def solve_key(level, p):
    return f"L{level}.p{p:g}"


def _per_layer():
    s = "s"
    out = [(f"words.{f}_s", s) for f in ("all_words", "project_word", "word_square")]
    out += [("graphs.build_graph_s.L4", s), ("graphs.build_graph_s.L5", s), ("graphs.edges.L5", "count")]
    for fmt in ("json", "binary"):
        out += [(f"graphs.write_graph_{fmt}_s.L5", s), (f"graphs.read_graph_s.{fmt}.L5", s),
                (f"graphs.bytes.{fmt}.L5", "B")]
    out += [(f"graphs.{f}_s", s) for f in ("bfs_row", "is_automorphism", "prefix_subgraph")]
    out += [("measures.ball_dimension_estimate_s.L5", s), ("measures.uniform_s.L5", s),
            ("measures.pushforward_x_s.L5", s), ("measures.middle_third_ratios_s.L5", s),
            ("measures.tile_doubling_check_s.L4", s)]
    for suite, _levels, _field in SUITES:
        out += [(f"verify.run_suite_s.{suite}", s), (f"verify.checks.{suite}", "count")]
    for n, p in SOLVES:
        key = solve_key(n, p)
        out += [(f"modulus.solve_s.{key}", s), (f"modulus.iterations.{key}", "count"),
                (f"modulus.active_paths.{key}", "count"), (f"modulus.gap_rel.{key}", "ratio")]
    out += [("modulus.converged_ratio", "ratio"), ("modulus.from_graph_s.L3", s),
            ("modulus.from_graph_s.L4", s), ("modulus.mincut_oracle_s.L4", s),
            ("modulus.effective_conductance_s.L4", s)]
    out += [(f"metrics.{f}", s) for f in (
        "graph_metric_s.L3", "symmetrize_s.L3", "write_metric_matrix_s.L3", "read_metric_matrix_s.L3",
        "internal_block_metric_s", "qs_distortion_s", "lipschitz_quotient_check_s", "cover_preimage_s")]
    out += [("cli.import_s", s)] + [(f"cli.handler_s.{c}", s) for c in CLI_COMMANDS]
    out += [("cli.bytes_written", "B"), ("trace.wall_s", s), ("trace.spans", "count")]
    out += [(f"trace.self_s.{layer}", s) for layer in LAYERS]
    return dict(out)


PER_LAYER = _per_layer()
