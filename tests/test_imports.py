"""Lazy package exports and per-command imports, each checked in a fresh
interpreter so that nothing this test process already loaded can hide a load."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import pillowspace as ps

# The package's exports; every one must resolve lazily.
EXPORTS = {
    "words": """ALPHABET CENTER_LETTERS GRID_LETTERS Letter LETTERS ParseError
        TriadicSquare all_words flip grid_word_of_square letter_at parse_word
        project_word section word_square""",
    "graphs": """CapacityError HORIZONTAL ReplacementGraph SEAM VERTICAL adjacency ball
        boundary_face build_graph chain_oracle_adjacency distance flip_permutation
        is_automorphism prefix_subgraph read_graph read_graph_binary read_graph_json
        write_graph_binary write_graph_json""",
    "measures": """DimensionFit DoublingReport IntervalWeights RatioRow TileMeasure
        ball_dimension_estimate box_dimension_estimate middle_third_ratios
        pushforward_x tile_doubling_check""",
    "modulus": """ModulusProblem ModulusResult Network ScanRow ScanTable conformal_scan
        effective_conductance grid_network mincut_oracle parallel_network path_network
        solve_modulus""",
    "metrics": """CoverReport DistortionProfile MetricMatrix PIDiagnostic QuotientReport
        blowup_metric cover_preimage graph_metric internal_block_metric
        lipschitz_quotient_check pi_diagnostic qs_distortion read_metric_matrix
        symmetrize write_metric_matrix""",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}
SUBMODULES = {"cli", "graphs", "measures", "metrics", "modulus", "verify", "words"}

_PRELUDE = "import json, sys\n"
_LOADED = """
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules
                        if m.startswith("pillowspace."))))
print(json.dumps("numpy" in sys.modules))
"""
_RUN_CLI = """
import contextlib, io
from pillowspace.cli import main
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    try:
        code = main(ARGV)
    except SystemExit as exc:
        code = exc.code
assert code == 0, sink.getvalue()
"""


def _run(code):
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code + _LOADED],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    submodules, numpy = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return set(submodules), numpy


def _run_cli(argv):
    return _run(_RUN_CLI.replace("ARGV", repr([str(a) for a in argv])))


def test_import_pillowspace_loads_no_submodule_and_no_numpy():
    assert _run("import pillowspace\nassert pillowspace.__version__") == (set(), False)


def test_dir_lists_the_exports_and_submodules_and_loads_neither():
    names = sorted(set(NAMES) | SUBMODULES)
    code = f"import pillowspace\nassert set({names!r}) <= set(dir(pillowspace))\n"
    assert _run(code) == (set(), False)


def test_submodule_attribute_loads_that_module():
    assert _run("import pillowspace\npillowspace.graphs.bfs_row") == ({"words", "graphs"}, True)


def test_version_loads_no_numpy_and_no_submodule():
    assert _run_cli(["--version"]) == ({"cli"}, False)


HELP_PATHS = ["", "build", "verify", "modulus", "measure", "measure pushforward",
              "measure ratios", "measure dimension", "metric", "metric symmetrize",
              "metric blowup", "metric distortion", "metric quotient-check",
              "metric cover-check", "metric pi-diagnostic"]


@pytest.mark.parametrize("path", HELP_PATHS, ids=[p or "top" for p in HELP_PATHS])
def test_help_loads_no_numpy_and_no_submodule(path):
    assert _run_cli(path.split() + ["--help"]) == ({"cli"}, False)


def test_build_loads_only_words_and_graphs(tmp_path):
    submodules, numpy = _run_cli(["build", "-n", "1", "--out", tmp_path / "g1.json"])
    assert submodules == {"cli", "words", "graphs"} and numpy


@pytest.mark.parametrize("argv", [
    ["measure", "pushforward", "--level", "2"],
    ["measure", "ratios", "--level", "2"],
    ["measure", "dimension", "--mode", "box", "--levels", "1..3"],
])
def test_graph_free_measure_commands_load_no_graphs(argv):
    submodules, _ = _run_cli(argv)
    assert submodules == {"cli", "words", "measures"}


@pytest.mark.parametrize("argv", [["verify", "counts", "1"], ["verify", "self-similar", "2"]],
                         ids=["counts", "self-similar"])
def test_verify_suite_loads_only_words_graphs_and_verify(argv):
    # self-similar certifies each block and runs no metric
    submodules, _ = _run_cli(argv)
    assert submodules == {"cli", "words", "graphs", "verify"}


def test_modulus_loads_no_measures_metrics_or_verify(tmp_path):
    path = tmp_path / "g1.bin"
    ps.write_graph_binary(ps.build_graph(1), path)
    submodules, _ = _run_cli(["modulus", "--graph", path, "--sides", "left-right",
                              "--p-grid", "2"])
    assert "modulus" in submodules
    assert not submodules & {"measures", "metrics", "verify"}


_PARITY = """
import pillowspace as ps
names = NAMES
listed = dir(ps)
assert set(names) <= set(listed) and set(SUBMODULES) <= set(listed)
assert set(ps.__all__) == set(names)
for name, module in names.items():
    space = {}
    exec(f"from pillowspace import {name}", space)
    home = sys.modules[f"pillowspace.{module}"]
    assert space[name] is getattr(ps, name) is getattr(home, name), name
star = {}
exec("from pillowspace import *", star)
assert set(names) <= set(star)
assert ps.graphs.bfs_row is sys.modules["pillowspace.graphs"].bfs_row
"""


def test_every_export_resolves_lazily():
    code = _PARITY.replace("SUBMODULES", repr(sorted(SUBMODULES))).replace("NAMES", repr(NAMES))
    submodules, _ = _run(code)
    assert submodules == set(EXPORTS)  # verify and cli export nothing at the top


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ps.no_such_name
    assert not hasattr(ps, "no_such_name")


# (module, name) imported without a use in that module: the package serves
# CapacityError from graphs
UNUSED_IMPORTS_ALLOWED = {("graphs", "CapacityError")}


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(Path(ps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                names = {alias.asname or alias.name.split(".")[0] for alias in node.names}
                unused += [(path.stem, name) for name in sorted(names - used)]
    assert set(unused) <= UNUSED_IMPORTS_ALLOWED, unused
