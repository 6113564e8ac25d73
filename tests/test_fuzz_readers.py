"""Property tests: the three file readers fail only with ValueError.

Valid level-1 and level-2 files in each format (graph JSON, graph binary,
metric .bin) are truncated, extended and byte-mutated; reading the result
must either succeed or raise ValueError, which the CLI reports in one line.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pillowspace as ps

FORMATS = {
    "graph json": (ps.write_graph_json, ps.read_graph),
    "graph binary": (ps.write_graph_binary, ps.read_graph),
    "metric bin": (ps.write_metric_matrix, ps.read_metric_matrix),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """(format, level) -> bytes of a valid file."""
    tmp = tmp_path_factory.mktemp("originals")
    out = {}
    for level in (1, 2):
        g = ps.build_graph(level)
        for fmt, (write, _read) in FORMATS.items():
            path = tmp / f"{fmt.replace(' ', '-')}-{level}"
            write(ps.graph_metric(g) if fmt == "metric bin" else g, path)
            out[fmt, level] = path.read_bytes()
    return out


@st.composite
def damage(draw, data):
    """A truncation, an extension or a few overwritten bytes of data."""
    kind = draw(st.sampled_from(["truncate", "extend", "mutate"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=64))
    out = bytearray(data)
    # bias half the writes into the headers, where the sizes and levels live
    hot = st.integers(0, min(len(data), 64) - 1)
    for i, b in draw(st.lists(st.tuples(hot | st.integers(0, len(data) - 1),
                                        st.integers(0, 255)), min_size=1, max_size=8)):
        out[i] = b
    return bytes(out)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(deadline=None, max_examples=60, database=None)
@given(st.data())
def test_damaged_file_reads_or_raises_value_error(originals, tmp_path_factory, fmt, data):
    level = data.draw(st.sampled_from([1, 2]))
    path = tmp_path_factory.getbasetemp() / f"damaged-{fmt.replace(' ', '-')}"
    path.write_bytes(data.draw(damage(originals[fmt, level])))
    try:
        FORMATS[fmt][1](path)
    except ValueError:
        pass


@pytest.mark.parametrize("fmt", ["graph json", "graph binary"])
def test_cli_reports_damaged_graph_in_one_line(originals, tmp_path, fmt):
    path = tmp_path / "damaged"
    path.write_bytes(originals[fmt, 1][:-5])
    proc = subprocess.run(
        [sys.executable, "-m", "pillowspace.cli", "modulus", "--graph", str(path),
         "--sides", "left-right", "--out", str(tmp_path / "scan.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("pillowspace: error:")
    assert not (tmp_path / "scan.csv").exists()
