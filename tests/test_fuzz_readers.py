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
from pillowspace import graphs as G

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
def damage(draw, data, hot=None):
    """A truncation, an extension or a few overwritten bytes of data.

    Half the writes land in hot, a range of positions (default the first 64
    bytes: the headers, where the sizes and levels live)."""
    kind = draw(st.sampled_from(["truncate", "extend", "mutate"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=64))
    out = bytearray(data)
    hot = st.integers(0, min(len(data), 64) - 1) if hot is None else st.sampled_from(hot)
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


def _reading(read, path):
    """What read makes of path: the graph as plain values, or the error."""
    try:
        g = read(path)
    except ValueError as exc:
        return str(exc)
    return g.level, g.policy, *(a.tolist() for a in g.edge_arrays())


@st.composite
def edge_rewrite(draw, data):
    """One to three bytes of data's edge block overwritten with digits or type
    letters, which most often leaves the file compact."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(data.index(b'"edges":['), len(data) - 1))] = draw(
            st.sampled_from(b"0123456789HVS"))
    return bytes(out)


@settings(deadline=None, max_examples=300, database=None)
@given(st.data())
def test_damaged_json_reads_as_json_load_reads_it(originals, tmp_path_factory, data):
    # the numpy path must read exactly what the json.load path reads, and
    # leave every error to it
    original = originals["graph json", data.draw(st.sampled_from([1, 2]))]
    edges = range(original.index(b'"edges":['), len(original))
    path = tmp_path_factory.getbasetemp() / "damaged-cross.json"
    path.write_bytes(data.draw(damage(original, hot=edges) | edge_rewrite(original)))
    assert _reading(ps.read_graph_json, path) == _reading(G._read_json_load, path)


def test_rewritten_compact_json_reads_on_the_numpy_path(originals, tmp_path, monkeypatch):
    # a compact file the writer did not make: the first edge of G_1 retyped
    original = originals["graph json", 1]
    path = tmp_path / "retyped.json"
    path.write_bytes(original.replace(b'[0,2,"V"]', b'[0,2,"S"]'))
    assert path.read_bytes() != original
    want = _reading(G._read_json_load, path)
    monkeypatch.setattr(G, "_load_json", None)  # the numpy path calls no json.load
    assert _reading(ps.read_graph_json, path) == want
    assert want[4][0] == 2  # read as a seam


FIRST_EDGE = b'[0,2,"V"]'  # of G_1
EDGE_BLOCK_CASES = {
    "25-digit index": lambda d: d.replace(FIRST_EDGE, b"[" + b"1" * 25 + b',2,"V"]'),
    "25-digit zero-padded index": lambda d: d.replace(FIRST_EDGE, b"[" + b"0" * 24 + b'2,2,"V"]'),
    "fourth number": lambda d: d.replace(FIRST_EDGE, b'[0,2,"V",1]'),
    "number missing": lambda d: d.replace(FIRST_EDGE, b'[0,"V"]'),
    "empty edge list": lambda d: d[:d.index(b'"edges":[') + len(b'"edges":[')] + b"]}\n",
    "lower-case type": lambda d: d.replace(FIRST_EDGE, b'[0,2,"v"]'),
}


@pytest.mark.parametrize("case", list(EDGE_BLOCK_CASES))
def test_edge_block_edge_cases_read_as_json_load_reads_them(originals, tmp_path, case):
    # where the numpy parse is loose: an index past int64 saturates, a number
    # too many or too few shifts the records, an empty block parses as no
    # numbers and an unknown letter as a space
    original = originals["graph json", 1]
    path = tmp_path / "case.json"
    path.write_bytes(EDGE_BLOCK_CASES[case](original))
    assert path.read_bytes() != original
    assert _reading(ps.read_graph_json, path) == _reading(G._read_json_load, path)


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
