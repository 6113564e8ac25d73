"""Self-test of the benchmark's oracles: a wrong value must count as a failure.

Run with `python3 perfbench/test_oracles.py` or `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402
import schema  # noqa: E402
from recorder import Recorder, tail  # noqa: E402


def _checked(predicate):
    """(failed, attempted) after one operation whose output is checked."""
    rec = Recorder(trace=False)
    rec.call("op", lambda: None)
    rec.check("value under test", predicate)
    return rec.failed, rec.attempted


def test_perturbed_modulus_value_fails():
    for (n, p), want in O.PINNED_MODULUS.items():
        assert _checked(lambda: O.pinned_modulus_ok(n, p, want)) == (0, 1)
        assert _checked(lambda: O.pinned_modulus_ok(n, p, want * (1 + 1e-4))) == (1, 1)
    assert _checked(lambda: O.matches_oracle(O.MINCUT_L4 * (1 + 1e-5), O.MINCUT_L4)) == (1, 1)
    assert _checked(lambda: O.certified(True, 1.0, 1.0 + 1e-5)) == (1, 1)
    assert _checked(lambda: not O.monotone_breaks({1.0: 2.0, 2.0: 2.5})) == (1, 1)


def test_flipped_hash_byte_fails():
    for name, digest in O.GOLDEN_SHA256.items():
        raw = bytearray.fromhex(digest)
        raw[len(raw) // 2] ^= 0x01
        assert _checked(lambda: O.golden_sha_ok(name, digest)) == (0, 1)
        assert _checked(lambda: O.golden_sha_ok(name, raw.hex())) == (1, 1)


def test_edge_count_off_by_one_fails():
    for level, edges in O.EDGES.items():
        assert _checked(lambda: O.graph_counts_ok(level, 10**level, edges)) == (0, 1)
        assert _checked(lambda: O.graph_counts_ok(level, 10**level, edges + 1)) == (1, 1)
        assert _checked(lambda: O.graph_counts_ok(level, 10**level, edges - 1)) == (1, 1)


def test_wrong_bfs_distance_fails():
    u, v = np.array([0, 1, 2]), np.array([1, 2, 3])  # the path 0-1-2-3
    row = np.array([0, 1, 2, 3])
    assert _checked(lambda: O.bfs_row_ok(row, 0, u, v, 4)) == (0, 1)
    for wrong in ([0, 1, 2, 4], [0, 1, 1, 2], [0, 2, 3, 4]):
        assert _checked(lambda: O.bfs_row_ok(np.array(wrong), 0, u, v, 4)) == (1, 1)


def test_ball_slope_and_raising_check_fail():
    assert _checked(lambda: O.ball_slope_ok(O.BALL_SLOPE + 0.06)) == (1, 1)
    assert _checked(lambda: 1 / 0) == (1, 1)


def test_raising_operation_fails_once_and_the_run_goes_on():
    rec = Recorder(trace=True)
    with rec.task("first"):
        rec.call("graphs.boom", lambda: 1 / 0)
        rec.call("graphs.never", lambda: None)
    with rec.task("second"):
        rec.call("graphs.fine", lambda: None)
    assert (rec.failed, rec.attempted) == (1, 2)
    with rec.task("glue"):
        raise KeyError("not inside an operation")
    assert (rec.failed, rec.attempted) == (2, 3)


def test_times_scale_by_the_probes_near_each_operation():
    rec = Recorder(trace=False, probe=lambda: 1.0)
    rec.call("op", lambda: None)
    rec.call("op", lambda: None)
    first, second = rec.ops
    first.start, first.end, second.start, second.end = 100.0, 101.0, 120.0, 121.0
    first.raw_seconds = second.raw_seconds = 1.0
    # a host twice as slow around the first call, at reference speed around the second
    rec.probes = [(99.9, 2.0), (101.01, 2.0), (110.0, 5.0), (121.01, 1.0)]
    rec.finish()
    assert (first.seconds, second.seconds) == (0.5, 1.0)


def test_tail_percentile():
    assert tail(range(1, 101)) == (90, 90.0, 100)
    assert tail(range(1, 21)) == (10, 50.0, 20)
    assert tail(range(1, 20)) == (19, 100.0, 19)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_benchmark_json_matches_the_schema():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(schema.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == schema.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == schema.PER_LAYER


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} oracle self-tests passed")
