"""Benchmark of the pillowspace package: four workloads, oracle-checked.

Run one workload from the repository root:

    python3 perfbench/run.py --workload level5 --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
records a span around every call into the package and reports the per-layer
metrics instead.  --workload all runs every workload in its own process and
prints one table (with --trace 1 it runs each workload untraced and traced
and adds the tracing overhead).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from schema import END_TO_END, PER_LAYER, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured work, in seconds of the seed-commit reference pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and code stamp


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _tree_sha256(top):
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _llc():
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"))
    try:
        return caches[-1].read_text().strip() if caches else None
    except OSError:
        return None


def machine_stamp(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one workload in this process


def passes_for(wl, seconds):
    """Passes whose seed-commit cost is about `seconds` (the work is fixed, so
    a faster program measures a shorter time, never more work)."""
    return max(wl.min_passes, round(seconds / wl.reference_pass_s))


def measure(wl, rec, passes):
    """Warm up once, set up SETUP_REPEATS times, compute the oracle values the
    checks need (untimed), then run the timed passes."""
    from recorder import tail

    with rec.region(f"workload:{wl.name}"):
        rec.run_id = "warm-up"
        with rec.region("warm-up"):
            wl.warm_up(rec)
        fx = None
        for r in range(SETUP_REPEATS):
            rec.run_id = f"setup{r}"
            fx = None  # release the previous fixtures before building new ones
            with rec.region(rec.run_id):
                fx = wl.setup(rec)
        rec.run_id = "oracles"
        with rec.region(rec.run_id):
            fx = wl.oracle_values(rec, fx)
        rec.in_pass = True
        for k in range(passes):
            rec.run_id = f"pass{k}"
            with rec.region(rec.run_id):
                wl.run_pass(rec, fx, k)
        rec.in_pass = False
    rec.finish()
    pass_s = [rec.seconds(f"pass{k}") for k in range(passes)]
    cmds = [t.seconds for t in rec.tasks if t.in_pass] or [0.0]
    factors = [op.factor for op in rec.ops]
    tail_value, tail_pct, n = tail(cmds)
    return {
        "raw_pass_s": statistics.median(rec.raw_seconds(f"pass{k}") for k in range(passes)),
        "speed_factor": {"median": statistics.median(factors), "min": min(factors),
                         "max": max(factors), "operations": len(factors),
                         "probes": len(rec.probes)},
        "warm_s": rec.seconds("warm-up"),
        "setup_repeats_s": [rec.seconds(f"setup{r}") for r in range(SETUP_REPEATS)],
        "pass_s": pass_s,
        "wall_s": statistics.median(pass_s),
        "peak_rss_mb": wl.peak_rss_mb(),
        "cmd_s.p50": statistics.median(cmds),
        "cmd_s.tail": tail_value,
        "cmd_s.tail_percentile": tail_pct,
        "cmd_s.samples": n,
    }


def layer_metrics(rec, result):
    """Per-layer numbers of a traced run, keyed as in PER_LAYER.

    Layer names the workload never calls read 0.
    """
    values = rec.layer_times()
    for name, v in rec.counts.items():
        values[name] = statistics.median(v)
    values["modulus.converged_ratio"] = statistics.fmean(rec.counts.get("modulus.converged", [0.0]))
    values["trace.wall_s"] = result["wall_s"]
    values["trace.spans"] = len(rec.spans)
    factor = result["speed_factor"]["median"]  # spans hold raw seconds
    for layer, seconds in rec.self_times().items():
        values[f"trace.self_s.{layer}"] = seconds * factor
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}


def run_one(args, rec):
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    rec.ticks, rec.probe = wl.probe_during_calls, wl.probe
    try:
        result = measure(wl, rec, passes_for(wl, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import_s = rec.seconds("import")
    result["setup_s"] = import_s + result["warm_s"] + statistics.median(result["setup_repeats_s"])
    stamp = machine_stamp(args.seed)

    if args.trace:
        metrics = layer_metrics(rec, result)
    else:
        metrics = {name: {"value": float(result[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{args.workload:<10} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<10} {'fail_ratio':<44} {rec.failed / max(rec.attempted, 1):>14.6g} "
          f"({rec.failed} of {rec.attempted} operations)")
    print(f"{args.workload:<10} cmd_s.tail is p{result['cmd_s.tail_percentile']:.1f} of "
          f"{result['cmd_s.samples']} samples; {len(result['pass_s'])} pass(es)")
    sf = result["speed_factor"]
    print(f"{args.workload:<10} times in reference seconds: raw x speed factor, median "
          f"{sf['median']:.4f} (min {sf['min']:.4f}, max {sf['max']:.4f}) over {sf['operations']} operations")
    for line in rec.failures[:20]:
        print(f"FAILED {line}")
    record = {"workload": args.workload, "trace": args.trace, "stamp": stamp,
              "import_s": import_s, **result, "op_median_s": rec.layer_times(),
              "failures": rec.failures, "metrics": metrics,
              "ops": [[op.name, op.run_id, op.start, op.end, op.raw_seconds, op.factor]
                      for op in rec.ops],
              "probes": rec.probes}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [[s.name, s.start, s.end, s.parent, f"{args.workload}:{args.seed}:{s.run_id}"]
                 for s in rec.spans]
        (OUT / f"{name}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run_id"], "spans": spans}) + "\n")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(args):
    def child(workload, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    summary, ok = {}, True
    for workload in WORKLOAD_NAMES:
        plain = child(workload, 0)
        ok &= plain["correct"]
        summary[workload] = {k: m["value"] for k, m in plain["metrics"].items()}
        if args.trace:
            traced = child(workload, 1)
            ok &= traced["correct"]
            overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
            summary[workload]["trace.overhead_s"] = overhead
            print(f"{workload:<10} {'trace.overhead_s':<44} {overhead:>14.6g} s")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pillowspace" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One CPU for the run and the commands it starts, set before numpy loads so
    # BLAS starts one thread: the host probes then time the CPU the work ran
    # on, and load on the other CPU stays out of the timing.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from recorder import Recorder

    sys.path.insert(0, str(SRC))
    rec = Recorder(bool(args.trace))
    rec.run_id = "import"
    pillowspace = rec.call("bench.import_s", _import_package)
    if Path(pillowspace.__file__).resolve().parent != SRC / "pillowspace":
        print(f"perfbench: imported pillowspace from {pillowspace.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_one(args, rec)


def _import_package():
    import pillowspace
    import pillowspace.verify  # noqa: F401

    return pillowspace


if __name__ == "__main__":
    sys.exit(main())
