"""Operation timing, oracle checks and optional spans for one benchmark run.

Every call the harness makes into a public function of the package (or every
CLI subprocess) is one *operation*; operations are grouped into *tasks* (one
CLI command, or a named group of calls such as the level-5 BFS rows).  The
recorder times operations, sums them into task and region times, remembers
whether any oracle check on an operation's output failed, and, when tracing,
records a span (name, start, end, parent, run id) around each operation and
task.  Spans stay in memory until the run ends.  Oracle checks and other
harness code between operations are not timed, so they never count as work
of the program under test.

Times are reported in reference seconds.  The host this runs on is shared,
and its interpreter speed drifts by up to about 1.6x over tens of seconds, so
a raw time says as much about the neighbours as about the program.  The
recorder times a fixed piece of plain Python (`host_probe`: string slicing,
int parsing, dict inserts and a sort, the kinds of work the package does, on
a working set that fits in cache) after every operation,
before it unless one was just taken, and, for calls in this process, every
TICK_S during it from a SIGALRM handler (the handler's time is taken out of
the call's).  A probe is kept as its time over its reference time (the
slowness; 1 at reference speed).  When the run ends, each operation's raw time
is divided by the mean slowness of the probes within PROBE_WINDOW_S of it:
the time it would have taken with the host at the probe's reference speed.
Where the operations are subprocesses, a workload can probe with something
closer to them (the `cli` workload starts a bare interpreter).  The probe runs
no code of the program, so the factor does not depend on the program, and a
change to the program still shows in the scaled times.  Raw seconds and the
factors are kept in the run record.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

PROBE_REF_S = 0.0015  # one probe on the reference host, 2-core Xeon at rest
PROBE_REUSE_S = 0.05
PROBE_WINDOW_S = 0.5
TICK_S = 0.2


_PROBE_WORDS = [f"{i:05d}" for i in range(1000)]


def _probe_work():
    d = {}
    for w in _PROBE_WORDS:
        v = w[:2] + "5" + w[3:]
        d[(int(v), w)] = len(v)
    return sorted(d.items())


def host_probe(repeats=3):
    """Seconds of one fixed piece of plain Python (fastest of `repeats`): the
    host's current speed for the package's kind of work.

    The collector is off meanwhile, so the size of the program's heap never
    shows in the probe; the probe frees all it allocates.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()


def host_slowness():
    """The host probe over its reference time: 1 at reference speed, 2 at half."""
    return host_probe() / PROBE_REF_S


@dataclass
class Op:
    name: str
    run_id: str
    start: float = 0.0
    end: float = 0.0
    raw_seconds: float = 0.0
    failed: bool = False
    factor: float = 1.0  # raw to reference seconds, set by Recorder.finish

    @property
    def seconds(self):
        return self.raw_seconds * self.factor


@dataclass
class Task:
    name: str
    in_pass: bool
    ops: list[Op] = field(default_factory=list)

    @property
    def seconds(self):
        return sum(op.seconds for op in self.ops)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


@dataclass
class Recorder:
    trace: bool
    ticks: bool = True  # probe during calls (off where a call waits on a subprocess)
    probe: Callable[[], float] = host_slowness
    ops: list[Op] = field(default_factory=list)
    tasks: list[Task] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)  # (when, slowness)
    run_id: str = "setup"
    in_pass: bool = False
    _stack: list[int] = field(default_factory=list)
    _timed_counts: list[tuple[str, int, Op]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def task(self, name):
        """A group of operations; its time is the sum of their times.

        An unexpected error fails one pseudo-operation and the run goes on with
        the next task.
        """
        sid = self._open(f"task:{name}") if self.trace else None
        n_ops = len(self.ops)
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - a benchmark must finish and report
            if not getattr(exc, "bench_counted", False):
                self.ops.append(Op(f"task:{name}", self.run_id, failed=True))
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        finally:
            self.tasks.append(Task(name, self.in_pass, self.ops[n_ops:]))
            if sid is not None:
                self._close(sid)

    @contextmanager
    def region(self, name):
        """A traced region (workload, set-up, pass) with no failure handling."""
        sid = self._open(name) if self.trace else None
        try:
            yield
        finally:
            if sid is not None:
                self._close(sid)

    # -- operations ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Time one call into the program; an exception fails the operation
        and propagates to the enclosing task."""
        self._probe(reuse=True)
        sid = self._open(name) if self.trace else None
        op = Op(name, self.run_id)
        self.ops.append(op)
        ticks = _Ticks(self.probes)
        op.start = time.perf_counter()
        try:
            if not self.ticks:
                return fn(*args, **kwargs)
            with ticks:
                return fn(*args, **kwargs)
        except Exception as exc:
            op.failed = True
            exc.bench_counted = True
            raise
        finally:
            op.end = time.perf_counter()
            op.raw_seconds = op.end - op.start - ticks.spent
            if sid is not None:
                self._close(sid)
            self._probe(reuse=False)

    def _probe(self, reuse):
        """Take a host probe, unless reuse and one was taken just now."""
        if reuse and self.probes and time.perf_counter() - self.probes[-1][0] < PROBE_REUSE_S:
            return
        slowness = self.probe()
        self.probes.append((time.perf_counter(), slowness))

    def check(self, label, predicate):
        """Evaluate an oracle on the last operation's output, untimed.

        predicate is a callable returning a truth value; raising counts as a
        failed check.  Returns whether the check passed.
        """
        try:
            ok = bool(predicate())
            err = ""
        except Exception as exc:  # noqa: BLE001 - a broken oracle input is a failure
            ok, err = False, f" ({type(exc).__name__}: {exc})"
        if not ok:
            op = self.ops[-1] if self.ops else None
            if op is not None:
                op.failed = True
            self.failures.append(f"{op.name if op else '?'}: {label}{err}")
        return ok

    def count(self, name, value, seconds=False):
        """Record a counter (work done, sizes, iterations) for the traced report.

        A count in raw seconds measured around the last operation
        (seconds=True) is scaled to reference seconds with that operation.
        """
        values = self.counts.setdefault(name, [])
        if seconds:
            self._timed_counts.append((name, len(values), self.ops[-1]))
        values.append(float(value))

    def finish(self):
        """Scale every operation, and every count in seconds, to reference seconds."""
        when = [t for t, _ in self.probes]
        for op in self.ops:
            lo = bisect.bisect_left(when, op.start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(when, op.end + PROBE_WINDOW_S)
            near = [s for _, s in self.probes[lo:hi]] or [s for _, s in self.probes]
            op.factor = 1 / statistics.fmean(near) if near else 1.0
        for name, i, op in self._timed_counts:
            self.counts[name][i] *= op.factor
        self._timed_counts = []

    def seconds(self, run_id):
        """Reference seconds of the operations of one region (e.g. "pass0")."""
        return sum(op.seconds for op in self.ops if op.run_id == run_id)

    def raw_seconds(self, run_id):
        return sum(op.raw_seconds for op in self.ops if op.run_id == run_id)

    # -- summaries -----------------------------------------------------------

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(op.failed for op in self.ops)

    def layer_times(self):
        """Median duration of one call, per operation name."""
        by_name = {}
        for op in self.ops:
            by_name.setdefault(op.name, []).append(op.seconds)
        return {name: statistics.median(v) for name, v in by_name.items()}

    def self_times(self):
        """Per-pass median self time by layer, over spans inside measured passes.

        A span's self time is its duration minus the part of it covered by its
        child spans.  Call spans belong to the layer that prefixes their name;
        workload, pass and task spans belong to the harness itself ("bench").
        """
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        per_pass = {}
        for s in self.spans:
            if not s.run_id.startswith("pass"):
                continue
            covered = _union_length([(c.start, c.end) for c in children.get(s.sid, [])])
            layer = s.name.split(".")[0] if "." in s.name and ":" not in s.name else "bench"
            bucket = per_pass.setdefault(s.run_id, {})
            bucket[layer] = bucket.get(layer, 0.0) + (s.end - s.start) - covered
        layers = {layer for bucket in per_pass.values() for layer in bucket}
        return {
            layer: statistics.median(b.get(layer, 0.0) for b in per_pass.values())
            for layer in layers
        }


class _Ticks:
    """Host probes every TICK_S while a call runs, from a SIGALRM handler."""

    def __init__(self, probes):
        self.probes, self.spent = probes, 0.0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        slowness = host_slowness()
        t1 = time.perf_counter()
        self.probes.append((t1, slowness))
        self.spent += t1 - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tail(samples, beyond=10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n).  Below 2 * beyond samples that percentile
    would fall under the median, so the maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * beyond:
        return xs[-1], 100.0, n
    k = n - beyond  # samples at or below the reported value
    return xs[k - 1], 100.0 * k / n, n
