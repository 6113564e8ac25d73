"""Command-line front end: build graphs, run invariant suites, and export
plot-ready tables.

Exit codes: 0 pass, 1 invariant or I/O failure, 2 numerical non-convergence,
64 usage error: a bad argument, whether the CLI or the library catches it, or a
capacity limit.  An input file that is missing or does not parse exits 1 with
"cannot read ... file <path>".  Each handler returns its exit code, its report
fields and a writer for its one output file; main alone writes that file to
--out and hashes it.  Every command prints a JSON report to stdout embedding
the tool version, the resolved config, content hashes of inputs and outputs,
the seed, wall-clock seconds and a profile block that splits them into handler
and write seconds.  Output files are byte-identical across reruns with the
same flags: they embed config and hashes but never timing.  The checks (verify,
metric quotient-check and cover-check) return one shape: exit 0 or 1, the
summary "<head>: pass|FAIL<tail>", and one body as report field and JSON file.
An option that several subcommands share (--out, --seed, --policy and the
required int --level) is declared once, as an argparse parent parser; main
checks a given --seed by words._seed before any handler runs, used or not.

Imports are lazy: this module loads only the standard library, and each
handler imports the modules it runs.  --version and --help load no numpy.
Every subcommand loads words, and those that build or read a graph add
graphs; modulus adds modulus, measure adds measures, metric adds metrics
(pi-diagnostic also measures), and verify adds verify and, inside the suites
that run them, measures, metrics or modulus: verify counts loads none of the
three.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 64

OPPOSITE = {"left": "right", "right": "left", "bottom": "top", "top": "bottom"}
DEFAULT_P_GRID = "1,1.5,2,2.0959,2.5,3"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path):
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cell(value):
    if isinstance(value, float):  # covers numpy floats; shortest round-trip repr
        return repr(float(value))
    return str(value)


def _write_csv(path, config, hashes, seed, header, rows):
    """Plot-ready CSV with '#' metadata comments; content is run-independent."""
    lines = [f"# pillowspace {__version__}"]
    lines.append(
        "# config: " + " ".join(f"{k}={v}" for k, v in sorted(config.items()))
    )
    for name, digest in sorted(hashes.items()):
        lines.append(f"# input sha256: {name}={digest}")
    lines.append(f"# seed: {'none' if seed is None else seed}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv(config, hashes, seed, header, rows):
    return lambda path: _write_csv(path, config, hashes, seed, header, rows)


def _json(body):
    def write(path):
        with open(path, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return write


def _parse_levels(text):
    """'1..5' or '3' or '1,3,5' to a sorted list of ints in 1..MAX_LEVEL."""
    from .words import check_level

    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split(".."))
            levels = range(lo, hi + 1)
        else:
            levels = sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise UsageError(f"cannot parse level range {text!r}")
    if not levels:
        raise UsageError(f"level range {text!r} is empty")
    # on the ends, before a range becomes a list: 1..10**8 is gigabytes of ints
    check_level(levels[0])
    check_level(levels[-1])
    return list(levels)


def _parse_p_grid(text):
    from .words import _exponent

    try:
        grid = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse p grid {text!r}")
    return [_exponent(p) for p in grid]


def _parse_sides(text):
    # adjacent faces share their corner tile, so only opposite ones are a crossing
    parts = text.split("-")
    if len(parts) != 2 or OPPOSITE.get(parts[0]) != parts[1]:
        raise UsageError(f"sides must be two opposite faces, like left-right, not {text!r}")
    return parts[0], parts[1]


def _parse_normalization(text):
    if text in ("none", "diameter"):
        return text
    if text.startswith("pair:"):
        parts = text.split(":")
        if len(parts) == 3:
            return ("pair", parts[1], parts[2])
    raise UsageError(f"normalization must be none, diameter, or pair:a:b, not {text!r}")


def _count(text):
    """argparse type of --samples and --trials: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _require_seed(args):
    if args.seed is None:
        raise UsageError("this subcommand samples; pass an explicit --seed")
    return args.seed  # main checked it


def _refuse(args, mode, *names):
    """A usage error for a given option that only another mode reads."""
    for name in names:
        if getattr(args, name) is not None:
            raise UsageError(f"{mode} takes no --{name}")


def _graph(args, level, cap=None):
    """The graph at a level under --policy, checked first against a cap or MAX_LEVEL."""
    from .graphs import build_graph
    from .words import MAX_LEVEL, check_level

    return build_graph(check_level(level, MAX_LEVEL if cap is None else cap), args.policy)


def _read(reader, path, what):
    """reader(path); a file that is missing or does not parse is a failure
    (exit 1), not a usage error."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"cannot read {what} file {path}: {exc}")


def _metric_from_args(args, level_attr="level"):
    """Metric from --in file when given, else the graph metric at the level."""
    from .metrics import DENSE_LEVEL_LIMIT, graph_metric, read_metric_matrix

    if getattr(args, "infile", None):
        return _read(read_metric_matrix, args.infile, "metric"), {"in": _sha256(args.infile)}
    level = getattr(args, level_attr, None)
    if level is None:
        raise UsageError("pass either --in FILE or a --level to compute from")
    return graph_metric(_graph(args, level, DENSE_LEVEL_LIMIT)), {}


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, report_fields, write), where
# write(path) writes the command's one output file; main calls it for --out


def _cmd_build(args):
    from .graphs import write_graph_binary, write_graph_json

    g = _graph(args, args.level)
    fmt = args.format or ("binary" if args.out.endswith(".bin") else "json")
    writer = write_graph_binary if fmt == "binary" else write_graph_json
    return EXIT_OK, {
        "summary": f"{g.n_vertices} vertices, {g.n_edges} edges",
        "vertices": g.n_vertices,
        "edges": g.n_edges,
    }, lambda path: writer(g, path)


def _checked(ok, head, body, tail=""):
    """A check's return: exit 0 or 1, "<head>: pass|FAIL<tail>", the body as
    the report field and as the JSON output file."""
    summary = f"{head}: {'pass' if ok else 'FAIL'}{tail}"
    return EXIT_OK if ok else EXIT_FAIL, {"summary": summary, "report": body}, _json(body)


def _cmd_verify(args):
    from dataclasses import asdict

    from .verify import run_suite

    levels = _parse_levels(args.levels) if args.levels else None
    rep = run_suite(args.suite, levels, policy=args.policy, seed=args.seed, tolerance=args.tol)
    return _checked(rep.ok, f"suite {args.suite} levels {rep.levels}", asdict(rep))


def _cmd_modulus(args):
    from .graphs import read_graph
    from .modulus import ModulusProblem, crossing, solve_modulus
    from .words import _tolerance

    sides = _parse_sides(args.sides)
    p_grid = _parse_p_grid(args.p_grid)
    tol = _tolerance(args.tol)
    g = _read(read_graph, args.graph, "graph")
    hashes = {"graph": _sha256(args.graph)}
    net, src, tgt = crossing(g, sides)
    rows, stops, backoffs, solved, all_converged = [], [], [], [], True
    for p in p_grid:
        res = solve_modulus(ModulusProblem(net, src, tgt, p, tol))
        all_converged &= bool(res.converged)
        stops.append(res.stop)
        backoffs.append(res.backoffs)
        solved.append(res.solved_vertices)
        lo, up = float(res.value_lower), float(res.value_upper)
        rows.append((g.level, p, lo, up, float(res.value), up - lo, int(res.iterations),
                     bool(res.converged)))
    config = {"graph": args.graph, "sides": args.sides, "p_grid": args.p_grid,
              "tol": args.tol, "policy": g.policy}
    header = ["level", "p", "value_lower", "value_upper", "value", "gap",
              "iterations", "converged"]
    code = EXIT_OK if all_converged else EXIT_NO_CONVERGENCE
    return code, {
        "summary": f"{len(rows)} exponents on level {g.level}, "
        + ("all converged" if all_converged else "NON-CONVERGED rows present"),
        "rows": [list(r) for r in rows],
        "stop": stops,
        "backoffs": backoffs,
        "solved_vertices": solved,
        "input_sha256": hashes,
    }, _csv(config, hashes, None, header, rows)


def _cmd_measure_pushforward(args):
    from fractions import Fraction

    from .measures import TileMeasure, pushforward_x
    from .words import check_level

    w = pushforward_x(TileMeasure.uniform(check_level(args.level)))
    denom = 3**args.level
    rows = [
        (i, Fraction(i, denom), Fraction(i + 1, denom), weight)
        for i, weight in enumerate(w.weights)
    ]
    return EXIT_OK, {
        "summary": f"{len(rows)} intervals at level {args.level}, total {w.total()}",
    }, _csv({"level": args.level}, {}, None, ["index", "left", "right", "weight"], rows)


def _cmd_measure_ratios(args):
    from .measures import TileMeasure, middle_third_ratios, pushforward_x
    from .words import check_level

    uniform = TileMeasure.uniform(check_level(args.level))
    rows, skipped = middle_third_ratios(pushforward_x(uniform))
    table = [(r.level, r.index, r.weight, r.ratio) for r in rows]
    distinct = sorted({str(r.ratio) for r in rows})
    return EXIT_OK, {
        "summary": f"{len(rows)} intervals, ratios {distinct}, skipped {len(skipped)}",
        "distinct_ratios": distinct,
    }, _csv({"level": args.level}, {}, None, ["level", "index", "weight", "ratio"], table)


def _cmd_measure_dimension(args):
    from .measures import ball_dimension_estimate, box_dimension_estimate

    if args.mode == "box":
        _refuse(args, "box mode", "level", "samples")
        if not args.levels:
            raise UsageError("box mode needs --levels")
        fit = box_dimension_estimate(_parse_levels(args.levels))
        config = {"mode": "box", "levels": args.levels}
        seed = None
    else:
        _refuse(args, "ball mode", "levels")
        if args.level is None or args.samples is None:
            raise UsageError("ball mode needs --level and --samples")
        seed = _require_seed(args)
        g = _graph(args, args.level)
        fit = ball_dimension_estimate(g, args.samples, seed)
        config = {"mode": "ball", "level": args.level, "samples": args.samples,
                  "policy": args.policy}
    rows = [(v, x, c) for v, x, c in fit.rows]
    rows.append(("estimate", "", repr(fit.estimate)))
    rows.append(("residual", "", repr(fit.residual)))
    return EXIT_OK, {
        "summary": f"dimension estimate {fit.estimate:.6f} (residual {fit.residual:.2e})",
        "estimate": fit.estimate,
        "residual": fit.residual,
    }, _csv(config, {}, seed, ["variant", "scale", "count"], rows)


def _cmd_metric_symmetrize(args):
    import numpy as np

    from .metrics import symmetrize, write_metric_matrix

    d, hashes = _metric_from_args(args)
    s = symmetrize(d)
    fixed = bool(np.array_equal(s.entries, d.entries))
    return EXIT_OK, {
        "summary": f"symmetrized level-{d.level} metric; "
        + ("input was already invariant" if fixed else "input changed"),
        "fixed_point": fixed,
        "input_sha256": hashes,
    }, lambda path: write_metric_matrix(s, path)


def _cmd_metric_blowup(args):
    from .graphs import _prefix_block
    from .metrics import (DENSE_LEVEL_LIMIT, blowup_metric, internal_block_metric,
                          write_metric_matrix)
    from .words import check_level, parse_word

    norm = _parse_normalization(args.normalization)
    hashes = {}
    if args.mode == "internal":
        if args.level_from is None:
            raise UsageError("internal mode needs --level-from")
        # the block's dense metric is capped, so the ambient level is too
        cap = DENSE_LEVEL_LIMIT + len(parse_word(args.prefix))
        # the level and the prefix first: a usage error must not pay for the build
        _prefix_block(check_level(args.level_from, cap), args.prefix)
        blow, base = internal_block_metric, _graph(args, args.level_from, cap)
    else:
        blow = blowup_metric
        base, hashes = _metric_from_args(args, level_attr="level_from")
    b = blow(base, args.prefix, normalization=norm)
    return EXIT_OK, {
        "summary": f"blowup over prefix {args.prefix!r} to level {b.level} ({args.mode})",
        "input_sha256": hashes,
    }, lambda path: write_metric_matrix(b, path)


def _cmd_metric_distortion(args):
    from .metrics import qs_distortion, read_metric_matrix

    seed = _require_seed(args)
    d1 = _read(read_metric_matrix, args.in1, "metric")
    d2 = _read(read_metric_matrix, args.in2, "metric")
    hashes = {"in1": _sha256(args.in1), "in2": _sha256(args.in2)}
    prof = qs_distortion(d1, d2, args.samples, seed)
    config = {"in1": args.in1, "in2": args.in2, "samples": args.samples}
    rows = [("forward", *r) for r in prof.rows()]
    rows += [("inverse", *r) for r in prof.inverse.rows()]
    header = ["direction", "bin_low", "bin_high", "count", "max_ratio", "envelope"]
    return EXIT_OK, {
        "summary": f"profile over {prof.samples_used} triples "
        f"({prof.samples_skipped} degenerate skipped)",
        "input_sha256": hashes,
    }, _csv(config, hashes, seed, header, rows)


def _cmd_metric_quotient_check(args):
    from dataclasses import asdict

    from .metrics import lipschitz_quotient_check

    rep = lipschitz_quotient_check(_graph(args, args.level))
    return _checked(rep.ok, f"sheet and ball-image certificate at level {args.level}",
                    asdict(rep), "" if rep.ok else f", not certified: {rep.broken}")


def _cmd_metric_cover_check(args):
    import random
    from dataclasses import asdict

    from .metrics import _cover_args, _random_balls, cover_preimage
    from .words import check_level

    # the level and the cases first: a usage error must not pay for the build
    side = 3 ** check_level(args.level)
    if args.samples is not None:
        _refuse(args, "--samples", "center", "radius")
        cases = _random_balls(random.Random(_require_seed(args)), side, args.samples)
    elif args.center is None or args.radius is None:
        raise UsageError("pass --center X,Y and --radius R, or --samples with --seed")
    else:
        try:
            cx, cy = (int(t) for t in args.center.split(","))
        except ValueError:
            raise UsageError(f"cannot parse center {args.center!r}; expected X,Y")
        cases = [((cx, cy), args.radius)]
    for center, radius in cases:
        _cover_args(side, center, radius, args.c)
    g = _graph(args, args.level)
    reports = [cover_preimage(g, center, radius, c=args.c) for center, radius in cases]
    ok = all(r.ok for r in reports)
    worst = max((r.max_overlap for r in reports), default=0)
    body = {
        "level": args.level,
        "c": args.c,
        "balls": [asdict(r) for r in reports],
        "worst_overlap": worst,
        "ok": ok,
    }
    return _checked(ok, f"{len(reports)} ball(s) at level {args.level}", body,
                    f", worst overlap {worst}")


def _cmd_metric_pi_diagnostic(args):
    from .measures import TileMeasure
    from .metrics import pi_diagnostic
    from .words import _exponent

    seed = _require_seed(args)
    p = _exponent(args.p, float("inf"))  # before the graph is built or read
    g = _graph(args, args.level)
    measure = TileMeasure.uniform(args.level)
    rep = pi_diagnostic(g, measure, p, args.trials, seed)
    config = {"level": args.level, "p": args.p, "trials": args.trials, "policy": args.policy}
    header = ["function", "center", "radius", "lhs", "rhs", "ratio"]
    return EXIT_OK, {
        "summary": f"worst ratio {rep.worst_ratio:.6f} over {rep.trials} trials",
        "worst_ratio": rep.worst_ratio,
        "worst_case": rep.worst_case,
    }, _csv(config, {}, seed, header, rep.rows)


# ---------------------------------------------------------------------------
# parser wiring: an option that several subcommands share is declared once, in
# a parent parser that they list in parents=


def _shared(*flags, **kwargs):
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _command(subs, name, handler, text, *parents):
    p = subs.add_parser(name, help=text, parents=parents)
    p.set_defaults(handler=handler)
    return p


def build_parser():
    out, out_required = _shared("--out"), _shared("--out", required=True)
    seed = _shared("--seed", type=int)
    policy = _shared("--policy", choices=("on", "off"), default="on")
    level = _shared("--level", type=int, required=True)

    parser = _Parser(prog="pillowspace", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pillowspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = _command(sub, "build", _cmd_build, "build a replacement graph and write it out",
                 policy, out_required)
    b.add_argument("-n", "--level", type=int, required=True)
    b.add_argument("--format", choices=("json", "binary"))

    v = _command(sub, "verify", _cmd_verify, "run a named invariant suite", policy, out)
    v.add_argument("suite")
    v.add_argument("levels", nargs="?", help="like 1..3 or 2 or 1,3")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-6)

    m = _command(sub, "modulus", _cmd_modulus, "crossing modulus scan of a graph file", out)
    m.add_argument("--graph", required=True)
    m.add_argument("--sides", required=True, help="like left-right or top-bottom")
    m.add_argument("--p-grid", default=DEFAULT_P_GRID)
    m.add_argument("--tol", type=float, default=1e-6)

    me = sub.add_parser("measure", help="measure-side tables")
    mesub = me.add_subparsers(dest="subcommand", required=True)
    _command(mesub, "pushforward", _cmd_measure_pushforward, "x-axis interval weights",
             level, out)
    _command(mesub, "ratios", _cmd_measure_ratios, "middle-third ratio table", level, out)
    md = _command(mesub, "dimension", _cmd_measure_dimension, "box or ball dimension fit",
                  seed, policy, out)
    md.add_argument("--mode", choices=("box", "ball"), required=True)
    md.add_argument("--levels", help="box mode: like 1..5")
    md.add_argument("--level", type=int, help="ball mode: graph level")
    md.add_argument("--samples", type=_count)

    mt = sub.add_parser("metric", help="metric-side experiments")
    mtsub = mt.add_subparsers(dest="subcommand", required=True)
    ms = _command(mtsub, "symmetrize", _cmd_metric_symmetrize,
                  "average a metric over the flip group", policy, out_required)
    ms.add_argument("--in", dest="infile")
    ms.add_argument("--level", type=int, help="compute the graph metric at this level")

    mb = _command(mtsub, "blowup", _cmd_metric_blowup, "rescaled restriction to a prefix block",
                  policy, out_required)
    mb.add_argument("--in", dest="infile", help="ambient mode: metric file")
    mb.add_argument("--level-from", type=int, help="level of the ambient graph")
    mb.add_argument("--prefix", required=True)
    mb.add_argument("--mode", choices=("internal", "ambient"), default="internal")
    mb.add_argument("--normalization", default="none")

    mdst = _command(mtsub, "distortion", _cmd_metric_distortion,
                    "quasisymmetry distortion profile", seed, out)
    mdst.add_argument("--in1", required=True)
    mdst.add_argument("--in2", required=True)
    mdst.add_argument("--samples", type=_count, required=True)

    _command(mtsub, "quotient-check", _cmd_metric_quotient_check,
             "projected balls versus grid balls", level, policy, out)

    mc = _command(mtsub, "cover-check", _cmd_metric_cover_check,
                  "covering of a grid ball preimage", level, seed, policy, out)
    mc.add_argument("--center", help="grid cell X,Y")
    mc.add_argument("--radius", type=int)
    mc.add_argument("--c", type=int, default=5)
    mc.add_argument("--samples", type=_count, help="check this many seeded random balls")

    mpi = _command(mtsub, "pi-diagnostic", _cmd_metric_pi_diagnostic,
                   "empirical Poincare-ratio scan", level, seed, policy, out)
    mpi.add_argument("--p", type=float, default=2.0)
    mpi.add_argument("--trials", type=_count, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    from .words import CapacityError, _seed  # after parse_args: --version loads no numpy

    config = {k: v for k, v in vars(args).items() if k != "handler" and v is not None}
    outputs = {}
    t0 = time.perf_counter()
    try:
        if getattr(args, "seed", None) is not None:  # every given seed, used or not
            args.seed = _seed(args.seed)
        code, fields, write = args.handler(args)
        t1 = time.perf_counter()
        if args.out:
            write(args.out)
            outputs[args.out] = _sha256(args.out)
    except (UsageError, CapacityError, ValueError) as exc:  # ValueError: a bad argument
        print(f"pillowspace: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, OSError) as exc:
        print(f"pillowspace: error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    t2 = time.perf_counter()
    report = {
        "tool": "pillowspace",
        "version": __version__,
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "wall_clock_s": round(t2 - t0, 3),
        "profile": {"handler_s": round(t1 - t0, 3), "write_s": round(t2 - t1, 3)},
        "exit_code": code,
        "input_sha256": {},
        "outputs": outputs,
    }
    report.update(fields)
    if fields.get("summary"):
        print(fields["summary"], file=sys.stderr)
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
