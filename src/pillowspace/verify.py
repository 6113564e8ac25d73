"""Named invariant suites, one per structural claim the package rests on.

Each suite checks one family of invariants across a range of levels and
returns plain dicts ready for JSON reporting.  Suites are deterministic for
a fixed seed; sampling sizes follow the acceptance protocol.  A runner imports
the measures, metrics or modulus module it checks, so a suite loads no other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .graphs import (
    ORACLE_MAX_LEVEL,
    adjacency,
    bfs_blocks,
    build_graph,
    chain_oracle_adjacency,
    flip_permutation,
    is_automorphism,
    prefix_subgraph,
    reference_edges,
    symmetry_permutations,
)
from .words import (BALL_IMAGE_LIMIT, MAX_LEVEL, _grid_table, _integer, _tolerance, all_words,
                    check_level)

ORACLE_SAMPLE_PAIRS = 100_000  # random word pairs per level above the exhaustive cap
SHEET_PAIRS = 1000  # sampled same-sheet pairs per sheet
SAMPLED_DRAWS = 100  # flips or prefixes at levels past the exhaustive range
COVER_OVERLAP_CAP = 4  # observed 2 on the default protocol; fail loudly past this


@dataclass
class SuiteReport:
    suite: str
    levels: list[int]
    policy: str
    seed: int
    tolerance: float
    ok: bool
    results: list[dict]


def _suite_counts(n, g, ctx):
    # G_m is ten copies of G_{m-1} plus the edges between first letters: 16
    # cell sides of 3^(m-1) faces, and a seam edge on each of the center's
    # 4*3^(m-1) - 4 boundary squares; at m = 1 that seam is the one "off" drops
    expected = 17 if g.policy == "on" else 16
    for m in range(2, n + 1):
        expected = 10 * expected + 20 * 3 ** (m - 1) - 4
    return {
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "expected_vertices": 10**n,
        "expected_edges": expected,
        "ok": g.n_vertices == 10**n and g.n_edges == expected,
    }


def _suite_adjacency_oracle(n, g, ctx):
    # run_suite refuses a level past the oracle before any words are listed.
    # The list (1,000 words at most) serves the 200,000 draws at C speed; a
    # LevelWords view answers each through Python calls and doubled the time.
    words = all_words(n)
    if n <= 2:
        pairs = itertools.combinations(words, 2)
        checked = len(words) * (len(words) - 1) // 2
    else:
        rng = random.Random(ctx["seed"] + n)
        drawn = []
        while len(drawn) < ORACLE_SAMPLE_PAIRS:
            w, v = rng.choice(words), rng.choice(words)
            if w != v:
                drawn.append((w, v))
        pairs, checked = drawn, ORACLE_SAMPLE_PAIRS
    disagreements = sum(
        1 for w, v in pairs if adjacency(w, v) != chain_oracle_adjacency(w, v)
    )
    return {
        "pairs_checked": checked,
        "exhaustive": n <= 2,
        "disagreements": disagreements,
        "ok": disagreements == 0,
    }


def _suite_sheets(n, g, ctx):
    rng = random.Random(ctx["seed"] + 10 * n)
    side = 3**n
    if 2**n <= 8:
        sheets = ["".join(b) for b in itertools.product("01", repeat=n)]
    else:
        sheets = sorted({"".join(rng.choice("01") for _ in range(n)) for _ in range(8)})
    # index of the center-free word over each square; a sheet's lift of it
    # is that index under the flip
    grid = _grid_table(n)
    starts = max(1, SHEET_PAIRS // 40)
    # draw every sheet's starts, each followed by its targets, then run one
    # BFS over all the level's starts
    sources, targets = [], []
    for bits in sheets:
        lift = flip_permutation(g, bits)[grid]
        for _ in range(starts):
            ax, ay = rng.randrange(side), rng.randrange(side)
            sources.append(lift[ax, ay])
            for _ in range(SHEET_PAIRS // starts):
                bx, by = rng.randrange(side), rng.randrange(side)
                targets.append((len(sources) - 1, lift[bx, by], abs(ax - bx) + abs(ay - by)))
    k, b, want = np.array(targets).T
    mismatches = 0
    for lo, dist in bfs_blocks(g, sources):
        sel = (k >= lo) & (k < lo + len(dist))
        mismatches += int(np.count_nonzero(dist[k[sel] - lo, b[sel]] != want[sel]))
    return {
        "sheets": len(sheets),
        "pairs_checked": len(targets),
        "mismatches": mismatches,
        "ok": mismatches == 0,
    }


def _suite_automorphisms(n, g, ctx):
    if n <= 3:
        draws = ["".join(b) for b in itertools.product("01", repeat=n)]
    else:
        rng = random.Random(ctx["seed"] + 7 * n)
        draws = ["".join(rng.choice("01") for _ in range(n)) for _ in range(SAMPLED_DRAWS)]
    perms = itertools.chain(((bits, flip_permutation(g, bits)) for bits in draws),
                            zip(("top-bottom", "left-right"), symmetry_permutations(n)))
    failures = [name for name, perm in perms if not is_automorphism(g, perm)]
    return {
        "flips_checked": len(draws),
        "mirrors_checked": 2,
        "exhaustive": n <= 3,
        "failures": failures[:5],
        "ok": not failures,
    }


def _suite_self_similar(n, g, ctx):
    # build_graph makes the blocks as shifted copies, so they certify by
    # construction; the per-tile reference checks the whole graph while cheap
    ref_equal = g.edges == reference_edges(n, g.policy) if n <= 3 else None
    if n < 2:
        return {
            "blocks_checked": 0,
            "reference_edges_equal": ref_equal,
            "ok": ref_equal,
            "note": "no proper prefixes",
        }
    if n <= 3:
        prefixes = [w for k in range(1, n) for w in all_words(k)]
    else:
        rng = random.Random(ctx["seed"] + 13 * n)
        prefixes = [
            "".join(rng.choice("1234567890") for _ in range(rng.randint(1, n - 1)))
            for _ in range(SAMPLED_DRAWS)
        ]
    references = {m: build_graph(m, g.policy) for m in {n - len(p) for p in prefixes}}
    # a certified block's internal metric is its reference's metric, so the
    # certificate is the whole check
    bad_blocks = []
    for prefix in prefixes:
        try:
            prefix_subgraph(g, prefix, references[n - len(prefix)])
        except RuntimeError:
            bad_blocks.append(prefix)
    return {
        "blocks_checked": len(prefixes),
        "bad_blocks": bad_blocks[:5],
        "reference_edges_equal": ref_equal,
        "ok": not bad_blocks and ref_equal is not False,
    }


def _suite_singular_measure(n, g, ctx):
    from .measures import TileMeasure, middle_third_ratios, pushforward_x

    rows, skipped = middle_third_ratios(pushforward_x(TileMeasure.uniform(n)))
    want = Fraction(4, 10)
    off = [r for r in rows if r.ratio != want]
    return {
        "intervals_checked": len(rows),
        "skipped": len(skipped),
        "off_ratio": [(r.level, r.index, str(r.ratio)) for r in off[:5]],
        "ok": not off and not skipped,
    }


def _suite_quotient(n, g, ctx):
    from .metrics import lipschitz_quotient_check

    return asdict(lipschitz_quotient_check(g))


def _suite_covering(n, g, ctx):
    from .metrics import cover_preimage

    rng = random.Random(ctx["seed"] + 100 + n)
    side = 3**n
    cases = [((side // 2, side // 2), 2 if n > 1 else 1)]
    cases += [
        ((rng.randrange(side), rng.randrange(side)), rng.randint(0, 3))
        for _ in range(8)
    ]
    worst_overlap, failures = 0, []
    for center, radius in cases:
        rep = cover_preimage(g, center, radius, c=5)
        worst_overlap = max(worst_overlap, rep.max_overlap)
        if not rep.ok:
            failures.append((center, radius, rep.witness))
    return {
        "balls_checked": len(cases),
        "worst_overlap": worst_overlap,
        "failures": failures[:5],
        "ok": not failures and worst_overlap <= COVER_OVERLAP_CAP,
    }


def _suite_modulus_oracles(n, g, ctx):
    from .modulus import (ModulusProblem, crossing, effective_conductance, mincut_oracle,
                          solve_modulus)

    net, src, tgt = crossing(g)
    tol = ctx["tolerance"]
    res1 = solve_modulus(ModulusProblem(net, src, tgt, 1.0, tol))
    cut = mincut_oracle(net, src, tgt)
    res2 = solve_modulus(ModulusProblem(net, src, tgt, 2.0, tol))
    cond = effective_conductance(net, src, tgt)
    ok1 = res1.converged and abs(res1.value - cut) <= 10 * tol * cut
    ok2 = res2.converged and abs(res2.value - cond) <= 10 * tol * cond
    return {
        "p1_value": res1.value,
        "mincut": cut,
        "p2_value": res2.value,
        "conductance": cond,
        "ok": ok1 and ok2,
    }


# name -> (runner, default levels, whether the runner reads the graph, top
# level); the default levels are the cheap exhaustive regimes of each suite
SUITES = {
    "counts": (_suite_counts, range(1, 6), True, MAX_LEVEL),
    "adjacency-oracle": (_suite_adjacency_oracle, range(1, 4), False, ORACLE_MAX_LEVEL),
    "sheets": (_suite_sheets, range(1, 5), True, MAX_LEVEL),
    "automorphisms": (_suite_automorphisms, range(1, 4), True, MAX_LEVEL),
    "self-similar": (_suite_self_similar, range(2, 4), True, MAX_LEVEL),
    "singular-measure": (_suite_singular_measure, range(1, 6), False, MAX_LEVEL),
    "quotient": (_suite_quotient, range(1, 4), True, BALL_IMAGE_LIMIT),
    "covering": (_suite_covering, range(1, 4), True, MAX_LEVEL),
    "modulus-oracles": (_suite_modulus_oracles, range(1, 4), True, MAX_LEVEL),
}


def run_suite(suite, levels=None, policy="on", seed=0, tolerance=1e-6):
    """Run one named suite over the given levels and report per-level results.
    Every level is checked against the suite's top in SUITES before any runs."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    runner, default_levels, reads_graph, top = SUITES[suite]
    # build_graph's guards for every suite; reads_graph only decides whether a graph is built
    levels = sorted({check_level(n, top, name=f"{suite} level")
                     for n in (default_levels if levels is None else levels)})
    if not levels:
        raise ValueError("no level to run")
    if policy not in ("on", "off"):
        raise ValueError(f"unknown policy {policy!r}")
    seed = _integer(seed, "seed")
    tolerance = _tolerance(tolerance)
    # no timing in results: written reports must be byte-stable across reruns
    ctx = {"seed": seed, "tolerance": tolerance}
    results = []
    for n in levels:
        g = build_graph(n, policy) if reads_graph else None
        row = runner(n, g, ctx)
        row["level"] = n
        results.append(row)
    ok = all(r["ok"] for r in results)
    return SuiteReport(suite, levels, policy, seed, tolerance, ok, results)
