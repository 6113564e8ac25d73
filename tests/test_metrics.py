import itertools
import json
import math
import random
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from pillowspace import (
    CapacityError,
    MetricMatrix,
    ReplacementGraph,
    TileMeasure,
    all_words,
    ball_dimension_estimate,
    blowup_metric,
    build_graph,
    cover_preimage,
    flip_permutation,
    graph_metric,
    internal_block_metric,
    lipschitz_quotient_check,
    pi_diagnostic,
    qs_distortion,
    read_metric_matrix,
    symmetrize,
    word_square,
    write_metric_matrix,
)
from pillowspace import graphs as graphs_module
from pillowspace import metrics as metrics_module
from pillowspace.graphs import bfs_row
from pillowspace.metrics import PI_DILATION, CoverReport, PIDiagnostic


@pytest.fixture(scope="module")
def graphs():
    return {n: build_graph(n) for n in (1, 2, 3)}


@pytest.fixture(scope="module")
def metrics(graphs):
    return {n: graph_metric(graphs[n]) for n in (1, 2, 3)}


# ---------------------------------------------------------------------------
# graph_metric and MetricMatrix validation


def test_level1_distances(metrics):
    e = metrics[1].entries
    assert e[1, 9] == 4  # opposite corners
    assert e[1, 3] == 2
    assert e[5, 0] == 1  # the doubled-center pair


def test_diameters(metrics):
    assert metrics[2].entries.max() == 16
    assert metrics[3].entries.max() == 52


def test_metric_axioms_hold(metrics):
    for d in metrics.values():
        e = d.entries
        assert np.array_equal(e, e.T)
        assert not np.diagonal(e).any()
        assert (e[~np.eye(len(e), dtype=bool)] > 0).all()


def test_dense_capacity_guard():
    class Big:
        level = 5

    with pytest.raises(CapacityError):
        graph_metric(Big())


def test_rejects_asymmetric():
    e = np.ones((10, 10)) - np.eye(10)
    e[0, 1] = 2.0
    with pytest.raises(ValueError):
        MetricMatrix(1, e)


def test_rejects_nonzero_diagonal():
    e = np.ones((10, 10))
    with pytest.raises(ValueError):
        MetricMatrix(1, e)


def test_rejects_nonpositive_offdiagonal():
    e = np.ones((10, 10)) - np.eye(10)
    e[0, 1] = e[1, 0] = 0.0
    with pytest.raises(ValueError):
        MetricMatrix(1, e)


@pytest.mark.parametrize("i, j", [(0, 1), (3, 700), (999, 256), (255, 256), (511, 511 - 256)])
def test_tiled_checks_find_a_bad_pair_in_any_tile(metrics, i, j):
    # level 3 spans four check tiles a side; a pair on either side of the
    # diagonal, inside a tile or across tiles, is found, and asymmetry is
    # reported before a nonpositive distance, as by the whole-table checks
    assert metrics_module._CHECK_TILE < 1000
    e = metrics[3].entries.copy()
    e[i, j] += 0.5
    with pytest.raises(ValueError, match="symmetric"):
        MetricMatrix(3, e)
    e[i, j] = e[j, i] = 0.0
    with pytest.raises(ValueError, match="positive"):
        MetricMatrix(3, e)
    e[j, i] = -1.0
    with pytest.raises(ValueError, match="symmetric"):
        MetricMatrix(3, e)


def test_rejects_triangle_violation():
    e = np.ones((10, 10)) - np.eye(10)
    e[0, 1] = e[1, 0] = 5.0  # 5 > 1 + 1
    with pytest.raises(ValueError, match="^triangle inequality violated$"):
        MetricMatrix(1, e)
    # past level 2 triples are sampled; here every triple through 0 fails, 3 > 1 + 1
    e = np.full((1000, 1000), 3.0)
    e[0, :] = e[:, 0] = 1.0
    np.fill_diagonal(e, 0.0)
    with pytest.raises(ValueError, match=r"^triangle inequality violated \(sampled\)$"):
        MetricMatrix(3, e)


@pytest.mark.parametrize("level, pairs, value", [
    (1, "all", np.inf),
    (3, [(3, 700), (700, 3)], np.inf),
    (3, [(3, 700), (700, 3)], np.nan),
    (3, [(700, 3)], -np.inf),
], ids=["l1-all-inf", "l3-one-inf-pair", "l3-nan-pair", "l3-below-diagonal"])
def test_rejects_nonfinite_distances(metrics, level, pairs, value):
    # the sampled triangle check need not meet an inf pair, and the file
    # writer meets an inf table only after it is built
    e = metrics[level].entries.copy()
    if pairs == "all":
        e[~np.eye(len(e), dtype=bool)] = value
    else:
        for i, j in pairs:
            e[i, j] = value
    with pytest.raises(ValueError, match="^distances must be finite$"):
        MetricMatrix(level, e)


def test_rejects_wrong_universe(metrics):
    with pytest.raises(ValueError):
        MetricMatrix(1, metrics[1].entries[:9, :9])
    with pytest.raises(ValueError):
        MetricMatrix(1, np.ones((3, 3)))


@pytest.mark.parametrize("level", ["1", 1.0, None, 1.5])
def test_rejects_level_that_is_not_an_integer(metrics, level):
    with pytest.raises(ValueError, match="^metric level must be an integer, got") as exc:
        MetricMatrix(level, metrics[1].entries)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("level", [0, -1, 5])
def test_rejects_level_outside_the_dense_range(level):
    with pytest.raises(ValueError, match="^metric level"):
        MetricMatrix(level, np.zeros((1, 1)))


def test_level_sizes_the_table(metrics):
    d = MetricMatrix(np.int64(2), metrics[2].entries)
    assert type(d.level) is int and d.n_vertices == 100
    with pytest.raises(ValueError, match="entries must be a"):
        MetricMatrix(2, metrics[1].entries)


# ---------------------------------------------------------------------------
# symmetrize


def _perturbed(d):
    """A valid metric that is not flip-invariant: add an indicator pseudometric."""
    f = np.array([1.0 if "0" in w else 0.0 for w in all_words(d.level)])
    return MetricMatrix(d.level, d.entries + np.abs(f[:, None] - f[None, :]))


def test_graph_metric_already_invariant(metrics):
    # flips are automorphisms, so averaging changes nothing
    s = symmetrize(metrics[2])
    assert np.array_equal(s.entries, metrics[2].entries)


@pytest.mark.parametrize("level, bits", [
    (n, "".join(b)) for n in (1, 2, 3) for b in itertools.product("01", repeat=n) if "1" in b])
def test_symmetrize_makes_invariant(metrics, level, bits):
    # every flip but the identity moves the input and fixes the output
    pert = _perturbed(metrics[level])
    p = flip_permutation(pert, bits)
    assert not np.array_equal(pert.entries[np.ix_(p, p)], pert.entries)
    s = symmetrize(pert)
    assert np.array_equal(s.entries[np.ix_(p, p)], s.entries)


def test_symmetrize_idempotent(metrics):
    s = symmetrize(_perturbed(metrics[2]))
    assert np.array_equal(symmetrize(s).entries, s.entries)


def _symmetrize_over_all_flips(d):
    # the 2^level-term sum over every flip of the group, divided once
    acc = np.zeros_like(d.entries)
    for bits in itertools.product("01", repeat=d.level):
        perm = flip_permutation(d, "".join(bits))
        acc += d.entries[np.ix_(perm, perm)]
    return acc / 2**d.level


def _symmetrize_by_gathers(d):
    # each generator's average as one gather of the whole table
    acc = d.entries.copy()
    for k in range(d.level):
        perm = flip_permutation(d, "0" * k + "1" + "0" * (d.level - k - 1))
        acc = (acc + acc[np.ix_(perm, perm)]) / 2
    return acc


@pytest.mark.parametrize("level", [1, 2, 3])
def test_exact_symmetrize_equals_the_sum_over_all_flips(metrics, level):
    # averaging over the level generators in turn is bit-identical to the sum
    for d in (metrics[level], _perturbed(metrics[level])):
        got = symmetrize(d).entries
        assert got.tobytes() == _symmetrize_by_gathers(d).tobytes()
        assert got.tobytes() == _symmetrize_over_all_flips(d).tobytes()
    # random floats round unlike the sum, but the in-place block averages
    # still equal the whole-table gathers bit for bit
    noise = np.triu(np.random.default_rng(level).uniform(0, 0.5, metrics[level].entries.shape), 1)
    noisy = MetricMatrix(level, metrics[level].entries + noise + noise.T, slack=1.0)
    got = symmetrize(noisy).entries
    assert not np.array_equal(got, noisy.entries)
    assert got.tobytes() == _symmetrize_by_gathers(noisy).tobytes()


def test_flip_index_permutation_matches_graph(graphs, metrics):
    # symmetrize permutes a metric's indices with the graph's flip permutation
    for bits in ["10", "01", "11"]:
        assert np.array_equal(
            flip_permutation(metrics[2], bits), flip_permutation(graphs[2], bits)
        )
    with pytest.raises(ValueError):
        flip_permutation(metrics[3], "01")


# ---------------------------------------------------------------------------
# blowups


def test_internal_block_reproduces_lower_level(graphs, metrics):
    for prefix in ["1", "5", "0", "9"]:
        ib = internal_block_metric(graphs[2], prefix)
        assert np.array_equal(ib.entries, metrics[1].entries)
    ib = internal_block_metric(graphs[3], "55")
    assert np.array_equal(ib.entries, metrics[1].entries)


def _without_vertex(g, x):
    u, v, t = g.edge_arrays()
    keep = (u != x) & (v != x)
    return ReplacementGraph(g.level, g.policy, u[keep], v[keep], t[keep])


def test_disconnected_graph_has_no_metric(graphs):
    # a damaged graph is not G_n, so the closed form refuses it
    g1, g2 = _without_vertex(graphs[1], 5), _without_vertex(graphs[2], 5)
    with pytest.raises(ValueError, match="^graph is not G_1 under policy 'on'"):
        graph_metric(g1)
    # vertex 5 of G_2 is "05", so the block over "0" is the damaged G_1
    with pytest.raises(ValueError, match="^graph is not G_1 under policy 'on'"):
        internal_block_metric(g2, "0", reference=g1)
    # no certificate either: the sheets through "05" lack its grid edges
    assert lipschitz_quotient_check(g2).broken.startswith("(b)")
    with pytest.raises(ValueError, match="^graph is not G_2 under policy 'on'"):
        pi_diagnostic(g2, TileMeasure.uniform(2), 2.0, 5, 0)


def test_internal_block_above_dense_limit(graphs, monkeypatch):
    import pillowspace.metrics

    monkeypatch.setattr(pillowspace.metrics, "DENSE_LEVEL_LIMIT", 1)
    assert internal_block_metric(graphs[2], "5").level == 1
    with pytest.raises(CapacityError):
        internal_block_metric(graphs[3], "5")


def test_ambient_blowup_dominated_by_internal(graphs, metrics):
    for level, prefix in [(2, "1"), (2, "5"), (3, "2"), (3, "55")]:
        amb = blowup_metric(metrics[level], prefix, normalization="none")
        ib = internal_block_metric(graphs[level], prefix)
        assert (amb.entries <= ib.entries).all()
        # blocks happen to embed isometrically here
        assert np.array_equal(amb.entries, ib.entries)


def test_blowup_identity(metrics):
    b = blowup_metric(metrics[1], "", normalization="none")
    assert np.array_equal(b.entries, metrics[1].entries)


def test_blowup_normalizations(metrics):
    bd = blowup_metric(metrics[2], "3", normalization="diameter")
    assert bd.entries.max() == 1.0
    bp = blowup_metric(metrics[2], "3", normalization=("pair", "1", "9"))
    assert bp.entries[1, 9] == 1.0


def test_blowup_validation(metrics):
    with pytest.raises(ValueError):
        blowup_metric(metrics[1], "5")  # no room for a block
    with pytest.raises(ValueError):
        blowup_metric(metrics[2], "3", normalization=("pair", "1", "1"))  # zero
    with pytest.raises(ValueError):
        blowup_metric(metrics[2], "3", normalization=("pair", "11", "99"))
    with pytest.raises(ValueError):
        blowup_metric(metrics[2], "3", normalization="perimeter")


# ---------------------------------------------------------------------------
# distortion profiles


def test_identity_profile_tracks_bins(metrics):
    prof = qs_distortion(metrics[2], metrics[2], samples=2000, seed=7)
    assert prof.samples_used + prof.samples_skipped == 2000
    for lo, hi, count, mx, _env in prof.rows():
        if count:
            assert lo - 1e-12 <= mx <= hi + 1e-12


def test_envelope_monotone(metrics):
    prof = qs_distortion(metrics[2], _perturbed(metrics[2]), samples=2000, seed=7)
    env = prof.envelope[~np.isnan(prof.envelope)]
    assert (np.diff(env) >= 0).all()
    assert prof.inverse is not None
    inv_env = prof.inverse.envelope[~np.isnan(prof.inverse.envelope)]
    assert (np.diff(inv_env) >= 0).all()


def test_scaling_cancels(metrics):
    d = metrics[1]
    doubled = MetricMatrix(d.level, 2.0 * d.entries)
    a = qs_distortion(d, d, samples=1000, seed=3)
    b = qs_distortion(d, doubled, samples=1000, seed=3)
    assert np.array_equal(a.count, b.count)
    assert np.array_equal(a.max_ratio, b.max_ratio, equal_nan=True)


def test_snowflake_profile(metrics):
    """Square-rooting the metric bends ratios to their square roots, bin by bin."""
    d = metrics[2]
    snow = MetricMatrix(d.level, np.sqrt(d.entries))
    prof = qs_distortion(d, snow, samples=2000, seed=9)
    for lo, hi, count, mx, _env in prof.rows():
        if count:
            assert np.sqrt(lo) - 1e-12 <= mx <= np.sqrt(hi) + 1e-12


def test_profile_reproducible(metrics):
    a = qs_distortion(metrics[1], metrics[1], samples=500, seed=11)
    b = qs_distortion(metrics[1], metrics[1], samples=500, seed=11)
    assert np.array_equal(a.count, b.count)
    assert a.samples_skipped == b.samples_skipped


def _reference_profile(pairs):
    """Dict-and-loop binning of (t, r) pairs: per sqrt(2) bin of t, the count
    and the largest r, with the running maximum carried across empty bins."""
    bin_log = 0.5 * math.log(2.0)
    bins = {}
    for t, r in pairs:
        b = math.floor(math.log(t) / bin_log + 1e-12)
        cnt, mx = bins.get(b, (0, 0.0))
        bins[b] = (cnt + 1, max(mx, r))
    rows, running = [], -math.inf
    for b in range(min(bins), max(bins) + 1):
        cnt, mx = bins.get(b, (0, math.nan))
        if not math.isnan(mx):
            running = max(running, mx)
        rows.append((math.exp(bin_log * b), math.exp(bin_log * (b + 1)), cnt, mx,
                     running if running > -math.inf else math.nan))
    return rows


def _reference_distortion(d1, d2, samples, seed):
    """(forward rows, inverse rows, skipped) from one triple per loop step."""
    rng = random.Random(seed)
    n = d1.n_vertices
    fwd, bwd, skipped = [], [], 0
    for _ in range(samples):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if x == z or x == y:
            skipped += 1
            continue
        t = d1.entries[x, y] / d1.entries[x, z]
        r = d2.entries[x, y] / d2.entries[x, z]
        fwd.append((t, r))
        bwd.append((1.0 / t, 1.0 / r))
    return _reference_profile(fwd), _reference_profile(bwd), skipped


def _same_rows(got, want):
    # NaN marks an empty bin on both sides
    return np.array_equal(np.array(got, dtype=float), np.array(want, dtype=float), equal_nan=True)


@pytest.mark.parametrize("seed", [1, 7, 9])
def test_profile_matches_dict_and_loop_binning(metrics, seed):
    d2 = metrics[2]
    snow = MetricMatrix(d2.level, np.sqrt(d2.entries))
    pairs = [(metrics[1], metrics[1]), (d2, _perturbed(d2)), (d2, snow),
             (metrics[3], _perturbed(metrics[3]))]
    gaps = 0
    for d, e in pairs:
        prof = qs_distortion(d, e, samples=3000, seed=seed)
        fwd, bwd, skipped = _reference_distortion(d, e, 3000, seed)
        assert _same_rows(prof.rows(), fwd) and _same_rows(prof.inverse.rows(), bwd)
        assert prof.samples_skipped == prof.inverse.samples_skipped == skipped
        assert prof.samples_used == prof.inverse.samples_used == 3000 - skipped
        gaps += sum(1 for row in fwd + bwd if row[2] == 0)
    assert gaps  # some profile has an empty interior bin


def test_profile_validation(metrics):
    with pytest.raises(ValueError):
        qs_distortion(metrics[1], metrics[2], samples=10, seed=0)
    with pytest.raises(ValueError):
        qs_distortion(metrics[1], metrics[1], samples=0, seed=0)


def test_profile_refuses_a_draw_of_degenerate_triples_only(metrics):
    # seed 0 draws one level-1 triple, and it repeats its first vertex
    with pytest.raises(ValueError, match="^all samples degenerate; increase samples$"):
        qs_distortion(metrics[1], metrics[1], samples=1, seed=0)


# ---------------------------------------------------------------------------
# sheet isometry and projection ball images


def _sheets_by_words(n):
    # sheet bits -> its tiles, from the words alone: a tile lies on a sheet
    # when each of its center letters is the one that sheet's bit picks
    return {bits: [i for i, w in enumerate(all_words(n))
                   if all(c not in "05" or c == "50"[int(b)] for c, b in zip(w, bits))]
            for bits in map("".join, itertools.product("01", repeat=n))}


def _cells(n):
    return np.array([(s.x, s.y) for s in map(word_square, all_words(n))])


def _quotient_check_per_row(g):
    # one BFS row and one np.minimum.at per vertex: the first center whose
    # nearest tile over some cell is not at the cells' L1 distance, or None
    side = 3**g.level
    sx, sy = g.square_x, g.square_y
    cell = sx * side + sy
    gx, gy = np.divmod(np.arange(side * side), side)
    far = np.iinfo(np.int64).max  # an unreached tile is no nearer than any
    for i in range(g.n_vertices):
        dist = bfs_row(g, i)
        nearest = np.full(side * side, far)
        np.minimum.at(nearest, cell, np.where(dist < 0, far, dist))
        grid = np.abs(gx - sx[i]) + np.abs(gy - sy[i])
        if not np.array_equal(nearest, grid):
            return g.words[i]
    return None


def _sheet_pairs_by_bfs(g):
    # every ordered pair on every sheet: BFS distance against the L1 distance
    # of the word squares; the sheets whose pairs all agree
    cells = _cells(g.level)
    every = np.array([bfs_row(g, i) for i in range(g.n_vertices)])  # each tile is on a sheet
    agree = []
    for bits, tiles in _sheets_by_words(g.level).items():
        dist = every[np.ix_(tiles, tiles)]
        l1 = np.abs(cells[tiles, None] - cells[None, tiles]).sum(axis=2)
        if np.array_equal(dist, l1):
            agree.append(bits)
    return agree


@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_agrees_with_the_bfs_references(n, policy):
    g = build_graph(n, policy)
    rep = lipschitz_quotient_check(g)
    sheets = _sheet_pairs_by_bfs(g)
    assert rep.ok and rep.broken is None and rep.witness is None
    assert _quotient_check_per_row(g) is None and rep.vertices_checked == 10**n
    assert len(sheets) == rep.sheets == 2**n and rep.pairs_checked == 2**n * 81**n
    assert np.array_equal(_cells(n), np.stack([g.square_x, g.square_y], axis=1))


def _edited(g, drop=(), repoint=None):
    # g less the edges at the indices in drop; repoint=(k, w) moves edge k's
    # far end to tile w
    u, v, t = (a.copy() for a in g.edge_arrays())
    if repoint is not None:
        k, w = repoint
        u[k], v[k] = sorted((int(u[k]), w))
    keep = np.setdiff1d(np.arange(len(u)), drop)
    order = keep[np.lexsort((v[keep], u[keep]))]
    return ReplacementGraph(g.level, g.policy, u[order], v[order], t[order])


@pytest.mark.parametrize("policy", ["on", "off"])
def test_every_deleted_grid_edge_breaks_fact_b_on_a_sheet_holding_it(policy):
    # the H and V edges are the union of the sheets' lifted grid edges, so
    # each deletion leaves some sheet short, and the report names that sheet
    # and the squares of the deleted edge's ends
    g = build_graph(2, policy)
    u, v, t = g.edge_arrays()
    sheets, cells = _sheets_by_words(2), _cells(2)
    for k in np.flatnonzero(t != 2):
        rep = lipschitz_quotient_check(_edited(g, drop=[k]))
        assert not rep.ok and rep.broken.startswith("(b)"), k
        bits, a, b = rep.witness
        assert {u[k], v[k]} <= set(sheets[bits])
        assert {a, b} == {tuple(cells[u[k]]), tuple(cells[v[k]])}
        assert rep.pairs_checked <= 3 * 81**2  # that sheet's pairs are not counted


@pytest.mark.parametrize("edge", [(491, 492), (475, 478)])
def test_a_deleted_grid_edge_at_level_3_leaves_the_other_sheets_certified(graphs, edge):
    g = graphs[3]
    u, v, t = g.edge_arrays()
    (k,) = np.flatnonzero((u == edge[0]) & (v == edge[1]))
    on = [bits for bits, tiles in _sheets_by_words(3).items() if set(edge) <= set(tiles)]
    rep = lipschitz_quotient_check(_edited(g, drop=[k]))
    assert t[k] in (0, 1) and not rep.ok and rep.broken.startswith("(b)")
    assert rep.witness[0] == on[0]
    # the sheets that keep every grid edge are certified, and their tiles as centers
    assert rep.pairs_checked == (8 - len(on)) * 81**3
    keep = set().union(*(tiles for bits, tiles in _sheets_by_words(3).items() if bits not in on))
    assert rep.vertices_checked == len(keep)
    assert _quotient_check_per_row(_edited(g, drop=[k])) is not None


@pytest.mark.parametrize("n", [2, 3])
def test_an_edge_repointed_two_squares_away_breaks_fact_a(graphs, n):
    g = graphs[n]
    u, v, _ = g.edge_arrays()
    for k in (0, len(u) // 2):
        far = np.abs(g.square_x - g.square_x[u[k]]) + np.abs(g.square_y - g.square_y[u[k]]) == 2
        w = int(np.flatnonzero(far)[0])
        rep = lipschitz_quotient_check(_edited(g, repoint=(k, w)))
        assert not rep.ok and rep.broken.startswith("(a)")
        assert rep.witness == tuple(g.words[i] for i in sorted((int(u[k]), w)))
        assert rep.pairs_checked == rep.vertices_checked == 0


@pytest.mark.parametrize("n", [2, 3])
def test_a_deleted_seam_edge_stays_certified(graphs, n):
    # neither identity uses seams; the BFS references agree
    g = graphs[n]
    _, _, t = g.edge_arrays()
    for k in np.flatnonzero(t == 2)[:: 7 if n == 2 else 97]:
        bad = _edited(g, drop=[k])
        assert lipschitz_quotient_check(bad).ok
        if n == 2:
            assert _quotient_check_per_row(bad) is None and len(_sheet_pairs_by_bfs(bad)) == 4


def test_a_tile_on_no_sheet_breaks_coverage(graphs, monkeypatch):
    # with every flip spoiled to the identity, each sheet is the center-free
    # one: it carries every grid edge, but no tile with a '0' lies on it
    monkeypatch.setattr(metrics_module, "flip_permutation", lambda g, bits: np.arange(g.n_vertices))
    rep = lipschitz_quotient_check(graphs[2])
    assert not rep.ok and rep.broken == "every tile lies on some sheet"
    assert rep.witness == ("00",) and rep.vertices_checked == 81


def test_no_report_of_a_broken_fact_says_an_identity_fails(graphs):
    rep = lipschitz_quotient_check(_edited(graphs[2], drop=[0]))
    text = json.dumps(asdict(rep)).lower()
    assert "fail" not in text and "counterexample" not in text


# a child process's own peak RSS in KiB: VmHWM starts afresh at exec, while
# the ru_maxrss of a child started by subprocess starts at its parent's peak
_PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
"""
_CERTIFY_L6 = _PEAK_KIB + """
import sys, time
from pillowspace import build_graph, lipschitz_quotient_check
g = build_graph(6, sys.argv[1])
t0 = time.process_time()  # the child's own CPU time, not the machine's load
rep = lipschitz_quotient_check(g)
seconds = time.process_time() - t0
print(rep.ok, rep.vertices_checked, seconds, peak_kib())
"""


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["on", "off"])
def test_certificate_holds_at_level_6(policy):
    # about 5 s; the process peak, the build's included, about 300 MB
    out = subprocess.run([sys.executable, "-c", _CERTIFY_L6, policy], capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[:2] == ["True", str(10**6)]
    assert float(out[2]) < 8 and int(out[3]) < 400 * 1024


# ---------------------------------------------------------------------------
# covering the preimage of a grid ball


def test_cover_radius_zero(graphs):
    # fiber over the doubled center: every vertex its own ball
    rep = cover_preimage(graphs[2], (4, 4), 0)
    assert rep.ok and rep.preimage_covered
    assert len(rep.centers) == 4
    assert rep.ball_radius == 0
    assert rep.max_overlap == 1


def test_cover_center_ball(graphs):
    rep = cover_preimage(graphs[2], (4, 4), 1)
    assert rep.ok, rep.witness
    assert rep.centers == ["00", "50"]
    assert rep.ball_radius == 5
    assert rep.preimage_covered
    assert rep.max_overlap == 2


def test_cover_level3(graphs):
    rep = cover_preimage(graphs[3], (13, 13), 2)
    assert rep.ok, rep.witness
    assert rep.preimage_covered
    assert rep.ball_radius == 10
    # chosen centers really are pairwise far apart
    for i, a in enumerate(rep.centers):
        for b in rep.centers[i + 1 :]:
            assert bfs_row(graphs[3], int(a))[int(b)] > 4


def test_cover_validation(graphs):
    with pytest.raises(ValueError):
        cover_preimage(graphs[2], (4, 4), 1, c=4)
    with pytest.raises(ValueError):
        cover_preimage(graphs[2], (4, 4), -1)
    with pytest.raises(ValueError):
        cover_preimage(graphs[2], (9, 0), 1)


def test_cover_rejects_non_integer_counts(graphs):
    # each used to raise TypeError from range, or (c) pass with a float radius
    for center, radius, c in [((1.5, 2), 1, 5), ((1, 2), 1.5, 5), ((1, 2), 1, 5.5)]:
        with pytest.raises(ValueError, match="must be an integer"):
            cover_preimage(graphs[2], center, radius, c=c)


def _cover_preimage_reference(g, center, radius, c=5):
    # the set-and-dict form: every preimage vertex tested against every chosen
    # center in Python, the grid ball as a set of cells, pairwise intersect1d;
    # it recomputes the two properties cover_preimage takes as proved
    if c < 5:
        raise ValueError("constant must be at least 5 to cover while staying disjoint")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    side = 3**g.level
    cx, cy = center
    if not (0 <= cx < side and 0 <= cy < side):
        raise ValueError(f"grid cell {center} outside the {side} x {side} grid")
    sx, sy = g.square_x, g.square_y
    target_cells = {
        (int(a), int(b))
        for a in range(max(0, cx - radius), min(side, cx + radius + 1))
        for b in range(max(0, cy - radius), min(side, cy + radius + 1))
        if abs(a - cx) + abs(b - cy) <= radius
    }
    pre = np.nonzero(np.abs(sx - cx) + np.abs(sy - cy) <= radius)[0]
    centers, rows = [], {}
    for v in pre:
        v = int(v)
        if all(rows[u][v] > 2 * radius for u in centers):
            centers.append(v)
            row = bfs_row(g, v)
            if (row < 0).any():
                raise ValueError("graph is disconnected; balls do not nest")
            rows[v] = row
    ball_radius = c * radius
    target_covered, shrunk_disjoint, preimage_covered = True, True, True
    witness = None
    covered = np.zeros(g.n_vertices, dtype=np.int64)
    shrunk = []
    for u in centers:
        members = rows[u] <= ball_radius
        covered += members
        image = {(int(a), int(b)) for a, b in zip(sx[members], sy[members])}
        if not target_cells <= image:
            target_covered = False
            witness = witness or ("image", g.words[u], sorted(target_cells - image)[:3])
        shrunk.append(np.nonzero(rows[u] <= radius)[0])
    for i in range(len(shrunk)):
        for j in range(i + 1, len(shrunk)):
            if np.intersect1d(shrunk[i], shrunk[j]).size:
                shrunk_disjoint = False
                witness = witness or ("overlap", g.words[centers[i]], g.words[centers[j]])
    if (covered[pre] == 0).any():
        preimage_covered = False
        missing = int(pre[np.nonzero(covered[pre] == 0)[0][0]])
        witness = witness or ("uncovered", g.words[missing])
    return CoverReport(
        center=(cx, cy), radius=radius, c=c, centers=[g.words[u] for u in centers],
        ball_radius=ball_radius, uniform_radius=True, target_covered=target_covered,
        shrunk_disjoint=shrunk_disjoint, preimage_covered=preimage_covered,
        max_overlap=int(covered.max()) if len(centers) else 0, witness=witness,
    )


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_cover_matches_set_and_dict_reference(graphs, level):
    g = graphs[level] if level in graphs else build_graph(level)
    rng = random.Random(level)
    side = 3**level
    for c in (5, 7):
        for radius in range(5):
            for _ in range(8):
                center = (rng.randrange(side), rng.randrange(side))
                got = asdict(cover_preimage(g, center, radius, c))
                assert got == asdict(_cover_preimage_reference(g, center, radius, c))
    # radius and constant far past int64: the comparisons stay exact
    middle = (side // 2, side // 2)
    got = cover_preimage(g, middle, 10**23, c=10**21)
    assert asdict(got) == asdict(_cover_preimage_reference(g, middle, 10**23, 10**21))
    assert got.ball_radius == 10**44 and got.ok


def test_cover_refuses_damaged_graphs(graphs):
    # any edge cut from G_2 or G_3 leaves a graph whose hop distances
    # cover_preimage does not compute: it refuses it before any ball
    for seed in range(20):
        rng = random.Random(seed)
        g = graphs[2 + seed % 2]
        u, v, t = g.edge_arrays()
        cut = rng.sample(range(len(u)), rng.choice([1, 10, 40, 80]))
        bad = ReplacementGraph(g.level, g.policy, np.delete(u, cut), np.delete(v, cut),
                               np.delete(t, cut))
        with pytest.raises(ValueError, match=f"^graph is not G_{g.level} "):
            cover_preimage(bad, (rng.randrange(3**g.level),) * 2, rng.randint(0, 3))


# ---------------------------------------------------------------------------
# Poincare-ratio diagnostic


def test_pi_diagnostic_pinned_level2(graphs):
    rep = pi_diagnostic(graphs[2], TileMeasure.uniform(2), p=2.0, trials=40, seed=11)
    assert rep.worst_ratio == pytest.approx(0.27777777777777773, rel=1e-12)
    assert rep.worst_case == ("ambient-x", "49", 1)
    assert len(rep.rows) == 40


def test_pi_diagnostic_pinned_level3(graphs):
    rep = pi_diagnostic(graphs[3], TileMeasure.uniform(3), p=1.5, trials=25, seed=5)
    assert rep.worst_ratio == pytest.approx(0.22837370242214533, rel=1e-12)


def test_pi_diagnostic_ratios_finite(graphs):
    rep = pi_diagnostic(graphs[2], TileMeasure.uniform(2), p=3.0, trials=30, seed=2)
    for _label, _center, _radius, lhs, rhs, ratio in rep.rows:
        assert np.isfinite(ratio) and ratio >= 0
        assert lhs >= 0 and rhs >= 0


def test_pi_diagnostic_constant_on_the_ball_is_zero(graphs):
    # a low-frequency function constant on the radius-1 ball at 756 (one
    # prefix block) and on its dilation: the weighted mean rounded to leave
    # lhs = 1.1e-16 against rhs = 0, and the worst ratio read inf
    rep = pi_diagnostic(graphs[3], TileMeasure.uniform(3), p=2.0, trials=70, seed=0)
    assert ("low-frequency", "756", 1, 0.0, 0.0, 0.0) in rep.rows
    assert math.isfinite(rep.worst_ratio)
    for _label, _center, _radius, lhs, rhs, ratio in rep.rows:
        assert lhs > 0 or ratio == 0.0


def test_pi_diagnostic_sheet_measure(graphs):
    # mass on one sheet only; balls missing the sheet are skipped, not crashed
    rep = pi_diagnostic(graphs[2], TileMeasure.one_sheet(2, "00"), p=2.0, trials=20, seed=4)
    assert rep.worst_ratio >= 0


def test_pi_diagnostic_skips_a_ball_of_zero_mass(graphs):
    # all mass on tile 3: four of the five seeded radius-1 balls miss it
    rep = pi_diagnostic(graphs[1], TileMeasure(1, {3: 1}), p=2.0, trials=5, seed=1)
    assert rep.trials == 5 and [row[1] for row in rep.rows] == ["3"]


def test_pi_diagnostic_reads_an_oscillation_over_no_gradient_as_infinite(graphs, monkeypatch):
    monkeypatch.setattr(metrics_module, "_gradient", lambda a, b, key, table, n: np.zeros(n))
    rep = pi_diagnostic(graphs[2], TileMeasure.uniform(2), p=2.0, trials=10, seed=1)
    assert rep.worst_ratio == math.inf
    assert all(ratio == math.inf for *_, lhs, _rhs, ratio in rep.rows if lhs > 0)


def test_pi_diagnostic_validation(graphs):
    m = TileMeasure.uniform(2)
    for p in (0.5, math.nan, math.inf, True, np.True_):
        with pytest.raises(ValueError, match="^exponent must lie in"):
            pi_diagnostic(graphs[2], m, p=p, trials=5, seed=0)
    with pytest.raises(ValueError):
        pi_diagnostic(graphs[2], m, p=2.0, trials=0, seed=0)
    with pytest.raises(ValueError):
        pi_diagnostic(graphs[1], m, p=2.0, trials=5, seed=0)


def test_counts_must_be_integers(graphs, metrics):
    # each used to end in a TypeError from range
    with pytest.raises(ValueError, match="must be an integer"):
        pi_diagnostic(graphs[2], TileMeasure.uniform(2), p=2.0, trials=5.5, seed=0)
    with pytest.raises(ValueError, match="must be an integer"):
        qs_distortion(metrics[2], metrics[2], samples=2.5, seed=0)


@pytest.mark.parametrize("seed", [None, 2.5, True, "7"])
def test_sampling_seeds_must_be_integers(graphs, metrics, seed):
    # None seeded from OS entropy, so two equal calls differed
    m = TileMeasure.uniform(2)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        qs_distortion(metrics[2], metrics[2], samples=5, seed=seed)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        pi_diagnostic(graphs[2], m, p=2.0, trials=5, seed=seed)
    assert pi_diagnostic(graphs[2], m, 2.0, 5, np.int64(3)) == pi_diagnostic(graphs[2], m, 2.0, 5, 3)


def _pi_diagnostic_reference(g, m, p, trials, seed):
    # per-vertex weight loop, per-vertex low-frequency values and the
    # gradient from two np.maximum.at passes over the edge arrays
    rng = random.Random(seed)
    n = g.n_vertices
    weight = np.zeros(n)
    for idx, frac in m.mass.items():
        weight[idx] = float(frac)
    side = 3**g.level
    fixed = [
        ("cell-x", g.square_x.astype(np.float64)),
        ("cell-y", g.square_y.astype(np.float64)),
        ("ambient-x", (g.square_x + 0.5) / side),
    ]

    def low_frequency():
        values = [rng.uniform(0.0, 1.0) for _ in range(10)]
        blocks = np.arange(n) // 10 ** (g.level - 1)
        return np.array([values[b] for b in blocks])

    eu, ev, _t = g.edge_arrays()
    rows = []
    worst, worst_case = 0.0, None
    for _ in range(trials):
        which = rng.randrange(len(fixed) + 1)
        label, u = fixed[which] if which < len(fixed) else ("low-frequency", low_frequency())
        center = rng.randrange(n)
        radius = rng.randint(1, max(1, side // 2))
        dist = bfs_row(g, center)
        in_b = dist <= radius
        in_cb = dist <= PI_DILATION * radius
        wb = weight[in_b]
        if wb.sum() == 0:
            continue
        ub = float((u[in_b] * wb).sum() / wb.sum())
        lhs = float((np.abs(u[in_b] - ub) * wb).sum() / wb.sum())
        if len(set(u[in_b].tolist())) == 1:  # constant on B: no oscillation
            lhs = 0.0
        grad = np.zeros(n)
        step = np.abs(u[eu] - u[ev])
        np.maximum.at(grad, eu, step)
        np.maximum.at(grad, ev, step)
        wcb = weight[in_cb]
        denom_mass = wcb.sum()
        gterm = float((grad[in_cb] ** p * wcb).sum() / denom_mass) ** (1.0 / p)
        rhs = 2 * int(dist[in_b].max()) * gterm
        if lhs == 0.0:
            ratio = 0.0
        elif rhs == 0.0:
            ratio = math.inf
        else:
            ratio = lhs / rhs
        rows.append((label, g.words[center], radius, lhs, rhs, ratio))
        if ratio > worst:
            worst, worst_case = ratio, (label, g.words[center], radius)
    return PIDiagnostic(p, trials, worst, worst_case, rows)


@pytest.mark.parametrize("level", [2, 3])
def test_gradient_equals_a_reduceat_over_the_arc_csr(graphs, level):
    # the gradient of f = table[key] over every edge is bit for bit the
    # maximum over each vertex's CSR slice of arcs; a function constant on
    # the level-1 blocks has the same gradient over the edges between blocks
    g = graphs[level]
    n = g.n_vertices
    eu, ev, _t = g.edge_arrays()
    indptr, heads, _edge = graphs_module.arc_csr(eu, ev, n)
    tails = np.repeat(np.arange(n), np.diff(indptr))
    rng = np.random.default_rng(level)
    cells = np.arange(3**level, dtype=np.float64)
    block = np.arange(n) // 10 ** (level - 1)
    cross = block[eu] != block[ev]
    for key, table in ((g.square_x, cells), (g.square_y, cells), (g.square_x, (cells + 0.5) / 3**level),
                       (block, rng.uniform(size=10)), (np.arange(n), rng.standard_normal(n))):
        u = table[key]
        want = np.maximum.reduceat(np.abs(u[heads] - u[tails]), indptr[:-1])
        got = metrics_module._gradient(eu, ev, key, table, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if key is block:
            assert np.array_equal(metrics_module._gradient(eu[cross], ev[cross], key, table, n), want)


def test_many_centers_hold_one_hop_row_at_a_time():
    # one array of rows for 1,000 L5 centers or 200 trials would ask for
    # 0.8 GB or 160 MB; each function holds a few rows of 10^5 at a time
    # (about 6.5 and 7.5: the diagnostic's gradients take n/4 edges a step)
    g5 = build_graph(5)
    measure = TileMeasure.uniform(5)
    row = 8 * g5.n_vertices
    for run in (lambda: ball_dimension_estimate(g5, 1000, 3),
                lambda: pi_diagnostic(g5, measure, 2.0, 200, 3)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * row


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_pi_diagnostic_matches_edge_array_reference(graphs, level):
    # repr compares every float bit for bit
    g = graphs[level] if level in graphs else build_graph(level)
    trials = 6 if level == 4 else 12
    for measure in (TileMeasure.uniform(level), TileMeasure.one_sheet(level)):
        for p in (1.0, 1.5, 2.0, 3.0):
            for seed in range(4):
                got = pi_diagnostic(g, measure, p, trials, seed)
                assert repr(got) == repr(_pi_diagnostic_reference(g, measure, p, trials, seed))


# ---------------------------------------------------------------------------
# persistence


def test_roundtrip_exact(metrics, tmp_path):
    for n in (1, 2):
        path = tmp_path / f"m{n}.bin"
        write_metric_matrix(metrics[n], path)
        back = read_metric_matrix(path)
        assert back.level == metrics[n].level == n
        assert np.array_equal(back.entries, metrics[n].entries)


def test_roundtrip_quantizes_fractions(metrics, tmp_path):
    d = metrics[1]
    scaled = MetricMatrix(d.level, d.entries / 3.0)
    path = tmp_path / "frac.bin"
    write_metric_matrix(scaled, path)
    back = read_metric_matrix(path)
    assert np.allclose(back.entries, scaled.entries, atol=1e-5)
    assert not np.array_equal(back.entries, scaled.entries)


def test_read_rejects_bad_magic(metrics, tmp_path):
    path = tmp_path / "m.bin"
    write_metric_matrix(metrics[1], path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_metric_matrix(path)


def test_read_rejects_truncation(metrics, tmp_path):
    path = tmp_path / "m.bin"
    write_metric_matrix(metrics[1], path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        read_metric_matrix(path)


def test_read_rejects_count_mismatch(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"PLM1" + struct.pack("<II", 1, 11))
    with pytest.raises(ValueError):
        read_metric_matrix(path)


@pytest.mark.parametrize(
    "raw",
    [
        b"PLM1\0\0",  # short header
        b"PLM1" + struct.pack("<II", 0, 1),  # level 0: a metric on [""]
        b"PLM1" + struct.pack("<II", 9, 10**9),  # level above the dense limit
        b"PLM1" + struct.pack("<II", 1, 10) + bytes(4 * 46),  # payload too long
    ],
    ids=["short-header", "level-0", "level-9", "long-payload"],
)
def test_read_rejects_malformed_header_or_payload(tmp_path, raw):
    path = tmp_path / "m.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError):
        read_metric_matrix(path)


def test_write_rejects_overflow(tmp_path):
    e = 65536.0 * (np.ones((10, 10)) - np.eye(10))
    big = MetricMatrix(1, e)
    with pytest.raises(ValueError):
        write_metric_matrix(big, tmp_path / "m.bin")
    assert not (tmp_path / "m.bin").exists()  # refused before the file is opened


def test_metric_files_hold_no_temporary_the_size_of_the_table(metrics, tmp_path):
    # through triu_indices and whole-table copies, the level-3 write peaked at
    # 2.75 tables and the read at 3.26
    d, path = metrics[3], tmp_path / "m3.bin"
    tracemalloc.start()
    try:
        write_metric_matrix(d, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_metric_matrix(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak <= 0.25 * d.entries.nbytes
    assert read_peak <= 2 * d.entries.nbytes
    assert np.array_equal(back.entries, d.entries)


# each prints the rise of its process's peak RSS over its file step, in KiB,
# and a digest of the table it wrote or read
_WRITE_L4 = _PEAK_KIB + """
import hashlib, sys
from pillowspace import build_graph, graph_metric, write_metric_matrix
d = graph_metric(build_graph(4))
before = peak_kib()
write_metric_matrix(d, sys.argv[1])
rise = peak_kib() - before
print(rise, hashlib.sha256(d.entries).hexdigest())
"""
_READ_L4 = _PEAK_KIB + """
import hashlib, sys
from pillowspace import read_metric_matrix
before = peak_kib()
d = read_metric_matrix(sys.argv[1])
rise = peak_kib() - before
print(rise, hashlib.sha256(d.entries).hexdigest())
"""


@pytest.mark.slow
def test_level_4_metric_file_round_trip_in_bounded_memory(tmp_path):
    # one process writes the level-4 metric (an 800 MB table, a 200 MB file)
    # and another reads it back; each peak may rise by the table and the file
    # and a quarter more.  Whole-table temporaries made it 1,994 MB on write
    # and 2,510 MB on read.
    path = tmp_path / "m4.bin"
    runs = [subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                           text=True, check=True).stdout.split()
            for code in (_WRITE_L4, _READ_L4)]
    (write_rise, wrote), (read_rise, read) = runs
    assert read == wrote
    bound = 1.25 * (8 * 10**8 + path.stat().st_size)
    assert 1024 * int(write_rise) <= bound and 1024 * int(read_rise) <= bound
