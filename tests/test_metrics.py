import math
import random
import struct
from dataclasses import asdict

import numpy as np
import pytest

from pillowspace import (
    CapacityError,
    MetricMatrix,
    QuotientReport,
    ReplacementGraph,
    TileMeasure,
    all_words,
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
    write_metric_matrix,
)
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


def test_rejects_triangle_violation():
    e = np.ones((10, 10)) - np.eye(10)
    e[0, 1] = e[1, 0] = 5.0  # 5 > 1 + 1
    with pytest.raises(ValueError):
        MetricMatrix(1, e)


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


def test_symmetrize_makes_invariant(metrics):
    pert = _perturbed(metrics[2])
    p10 = flip_permutation(pert, "10")
    assert not np.array_equal(pert.entries[np.ix_(p10, p10)], pert.entries)
    s = symmetrize(pert)
    for bits in ["10", "01", "11"]:
        p = flip_permutation(s, bits)
        assert np.array_equal(s.entries[np.ix_(p, p)], s.entries)


def test_symmetrize_idempotent(metrics):
    s = symmetrize(_perturbed(metrics[2]))
    assert np.array_equal(symmetrize(s).entries, s.entries)


def test_sampled_symmetrize_reproducible(metrics):
    pert = _perturbed(metrics[2])
    a = symmetrize(pert, mode="sampled", samples=5, seed=42)
    b = symmetrize(pert, mode="sampled", samples=5, seed=42)
    c = symmetrize(pert, mode="sampled", samples=5, seed=43)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_sampled_symmetrize_validation(metrics):
    with pytest.raises(ValueError):
        symmetrize(metrics[1], mode="sampled", samples=5)
    with pytest.raises(ValueError):
        symmetrize(metrics[1], mode="sampled", seed=1)
    with pytest.raises(ValueError):
        symmetrize(metrics[1], mode="shaken")


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
    g1, g2 = _without_vertex(graphs[1], 5), _without_vertex(graphs[2], 5)
    with pytest.raises(ValueError, match="disconnected"):
        graph_metric(g1)
    # vertex 5 of G_2 is "05", so the block over "0" is the damaged G_1
    with pytest.raises(ValueError, match="disconnected"):
        internal_block_metric(g2, "0", reference=g1)


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
             (metrics[3], symmetrize(_perturbed(metrics[3]), "sampled", 3, seed))]
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


# ---------------------------------------------------------------------------
# projection ball images


def test_quotient_check_passes(graphs):
    for n in (1, 2, 3):
        rep = lipschitz_quotient_check(graphs[n])
        assert rep.ok, rep.witness
        assert rep.vertices_checked == graphs[n].n_vertices
        assert rep.witness is None
    assert lipschitz_quotient_check(graphs[2]).max_radius == 16


def _quotient_check_per_row(g):
    # one BFS row and one np.minimum.at per vertex, stopping at the first bad row
    side = 3**g.level
    sx, sy = g.square_x, g.square_y
    cell = sx * side + sy
    gx, gy = np.divmod(np.arange(side * side), side)
    max_radius = 0
    for i in range(g.n_vertices):
        dist = bfs_row(g, i)
        max_radius = max(max_radius, int(dist.max()))
        nearest = np.full(side * side, np.iinfo(np.int64).max)
        np.minimum.at(nearest, cell, dist)
        grid = np.abs(gx - sx[i]) + np.abs(gy - sy[i])
        if not np.array_equal(nearest, grid):
            b = int(np.flatnonzero(nearest != grid)[0])
            witness = (g.words[i], (int(gx[b]), int(gy[b])), int(nearest[b]), int(grid[b]))
            return QuotientReport(g.level, i + 1, max_radius, False, witness)
    return QuotientReport(g.level, g.n_vertices, max_radius, True, None)


@pytest.mark.parametrize("edge", [(57, 67), (61, 62), (98, 99)])
def test_quotient_check_on_a_damaged_graph_matches_per_row_loop(graphs, edge):
    g2 = graphs[2]
    u, v, t = g2.edge_arrays()
    (k,) = np.flatnonzero((u == edge[0]) & (v == edge[1]))
    assert t[k] == 0  # an H edge
    bad = ReplacementGraph(level=2, policy=g2.policy, u=np.delete(u, k),
                           v=np.delete(v, k), t=np.delete(t, k))
    rep = lipschitz_quotient_check(bad)
    assert not rep.ok
    assert rep == _quotient_check_per_row(bad)


def test_quotient_check_capacity():
    class Big:
        level = 4

    with pytest.raises(CapacityError):
        lipschitz_quotient_check(Big())


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
    # rows come from metrics.bfs_row so a patched kernel reaches both forms
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
            row = metrics_module.bfs_row(g, v)
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


def _cover_outcome(cover, *args, **kwargs):
    try:
        return asdict(cover(*args, **kwargs))
    except ValueError as e:
        return ("error", str(e))


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


def test_cover_on_damaged_graphs_matches_reference(graphs):
    kinds = set()
    for seed in range(60):
        rng = random.Random(seed)
        g = graphs[2 + seed % 2]
        u, v, t = g.edge_arrays()
        cut = rng.sample(range(len(u)), rng.choice([1, 10, 40, 80]))
        bad = ReplacementGraph(g.level, g.policy, np.delete(u, cut), np.delete(v, cut),
                               np.delete(t, cut))
        side = 3**g.level
        for _ in range(4):
            args = ((rng.randrange(side), rng.randrange(side)), rng.randint(0, 3),
                    rng.choice([5, 7]))
            got = _cover_outcome(cover_preimage, bad, *args)
            assert got == _cover_outcome(_cover_preimage_reference, bad, *args)
            kinds.add(got[0] if isinstance(got, tuple) else (got["witness"] or ("ok",))[0])
    # the grid reaches the disconnected error and a missed image cell
    assert kinds == {"ok", "error", "image"}


def test_cover_overlap_witness_matches_reference(graphs, monkeypatch):
    # hop distance never lets balls of centers more than 2r apart meet; rows
    # shrunk by a third from odd centers do, and reach the overlap witness
    def skewed(g, start):
        row = bfs_row(g, start)
        return row // 3 if start % 2 else row

    monkeypatch.setattr(metrics_module, "bfs_row", skewed)
    g = graphs[3]
    seen = []
    for center in [(13, 13), (9, 12), (15, 9)]:
        got = cover_preimage(g, center, 2)
        assert asdict(got) == asdict(_cover_preimage_reference(g, center, 2))
        seen.append(got.witness and got.witness[0])
    assert seen == [None, "overlap", "overlap"]


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


def test_pi_diagnostic_sheet_measure(graphs):
    # mass on one sheet only; balls missing the sheet are skipped, not crashed
    rep = pi_diagnostic(graphs[2], TileMeasure.one_sheet(2, "00"), p=2.0, trials=20, seed=4)
    assert rep.worst_ratio >= 0


def test_pi_diagnostic_validation(graphs):
    m = TileMeasure.uniform(2)
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
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
    with pytest.raises(ValueError, match="must be an integer"):
        symmetrize(metrics[1], mode="sampled", samples=2.5, seed=1)


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
