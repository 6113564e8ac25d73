"""Tests for the p-modulus solver, its certificates, and the level scan."""

import copy
import math
import pickle
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import pillowspace as ps
from pillowspace import modulus as M
from pillowspace.graphs import arc_csr, symmetry_permutations

P_GRID = [1.0, 1.5, 2.0, 2.0959, 2.5, 3.0]

# crossing modulus of the replacement graphs, doubled center engaged,
# pinned from certified runs (certificate gap below 3e-6 relative)
PINNED = {
    (1, 1.0): 4.0,
    (1, 1.5): 2.8284271247,
    (1, 2.0): 2.0,
    (1, 2.0959): 1.8713767051,
    (1, 2.5): 1.4142135624,
    (1, 3.0): 1.0,
    (2, 1.0): 12.0,
    (2, 1.5): 4.4273484027,
    (2, 2.0): 1.5548135039,
    (2, 2.0959): 1.2721919183,
    (2, 2.5): 0.5474593561,
    (2, 3.0): 0.1935634201,
    (3, 1.0): 32.0,
    (3, 2.0): 1.5215533652,
    (3, 2.0959): 1.1119183114,
}


@pytest.fixture(scope="module")
def crossing():
    """Level -> (network, left face, right face)."""
    out = {}
    for n in (1, 2, 3):
        g = ps.build_graph(n)
        out[n] = (
            M.Network.from_graph(g),
            frozenset(ps.boundary_face(g, "left")),
            frozenset(ps.boundary_face(g, "right")),
        )
    return out


def solve(net, src, tgt, p, **kw):
    return M.solve_modulus(M.ModulusProblem(net, frozenset(src), frozenset(tgt), p, **kw))


def fresh(net):
    """A network of its own, equal to net: no set-up or potential kept from
    earlier solves, so its first solve at each exponent starts cold."""
    return M.Network(net.n_vertices, net.ends, net.mult)


def shortest_path(net, weights, src, tgt):
    """_shortest_path over the sides as the sorted vertex arrays it takes."""
    return M._shortest_path(net, weights, np.array(sorted(src)), np.array(sorted(tgt)))


# ---------------------------------------------------------------------------
# analytic families


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("k", [1, 2, 5])
def test_single_path_value(p, k):
    net, src, tgt = M.path_network(k)
    res = solve(net, src, tgt, p)
    want = k ** (1.0 - p)
    assert res.converged
    assert abs(res.value - want) <= 1e-6 * want
    assert res.value_lower <= want * (1 + 1e-9)
    assert res.value_upper >= want * (1 - 1e-9)


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("m,k", [(3, 1), (2, 4), (4, 3)])
def test_parallel_paths_value(p, m, k):
    net, src, tgt = M.parallel_network(m, k)
    res = solve(net, src, tgt, p)
    want = m * k ** (1.0 - p)
    assert res.converged
    assert abs(res.value - want) <= 1e-6 * want


def test_extreme_exponent_still_certified():
    net, src, tgt = M.parallel_network(2, 3)
    res = solve(net, src, tgt, 12.0)  # beyond the harmonic seeding range
    want = 2 * 3**-11.0
    assert res.converged
    assert abs(res.value - want) <= 1e-6 * want


# ---------------------------------------------------------------------------
# oracle agreement


@pytest.mark.parametrize("rows", [2, 3, 4, 5])
@pytest.mark.parametrize("cols", [2, 3, 4, 5])
def test_unit_exponent_matches_mincut(rows, cols):
    net, src, tgt = M.grid_network(rows, cols)
    res = solve(net, src, tgt, 1.0)
    cut = M.mincut_oracle(net, src, tgt)
    assert res.converged
    assert abs(res.value - cut) <= 1e-6 * cut


@pytest.mark.parametrize("rows", [2, 3, 4, 5])
@pytest.mark.parametrize("cols", [2, 3, 4, 5])
def test_square_exponent_matches_conductance(rows, cols):
    net, src, tgt = M.grid_network(rows, cols)
    res = solve(net, src, tgt, 2.0)
    cond = M.effective_conductance(net, src, tgt)
    assert res.converged
    assert abs(res.value - cond) <= 1e-6 * max(cond, 1.0)


def test_replacement_graph_oracles(crossing):
    net, src, tgt = crossing[1]
    assert M.mincut_oracle(net, src, tgt) == 4
    net3, src3, tgt3 = crossing[3]
    assert M.mincut_oracle(net3, src3, tgt3) == 32
    assert abs(M.effective_conductance(net3, src3, tgt3) - 1.5215533652) < 1e-10


# ---------------------------------------------------------------------------
# certificates


@pytest.mark.parametrize("p", [1.5, 2.0959, 3.0])
def test_certificate_sandwich(crossing, p):
    net, src, tgt = crossing[2]
    tol = 1e-6
    res = solve(net, src, tgt, p, tolerance=tol)
    assert res.converged
    assert res.value_lower <= res.value_upper * (1 + 1e-12)
    assert res.value_upper - res.value_lower <= 5 * tol * res.value_lower


def test_upper_certificate_is_admissible(crossing):
    # the rescaled density really has every crossing path at length >= 1
    net, src, tgt = crossing[2]
    res = solve(net, src, tgt, 1.5)
    length, _ = shortest_path(net, res.density, src, tgt)
    assert length >= 1.0 - 2e-6
    for vpath in res.active_paths:
        assert vpath[0] in src and vpath[-1] in tgt


def test_coarser_tolerance_still_brackets(crossing):
    net, src, tgt = crossing[2]
    loose = solve(net, src, tgt, 2.5, tolerance=1e-3)
    tight = solve(net, src, tgt, 2.5, tolerance=1e-6)
    assert loose.value_lower <= tight.value_upper * (1 + 1e-9)
    assert loose.value_upper >= tight.value_lower * (1 - 1e-9)


# ---------------------------------------------------------------------------
# structural identities


@pytest.mark.parametrize("p", [1.0, 1.5, 2.5])
def test_duplicated_edges_double_the_value(p):
    net, src, tgt = M.grid_network(3, 4)
    doubled = M.Network(net.n_vertices, np.concatenate([net.ends, net.ends]))
    base = solve(net, src, tgt, p)
    twice = solve(doubled, src, tgt, p)
    assert abs(twice.value - 2 * base.value) <= 2e-5 * base.value


@pytest.mark.parametrize("case", ["parallel", "L2"])
def test_an_edge_of_multiplicity_k_is_k_parallel_copies(crossing, case):
    net, src, tgt = M.parallel_network(3, 4) if case == "parallel" else crossing[2]
    mult = np.random.default_rng(7).integers(1, 4, net.n_edges)
    weighted = M.Network(net.n_vertices, net.ends, mult)
    copies = M.Network(net.n_vertices, np.repeat(net.ends, mult, axis=0))
    for p in (1.0, 1.5, 2.0, 3.0):
        got, want = solve(weighted, src, tgt, p), solve(copies, src, tgt, p)
        assert got.converged and want.converged and got.solved_vertices == want.solved_vertices
        # one quotient, so one potential; the copies route a divergence along one copy
        assert abs(got.value - want.value) <= 2e-6 * want.value, p
        assert got.value_lower <= want.value_upper and want.value_lower <= got.value_upper, p
    assert M.mincut_oracle(weighted, src, tgt) == M.mincut_oracle(copies, src, tgt)
    cond = M.effective_conductance(copies, src, tgt)
    assert abs(M.effective_conductance(weighted, src, tgt) - cond) <= 1e-12 * cond


@pytest.mark.parametrize("mult, message", [
    ([1, 1, 1], r"^need one multiplicity per edge \(2\), got shape \(3,\)$"),
    ([[1, 1]], r"^need one multiplicity per edge \(2\), got shape \(1, 2\)$"),
    ([1.0, 2.0], "^edge multiplicities must be integers, got dtype float64$"),
    ([2, True], "^edge multiplicities must be integers, got a bool$"),
    (np.array([True, True]), "^edge multiplicities must be integers, got dtype bool$"),
    ([1, 0], "^edge multiplicities must be positive, got 0$"),
    ([-3, 1], "^edge multiplicities must be positive, got -3$"),
    ([2**29, 2**29], r"^edge multiplicities must total below 2\^30$"),
    ([2**62, 2**62], r"^edge multiplicities must total below 2\^30$"),
])
def test_network_rejects_bad_multiplicities(mult, message):
    # a bool among ints made an int array; a total of 2^30 overflowed the
    # int32 capacities of the maximum flow
    with pytest.raises(ValueError, match=message):
        M.Network(3, [(0, 1), (1, 2)], mult)


def test_the_largest_multiplicity_total_fits_the_maximum_flow():
    # 2 * total + 1 is the super source's capacity, an int32 in scipy's maximum_flow
    net = M.Network(2, [(0, 1)], [2**30 - 1])
    assert solve(net, {0}, {1}, 1.0).value == 2**30 - 1 == M.mincut_oracle(net, {0}, {1})
    assert M.Network(2, [(0, 1)]).mult.strides == (0,)  # the default allocates no array


def test_flip_relabeling_preserves_value(crossing):
    net, src, tgt = crossing[2]
    g = ps.build_graph(2)
    perm = ps.flip_permutation(g, "10")
    assert ps.is_automorphism(g, perm)
    relabeled = M.Network(net.n_vertices, perm[net.ends])
    # center sheets swap, the boundary faces stay put
    a = solve(net, src, tgt, 2.5)
    b = solve(relabeled, src, tgt, 2.5)
    assert abs(a.value - b.value) <= 2e-5 * a.value


def test_smaller_target_never_increases(crossing):
    net, src, tgt = crossing[1]
    sub = frozenset(sorted(tgt)[:1])
    full = solve(net, src, tgt, 2.0)
    part = solve(net, src, sub, 2.0)
    assert part.value <= full.value * (1 + 1e-9)


def test_monotone_in_exponent(crossing):
    for n in (1, 2):
        net, src, tgt = crossing[n]
        values = [solve(net, src, tgt, p).value for p in P_GRID]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 2e-5)


@pytest.mark.parametrize("p", [1.05, 1.2])
def test_exponent_near_one_still_certified(crossing, p):
    # the raw flow |dphi|^(p-2) dphi is far from conserved on edges where
    # dphi is below the IRLS smoothing; correcting it left gap 8e-2 at 1.05
    net, src, tgt = crossing[2]
    res = solve(net, src, tgt, p)
    assert res.converged
    assert res.value_upper / res.value_lower - 1 <= 5e-6


def test_disconnected_pair_is_zero():
    net = M.Network(4, [(0, 1), (2, 3)])
    res = solve(net, {0}, {2}, 2.0)
    assert res.converged
    assert res.value == 0.0


def test_floating_components_do_not_count():
    # isolated vertices and a triangle touching neither side carry no
    # crossing; they must not make the potential or flow solves singular
    net, src, tgt = M.path_network(2)
    edges = net.ends.tolist() + [(4, 5), (5, 6), (6, 4)]
    padded = M.Network(net.n_vertices + 5, edges)  # vertices 3 and 7 isolated
    for p in (1.0, 1.5, 2.0, 2.5, 3.0):
        # IRLS stops once its bracket meets the tolerance, so a 1e-9 bound
        # needs a tolerance well below it
        res = solve(padded, src, tgt, p, tolerance=1e-11)
        want = 2.0 ** (1.0 - p)
        assert res.converged
        assert math.isfinite(res.value_lower) and math.isfinite(res.value_upper)
        assert abs(res.value - want) <= 1e-9 * want
        assert not res.density[2:].any() and not res.flow[2:].any()


def test_solver_never_consults_the_oracles(crossing, monkeypatch):
    def forbidden(*_args):
        raise AssertionError("oracle called by the solver")

    monkeypatch.setattr(M, "mincut_oracle", forbidden)
    monkeypatch.setattr(M, "effective_conductance", forbidden)
    net, src, tgt = crossing[3]
    for p, want in ((1.0, 32.0), (2.0, 1.5215533652)):
        res = solve(net, src, tgt, p)
        assert res.converged
        assert res.value_lower <= want * (1 + 1e-8)
        assert res.value_upper >= want * (1 - 1e-8)


# ---------------------------------------------------------------------------
# pinned crossing values


@pytest.mark.parametrize("n,p", sorted(PINNED))
def test_pinned_crossing_modulus(crossing, n, p):
    net, src, tgt = crossing[n]
    res = solve(net, src, tgt, p)
    want = PINNED[(n, p)]
    assert res.converged
    assert res.value_lower <= want * (1 + 2e-5)
    assert res.value_upper >= want * (1 - 2e-5)
    assert abs(res.value - want) <= 2e-5 * want


# ---------------------------------------------------------------------------
# the scan


def test_scan_rows_and_ratios():
    table = M.conformal_scan([1, 2], [1.5, 2.0, 2.5])
    assert len(table.rows) == 6
    assert table.monotone_ok
    by_cell = {(r.level, r.p): r for r in table.rows}
    assert by_cell[(1, 2.0)].ratio_to_previous_level is None
    r2 = by_cell[(2, 2.0)]
    assert r2.converged
    want = PINNED[(2, 2.0)] / PINNED[(1, 2.0)]
    assert abs(r2.ratio_to_previous_level - want) < 1e-4
    assert set(table.critical_p) == {2}
    assert table.critical_p[2] in {1.5, 2.0, 2.5}


def test_scan_input_validation():
    with pytest.raises(ValueError):
        M.conformal_scan([1, 5], [2.0])
    with pytest.raises(ValueError):
        M.conformal_scan([1], [0.5])


@pytest.mark.parametrize("p_grid", [[2.0, math.nan], [2.0, 1e9], [2.0, True], [2.0, np.True_]])
def test_scan_rejects_bad_exponents_before_solving(monkeypatch, p_grid):
    solves, solve = [], M.solve_modulus
    monkeypatch.setattr(M, "solve_modulus", lambda pr: solves.append(pr) or solve(pr))
    with pytest.raises(ValueError):
        M.conformal_scan([1], p_grid)
    assert solves == []


# ---------------------------------------------------------------------------
# input validation and guards


@pytest.mark.parametrize("call, message", [
    (lambda net, src, tgt: M.mincut_oracle(net, src, src | tgt),
     "^source and target must be disjoint$"),
    (lambda net, src, tgt: M.effective_conductance(net, src | tgt, tgt),
     "^source and target must be disjoint$"),
    (lambda net, src, tgt: M.conformal_scan([], [2.0]), "^no level to scan$"),
])
def test_oracle_and_scan_errors_name_their_cause(crossing, call, message):
    with pytest.raises(ValueError, match=message):
        call(*crossing[1])


@pytest.mark.parametrize("oracle", [M.mincut_oracle, M.effective_conductance])
@pytest.mark.parametrize("source, message", [
    ({-1}, "^endpoint vertex -1 out of range$"),
    ({7}, "^endpoint vertex 7 out of range$"),
    ({2.0}, "^endpoint vertex must be an integer, got 2.0$"),
    (set(), "^source and target must be nonempty$"),
])
def test_oracles_check_their_sides_as_the_problem_does(oracle, source, message):
    # effective_conductance read vertex -1 as the last vertex and returned 0.0,
    # and mincut_oracle counted no cut for an empty side
    net = M.path_network(3)[0]
    with pytest.raises(ValueError, match=message):
        M.ModulusProblem(net, source, {0}, 2.0)
    with pytest.raises(ValueError, match=message):
        oracle(net, source, {0})


def test_problem_validation():
    net, src, tgt = M.path_network(2)
    with pytest.raises(ValueError):
        M.ModulusProblem(net, frozenset(src), frozenset(tgt), 0.5)
    with pytest.raises(ValueError):
        M.ModulusProblem(net, frozenset(src), frozenset(tgt), 100.0)
    for p in (True, np.True_):  # a bool is no exponent; True solved at p = 1
        with pytest.raises(ValueError, match="^exponent must lie in"):
            M.ModulusProblem(net, frozenset(src), frozenset(tgt), p)
    with pytest.raises(ValueError):
        M.ModulusProblem(net, frozenset({0}), frozenset({0}), 2.0)
    with pytest.raises(ValueError):
        M.ModulusProblem(net, frozenset(), frozenset(tgt), 2.0)
    with pytest.raises(ValueError):
        M.ModulusProblem(net, frozenset({9}), frozenset(tgt), 2.0)
    with pytest.raises(ValueError):
        M.ModulusProblem(net, frozenset(src), frozenset(tgt), 2.0, tolerance=0.5)


@pytest.mark.parametrize("endpoint", [0.5, 0.0, True])
def test_problem_rejects_endpoints_that_are_not_integers(endpoint):
    # such an endpoint passed validation and the solver raised an IndexError
    net, src, tgt = M.path_network(2)
    with pytest.raises(ValueError, match="^endpoint vertex must be an integer"):
        M.ModulusProblem(net, frozenset({endpoint}), frozenset(tgt), 2.0)
    assert solve(net, {np.int64(0)}, tgt, 2.0).value == 0.5


@pytest.mark.parametrize("ends", [[(0.5, 1.7)], [(True, False)], [(0, 2**63)],
                                  np.array([[0, 1]], dtype=float),
                                  [(True, 2)], [(0, 1), (2, np.True_)]])
def test_network_rejects_endpoints_that_are_not_integers(ends):
    # they were truncated ((0.5, 1.7) became the edge (0, 1), True vertex 1)
    # or overflowed; a bool among ints makes an int64 array, so (True, 2)
    # became the edge (1, 2)
    with pytest.raises(ValueError):
        M.Network(3, ends)
    assert M.Network(0, []).n_edges == 0
    assert M.Network(3, np.array([[0, 2]], dtype=np.uint8)).ends.dtype == np.int64


@pytest.mark.parametrize("n", [2.5, True, -1])
def test_network_vertex_count_is_a_count(n):
    # numpy raised a TypeError, or "'minlength' must not be negative"
    with pytest.raises(ValueError, match="^vertex count must be"):
        M.Network(n, [])


@pytest.mark.parametrize("make, args, message", [
    (M.path_network, (0,), "^need at least one edge$"),
    (M.parallel_network, (0, 1), "^need m >= 1 paths of k >= 1 edges$"),
    (M.parallel_network, (1, 0), "^need m >= 1 paths of k >= 1 edges$"),
    (M.grid_network, (0, 2), "^grid needs at least 1 row and 2 columns$"),
    (M.grid_network, (1, 1), "^grid needs at least 1 row and 2 columns$"),
])
def test_model_networks_refuse_empty_shapes(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


@pytest.mark.parametrize("make, args, message", [
    # path_network(True) built a one-edge path; a float size raised TypeError
    (M.path_network, (True,), "^path length must be an integer, got True$"),
    (M.path_network, (2.0,), "^path length must be an integer, got 2.0$"),
    (M.parallel_network, (True, 2), "^path count must be an integer, got True$"),
    (M.parallel_network, (2, 1.5), "^path length must be an integer, got 1.5$"),
    (M.grid_network, (2.0, 3), "^row count must be an integer, got 2.0$"),
    (M.grid_network, (2, True), "^column count must be an integer, got True$"),
])
def test_model_networks_take_integer_sizes(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


def test_shortest_path_between_disconnected_sides_is_infinite():
    net = M.Network(4, [(0, 1), (2, 3)])
    assert shortest_path(net, np.ones(2), {0}, {3}) == (math.inf, None)


def test_scan_flags_values_that_rise_with_p(monkeypatch):
    monkeypatch.setattr(M, "solve_modulus", lambda pr: SimpleNamespace(
        value=pr.p, value_lower=pr.p, value_upper=pr.p, iterations=0, converged=True))
    table = M.conformal_scan([1], [1.0, 2.0])
    assert not table.monotone_ok
    assert [row.value_upper for row in table.rows] == [1.0, 2.0]


def test_network_validation():
    with pytest.raises(ValueError):
        M.Network(2, [(0, 0)])
    with pytest.raises(ValueError):
        M.Network(2, [(0, 2)])
    with pytest.raises(ValueError):
        M.Network(3, [(0, 1, 2)])  # rows must be endpoint pairs
    net = M.Network(2, [(0, 1), (0, 1)])  # parallel edges are fine
    assert net.n_edges == 2


def searched_arcs(net, src, tgt):
    """The network's kept arcs (matrix, edge of each arc) after a first search."""
    shortest_path(net, np.ones(net.n_edges), src, tgt)
    return net._arcs


def test_network_arcs_are_the_graph_csr():
    g = ps.build_graph(2)
    net, src, tgt = M.crossing(g)
    arcs, arc_edge = searched_arcs(net, src, tgt)
    # the table's (tail, head) pairs, self padding dropped, in per-tail order
    nb = g.neighbours
    tails = np.broadcast_to(np.arange(g.n_vertices), nb.shape)
    keep = (nb != tails).T
    heads = nb.T[keep]
    tails = tails.T[keep]
    arc_tails = np.repeat(np.arange(g.n_vertices), np.diff(arcs.indptr))
    assert np.array_equal(arc_tails, tails)
    assert np.array_equal(arcs.indices, heads)
    # each arc's edge joins its tail to its head
    ends = net.ends[arc_edge]
    assert np.array_equal(np.sort(ends, axis=1), np.sort(np.stack([tails, heads], 1), axis=1))
    # multigraph arcs keep parallel edges apart, in the order the search left them
    multi = M.Network(3, [(1, 0), (0, 1), (2, 1)])
    arcs, arc_edge = searched_arcs(multi, {0}, {2})
    assert arcs.indptr.tolist() == [0, 2, 5, 6]
    assert arcs.indices.tolist() == [1, 1, 0, 2, 0, 1]
    assert arc_edge.tolist() == [0, 1, 1, 2, 0, 2]


def test_negative_weights_rejected_by_search():
    net, src, tgt = M.path_network(2)
    with pytest.raises(ValueError):
        shortest_path(net, np.array([0.5, -1e-9]), src, tgt)


def bellman_ford(net, weights, source):
    """Slow reference: distances from the source side by edge relaxation."""
    dist = [math.inf] * net.n_vertices
    for s in source:
        dist[s] = 0.0
    arcs = [(a, b, w) for (u, v), w in zip(net.ends.tolist(), weights.tolist())
            for a, b in ((u, v), (v, u))]
    changed = True
    while changed:
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b], changed = dist[a] + w, True
    return dist


def weighted_crossing(crossing, case):
    rng = np.random.default_rng(11)
    if case == "L2 with zero weights":
        net, src, tgt = crossing[2]
        weights = rng.random(net.n_edges)
        weights[rng.random(net.n_edges) < 0.3] = 0.0
    else:  # the two copies of each grid edge carry different weights
        grid, src, tgt = M.grid_network(4, 5)
        net = M.Network(grid.n_vertices, np.concatenate([grid.ends, grid.ends]))
        weights = rng.random(net.n_edges)
    return net, weights, src, tgt


@pytest.mark.parametrize("case", ["L2 with zero weights", "doubled grid"])
def test_shortest_path_matches_bellman_ford(crossing, case):
    net, weights, src, tgt = weighted_crossing(crossing, case)
    length, path = shortest_path(net, weights, src, tgt)
    dist = bellman_ford(net, weights, src)
    want = min(dist[t] for t in tgt)
    assert abs(length - want) <= 1e-12 * want
    lightest = {}
    for (u, v), w in zip(net.ends.tolist(), weights.tolist()):
        lightest[frozenset((u, v))] = min(w, lightest.get(frozenset((u, v)), math.inf))
    hops = [frozenset(hop) for hop in zip(path, path[1:])]
    assert path[0] in src and path[-1] in tgt
    assert all(hop in lightest for hop in hops)
    assert abs(math.fsum(lightest[hop] for hop in hops) - length) <= 1e-12 * length


# ---------------------------------------------------------------------------
# duality certificates


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.0959, 3.0, 64.0])
def test_lower_bound_flow_is_a_unit_flow(crossing, p):
    net, src, tgt = crossing[2]
    res = solve(net, src, tgt, p)
    ev = net.ends
    div = np.bincount(ev[:, 0], res.flow, net.n_vertices) - np.bincount(
        ev[:, 1], res.flow, net.n_vertices
    )
    interior = [v for v in range(net.n_vertices) if v not in src and v not in tgt]
    assert np.abs(div[interior]).max() <= 1e-9
    assert abs(div[sorted(src)].sum() - 1.0) <= 1e-12
    if p == 1.0:
        energy_bound = 1.0 / np.abs(res.flow).max()
    else:
        q = p / (p - 1.0)
        energy_bound = float(np.power(np.abs(res.flow), q).sum()) ** (1.0 - p)
    assert abs(res.value_lower - energy_bound) <= 1e-12 * energy_bound


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.0959, 3.0])
def test_density_is_admissible_with_upper_energy(crossing, p):
    net, src, tgt = crossing[2]
    res = solve(net, src, tgt, p)
    length, _ = shortest_path(net, res.density, src, tgt)
    assert length >= 1.0 - 1e-12
    energy = float(np.power(res.density, p).sum())
    assert abs(energy - res.value_upper) <= 1e-12 * res.value_upper


@pytest.mark.parametrize("p", [1.0, 2.5])
def test_active_paths_are_crossings(crossing, p):
    net, src, tgt = crossing[2]
    res = solve(fresh(net), src, tgt, p)
    assert res.active_paths
    edges = {frozenset(e) for e in net.ends.tolist()}
    for vpath in res.active_paths:
        assert vpath[0] in src and vpath[-1] in tgt
        assert all(frozenset(hop) in edges for hop in zip(vpath, vpath[1:]))
    assert solve(fresh(net), src, tgt, p).active_paths == res.active_paths  # a rerun


def test_potential_line_search_reaches_the_optimum(crossing):
    # taking the first non-increasing halving left phi swinging between two
    # states at L1, p = 3, and stopped at energy 1.0541 instead of 1; the
    # upper bound is the energy of the potential's rescaled density
    net, src, tgt = crossing[1]
    problem = M.ModulusProblem(net, src, tgt, 3.0, tolerance=1e-12)
    res, passes, stop, _phi = M._p_harmonic_potential(problem, M._Bracket(net, src, tgt))
    assert stop == "converged" and passes < 16
    assert abs(res.value_upper - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# large exponents, stop reasons and the slow-path cross-checks


@pytest.mark.parametrize("n,p", [(1, 20.0), (1, 64.0), (2, 20.0), (2, 64.0),
                                 (3, 12.0), (3, 20.0), (3, 64.0)])
def test_large_exponents_certify(crossing, n, p):
    # the ladder {1, 1/2, 1/4, 1/8} alone froze phi for p > 9: the IRLS step
    # is p - 1 Newton steps, and each of those scalings raised the energy
    net, src, tgt = crossing[n]
    res = solve(fresh(net), src, tgt, p)
    assert res.converged and res.stop == "converged"
    assert 0.0 < res.value_lower and res.value_upper / res.value_lower - 1 <= 5e-6


def test_stop_reason_says_why_the_solve_ended(crossing, monkeypatch):
    net, src, tgt = crossing[2]
    net = fresh(net)
    assert solve(net, src, tgt, 1.0).stop == "exact"
    assert solve(net, src, tgt, 2.0).stop == "exact"
    assert solve(net, src, tgt, 3.0).stop == "converged"
    monkeypatch.setattr(M, "MAX_PASSES", 1)
    # on a network of its own: warm from the p = 3 solve above, one pass converges
    capped = solve(fresh(net), src, tgt, 3.0)
    assert capped.stop == "iteration cap" and capped.iterations == 1
    assert not capped.converged


@pytest.fixture(scope="module")
def crossing4():
    """(network, left face, right face) at level 4."""
    g = ps.build_graph(4)
    return M.Network.from_graph(g), ps.boundary_face(g, "left"), ps.boundary_face(g, "right")


def test_stall_with_the_gap_open_is_not_converged(crossing4, monkeypatch):
    # without back-offs, L4 p = 64 stalls at the smoothing floor about 1e108
    # apart: every scaling of the step raises the energy
    monkeypatch.setattr(M, "MAX_BACKOFFS", 0)
    net, src, tgt = crossing4
    res = solve(fresh(net), src, tgt, 64.0)
    assert res.stop == "stalled" and not res.converged
    assert res.backoffs == 0


def test_large_exponent_backs_off_and_certifies_at_level_4(crossing4):
    net, src, tgt = crossing4
    res = solve(fresh(net), src, tgt, 64.0)
    assert res.stop == "converged" and res.converged
    assert 0.0 < res.value_lower and res.value_upper / res.value_lower - 1 <= 5e-6
    assert 1 <= res.backoffs <= M.MAX_BACKOFFS


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.0959, 2.5, 3.0])
def test_easy_solves_never_back_off(crossing, p):
    # the modulus workload's L3 exponents: the exact paths and IRLS passes
    # that all land, cold
    net, src, tgt = crossing[3]
    assert solve(fresh(net), src, tgt, p).backoffs == 0


def grid_problem():
    """Mod_3 across the 3 x 4 grid: three disjoint crossings of 3 edges, 1/3."""
    net, src, tgt = M.grid_network(3, 4)
    problem = M.ModulusProblem(net, frozenset(src), frozenset(tgt), 3.0)
    return problem, M._Bracket(net, src, tgt)


def boundary_phi(net, tgt):
    """The Dirichlet data of a crossing: 1 on the target side, 0 elsewhere."""
    phi = np.zeros(net.n_vertices)
    phi[sorted(tgt)] = 1.0
    return phi


def test_singular_laplacian_solves_to_nan():
    # zero weights leave the matrix exactly singular, which splu refuses
    problem, bracket = grid_problem()
    net, boundary = problem.network, boundary_phi(problem.network, problem.target)
    phi = M._Laplacian(net, boundary, bracket.free).solve(np.zeros(net.n_edges))
    assert np.isnan(phi[bracket.free]).all()
    fixed = np.setdiff1d(np.arange(net.n_vertices), bracket.free)
    assert np.array_equal(phi[fixed], boundary[fixed])


@pytest.fixture
def second_solve_not_finite(monkeypatch):
    """_Laplacian.solve with its second call nan on the free vertices."""
    solve, calls = M._Laplacian.solve, []

    def spoiled(self, weights=None):
        calls.append(weights)
        phi = solve(self, weights)
        if len(calls) == 2:
            phi[self.free] = np.nan
        return phi

    monkeypatch.setattr(M._Laplacian, "solve", spoiled)


def test_non_finite_solve_backs_off_and_certifies(second_solve_not_finite):
    problem, _ = grid_problem()
    res = M.solve_modulus(problem)
    assert res.stop == "converged" and res.converged
    assert res.backoffs == 1 and res.iterations == 4
    assert abs(res.value - 1 / 3) <= 1e-6


def test_non_finite_solve_without_back_offs_keeps_a_valid_bracket(second_solve_not_finite,
                                                                   monkeypatch):
    monkeypatch.setattr(M, "MAX_BACKOFFS", 0)
    problem, _ = grid_problem()
    res = M.solve_modulus(problem)
    assert res.stop == "non-finite solve" and not res.converged
    assert res.backoffs == 0 and res.iterations == 2
    # the last finite potential still certifies both sides: [0.33333, 0.35590]
    # around Mod_3 = 1/3, up to rounding of the lower side
    assert 0.0 < res.value_lower <= (1 + 1e-12) / 3 <= res.value_upper


def test_stall_within_five_tolerances_reads_as_converged(crossing):
    # L1 p = 1.1 stalls at the smoothing floor 3.9e-11 apart: within
    # 5 * tolerance at 1e-11, not at 1e-12
    net, src, tgt = crossing[1]
    res = solve(fresh(net), src, tgt, 1.1, tolerance=1e-11)
    assert res.stop == "converged" and res.converged
    assert res.value_upper > (1 + 1e-11) * res.value_lower  # no pass met the tolerance itself
    tight = solve(fresh(net), src, tgt, 1.1, tolerance=1e-12)
    assert tight.stop == "stalled" and not tight.converged


# passes and values at the fixed smoothing schedule (eps / 4 per pass, no
# back-off), tolerance 1e-6
FIXED_SCHEDULE = {
    (2, 1.1): (69, 9.96890254909),
    (2, 1.5): (12, 4.42734622866),
    (2, 2.0959): (5, 1.27219197508),
    (2, 2.5): (6, 0.547459355691),
    (2, 3.0): (6, 0.193563419767),
    (2, 8.0): (5, 5.96492105442e-06),
    (2, 12.0): (6, 1.45886139877e-09),
    (2, 32.0): (12, 1.26789366211e-27),
    (2, 64.0): (21, 1.60120099304e-56),
    (3, 1.1): (72, 26.8204102175),
    (3, 1.5): (14, 7.78736974498),
    (3, 2.0959): (6, 1.11191829172),
    (3, 2.5): (7, 0.2972473035),
    (3, 3.0): (7, 0.0583460435558),
    (3, 8.0): (6, 4.98475356788e-09),
    (3, 12.0): (8, 1.09402999323e-14),
    (3, 32.0): (12, 5.50821531835e-43),
    (3, 64.0): (22, 2.89914121172e-88),
    (4, 1.5): (16, 14.1727209498),
    (4, 2.0959): (7, 1.0411775156),
    (4, 3.0): (7, 0.0198058225051),
    (4, 8.0): (9, 6.16366147634e-12),
}


@pytest.mark.parametrize("n,p", sorted(FIXED_SCHEDULE))
def test_adaptive_smoothing_needs_no_more_passes(crossing, crossing4, n, p):
    passes, value = FIXED_SCHEDULE[(n, p)]
    net, src, tgt = crossing4 if n == 4 else crossing[n]
    res = solve(fresh(net), src, tgt, p)
    assert res.converged and res.iterations <= passes
    assert abs(res.value - value) <= 2e-6 * value


@pytest.mark.slow
def test_cold_level_6_critical_crossing():
    # about 15 s and a 0.9 GB process peak on one core
    net, src, tgt = M.crossing(ps.build_graph(6))
    res = solve(net, src, tgt, 2.0959)
    assert res.converged and res.iterations == 7 and res.solved_vertices == 266_085
    for got, want in ((res.value_lower, 0.9628822231), (res.value_upper, 0.9628822452)):
        assert abs(got - want) <= 1e-9 * want


# values the solver gave before IRLS stopped on its own bracket, when every
# solve ran until it stalled at the smoothing floor (20 passes at p = 1.5,
# 16 otherwise)
L3_FLOOR_VALUES = {1.5: 7.787370970310753, 2.0959: 1.1119183036795712,
                   2.5: 0.29724730443807423, 3.0: 0.05834604367686802}


@pytest.mark.parametrize("p", sorted(L3_FLOOR_VALUES))
def test_irls_stops_once_its_bracket_meets_the_tolerance(crossing, p):
    net, src, tgt = crossing[3]
    tol = 1e-6
    res = solve(fresh(net), src, tgt, p, tolerance=tol)
    assert res.stop == "converged" and res.converged
    assert res.value_upper <= (1 + tol) * res.value_lower
    assert res.iterations < (20 if p == 1.5 else 16)


@pytest.mark.parametrize("p", sorted(L3_FLOOR_VALUES))
def test_tight_tolerance_keeps_the_floor_values(crossing, p):
    net, src, tgt = crossing[3]
    res = solve(fresh(net), src, tgt, p, tolerance=1e-12)
    assert abs(res.value - L3_FLOOR_VALUES[p]) <= 1e-10 * L3_FLOOR_VALUES[p]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_boundary_forest_is_built_at_most_once_per_solve(crossing, monkeypatch, p):
    # one BFS from both sides gives the boundary data, whether the sides
    # connect and the routing forest; no component labelling runs beside it.
    # The set-up is kept on the network, so that is one BFS per crossing:
    # a second solve on the same sides runs none (and starts warm)
    import scipy.sparse.csgraph as csgraph

    bfs, labellings = [], []
    dijkstra, connected_components = csgraph.dijkstra, csgraph.connected_components

    def spy(*args, **kwargs):
        if kwargs.get("unweighted"):
            bfs.append(kwargs)
        return dijkstra(*args, **kwargs)

    def labelling_spy(*args, **kwargs):
        labellings.append(kwargs)
        return connected_components(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", spy)
    monkeypatch.setattr(csgraph, "connected_components", labelling_spy)
    net, src, tgt = crossing[3]
    net = fresh(net)  # no set-up kept from other tests
    for k in range(2):
        res = solve(net, src, tgt, p)
        assert res.converged and (p <= 2.0 or k or res.iterations > 1)
        assert len(bfs) == 1 and labellings == []


def reference_dirichlet(net, fixed_value, weights):
    """COO assembly and a general sparse solve, one entry per edge end."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    phi = np.zeros(net.n_vertices)
    for v, x in fixed_value.items():
        phi[v] = x
    free = [v for v in range(net.n_vertices) if v not in fixed_value]
    col = {v: i for i, v in enumerate(free)}
    entries, rhs = [], np.zeros(len(free))
    for (u, v), w in zip(net.ends.tolist(), weights):
        for a, b in ((u, v), (v, u)):
            if a not in col:
                continue
            entries.append((col[a], col[a], w))
            if b in col:
                entries.append((col[a], col[b], -w))
            else:
                rhs[col[a]] += w * phi[b]
    rows, cols, data = zip(*entries)
    lap = coo_matrix((data, (rows, cols)), shape=(len(free), len(free))).tocsr()
    phi[free] = spsolve(lap, rhs)
    return phi


def small_multigraph():
    # a doubled edge, a tripled one, a fixed end on either side of an edge row
    # and a triangle touching neither side
    edges = [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (2, 3), (1, 3), (3, 4), (4, 1), (5, 6),
             (6, 7), (7, 5)]
    return M.Network(8, edges), frozenset({0}), frozenset({4})


def test_conductance_holds_components_off_both_sides_at_zero():
    # such a component left the Laplacian singular and the conductance nan
    assert M.effective_conductance(M.Network(5, [(0, 1), (1, 2), (3, 4)]), {0}, {2}) == 0.5
    net, src, tgt = small_multigraph()
    cond = M.effective_conductance(net, src, tgt)
    assert abs(cond - 0.9) <= 1e-12
    assert abs(solve(net, src, tgt, 2.0).value - cond) <= 1e-9


@pytest.mark.parametrize("case", [2, 3, "multigraph"])
def test_laplacian_matches_a_general_sparse_solve(crossing, case):
    net, src, tgt = small_multigraph() if case == "multigraph" else crossing[case]
    rng = np.random.default_rng(11)
    free = M._Bracket(net, src, tgt).free
    fixed = {v: rng.uniform() for v in np.setdiff1d(np.arange(net.n_vertices), free).tolist()}
    phi = np.zeros(net.n_vertices)
    phi[list(fixed)] = list(fixed.values())
    lap = M._Laplacian(net, phi, free)
    # the first solve orders the pattern, the later ones reuse it relabelled
    for weights in (rng.uniform(0.1, 2.0, net.n_edges), rng.uniform(1e-3, 1.0, net.n_edges),
                    np.ones(net.n_edges)):
        phi = lap.solve(weights)
        want = reference_dirichlet(net, fixed, weights)
        assert np.abs(phi - want).max() <= 1e-10
    assert lap.order == "NATURAL"


def divergence(net, flow):
    (u, v), n = net.ends.T, net.n_vertices
    return np.bincount(u, flow, n) - np.bincount(v, flow, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_routing_conserves_the_flow_off_the_boundary(crossing, n):
    net, src, tgt = crossing[n]
    bracket = M._Bracket(net, src, tgt)
    rng = np.random.default_rng(n)
    lap = M._Laplacian(net, boundary_phi(net, tgt), bracket.free)
    phi = lap.solve(rng.uniform(0.1, 2.0, net.n_edges))
    flow = phi[net.ends[:, 1]] - phi[net.ends[:, 0]]  # conserved only under those weights
    routed = bracket.route(net, flow)
    interior = np.setdiff1d(np.arange(net.n_vertices), list(src | tgt))
    assert np.abs(divergence(net, flow)[interior]).max() > 1e-3
    assert np.abs(divergence(net, routed)[interior]).max() <= 1e-12 * np.abs(routed).max()


def reference_route(net, boundary, flow):
    """Routing as one function that builds its arcs and BFS forest on every call."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n, (eu, ew) = net.n_vertices, net.ends.T
    div = divergence(net, flow)
    div[list(boundary)] = 0.0
    if not div.any():
        return flow
    indptr, heads, arc_edge = arc_csr(eu, ew, n)
    arcs = csr_matrix((np.ones(len(heads)), heads, indptr), shape=(n, n))
    depth, parent, _ = dijkstra(arcs, indices=sorted(boundary), unweighted=True, min_only=True,
                                return_predecessors=True)
    reached = np.flatnonzero(np.isfinite(depth) & (depth > 0))
    reached = reached[np.argsort(-depth[reached], kind="stable")]
    for level in np.split(reached, np.flatnonzero(np.diff(depth[reached])) + 1):
        div += np.bincount(parent[level], div[level], n)
    tails = np.repeat(np.arange(n), np.diff(indptr))
    hits = np.flatnonzero(parent[tails] == heads)
    v, first = np.unique(tails[hits], return_index=True)
    e = arc_edge[hits[first]]
    return flow + np.bincount(e, np.where(eu[e] == v, -div[v], div[v]), len(flow))


@pytest.mark.parametrize("n", [2, 3])
def test_routing_along_one_forest_matches_the_reference(crossing, n):
    net, src, tgt = crossing[n]
    bracket = M._Bracket(net, src, tgt)
    rng = np.random.default_rng(100 + n)
    for _ in range(3):  # the later flows reuse the first one's forest
        flow = rng.normal(size=net.n_edges)
        assert np.array_equal(bracket.route(net, flow), reference_route(net, src | tgt, flow))


def test_routing_leaves_a_maximum_flow_unchanged(crossing):
    net, src, tgt = crossing[3]
    bracket = M._Bracket(net, src, tgt)
    flow, _ = M._max_flow(net, bracket.source, bracket.target)
    assert bracket.route(net, flow) is flow


# ---------------------------------------------------------------------------
# the symmetry quotient: solved there, certified on the full network

QUOTIENT_GRID = [1.0, 1.1, 1.5, 2.0, 2.0959, 2.5, 3.0, 8.0, 12.0, 32.0, 64.0]


def without_symmetries(monkeypatch):
    """Every network solves on itself: every orbit key but the vertex key is refused."""
    monkeypatch.setattr(M, "_equitable", lambda *_args: False)


@pytest.mark.parametrize("n,policy,sides", [
    (1, "on", ("left", "right")), (1, "on", ("bottom", "top")),
    (2, "on", ("left", "right")), (2, "on", ("bottom", "top")),
    (3, "on", ("left", "right")), (3, "on", ("bottom", "top")),
    (3, "off", ("left", "right")), (3, "off", ("bottom", "top")),
    (4, "on", ("left", "right")), (4, "on", ("bottom", "top")),
])
def test_quotient_solve_matches_the_full_solve(monkeypatch, n, policy, sides):
    g = ps.build_graph(n, policy)
    net, src, tgt = M.crossing(g, sides)
    grid = [1.0, 2.0, 2.0959, 8.0] if n == 4 else QUOTIENT_GRID
    tol = 1e-6
    quotient = [solve(net, src, tgt, p, tolerance=tol) for p in grid]
    without_symmetries(monkeypatch)
    net, src, tgt = M.crossing(g, sides)  # the first network keeps its quotient set-up
    for p, q in zip(grid, quotient):
        full = solve(net, src, tgt, p, tolerance=tol)
        assert q.converged and full.converged, p
        assert abs(q.iterations - full.iterations) <= 1, p
        assert abs(q.value - full.value) <= 2 * tol * full.value, p
        assert len(q.density) == len(q.flow) == net.n_edges
        assert q.solved_vertices < full.solved_vertices == net.n_vertices


def test_quotient_sizes_and_one_key_check_per_set_up(monkeypatch):
    checks, equitable = [], M._equitable
    monkeypatch.setattr(M, "_equitable", lambda *args: checks.append(1) or equitable(*args))
    g = ps.build_graph(3)
    net = M.Network.from_graph(g)
    assert checks == []  # building the network checks nothing
    left, right = ps.boundary_face(g, "left"), ps.boundary_face(g, "right")
    # both faces are unions of squares folded in y; five vertices of the
    # right face are not, nor of squares folded in x, but they are of the
    # plain squares (no face word has a center letter), so 9^3 orbits are left
    for target, orbits in ((right, 378), (set(sorted(right)[:5]), 9**3)):
        assert solve(net, left, target, 2.0).solved_vertices == orbits
    bottom, top = ps.boundary_face(g, "bottom"), ps.boundary_face(g, "top")
    assert solve(net, bottom, top, 2.0).solved_vertices == 378  # folded in x
    # each set-up checks the first key whose orbits its sides are unions of
    assert len(checks) == 3


def center_count(level, x, y):
    """c(a) of a square: the places k where base-3 digit k of x and of y is 1."""
    return sum((x // 3**k % 3 == 1) & (y // 3**k % 3 == 1) for k in range(level))


@pytest.mark.parametrize("policy", ["on", "off"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjacent_squares_share_two_to_the_larger_center_count_edges(n, policy):
    # the flip orbits are the squares, and the edges between two of them
    # depend on the squares alone: the grid the quotient solves on
    g, side = ps.build_graph(n, policy), 3**n
    u, v, _ = g.edge_arrays()
    a, b = (g.square_x[w] * side + g.square_y[w] for w in (u, v))
    apart = a != b
    pairs, count = np.unique(np.minimum(a, b)[apart] * side**2 + np.maximum(a, b)[apart],
                             return_counts=True)
    (ax, ay), (bx, by) = (divmod(s, side) for s in divmod(pairs, side**2))
    assert np.all(np.abs(ax - bx) + np.abs(ay - by) == 1)  # only adjacent squares meet
    assert len(pairs) == 2 * side * (side - 1)  # and every adjacent pair does
    assert np.array_equal(count, 2 ** np.maximum(center_count(n, ax, ay), center_count(n, bx, by)))


def iterated_minimum_orbits(net, source, target):
    """Reference orbit labels: each vertex's least orbit mate under the
    graph's flips and mirrors that map both sides onto themselves, by
    iterated minimum."""
    level = len(str(net.n_vertices - 1))
    maps = [s for s in symmetry_permutations(level) if all(set(s[list(side)].tolist()) == side
                                                          for side in (source, target))]
    labels, last = np.arange(net.n_vertices), None
    while not np.array_equal(labels, last):
        last = labels
        for s in maps:
            labels = np.minimum(labels, labels[s])
    return labels


@pytest.mark.parametrize("n,policy,sides", [
    (n, policy, sides) for n in (1, 2, 3, 4) for policy in ("on", "off")
    for sides in (("left", "right"), ("bottom", "top"))] + [(3, "on", "five")])
def test_the_quotient_is_the_orbit_grid_with_one_edge_per_adjacent_pair(n, policy, sides):
    g = ps.build_graph(n, policy)
    net, src, tgt = M.crossing(g, ("left", "right") if sides == "five" else sides)
    if sides == "five":  # a target the flips fix but the mirror does not
        tgt = frozenset(sorted(tgt)[:5])
    bracket = M._Bracket(net, src, tgt)
    # the orbits are the iterated minimum's, numbered in grid order of the
    # squares, folded by the mirror that fixes both sides
    least = iterated_minimum_orbits(net, src, tgt)
    together = np.unique(np.stack([least, bracket.orbit]), axis=1).shape[1]
    assert together == len(np.unique(least)) == bracket.orbit.max() + 1
    top, x, y = 3**n - 1, g.square_x, g.square_y
    if sides == ("left", "right"):
        y = np.minimum(y, top - y)
    elif sides == ("bottom", "top"):
        x = np.minimum(x, top - x)
    assert np.array_equal(bracket.orbit, np.unique(x * 3**n + y, return_inverse=True)[1])
    # no orbit pair twice, and the multiplicities count the edges between orbits
    q, (a, b) = bracket.quotient, bracket.orbit[net.ends].T
    lo, hi = q.ends.T
    assert np.all(lo < hi) and len(np.unique(lo * q.n_vertices + hi)) == q.n_edges
    assert q.mult.sum() == np.count_nonzero(a != b)
    apart = np.flatnonzero(a != b)
    pairs, count = np.unique(np.minimum(a, b)[apart] * q.n_vertices + np.maximum(a, b)[apart],
                             return_counts=True)
    assert np.array_equal(pairs, lo * q.n_vertices + hi) and np.array_equal(count, q.mult)
    # each edge between two orbits lifts from its quotient edge, signed by its orientation
    kept, edge, sign = bracket.lift
    assert np.array_equal(kept, apart)
    assert np.array_equal(np.where(sign[:, None] > 0, q.ends[edge], q.ends[edge, ::-1]),
                          np.stack([a, b], axis=1)[kept])


@pytest.mark.parametrize("case", ["grid", "path", "parallel", "ten-vertex grid"])
def test_networks_without_symmetry_solve_on_themselves(case):
    net, src, tgt = {"grid": M.grid_network(3, 4), "path": M.path_network(9),
                     "parallel": M.parallel_network(3, 4),
                     "ten-vertex grid": M.grid_network(2, 5)}[case]
    for p in (1.0, 1.5, 2.0):
        assert solve(net, src, tgt, p).solved_vertices == net.n_vertices


def lifted_reference(net, orbit, quotient, rho, flow):
    """Quotient rho and flow (per unit of multiplicity) put on the network's
    edges one edge at a time: an edge between two orbits takes its quotient
    edge's rho and, signed by its orientation, that edge's flow times its own
    multiplicity; an edge inside an orbit takes 0."""
    index = {(int(a), int(b)): j for j, (a, b) in enumerate(quotient.ends)}
    lifted_rho, lifted_flow = np.zeros(net.n_edges), np.zeros(net.n_edges)
    for i, (a, b) in enumerate(orbit[net.ends]):
        if a != b:
            j = index[min(a, b), max(a, b)]
            lifted_rho[i] = rho[j]
            lifted_flow[i] = (1.0 if a < b else -1.0) * flow[j] * net.mult[i]
    return lifted_rho, lifted_flow


@pytest.mark.parametrize("case", [
    (policy, sides) for policy in ("on", "off") for sides in (("left", "right"), ("bottom", "top"))]
    + ["parallel edges"])
@pytest.mark.parametrize("p", [1.0, 2.5])
def test_the_bracket_lifts_quotient_edges_as_the_per_edge_reference(monkeypatch, case, p):
    if case == "parallel edges":  # 4 vertices: only the vertex key, parallels merged
        net = M.Network(4, [(0, 1), (1, 0), (1, 2), (3, 2), (1, 3)], mult=[1, 2, 1, 3, 1])
        src, tgt = {0}, {3}
    else:
        net, src, tgt = M.crossing(ps.build_graph(2, case[0]), case[1])
    bracket = M._Bracket(net, src, tgt)
    q = bracket.quotient
    assert q.n_vertices < net.n_vertices or case == "parallel edges"
    rng = np.random.default_rng(7)
    rho, flow = rng.uniform(0.1, 2.0, q.n_edges), rng.normal(size=q.n_edges)
    seen = {}

    def spy(name, call):  # records the network array call is handed
        def wrapped(net, x, *rest):
            seen[name] = x
            return call(net, x, *rest)
        return wrapped

    monkeypatch.setattr(M, "_shortest_path", spy("rho", M._shortest_path))
    monkeypatch.setattr(bracket, "route", spy("flow", bracket.route))
    res = bracket(net, rho, flow, p)
    want_rho, want_flow = lifted_reference(net, bracket.orbit, q, rho, flow)
    assert np.array_equal(seen["rho"], want_rho) and np.array_equal(seen["flow"], want_flow)
    assert res.value_lower >= 0.0 and 0.0 < res.value_upper < math.inf  # a random flow may net 0


def test_a_network_holds_arcs_only_once_searched(crossing):
    plain = {"n_vertices", "ends", "mult", "_crossing"}
    net = M.Network.from_graph(ps.build_graph(2))
    assert set(vars(net)) == plain
    net, src, tgt = crossing[3]
    kept = fresh(net)
    for p in (1.0, 2.0, 3.0):
        solve(kept, src, tgt, p)
    assert set(vars(kept._crossing.quotient)) == plain  # solved on, never searched
    assert set(vars(kept)) == plain | {"_arcs"}


def corrupted_squares(net, src, tgt):
    """_square_arrays with b's square and its mirror moved onto a's, a and b
    the smallest interior vertices with an edge to the source and target."""
    def next_to(side):
        other_end = np.isin(net.ends, list(side))[:, ::-1]
        return min(set(net.ends[other_end].tolist()) - src - tgt)

    # no symmetry relates a vertex next to the source with one next to the
    # target: every flip and mirror kept fixes both sides
    a, b = next_to(src), next_to(tgt)
    squares, top = M._square_arrays, 3**3 - 1
    (xa, ya), (xb, yb) = (np.array(squares(3))[:, v] for v in (a, b))
    assert xa != xb and 2 * yb != top  # b's square and its mirror image are two squares

    def corrupted(level):
        x, y = squares(level)
        for from_y, to_y in ((yb, ya), (top - yb, top - ya)):
            at = (x == xb) & (y == from_y)
            x[at], y[at] = xa, to_y
        return x, y

    return corrupted


@pytest.mark.parametrize("p", [2.0, 2.0959])
def test_a_corrupted_orbit_key_is_refused(crossing, monkeypatch, p):
    net, src, tgt = crossing[3]
    good = solve(fresh(net), src, tgt, p)
    monkeypatch.setattr(M, "_square_arrays", corrupted_squares(net, src, tgt))
    # a network of its own: the fixture's keeps its good set-up
    bad = solve(fresh(net), src, tgt, p)
    assert bad.solved_vertices == net.n_vertices  # no square key is equitable
    assert abs(bad.value - good.value) <= 2e-6 * good.value


@pytest.mark.parametrize("p", [2.0, 2.0959])
def test_a_corrupted_orbit_map_only_loosens_the_bracket(crossing, monkeypatch, p):
    net, src, tgt = crossing[3]
    good = solve(fresh(net), src, tgt, p)
    monkeypatch.setattr(M, "_square_arrays", corrupted_squares(net, src, tgt))
    monkeypatch.setattr(M, "_equitable", lambda *_args: True)  # past the check
    bad = solve(fresh(net), src, tgt, p)
    assert bad.solved_vertices == good.solved_vertices - 1  # their orbits merged
    pin = PINNED[(3, p)]
    assert bad.value_lower <= pin * (1 + 1e-9) and bad.value_upper >= pin * (1 - 1e-9)
    assert bad.value_lower <= good.value_upper and bad.value_upper >= good.value_lower
    assert bad.value_upper - bad.value_lower > good.value_upper - good.value_lower


def test_a_key_with_one_vertex_moved_is_refused(crossing, monkeypatch):
    net, src, tgt = crossing[3]
    key = next(M._orbit_keys(net.n_vertices))  # the y-folded squares, equitable here
    free = M._Bracket(net, src, tgt).free
    rng = np.random.default_rng(41)
    for v, w in rng.choice(free, (20, 2)):
        if key[v] == key[w]:
            continue
        moved = key.copy()
        moved[v] = key[w]  # v joins w's orbit
        monkeypatch.setattr(M, "_orbit_keys", lambda n, moved=moved: iter([moved, np.arange(n)]))
        assert solve(fresh(net), src, tgt, 2.0).solved_vertices == net.n_vertices, (v, w)


def without_edge(net, src, tgt, inside):
    """The network less its first edge inside an orbit of the quotient set up
    on it (inside) or between two orbits (not inside)."""
    a, b = M._Bracket(net, src, tgt).orbit[net.ends].T
    drop = np.flatnonzero((a == b) == inside)[0]
    return M.Network(net.n_vertices, np.delete(net.ends, drop, axis=0))


def test_an_edge_inside_an_orbit_does_not_stop_the_quotient(crossing, monkeypatch):
    # the flips are no automorphisms of the network left, but its squares
    # folded in y are still equitable: an edge inside an orbit carries nothing
    net, src, tgt = crossing[3]
    net = without_edge(net, src, tgt, inside=True)
    res = {p: solve(net, src, tgt, p) for p in (1.0, 2.0, 3.0)}
    assert all(r.solved_vertices == 378 and r.converged for r in res.values())
    assert res[1.0].value_lower == res[1.0].value_upper == M.mincut_oracle(net, src, tgt)
    cond = M.effective_conductance(net, src, tgt)
    assert abs(res[2.0].value_upper - cond) <= 1e-9 * cond
    assert abs(res[2.0].value_lower - cond) <= 1e-9 * cond
    without_symmetries(monkeypatch)
    full = solve(fresh(net), src, tgt, 3.0)
    assert full.solved_vertices == net.n_vertices
    assert abs(res[3.0].value - full.value) <= 2e-6 * full.value


def test_an_edge_between_orbits_refuses_every_square_key(crossing, monkeypatch):
    net, src, tgt = crossing[3]
    net = without_edge(net, src, tgt, inside=False)
    checks, equitable = [], M._equitable
    monkeypatch.setattr(M, "_equitable", lambda *a: checks.append(equitable(*a)) or checks[-1])
    assert solve(net, src, tgt, 2.0).solved_vertices == net.n_vertices
    assert checks and not any(checks)


# ---------------------------------------------------------------------------
# the set-up kept on the network across exponents


def count_set_ups(monkeypatch):
    """Counts of the _Bracket and _Laplacian objects constructed from now on."""
    made = {M._Bracket: 0, M._Laplacian: 0}
    for cls in made:
        def counted(self, *args, _init=cls.__init__):
            made[type(self)] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_a_second_solve_on_the_same_sides_sets_nothing_up(crossing, monkeypatch):
    net, src, tgt = crossing[3]
    net = fresh(net)
    made = count_set_ups(monkeypatch)
    first = solve(net, src, tgt, 1.5)
    assert list(made.values()) == [1, 1]
    for p, tol in ((3.0, 1e-6), (1.0, 1e-6), (2.0, 1e-8), (1.5, 1e-6)):
        res = solve(net, set(src), set(tgt), p, tolerance=tol)
        assert res.converged
    assert list(made.values()) == [1, 1]
    # the last solve starts from the p = 2 potential, the first cold
    assert res.iterations <= first.iterations and abs(res.value / first.value - 1) <= 2e-6


def test_other_sides_replace_the_kept_set_up(monkeypatch):
    g = ps.build_graph(2)
    net = M.Network.from_graph(g)
    made = count_set_ups(monkeypatch)
    left, right, bottom, top = (frozenset(ps.boundary_face(g, side))
                                for side in ("left", "right", "bottom", "top"))
    for sides in ((left, right), (left, right), (bottom, top), (left, right), (right, left)):
        solve(net, *sides, 2.5)
        assert net._crossing.sides == sides
    assert list(made.values()) == [4, 4]
    # the set-up refers to no network: dropping the network frees both
    kept, gone = weakref.ref(net._crossing), weakref.ref(net)
    del net
    assert gone() is None and kept() is None


def assert_identical(got, want):
    """Every field of two results equal, bit for bit."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        assert (np.array_equal(other, value) if isinstance(value, np.ndarray)
                else other == value), name


def second_solve(net, src, tgt, p):
    """The solve at p on a fresh network after one at p: the copies' reference."""
    again = fresh(net)
    solve(again, src, tgt, p)
    return solve(again, src, tgt, p)


def test_a_shallow_copy_of_a_network_shares_its_set_up(crossing):
    # the set-up refers to no network, so the copy uses it and its warm potential
    net, src, tgt = crossing[2]
    net = fresh(net)
    cold = solve(net, src, tgt, 2.5)
    twin = copy.copy(net)
    assert twin._crossing is net._crossing
    del net
    got, want = solve(twin, src, tgt, 2.5), second_solve(twin, src, tgt, 2.5)
    assert_identical(got, want)
    assert got.iterations < cold.iterations


def test_a_copy_of_a_copy_solves_after_the_original_is_dropped(crossing):
    # a slot keyed by id(network) matched a copy made at a freed network's address
    net, src, tgt = crossing[2]
    want = second_solve(net, src, tgt, 2.5)
    for _ in range(20):
        first = fresh(net)
        solve(first, src, tgt, 2.5)
        twin = copy.copy(first)
        del first
        assert_identical(solve(copy.copy(twin), src, tgt, 2.5), want)


@pytest.mark.parametrize("dup", [lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_carry_the_set_up(crossing, dup):
    net, src, tgt = crossing[2]
    net = fresh(net)
    solve(net, src, tgt, 2.5)
    twin = dup(net)
    assert twin._crossing is not net._crossing
    assert twin._crossing.sides == (frozenset(src), frozenset(tgt))
    assert_identical(solve(twin, src, tgt, 2.5), second_solve(net, src, tgt, 2.5))


@pytest.fixture(scope="module")
def cold(crossing):
    """(level, p) -> the solve on a fresh network, over QUOTIENT_GRID at L1-L3."""
    return {(n, p): solve(fresh(crossing[n][0]), *crossing[n][1:], p)
            for n in (1, 2, 3) for p in QUOTIENT_GRID}


def assert_warm_matches_cold(warm, cold, p):
    """A warm solve certifies, in no more passes than the cold one, and agrees
    with it within twice the tolerance."""
    assert warm.converged and warm.solved_vertices == cold.solved_vertices, p
    assert warm.iterations <= cold.iterations, p
    for name in ("value_lower", "value_upper"):
        assert abs(getattr(warm, name) - getattr(cold, name)) <= 2e-6 * getattr(cold, name), p


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_network_across_exponents_matches_a_fresh_network_each(crossing, cold, n):
    net, src, tgt = crossing[n]
    kept = fresh(net)
    for p in QUOTIENT_GRID:
        again = solve(kept, src, tgt, p)
        assert again.stop == cold[(n, p)].stop, p
        assert_warm_matches_cold(again, cold[(n, p)], p)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_warm_starts_save_passes_in_either_order(crossing, cold, n, order):
    net, src, tgt = crossing[n]
    kept, grid = fresh(net), sorted(QUOTIENT_GRID, reverse=order == "descending")
    warm = {p: solve(kept, src, tgt, p) for p in grid}
    for p in grid:
        assert_warm_matches_cold(warm[p], cold[(n, p)], p)
    assert sum(r.iterations for r in warm.values()) < sum(cold[(n, p)].iterations for p in grid)


@pytest.mark.parametrize("step", [0.0959, 1.5])
def test_only_a_step_within_the_warm_span_starts_warm(crossing, step):
    net, src, tgt = crossing[3]
    kept = fresh(net)
    solve(kept, src, tgt, 2.0)  # exact, and kept
    p = 2.0 + step * M.WARM_SPAN
    warm, cold = solve(kept, src, tgt, p), solve(fresh(net), src, tgt, p)
    if step <= 1.0:  # 5 passes cold, as in the modulus workload
        assert warm.converged and warm.iterations <= 2 < cold.iterations
        assert abs(warm.value - cold.value) <= 2e-6 * cold.value
    else:
        assert warm.iterations == cold.iterations and warm.backoffs == cold.backoffs
        assert abs(warm.value_lower - cold.value_lower) <= 1e-12 * cold.value_lower
        assert abs(warm.value_upper - cold.value_upper) <= 1e-12 * cold.value_upper


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_the_kept_potential_is_the_one_its_result_brackets(crossing, p):
    # the upper bound is the energy of the potential's rescaled density
    net, src, tgt = crossing[2]
    kept = fresh(net)
    res = solve(kept, src, tgt, p)
    bracket = kept._crossing
    assert bracket.warm[0] == p and res.converged
    lu, lw = bracket.orbit[net.ends].T
    rho = np.abs(bracket.warm[1][lw] - bracket.warm[1][lu])
    length, _ = M._shortest_path(net, rho, bracket.source, bracket.target)
    assert float(np.power(rho / length, p).sum()) == res.value_upper
    # running the passes themselves keeps nothing
    M._p_harmonic_potential(M.ModulusProblem(net, src, tgt, p + 0.5), bracket)
    assert bracket.warm[0] == p


def test_a_solve_that_does_not_converge_keeps_no_potential(crossing, monkeypatch):
    net, src, tgt = crossing[2]
    kept, cold = fresh(net), solve(fresh(net), src, tgt, 3.0)
    with monkeypatch.context() as patch:
        patch.setattr(M, "MAX_PASSES", 1)
        assert not solve(kept, src, tgt, 3.0).converged
    assert solve(kept, src, tgt, 1.0).converged  # p = 1 keeps no potential
    assert kept._crossing.warm is None  # nothing converged yet: the next solve is cold
    again = solve(kept, src, tgt, 3.0)
    # the same passes; the kept factorisation order changes only rounding
    assert again.iterations == cold.iterations and abs(again.value / cold.value - 1) <= 1e-12
    # after p = 2 converged, a capped solve at p = 3 leaves its potential kept
    kept = fresh(net)
    solve(kept, src, tgt, 2.0)
    exact = kept._crossing.warm
    assert exact[0] == 2.0
    with monkeypatch.context() as patch:
        patch.setattr(M, "MAX_PASSES", 1)
        assert not solve(kept, src, tgt, 3.0).converged
    assert kept._crossing.warm is exact
    from_exact = fresh(net)
    solve(from_exact, src, tgt, 2.0)
    want = solve(from_exact, src, tgt, 3.0)
    got = solve(kept, src, tgt, 3.0)
    assert got.iterations == want.iterations < cold.iterations
    assert abs(got.value / want.value - 1) <= 1e-12
    assert kept._crossing.warm[0] == 3.0
