"""Discrete p-modulus of crossing families, with independent oracles.

The solver brackets Mod_p of the source-to-target paths by the modulus /
minimum-energy-flow duality (Albin, Brunner, Perez, Poggi-Corradini and
Wiens, "Modulus on graphs as a generalization of standard graph theoretic
quantities", Conform. Geom. Dyn. 19 (2015)).  Upper bound: a density rho
divided by its exact shortest crossing length L is admissible, so
Mod_p <= sum(rho^p) / L^p.  Lower bound: a unit source-to-target flow g gives
Mod_p >= (sum |g|^q)^-(p-1) with q = p/(p-1), and Mod_1 >= 1 / max |g|.

For p > 1 both come from one p-harmonic potential phi (0 on the source side,
1 on the target side): rho = |dphi|, and the flow |dphi|^(p-2) dphi with its
small interior divergence routed to the boundary along a BFS forest, no solve.
At p = 1 a maximum flow gives the lower bound and its minimum cut the 0/1 density.
An edge of multiplicity k counts as k parallel copies.  The potential or
flow is solved on a quotient by an equitable partition, on the pillow graphs
the squares of the 3^n grid (_Bracket says why that is exact), and only the
certificates read the full network: _Bracket lifts the quotient's density
and flow onto it and checks each bound there, not taken from a solver or the
quotient; when the potential is exact they may cross by a few ulps, and are
not clamped.

Oracles for cross-checking: augmenting-path max-flow (p=1 is the min cut)
and the Laplacian Dirichlet problem (p=2 is the effective conductance).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import arc_csr, boundary_face, build_graph
from .words import _exponent, _integer, _square_arrays, _tolerance, check_level

EPS_FLOOR = 1e-9  # final smoothing of the IRLS weights |dphi|^(p-2)
MAX_PASSES = 300  # IRLS passes of the potential solve before "iteration cap"
MAX_BACKOFFS = 20  # times per solve a stalled or non-finite IRLS pass may raise eps
SCAN_MAX_LEVEL = 4  # conformal_scan solves every exponent at every level exactly
WARM_SPAN = 1.0  # IRLS starts from a crossing's last converged potential within this of its p


@dataclass(eq=False)
class Network:
    """Undirected multigraph as an (m, 2) endpoint array: edge ids are row
    numbers, parallel edges are allowed, and mult holds the number of
    parallel copies each edge stands for (default a broadcast 1, no array).
    Treat it as immutable: it keeps the _Bracket of its last solved crossing
    and, once searched, its arcs (_arc_matrix), which a copy shares (shallow)
    or carries (pickle, deepcopy)."""

    n_vertices: int
    ends: np.ndarray
    mult: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_vertices = _integer(self.n_vertices, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        ends = _integers(self.ends, "edge endpoints")
        u, v = ends.reshape(len(ends), 2).T
        bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v))
        if bad.size:
            raise ValueError(f"bad edge ({u[bad[0]]}, {v[bad[0]]})")
        self.ends, m = ends.astype(np.int64).reshape(len(ends), 2), len(ends)
        mult = (np.broadcast_to(np.int64(1), m) if self.mult is None
                else _integers(self.mult, "edge multiplicities"))
        if mult.shape != (m,):
            raise ValueError(f"need one multiplicity per edge ({m}), got shape {mult.shape}")
        if m and mult.min() <= 0:
            raise ValueError(f"edge multiplicities must be positive, got {mult.min()}")
        if 2.0 * mult.sum(dtype=float) + 1.0 > np.iinfo(np.int32).max:  # _max_flow's capacities
            raise ValueError("edge multiplicities must total below 2^30")
        self.mult = mult.astype(np.int64, copy=self.mult is not None)  # a given array is copied
        self._crossing = None  # the _Bracket of the last solved crossing

    @property
    def n_edges(self):
        return len(self.ends)

    @classmethod
    def from_graph(cls, g):
        return cls(g.n_vertices, np.stack(g.edge_arrays()[:2], axis=1))

    @cached_property
    def _arcs(self):  # (arc matrix, edge of each arc), built on the first search
        from scipy.sparse import csr_matrix

        (indptr, heads, edge), n = arc_csr(*self.ends.T, self.n_vertices), self.n_vertices
        return csr_matrix((np.zeros(len(heads)), heads, indptr), shape=(n, n)), edge


def _integers(x, what):
    """x as an array of integers, not floats (a cast would truncate) or bools
    (a bool among ints makes an int array; an array input has none to hide)."""
    a = np.asarray(x)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {a.dtype}")
    if not isinstance(x, np.ndarray) and any(
            isinstance(y, (bool, np.bool_)) for y in np.asarray(x, object).flat):
        raise ValueError(f"{what} must be integers, got a bool")
    return a


def crossing(g, sides=("left", "right")):
    """(network, source, target) of the paths across a replacement graph
    between two faces of the unit square."""
    src, tgt = (frozenset(boundary_face(g, side)) for side in sides)
    return Network.from_graph(g), src, tgt


def _arc_matrix(net, weights):
    """The network's one matrix of both arcs of every edge (graphs.arc_csr,
    built on the first call and kept), refilled in place so that each arc
    carries its edge's weight (valid until the next call).  Parallel arcs
    stay apart and zeros stay explicit; coo -> csr would sum parallels."""
    arcs, edge = net._arcs
    np.take(np.asarray(weights, dtype=float), edge, out=arcs.data)
    return arcs


def path_network(k):
    """A single path with k edges: modulus k^(1-p) between its ends."""
    if _integer(k, "path length") < 1:
        raise ValueError("need at least one edge")
    return Network(k + 1, [(i, i + 1) for i in range(k)]), {0}, {k}


def parallel_network(m, k):
    """m disjoint paths of k edges each sharing only the two ends."""
    if _integer(m, "path count") < 1 or _integer(k, "path length") < 1:
        raise ValueError("need m >= 1 paths of k >= 1 edges")
    chains = [[0, *range(2 + i * (k - 1), 2 + (i + 1) * (k - 1)), 1] for i in range(m)]
    return Network(2 + m * (k - 1), [e for c in chains for e in zip(c, c[1:])]), {0}, {1}


def grid_network(rows, cols):
    """rows x cols grid; endpoints are the left and right columns."""
    if _integer(rows, "row count") < 1 or _integer(cols, "column count") < 2:
        raise ValueError("grid needs at least 1 row and 2 columns")
    n = rows * cols
    edges = sorted([(v, v + 1) for v in range(n) if (v + 1) % cols]
                   + [(v, v + cols) for v in range(n - cols)])
    return Network(n, edges), set(range(0, n, cols)), set(range(cols - 1, n, cols))


@dataclass
class ModulusProblem:
    network: Network
    source: frozenset[int]
    target: frozenset[int]
    p: float
    tolerance: float = 1e-6

    def __post_init__(self):
        self.source, self.target = _sides(self.network, self.source, self.target)
        self.p, self.tolerance = _exponent(self.p), _tolerance(self.tolerance)


def _sides(net, source, target):
    """The sides as frozensets: nonempty, disjoint, integer vertices of net."""
    source, target = frozenset(source), frozenset(target)
    if not source or not target:
        raise ValueError("source and target must be nonempty")
    if source & target:
        raise ValueError("source and target must be disjoint")
    for s in source | target:
        if not 0 <= _integer(s, "endpoint vertex") < net.n_vertices:
            raise ValueError(f"endpoint vertex {s} out of range")
    return source, target


@dataclass
class ModulusResult:
    """Two-sided certificate: density is admissible (every crossing has
    length >= 1) with sum(mult density^p) = value_upper; flow, a unit flow
    signed along the rows of ends and shared by an edge's mult copies, gives
    value_lower; active_paths holds a shortest crossing under density; stop
    is "exact" (p = 1, p = 2) or why IRLS ended: "converged" once a bracket
    met the tolerance (or 5 * tolerance as it stalled at the smoothing
    floor), "stalled" with the gap open there, "iteration cap" or, once
    MAX_BACKOFFS are spent, "non-finite solve"; backoffs counts the passes
    that raised the smoothing, unable to lower the energy or not finite;
    solved_vertices counts the vertices of the quotient it solved on."""

    value_lower: float
    value_upper: float
    density: np.ndarray
    active_paths: list[tuple[int, ...]] = field(repr=False, default_factory=list)
    iterations: int = 0
    converged: bool = False
    flow: np.ndarray | None = field(repr=False, default=None)
    stop: str = "exact"
    backoffs: int = 0
    solved_vertices: int = 0

    @property
    def value(self):
        return 0.5 * (self.value_lower + self.value_upper)


def _shortest_path(net, weights, source, target):
    """Exact shortest crossing between the sides (sorted vertex arrays):
    (length, vertex path), or (inf, None) when the sides are disconnected.

    Dijkstra relaxes every arc, so parallel edges count at their lightest
    weight and zero-weight edges connect.  Ties go to the path scipy's heap
    settles first, which is fixed for a given input, and then to the
    smallest target index, so reruns reconstruct identical paths.
    """
    from scipy.sparse.csgraph import dijkstra

    if np.any(np.asarray(weights) < 0.0):
        # Dijkstra's finalization invariant fails on negative weights.
        raise ValueError("edge weights must be nonnegative")
    dist, pred, _ = dijkstra(
        _arc_matrix(net, weights), indices=source, min_only=True, return_predecessors=True,
    )
    t = int(target[np.argmin(dist[target])])
    length = float(dist[t])
    if math.isinf(length):
        return math.inf, None
    path = [t]
    while pred[t] >= 0:  # a source vertex has no predecessor
        t = int(pred[t])
        path.append(t)
    return length, tuple(reversed(path))


def solve_modulus(problem):
    """Certified p-modulus of the source-target crossing family.  Its set-up
    (a _Bracket) is kept on the network, keyed by the sides, and the last
    converged p > 1 potential starts IRLS within WARM_SPAN of its p: values
    move within the tolerance; a fresh Network solves cold."""
    net, bracket = problem.network, problem.network._crossing
    if bracket is None or bracket.sides != (problem.source, problem.target):
        bracket = net._crossing = _Bracket(net, problem.source, problem.target)
    phi = None  # the p > 1 quotient potential res brackets
    if not bracket.connected:  # empty family, modulus 0
        zero = np.zeros(net.n_edges)
        res, iterations, stop = ModulusResult(0.0, 0.0, zero, [], flow=zero.copy()), 0, "exact"
    elif problem.p == 1.0:
        flow, cut = _max_flow(bracket.quotient, *bracket.quotient_sides)
        res, iterations, stop = bracket(net, cut, flow, 1.0), 1, "exact"
    else:
        res, iterations, stop, phi = _p_harmonic_potential(problem, bracket)
    converged = bool(res.value_upper <= (1.0 + 5.0 * problem.tolerance) * res.value_lower)
    if converged and phi is not None:
        bracket.warm = problem.p, phi
    res.stop = "converged" if stop == "stalled" and converged else stop
    res.iterations, res.converged = iterations, converged
    res.solved_vertices = bracket.quotient.n_vertices
    return res


class _Bracket:
    """Both certificates on the network, as a ModulusResult, from a density
    rho and a flow per unit of multiplicity on the quotient's edges.
    __call__ lifts them: a network edge between two orbits takes its quotient
    edge's rho and, signed by its orientation, that edge's flow times its own
    mult; an edge inside an orbit takes 0.  Upper: the lifted rho rescaled by
    its exact shortest crossing.  Lower: the lifted flow, routed to the
    boundary along a BFS forest rooted there, normalised by the net flux out
    of the source side.  One BFS from both sides sets up the solve: the
    vertices it reaches at depth > 0 are free (a component touching neither
    side stays fixed: free, it would make L singular), and the sides connect
    when an edge joins a vertex reached from one side to one from the other.
    The quotient: orbit numbers the vertices by the first of _orbit_keys
    whose orbits both sides are unions of and that _equitable passes, an
    equitable partition (Godsil and Royle, Algebraic Graph Theory, 2001,
    section 9.3).  Each adjacent orbit pair is one quotient edge of the summed
    mult of the edges between them; quotient_sides are the sides' orbits, and
    the boundary data is 1 on the target's.  That is exact.  For p > 1 the
    quotient's critical point, lifted, is the network's: a vertex of an orbit
    of s carries 1/s of each quotient edge at its orbit, so its gradient is
    1/s of its orbit's, and the strictly convex energy has no other.  At
    p = 1 a maximum flow under capacities mult, lifted, is conserved and as
    large as its lifted cut.  The bracket never rests on that: __call__
    checks what it lifts on the network passed in.  It rests on the network
    and sides alone, not on p, and refers to no network:
    solve_modulus keeps it, with its forest (built on first use) and
    laplacian (pattern, fill-reducing order), in the network's one slot,
    keyed by sides; a shallow copy shares it.  Its warm is the p and
    quotient potential of the last p > 1 solve that converged, written by
    solve_modulus alone; a solve started from it moves within the tolerance,
    other reuse only the rounding (the kept order)."""

    def __init__(self, net, source, target):
        from scipy.sparse.csgraph import dijkstra

        self.sides, (eu, ew) = (source, target), net.ends.T
        self.source, self.target = (np.array(sorted(side), dtype=np.int64)
                                    for side in (source, target))
        self.depth, self.parent, start = dijkstra(
            _arc_matrix(net, np.ones(net.n_edges)), unweighted=True, min_only=True,
            indices=np.union1d(self.source, self.target), return_predecessors=True)
        self.free = np.flatnonzero(np.isfinite(self.depth) & (self.depth > 0))
        from_target = np.isin(start, self.target)
        self.connected = bool(np.any(from_target[eu] != from_target[ew]))
        for key in _orbit_keys(net.n_vertices):  # the last, each vertex alone, always passes
            if any(np.count_nonzero(np.isin(key, key[side])) > len(side)
                   for side in (self.source, self.target)):
                continue  # a side is not a union of orbits
            _, self.orbit, size = np.unique(key, return_inverse=True, return_counts=True)
            k, (a, b) = len(size), self.orbit[net.ends].T
            kept = np.flatnonzero(a != b)  # edges inside an orbit are dropped
            pairs, edge = np.unique(np.minimum(a, b)[kept] * k + np.maximum(a, b)[kept],
                                    return_inverse=True)
            mult = np.bincount(edge, net.mult[kept], len(pairs)).astype(np.int64)
            if k == net.n_vertices or _equitable(net, self.orbit, size, kept, edge, mult):
                break
        self.lift = kept, edge, np.where(a[kept] < b[kept], 1.0, -1.0)  # kept[i] on edge[i], signed
        self.quotient = Network(k, np.stack([pairs // k, pairs % k], axis=1), mult)
        self.quotient_sides = tuple(np.unique(self.orbit[s]) for s in (self.source, self.target))
        phi = np.isin(np.arange(k), self.quotient_sides[1]).astype(float)  # 1 on the target
        self.laplacian = _Laplacian(self.quotient, phi, np.unique(self.orbit[self.free]))
        self.forest = self.warm = None  # warm: (p, quotient phi) of the last converged p > 1 solve

    def __call__(self, net, rho, flow, p):
        kept, edge, sign = self.lift
        rho, flow = (np.bincount(kept, x, net.n_edges)
                     for x in (rho[edge], sign * flow[edge] * net.mult[kept]))
        length, vpath = _shortest_path(net, rho, self.source, self.target)
        density = rho / length
        upper = float((net.mult * np.power(density, p)).sum())
        flow = self.route(net, flow)
        flux = math.fsum(_div(net, flow)[self.source])
        lower = 0.0
        if flux > 0.0:
            flow /= flux
            each = np.abs(flow) / net.mult  # the flow on each parallel copy
            lower = (1.0 / float(each.max()) if p == 1.0
                     else float((net.mult * np.power(each, p / (p - 1.0))).sum()) ** (1.0 - p))
        return ModulusResult(lower, upper, density, [vpath], flow=flow)

    def route(self, net, flow):
        div = np.zeros(net.n_vertices)
        div[self.free] = _div(net, flow)[self.free]
        if not div.any():
            return flow
        if self.forest is None:
            depth, parent = self.depth, self.parent
            reached = self.free[np.argsort(-depth[self.free], kind="stable")]  # deepest first
            levels = np.split(reached, np.flatnonzero(np.diff(depth[reached])) + 1)
            # Each vertex's tree edge is its first arc to its parent.
            arcs, arc_edge = net._arcs
            tails = np.repeat(np.arange(net.n_vertices), np.diff(arcs.indptr))
            hits = np.flatnonzero(parent[tails] == arcs.indices)
            v, first = np.unique(tails[hits], return_index=True)
            e = arc_edge[hits[first]]
            self.forest = ([(lv, *np.unique(parent[lv], return_inverse=True)) for lv in levels],
                           v, e, np.where(net.ends[e, 0] == v, -1.0, 1.0))
        levels, v, e, sign = self.forest
        for level, up, inv in levels:  # deepest first, each vertex to its parent
            div[up] += np.bincount(inv, div[level], len(up))
        return flow + np.bincount(e, sign * div[v], len(flow))


def _orbit_keys(n):
    """Orbit keys to try, coarsest first: on 10^level vertices (words) the
    word's square (words._square_arrays) folded in y, folded in x and plain;
    then each vertex on its own."""
    level = len(str(n - 1))
    if n == 10**level:
        (x, y), top = _square_arrays(level), 3**level - 1
        yield from (x * (top + 1) + np.minimum(y, top - y),
                    np.minimum(x, top - x) * (top + 1) + y, x * (top + 1) + y)
    yield np.arange(n)


def _equitable(net, orbit, size, kept, edge, mult):
    """Does each vertex of an orbit of s carry mult / s of each quotient edge
    at its orbit (kept: the edges between orbits, edge: their quotient
    edges)?  A vertex without one leaves a mate more, so the runs of (vertex,
    quotient edge) met suffice.  Edges inside an orbit are not counted."""
    ends, e = net.ends[kept].T.ravel(), np.tile(edge, 2)
    _, run = np.unique(ends * len(mult) + e, return_inverse=True)
    count = np.bincount(run, np.tile(net.mult[kept], 2))
    return bool(np.all(count[run] * size[orbit[ends]] == mult[e]))


def _div(net, flow):  # net outflow at each vertex of a flow signed along the rows of ends
    (eu, ew), n = net.ends.T, net.n_vertices
    return np.bincount(eu, flow, n) - np.bincount(ew, flow, n)


def _max_flow(net, source, target):
    """Integer maximum flow between the sides (sorted vertex arrays), capacity
    mult each way per edge: the flow per unit capacity (signed along the rows
    of ends, parallel edges sharing evenly) and a minimum cut as a 0/1
    density, the edges leaving what the super source reaches in the residual."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    n = net.n_vertices
    s, t = n, n + 1
    eu, ew = net.ends.T
    rows = np.concatenate([eu, ew, np.full(len(source), s), target])
    cols = np.concatenate([ew, eu, source, np.full(len(target), t)])
    caps = np.tile(net.mult.astype(np.int32), 2)
    caps = np.concatenate([caps, np.full(len(source) + len(target), caps.sum() + 1, np.int32)])
    cap = coo_matrix((caps, (rows, cols)), shape=(n + 2, n + 2)).tocsr()  # sums parallels
    flow = maximum_flow(cap, s, t).flow  # antisymmetric
    residual = (cap - flow).tocsr()  # nonnegative: the flow respects capacities
    residual.eliminate_zeros()
    reach = np.isin(np.arange(n + 2), breadth_first_order(residual, s, return_predecessors=False))
    per_pair = np.asarray(flow[eu, ew], dtype=float).ravel()
    cut = (reach[eu] != reach[ew]).astype(float)
    return per_pair / np.asarray(cap[eu, ew], dtype=float).ravel(), cut


class _Laplacian:
    """Weighted Laplacian over the free vertices, the fixed ones entering as
    Dirichlet data; .solve(weights) returns the potential harmonic under
    weights times the edge multiplicities net.mult at every free vertex, or a
    non-finite one when the matrix is exactly singular.  Each solve refills
    one kept CSC matrix.  Once every component touches a fixed vertex the
    matrix is symmetric positive definite, so diagonal pivots are safe; the
    first factorisation picks a fill-reducing order, the pattern is
    relabelled by it (a new matrix), and later factorisations keep it."""

    def __init__(self, net, phi, free):
        self.net, self.phi, self.free = net, phi, free
        self.order, self.relabel = "MMD_AT_PLUS_A", np.arange(len(self.free))

    def _pattern(self):
        """The matrix with free vertex free[i] at row and column relabel[i]."""
        from scipy.sparse import csc_matrix

        (k, m), ev = (len(self.free), self.net.n_edges), self.net.ends
        self.label, self.relabel = self.relabel, None
        col = np.full(self.net.n_vertices, -1, dtype=np.int64)
        col[self.free] = self.label
        cu, cw = col[ev[:, 0]], col[ev[:, 1]]
        rows, cols = np.concatenate([cu, cw, cu, cw]), np.concatenate([cu, cw, cw, cu])
        keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        self.edge, self.sign = keep % m, np.where(keep < 2 * m, 1.0, -1.0)
        keys, self.slot = np.unique(cols[keep] * k + rows[keep], return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // k, minlength=k))])
        self.matrix = csc_matrix((np.zeros(len(keys)), keys % k, indptr), shape=(k, k))
        # An edge with one end fixed adds w * phi(fixed end) to the free row.
        row, far = rows[:2 * m], np.concatenate([ev[:, 1], ev[:, 0]])
        b = np.flatnonzero((row >= 0) & (col[far] < 0))
        self.rhs = (row[b], b % m, self.phi[far[b]])

    def solve(self, weights=None):
        from scipy.sparse.linalg import splu

        phi, k, m = self.phi.copy(), len(self.free), self.net.n_edges
        if not k or not m:
            return phi
        if self.relabel is not None:
            self._pattern()
        w = self.net.mult * (1.0 if weights is None else np.asarray(weights))
        lap = self.matrix
        lap.data[:] = np.bincount(self.slot, w[self.edge] * self.sign, len(lap.data))
        try:
            lu = splu(lap, permc_spec=self.order, diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        except RuntimeError:  # exactly singular
            phi[self.free] = np.nan
            return phi
        if self.order != "NATURAL":
            self.order, self.relabel = "NATURAL", lu.perm_c[self.label]
        row, e, far = self.rhs
        phi[self.free] = lu.solve(np.bincount(row, w[e] * far, k))[self.label]
        return phi


def _p_harmonic_potential(problem, bracket):
    """Potential minimizing sum mult |phi_u - phi_v|^p with phi fixed off
    bracket.free, on bracket.quotient; returns the last pass's bracket (with
    its back-offs), the passes, the stop reason and the potential it bracketed.
    It starts from bracket.warm's potential at eps = EPS_FLOOR within
    WARM_SPAN of its p, else cold from the boundary data at eps = 1.
    Iteratively reweighted least squares: each pass solves the Laplacian
    weighted by the eps-smoothed |dphi|^(p-2) and moves to the best of a few
    scalings of that step; eps follows the passes down to EPS_FLOOR, and a
    stalled or non-finite pass backs off (the README gives the schedule).
    Any potential keeping the boundary gives valid certificates: partial
    convergence costs tightness, never correctness."""
    net, p, lap = bracket.quotient, problem.p, bracket.laplacian
    warm_p, warm_phi = bracket.warm or (math.inf, None)
    phi, eps = (warm_phi, EPS_FLOOR) if abs(p - warm_p) <= WARM_SPAN else (lap.phi, 1.0)
    eu, ew = net.ends.T
    backoffs = 0

    def certify(ph, eps):
        d = ph[ew] - ph[eu]
        # |dphi|^(p-2) dphi smoothed as in the pass, the flow IRLS conserves
        res = bracket(problem.network, np.abs(d), np.power(d * d + eps * eps, 0.5 * (p - 2.0)) * d, p)
        res.backoffs = backoffs
        return res

    if not len(lap.free) or not net.n_edges:
        return certify(phi, EPS_FLOOR), 0, "exact", phi
    # As eps -> 0 the IRLS step is p - 1 times the Newton step, so for p > 9
    # every halving overshoots; the Newton scale 1/(p-1) does not.
    ladder = (1.0, 0.5, 0.25, 0.125) + ((1 / (p - 1), 0.5 / (p - 1)) if p > 2.0 else ()) + (0.0,)

    for iters in range(1, MAX_PASSES + 1):
        dphi = phi[eu] - phi[ew]
        w = None if p == 2.0 else np.power(dphi * dphi + eps * eps, 0.5 * (p - 2.0))
        phi_new = lap.solve(w)
        if not np.all(np.isfinite(phi_new)):
            if backoffs < MAX_BACKOFFS:
                backoffs, eps = backoffs + 1, eps * 16.0
                continue
            return certify(phi, eps), iters, "non-finite solve", phi
        np.clip(phi_new, 0.0, 1.0, out=phi_new)
        if p == 2.0:
            return certify(phi_new, eps), iters, "exact", phi_new

        def smoothed(ph):
            d2 = np.square(ph[eu] - ph[ew])
            return float((net.mult * np.power(d2 + eps * eps, 0.5 * p)).sum())

        # The solve points downhill for the smoothed energy, so some scaling
        # lowers it.  Taking the first that does not raise it let phi swing
        # between two states above the optimum; the best of them does not.
        step = phi_new - phi
        trials = [(smoothed(phi + s * step), s) for s in ladder]
        e_new, scale = min(trials, key=lambda t: t[0])
        e_prev = trials[-1][0]
        phi = phi + scale * step
        res = certify(phi, eps)
        if res.value_upper <= (1.0 + problem.tolerance) * res.value_lower:
            return res, iters, "converged", phi
        size = float(np.abs(step).max())
        # Small eps left phi outside the basin: every scaling raises the energy.
        if scale == 0.0 and size > 1e-13 and eps < 1e-3 and backoffs < MAX_BACKOFFS:
            backoffs, eps = backoffs + 1, eps * 16.0
            continue
        moved = size * scale
        stalled = moved <= 1e-13 or e_prev - e_new <= 1e-11 * max(e_prev, 1e-300)
        if eps <= EPS_FLOOR and stalled:
            return res, iters, "stalled", phi
        eps = max(eps / (20.0 if scale == 1.0 and moved < 1e-2 else 4.0), EPS_FLOOR)
    res.backoffs = backoffs  # the passes after the last bracket may have backed off
    return res, iters, "iteration cap", phi  # phi: unchanged since its bracket


# ---------------------------------------------------------------------------
# oracles


def mincut_oracle(net, source, target):
    """Minimum number of edges separating the sides, each counted by its
    multiplicity (BFS augmenting paths)."""
    source, target = _sides(net, source, target)
    # Arcs of capacity mult both ways per undirected edge, plus a super pair;
    # cap[u][v] is the residual capacity of u -> v, cap[u] in the order met.
    s, t, big = net.n_vertices, net.n_vertices + 1, int(net.mult.sum()) + 1
    cap = defaultdict(lambda: defaultdict(int))
    for (u, v), c in zip(net.ends.tolist(), net.mult.tolist()):
        cap[u][v] += c
        cap[v][u] += c
    for u, v in [(s, x) for x in source] + [(x, t) for x in target]:
        cap[u][v], cap[v][u] = big, 0
    flow = 0
    while True:
        pred, queue = {s: None}, [s]
        for u in queue:
            for v, c in cap[u].items():
                if c > 0 and v not in pred:
                    pred[v] = u
                    queue.append(v)
        if t not in pred:
            return flow
        path = [t]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])
        arcs = list(zip(path[1:], path))  # the path's arcs (u, v), from t back to s
        bottleneck = min(cap[u][v] for u, v in arcs)
        for u, v in arcs:
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
        flow += bottleneck


def effective_conductance(net, source, target):
    """Energy of the unit-potential harmonic flow, each edge weighted by its
    multiplicity; equals the 2-modulus.  A component that touches neither
    side carries no flow: it is held at 0."""
    from scipy.sparse.csgraph import connected_components

    source, target = _sides(net, source, target)
    sides = list(source | target)
    phi = np.zeros(net.n_vertices)
    phi[list(target)] = 1.0
    _, component = connected_components(_arc_matrix(net, np.ones(net.n_edges)), directed=False)
    reached = np.isin(component, component[sides])
    free = np.setdiff1d(np.flatnonzero(reached), sides)
    potential = _Laplacian(net, phi, free).solve()
    drop = potential[net.ends[:, 0]] - potential[net.ends[:, 1]]
    return float((net.mult * drop**2).sum())


# ---------------------------------------------------------------------------
# conformal scan


@dataclass
class ScanRow:
    level: int
    p: float
    value_lower: float
    value_upper: float
    iterations: int
    converged: bool
    ratio_to_previous_level: float | None


@dataclass
class ScanTable:
    rows: list[ScanRow]
    critical_p: dict[int, float]  # level -> grid p with cross-level ratio nearest 1
    monotone_ok: bool


def conformal_scan(levels, p_grid):
    """Left-to-right crossing modulus of the policy "on" graphs across levels
    and exponents, each solve at ModulusProblem's default tolerance.  A
    level's exponents share one network, so each solve starts from the last
    converged potential within WARM_SPAN of it (see solve_modulus).

    Reports in monotone_ok whether each level's values fall with p (within
    20 * tolerance) and gives the cross-level value ratio per exponent; the
    critical-p column is the grid point whose ratio sits nearest 1
    (exploratory, not certified).
    """
    levels = sorted({check_level(n, SCAN_MAX_LEVEL, name="scan level", over=ValueError)
                     for n in levels})
    if not levels:
        raise ValueError("no level to scan")
    p_grid = [_exponent(p) for p in p_grid]

    rows, values, monotone_ok = [], {}, True
    for n in levels:
        net, src, tgt = crossing(build_graph(n))
        prev_value = None
        for p in p_grid:
            problem = ModulusProblem(net, src, tgt, p)
            res = solve_modulus(problem)
            value = values[(n, p)] = res.value
            ratio = value / values[(n - 1, p)] if (n - 1, p) in values else None
            rows.append(ScanRow(n, p, res.value_lower, res.value_upper, res.iterations,
                                res.converged, ratio))
            if prev_value is not None and value > prev_value * (1.0 + 20.0 * problem.tolerance):
                monotone_ok = False
            prev_value = value

    critical = {}
    for n in levels:
        candidates = [(abs(math.log(values[(n, p)] / values[(n - 1, p)])), p) for p in p_grid
                      if values.get((n - 1, p), 0.0) > 0]
        if candidates:
            critical[n] = min(candidates)[1]
    return ScanTable(rows, critical, monotone_ok)
