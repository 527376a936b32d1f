"""Exact discrete optimal transport: value, coupling, dual potentials, c-transforms.

The workhorse is a primal network simplex on the bipartite transportation
graph (:func:`transport`).  Its basis is a spanning tree over nodes 0..m-1
(rows) and m..m+n-1 (columns), rooted at row 0 and kept as adjacency lists
with parent and depth arrays.  It starts from the north-west corner tree
and returns it as it is when it is optimal, as on sorted 1-d costs;
otherwise it starts over from the row-minimum tree, where each row in turn
fills its cheapest open column, which on 2-d costs leaves a third to a half
of the pivots.  The entering cell is the first minimum of the full
reduced-cost matrix, or the first improving cell in row-major order
(Bland's rule) once a run of degenerate pivots reaches its threshold.  Its
cycle is found by walking up the tree from both of its ends, deeper end
first, until the walks meet, and the leaving cell is the smallest (i, j)
among the cells that lose theta.  Cutting the leaving cell splits off a
subtree, which is hung back from the entering cell, and only the potentials
in that subtree are recomputed (:func:`_pivot`).  A problem that reaches the
pivot limit is re-solved by a dense LP.  The thresholds and limits are in
:mod:`disot.tolerances`.

A caller that solves one cost for many marginals, as the subgradient
barycenter loop does, can pass the optimal tree of its last call in place of
the row-minimum start.  That tree is still dual feasible, so a dual network
simplex repairs it (:func:`_dual_simplex`): the tree's flows are recomputed
from the new marginals, deepest node first, and while one is below
-NEG_FLOW_TOL a dual pivot drops the cell of the most negative flow (the
smallest cell on ties), which cuts off the subtree below it.  The entering
cell is the first minimum reduced cost among the cells that cross that cut
toward the side short of mass, and the pivot reuses the same cycle walk and
re-hanging.  A basis that is not a spanning tree, a pricing pass that finds
an entering cell, or a flow still negative after MAX_DUAL_PIVOTS_PER_NODE *
(m + n) dual pivots sends the call on to the row-minimum start, with the same
result bit for bit.

:func:`exact_transport` recomputes a transport's value exactly from its
optimal basis (:func:`exact_basis_value`).
:func:`brute_force_ot` is an independent oracle that enumerates
transportation polytope vertices in exact rational arithmetic.

:func:`highs` is the package's one entry to scipy's HiGHS solver: the
transport fallback, the restricted joint barycenter LP of three or more
inputs where the north-west corner fails its certificate (one solve per
pricing round), and the q = inf minimax LP all go through it, with their
rows laid out by :func:`coupling_rows`.  It imports scipy on its first
call, so a command that never solves an LP (``generate``, ``dist``, ``ot``,
a two-input barycenter at q < inf, and one with more inputs whose fiber LPs
the north-west corner answers, each short of the pivot limit) starts
without loading scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, LPInfeasible, SupportOutOfRange, TooLarge
from .measures import DiscreteMeasure, GroundCost
from .tolerances import (
    BLAND_AFTER_BASE,
    BLAND_AFTER_PER_NODE,
    MARGINAL_TOL,
    MAX_DUAL_PIVOTS_PER_NODE,
    MAX_PIVOTS_BASE,
    MAX_PIVOTS_PER_NODE,
    NEG_FLOW_TOL,
    OPT_TOL,
)


@dataclass(frozen=True)
class Coupling:
    """Nonnegative matrix with prescribed row and column marginals."""

    gamma: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray

    def marginal_residual(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        r = np.abs(self.gamma.sum(axis=1) - mu.weights).max()
        c = np.abs(self.gamma.sum(axis=0) - nu.weights).max()
        return float(max(r, c))


@dataclass(frozen=True)
class OTResult:
    """Optimal value (p-th power), coupling and dual potentials.

    Sign convention: -phi(u) - psi(v) <= d(u, v)**p on support pairs, with
    sum(mu * -phi) + sum(nu * -psi) equal to ``value_p``.  ``phi`` is pinned to
    zero at the first support atom of mu.
    """

    value_p: float
    coupling: Coupling
    phi: np.ndarray
    psi: np.ndarray
    p: float

    @property
    def mk(self) -> float:
        """The distance itself, value_p ** (1/p)."""
        return self.value_p ** (1.0 / self.p)


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    m, n = a.size, b.size
    gamma = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    # Python floats: scalar arithmetic on them is exact IEEE double, like on
    # numpy scalars, at a fraction of the cost
    ra, rb = a.tolist(), b.tolist()
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        gamma[i, j] = t
        basis.append((i, j))
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            break
        # a row can keep float residue after the last column is full: move
        # down rather than past the last column
        if (ra[i] <= 0.0 or j == n - 1) and i < m - 1:
            i += 1
        else:
            j += 1
    return gamma, basis


def _row_minimum(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Row-minimum start: each row in turn fills its cheapest open column.

    Every allocation closes exactly one line: the row once its mass is spent
    (or when one open column is left, which takes any float residue as the
    north-west start does), the column otherwise; the last row closes every
    remaining column.  The cells are therefore m + n - 1 edges that connect
    all rows and columns, a spanning tree.  Ties go to the first column.
    """
    m, n = cost.shape
    gamma = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    ra, rb = a.tolist(), b.tolist()
    closed = np.zeros(n, dtype=bool)
    n_open = n
    for i in range(m):
        row = np.where(closed, np.inf, cost[i])
        while True:
            j = int(row.argmin())
            t = min(ra[i], rb[j])
            gamma[i, j] = t
            basis.append((i, j))
            ra[i] -= t
            rb[j] -= t
            if i < m - 1 and (n_open == 1 or ra[i] <= 0.0):
                break
            n_open -= 1
            if n_open == 0:
                break
            closed[j] = True
            row[j] = np.inf
    return gamma, basis


def _hang(top, adj, parent, depth, pot, cost, m):
    """Set parent, depth and potential below ``top`` from its neighbours.

    ``top`` already carries its own three values.  Each node below it takes
    its potential from its parent across the tree edge (row i, column j) as
    ``cost[i, j] - parent potential``, so u[i] + v[j] = cost[i, j] on every
    basic cell.
    """
    stack = [top]
    while stack:
        x = stack.pop()
        px, dx, ux = parent[x], depth[x] + 1, pot[x]
        for y in adj[x]:
            if y != px:
                parent[y] = x
                depth[y] = dx
                pot[y] = (cost.item(x, y - m) if x < m else cost.item(y, x - m)) - ux
                stack.append(y)


def _tree(basis, cost, m, n):
    """Adjacency lists, parent, depth and potentials of a basis forest.

    Each component hangs from its lowest node, at potential 0; a spanning
    tree, as every basis of :func:`transport` is, hangs from row 0.
    """
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [None] * (m + n)
    for root in range(m + n):
        if pot[root] is None:
            pot[root] = 0
            _hang(root, adj, parent, depth, pot, cost, m)
    return adj, parent, depth, pot


def _price(pot, cost, reduced, tol, bland):
    """Potentials as an array and the entering cell, or None at optimality.

    The entering cell is the first minimum of the reduced costs, or with
    ``bland`` the first improving cell in row-major order.
    """
    m, n = cost.shape
    uv = np.array(pot)
    np.subtract(cost, uv[:m, None], out=reduced)
    np.subtract(reduced, uv[None, m:], out=reduced)
    if not bland:
        ei, ej = divmod(int(reduced.argmin()), n)
        return uv, (None if reduced[ei, ej] >= -tol else (ei, ej))
    cand = np.argwhere(reduced < -tol)
    return uv, (None if cand.size == 0 else (int(cand[0][0]), int(cand[0][1])))


def _cycle(ei, ej, parent, depth, m):
    """Cells of the tree path from row ei to column ej, and how many lie on the row's side.

    The path is found by walking up from both ends, deeper end first, until
    the walks meet; rows sit at even depth and columns at odd depth, so the
    walks never tie.  The cells are listed from row ei to column ej, and the
    first ones, up to the returned count, are those the walk from row ei took.
    """
    x, y = ei, m + ej
    up_x: list[int] = []
    up_y: list[int] = []
    while x != y:
        if depth[x] > depth[y]:
            up_x.append(x)
            x = parent[x]
        else:
            up_y.append(y)
            y = parent[y]
    up_y.reverse()
    path = [(c, parent[c] - m) if c < m else (parent[c], c - m) for c in up_x + up_y]
    return path, len(up_x)


def _pivot(gamma, path, entering, leaving, theta, top, adj, parent, depth, pot, cost, m):
    """Send theta around the entering cell's cycle and swap the leaving cell for it in the tree.

    ``path`` is the entering cell's tree path (:func:`_cycle`): its even
    cells lose theta and its odd cells gain it, and the leaving cell, one of
    them, is set to exactly 0.  Cutting the leaving cell splits off the
    subtree that holds ``top``, one end of the entering cell; it is hung back
    from the entering cell's other end, and only its potentials are
    recomputed.
    """
    gamma[entering] += theta
    for cell in path[1::2]:
        gamma[cell] += theta
    for cell in path[0::2]:
        gamma[cell] -= theta
    gamma[leaving] = 0.0
    ei, ej = entering
    li, lj = leaving[0], m + leaving[1]
    adj[li].remove(lj)
    adj[lj].remove(li)
    adj[ei].append(m + ej)
    adj[m + ej].append(ei)
    under = m + ej if top == ei else ei
    parent[top] = under
    depth[top] = depth[under] + 1
    pot[top] = cost.item(ei, ej) - pot[under]
    _hang(top, adj, parent, depth, pot, cost, m)


def _upward(parent, depth, m):
    """The non-root nodes of a hung forest, deepest first, and the cell to each one's parent."""
    up = sorted((x for x in range(len(parent)) if parent[x] >= 0), key=depth.__getitem__, reverse=True)
    return up, [(x, parent[x] - m) if x < m else (parent[x], x - m) for x in up]


def _spans(basis, m, n):
    """Whether the cells form a spanning tree of the m row and n column nodes."""
    if len(basis) != m + n - 1:
        return False
    # union-find with path halving: a cell whose ends share a root closes a cycle
    root = list(range(m + n))
    for i, j in basis:
        if not (0 <= i < m and 0 <= j < n):
            return False
        x, y = i, m + j
        while root[x] != x:
            root[x] = x = root[root[x]]
        while root[y] != y:
            root[y] = y = root[root[y]]
        if x == y:
            return False
        root[x] = y
    return True


def _solution(gamma, uv, adj, cost, m):
    """(value, gamma, u, v, basis) of a final tree, as :func:`transport` returns it."""
    basis = [(i, y - m) for i in range(m) for y in adj[i]]
    # cells outside the basis hold 0.0 and fsum skips zero terms, so this is
    # the fsum of gamma * cost over the whole matrix
    value = math.fsum([gamma.item(i, j) * cost.item(i, j) for i, j in basis])
    return value, gamma, uv[:m].copy(), uv[m:].copy(), basis


def _dual_simplex(cost, a, b, basis, tol, reduced):
    """:func:`transport` warm-started from ``basis`` by dual pivots, or None.

    None means the cold start must solve the problem instead: the cells are
    not a spanning tree, some pricing pass finds an entering cell (the tree
    is not dual feasible), or a flow is still below -NEG_FLOW_TOL after the
    dual-pivot cap.
    """
    m, n = cost.shape
    if not _spans(basis, m, n):
        return None
    adj, parent, depth, pot = _tree(basis, cost, m, n)
    # the float twin of exact_basis_value's pass: each node's net mass is the
    # flow on its cell to its parent
    gamma = np.zeros((m, n))
    net = a.tolist() + b.tolist()
    for x, cell in zip(*_upward(parent, depth, m)):
        gamma[cell] = net[x]
        net[parent[x]] -= net[x]
    for pivots in itertools.count():
        uv, entering = _price(pot, cost, reduced, tol, False)
        if entering is not None:
            return None
        li, lj = divmod(int(gamma.argmin()), n)
        theta = -gamma[li, lj]
        if theta <= NEG_FLOW_TOL:
            return _solution(gamma, uv, adj, cost, m)
        if pivots == MAX_DUAL_PIVOTS_PER_NODE * (m + n):
            return None
        # the leaving cell cuts off the subtree below its deeper end: a row
        # there sends a negative flow up, so the subtree lacks mass and takes
        # it from a row outside; a column there receives a negative flow, so
        # the subtree has mass to spare and sends it to a column outside
        top = li if depth[li] > depth[m + lj] else m + lj
        inside = np.zeros(m + n, dtype=bool)
        stack = [top]
        while stack:
            y = stack.pop()
            inside[y] = True
            stack.extend(z for z in adj[y] if z != parent[y])
        rows, cols = (~inside[:m], inside[m:]) if top < m else (inside[:m], ~inside[m:])
        crossing = np.where(rows[:, None] & cols[None, :], reduced, np.inf)
        ei, ej = divmod(int(crossing.argmin()), n)
        if crossing[ei, ej] == np.inf:
            return None
        # theta on the entering cell leaves the leaving cell's flow at 0
        path, _ = _cycle(ei, ej, parent, depth, m)
        top = ei if inside[ei] else m + ej
        _pivot(gamma, path, (ei, ej), (li, lj), theta, top, adj, parent, depth, pot, cost, m)


def transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray, basis=None):
    """Minimize <gamma, cost> over couplings of weight vectors a and b.

    Zero entries in a or b are allowed (their rows/columns stay basic with
    zero allocation, and their duals remain meaningful subgradients).
    ``basis``, the optimal tree of an earlier call on the same cost, may
    warm-start the solve; a tree that cannot serve leaves the result the same
    bit for bit as without one.  The network simplex is described in the
    module docstring.

    Returns (value, gamma, u, v, basis) where u, v are optimal dual potentials
    with u[0] = 0 and u[i] + v[j] <= cost[i, j] up to the pivot tolerance,
    OPT_TOL times the largest |cost|, and basis is the optimal spanning tree
    as a list of cells.  A warm-started result may keep flows down to
    -NEG_FLOW_TOL.
    """
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = cost.shape
    gamma, tree = _northwest_corner(a, b)
    adj, parent, depth, pot = _tree(tree, cost, m, n)
    tol = OPT_TOL * float(np.abs(cost).max(initial=0.0))
    max_pivots = MAX_PIVOTS_PER_NODE * (m + n) + MAX_PIVOTS_BASE
    degenerate_run = 0
    bland_after = BLAND_AFTER_PER_NODE * (m + n) + BLAND_AFTER_BASE
    reduced = np.empty_like(cost)

    for k in range(max_pivots):
        uv, entering = _price(pot, cost, reduced, tol, degenerate_run >= bland_after)
        if k == 0 and entering is not None:
            # the north-west tree is not optimal: start from the given tree,
            # or else over from row minima
            warm = None if basis is None else _dual_simplex(cost, a, b, basis, tol, reduced)
            if warm is not None:
                return warm
            gamma, tree = _row_minimum(cost, a, b)
            adj, parent, depth, pot = _tree(tree, cost, m, n)
            uv, entering = _price(pot, cost, reduced, tol, degenerate_run >= bland_after)
        if entering is None:
            break
        ei, ej = entering
        path, row_side = _cycle(ei, ej, parent, depth, m)
        minus = path[0::2]
        theta = min(gamma[cell] for cell in minus)
        leaving = min(cell for cell in minus if gamma[cell] == theta)
        # the cut subtree holds the end of the entering cell on the leaving
        # cell's side of the cycle
        top = ei if path.index(leaving) < row_side else m + ej
        _pivot(gamma, path, entering, leaving, theta, top, adj, parent, depth, pot, cost, m)
        degenerate_run = degenerate_run + 1 if theta == 0.0 else 0
    else:
        return _transport_linprog(cost, a, b)
    return _solution(gamma, uv, adj, cost, m)


def coupling_rows(m, s, w_col=None):
    """Equality rows of coupling blocks laid side by side, as COO triplets.

    Block b is an m[b] x s[b] coupling gamma_b flattened row-major; the blocks
    fill variable columns 0 .. sum(m * s) - 1 in order.  Row sum(m[:b]) + i is
    the row marginal sum_j gamma_b[i, j]; row sum(m) + sum(s[:b]) + j is the
    column sum sum_i gamma_b[i, j], which with ``w_col`` also carries -1 on
    variable w_col[b] + j.  Returns (rows, cols, data).
    """
    m = np.asarray(m, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    size = m * s
    first_row, first_col = np.cumsum(m) - m, np.cumsum(s) - s
    n_marg = int(m.sum())
    col = np.arange(int(size.sum()))
    i, j = np.divmod(col - np.repeat(np.cumsum(size) - size, size), np.repeat(s, size))
    rows = [np.repeat(first_row, size) + i, n_marg + np.repeat(first_col, size) + j]
    cols = [col, col]
    data = [np.ones(2 * col.size)]
    if w_col is not None:
        links = np.arange(int(s.sum()))
        rows.append(n_marg + links)
        cols.append(np.repeat(np.asarray(w_col, dtype=np.int64) - first_col, s) + links)
        data.append(np.full(links.size, -1.0))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def highs(c, eq, ub=None):
    """Minimize c @ x over x >= 0 by HiGHS, with equality rows and optional <= rows.

    ``eq`` and ``ub`` are (rows, cols, data, rhs) COO triplets; each becomes a
    sparse len(rhs) x len(c) matrix.  Returns scipy's result, with the duals
    in ``eqlin.marginals`` and ``ineqlin.marginals``.  Raises LPInfeasible
    when HiGHS does not report an optimum.
    """
    # imported here: loading scipy.optimize costs more than most commands
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    def sparse(rows, cols, data, rhs):
        return coo_matrix((data, (rows, cols)), shape=(len(rhs), len(c))), rhs

    A_eq, b_eq = sparse(*eq)
    A_ub, b_ub = (None, None) if ub is None else sparse(*ub)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs")
    if res.status != 0:
        raise LPInfeasible(f"LP failed with status {res.status}: {res.message}")
    return res


def _transport_linprog(cost, a, b):
    """Dense LP fallback through :func:`highs`."""
    m, n = cost.shape
    rows, cols, data = coupling_rows([m], [n])
    # the last column sum follows from the others and the equal total masses
    keep = rows < m + n - 1
    res = highs(cost.ravel(), (rows[keep], cols[keep], data[keep], np.concatenate([a, b[:-1]])))
    gamma = res.x.reshape(m, n)
    y = res.eqlin.marginals
    u = y[:m]
    v = np.append(y[m:], 0.0)
    v = v + u[0]
    u = u - u[0]
    value = math.fsum((gamma * cost).ravel().tolist())
    basis = [(int(i), int(j)) for i, j in zip(*np.nonzero(gamma))]
    return value, gamma, u, v, basis


def exact_basis_value(cost: np.ndarray, a: np.ndarray, b: np.ndarray, basis) -> float:
    """Objective of the basic solution carried by a basis forest.

    The flows are re-derived from the marginals in exact arithmetic and the
    cost sum rounded once, so the value is independent of pivot order and of
    any relabeling of the points.  Both marginals are first rescaled to exact
    total mass 1, which removes their ~1e-16 float imbalance symmetrically.

    One pass visits the nodes of the forest that :func:`_tree` hangs, deepest
    first: a node's net, its own mass less what its children send through it,
    is the flow on its cell to its parent.  A component whose masses do not
    balance, as in a :func:`_transport_linprog` forest, leaves the excess at
    its root.  The pass runs on integers: the marginals at a common mass (see
    :func:`_common_mass`) and the cells' costs as dyadic integers over one
    power of two cs, so the value is one integer over mass * cs.
    """
    m, n = cost.shape
    _, parent, depth, _ = _tree(basis, cost, m, n)
    up, cells = _upward(parent, depth, m)
    ints, cs = _dyadic_ints([cost.item(i, j) for i, j in cells])
    (ra, rb), mass = _common_mass(a, b)
    net, total = ra + rb, 0
    for x, c in zip(up, ints):
        total += net[x] * c
        net[parent[x]] -= net[x]
    # int / int is correctly rounded, as float(Fraction(...)) is
    return total / (mass * cs)


def exact_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """:func:`transport` with its value recomputed exactly: (value, gamma, u, v).

    The value is :func:`exact_basis_value` of the optimal basis, so it does
    not depend on the pivot order.
    """
    _, gamma, u, v, basis = transport(cost, a, b)
    # nonnegative costs make the optimum nonnegative; the exact recompute can
    # surface ~1e-18 noise from degenerate bases, which would break ** (1/p)
    return max(0.0, exact_basis_value(cost, a, b, basis)), gamma, u, v


def _powered_block(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: GroundCost, p: float):
    """d(mu's atoms, nu's atoms)**p, once p and both supports are checked."""
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    if mu is None or nu is None or len(mu) == 0 or len(nu) == 0:
        raise DegenerateInput("both measures must carry at least one atom")
    for meas, name in ((mu, "mu"), (nu, "nu")):
        if meas.point_ids.size and int(meas.point_ids[-1]) >= cost.n:
            raise SupportOutOfRange(
                f"{name} has atom {int(meas.point_ids[-1])} outside point set of size {cost.n}"
            )
    return cost.powered_submatrix(mu.point_ids, nu.point_ids, p)


def solve_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: GroundCost, p: float) -> OTResult:
    """Exact p-cost optimal transport between two discrete measures.

    Returns the optimal value of sum(gamma * d**p), an optimal vertex coupling,
    and dual potentials (phi, psi) satisfying -phi(u) - psi(v) <= d(u, v)**p
    with phi zero at mu's first support atom.  The distance itself is
    ``result.mk`` = value_p ** (1/p).
    """
    cp = _powered_block(mu, nu, cost, p)
    value, gamma, u, v = exact_transport(cp, mu.weights, nu.weights)
    coupling = Coupling(gamma, mu.point_ids, nu.point_ids)
    residual = coupling.marginal_residual(mu, nu)
    if residual > MARGINAL_TOL:
        raise LPInfeasible(f"coupling marginals off by {residual}")
    return OTResult(value_p=value, coupling=coupling, phi=-u, psi=-v, p=p)


def _dyadic_ints(values) -> tuple[list[int], int]:
    """Integers n_i and a power of two s with float(values_i) == n_i / s exactly."""
    fr = [float(x).as_integer_ratio() for x in values]
    s = max((d for _, d in fr), default=1)
    return [n * (s // d) for n, d in fr], s


def _common_mass(*marginals) -> tuple[list[list[int]], int]:
    """Every marginal as integers at one common mass, and that mass.

    With marginal k as dyadic integers n_ki / s_k of integer total T_k, atom i
    of marginal k gets n_ki times the product of the other totals: divided by
    the mass T_1 * ... * T_K, each marginal is rescaled to exact total 1.
    """
    ints = [_dyadic_ints(m)[0] for m in marginals]
    totals = [sum(x) for x in ints]
    mass = math.prod(totals)
    return [[x * (mass // t) for x in xs] for xs, t in zip(ints, totals)], mass


def _vertex_min_exact(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> Fraction:
    """Exact LP minimum by enumerating greedy saturation orders (all vertices).

    Both marginals are rescaled to exact mass 1, as in exact_basis_value; the
    recursion runs on integers, at their common mass.
    """
    (ra, rb), mass = _common_mass(a, b)
    flat, cs = _dyadic_ints(cost.ravel())
    n = len(rb)
    costs = [flat[i * n : (i + 1) * n] for i in range(len(ra))]
    memo: dict[tuple, int] = {}

    def rec(ra: tuple, rb: tuple) -> int:
        if not any(ra):
            return 0
        key = (ra, rb)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = None
        for i, ai in enumerate(ra):
            if ai == 0:
                continue
            for j, bj in enumerate(rb):
                if bj == 0:
                    continue
                t = ai if ai <= bj else bj
                na = ra[:i] + (ai - t,) + ra[i + 1 :]
                nb = rb[:j] + (bj - t,) + rb[j + 1 :]
                c = t * costs[i][j] + rec(na, nb)
                if best is None or c < best:
                    best = c
        memo[key] = best
        return best

    return Fraction(rec(tuple(ra), tuple(rb)), mass * cs)


# brute_force_ot's enumeration bounds: support sizes per side in general, and
# atom counts when both measures are uniform with equal counts
ORACLE_GENERAL_BOUND = 4
ORACLE_UNIFORM_BOUND = 8


def brute_force_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: GroundCost, p: float) -> float:
    """Independent oracle for solve_ot's value on small instances.

    General case (supports of size <= ORACLE_GENERAL_BOUND each): enumerates
    the vertices of the transportation polytope via greedy saturation orders in
    exact rational arithmetic.  Uniform case with equal atom counts <=
    ORACLE_UNIFORM_BOUND: minimizes over all permutation couplings.  Anything
    larger raises TooLarge.
    """
    cp = _powered_block(mu, nu, cost, p)
    m, n = len(mu), len(nu)

    uniform_equal = (
        m == n
        and bool(np.all(mu.weights == mu.weights[0]))
        and bool(np.all(nu.weights == nu.weights[0]))
        and abs(mu.weights[0] - nu.weights[0]) == 0.0
    )
    if uniform_equal and n <= ORACLE_UNIFORM_BOUND:
        best_perm = None
        best = math.inf
        rows = np.arange(n)
        for perm in itertools.permutations(range(n)):
            c = float(cp[rows, perm].sum())
            if c < best:
                best = c
                best_perm = perm
        exact = math.fsum(cp[i, j] for i, j in zip(rows, best_perm))
        return float(mu.weights[0]) * exact
    if m <= ORACLE_GENERAL_BOUND and n <= ORACLE_GENERAL_BOUND:
        return float(_vertex_min_exact(mu.weights, nu.weights, cp))
    g, u = ORACLE_GENERAL_BOUND, ORACLE_UNIFORM_BOUND
    raise TooLarge(
        f"supports {m}x{n} exceed the enumeration bounds ({g}x{g} general, {u}x{u} uniform-equal)"
    )


def c_transform(
    xi: np.ndarray, lam: float, p: float, cost: GroundCost, domain: np.ndarray | None = None
) -> np.ndarray:
    """Discrete transform u -> max_v (-lam * d(u, v)**p - xi(v)).

    xi holds one value per fiber point (or per ``domain`` entry when a domain
    restriction is given); the result has one value per fiber point.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    xi = np.asarray(xi, dtype=np.float64)
    if not np.all(np.isfinite(xi)):
        raise ValueError("potential has non-finite entries")
    dp = cost.powered(p)
    cols = dp if domain is None else dp[:, domain]
    if xi.size != cols.shape[1]:
        raise ValueError("potential length does not match the transform domain")
    return (-lam * cols - xi[None, :]).max(axis=1)


def coupling_is_deterministic(c: Coupling, tol: float) -> dict[int, int] | None:
    """Extract the transport map if each coupling row is concentrated.

    Returns {source point id: target point id} when every row has at most one
    entry above tol times its row mass, None otherwise.
    """
    gamma = c.gamma
    out: dict[int, int] = {}
    for r in range(gamma.shape[0]):
        row = gamma[r]
        mass = row.sum()
        if mass <= 0.0:
            continue
        if int(np.count_nonzero(row > tol * mass)) > 1:
            return None
        out[int(c.row_ids[r])] = int(c.col_ids[int(row.argmax())])
    return out
