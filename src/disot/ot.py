"""Exact discrete optimal transport: value, coupling, dual potentials, c-transforms.

The workhorse is a primal network simplex on the bipartite transportation
graph (:func:`transport`).  It returns a vertex coupling together with exact
dual potentials normalized so the first row potential is zero.  The basis is
a spanning tree rooted at the first row and kept in parent and depth arrays:
each pivot finds its cycle by walking up the tree from both ends of the
entering cell, and recomputes only the potentials of the subtree that the
leaving cell cuts off, once it is hung back from the entering cell.  A run of
degenerate pivots switches pricing to Bland's rule, and a problem that
reaches the pivot limit (both in :mod:`disot.tolerances`) is re-solved by a
dense LP.  :func:`brute_force_ot` is an independent oracle that enumerates
transportation polytope vertices in exact rational arithmetic.

:func:`highs` is the package's one entry to scipy's HiGHS solver: the
transport fallback, the joint barycenter LP and the q = inf minimax LP all go
through it, with their rows laid out by :func:`coupling_rows`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .errors import DegenerateInput, LPInfeasible, SupportOutOfRange, TooLarge
from .measures import DiscreteMeasure, GroundCost
from .tolerances import (
    BLAND_AFTER_BASE,
    BLAND_AFTER_PER_NODE,
    MARGINAL_TOL,
    MAX_PIVOTS_BASE,
    MAX_PIVOTS_PER_NODE,
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
        return self.value_p ** (1.0 / self.p) if self.p != 1.0 else self.value_p


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


def transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Minimize <gamma, cost> over couplings of weight vectors a and b.

    Zero entries in a or b are allowed (their rows/columns stay basic with
    zero allocation, and their duals remain meaningful subgradients).

    The basis is a spanning tree over nodes 0..m-1 (rows) and m..m+n-1
    (columns), rooted at row 0 and stored as adjacency lists with ``parent``
    and ``depth`` arrays.  The entering cell is the first minimum of the full
    reduced-cost matrix, or the first improving cell in row-major order
    (Bland's rule) once a run of degenerate pivots reaches its threshold.
    Its cycle is found by walking up from both of its ends, deeper end first,
    until the walks meet; the leaving cell is the smallest (i, j) among the
    cells that lose theta.  Cutting the leaving cell splits off a subtree,
    which is hung back from the entering cell; only the potentials in that
    subtree are recomputed, and the rest keep their values.  After the pivot
    limit the problem goes to the dense LP fallback instead.

    Returns (value, gamma, u, v, basis) where u, v are optimal dual potentials
    with u[0] = 0 and u[i] + v[j] <= cost[i, j] up to the pivot tolerance, and
    basis is the optimal spanning tree as a list of cells.
    """
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = cost.shape
    gamma, basis = _northwest_corner(a, b)
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)
    _hang(0, adj, parent, depth, pot, cost, m)
    tol = OPT_TOL * max(1.0, float(np.abs(cost).max(initial=0.0)))
    max_pivots = MAX_PIVOTS_PER_NODE * (m + n) + MAX_PIVOTS_BASE
    degenerate_run = 0
    bland_after = BLAND_AFTER_PER_NODE * (m + n) + BLAND_AFTER_BASE
    reduced = np.empty_like(cost)

    for _ in range(max_pivots):
        uv = np.array(pot)
        np.subtract(cost, uv[:m, None], out=reduced)
        np.subtract(reduced, uv[None, m:], out=reduced)
        if degenerate_run < bland_after:
            flat = int(reduced.argmin())
            ei, ej = divmod(flat, n)
            if reduced[ei, ej] >= -tol:
                break
        else:
            # Bland's rule: first improving cell in row-major order
            cand = np.argwhere(reduced < -tol)
            if cand.size == 0:
                break
            ei, ej = int(cand[0][0]), int(cand[0][1])
        # the cycle is the tree path from row ei to column ej; rows sit at
        # even depth and columns at odd depth, so the walks never tie
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
        path = [
            (c, parent[c] - m) if c < m else (parent[c], c - m) for c in up_x + up_y
        ]
        minus = path[0::2]
        plus = path[1::2]
        theta = min(gamma[i, j] for i, j in minus)
        leaving = min((i, j) for i, j in minus if gamma[i, j] == theta)
        gamma[ei, ej] += theta
        for i, j in plus:
            gamma[i, j] += theta
        for i, j in minus:
            gamma[i, j] -= theta
        gamma[leaving] = 0.0
        li, lj = leaving[0], m + leaving[1]
        adj[li].remove(lj)
        adj[lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # the cut subtree holds the end of the entering cell on the leaving
        # cell's side of the cycle; hang it from the other end
        top, under = (ei, m + ej) if path.index(leaving) < len(up_x) else (m + ej, ei)
        parent[top] = under
        depth[top] = depth[under] + 1
        pot[top] = cost.item(ei, ej) - pot[under]
        _hang(top, adj, parent, depth, pot, cost, m)
        degenerate_run = degenerate_run + 1 if theta == 0.0 else 0
    else:
        return _transport_linprog(cost, a, b)

    basis = [(i, y - m) for i in range(m) for y in adj[i]]
    # cells outside the basis hold 0.0 and fsum skips zero terms, so this is
    # the fsum of gamma * cost over the whole matrix
    value = math.fsum([gamma.item(i, j) * cost.item(i, j) for i, j in basis])
    return value, gamma, uv[:m].copy(), uv[m:].copy(), basis


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
    """Objective of the basic solution carried by a spanning-tree basis.

    The allocations are re-derived from the marginals by leaf elimination in
    exact rational arithmetic and the cost sum rounded once, so the value is
    independent of pivot order and of any relabeling of the points.  Both
    marginals are first rescaled to exact total mass 1, which removes their
    ~1e-16 float imbalance symmetrically.
    """
    m, n = cost.shape
    adj_r: list[set[int]] = [set() for _ in range(m)]
    adj_c: list[set[int]] = [set() for _ in range(n)]
    for i, j in basis:
        adj_r[i].add(j)
        adj_c[j].add(i)
    ra = [Fraction(float(x)) for x in a]
    rb = [Fraction(float(x)) for x in b]
    ta, tb = sum(ra), sum(rb)
    ra = [x / ta for x in ra]
    rb = [x / tb for x in rb]
    total = Fraction(0)
    stack = [(True, i) for i in range(m) if len(adj_r[i]) == 1]
    stack += [(False, j) for j in range(n) if len(adj_c[j]) == 1]
    remaining = len(basis)
    while stack and remaining:
        is_row, node = stack.pop()
        adj = adj_r[node] if is_row else adj_c[node]
        if len(adj) != 1:
            continue
        other = next(iter(adj))
        if is_row:
            alloc = ra[node]
            total += alloc * Fraction(float(cost[node, other]))
            rb[other] -= alloc
            ra[node] = Fraction(0)
            adj_r[node].discard(other)
            adj_c[other].discard(node)
            if len(adj_c[other]) == 1:
                stack.append((False, other))
        else:
            alloc = rb[node]
            total += alloc * Fraction(float(cost[other, node]))
            ra[other] -= alloc
            rb[node] = Fraction(0)
            adj_c[node].discard(other)
            adj_r[other].discard(node)
            if len(adj_r[other]) == 1:
                stack.append((True, other))
        remaining -= 1
    return float(total)


def _check_supports(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: GroundCost):
    if mu is None or nu is None or len(mu) == 0 or len(nu) == 0:
        raise DegenerateInput("both measures must carry at least one atom")
    for meas, name in ((mu, "mu"), (nu, "nu")):
        if meas.point_ids.size and int(meas.point_ids[-1]) >= cost.n:
            raise SupportOutOfRange(
                f"{name} has atom {int(meas.point_ids[-1])} outside point set of size {cost.n}"
            )


def solve_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: GroundCost, p: float) -> OTResult:
    """Exact p-cost optimal transport between two discrete measures.

    Returns the optimal value of sum(gamma * d**p), an optimal vertex coupling,
    and dual potentials (phi, psi) satisfying -phi(u) - psi(v) <= d(u, v)**p
    with phi zero at mu's first support atom.  The distance itself is
    ``result.mk`` = value_p ** (1/p).
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    _check_supports(mu, nu, cost)
    cp = cost.powered_submatrix(mu.point_ids, nu.point_ids, p)
    _, gamma, u, v, basis = transport(cp, mu.weights, nu.weights)
    # nonnegative costs make the optimum nonnegative; the exact recompute can
    # surface ~1e-18 noise from degenerate bases, which would break ** (1/p)
    value = max(0.0, exact_basis_value(cp, mu.weights, nu.weights, basis))
    coupling = Coupling(gamma, mu.point_ids, nu.point_ids)
    residual = coupling.marginal_residual(mu, nu)
    if residual > MARGINAL_TOL:
        raise LPInfeasible(f"coupling marginals off by {residual}")
    return OTResult(value_p=value, coupling=coupling, phi=-u, psi=-v, p=p)


def _dyadic_ints(values) -> tuple[list[int], int]:
    """Integers n_i and a power of two s with float(values_i) == n_i / s exactly."""
    fr = [Fraction(float(x)) for x in values]
    s = max(f.denominator for f in fr)
    return [f.numerator * (s // f.denominator) for f in fr], s


def _vertex_min_exact(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> Fraction:
    """Exact LP minimum by enumerating greedy saturation orders (all vertices).

    Both marginals are rescaled to exact mass 1, as in exact_basis_value; the
    recursion runs on integers, at the common mass sum(ia) * sum(ib).
    """
    ia, _ = _dyadic_ints(a)
    ib, _ = _dyadic_ints(b)
    flat, cs = _dyadic_ints(cost.ravel())
    ta, tb = sum(ia), sum(ib)
    n = len(ib)
    costs = [flat[i * n : (i + 1) * n] for i in range(len(ia))]
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

    return Fraction(rec(tuple(x * tb for x in ia), tuple(x * ta for x in ib)), ta * tb * cs)


def brute_force_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: GroundCost, p: float) -> float:
    """Independent oracle for solve_ot's value on small instances.

    General case (supports of size <= 4 each): enumerates the vertices of the
    transportation polytope via greedy saturation orders in exact rational
    arithmetic.  Uniform case with equal atom counts <= 8: minimizes over all
    permutation couplings.  Anything larger raises TooLarge.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    _check_supports(mu, nu, cost)
    m, n = len(mu), len(nu)
    cp = cost.powered_submatrix(mu.point_ids, nu.point_ids, p)

    uniform_equal = (
        m == n
        and bool(np.all(mu.weights == mu.weights[0]))
        and bool(np.all(nu.weights == nu.weights[0]))
        and abs(mu.weights[0] - nu.weights[0]) == 0.0
    )
    if uniform_equal and n <= 8:
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
    if m <= 4 and n <= 4:
        return float(_vertex_min_exact(mu.weights, nu.weights, cp))
    raise TooLarge(
        f"supports {m}x{n} exceed the enumeration bounds (4x4 general, 8x8 uniform-equal)"
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
