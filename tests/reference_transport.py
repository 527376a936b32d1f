"""The earlier network-simplex engine, kept as a reference for ``ot.transport``.

It recomputes every potential by a full tree search and finds each cycle by a
dict/set depth-first search, on the same pivot rules as ``ot.transport``.  Its
north-west start keeps the residual masses as numpy scalars, as the engine
first did, and so does its row-minimum start, which takes over as in
``ot.transport`` when the north-west tree is not optimal.  The two must agree
bit for bit on every problem; see ``tests/test_ot.py::TestTransportReference``.

``reference_basis_value`` is an earlier ``ot.exact_basis_value``, which
eliminates leaves in ``Fraction`` arithmetic; the one pass over the rooted
forest on integers must return the same float bit for bit
(``TestExactBasisValueReference``).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from disot.errors import LPInfeasible
from disot.ot import _transport_linprog
from disot.tolerances import OPT_TOL


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    m, n = a.size, b.size
    gamma = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    ra, rb = a.copy(), b.copy()
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
    m, n = cost.shape
    gamma = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    ra, rb = a.copy(), b.copy()
    open_cols = list(range(n))
    for i in range(m):
        while True:
            j = min(open_cols, key=lambda c: (cost[i, c], c))
            t = min(ra[i], rb[j])
            gamma[i, j] = t
            basis.append((i, j))
            ra[i] -= t
            rb[j] -= t
            # a row closes once spent, or when one column is left for it and
            # the rows below; otherwise the column closes
            if i < m - 1 and (len(open_cols) == 1 or ra[i] <= 0.0):
                break
            open_cols.remove(j)
            if not open_cols:
                break
    return gamma, basis


def _basis_sets(basis, m, n):
    basis_rows: list[set[int]] = [set() for _ in range(m)]
    basis_cols: list[set[int]] = [set() for _ in range(n)]
    for i, j in basis:
        basis_rows[i].add(j)
        basis_cols[j].add(i)
    return basis_rows, basis_cols


def _tree_potentials(cost, basis_rows, basis_cols, m, n):
    """u, v with u[i] + v[j] = cost[i, j] on basic cells, rooted at u[0] = 0."""
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [(0, True)]
    while stack:
        node, is_row = stack.pop()
        if is_row:
            for j in basis_rows[node]:
                if math.isnan(v[j]):
                    v[j] = cost[node, j] - u[node]
                    stack.append((j, False))
        else:
            for i in basis_cols[node]:
                if math.isnan(u[i]):
                    u[i] = cost[i, node] - v[node]
                    stack.append((i, True))
    return u, v


def _tree_path(start_row, target_col, basis_rows, basis_cols):
    """Unique path of basic cells from a row node to a column node."""
    parent: dict[tuple[bool, int], tuple[bool, int]] = {}
    seen = {(True, start_row)}
    stack = [(True, start_row)]
    while stack:
        is_row, node = stack.pop()
        if not is_row and node == target_col:
            path_nodes = [(False, node)]
            while path_nodes[-1] in parent:
                path_nodes.append(parent[path_nodes[-1]])
            path_nodes.reverse()
            edges = []
            for (ar, an), (br, bn) in zip(path_nodes, path_nodes[1:]):
                edges.append((an, bn) if ar else (bn, an))
            return edges
        neighbors = (
            ((False, j) for j in basis_rows[node])
            if is_row
            else ((True, i) for i in basis_cols[node])
        )
        for nxt in neighbors:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (is_row, node)
                stack.append(nxt)
    raise LPInfeasible("basis lost tree connectivity")


def reference_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Same contract and return value as ``ot.transport``."""
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = cost.shape
    gamma, basis = _northwest_corner(a, b)
    basis_rows, basis_cols = _basis_sets(basis, m, n)
    tol = OPT_TOL * float(np.abs(cost).max(initial=0.0))
    max_pivots = 200 * (m + n) + 2000
    degenerate_run = 0
    bland_after = 10 * (m + n) + 50

    def entering_cell():
        u, v = _tree_potentials(cost, basis_rows, basis_cols, m, n)
        reduced = cost - u[:, None] - v[None, :]
        if degenerate_run < bland_after:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, n)
            return u, v, (None if reduced[ei, ej] >= -tol else (ei, ej))
        # Bland's rule: first improving cell in row-major order
        cand = np.argwhere(reduced < -tol)
        return u, v, (None if cand.size == 0 else (int(cand[0][0]), int(cand[0][1])))

    for k in range(max_pivots):
        u, v, cell = entering_cell()
        if k == 0 and cell is not None:
            # the north-west tree is not optimal: start over from row minima
            gamma, basis = _row_minimum(cost, a, b)
            basis_rows, basis_cols = _basis_sets(basis, m, n)
            u, v, cell = entering_cell()
        if cell is None:
            break
        ei, ej = cell
        path = _tree_path(ei, ej, basis_rows, basis_cols)
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
        basis_rows[leaving[0]].discard(leaving[1])
        basis_cols[leaving[1]].discard(leaving[0])
        basis_rows[ei].add(ej)
        basis_cols[ej].add(ei)
        degenerate_run = degenerate_run + 1 if theta == 0.0 else 0
    else:
        return _transport_linprog(cost, a, b)

    value = math.fsum((gamma * cost).ravel().tolist())
    basis = [(i, j) for i in range(m) for j in basis_rows[i]]
    return value, gamma, u, v, basis


def reference_basis_value(cost: np.ndarray, a: np.ndarray, b: np.ndarray, basis) -> float:
    """Same contract and return value as ``ot.exact_basis_value``."""
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
