"""An independent oracle for the fiber LP: the multi-marginal tuple LP.

A fiber's joint transportation LP at input weights tau has the value of the
multi-marginal transport problem over K-tuples of input atoms, at cost
C(i_1..i_K) = min_s sum_k c_k[i_k, s] (Carlier & Ekeland 2010; Agueh &
Carlier 2011; Pass 2015).  The tuple LP has no barycenter weights w, so it
shares no rows with the joint LP that ``barycenter.fiber_barycenter_lp``
answers.  ``tuple_lp_value`` solves it by a dense two-phase simplex with
Bland's rule in exact rational arithmetic, on marginals rescaled to exact
total 1 as ``ot.exact_basis_value`` rescales them; it is meant for a few
dozen tuples at most.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def tuple_lp_value(blocks: list[np.ndarray], marginals: list[np.ndarray]) -> Fraction:
    """Exact optimum of the tuple LP; blocks[k] is input k's atoms-by-support cost."""
    K = len(blocks)
    tuples = list(itertools.product(*(range(len(a)) for a in marginals)))
    exact = [[[Fraction(x) for x in row] for row in blk.tolist()] for blk in blocks]
    cost = [min(map(sum, zip(*(exact[k][t[k]] for k in range(K))))) for t in tuples]
    rows, rhs = [], []
    for k, a in enumerate(marginals):
        frac = [Fraction(x) for x in a.tolist()]
        total = sum(frac)
        # every input's rows sum to the all-ones row: one row per input after
        # the first is redundant, and dropping it leaves full row rank
        for i in range(len(frac) if k == 0 else len(frac) - 1):
            rows.append([int(t[k] == i) for t in tuples])
            rhs.append(frac[i] / total)
    return _simplex(rows, rhs, cost)


def _simplex(A: list[list[int]], b: list[Fraction], c: list[Fraction]) -> Fraction:
    """min c x over A x = b, x >= 0, for b >= 0 and A of full row rank."""
    m, n = len(A), len(c)
    # rows [A | I | b]: the m artificial columns start basic
    T = [
        [Fraction(v) for v in row] + [Fraction(int(q == r)) for q in range(m)] + [b[r]]
        for r, row in enumerate(A)
    ]
    basis = list(range(n, n + m))
    _optimize(T, basis, [Fraction(0)] * n + [Fraction(1)] * m, n + m)
    if any(T[r][-1] for r, j in enumerate(basis) if j >= n):
        raise ValueError("the tuple LP is infeasible")
    # artificials left basic sit at zero: pivot each out on any real column
    for r, j in enumerate(basis):
        if j >= n:
            _pivot(T, basis, r, next(q for q in range(n) if T[r][q] != 0))
    _optimize(T, basis, c, n)
    return sum((c[j] * T[r][-1] for r, j in enumerate(basis)), Fraction(0))


def _optimize(T, basis, cost, n_cols):
    """Simplex iterations with Bland's rule over the first n_cols columns."""
    while True:
        in_basis = set(basis)
        entering = next(
            (
                j
                for j in range(n_cols)
                if j not in in_basis
                and cost[j] < sum(cost[basis[r]] * T[r][j] for r in range(len(T)) if T[r][j])
            ),
            None,
        )
        if entering is None:
            return
        # the feasible set is bounded, so some row limits the step
        _, _, r = min(
            (T[r][-1] / T[r][entering], basis[r], r) for r in range(len(T)) if T[r][entering] > 0
        )
        _pivot(T, basis, r, entering)


def _pivot(T, basis, r, j):
    pivot = T[r][j]
    T[r] = [x / pivot for x in T[r]]
    for q, row in enumerate(T):
        f = row[j]
        if q != r and f:
            T[q] = [x - f * y for x, y in zip(row, T[r])]
    basis[r] = j
