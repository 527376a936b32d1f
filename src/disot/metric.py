"""The disintegrated (p, q)-Monge-Kantorovich distance and fiber profiles.

Two fibered measures sharing base weights sigma are compared fiber by fiber
with the exact p-cost transport distance; the profile of fiber distances is
then combined in L^q(sigma).  q = inf takes the maximum over base points of
positive sigma mass (the discrete essential supremum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BaseMismatch, FiberMismatch
from .measures import FiberedMeasure, GroundCost
from .ot import solve_ot


@dataclass(frozen=True)
class DisintConfig:
    """Exponent pair: finite fiber exponent p >= 1 and base exponent q in [p, inf]."""

    p: float
    q: float

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            raise ValueError("p must be finite and >= 1")
        # written so that a NaN q fails
        if not self.q >= self.p:
            raise ValueError("q must be >= p")

    @property
    def r(self) -> float:
        """q / p, the exponent applied to fiber-wise p-th power costs."""
        return math.inf if math.isinf(self.q) else self.q / self.p

    @property
    def r_conj(self) -> float:
        """Hoelder conjugate of r; inf when q == p, 1 when q == inf."""
        r = self.r
        if r == 1.0:
            return math.inf
        if math.isinf(r):
            return 1.0
        return r / (r - 1.0)


def cost_at(costs: Mapping[str, GroundCost], base_id: str) -> GroundCost:
    """The ground cost of ``base_id`` in a cost table, a dict from base point to GroundCost.

    Raises FiberMismatch when the table has no entry for ``base_id``.
    """
    try:
        return costs[base_id]
    except KeyError:
        raise FiberMismatch(f"no ground cost for base point {base_id!r}") from None


def _fiber_mk(m: FiberedMeasure, n: FiberedMeasure, base_id: str, costs: Mapping[str, GroundCost], p: float) -> float:
    cost = cost_at(costs, base_id)
    a, b = m.fiber(base_id), n.fiber(base_id)
    if any(f.point_ids.size and f.point_ids[-1] >= cost.n for f in (a, b)):
        raise FiberMismatch(f"fiber atoms at {base_id!r} outside the shared point set")
    # canonical orientation: the solver sees the same (mu, nu) pair regardless
    # of argument order, which makes the distance bitwise symmetric
    ka = (tuple(a.point_ids.tolist()), tuple(a.weights.tolist()))
    kb = (tuple(b.point_ids.tolist()), tuple(b.weights.tolist()))
    if kb < ka:
        a, b = b, a
    return solve_ot(a, b, cost, p).mk


def fiber_distance_profile(
    m: FiberedMeasure, n: FiberedMeasure, p: float, costs: Mapping[str, GroundCost]
) -> np.ndarray:
    """Exact per-fiber transport distance MK_p(m^w, n^w), one entry per ``m.base_ids``.

    The array is in base order, like ``m.sigma``.  Base points of zero sigma
    mass never appear (they carry no fiber).
    """
    if not m.same_base(n):
        raise BaseMismatch("measures have different base points or base weights")
    return np.array([_fiber_mk(m, n, b, costs, p) for b in m.base_ids])


def lq_norm(values: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """L^q norm of a nonnegative profile against base weights; max for q = inf."""
    if math.isinf(q):
        return float(np.max(values)) if values.size else 0.0
    return math.fsum(sigma * values**q) ** (1.0 / q)


def scrmk(m: FiberedMeasure, n: FiberedMeasure, config: DisintConfig, costs: Mapping[str, GroundCost]) -> float:
    """Disintegrated (p, q) distance: the L^q(sigma) norm of the fiber profile."""
    return lq_norm(fiber_distance_profile(m, n, config.p, costs), m.sigma, config.q)
