"""Shared instance generators for the test suite.

Everything is seeded through numpy's default_rng so failures reproduce
exactly.  Costs always come from point clouds (1-d or 2-d Euclidean), so they
satisfy the metric axioms by construction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.optimize

from disot import barycenter, ot
from disot.measures import DiscreteMeasure, FiberedMeasure, GroundCost
from disot.metric import DisintConfig, scrmk


def metric_cost(rng: np.random.Generator, n: int, kind: str = "interval") -> GroundCost:
    if kind == "square":
        pts = rng.random((n, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    else:
        pts = np.sort(rng.random(n))
        d = np.abs(pts[:, None] - pts[None, :])
    return GroundCost(d)


def random_measure(
    rng: np.random.Generator, n_points: int, max_atoms: int | None = None
) -> DiscreteMeasure:
    k = int(rng.integers(1, (max_atoms or n_points) + 1))
    ids = rng.choice(n_points, size=min(k, n_points), replace=False)
    return DiscreteMeasure(ids, rng.dirichlet(np.ones(ids.size)))


def random_fibered_instance(
    rng: np.random.Generator,
    n_inputs: int,
    n_fibers: int,
    n_atoms: int,
    full_support: bool = False,
):
    """(measures, costs): n_inputs fibered measures over shared base weights."""
    base_ids = [f"w{i + 1}" for i in range(n_fibers)]
    sigma = rng.dirichlet(np.ones(n_fibers))
    costs = {}
    per_input: list[dict] = [dict() for _ in range(n_inputs)]
    for b in base_ids:
        costs[b] = metric_cost(rng, n_atoms)
        for k in range(n_inputs):
            if full_support:
                per_input[k][b] = DiscreteMeasure(
                    np.arange(n_atoms), rng.dirichlet(np.ones(n_atoms))
                )
            else:
                per_input[k][b] = random_measure(rng, n_atoms)
    measures = [FiberedMeasure(base_ids, sigma, per_input[k]) for k in range(n_inputs)]
    return measures, costs


def geodesic_problem(seed: int, kind: str, p: float, q: float, t: float = 0.3):
    """(problem, J*): two inputs, weights (1 - t, t), whose optimum J* is known at every q.

    On each of two base points, mu_0 and mu_1 carry 4 random atoms of the
    line ("interval") or the unit square, and the fiber's point set adds the
    displacement interpolants (1 - s*) x_i + s* y_j of every cell (i, j) of
    their optimal p-cost plan, at s* = t^e / (t^e + (1 - t)^e), e = 1/(p - 1).
    Each interpolant scales every fiber distance by s* toward mu_0 and by
    1 - s* toward mu_1 (McCann 1997), so with D = MK_{p,q}(mu_0, mu_1) it
    attains J* = (1 - t)(s* D)^p + t((1 - s*) D)^p.  J* is also a lower bound
    on any support, by the triangle inequality of MK_{p,q}.  Needs p > 1.
    """
    rng = np.random.default_rng(seed)
    e = 1.0 / (p - 1.0)
    s = t**e / (t**e + (1.0 - t) ** e)
    base_ids = ["w1", "w2"]
    fibers, costs = ({}, {}), {}
    for b in base_ids:
        x, y = (rng.random((4, 2 if kind == "square" else 1)) for _ in range(2))
        a0, a1 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        d = np.linalg.norm(x[:, None] - y[None], axis=-1)
        rows, cols = np.nonzero(ot.exact_transport(d**p, a0, a1)[1])
        pts = np.concatenate([x, y, (1.0 - s) * x[rows] + s * y[cols]])
        costs[b] = GroundCost(np.linalg.norm(pts[:, None] - pts[None], axis=-1))
        fibers[0][b] = DiscreteMeasure(np.arange(4), a0)
        fibers[1][b] = DiscreteMeasure(np.arange(4, 8), a1)
    sigma = rng.dirichlet(np.ones(2))
    inputs = [FiberedMeasure(base_ids, sigma, f) for f in fibers]
    config = DisintConfig(p, q)
    dist = scrmk(*inputs, config, costs)
    optimum = (1.0 - t) * (s * dist) ** p + t * ((1.0 - s) * dist) ** p
    return barycenter.BarycenterProblem(inputs, [1.0 - t, t], config, costs), optimum


def joint_lp(prob, b, tau):
    """``barycenter._joint_lp`` on fiber b at tau, seeded by the north-west walk as the oracle seeds it."""
    c = [t * blk for t, blk in zip(tau, prob.blocks[b])]
    a = [mk.fiber(b).weights for mk in prob.inputs]
    return barycenter._joint_lp(c, a, barycenter._northwest_walk(c, a))


def assert_same_certificate(a, b):
    """Bitwise equality of two dual certificates' zeta and xi."""
    assert a.base_ids == b.base_ids
    assert a.zeta.tobytes() == b.zeta.tobytes()
    for xa, xb in zip(a.xi, b.xi, strict=True):
        for base_id in a.base_ids:
            assert xa[base_id].tobytes() == xb[base_id].tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@dataclass(frozen=True)
class LPCall:
    """One HiGHS solve: the function that called ``ot.highs``, and its LP."""

    caller: str
    c: np.ndarray
    kwargs: dict


@pytest.fixture
def highs_calls(monkeypatch):
    """Records every ``scipy.optimize.linprog`` call as an :class:`LPCall`.

    ``ot.highs`` imports ``linprog`` when it is called, so patching the scipy
    module reaches it.  A call from anywhere but ``ot.highs`` fails the test.
    """
    calls = []
    linprog = scipy.optimize.linprog

    def spy(c, **kwargs):
        highs_frame = sys._getframe(1)
        assert highs_frame.f_code is ot.highs.__code__, "linprog called outside ot.highs"
        calls.append(LPCall(highs_frame.f_back.f_code.co_name, c, kwargs))
        return linprog(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls
