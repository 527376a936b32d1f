"""Shared instance generators for the test suite.

Everything is seeded through numpy's default_rng so failures reproduce
exactly.  Costs always come from point clouds (1-d or 2-d Euclidean), so they
satisfy the metric axioms by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from disot.measures import DiscreteMeasure, FiberedMeasure, GroundCost


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
