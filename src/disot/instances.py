"""Built-in instances: example reproductions and the seeded random generator.

``interval_pair`` is the two-interval nonuniqueness setup on the line (p = 1,
equal weights, both inputs are translates of each other); it carries an
explicit 1-Lipschitz potential whose transform certifies the optimal value in
closed form.  ``shared_fiber_nonuniqueness`` is the q = inf setup with two
base points where distinct equal-value minimizers exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycenter import BarycenterProblem, classical_problem
from .duality import DualCertificate
from .errors import TooLarge
from .measures import DiscreteMeasure, FiberedMeasure, GroundCost, dirac
from .metric import DisintConfig
from .ot import ORACLE_GENERAL_BOUND


def tent_potential(t: np.ndarray) -> np.ndarray:
    """1-Lipschitz hat profile: -4-t, then t, then 4-t on [-4, 4], else 0."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    left = (t >= -4.0) & (t < -2.0)
    mid = (t >= -2.0) & (t < 2.0)
    right = (t >= 2.0) & (t <= 4.0)
    out[left] = -4.0 - t[left]
    out[mid] = t[mid]
    out[right] = 4.0 - t[right]
    return out


@dataclass(frozen=True)
class IntervalPair:
    """Two uniform n-atom discretizations of [-2, -1] and [1, 2] on one grid.

    Atoms sit at midpoints of equal subintervals with weight 1/n each, which
    makes the 1-cost distance between the two measures exactly 3 (the shift
    map matches the grids atom by atom).
    """

    points: np.ndarray
    cost: GroundCost
    nu0: DiscreteMeasure
    nu1: DiscreteMeasure

    def problem(self) -> BarycenterProblem:
        return classical_problem([self.nu0, self.nu1], self.cost, [0.5, 0.5], p=1.0)

    def explicit_certificate(self, problem: BarycenterProblem) -> DualCertificate:
        """The closed-form optimal pair: xi = -phi/2 for nu0 and +phi/2 for nu1."""
        support_pts = self.points[problem.support["base"]]
        phi = tent_potential(support_pts)
        zeta = np.ones((2, 1))
        xi = ({"base": -phi / 2.0}, {"base": phi / 2.0})
        return DualCertificate(base_ids=problem.base_ids, zeta=zeta, xi=xi)


def interval_pair(n: int) -> IntervalPair:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    grid0 = -2.0 + (np.arange(n) + 0.5) / n
    grid1 = 1.0 + (np.arange(n) + 0.5) / n
    points = np.concatenate([grid0, grid1])
    cost = GroundCost(np.abs(points[:, None] - points[None, :]))
    nu0 = DiscreteMeasure(np.arange(n), np.full(n, 1.0 / n))
    nu1 = DiscreteMeasure(np.arange(n, 2 * n), np.full(n, 1.0 / n))
    return IntervalPair(points=points, cost=cost, nu0=nu0, nu1=nu1)


@dataclass(frozen=True)
class SharedFiberInstance:
    """Two-fiber q = inf setup with verifiably distinct equal-value minimizers.

    The fiber is the five-point regular grid on [0, 1].  The first input is
    the Dirac at 0 on both fibers; the second is the Dirac at 0 on the first
    fiber and the Dirac at 1 on the second.  The fiber-wise midpoint solves
    the binding fiber, and the first fiber can be moved freely below the
    binding level, giving a continuum of minimizers.
    """

    cost: GroundCost
    inputs: tuple[FiberedMeasure, FiberedMeasure]
    candidate_uniform_mid: FiberedMeasure
    candidate_modified: FiberedMeasure

    def problem(self) -> BarycenterProblem:
        """The equal-weight problem at p = 2, q = inf."""
        costs = {"w1": self.cost, "w2": self.cost}
        return BarycenterProblem(self.inputs, [0.5, 0.5], DisintConfig(2.0, np.inf), costs)


def shared_fiber_nonuniqueness() -> SharedFiberInstance:
    grid = np.linspace(0.0, 1.0, 5)
    cost = GroundCost(np.abs(grid[:, None] - grid[None, :]))
    base = ["w1", "w2"]
    sigma = [0.5, 0.5]
    m1 = FiberedMeasure(base, sigma, {"w1": dirac(0), "w2": dirac(0)})
    m2 = FiberedMeasure(base, sigma, {"w1": dirac(0), "w2": dirac(4)})
    # the midpoint 0.5 on both fibers, and 0.25 instead on the first
    cand_a = FiberedMeasure(base, sigma, {"w1": dirac(2), "w2": dirac(2)})
    cand_b = FiberedMeasure(base, sigma, {"w1": dirac(1), "w2": dirac(2)})
    return SharedFiberInstance(
        cost=cost,
        inputs=(m1, m2),
        candidate_uniform_mid=cand_a,
        candidate_modified=cand_b,
    )


def generate_instance(
    seed: int,
    n_fibers: int = 2,
    n_atoms: int = 3,
    n_measures: int = 2,
    kind: str = "interval",
    oracle_checkable: bool = False,
) -> dict:
    """Deterministic pseudo-random instance document in the measures schema.

    Points are drawn in the unit interval (or unit square) with Euclidean
    costs; measure weights are uniform draws from the probability simplex.
    With ``oracle_checkable`` the atom count must stay within the brute-force
    bound so every fiber solve can be cross-checked.
    """
    if kind not in ("interval", "square"):
        raise ValueError("kind must be 'interval' or 'square'")
    if oracle_checkable and n_atoms > ORACLE_GENERAL_BOUND:
        raise TooLarge(
            f"oracle-checkable instances need at most {ORACLE_GENERAL_BOUND} atoms per fiber"
        )
    if n_fibers < 1 or n_atoms < 1 or n_measures < 1:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)
    sigma = rng.dirichlet(np.ones(n_fibers))
    doc: dict = {
        "base": [
            {"id": f"w{i + 1}", "sigma": float(s)} for i, s in enumerate(sigma)
        ],
        "fibers": {},
    }
    for i in range(n_fibers):
        if kind == "interval":
            pts = np.sort(rng.random(n_atoms))
            dmat = np.abs(pts[:, None] - pts[None, :])
        else:
            pts = rng.random((n_atoms, 2))
            dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        measures = {}
        for m in range(n_measures):
            w = rng.dirichlet(np.ones(n_atoms)).tolist()
            measures[f"m{m + 1}"] = [{"point": j, "w": w[j]} for j in range(n_atoms)]
        # tolist() hands io.dumps plain Python floats, which it formats a row
        # at a time
        doc["fibers"][f"w{i + 1}"] = {
            "points": pts.tolist(),
            "cost": dmat.tolist(),
            "measures": measures,
        }
    return doc
