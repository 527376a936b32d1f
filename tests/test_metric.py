import math

import numpy as np
import pytest

from disot.errors import BaseMismatch
from disot.measures import DiscreteMeasure, FiberedMeasure, GroundCost, dirac
from disot.metric import (
    DisintConfig,
    fiber_distance_profile,
    scrmk,
)
from disot.ot import brute_force_ot, solve_ot

from conftest import metric_cost, random_fibered_instance


def two_dirac_fibers():
    """Two fibers with forced Dirac transports at distances 1 and 2."""
    pts = np.array([0.0, 1.0, 2.0])
    cost = GroundCost(np.abs(pts[:, None] - pts[None, :]))
    m = FiberedMeasure(["w1", "w2"], [0.5, 0.5], {"w1": dirac(0), "w2": dirac(0)})
    n = FiberedMeasure(["w1", "w2"], [0.5, 0.5], {"w1": dirac(1), "w2": dirac(2)})
    return m, n, {"w1": cost, "w2": cost}


class TestConfig:
    def test_conjugates(self):
        assert DisintConfig(2.0, 2.0).r_conj == math.inf
        assert DisintConfig(2.0, 4.0).r == 2.0
        assert DisintConfig(2.0, 4.0).r_conj == 2.0
        assert DisintConfig(2.0, math.inf).r_conj == 1.0

    def test_validation(self):
        # a NaN compares false with everything, so each check must fail on it
        bad = [(0.5, 1.0), (2.0, 1.0), (math.inf, math.inf), (math.nan, 2.0), (2.0, math.nan)]
        for p, q in bad:
            with pytest.raises(ValueError):
                DisintConfig(p, q)


class TestProfile:
    def test_identical_measures(self, rng):
        (m, _), costs = random_fibered_instance(rng, 2, 3, 4)
        prof = fiber_distance_profile(m, m, 2.0, costs)
        assert all(d == 0.0 for _, d in prof)

    def test_dirac_distances(self):
        m, n, costs = two_dirac_fibers()
        prof = dict(fiber_distance_profile(m, n, 2.0, costs))
        assert prof == pytest.approx({"w1": 1.0, "w2": 2.0})

    def test_matches_oracle_per_fiber(self, rng):
        for _ in range(10):
            (m, n), costs = random_fibered_instance(rng, 2, 2, 3)
            p = float(rng.choice([1.0, 2.0]))
            for b, d in fiber_distance_profile(m, n, p, costs):
                oracle = brute_force_ot(m.fiber(b), n.fiber(b), costs[b], p) ** (1.0 / p)
                assert d == pytest.approx(oracle, abs=1e-9)

    def test_base_mismatch(self, rng):
        (m, _), costs = random_fibered_instance(rng, 2, 2, 3)
        other = FiberedMeasure(["zz"], [1.0], {"zz": dirac(0)})
        with pytest.raises(BaseMismatch):
            fiber_distance_profile(m, other, 2.0, costs)


class TestScrmk:
    def test_identity(self, rng):
        (m, _), costs = random_fibered_instance(rng, 2, 3, 4)
        assert scrmk(m, m, DisintConfig(2.0, 3.0), costs) == 0.0

    def test_profile_one_two(self):
        # profile (1, 2), sigma = (1/2, 1/2), q = 2 -> sqrt(1/2 + 2)
        m, n, costs = two_dirac_fibers()
        got = scrmk(m, n, DisintConfig(2.0, 2.0), costs)
        assert got == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_profile_max(self):
        m, n, costs = two_dirac_fibers()
        assert scrmk(m, n, DisintConfig(2.0, math.inf), costs) == pytest.approx(2.0)

    def test_symmetry_is_exact(self, rng):
        for _ in range(20):
            (m, n), costs = random_fibered_instance(rng, 2, 3, 4)
            cfg = DisintConfig(2.0, float(rng.choice([2.0, 4.0, math.inf])))
            assert scrmk(m, n, cfg, costs) == scrmk(n, m, cfg, costs)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            (m, n, o), costs = random_fibered_instance(rng, 3, 3, 4)
            for q in (2.0, 4.0, math.inf):
                cfg = DisintConfig(2.0, q)
                dmn = scrmk(m, n, cfg, costs)
                dmo = scrmk(m, o, cfg, costs)
                don = scrmk(o, n, cfg, costs)
                assert dmn <= dmo + don + 1e-9

    def test_zero_iff_equal_fibers(self, rng):
        (m, n), costs = random_fibered_instance(rng, 2, 3, 4)
        cfg = DisintConfig(2.0, 2.0)
        d = scrmk(m, n, cfg, costs)
        if any(not m.fiber(b).almost_equal(n.fiber(b)) for b in m.base_ids):
            assert d > 0.0

    def test_q_monotonicity(self, rng):
        for _ in range(15):
            (m, n), costs = random_fibered_instance(rng, 2, 3, 4)
            p = float(rng.choice([1.0, 2.0]))
            vals = [
                scrmk(m, n, DisintConfig(p, q), costs)
                for q in (p, 2 * p, 4 * p, math.inf)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_one_point_base_reduces_to_mk(self, rng):
        cost = metric_cost(rng, 5)
        a = DiscreteMeasure([0, 1, 2], rng.dirichlet(np.ones(3)))
        b = DiscreteMeasure([2, 3, 4], rng.dirichlet(np.ones(3)))
        m = FiberedMeasure(["w"], [1.0], {"w": a})
        n = FiberedMeasure(["w"], [1.0], {"w": b})
        mk = solve_ot(a, b, cost, 2.0).mk
        for q in (2.0, 4.0, math.inf):
            assert scrmk(m, n, DisintConfig(2.0, q), {"w": cost}) == pytest.approx(
                mk, abs=1e-12
            )

    def test_isometry_invariance_exact(self, rng):
        # reversal of a uniform dyadic grid is an exact isometry of |x - y|;
        # applying it to both measures must leave every fiber distance
        # bitwise unchanged (generic weights keep the optimal vertex unique)
        n = 5
        grid = np.arange(n) / (n - 1)
        cost = GroundCost(np.abs(grid[:, None] - grid[None, :]))
        perm = np.arange(n)[::-1]
        for _ in range(10):
            ids_a = rng.choice(n, size=3, replace=False)
            ids_b = rng.choice(n, size=3, replace=False)
            wa, wb = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            m = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure(ids_a, wa)})
            nn = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure(ids_b, wb)})
            mg = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure(perm[ids_a], wa)})
            ng = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure(perm[ids_b], wb)})
            cfg = DisintConfig(2.0, 2.0)
            assert scrmk(m, nn, cfg, {"w": cost}) == scrmk(mg, ng, cfg, {"w": cost})

