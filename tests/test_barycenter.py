import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disot import barycenter, ot
from disot.barycenter import (
    BarycenterProblem,
    _certificate_at,
    classical_barycenter,
    classical_problem,
    disint_barycenter,
    fiber_barycenter_lp,
    objective,
    project_simplex,
    uniqueness_probe,
)
from disot.duality import eval_dual, extract_certificate
from disot.errors import (
    BaseMismatch,
    EmptySupport,
    FiberMismatch,
    SupportOutOfRange,
    SupportViolation,
)
from disot.instances import generate_instance, interval_pair, shared_fiber_nonuniqueness
from disot.io import parse_instance
from disot.measures import DiscreteMeasure, FiberedMeasure, GroundCost, dirac
from disot.metric import DisintConfig, scrmk
from disot.ot import _vertex_min_exact, solve_ot, transport
from disot.tolerances import CERT_TOL, MAX_ITER, NW_SLACK_ULPS, OPT_TOL, PROBE_DIST_TOL, PROBE_RADIUS

from conftest import (
    assert_same_certificate,
    geodesic_problem,
    joint_lp,
    metric_cost,
    random_fibered_instance,
)
from reference_multimarginal import tuple_lp_value


def line_cost(points):
    pts = np.asarray(points, dtype=np.float64)
    return GroundCost(np.abs(pts[:, None] - pts[None, :]))


def simplex_grid(dim, steps):
    """All weight vectors with entries k/steps summing to 1."""
    out = []
    for combo in itertools.combinations_with_replacement(range(dim), steps):
        w = np.zeros(dim)
        for c in combo:
            w[c] += 1.0 / steps
        out.append(w)
    return out


def single_base(mu: DiscreteMeasure) -> FiberedMeasure:
    return FiberedMeasure(["base"], [1.0], {"base": mu})


class TestObjective:
    def test_zero_at_common_input(self, rng):
        (m, _), costs = random_fibered_instance(rng, 2, 2, 4)
        prob = BarycenterProblem([m, m], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        assert objective(prob, m) == 0.0

    def test_arithmetic_on_known_distances(self):
        # distances (1, 2) at p = 2, lambda = (1/2, 1/2) -> 2.5
        pts = np.array([0.0, 1.0, 2.0])
        cost = line_cost(pts)
        prob = classical_problem([dirac(1), dirac(2)], cost, [0.5, 0.5], p=2.0)
        cand = single_base(dirac(0))
        assert objective(prob, cand) == pytest.approx(0.5 * 1.0 + 0.5 * 4.0)

    def test_interval_pair_candidates(self):
        inst = interval_pair(50)
        prob = inst.problem()
        val0 = objective(prob, single_base(inst.nu0))
        val1 = objective(prob, single_base(inst.nu1))
        assert val0 == pytest.approx(1.5, abs=0.02)
        assert val1 == pytest.approx(1.5, abs=0.02)

    def test_support_violation(self):
        cost = line_cost([0.0, 1.0, 2.0])
        prob = classical_problem([dirac(0), dirac(1)], cost, [0.5, 0.5], p=2.0, support=[0, 1])
        with pytest.raises(SupportViolation):
            objective(prob, single_base(dirac(2)))

    def test_base_mismatch(self):
        prob = classical_problem([dirac(0), dirac(1)], line_cost([0.0, 1.0]), [0.5, 0.5], p=2.0)
        elsewhere = FiberedMeasure(["elsewhere"], [1.0], {"elsewhere": dirac(0)})
        with pytest.raises(BaseMismatch, match="candidate does not share the problem's base weights"):
            objective(prob, elsewhere)


class TestClassicalBarycenter:
    def test_identical_inputs_recover_input(self, rng):
        cost = line_cost(np.sort(rng.random(5)))
        mu = DiscreteMeasure([0, 2, 4], rng.dirichlet(np.ones(3)))
        prob = classical_problem([mu, mu], cost, [0.5, 0.5], p=2.0)
        res = classical_barycenter(prob)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        fiber = res.minimizer.fiber("base")
        assert np.array_equal(fiber.point_ids, mu.point_ids)
        assert np.allclose(fiber.weights, mu.weights, rtol=0.0, atol=1e-9)

    def test_two_diracs_meet_in_the_middle(self):
        # support {0, 1/2, 1}: grid search at step 1/64 confirms delta_{1/2}
        cost = line_cost([0.0, 0.5, 1.0])
        prob = classical_problem([dirac(0), dirac(2)], cost, [0.5, 0.5], p=2.0)
        res = classical_barycenter(prob)
        fiber = res.minimizer.fiber("base")
        assert fiber.point_ids.tolist() == [1]
        assert fiber.weights.tolist() == [1.0]
        assert res.value == pytest.approx(0.25, abs=1e-12)
        grid_best = min(
            objective(prob, single_base(DiscreteMeasure([0, 1, 2], w)))
            for w in simplex_grid(3, 64)
            if w.sum() > 0
        )
        assert grid_best == pytest.approx(0.25, abs=1e-12)
        assert res.value <= grid_best + 1e-9

    def test_value_is_objective_of_minimizer(self, rng):
        for _ in range(5):
            (a, b, c), costs = random_fibered_instance(rng, 3, 1, 5, full_support=True)
            prob = BarycenterProblem([a, b, c], [0.2, 0.5, 0.3], DisintConfig(2.0, 2.0), costs)
            res = classical_barycenter(prob)
            assert res.value == pytest.approx(objective(prob, res.minimizer), abs=1e-9)

    def test_global_optimality_on_support(self, rng):
        (a, b), costs = random_fibered_instance(rng, 2, 1, 4, full_support=True)
        prob = BarycenterProblem([a, b], [0.4, 0.6], DisintConfig(2.0, 2.0), costs)
        res = classical_barycenter(prob)
        base = prob.base_ids[0]
        for _ in range(30):
            w = np.random.default_rng(int(rng.integers(1 << 31))).dirichlet(np.ones(4))
            cand = FiberedMeasure([base], [1.0], {base: DiscreteMeasure(np.arange(4), w)})
            assert res.value <= objective(prob, cand) + 1e-9

    def test_interval_pair_value(self):
        inst = interval_pair(50)
        res = classical_barycenter(inst.problem())
        assert res.value == pytest.approx(1.5, abs=0.02)

    def test_rejects_multi_fiber(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        with pytest.raises(BaseMismatch):
            classical_barycenter(prob)

    def test_empty_support(self):
        cost = line_cost([0.0, 1.0])
        with pytest.raises(EmptySupport):
            classical_problem([dirac(0), dirac(1)], cost, [0.5, 0.5], p=2.0, support=[])

    def test_lambda_validation(self):
        cost = line_cost([0.0, 1.0])
        with pytest.raises(ValueError):
            classical_problem([dirac(0), dirac(1)], cost, [0.5, 0.6], p=2.0)
        with pytest.raises(ValueError):
            classical_problem([dirac(0), dirac(1)], cost, [1.0, 0.0], p=2.0)


class TestProblem:
    @staticmethod
    def _case(case):
        cost = line_cost([0.0, 1.0, 2.0])
        m1 = FiberedMeasure(["w1", "w2"], [0.5, 0.5], {"w1": dirac(0), "w2": dirac(1)})
        m2 = FiberedMeasure(["w1", "w2"], [0.5, 0.5], {"w1": dirac(2), "w2": dirac(2)})
        args = dict(inputs=[m1, m2], lambdas=[0.5, 0.5], costs={"w1": cost, "w2": cost})
        if case == "one_input":
            args["inputs"], args["lambdas"] = [m1], [1.0]
        elif case == "lambda_count":
            args["lambdas"] = [0.25, 0.25, 0.5]
        elif case == "lambda_nan":
            args["lambdas"] = [math.nan, 0.5]
        elif case == "base":
            args["inputs"] = [m1, FiberedMeasure(["w1", "w2"], [0.25, 0.75], m2.fibers)]
        elif case == "support":
            args["support"] = {"w1": [0, 3], "w2": [1]}
        elif case == "costs":
            args["costs"] = {"w1": cost}
        elif case == "atom":
            m3 = FiberedMeasure(["w1", "w2"], [0.5, 0.5], {"w1": dirac(0), "w2": dirac(5)})
            args["inputs"], args["lambdas"] = [m1, m2, m3], [0.25, 0.25, 0.5]
        return args

    @pytest.mark.parametrize(
        "case, error",
        [
            ("one_input", ValueError),
            ("lambda_count", ValueError),
            ("lambda_nan", ValueError),
            ("base", BaseMismatch),
            ("support", SupportViolation),
            ("costs", FiberMismatch),
            ("atom", SupportOutOfRange),
        ],
    )
    def test_typed_errors(self, case, error):
        args = self._case(case)
        with pytest.raises(error):
            BarycenterProblem(config=DisintConfig(1.0, 2.0), **args)

    def test_input_atom_outside_cost_names_base_point_and_atom(self):
        with pytest.raises(SupportOutOfRange, match="input 3 has atom 5 at base point 'w2'"):
            BarycenterProblem(config=DisintConfig(2.0, 2.0), **self._case("atom"))
        with pytest.raises(SupportOutOfRange, match="atom 7"):
            classical_problem([dirac(0), dirac(7)], line_cost([0.0, 1.0]), [0.5, 0.5], p=1.0)

    def test_costs_become_a_dict_per_base_point(self):
        cost = line_cost([0.0, 1.0, 2.0])
        args = self._case("valid")
        args["costs"] = {"w1": cost, "w2": cost, "w3": cost}
        prob = BarycenterProblem(config=DisintConfig(1.0, 2.0), **args)
        assert type(prob.costs) is dict
        assert list(prob.costs) == ["w1", "w2"]
        assert all(prob.costs[b].d is cost.d for b in prob.costs)


class TestDisintBarycenter:
    def test_one_point_base_matches_classical(self, rng):
        (a, b), costs = random_fibered_instance(rng, 2, 1, 4, full_support=True)
        for q in (2.0, 4.0, math.inf):
            prob = BarycenterProblem([a, b], [0.5, 0.5], DisintConfig(2.0, q), costs)
            classical = classical_barycenter(
                BarycenterProblem([a, b], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
            )
            res = disint_barycenter(prob, max_iter=4000)
            # with one base point every q gives the same problem
            assert res.value == pytest.approx(classical.value, rel=2e-3, abs=1e-6)

    def test_decoupling_at_q_equals_p(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 3, 4)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        sigma = ms[0].sigma
        agg = []
        for i, b in enumerate(prob.base_ids):
            sub = classical_problem(
                [mk.fiber(b) for mk in ms],
                costs[b],
                [0.5, 0.5],
                p=2.0,
                support=prob.support[b],
            )
            agg.append(sigma[i] * classical_barycenter(sub).value)
        assert res.value == pytest.approx(math.fsum(agg), abs=1e-9)

    def test_q_between_matches_grid_oracle(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob)
        assert res.certified
        oracle = grid_search_oracle(prob, steps=32)
        assert res.value == pytest.approx(oracle, abs=2e-2)
        # the grid search runs over a candidate subset, so it upper-bounds the
        # optimum and can never undercut a valid dual bound
        assert oracle >= res.dual_bound - 1e-9

    def test_q_inf_matches_grid_oracle(self, rng):
        for _ in range(3):
            ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
            prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, math.inf), costs)
            res = disint_barycenter(prob)
            assert res.solver_log["method"] == "minimax_lp"
            assert res.certified and res.gap == 0.0 and res.dual_bound == res.value
            oracle = grid_search_oracle(prob, steps=32)
            # the LP minimum over each whole simplex undercuts every grid point
            assert oracle - 2e-2 <= res.value <= oracle + 1e-9
            assert res.dual_bound <= oracle + 1e-9
            assert res.value == pytest.approx(objective(prob, res.minimizer), abs=1e-12)

    def test_q_inf_ignores_subgradient_settings(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 3, 4)
        prob = BarycenterProblem(ms, [0.3, 0.7], DisintConfig(2.0, math.inf), costs)
        plain = disint_barycenter(prob)
        tuned = disint_barycenter(prob, max_iter=1, tol=0.5)
        assert tuned.value == plain.value
        assert tuned.minimizer.base_ids == plain.minimizer.base_ids
        assert np.array_equal(tuned.minimizer.sigma, plain.minimizer.sigma)
        for b in plain.minimizer.base_ids:
            t, u = tuned.minimizer.fiber(b), plain.minimizer.fiber(b)
            assert np.array_equal(t.point_ids, u.point_ids)
            assert np.array_equal(t.weights, u.weights)
        assert np.array_equal(tuned.per_k_distances, plain.per_k_distances)
        assert (tuned.certified, tuned.gap, tuned.dual_bound) == (True, 0.0, plain.value)

    def test_max_iter_flagging(self, rng, monkeypatch):
        monkeypatch.setattr(barycenter, "CERT_EVERY", 10**9)
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob, max_iter=2)
        assert not res.certified
        assert res.solver_log["max_iter_exceeded"]

    def test_gap_is_taken_at_the_returned_value(self):
        # the best value falls after the check at iteration 50, so a gap kept
        # from that check would be stale when the cap stops the solve
        inst = parse_instance(generate_instance(seed=0, n_fibers=3, n_atoms=6, n_measures=2, kind="interval"))
        inputs = [inst.measure("m1"), inst.measure("m2")]
        prob = BarycenterProblem(inputs, [0.5, 0.5], DisintConfig(1.0, 3.0), inst.costs)
        res = disint_barycenter(prob, max_iter=60)
        assert not res.certified
        assert res.gap == res.value - res.dual_bound

    @pytest.mark.parametrize("case", ["identical_uniform_inputs", "zero_cost"])
    def test_zero_subgradient_stops_certified(self, case):
        # every fiber cost is 0 at the uniform start, so the subgradient is 0
        # and the first iterate is optimal
        if case == "identical_uniform_inputs":
            uniform = DiscreteMeasure([0, 1, 2], np.full(3, 1.0 / 3.0))
            inputs, cost = [single_base(uniform)] * 2, line_cost([0.0, 1.0, 2.0])
        else:
            inputs = [single_base(dirac(0)), single_base(DiscreteMeasure([1, 2], [0.25, 0.75]))]
            cost = GroundCost(np.zeros((3, 3)))
        prob = BarycenterProblem(inputs, [0.5, 0.5], DisintConfig(2.0, 4.0), {"base": cost})
        res = disint_barycenter(prob)
        assert res.certified
        assert res.gap == 0.0 and res.value == 0.0 and res.dual_bound == 0.0
        assert res.solver_log["iterations"] == 1
        # no check ran before the stop, so the solve extracted one certificate
        assert_same_certificate(res.certificate, _certificate_at(prob, res.minimizer)[0])

    def test_sandwich_bounds(self, rng):
        # dual certificate value <= value <= objective of any candidate
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob)
        assert isinstance(res.dual_bound, float)
        assert res.dual_bound <= res.value + 1e-9
        for mk in ms:
            assert res.value <= objective(prob, mk) + 1e-9

    @pytest.mark.parametrize(
        "settings",
        [{"max_iter": 0}, {"max_iter": -3}, {"tol": math.nan}, {"tol": -1e-3}],
        ids=["max_iter_0", "max_iter_negative", "tol_nan", "tol_negative"],
    )
    def test_subgradient_settings_are_validated(self, rng, settings):
        ms, costs = random_fibered_instance(rng, 2, 2, 3)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        with pytest.raises(ValueError, match="must be"):
            disint_barycenter(prob, **settings)
        # the LP routes read neither setting
        for q in (2.0, math.inf):
            lp = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, q), costs)
            assert disint_barycenter(lp, **settings).certified

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("kind", ["square", "interval"])
    def test_warm_started_transports_keep_the_route(self, K, kind, monkeypatch):
        # the subgradient loop hands each transport its previous tree; cold
        # solves must take the same route to the same answer
        doc = generate_instance(seed=K, n_fibers=3, n_atoms=8, n_measures=K, kind=kind)
        inst = parse_instance(doc)
        inputs = [inst.measure(name) for name in sorted(inst.measures)]
        prob = BarycenterProblem(inputs, np.full(K, 1.0 / K), DisintConfig(2.0, 4.0), inst.costs)
        trees, answered = [], []
        dual_simplex = ot._dual_simplex

        def spy(cost, a, b, basis=None):
            trees.append(basis is not None)
            return transport(cost, a, b, basis=basis)

        def dual_spy(*args):
            out = dual_simplex(*args)
            answered.append(out is not None)
            return out

        monkeypatch.setattr(barycenter, "transport", spy)
        monkeypatch.setattr(ot, "_dual_simplex", dual_spy)
        warm = disint_barycenter(prob, max_iter=60)
        monkeypatch.setattr(barycenter, "transport", lambda cost, a, b, basis=None: transport(cost, a, b))
        cold = disint_barycenter(prob, max_iter=60)
        assert warm.solver_log["iterations"] == cold.solver_log["iterations"] > 1
        # every iteration after the first passes each (fiber, input) its tree;
        # on the line the north-west corner stays optimal and the tree unread
        assert sum(trees) == (warm.solver_log["iterations"] - 1) * K * 3
        if kind == "square":
            assert sum(answered) > 0
        else:
            assert answered == []
        assert warm.certified == cold.certified
        assert abs(warm.value - cold.value) <= max(warm.gap, cold.gap)
        assert abs(warm.dual_bound - cold.dual_bound) <= max(warm.gap, cold.gap)


class TestGeodesicOptimum:
    """Two inputs on a support that holds their interpolants: the optimum J* is exact at every q."""

    @pytest.mark.parametrize("kind", ["interval", "square"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_lp_routes_reach_the_optimum(self, kind, p):
        for q in (p, math.inf):
            prob, optimum = geodesic_problem(0, kind, p, q)
            assert disint_barycenter(prob).value == pytest.approx(optimum, rel=1e-12, abs=0.0)

    # the bracket holds at every iterate, so the capped solves check it on
    # the uncertified return as well
    @pytest.mark.parametrize("kind, max_iter", [
        ("interval", 100), ("square", 100), ("interval", MAX_ITER),
    ])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_subgradient_brackets_the_optimum(self, kind, max_iter, p):
        prob, optimum = geodesic_problem(0, kind, p, 2.0 * p)
        res = disint_barycenter(prob, max_iter=max_iter)
        assert res.dual_bound <= optimum <= res.value

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 4: the gap rule tol * (1 + value) is absolute below a value of 1, "
        "so this result says certified at 2.7% above J*"))
    def test_certified_result_is_within_tol_of_the_optimum(self):
        prob, optimum = geodesic_problem(0, "interval", 2.0, 4.0)
        res = disint_barycenter(prob)
        assert not res.certified or res.value - optimum <= CERT_TOL * optimum


def pair_instance(kind, p, m1, m2, subset, tiny, seed):
    """A one-fiber two-input problem on six points, with random zeta (2 x 1)."""
    rng = np.random.default_rng(seed)
    n = 6
    cost = metric_cost(rng, n, kind)
    mus = []
    for m in (m1, m2):
        w = rng.dirichlet(np.ones(m))
        if tiny and m > 1:
            w[-1] = 1e-300
        mus.append(DiscreteMeasure(rng.choice(n, size=m, replace=False), w))
    support = np.flatnonzero(rng.random(n) < 0.5) if subset else None
    if support is not None and support.size == 0:
        support = None
    lam = rng.uniform(0.05, 0.95)
    prob = classical_problem(mus, cost, [lam, 1.0 - lam], p, support=support)
    zeta = rng.uniform(0.1, 2.0, size=(2, 1))
    return prob, zeta, cost


# HiGHS stops 6e-8 relative above the joint LP's optimum here
HIGHS_SUBOPTIMAL = ("interval", 2.0, 6, 1, False, False, 1)


class TestPairBetas:
    """Two-input joint LPs from one transport problem per fiber."""

    @given(
        st.sampled_from(["interval", "square"]),
        st.sampled_from([1.0, 2.0]),
        st.integers(1, 6),
        st.integers(1, 6),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(*HIGHS_SUBOPTIMAL)
    @settings(max_examples=200, deadline=None)
    def test_betas_are_optimal_joint_lp_duals(self, kind, p, m1, m2, subset, tiny, seed):
        prob, zeta, cost = pair_instance(kind, p, m1, m2, subset, tiny, seed)
        b = prob.base_ids[0]
        tau = prob.lambdas * zeta[:, 0]
        solved = []

        def spy(c, a, b):
            out = transport(c, a, b)
            solved.append((c, out[1], out[2], out[3]))
            return out

        with mock.patch.object(ot, "transport", spy):
            value, w, beta = fiber_barycenter_lp(prob, b, tau)
        ((pair_cost, gamma, u, v),) = solved
        fibers = [mk.fiber(b) for mk in prob.inputs]
        sup = prob.support[b]
        c = [t * cost.powered_submatrix(f.point_ids, sup, p) for t, f in zip(tau, fibers)]
        # joint-LP dual feasibility: alpha + beta <= tau d^p in floats, with
        # alpha the transport potentials, and beta_1 + beta_2 >= 0
        assert np.all(c[0] - u[:, None] >= beta[0])
        assert np.all(c[1] - v[:, None] >= beta[1])
        tol = OPT_TOL * float(np.abs(pair_cost).max())
        assert np.all(beta[0] + beta[1] >= -tol)
        dual = math.fsum([*(fibers[0].weights * u), *(fibers[1].weights * v)])
        # the transport plan pushed through the argmin s is a joint-LP plan
        # (both couplings have column marginal w) of the same value, so both
        # are optimal
        rows, cols = np.nonzero(gamma)
        s_star = (c[0][rows] + c[1][cols]).argmin(axis=1)
        g1, g2 = np.zeros_like(c[0]), np.zeros_like(c[1])
        np.add.at(g1, (rows, s_star), gamma[rows, cols])
        np.add.at(g2, (cols, s_star), gamma[rows, cols])
        assert g1.sum(axis=0) == pytest.approx(g2.sum(axis=0), abs=1e-15)
        primal = math.fsum([*(c[0] * g1).ravel(), *(c[1] * g2).ravel()])
        assert dual == pytest.approx(primal, rel=1e-9)
        # weak duality against HiGHS's optimum of the joint LP; HiGHS can stop
        # up to ~1e-7 relative above the optimum, so equality is not asserted
        highs_value = joint_lp(prob, b, tau)[0]
        assert dual <= highs_value + 1e-9 * abs(highs_value) + 1e-12
        if m1 <= 4 and m2 <= 4:
            # the exact oracle on the pair cost
            exact = _vertex_min_exact(fibers[0].weights, fibers[1].weights, pair_cost)
            assert float(exact) == pytest.approx(dual, rel=1e-9)
        # the returned w is a minimizer: the transports from the inputs to it
        # cost the returned value
        target = DiscreteMeasure(sup, w)
        at_w = math.fsum(t * solve_ot(f, target, cost, p).value_p for t, f in zip(tau, fibers))
        assert at_w == pytest.approx(value, rel=1e-12)

    def test_value_is_exact_where_highs_stops_early(self):
        prob, zeta, _ = pair_instance(*HIGHS_SUBOPTIMAL)
        b = prob.base_ids[0]
        tau = prob.lambdas * zeta[:, 0]
        value = fiber_barycenter_lp(prob, b, tau)[0]
        # one atom on the second side: the only plan sends everything to it,
        # so the optimum is sum_i a_i C(i, 0), here in rationals at mass 1
        c1, c2 = (t * blk for t, blk in zip(tau, prob.blocks[b]))
        a = [Fraction(x) for x in prob.inputs[0].fiber(b).weights]
        pair = [Fraction(x) for x in (c1 + c2[0]).min(axis=1)]
        exact = sum(x * y for x, y in zip(a, pair)) / sum(a)
        assert value == float(exact) == pytest.approx(0.0896278600988, rel=1e-12)
        # HiGHS stopped 6e-8 relative above it on the full joint LP; on the
        # restricted LP it reaches the optimum
        assert joint_lp(prob, b, tau)[0] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_disint_bary_reports_the_exact_optimum(self):
        # ``generate --seed 1 --fibers 4 --atoms 80 --measures 2 --kind
        # interval``, where HiGHS's joint LPs gave 0.00201855849945, 5.2e-8
        # relative above the optimum
        doc = generate_instance(seed=1, n_fibers=4, n_atoms=80, n_measures=2, kind="interval")
        inst = parse_instance(doc)
        inputs = [inst.measure(name) for name in sorted(inst.measures)]
        prob = BarycenterProblem(inputs, [0.5, 0.5], DisintConfig(2.0, 2.0), inst.costs)
        res = disint_barycenter(prob)
        assert res.value == pytest.approx(0.00201855839497, rel=1e-12)
        assert objective(prob, res.minimizer) == pytest.approx(res.value, rel=1e-12)

    def test_pair_cost_blocks_match_the_full_minimum(self, rng, monkeypatch):
        c1, c2 = rng.random((7, 5)), rng.random((4, 5))
        want = (c1[:, None, :] + c2[None, :, :]).min(axis=2)
        # blocks of one row, of two rows (the last one short), and one block
        for block in (1, 40, 10**6):
            monkeypatch.setattr(barycenter, "_PAIR_BLOCK", block)
            assert barycenter._pair_cost(c1, c2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["interval", "square"])
    def test_certificate_bound_is_no_worse_than_joint_lp_betas(self, rng, kind):
        ms, _ = random_fibered_instance(rng, 2, 3, 5)
        costs = {b: metric_cost(rng, 5, kind) for b in ms[0].base_ids}
        prob = BarycenterProblem(ms, [0.3, 0.7], DisintConfig(1.0, 3.0), costs)
        res = disint_barycenter(prob)
        cert, _ = _certificate_at(prob, res.minimizer)
        highs_betas = {
            b: joint_lp(prob, b, prob.lambdas * cert.zeta[:, i])[2]
            for i, b in enumerate(prob.base_ids)
        }
        lp_cert = extract_certificate(prob, cert.zeta, highs_betas)
        lp_bound = eval_dual(lp_cert, prob)
        assert eval_dual(cert, prob) >= lp_bound - 1e-12 * abs(lp_bound)


def line_instance(K, p, tied, subset, tiny, seed):
    """A one-fiber K-input problem on four sorted points of the line, with random tau."""
    rng = np.random.default_rng(seed)
    # a grid of quarters makes coordinates tie
    pts = np.sort(rng.integers(0, 4, 4) / 4.0 if tied else rng.random(4))
    return _fiber_instance(rng, K, line_cost(pts), p, subset, tiny)


def _fiber_instance(rng, K, cost, p, subset, tiny):
    """K inputs of one to three atoms on cost's points, a support subset or all, and random tau."""
    n = cost.n
    mus = []
    for _ in range(K):
        m = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(m))
        if tiny and m > 1:
            w[rng.integers(m)] = 1e-300
        mus.append(DiscreteMeasure(rng.choice(n, size=m, replace=False), w))
    support = np.flatnonzero(rng.random(n) < 0.5) if subset else None
    if support is not None and support.size == 0:
        support = None
    prob = classical_problem(mus, cost, rng.dirichlet(np.ones(K)), p, support=support)
    return prob, prob.lambdas * rng.uniform(0.1, 2.0, size=K)


class TestNorthWestCorner:
    """Fiber LPs of three or more inputs by the multi-marginal north-west corner."""

    @given(
        st.sampled_from([3, 4]),
        st.sampled_from([1.0, 2.0]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_tuple_lp(self, K, p, tied, subset, tiny, seed):
        prob, tau = line_instance(K, p, tied, subset, tiny, seed)
        b = prob.base_ids[0]
        with mock.patch.object(scipy.optimize, "linprog", wraps=scipy.optimize.linprog) as spy:
            value, w, betas = fiber_barycenter_lp(prob, b, tau)
        if spy.called:
            # the certificate failed: the answer is HiGHS's
            want = joint_lp(prob, b, tau)
            assert value == want[0] and w.tobytes() == want[1].tobytes()
            return
        fibers = [mk.fiber(b) for mk in prob.inputs]
        c = [t * blk for t, blk in zip(tau, prob.blocks[b])]
        exact = tuple_lp_value(c, [f.weights for f in fibers])
        assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)
        highs_value = joint_lp(prob, b, tau)[0]
        assert value <= highs_value + 1e-9 * abs(highs_value) + 1e-12
        # the returned w is a minimizer: the transports from the inputs to it
        # cost the returned value
        target = DiscreteMeasure(prob.support[b], w)
        at_w = math.fsum(
            t * solve_ot(f, target, prob.costs[b], p).value_p for t, f in zip(tau, fibers)
        )
        assert at_w == pytest.approx(value, rel=1e-12, abs=1e-300)
        # the betas are joint-LP duals: with alpha_k their c-transforms, the
        # dual value is the returned value
        scale = K * max(float(ck.max()) for ck in c)
        assert sum(betas).min() >= -NW_SLACK_ULPS * math.ulp(scale)
        alphas = [(ck - bk[None, :]).min(axis=1) for ck, bk in zip(c, betas)]
        dual = math.fsum(x for f, a in zip(fibers, alphas) for x in f.weights * a)
        assert dual == pytest.approx(value, rel=1e-12, abs=1e-15)

    def test_square_costs_fall_back_to_highs(self, rng, highs_calls):
        # on 2-d costs the north-west corner is rarely optimal; where its
        # certificate fails, the oracle answers by the joint LP
        declined = 0
        for _ in range(20):
            ms, _ = random_fibered_instance(rng, 3, 1, 5, full_support=True)
            prob = BarycenterProblem(ms, [0.2, 0.3, 0.5], DisintConfig(2.0, 2.0),
                                {"w1": metric_cost(rng, 5, "square")})
            highs_calls.clear()
            value, w, betas = fiber_barycenter_lp(prob, "w1", prob.lambdas)
            if not highs_calls:
                continue
            declined += 1
            want_value, want_w, want_betas = joint_lp(prob, "w1", prob.lambdas)
            assert value == want_value and w.tobytes() == want_w.tobytes()
            assert all(x.tobytes() == y.tobytes() for x, y in zip(betas, want_betas))
        assert declined > 10


def _tuple_lp_fiber(prob, b, tau):
    """The fiber LP's value by the exact tuple-LP oracle."""
    blocks = [t * blk for t, blk in zip(tau, prob.blocks[b])]
    return tuple_lp_value(blocks, [mk.fiber(b).weights for mk in prob.inputs])


class TestOracleOnSquareCosts:
    """The fiber oracle against the tuple LP where HiGHS answers: 2-d costs."""

    def test_matches_the_tuple_lp(self, rng, highs_calls):
        answered = 0
        for K, atoms in [(3, 4)] * 5 + [(4, 3)] * 5:
            ms, _ = random_fibered_instance(rng, K, 1, atoms, full_support=True)
            prob = BarycenterProblem(ms, rng.dirichlet(np.ones(K)), DisintConfig(2.0, 2.0),
                                {"w1": metric_cost(rng, atoms, "square")})
            tau = prob.lambdas * rng.uniform(0.1, 2.0, size=K)
            highs_calls.clear()
            value = fiber_barycenter_lp(prob, "w1", tau)[0]
            answered += bool(highs_calls)
            assert value == pytest.approx(float(_tuple_lp_fiber(prob, "w1", tau)), rel=1e-9, abs=0.0)
        # on 2-d costs the north-west corner seldom proves itself optimal, so
        # HiGHS answers most of the ten
        assert answered > 5

    @pytest.mark.parametrize("kind", ["interval", "square"])
    def test_disintegrated_q_equals_p_fiber_by_fiber(self, kind, rng):
        ms, _ = random_fibered_instance(rng, 3, 2, 3, full_support=True)
        costs = {b: metric_cost(rng, 3, kind) for b in ms[0].base_ids}
        prob = BarycenterProblem(ms, [0.2, 0.3, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        want = sum(
            Fraction(s) * _tuple_lp_fiber(prob, b, prob.lambdas)
            for s, b in zip(prob.sigma, prob.base_ids)
        )
        assert res.value == pytest.approx(float(want), rel=1e-9, abs=0.0)


def priced_instance(K, kind, p, subset, tiny, seed):
    """A one-fiber K-input problem on four points of the line or the square, with random tau."""
    rng = np.random.default_rng(seed)
    return _fiber_instance(rng, K, metric_cost(rng, 4, kind), p, subset, tiny)


class TestPricedJointLP:
    """HiGHS's restricted fiber LP, grown by pricing until no column prices below the pivot rule."""

    @given(
        st.sampled_from([3, 4]),
        st.sampled_from(["interval", "square"]),
        st.sampled_from([1.0, 2.0]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # HiGHS stops with a w column priced at -5.4e-8, inside its own tolerance
    @example(3, "interval", 2.0, False, False, 2997)
    @settings(max_examples=60, deadline=None)
    def test_priced_lp_is_the_fiber_lp(self, K, kind, p, subset, tiny, seed):
        prob, tau = priced_instance(K, kind, p, subset, tiny, seed)
        b = prob.base_ids[0]
        solved = []

        def spy(c, eq, ub=None):
            res = ot.highs(c, eq, ub)
            solved.append((eq, res))
            return res

        with mock.patch.object(barycenter, "highs", spy):
            value, w, betas = joint_lp(prob, b, tau)
        fibers = [mk.fiber(b) for mk in prob.inputs]
        c = [t * blk for t, blk in zip(tau, prob.blocks[b])]
        n = c[0].shape[1]
        sizes = [len(f) for f in fibers]
        first = np.cumsum(sizes) - sizes
        # the last solve's duals: the alphas, and the link duals, which are
        # the betas
        (rows, cols, data, _), res = solved[-1]
        y = res.eqlin.marginals
        alphas = np.split(y[: sum(sizes)], first[1:])
        for beta, link in zip(betas, np.split(y[sum(sizes):], K)):
            assert beta.tobytes() == link.tobytes()
        reduced = [ck - ak[:, None] - bk[None, :] for ck, ak, bk in zip(c, alphas, betas)]
        # pricing leaves no coupling column outside the last LP below the
        # pivot rule
        tol = OPT_TOL * max(float(np.abs(ck).max()) for ck in c)
        outside = [np.ones(ck.shape, dtype=bool) for ck in c]
        marginal, link = {}, {}
        for r, j, x in zip(rows.tolist(), cols.tolist(), data.tolist()):
            if r < sum(sizes):
                marginal[j] = r
            elif x > 0:
                link[j] = r - sum(sizes)
        for j, r in marginal.items():
            k = link[j] // n
            outside[k][r - first[k], link[j] % n] = False
        for rk, out in zip(reduced, outside):
            assert rk[out].min(initial=0.0) >= -tol
        # HiGHS stops once its own columns, w's among them, price above its
        # absolute dual tolerance of 1e-7 (the full LP does too); they meet
        # the pivot rule but for that
        slack = max(0.0, -min(float(rk.min()) for rk in reduced), -float(sum(betas).min()))
        assert slack <= 1e-7
        fiber_lp = float(tuple_lp_value(c, [f.weights for f in fibers]))
        # HiGHS may also drop or misplace the 1e-300 masses of the inputs
        # and of w (the full LP does too); moving them anywhere costs at
        # most their mass times the largest cost, up to the rounding of that
        # bound
        w_tiny = float(w[w < 1e-200].sum())
        tiny_cost = (1.0 + 1e-9) * math.fsum(
            float(ck.max()) * (float(f.weights[f.weights < 1e-200].sum()) + w_tiny)
            for ck, f in zip(c, fibers)
        )
        # by weak duality the optimum lies at most slack below the dual
        # value on each input's mass and on w's
        assert value == pytest.approx(fiber_lp, rel=1e-9, abs=tiny_cost + (K + 1) * slack)
        # the returned w is a minimizer: the transports from the inputs to it
        # cost the returned value
        target = DiscreteMeasure(prob.support[b], w)
        at_w = math.fsum(
            t * solve_ot(f, target, prob.costs[b], p).value_p for t, f in zip(tau, fibers)
        )
        assert at_w == pytest.approx(value, rel=1e-9, abs=tiny_cost + (K + 1) * slack)

    @pytest.mark.parametrize("args", [
        pytest.param((3, "interval", 2.0, False, False, 2997), id="stops_early",
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                         "ROADMAP item 3: HiGHS stops with a w column priced at -5.4e-8, "
                         "inside its own tolerance, and reports 2.8e-8 above the optimum"))),
        pytest.param((3, "interval", 1.0, False, True, 411877), id="tiny_atoms",
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                         "ROADMAP item 1: HiGHS's absolute tolerances drop the 1e-300 input "
                         "atoms that carry the whole cost: 0.0 where the tuple LP gives 2.67e-301"))),
    ])
    def test_value_is_the_tuple_lp_value(self, args):
        prob, tau = priced_instance(*args)
        b = prob.base_ids[0]
        want = float(_tuple_lp_fiber(prob, b, tau))
        # abs=0, so that 0.0 cannot pass on the default absolute slack
        assert joint_lp(prob, b, tau)[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def grid_search_oracle(prob, steps=32):
    """Exhaustive minimum over per-fiber simplex grids of the given pitch."""
    p, q = prob.config.p, prob.config.q
    r = q / p
    base_ids = list(prob.base_ids)
    grids = {b: simplex_grid(prob.support[b].size, steps) for b in base_ids}
    # per (input, fiber, grid candidate) p-th power transport cost
    f = {}
    for k, mk in enumerate(prob.inputs):
        for b in base_ids:
            fb = mk.fiber(b)
            cost = prob.costs[b]
            sub = cost.submatrix(fb.point_ids, prob.support[b])
            cp = sub if p == 1.0 else sub**p
            f[(k, b)] = np.array(
                [transport(cp, fb.weights, w)[0] for w in grids[b]]
            )
    # every combination of grid points, fiber i varying along axis i
    total = 0.0
    for k in range(prob.K):
        vals = [
            f[(k, b)].reshape([-1 if j == i else 1 for j in range(len(base_ids))])
            for i, b in enumerate(base_ids)
        ]
        if math.isinf(r):
            nk = functools.reduce(np.maximum, vals)
        else:
            nk = sum(s * v**r for s, v in zip(prob.sigma, vals)) ** (1.0 / r)
        total = total + float(prob.lambdas[k]) * nk
    return float(np.min(total))


class TestConvexityAndSymmetry:
    def test_midpoint_convexity_in_weights(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 4, full_support=True)
        for q in (2.0, 4.0, math.inf):
            prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, q), costs)
            for _ in range(10):
                wa = {b: rng.dirichlet(np.ones(4)) for b in prob.base_ids}
                wb = {b: rng.dirichlet(np.ones(4)) for b in prob.base_ids}
                def measure(wmap):
                    return FiberedMeasure(
                        prob.base_ids,
                        prob.sigma,
                        {
                            b: DiscreteMeasure(prob.support[b], wmap[b])
                            for b in prob.base_ids
                        },
                    )
                mid = {b: (wa[b] + wb[b]) / 2.0 for b in prob.base_ids}
                fmid = objective(prob, measure(mid))
                favg = 0.5 * objective(prob, measure(wa)) + 0.5 * objective(prob, measure(wb))
                assert fmid <= favg + 1e-9

    def test_exchangeable_inputs_permutation_invariant(self, rng):
        ms, costs = random_fibered_instance(rng, 3, 2, 3)
        cfg = DisintConfig(2.0, 2.0)
        lam = [1 / 3, 1 / 3, 1 / 3]
        v1 = disint_barycenter(BarycenterProblem(ms, lam, cfg, costs)).value
        v2 = disint_barycenter(BarycenterProblem(ms[::-1], lam, cfg, costs)).value
        assert v1 == pytest.approx(v2, abs=1e-9)


class TestProjectSimplex:
    def test_projects_to_simplex(self, rng):
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(1, 8))) * 3.0
            w = project_simplex(v)
            assert w.min() >= 0.0
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_fixed_point_on_simplex(self, rng):
        w0 = rng.dirichlet(np.ones(5))
        assert np.allclose(project_simplex(w0), w0, atol=1e-12)

    def test_matches_quadratic_program(self, rng):
        # tiny brute check against a dense grid
        v = np.array([0.9, -0.3, 0.5])
        w = project_simplex(v)
        best = None
        for g in simplex_grid(3, 100):
            d = float(np.sum((g - v) ** 2))
            if best is None or d < best[0]:
                best = (d, g)
        assert float(np.sum((w - v) ** 2)) <= best[0] + 1e-4


class TestUniquenessProbe:
    def test_identical_inputs_unique(self, rng):
        (m, _), costs = random_fibered_instance(rng, 2, 2, 3)
        prob = BarycenterProblem([m, m], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        probe = uniqueness_probe(prob, res, trials=6, radius=1e-9, seed=1)
        assert not probe.witness
        assert probe.max_pairwise_distance <= 1e-6

    def test_input_off_the_support_is_not_a_candidate(self, monkeypatch):
        # the support holds the first input's point, not the second's
        prob = classical_problem([dirac(0), dirac(2)], line_cost([0.0, 1.0, 2.0]), [0.5, 0.5],
                                 p=2.0, support=[0, 1])
        res = classical_barycenter(prob)
        seen = []
        monkeypatch.setattr(barycenter, "objective", lambda problem, c: seen.append(c) or 1.0)
        probe = uniqueness_probe(prob, res, trials=0, radius=0.0)
        assert seen == [res.minimizer, prob.inputs[0]]
        assert probe.n_candidates == 2

    def test_interval_pair_nonuniqueness_witness(self):
        inst = interval_pair(20)
        prob = inst.problem()
        res = classical_barycenter(prob)
        probe = uniqueness_probe(prob, res, trials=4, radius=1e-9, seed=0)
        assert probe.witness
        # nu0 and nu1 are both minimizers at distance exactly 3
        assert probe.max_pairwise_distance == pytest.approx(3.0, abs=1e-9)

    def test_interpolant_restarts_agree(self):
        # unique minimizer: two shifted uniform grids, support includes the
        # midpoint grid; all restarts must land on the same measure
        n = 20
        g0 = (np.arange(n) + 0.5) / n
        g1 = g0 + 0.5
        gmid = g0 + 0.25
        pts = np.concatenate([g0, g1, gmid])
        cost = line_cost(pts)
        mu0 = DiscreteMeasure(np.arange(n), np.full(n, 1.0 / n))
        mu1 = DiscreteMeasure(np.arange(n, 2 * n), np.full(n, 1.0 / n))
        prob = classical_problem([mu0, mu1], cost, [0.5, 0.5], p=2.0)
        res = classical_barycenter(prob)
        probe = uniqueness_probe(prob, res, trials=6, radius=1e-9, seed=3)
        assert probe.max_pairwise_distance <= 1e-4
        assert not probe.witness

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_lp_support_trials_solve_only_the_weights(self, rng, monkeypatch, q):
        ms, costs = random_fibered_instance(rng, 2, 2, 5)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, q), costs)
        # the support subset the trial draws, and the full solve on it
        draws = np.random.default_rng(7)
        keep = {b: draws.random(prob.support[b].size) < 0.5 for b in prob.base_ids}
        sub = {b: prob.support[b][k] if k.any() else prob.support[b] for b, k in keep.items()}
        full = disint_barycenter(BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, q), costs, sub))

        def no_full_solve(*args, **kwargs):
            raise AssertionError("a support trial ran a full barycenter solve")

        monkeypatch.setattr(barycenter, "disint_barycenter", no_full_solve)
        trial_rng = np.random.default_rng(7)
        got = barycenter._resolve(prob, trial_rng, 0.1, "support", 10, 1e-6)
        assert trial_rng.random() == draws.random()
        for b in prob.base_ids:
            assert got.fiber(b).point_ids.tolist() == full.minimizer.fiber(b).point_ids.tolist()
            assert got.fiber(b).weights.tobytes() == full.minimizer.fiber(b).weights.tobytes()

    @pytest.mark.parametrize("q, values, distance", [
        (2.0, ["0x1.eb96c52cce8e4p-8"] * 3, "0x0.0p+0"),
        (math.inf, ["0x1.0e5aee0e09db3p-7"] * 3, "0x1.5b37aaa728f7bp-4"),
        (4.0, ["0x1.0c9e50de08a8cp-7", "0x1.0db40418f023fp-7", "0x1.0a3766da6ab9ep-7",
               "0x1.18c2d75ecde81p-7"], "0x1.6d87ebc0d7113p-4"),
    ])
    def test_probe_output_is_pinned(self, q, values, distance):
        # tilt and support trials at q = 2 and q = inf, random-start and
        # support trials at q = 4: each re-solve mode keeps its output bit for bit
        inst = parse_instance(generate_instance(seed=1, n_fibers=2, n_atoms=6, n_measures=2, kind="interval"))
        inputs = [inst.measure(name) for name in sorted(inst.measures)]
        prob = BarycenterProblem(inputs, [0.4, 0.6], DisintConfig(2.0, q), inst.costs)
        res = disint_barycenter(prob, max_iter=30)
        probe = uniqueness_probe(prob, res, trials=4, radius=0.1, seed=5, max_iter=30)
        assert [v.hex() for v in probe.values] == values
        assert probe.max_pairwise_distance.hex() == distance

    def test_shared_fiber_q_inf_witness_is_exact(self, monkeypatch):
        def no_subgradient(*args, **kwargs):
            raise AssertionError("the q = inf probe ran the subgradient solver")

        monkeypatch.setattr(barycenter, "_subgradient_barycenter", no_subgradient)
        prob = shared_fiber_nonuniqueness().problem()
        res = disint_barycenter(prob)
        probe = uniqueness_probe(prob, res, trials=4, radius=1e-6, seed=0)
        # every kept minimizer attains the optimum 1/4, not a near-optimal value
        assert all(v == pytest.approx(0.25, abs=1e-9) for v in probe.values)
        assert probe.n_candidates >= 2
        assert probe.witness
        assert probe.max_pairwise_distance >= 0.25


def tie_problem(seed):
    """The two-input, two-fiber interval instance of ``generate --atoms 12`` at p = q = 2, equal weights."""
    inst = parse_instance(generate_instance(seed=seed, n_fibers=2, n_atoms=12, kind="interval"))
    inputs = [inst.measure(name) for name in sorted(inst.measures)]
    return BarycenterProblem(inputs, [0.5, 0.5], DisintConfig(2.0, 2.0), inst.costs)


def tied_selections(prob):
    """Two minimizers from the same optimal pair-cost plans of every fiber.

    Each positive cell (i, j) is pushed through the first and, in the
    second, the last support point s at which c_1[i, s] + c_2[j, s] is
    minimal, with c_k = lambda_k times the k-th cost block.
    """
    first, last = {}, {}
    for b in prob.base_ids:
        c1, c2 = (lam * blk for lam, blk in zip(prob.lambdas, prob.blocks[b]))
        a = [mk.fiber(b).weights for mk in prob.inputs]
        gamma = ot.exact_transport(barycenter._pair_cost(c1, c2), *a)[1]
        first[b], last[b] = np.zeros(c1.shape[1]), np.zeros(c1.shape[1])
        for i, j in zip(*np.nonzero(gamma)):
            ties = np.flatnonzero(c1[i] + c2[j] == (c1[i] + c2[j]).min())
            first[b][ties[0]] += gamma[i, j]
            last[b][ties[-1]] += gamma[i, j]
    return barycenter._assemble(prob, first), barycenter._assemble(prob, last)


class TestTieWitness:
    """Exact argmin ties of the two-input fiber LPs give distinct minimizers of equal value."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_selections_are_distinct_minimizers(self, seed):
        prob = tie_problem(seed)
        lo, hi = tied_selections(prob)
        assert objective(prob, hi) == pytest.approx(objective(prob, lo), rel=1e-12, abs=0.0)
        assert scrmk(lo, hi, prob.config, prob.costs) > PROBE_DIST_TOL

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 19: the probe's symmetric tilts keep every tie, and its support "
        "trials leave the optimal face, so it reports witness false at distance 0"))
    @pytest.mark.parametrize("seed", range(4))
    def test_probe_finds_the_tie(self, seed):
        prob = tie_problem(seed)
        res = disint_barycenter(prob)
        assert uniqueness_probe(prob, res, trials=40, radius=PROBE_RADIUS, seed=seed).witness
