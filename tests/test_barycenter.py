import functools
import itertools
import math

import numpy as np
import pytest

from disot import barycenter
from disot.barycenter import (
    classical_barycenter,
    classical_problem,
    disint_barycenter,
    make_problem,
    objective,
    project_simplex,
    uniqueness_probe,
)
from disot.duality import extract_certificate
from disot.errors import BaseMismatch, EmptySupport, FiberMismatch, SupportViolation
from disot.instances import interval_pair, shared_fiber_nonuniqueness
from disot.measures import Bundle, DiscreteMeasure, FiberedMeasure, GroundCost, dirac
from disot.metric import DisintConfig
from disot.ot import transport

from conftest import assert_same_certificate, random_fibered_instance


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
        prob = make_problem([m, m], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
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


class TestClassicalBarycenter:
    def test_identical_inputs_recover_input(self, rng):
        cost = line_cost(np.sort(rng.random(5)))
        mu = DiscreteMeasure([0, 2, 4], rng.dirichlet(np.ones(3)))
        prob = classical_problem([mu, mu], cost, [0.5, 0.5], p=2.0)
        res = classical_barycenter(prob)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.minimizer.fiber("base").almost_equal(mu, tol=1e-9)

    def test_two_diracs_meet_in_the_middle(self):
        # support {0, 1/2, 1}: grid search at step 1/64 confirms delta_{1/2}
        cost = line_cost([0.0, 0.5, 1.0])
        prob = classical_problem([dirac(0), dirac(2)], cost, [0.5, 0.5], p=2.0)
        res = classical_barycenter(prob)
        assert res.minimizer.fiber("base").as_dict() == {1: 1.0}
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
            prob = make_problem([a, b, c], [0.2, 0.5, 0.3], DisintConfig(2.0, 2.0), costs)
            res = classical_barycenter(prob)
            assert res.value == pytest.approx(objective(prob, res.minimizer), abs=1e-9)

    def test_global_optimality_on_support(self, rng):
        (a, b), costs = random_fibered_instance(rng, 2, 1, 4, full_support=True)
        prob = make_problem([a, b], [0.4, 0.6], DisintConfig(2.0, 2.0), costs)
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
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
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
        ],
    )
    def test_typed_errors(self, case, error):
        args = self._case(case)
        with pytest.raises(error):
            make_problem(config=DisintConfig(1.0, 2.0), **args)

    def test_costs_become_a_dict_per_base_point(self):
        cost = line_cost([0.0, 1.0, 2.0])
        args = self._case("valid")
        bundle = Bundle(["w1", "w2"], {"w1": cost, "w2": cost})
        for table in ({"w1": cost, "w2": cost, "w3": cost}, bundle, cost):
            args["costs"] = table
            prob = make_problem(config=DisintConfig(1.0, 2.0), **args)
            assert type(prob.costs) is dict
            assert list(prob.costs) == ["w1", "w2"]
            assert all(prob.costs[b].d is cost.d for b in prob.costs)


class TestDisintBarycenter:
    def test_one_point_base_matches_classical(self, rng):
        (a, b), costs = random_fibered_instance(rng, 2, 1, 4, full_support=True)
        for q in (2.0, 4.0, math.inf):
            prob = make_problem([a, b], [0.5, 0.5], DisintConfig(2.0, q), costs)
            classical = classical_barycenter(
                make_problem([a, b], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
            )
            res = disint_barycenter(prob, max_iter=4000)
            # with one base point every q gives the same problem
            assert res.value == pytest.approx(classical.value, rel=2e-3, abs=1e-6)

    def test_decoupling_at_q_equals_p(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 3, 4)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
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
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
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
            prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, math.inf), costs)
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
        prob = make_problem(ms, [0.3, 0.7], DisintConfig(2.0, math.inf), costs)
        plain = disint_barycenter(prob)
        start = {b: rng.dirichlet(np.ones(prob.support[b].size)) for b in prob.base_ids}
        tuned = disint_barycenter(prob, start=start, max_iter=1, tol=0.5)
        assert tuned.value == plain.value
        assert tuned.minimizer.atoms() == plain.minimizer.atoms()
        assert np.array_equal(tuned.per_k_distances, plain.per_k_distances)
        assert (tuned.certified, tuned.gap, tuned.dual_bound) == (True, 0.0, plain.value)

    def test_max_iter_flagging(self, rng, monkeypatch):
        monkeypatch.setattr(barycenter, "CERT_EVERY", 10**9)
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob, max_iter=2)
        assert not res.certified
        assert res.solver_log["max_iter_exceeded"]

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
        prob = make_problem(inputs, [0.5, 0.5], DisintConfig(2.0, 4.0), cost)
        res = disint_barycenter(prob)
        assert res.certified
        assert res.gap == 0.0 and res.value == 0.0 and res.dual_bound == 0.0
        assert res.solver_log["iterations"] == 1
        # no check ran before the stop, so the solve extracted one certificate
        assert_same_certificate(res.certificate, extract_certificate(prob, res.minimizer))

    def test_sandwich_bounds(self, rng):
        # dual certificate value <= value <= objective of any candidate
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob)
        assert res.dual_bound is not None
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
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        with pytest.raises(ValueError, match="must be"):
            disint_barycenter(prob, **settings)
        # the LP routes read neither setting
        for q in (2.0, math.inf):
            lp = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, q), costs)
            assert disint_barycenter(lp, **settings).certified


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
            prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, q), costs)
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
        v1 = disint_barycenter(make_problem(ms, lam, cfg, costs)).value
        v2 = disint_barycenter(make_problem(ms[::-1], lam, cfg, costs)).value
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
        prob = make_problem([m, m], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        probe = uniqueness_probe(prob, res, trials=6, radius=1e-9, seed=1)
        assert not probe.witness
        assert probe.max_pairwise_distance <= 1e-6

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

    def test_shared_fiber_q_inf_witness_is_exact(self, monkeypatch):
        def no_subgradient(*args, **kwargs):
            raise AssertionError("the q = inf probe ran the subgradient solver")

        monkeypatch.setattr(barycenter, "_subgradient_barycenter", no_subgradient)
        prob = shared_fiber_nonuniqueness().problem(p=2.0)
        res = disint_barycenter(prob)
        probe = uniqueness_probe(prob, res, trials=4, radius=1e-6, seed=0)
        # every kept minimizer attains the optimum 1/4, not a near-optimal value
        assert all(v == pytest.approx(0.25, abs=1e-9) for v in probe.values)
        assert probe.n_candidates >= 2
        assert probe.witness
        assert probe.max_pairwise_distance >= 0.25
