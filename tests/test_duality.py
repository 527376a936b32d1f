import importlib
import math
import pkgutil
import sys
import types

import numpy as np
import pytest
from scipy.optimize import linprog

import disot
from disot import duality, ot
from disot.barycenter import (
    classical_barycenter,
    disint_barycenter,
    fiber_barycenter_lp,
    make_problem,
    objective,
)
from disot.duality import (
    DualCertificate,
    duality_gap,
    eval_dual,
    extract_certificate,
    validate_certificate,
)
from disot.errors import NotSolved, ShapeMismatch
from disot.instances import interval_pair
from disot.measures import DiscreteMeasure, FiberedMeasure, GroundCost, dirac
from disot.metric import DisintConfig
from disot.ot import c_transform

from conftest import random_fibered_instance


def random_feasible_certificate(prob, rng, scale=1.0):
    """zeta = 1 (feasible for every conjugate exponent), xi summing to zero."""
    K = prob.K
    zeta = np.ones((K, len(prob.base_ids)))
    xi = [dict() for _ in range(K)]
    for b in prob.base_ids:
        s = prob.support[b].size
        acc = np.zeros(s)
        for k in range(K - 1):
            xi[k][b] = rng.normal(size=s) * scale
            acc += xi[k][b]
        xi[K - 1][b] = -acc
    return DualCertificate(base_ids=prob.base_ids, zeta=zeta, xi=tuple(xi))


class TestValidate:
    def test_plus_minus_pair_is_valid(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 4, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        f = {b: rng.normal(size=prob.support[b].size) for b in prob.base_ids}
        cert = DualCertificate(
            base_ids=prob.base_ids,
            zeta=np.ones((2, 2)),
            xi=({b: f[b] for b in prob.base_ids}, {b: -f[b] for b in prob.base_ids}),
        )
        assert validate_certificate(cert, prob).ok

    def test_sum_violation_located(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        cert = random_feasible_certificate(prob, rng)
        b0 = prob.base_ids[0]
        bad_xi = dict(cert.xi[0])
        bumped = bad_xi[b0].copy()
        bumped[1] += 0.1
        bad_xi[b0] = bumped
        bad = DualCertificate(prob.base_ids, cert.zeta, (bad_xi, cert.xi[1]))
        rep = validate_certificate(bad, prob)
        assert not rep.ok
        v = rep.worst("sum")
        assert v is not None
        assert v.location[0] == b0
        assert v.magnitude == pytest.approx(0.1, abs=1e-12)

    def test_norm_violation(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        cert = random_feasible_certificate(prob, rng)
        rep = validate_certificate(
            DualCertificate(prob.base_ids, cert.zeta * 1.5, cert.xi), prob
        )
        assert any(v.kind == "norm" for v in rep.violations)

    def test_positivity_violation(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        cert = random_feasible_certificate(prob, rng)
        zeta = cert.zeta.copy()
        zeta[0, 0] = 0.0
        rep = validate_certificate(DualCertificate(prob.base_ids, zeta, cert.xi), prob)
        assert any(v.kind == "positivity" for v in rep.violations)

    def test_shape_mismatch(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        cert = random_feasible_certificate(prob, rng)
        short = {b: v[:-1] for b, v in cert.xi[0].items()}
        with pytest.raises(ShapeMismatch):
            validate_certificate(DualCertificate(prob.base_ids, cert.zeta, (short, cert.xi[1])), prob)


class TestEvalDual:
    def test_zero_potentials_give_zero(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 4, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        zero = DualCertificate(
            base_ids=prob.base_ids,
            zeta=np.ones((2, 2)),
            xi=tuple({b: np.zeros(prob.support[b].size) for b in prob.base_ids} for _ in range(2)),
        )
        assert validate_certificate(zero, prob).ok
        assert eval_dual(zero, prob) == 0.0

    def test_interval_pair_explicit_certificate(self):
        inst = interval_pair(50)
        prob = inst.problem()
        cert = inst.explicit_certificate(prob)
        assert validate_certificate(cert, prob).ok
        assert eval_dual(cert, prob) == pytest.approx(1.5, abs=0.02)

    def test_weak_duality_for_random_certificates(self, rng):
        violations = 0
        for _ in range(20):
            K = int(rng.integers(2, 4))
            ms, costs = random_fibered_instance(rng, K, 2, 3, full_support=True)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            q = float(rng.choice([p, 2 * p, math.inf]))
            lam = rng.dirichlet(np.ones(K))
            prob = make_problem(ms, lam, DisintConfig(p, q), costs)
            cert = random_feasible_certificate(prob, rng)
            assert validate_certificate(cert, prob).ok
            dual = eval_dual(cert, prob)
            for cand in ms:
                if dual > objective(prob, cand) + 1e-9:
                    violations += 1
        assert violations == 0

    def test_recentering_leaves_value_unchanged(self, rng):
        # shift each xi_k by its value at the fiber's first support point; the
        # zeta-weighted shifts cancel across k, so feasibility and the dual
        # value are both preserved
        ms, costs = random_fibered_instance(rng, 3, 2, 4, full_support=True)
        prob = make_problem(ms, [0.3, 0.3, 0.4], DisintConfig(2.0, 2.0), costs)
        cert = random_feasible_certificate(prob, rng)
        before = eval_dual(cert, prob)
        shifted = []
        for k in range(prob.K):
            shifted.append({b: cert.xi[k][b] - cert.xi[k][b][0] for b in prob.base_ids})
        recentered = DualCertificate(prob.base_ids, cert.zeta, tuple(shifted))
        assert validate_certificate(recentered, prob).ok
        assert eval_dual(recentered, prob) == pytest.approx(before, abs=1e-9)
        for k in range(prob.K):
            for b in prob.base_ids:
                assert recentered.xi[k][b][0] == 0.0

    def test_double_transform_pass_never_decreases_dual(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 4, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        for _ in range(10):
            cert = random_feasible_certificate(prob, rng)
            before = eval_dual(cert, prob)
            new_xi = [dict(), dict()]
            for b in prob.base_ids:
                cost = prob.costs[b]
                sup = prob.support[b]
                lam = float(prob.lambdas[0])
                inner = c_transform(cert.xi[0][b], lam, 2.0, cost, domain=sup)
                new_xi[0][b] = c_transform(inner, lam, 2.0, cost)[sup]
                new_xi[1][b] = -(cert.zeta[0, 0] * new_xi[0][b]) / cert.zeta[1, 0]
            tightened = DualCertificate(prob.base_ids, cert.zeta, tuple(new_xi))
            assert validate_certificate(tightened, prob).ok
            assert eval_dual(tightened, prob) >= before - 1e-12


class TestExtract:
    def test_identical_inputs_zero_gap(self, rng):
        (m, _), costs = random_fibered_instance(rng, 2, 2, 3)
        prob = make_problem([m, m], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        cert = extract_certificate(prob, res)
        report = duality_gap(prob, res, cert)
        assert report.primal == pytest.approx(0.0, abs=1e-12)
        assert report.certified
        assert abs(report.gap) <= 1e-9

    def test_random_q_equals_p_closes_gap(self, rng):
        for _ in range(8):
            K = 3
            ms, costs = random_fibered_instance(rng, K, int(rng.integers(2, 4)), 6)
            lam = rng.dirichlet(np.ones(K))
            prob = make_problem(ms, lam, DisintConfig(2.0, 2.0), costs)
            res = disint_barycenter(prob)
            cert = extract_certificate(prob, res)
            assert np.all(cert.zeta == 1.0)
            report = duality_gap(prob, res, cert)
            assert report.certified
            assert report.gap <= 1e-7
            assert report.gap >= -1e-9

    def test_interval_pair_extraction(self):
        inst = interval_pair(50)
        prob = inst.problem()
        res = classical_barycenter(prob)
        cert = extract_certificate(prob, res)
        report = duality_gap(prob, res, cert)
        assert report.dual == pytest.approx(1.5, abs=0.02)
        assert report.certified

    def test_not_solved(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        with pytest.raises(NotSolved):
            extract_certificate(prob, None)

    def test_q_inf_certificate_matches_minimax_value(self):
        # worked two-fiber instance: the binding fiber pins the value at 1/4
        # and the multiplier weights must concentrate there
        grid = np.linspace(0.0, 1.0, 5)
        cost = GroundCost(np.abs(grid[:, None] - grid[None, :]))
        base = ["w1", "w2"]
        m1 = FiberedMeasure(base, [0.5, 0.5], {"w1": dirac(0), "w2": dirac(0)})
        m2 = FiberedMeasure(base, [0.5, 0.5], {"w1": dirac(0), "w2": dirac(4)})
        prob = make_problem([m1, m2], [0.5, 0.5], DisintConfig(2.0, math.inf), {b: cost for b in base})
        res = disint_barycenter(prob)
        cert = extract_certificate(prob, res)
        assert validate_certificate(cert, prob).ok
        dual = eval_dual(cert, prob)
        assert dual == pytest.approx(0.25, abs=1e-9)
        # mass concentrates on the second (binding) fiber
        assert cert.zeta[0, 1] > cert.zeta[0, 0]

    def test_q_between_certificate_is_feasible_and_sandwiched(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob)
        cert = extract_certificate(prob, res)
        assert validate_certificate(cert, prob).ok
        report = duality_gap(prob, res, cert)
        assert -1e-9 <= report.gap <= 1e-3 * (1.0 + abs(report.primal))


class TestGapReport:
    def test_zero_certificate_gives_primal_gap(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        zero = DualCertificate(
            base_ids=prob.base_ids,
            zeta=np.ones((2, 2)),
            xi=tuple({b: np.zeros(prob.support[b].size) for b in prob.base_ids} for _ in range(2)),
        )
        report = duality_gap(prob, res, zero)
        assert report.dual == 0.0
        assert report.gap == pytest.approx(report.primal)

    def test_invalid_certificate_not_certified(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        cert = extract_certificate(prob, res)
        broken = DualCertificate(prob.base_ids, cert.zeta * -1.0, cert.xi)
        report = duality_gap(prob, res, broken)
        assert not report.certified
        assert report.dual == -math.inf

    def test_serialization_roundtrip(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = make_problem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob)
        cert = extract_certificate(prob, res)
        clone = DualCertificate.from_dict(cert.to_dict())
        assert clone.base_ids == cert.base_ids
        assert np.allclose(clone.zeta, cert.zeta)
        assert eval_dual(clone, prob) == pytest.approx(eval_dual(cert, prob), abs=1e-15)


class TestLPLayout:
    """Row and column order of the joint and minimax LPs handed to HiGHS.

    Reordering rows leaves the optimal value unchanged but can change the
    multipliers HiGHS returns, and with them the q = inf certificates.
    """

    # variables: gamma_1 (2 x 3) | gamma_2 (3 x 3) | w (3), couplings row-major
    JOINT_A_EQ = [
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -1],
    ]
    JOINT_B_EQ = [0.25, 0.75, 0.5, 0.25, 0.25, 0, 0, 0, 0, 0, 0]

    # variables: gamma_1 | gamma_2 | w | t (2)
    MINIMAX_A_EQ = [
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0],
    ]
    MINIMAX_B_EQ = [0.25, 0.75, 0, 0, 0, 0.5, 0.25, 0.25, 0, 0, 0]
    # one epigraph row per (input, fiber): <gamma_k, d**2> - t_k <= 0
    MINIMAX_A_UB = [
        [0, 1, 4, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 4, 1, 0, 1, 4, 1, 0, 0, 0, 0, 0, -1],
    ]

    @pytest.fixture
    def problem(self):
        cost = GroundCost([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        m1 = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure([0, 1], [0.25, 0.75])})
        m2 = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure([0, 1, 2], [0.5, 0.25, 0.25])})
        return make_problem([m1, m2], [0.5, 0.5], DisintConfig(2.0, math.inf), {"w": cost})

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def spy(c, **kwargs):
            calls.append(kwargs)
            return linprog(c, **kwargs)

        monkeypatch.setattr(ot, "linprog", spy)
        return calls

    def test_joint_lp(self, problem, lp_calls):
        fibers = [mk.fiber("w") for mk in problem.inputs]
        fiber_barycenter_lp(fibers, problem.costs["w"], problem.lambdas, 2.0, problem.support["w"])
        (call,) = lp_calls
        assert np.array_equal(call["A_eq"].toarray(), self.JOINT_A_EQ)
        assert np.array_equal(call["b_eq"], self.JOINT_B_EQ)

    def test_highs_is_the_only_scipy_entry(self, problem, monkeypatch):
        from scipy.sparse import coo_matrix

        binders = set()
        for info in pkgutil.iter_modules(disot.__path__):
            mod = importlib.import_module(f"disot.{info.name}")
            for value in vars(mod).values():
                if value is linprog or value is coo_matrix or (
                    isinstance(value, types.ModuleType) and value.__name__.startswith("scipy")
                ):
                    binders.add(mod.__name__)
        assert binders == {"disot.ot"}

        callers = []

        def spy(c, **kwargs):
            callers.append(sys._getframe(2).f_code.co_name)  # the caller of ot.highs
            return linprog(c, **kwargs)

        monkeypatch.setattr(ot, "linprog", spy)
        monkeypatch.setattr(ot, "MAX_PIVOTS_PER_NODE", 0)
        monkeypatch.setattr(ot, "MAX_PIVOTS_BASE", 0)
        fibers = [mk.fiber("w") for mk in problem.inputs]
        fiber_barycenter_lp(fibers, problem.costs["w"], problem.lambdas, 2.0, problem.support["w"])
        duality._zeta_minimax(problem)
        a, b = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        ot.transport(np.array([[0.0, 1.0], [1.0, 0.0]]), a, b)
        assert callers == ["fiber_barycenter_lp", "minimax_barycenter_lp", "_transport_linprog"]

    def test_minimax_lp(self, problem, lp_calls):
        duality._zeta_minimax(problem)
        (call,) = lp_calls
        assert np.array_equal(call["A_eq"].toarray(), self.MINIMAX_A_EQ)
        assert np.array_equal(call["b_eq"], self.MINIMAX_B_EQ)
        assert np.array_equal(call["A_ub"].toarray(), self.MINIMAX_A_UB)
