import ast
import importlib
import math
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import disot
from disot import ot
from disot.barycenter import (
    BarycenterProblem,
    _certificate_at,
    classical_barycenter,
    disint_barycenter,
    fiber_lps,
    minimax_barycenter_lp,
    objective,
)
from disot.cli import main
from disot.duality import (
    DualCertificate,
    duality_gap,
    eval_dual,
    extract_certificate,
    validate_certificate,
)
from disot.errors import ShapeMismatch
from disot.instances import generate_instance, interval_pair
from disot.io import parse_instance, save_document
from disot.measures import DiscreteMeasure, FiberedMeasure, GroundCost, dirac
from disot.metric import DisintConfig
from disot.ot import c_transform

from conftest import assert_same_certificate, joint_lp, random_fibered_instance


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
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        f = {b: rng.normal(size=prob.support[b].size) for b in prob.base_ids}
        cert = DualCertificate(
            base_ids=prob.base_ids,
            zeta=np.ones((2, 2)),
            xi=({b: f[b] for b in prob.base_ids}, {b: -f[b] for b in prob.base_ids}),
        )
        assert validate_certificate(cert, prob).ok

    def test_sum_violation_located(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
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
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        cert = random_feasible_certificate(prob, rng)
        rep = validate_certificate(
            DualCertificate(prob.base_ids, cert.zeta * 1.5, cert.xi), prob
        )
        assert any(v.kind == "norm" for v in rep.violations)

    def test_positivity_violation(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        cert = random_feasible_certificate(prob, rng)
        zeta = cert.zeta.copy()
        zeta[0, 0] = 0.0
        rep = validate_certificate(DualCertificate(prob.base_ids, zeta, cert.xi), prob)
        assert any(v.kind == "positivity" for v in rep.violations)

    def test_shape_mismatch(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        cert = random_feasible_certificate(prob, rng)
        short = {b: v[:-1] for b, v in cert.xi[0].items()}
        with pytest.raises(ShapeMismatch):
            validate_certificate(DualCertificate(prob.base_ids, cert.zeta, (short, cert.xi[1])), prob)

    def test_base_points_or_input_count_mismatch(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        cert = random_feasible_certificate(prob, rng)
        renamed = DualCertificate(("x", "y"), cert.zeta, cert.xi)
        with pytest.raises(ShapeMismatch, match="base points do not match"):
            eval_dual(renamed, prob)
        zeta = np.vstack([cert.zeta, cert.zeta[:1]])
        one_more = DualCertificate(prob.base_ids, zeta, cert.xi + cert.xi[:1])
        with pytest.raises(ShapeMismatch, match="wrong number of inputs or base points"):
            eval_dual(one_more, prob)


class TestEvalDual:
    def test_zero_potentials_give_zero(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 4, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_interval_pair_needs_an_atom(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            interval_pair(n)

    def test_weak_duality_for_random_certificates(self, rng):
        violations = 0
        for _ in range(20):
            K = int(rng.integers(2, 4))
            ms, costs = random_fibered_instance(rng, K, 2, 3, full_support=True)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            q = float(rng.choice([p, 2 * p, math.inf]))
            lam = rng.dirichlet(np.ones(K))
            prob = BarycenterProblem(ms, lam, DisintConfig(p, q), costs)
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
        prob = BarycenterProblem(ms, [0.3, 0.3, 0.4], DisintConfig(2.0, 2.0), costs)
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
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
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
        prob = BarycenterProblem([m, m], [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        cert = res.certificate
        report = duality_gap(prob, res, cert)
        assert report.primal == pytest.approx(0.0, abs=1e-12)
        assert report.certified
        assert abs(report.gap) <= 1e-9

    def test_random_q_equals_p_closes_gap(self, rng):
        for _ in range(8):
            K = 3
            ms, costs = random_fibered_instance(rng, K, int(rng.integers(2, 4)), 6)
            lam = rng.dirichlet(np.ones(K))
            prob = BarycenterProblem(ms, lam, DisintConfig(2.0, 2.0), costs)
            res = disint_barycenter(prob)
            cert = res.certificate
            assert np.all(cert.zeta == 1.0)
            report = duality_gap(prob, res, cert)
            assert report.certified
            assert report.gap <= 1e-7
            assert report.gap >= -1e-9

    def test_interval_pair_extraction(self):
        inst = interval_pair(50)
        prob = inst.problem()
        res = classical_barycenter(prob)
        cert = res.certificate
        report = duality_gap(prob, res, cert)
        assert report.dual == pytest.approx(1.5, abs=0.02)
        assert report.certified

    def test_q_inf_certificate_matches_minimax_value(self):
        # worked two-fiber instance: the binding fiber pins the value at 1/4
        # and the multiplier weights must concentrate there
        grid = np.linspace(0.0, 1.0, 5)
        cost = GroundCost(np.abs(grid[:, None] - grid[None, :]))
        base = ["w1", "w2"]
        m1 = FiberedMeasure(base, [0.5, 0.5], {"w1": dirac(0), "w2": dirac(0)})
        m2 = FiberedMeasure(base, [0.5, 0.5], {"w1": dirac(0), "w2": dirac(4)})
        prob = BarycenterProblem([m1, m2], [0.5, 0.5], DisintConfig(2.0, math.inf), {b: cost for b in base})
        res = disint_barycenter(prob)
        cert = res.certificate
        assert validate_certificate(cert, prob).ok
        dual = eval_dual(cert, prob)
        assert dual == pytest.approx(0.25, abs=1e-9)
        # mass concentrates on the second (binding) fiber
        assert cert.zeta[0, 1] > cert.zeta[0, 0]

    def test_q_between_certificate_is_feasible_and_sandwiched(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 4.0), costs)
        res = disint_barycenter(prob)
        cert = res.certificate
        assert validate_certificate(cert, prob).ok
        report = duality_gap(prob, res, cert)
        assert -1e-9 <= report.gap <= 1e-3 * (1.0 + abs(report.primal))


def square_instance():
    """``generate --seed 1 --fibers 2 --atoms 5 --kind square``."""
    return generate_instance(seed=1, n_fibers=2, n_atoms=5, kind="square")


def square_problem(q):
    inst = parse_instance(square_instance())
    inputs = [inst.measure(name) for name in sorted(inst.measures)]
    return BarycenterProblem(inputs, [0.5, 0.5], DisintConfig(2.0, q), inst.costs)


class TestSolveCertificate:
    """Each kappa = p solve extracts its certificate once, at its minimizer."""

    @pytest.mark.parametrize(
        "q, measures",
        [("2", 2), ("inf", 2), ("4", 2), ("2", 3), ("inf", 3), ("4", 3)],
        ids=["2", "inf", "4", "2-K3", "inf-K3", "4-K3"],
    )
    def test_certify_hands_highs_no_lp_twice(self, q, measures, tmp_path, capsys, highs_calls):
        path = str(tmp_path / "inst.json")
        # square_instance(), with ``measures`` inputs
        doc = generate_instance(seed=1, n_fibers=2, n_atoms=5, n_measures=measures, kind="square")
        save_document(path, doc)
        assert main(["certify", "--input", path, "--p", "2", "--q", q]) == 0
        capsys.readouterr()
        if measures == 2 and q != "inf":
            # two inputs solve every fiber LP as one transport problem
            assert highs_calls == []
            return
        if measures == 2:
            # q = inf: the minimax LP alone; its betas come from transports
            assert [c.caller for c in highs_calls] == ["minimax_barycenter_lp"]
        seen = [
            (c.c.tobytes(), c.kwargs["A_eq"].toarray().tobytes(), c.kwargs["b_eq"].tobytes())
            for c in highs_calls
        ]
        assert seen and len(set(seen)) == len(seen)

    @pytest.mark.parametrize(
        "q, max_iter", [(2.0, None), (4.0, 1), (4.0, 2), (4.0, 3), (4.0, 25), (4.0, 26)]
    )
    def test_certificate_is_a_fresh_extraction(self, q, max_iter):
        # a tolerance no check meets keeps the solve running to the cap, which
        # falls on a check (1, 25) or between two (2, 3, 26)
        prob = square_problem(q)
        if max_iter is None:
            res = disint_barycenter(prob)
        else:
            res = disint_barycenter(prob, max_iter=max_iter, tol=0.0)
            assert res.solver_log["iterations"] == max_iter
        if q == 2.0:
            # q = p: zeta = 1 and the joint-LP betas
            ones = np.ones((prob.K, len(prob.base_ids)))
            fresh = extract_certificate(prob, ones, fiber_lps(prob, ones)[2])
        else:
            fresh, _ = _certificate_at(prob, res.minimizer)
        assert_same_certificate(res.certificate, fresh)

    def test_q_inf_needs_the_minimax_zeta(self):
        prob = square_problem(math.inf)
        res = disint_barycenter(prob)
        zeta = minimax_barycenter_lp(prob)[2]
        fresh = extract_certificate(prob, zeta, fiber_lps(prob, zeta)[2])
        assert_same_certificate(res.certificate, fresh)


class TestGapReport:
    def test_zero_certificate_gives_primal_gap(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        zero = DualCertificate(
            base_ids=prob.base_ids,
            zeta=np.ones((2, 2)),
            xi=tuple({b: np.zeros(prob.support[b].size) for b in prob.base_ids} for _ in range(2)),
        )
        report = duality_gap(prob, res, zero)
        # the primal comes from the result's distances, as the objective would
        assert report.primal == objective(prob, res.minimizer)
        assert report.dual == 0.0
        assert report.gap == pytest.approx(report.primal)

    def test_invalid_certificate_not_certified(self, rng):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, 2.0), costs)
        res = disint_barycenter(prob)
        cert = res.certificate
        broken = DualCertificate(prob.base_ids, cert.zeta * -1.0, cert.xi)
        report = duality_gap(prob, res, broken)
        assert not report.certified
        assert report.dual == -math.inf

    @pytest.mark.parametrize("tol", [math.nan, -1e-3])
    def test_tol_must_be_nonnegative(self, rng, tol):
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        prob = BarycenterProblem(ms, [0.5, 0.5], DisintConfig(2.0, math.inf), costs)
        res = disint_barycenter(prob)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            duality_gap(prob, res, res.certificate, tol=tol)
        assert duality_gap(prob, res, res.certificate, tol=0.0).tol == 0.0


def _scoped_nodes(tree, scope):
    """(dotted enclosing scope, node) for every node under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        yield from _scoped_nodes(node, inner)


class TestDependencyDirection:
    """barycenter chooses each route's zeta and betas; duality builds and checks."""

    @staticmethod
    def _tree(name):
        return ast.parse((Path(disot.__file__).parent / f"{name}.py").read_text())

    def test_duality_has_no_runtime_import_of_barycenter(self):
        # imports under ``if TYPE_CHECKING:`` serve annotations only
        runtime = [
            node
            for stmt in self._tree("duality").body
            if not (isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING")
            for node in ast.walk(stmt)
        ]
        names = [a.name for n in runtime if isinstance(n, ast.Import) for a in n.names]
        names += [
            f"{n.module or ''}.{a.name}"
            for n in runtime
            if isinstance(n, ast.ImportFrom)
            for a in n.names
        ]
        assert names and not [m for m in names if "barycenter" in m.split(".")]

    def test_barycenter_imports_only_at_module_level(self):
        nested = [
            scope
            for scope, node in _scoped_nodes(self._tree("barycenter"), "barycenter")
            if isinstance(node, (ast.Import, ast.ImportFrom)) and scope != "barycenter"
        ]
        assert nested == []


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
        return BarycenterProblem([m1, m2], [0.5, 0.5], DisintConfig(2.0, math.inf), {"w": cost})

    def test_joint_lp(self, problem, highs_calls):
        joint_lp(problem, "w", problem.lambdas)
        assert highs_calls
        # each solve takes some of the full LP's coupling columns, in its
        # order, and every w column, with the full LP's rows
        full = {tuple(col): j for j, col in enumerate(np.array(self.JOINT_A_EQ).T)}
        for call in highs_calls:
            picked = [full.get(tuple(col)) for col in call.kwargs["A_eq"].toarray().T]
            assert None not in picked
            assert picked == sorted(set(picked)) and picked[-3:] == [15, 16, 17]
            assert np.array_equal(call.kwargs["b_eq"], self.JOINT_B_EQ)

    def test_highs_is_the_only_scipy_entry(self, problem, monkeypatch, highs_calls):
        # no module binds a scipy module, function or class when it is imported
        binders = set()
        for info in pkgutil.iter_modules(disot.__path__):
            mod = importlib.import_module(f"disot.{info.name}")
            for value in vars(mod).values():
                if isinstance(value, types.ModuleType):
                    origin = value.__name__
                else:
                    origin = getattr(value, "__module__", None)
                if isinstance(origin, str) and origin.split(".")[0] == "scipy":
                    binders.add(mod.__name__)
        assert binders == set()

        # and the only scipy import statements sit inside ot.highs
        sites = set()
        for path in Path(disot.__file__).parent.glob("*.py"):
            for scope, node in _scoped_nodes(ast.parse(path.read_text()), path.stem):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    sites.add(scope)
        assert sites == {"ot.highs"}

        monkeypatch.setattr(ot, "MAX_PIVOTS_PER_NODE", 0)
        monkeypatch.setattr(ot, "MAX_PIVOTS_BASE", 0)
        joint_lp(problem, "w", problem.lambdas)
        minimax_barycenter_lp(problem)
        a, b = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        ot.transport(np.array([[0.0, 1.0], [1.0, 0.0]]), a, b)
        callers = [call.caller for call in highs_calls]
        # the joint LP solves once per pricing round
        assert callers[:-2] and set(callers[:-2]) == {"_joint_lp"}
        assert callers[-2:] == ["minimax_barycenter_lp", "_transport_linprog"]

    def test_minimax_lp(self, problem, highs_calls):
        minimax_barycenter_lp(problem)
        (call,) = highs_calls
        assert np.array_equal(call.kwargs["A_eq"].toarray(), self.MINIMAX_A_EQ)
        assert np.array_equal(call.kwargs["b_eq"], self.MINIMAX_B_EQ)
        assert np.array_equal(call.kwargs["A_ub"].toarray(), self.MINIMAX_A_UB)
