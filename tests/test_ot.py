import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disot import ot
from disot.errors import (
    DegenerateInput,
    DisotError,
    InvalidGroundCost,
    LPInfeasible,
    SupportOutOfRange,
    TooLarge,
)
from disot.instances import generate_instance, tent_potential
from disot.io import parse_instance
from disot.measures import (
    DiscreteMeasure,
    FiberedMeasure,
    GroundCost,
    dirac,
    validate_ground_cost,
)
from disot.metric import DisintConfig, scrmk
from disot.ot import (
    _transport_linprog,
    brute_force_ot,
    c_transform,
    coupling_is_deterministic,
    solve_ot,
    transport,
)
from disot.tolerances import MARGINAL_TOL, OPT_TOL

from conftest import metric_cost, random_measure
from reference_transport import _northwest_corner as reference_northwest_corner
from reference_transport import reference_basis_value, reference_transport


def line_cost(points):
    pts = np.asarray(points, dtype=np.float64)
    return GroundCost(np.abs(pts[:, None] - pts[None, :]))


class TestSolveOT:
    def test_identity_transport(self):
        cost = line_cost([0.0, 1.0, 2.5])
        mu = DiscreteMeasure([0, 2], [0.3, 0.7])
        res = solve_ot(mu, mu, cost, 2.0)
        assert res.value_p == 0.0
        assert np.allclose(np.diag(res.coupling.gamma), mu.weights)

    def test_forced_coupling(self):
        # mu = delta_a, nu = (delta_a + delta_b)/2, d(a,b) = 1, p = 2 -> 1/2
        cost = line_cost([0.0, 1.0])
        res = solve_ot(dirac(0), DiscreteMeasure([0, 1], [0.5, 0.5]), cost, 2.0)
        assert res.value_p == pytest.approx(0.5, abs=1e-15)

    def test_shifted_interval_grids(self):
        # uniform 50-atom midpoint grids of [1,2] and [-2,-1]: every atom moves
        # exactly 3, so the 1-cost distance is exactly 3
        n = 50
        hi = 1.0 + (np.arange(n) + 0.5) / n
        lo = hi - 3.0
        cost = line_cost(np.concatenate([hi, lo]))
        mu = DiscreteMeasure(np.arange(n), np.full(n, 1.0 / n))
        nu = DiscreteMeasure(np.arange(n, 2 * n), np.full(n, 1.0 / n))
        res = solve_ot(mu, nu, cost, 1.0)
        assert res.value_p == pytest.approx(3.0, abs=1e-12)

    def test_two_point_quarter(self):
        cost = line_cost([0.0, 1.0])
        mu = DiscreteMeasure([0, 1], [0.5, 0.5])
        nu = DiscreteMeasure([0, 1], [0.25, 0.75])
        oracle = brute_force_ot(mu, nu, cost, 1.0)
        assert oracle == pytest.approx(0.25, abs=1e-15)
        assert solve_ot(mu, nu, cost, 1.0).value_p == pytest.approx(oracle, abs=1e-12)

    def test_errors(self):
        cost = line_cost([0.0, 1.0])
        with pytest.raises(SupportOutOfRange):
            solve_ot(dirac(5), dirac(0), cost, 1.0)
        with pytest.raises(DegenerateInput):
            solve_ot(None, dirac(0), cost, 1.0)
        with pytest.raises(ValueError):
            solve_ot(dirac(0), dirac(1), cost, 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_exponent_must_be_finite(self, p):
        cost = line_cost([0.0, 1.0])
        with pytest.raises(ValueError):
            solve_ot(dirac(0), dirac(1), cost, p)
        with pytest.raises(ValueError):
            brute_force_ot(dirac(0), dirac(1), cost, p)
        with pytest.raises(ValueError):
            c_transform(np.zeros(2), 0.5, p, cost)

    def test_overflowing_cost_power(self):
        # 1e200 is a finite cost, but its square is not: this ended in an
        # OverflowError from exact_basis_value
        cost = GroundCost([[0.0, 1e200], [1e200, 0.0]])
        nu = DiscreteMeasure([0, 1], [0.5, 0.5])
        with pytest.raises(InvalidGroundCost, match="overflows"):
            solve_ot(dirac(0), nu, cost, 2.0)
        with pytest.raises(InvalidGroundCost, match="overflows"):
            brute_force_ot(dirac(0), nu, cost, 2.0)
        assert solve_ot(dirac(0), nu, cost, 1.0).value_p == 5e199

    def test_plan_off_its_marginals_raises(self, monkeypatch):
        # a plan that misses its marginals by more than MARGINAL_TOL is
        # refused rather than reported
        solve = ot.transport

        def halved(cost, a, b, basis=None):
            value, gamma, u, v, tree = solve(cost, a, b, basis)
            return value, gamma / 2.0, u, v, tree

        monkeypatch.setattr(ot, "transport", halved)
        nu = DiscreteMeasure([0, 1], [0.5, 0.5])
        with pytest.raises(LPInfeasible, match="coupling marginals off by 0.5"):
            solve_ot(dirac(0), nu, line_cost([0.0, 1.0]), 1.0)

    def test_potentials_contract(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            cost = metric_cost(rng, n)
            mu, nu = random_measure(rng, n), random_measure(rng, n)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            res = solve_ot(mu, nu, cost, p)
            # phi pinned at the first support atom
            assert res.phi[0] == 0.0
            sub = cost.submatrix(mu.point_ids, nu.point_ids) ** p
            feas = (-res.phi[:, None] - res.psi[None, :] - sub).max()
            assert feas <= 1e-9
            dual = float(mu.weights @ -res.phi + nu.weights @ -res.psi)
            assert dual == pytest.approx(res.value_p, abs=1e-9)
            assert res.coupling.marginal_residual(mu, nu) <= 1e-9

    def test_weak_duality_random_feasible_pairs(self, rng):
        cost = metric_cost(rng, 6)
        mu, nu = random_measure(rng, 6), random_measure(rng, 6)
        res = solve_ot(mu, nu, cost, 2.0)
        sub = cost.submatrix(mu.point_ids, nu.point_ids) ** 2
        for _ in range(50):
            psi = rng.normal(size=len(nu))
            # tightest phi feasible for this psi: -phi(u) = min_v (d**p + psi)
            phi = (-sub - psi[None, :]).max(axis=1)
            value = float(mu.weights @ -phi + nu.weights @ -psi)
            assert value <= res.value_p + 1e-9

    def test_metric_axioms(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            cost = metric_cost(rng, n, "square")
            a, b, c = (random_measure(rng, n) for _ in range(3))
            p = float(rng.choice([1.0, 2.0]))
            dab = solve_ot(a, b, cost, p).mk
            dba = solve_ot(b, a, cost, p).mk
            assert dab == dba, "exact symmetry"
            dac = solve_ot(a, c, cost, p).mk
            dcb = solve_ot(c, b, cost, p).mk
            assert dab <= dac + dcb + 1e-9


class TestBruteForce:
    def test_single_atoms(self):
        cost = line_cost([0.0, 2.0])
        assert brute_force_ot(dirac(0), dirac(1), cost, 2.0) == pytest.approx(4.0)

    def test_uniform_three_is_min_over_permutations(self, rng):
        cost = metric_cost(rng, 6, "square")
        mu = DiscreteMeasure([0, 1, 2], np.full(3, 1 / 3))
        nu = DiscreteMeasure([3, 4, 5], np.full(3, 1 / 3))
        sub = cost.submatrix(mu.point_ids, nu.point_ids) ** 2
        by_hand = min(
            sum(sub[i, perm[i]] for i in range(3)) / 3.0
            for perm in itertools.permutations(range(3))
        )
        assert brute_force_ot(mu, nu, cost, 2.0) == pytest.approx(by_hand, abs=1e-15)

    def test_bounds(self, rng):
        cost = metric_cost(rng, 10)
        big = DiscreteMeasure(np.arange(5), rng.dirichlet(np.ones(5)))
        small = DiscreteMeasure(np.arange(5, 9), rng.dirichlet(np.ones(4)))
        with pytest.raises(TooLarge):
            brute_force_ot(big, small, cost, 1.0)
        u9 = DiscreteMeasure(np.arange(5), np.full(5, 0.2))
        v9 = DiscreteMeasure(np.arange(5, 10), np.full(5, 0.2))
        # 5x5 uniform-equal is within the uniform bound
        assert brute_force_ot(u9, v9, cost, 1.0) >= 0.0

    def test_agrees_with_solver(self, rng):
        for _ in range(40):
            n_pts = int(rng.integers(2, 8))
            cost = metric_cost(rng, n_pts)
            mu = random_measure(rng, n_pts, max_atoms=4)
            nu = random_measure(rng, n_pts, max_atoms=4)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            assert solve_ot(mu, nu, cost, p).value_p == pytest.approx(
                brute_force_ot(mu, nu, cost, p), abs=1e-9
            )


class TestTransportCore:
    def test_zero_weight_columns_get_duals(self):
        cost = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0]])
        value, gamma, u, v, _ = transport(cost, np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))
        assert value == pytest.approx(0.5)
        assert v.shape == (3,)
        # duals stay feasible including the empty columns
        assert (u[:, None] + v[None, :] - cost).max() <= 1e-9

    def test_mass_imbalance_guard(self):
        # weight vectors off by float noise still couple within tolerance
        a = np.array([1 / 3, 1 / 3, 1 / 3])
        b = np.array([0.2, 0.3, 0.5 + 1e-13])
        value, gamma, _, _, _ = transport(np.ones((3, 3)) - np.eye(3), a, b)
        assert abs(gamma.sum() - 1.0) <= 1e-9

    def test_float_residue_outlives_last_column(self):
        # the north-west start fills the last column while an earlier row
        # still holds float residue; it must move down, not past the column
        cost = line_cost([0.0, 1.0, 2.0])
        mu = DiscreteMeasure(
            [0, 1, 2], [0.8683020802422613, 0.13169791975773867, 6.802979012782214e-212]
        )
        nu = DiscreteMeasure(
            [0, 1, 2], [0.25498088412534, 0.49854749136840665, 0.24647162450625337]
        )
        want = brute_force_ot(mu, nu, cost, 2.0)
        assert want == pytest.approx(1.089340230120204, abs=1e-15)
        assert solve_ot(mu, nu, cost, 2.0).value_p == pytest.approx(want, abs=1e-9)

    def test_oracle_rescales_a_tiny_atom_exactly(self):
        # [1e-310, 5e-324] normalizes to [1 - 4.9e-14, 4.9e-14]; moving the
        # float mass imbalance onto the tiny atom shifted the value by 3e-5
        # relative, rescaling both marginals to mass 1 gives the exact value
        nu = DiscreteMeasure([0, 1], [1e-310, 5e-324])
        w0, w1 = (Fraction(float(x)) for x in nu.weights)
        exact = float(w1 / (w0 + w1) * Fraction(0.25))
        assert brute_force_ot(dirac(0), nu, line_cost([0.0, 0.5]), 2.0) == exact

    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.floats(-300.0, -15.0),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_tiny_last_atom_matches_oracle(self, m, n, log_tiny, on_mu, seed):
        rng = np.random.default_rng(seed)
        cost = metric_cost(rng, 4, "square" if seed % 2 else "interval")
        a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        if on_mu:
            a[-1] = 10.0**log_tiny
        else:
            b[-1] = 10.0**log_tiny
        mu, nu = DiscreteMeasure(np.arange(m), a), DiscreteMeasure(np.arange(n), b)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        want = brute_force_ot(mu, nu, cost, p)
        assert solve_ot(mu, nu, cost, p).value_p == pytest.approx(want, abs=1e-9)


def _test_cost(rng, m, n, kind):
    if kind == "euclid":
        # 2-d Euclidean points, p = 2
        x, y = rng.random((m, 2)), rng.random((n, 2))
        return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1) ** 2
    if kind == "tied":
        return rng.integers(0, 4, size=(m, n)).astype(np.float64)
    if kind == "constant":
        return np.full((m, n), 1.5)
    return rng.random((m, n))


def _test_weights(rng, size, zeros):
    w = rng.dirichlet(np.ones(size))
    if zeros:
        w[rng.random(size) < 0.5] = 0.0
        w[int(rng.integers(size))] += 0.5
        w /= w.sum()
    return w


class TestTransportReference:
    """``transport`` against the earlier engine kept in tests/reference_transport.py."""

    @given(
        st.integers(1, 14),
        st.integers(1, 14),
        st.sampled_from(["euclid", "tied", "constant", "random"]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 9, "euclid", False, True, 0)
    @example(9, 1, "tied", True, False, 1)
    @example(1, 1, "constant", False, False, 2)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal(self, m, n, kind, zeros_a, zeros_b, seed):
        rng = np.random.default_rng(seed)
        cost = _test_cost(rng, m, n, kind)
        a, b = _test_weights(rng, m, zeros_a), _test_weights(rng, n, zeros_b)
        value, gamma, u, v, basis = transport(cost, a, b)
        want_value, want_gamma, want_u, want_v, want_basis = reference_transport(cost, a, b)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        for got, want in ((gamma, want_gamma), (u, want_u), (v, want_v)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert len(basis) == len(want_basis) == m + n - 1
        assert set(basis) == set(want_basis)

    @given(
        st.integers(1, 29),
        st.integers(1, 29),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_northwest_start_bitwise_equal(self, m, n, zeros_a, zeros_b, tiny_last, seed):
        rng = np.random.default_rng(seed)
        a, b = _test_weights(rng, m, zeros_a), _test_weights(rng, n, zeros_b)
        if tiny_last:
            b[-1] = 1e-300
        gamma, basis = ot._northwest_corner(a, b)
        want_gamma, want_basis = reference_northwest_corner(a, b)
        assert gamma.tobytes() == want_gamma.tobytes()
        assert basis == want_basis


def _is_spanning_tree(basis, m, n):
    """True when the cells connect all m rows and n columns without a cycle."""
    root = list(range(m + n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in basis:
        ri, rj = find(i), find(m + j)
        if ri == rj:
            return False
        root[ri] = rj
    return len(basis) == m + n - 1


class TestRowMinimumStart:
    """The row-minimum start tree and when ``transport`` takes it."""

    @given(
        st.integers(1, 20),
        st.integers(1, 20),
        st.sampled_from(["euclid", "tied", "constant", "random"]),
        st.sampled_from(["plain", "zeros", "tiny"]),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 7, "random", "tiny", 0)
    @example(7, 1, "tied", "zeros", 1)
    @example(1, 1, "constant", "plain", 2)
    @settings(max_examples=300, deadline=None)
    def test_spanning_tree_with_marginals(self, m, n, kind, weights, seed):
        rng = np.random.default_rng(seed)
        cost = _test_cost(rng, m, n, kind)
        a, b = _test_weights(rng, m, weights == "zeros"), _test_weights(rng, n, weights == "zeros")
        if weights == "tiny":
            a[int(rng.integers(m))] = 1e-300
            b[-1] = 1e-300
            a, b = a / a.sum(), b / b.sum()
        gamma, basis = ot._row_minimum(cost, a, b)
        assert _is_spanning_tree(basis, m, n)
        assert (gamma >= 0.0).all()
        # cells outside the tree hold nothing
        off = np.ones((m, n), dtype=bool)
        off[tuple(np.array(basis).T)] = False
        assert not gamma[off].any()
        # the marginals hold to the float residue the north-west start leaves
        nw_gamma, _ = ot._northwest_corner(a, b)
        bound = abs(a.sum() - b.sum()) + (m + n) * np.finfo(np.float64).eps
        for g in (gamma, nw_gamma):
            residue = max(np.abs(g.sum(axis=1) - a).max(), np.abs(g.sum(axis=0) - b).max())
            assert residue <= bound

    @given(
        st.integers(1, 25),
        st.integers(1, 25),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_line_costs_keep_the_northwest_corner(self, m, n, p, zeros_a, zeros_b, seed):
        # the north-west corner is optimal on sorted 1-d costs: it is
        # returned as it is, and the row-minimum tree is never built
        rng = np.random.default_rng(seed)
        x, y = np.sort(rng.random(m)), np.sort(rng.random(n))
        cost = np.abs(x[:, None] - y[None, :]) ** p
        a, b = _test_weights(rng, m, zeros_a), _test_weights(rng, n, zeros_b)
        calls = []
        row_minimum = ot._row_minimum

        def spy(*args):
            calls.append(args)
            return row_minimum(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot, "_row_minimum", spy)
            _, gamma, _, _, basis = transport(cost, a, b)
        want_gamma, want_basis = ot._northwest_corner(a, b)
        assert calls == []
        assert gamma.tobytes() == want_gamma.tobytes()
        assert set(basis) == set(want_basis)

    def test_pivot_count_on_a_square_instance(self, monkeypatch):
        # 24 x 24 p = 2 problem on 2-d points: every pivot and every tree
        # build hangs one subtree, and both starts build two trees
        inst = parse_instance(generate_instance(seed=1, n_fibers=1, n_atoms=24, kind="square"))
        base = inst.base_ids[0]
        mu, nu = inst.measure("m1").fiber(base), inst.measure("m2").fiber(base)
        cost = inst.costs[base].powered_submatrix(mu.point_ids, nu.point_ids, 2.0)
        assert cost.shape == (24, 24)
        calls = []
        hang = ot._hang

        def spy(*args):
            calls.append(args[0])
            return hang(*args)

        monkeypatch.setattr(ot, "_hang", spy)
        value = transport(cost, mu.weights, nu.weights)[0]
        pivots = len(calls) - 2
        calls.clear()
        monkeypatch.setattr(ot, "_row_minimum", lambda cost, a, b: ot._northwest_corner(a, b))
        assert transport(cost, mu.weights, nu.weights)[0] == pytest.approx(value, rel=1e-12)
        northwest_pivots = len(calls) - 2
        assert pivots <= 33
        assert 2 * pivots < northwest_pivots


class TestExactBasisValueReference:
    """``exact_basis_value`` on integers against the ``Fraction`` version in tests/."""

    @given(
        st.integers(1, 14),
        st.integers(1, 14),
        st.sampled_from(["euclid", "tied", "constant", "random"]),
        st.sampled_from(["plain", "zeros", "tiny"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 9, "euclid", "tiny", False, 0)
    @example(6, 6, "tied", "zeros", True, 1)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal(self, m, n, kind, weights, linprog_basis, seed):
        rng = np.random.default_rng(seed)
        cost = _test_cost(rng, m, n, kind)
        a, b = _test_weights(rng, m, weights == "zeros"), _test_weights(rng, n, weights == "zeros")
        if weights == "tiny":
            a[int(rng.integers(m))] = 1e-300
            b[-1] = 1e-300
            a, b = a / a.sum(), b / b.sum()
        # the LP fallback's basis is the support of its solution: it need not
        # be a spanning tree
        solve = _transport_linprog if linprog_basis else transport
        basis = solve(cost, a, b)[4]
        got = ot.exact_basis_value(cost, a, b, basis)
        want = reference_basis_value(cost, a, b, basis)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_forest_with_an_empty_row(self):
        # a basis as the LP fallback can return it: row 0 carries no mass and
        # no cell, and the other cells form two components, {rows 1, 2,
        # column 0} and the path column 1 - row 3 - column 2 - row 4
        cost = np.array([
            [0.3, 0.9, 0.1],
            [0.7, 0.2, 0.6],
            [0.1, 0.4, 1 / 3],
            [0.5, 0.3, 0.9],
            [0.8, 0.6, 0.7],
        ])
        a = np.array([0.0, 0.375, 0.125, 0.25, 0.25])
        b = np.array([0.5, 0.125, 0.375])
        basis = [(1, 0), (2, 0), (3, 1), (3, 2), (4, 2)]
        got = ot.exact_basis_value(cost, a, b, basis)
        want = reference_basis_value(cost, a, b, basis)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        flows = {(1, 0): 0.375, (2, 0): 0.125, (3, 1): 0.125, (3, 2): 0.125, (4, 2): 0.25}
        exact = sum(Fraction(f) * Fraction(cost[cell]) for cell, f in flows.items())
        assert got == float(exact)


def _warm_cost(rng, kind):
    """A ground cost on four points: tied integers, mostly zero off the diagonal, or 2-d."""
    if kind == "tied":
        return _symmetric_cost(rng.integers(1, 3, size=6).astype(np.float64))
    if kind == "zero_off_diagonal":
        upper = rng.random(6)
        upper[rng.random(6) < 0.5] = 0.0
        return _symmetric_cost(upper)
    return metric_cost(rng, 4, "square")


def _warm_weights(rng, size, weights):
    w = _test_weights(rng, size, weights == "zeros")
    if weights == "tiny":
        w[int(rng.integers(size))] = 1e-300
        w /= w.sum()
    return w


def _assert_same_result(got, want):
    """Bitwise equality of two ``transport`` results, basis order included."""
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for x, y in zip(got[1:4], want[1:4]):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert got[4] == want[4]


@pytest.fixture
def warm_starts(monkeypatch):
    """(answered, dual pivots) of every warm start that ``transport`` tries."""
    starts, pivots = [], []
    dual_simplex, pivot = ot._dual_simplex, ot._pivot

    def spy(*args):
        pivots.clear()
        out = dual_simplex(*args)
        starts.append((out is not None, len(pivots)))
        return out

    monkeypatch.setattr(ot, "_dual_simplex", spy)
    monkeypatch.setattr(ot, "_pivot", lambda *args: (pivots.append(1), pivot(*args)))
    return starts


class TestWarmStart:
    """``transport(cost, a, b, basis=...)`` from an earlier optimal tree on the same cost."""

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(["tied", "zero_off_diagonal", "square"]),
        st.sampled_from(["plain", "zeros", "tiny"]),
        st.integers(0, 2**32 - 1),
    )
    @example(4, 4, "square", "tiny", 0)
    @example(3, 4, "zero_off_diagonal", "zeros", 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, m, n, kind, weights, seed):
        rng = np.random.default_rng(seed)
        ground = _warm_cost(rng, kind)
        ids_a, ids_b = np.sort(rng.permutation(4)[:m]), np.sort(rng.permutation(4)[:n])
        cost = ground.powered_submatrix(ids_a, ids_b, 2.0)
        a, b1 = _warm_weights(rng, m, "plain"), _warm_weights(rng, n, "plain")
        b2 = _warm_weights(rng, n, weights)
        tree = transport(cost, a, b1)[4]
        tol = OPT_TOL * float(cost.max())
        # transport returns an optimal north-west corner without reading the
        # tree, so the dual pivots are also checked on their own
        results = [transport(cost, a, b2, basis=tree)]
        warm = ot._dual_simplex(cost, a, b2, tree, tol, np.empty_like(cost))
        results += [] if warm is None else [warm]
        # DiscreteMeasure drops the zero atoms, which carry no mass
        mu = DiscreteMeasure(ids_a, a)
        nu = DiscreteMeasure(ids_b[b2 > 0.0], b2[b2 > 0.0])
        want = brute_force_ot(mu, nu, ground, 2.0)
        cold_exact = ot.exact_basis_value(cost, a, b2, transport(cost, a, b2)[4])
        for value, gamma, u, v, basis in results:
            assert abs(value - want) <= 1e-12 * want + tol
            assert _is_spanning_tree(basis, m, n)
            assert ot.exact_basis_value(cost, a, b2, basis) == cold_exact
            assert u[0] == 0.0
            assert (u[:, None] + v[None, :] - cost).max() <= tol
            residual = max(np.abs(gamma.sum(axis=1) - a).max(), np.abs(gamma.sum(axis=0) - b2).max())
            assert residual <= MARGINAL_TOL

    def test_square_trees_start_warm(self, warm_starts):
        # 24 x 24 2-d problems whose column weights move: nearly every
        # earlier tree is still dual feasible, and most need dual pivots
        rng = np.random.default_rng(5)
        for _ in range(20):
            cost = _test_cost(rng, 24, 24, "euclid")
            a, b = _test_weights(rng, 24, False), _test_weights(rng, 24, True)
            tree = transport(cost, a, b)[4]
            for _ in range(3):
                b = np.maximum(b + 0.02 * rng.normal(size=24), 0.0)
                b /= b.sum()
                got = transport(cost, a, b, basis=tree)
                want = transport(cost, a, b)
                assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
                assert ot.exact_basis_value(cost, a, b, got[4]) == ot.exact_basis_value(
                    cost, a, b, want[4]
                )
                tree = got[4]
        assert len(warm_starts) == 60
        assert sum(ok for ok, _ in warm_starts) >= 54
        assert sum(ok and k > 0 for ok, k in warm_starts) >= 30


class TestWarmStartFallsBack:
    """A tree the warm start cannot use leaves the result to the cold start, bit for bit."""

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(4, 12, size=2))
        cost = _test_cost(rng, m, n, "euclid")
        return cost, _test_weights(rng, m, False), _test_weights(rng, n, bool(seed % 2))

    @pytest.mark.parametrize("seed", range(20))
    def test_tree_not_dual_feasible(self, seed, warm_starts):
        cost, a, b = self._problem(seed)
        m, n = cost.shape
        # the optimal tree of another cost on the same shape
        other = _test_cost(np.random.default_rng(seed + 100), m, n, "euclid")
        tree = transport(other, a, b)[4]
        _, _, _, pot = ot._tree(tree, cost, m, n)
        tol = OPT_TOL * float(cost.max())
        assert ot._price(pot, cost, np.empty_like(cost), tol, False)[1] is not None
        warm_starts.clear()
        _assert_same_result(transport(cost, a, b, basis=tree), transport(cost, a, b))
        assert warm_starts == [(False, 0)]

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("defect", ["missing_cell", "cycle", "out_of_range"])
    def test_cells_not_a_spanning_tree(self, seed, defect, warm_starts):
        cost, a, b = self._problem(seed)
        m, n = cost.shape
        tree = list(transport(cost, a, b)[4])
        if defect == "missing_cell":
            tree.pop(int(np.random.default_rng(seed).integers(len(tree))))
        elif defect == "cycle":
            # a cell that closes a cycle in place of a tree cell off that
            # cycle, which cuts the tree in two
            _, parent, depth, _ = ot._tree(tree, cost, m, n)
            for cell in itertools.product(range(m), range(n)):
                off = [c for c in tree if c not in ot._cycle(*cell, parent, depth, m)[0]]
                if cell not in tree and off:
                    tree[tree.index(off[0])] = cell
                    break
        else:
            tree[-1] = (m, n)
        assert not _is_spanning_tree([c for c in tree if c[0] < m], m, n)
        warm_starts.clear()
        _assert_same_result(transport(cost, a, b, basis=tree), transport(cost, a, b))
        assert warm_starts == [(False, 0)]

    def test_masses_out_of_balance(self):
        # the path row 0 - column 0 - row 1 - column 1 is dual feasible here;
        # rows 0.1 + 1.2 against columns 0.5 + 0.5 put -0.2 on cell (0, 0),
        # and no cell leads out of the subtree below it to a column
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, b = np.array([0.1, 1.2]), np.array([0.5, 0.5])
        tree = [(0, 0), (1, 0), (1, 1)]
        assert ot._dual_simplex(cost, a, b, tree, OPT_TOL, np.empty_like(cost)) is None

    def test_dual_pivot_cap(self, monkeypatch, warm_starts):
        capped = 0
        for seed in range(20):
            cost, a, b1 = self._problem(seed)
            b2 = b1 + 0.5 * _test_weights(np.random.default_rng(seed + 200), cost.shape[1], False)
            b2 /= b2.sum()
            tree = transport(cost, a, b1)[4]
            warm_starts.clear()
            transport(cost, a, b2, basis=tree)
            answered, pivots = warm_starts[0] if warm_starts else (False, 0)
            if not (answered and pivots):
                continue  # no dual pivot to cap
            capped += 1
            with monkeypatch.context() as mp:
                mp.setattr(ot, "MAX_DUAL_PIVOTS_PER_NODE", 0)
                warm_starts.clear()
                _assert_same_result(transport(cost, a, b2, basis=tree), transport(cost, a, b2))
            assert warm_starts == [(False, 0)]
        assert capped >= 15


def _random_small_problem(rng):
    """A p = 2 problem of at most 4 x 4 atoms for the brute-force oracle."""
    m, n = (int(x) for x in rng.integers(1, 5, size=2))
    kind = str(rng.choice(["square", "interval"]))
    cost = metric_cost(rng, 4, kind)
    mu = DiscreteMeasure(np.arange(m), _test_weights(rng, m, bool(rng.integers(2))))
    nu = DiscreteMeasure(np.arange(n), _test_weights(rng, n, bool(rng.integers(2))))
    return mu, nu, cost


def _assert_oracle_optimal(mu, nu, cost):
    res = solve_ot(mu, nu, cost, 2.0)
    assert res.value_p == pytest.approx(brute_force_ot(mu, nu, cost, 2.0), abs=1e-12)
    sub = cost.submatrix(mu.point_ids, nu.point_ids) ** 2
    assert (-res.phi[:, None] - res.psi[None, :] - sub).max() <= 1e-9
    assert res.coupling.marginal_residual(mu, nu) <= 1e-9


class TestPivotRules:
    def test_bland_rule_from_first_pivot(self, rng, monkeypatch):
        monkeypatch.setattr(ot, "BLAND_AFTER_PER_NODE", 0)
        monkeypatch.setattr(ot, "BLAND_AFTER_BASE", 0)
        calls = []
        argwhere = np.argwhere

        def spy(x):
            calls.append(x.shape)
            return argwhere(x)

        monkeypatch.setattr(np, "argwhere", spy)
        for _ in range(60):
            mu, nu, cost = _random_small_problem(rng)
            before = len(calls)
            _assert_oracle_optimal(mu, nu, cost)
            assert len(calls) > before, "Bland's rule was never reached"

    def test_pivot_limit_falls_back_to_lp(self, rng, monkeypatch):
        monkeypatch.setattr(ot, "MAX_PIVOTS_PER_NODE", 0)
        monkeypatch.setattr(ot, "MAX_PIVOTS_BASE", 0)
        calls = []
        linprog = ot._transport_linprog

        def spy(cost, a, b):
            calls.append(cost.shape)
            return linprog(cost, a, b)

        monkeypatch.setattr(ot, "_transport_linprog", spy)
        for k in range(40):
            mu, nu, cost = _random_small_problem(rng)
            _assert_oracle_optimal(mu, nu, cost)
            assert len(calls) == k + 1


def _symmetric_cost(upper):
    """4 x 4 cost with zero diagonal and the six given upper-triangle entries."""
    d = np.zeros((4, 4))
    d[np.triu_indices(4, 1)] = upper
    return GroundCost(d + d.T)


def _check_against_oracle(mu, nu, cost):
    """solve_ot and scrmk at p = 1, 2 match brute_force_ot, or raise a DisotError.

    The values agree to 1e-12 relative, plus the pivot tolerance: transport
    stops once no reduced cost is below -OPT_TOL times the largest cost, so
    a value near 0 can keep an error of that size.
    """
    fibered = [FiberedMeasure(["w"], [1.0], {"w": x}) for x in (mu, nu)]
    for p in (1.0, 2.0):
        try:
            want = brute_force_ot(mu, nu, cost, p)
            got = solve_ot(mu, nu, cost, p).value_p
            dist = scrmk(*fibered, DisintConfig(p, p), {"w": cost})
        except DisotError:
            continue
        bound = 1e-12 * want + OPT_TOL * float(cost.powered(p).max())
        assert abs(got - want) <= bound, (p, got, want)
        assert abs(dist**p - want) <= bound, (p, dist, want)


_TINY = st.sampled_from([5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200])
_WEIGHTS = st.lists(st.one_of(_TINY, st.floats(1e-6, 1.0)), min_size=1, max_size=4)
_SUPPORT = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)
# nonzero costs from 1e-3 up; test_costs_below_pivot_tolerance takes a cost
# scale far below 1
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


class TestAdversarialInputs:
    """Denormal weights and degenerate or non-metric costs against the oracle."""

    @given(_WEIGHTS, _WEIGHTS, st.integers(0, 2**32 - 1))
    @example([5e-324], [5e-324, 1e-310], 1)
    @settings(max_examples=60, deadline=None)
    def test_denormal_weights(self, wa, wb, seed):
        rng = np.random.default_rng(seed)
        cost = metric_cost(rng, 4, "square" if seed % 2 else "interval")
        mu = DiscreteMeasure(np.arange(len(wa)), wa)
        nu = DiscreteMeasure(rng.permutation(4)[: len(wb)], wb)
        _check_against_oracle(mu, nu, cost)

    @given(st.lists(_ENTRY, min_size=6, max_size=6), _SUPPORT, _SUPPORT, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_zero_off_diagonal_costs(self, upper, ids_a, ids_b, seed):
        rng = np.random.default_rng(seed)
        upper = np.array(upper)
        upper[rng.random(6) < 0.5] = 0.0
        mu = DiscreteMeasure(ids_a, rng.dirichlet(np.ones(len(ids_a))))
        nu = DiscreteMeasure(ids_b, rng.dirichlet(np.ones(len(ids_b))))
        _check_against_oracle(mu, nu, _symmetric_cost(upper))

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        st.floats(2.0, 100.0),
        _SUPPORT,
        _SUPPORT,
        st.integers(0, 2**32 - 1),
    )
    @example([0.0, 2.0**-24, 0.0, 0.0, 0.0, 0.0], 2.0, [0, 1], [0, 1, 2, 3], 0)
    @settings(max_examples=60, deadline=None)
    def test_triangle_violating_costs(self, upper, far, ids_a, ids_b, seed):
        # d(0, 1) = far exceeds d(0, 2) + d(2, 1) <= 2
        rng = np.random.default_rng(seed)
        upper[0] = far
        cost = _symmetric_cost(upper)
        assert not validate_ground_cost(cost.d).ok
        mu = DiscreteMeasure(ids_a, rng.dirichlet(np.ones(len(ids_a))))
        nu = DiscreteMeasure(ids_b, rng.dirichlet(np.ones(len(ids_b))))
        _check_against_oracle(mu, nu, cost)

    def test_costs_below_pivot_tolerance(self):
        # one cost of 2e-68 and every other off-diagonal cost 0: a zero-cost
        # plan exists, but a reduced cost of -2e-68 passes for optimal
        cost = _symmetric_cost([2e-68, 0.0, 0.0, 0.0, 0.0, 0.0])
        mu = DiscreteMeasure([0, 1], [0.471405, 0.528595])
        nu = DiscreteMeasure([0, 1, 2], [0.231625, 0.498131, 0.270244])
        _check_against_oracle(mu, nu, cost)


class TestScaleEquivariance:
    """A cost scaled by 2**k: the same plan, and potentials and values scaled by 2**k exactly."""

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.sampled_from(["euclid", "tied", "zero_off_diagonal"]),
        st.booleans(),
        st.booleans(),
        st.integers(-900, 900),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scaling(self, m, n, kind, zeros_a, zeros_b, k, seed):
        # scaling by a power of two is exact in every float operation the
        # pivots make, so a pivot tolerance relative to the largest cost
        # takes the same pivots at every scale
        rng = np.random.default_rng(seed)
        if kind == "zero_off_diagonal":
            cost = _warm_cost(rng, kind).d
            m = n = 4
        else:
            cost = _test_cost(rng, m, n, kind)
        a, b = _test_weights(rng, m, zeros_a), _test_weights(rng, n, zeros_b)
        value, gamma, u, v, basis = transport(cost, a, b)
        exact = ot.exact_basis_value(cost, a, b, basis)
        for j in (k, 1, -1, 40, -40, 300, -300, 900, -900):
            s = 2.0**j
            got_value, got_gamma, got_u, got_v, got_basis = transport(cost * s, a, b)
            assert got_basis == basis
            assert got_gamma.tobytes() == gamma.tobytes()
            assert got_u.tobytes() == (u * s).tobytes()
            assert got_v.tobytes() == (v * s).tobytes()
            assert got_value == value * s
            assert ot.exact_basis_value(cost * s, a, b, got_basis) == exact * s


class TestTransportLinprog:
    def test_agrees_with_simplex(self, rng):
        for _ in range(60):
            m, n = (int(x) for x in rng.integers(1, 12, size=2))
            cost = rng.random((m, n))
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            value, gamma, u, v, _ = _transport_linprog(cost, a, b)
            want = transport(cost, a, b)[0]
            assert abs(value - want) <= 1e-12 * abs(want)
            assert u[0] == 0.0
            assert (u[:, None] + v[None, :] - cost).max() <= 1e-12
            assert np.abs(gamma.sum(axis=1) - a).max() <= 1e-9
            assert np.abs(gamma.sum(axis=0) - b).max() <= 1e-9


class TestCTransform:
    @pytest.mark.parametrize("xi, message", [
        ([0.0, math.nan, 0.0], "potential has non-finite entries"),
        ([0.0, 0.0], "potential length does not match the transform domain"),
    ])
    def test_bad_potential(self, rng, xi, message):
        with pytest.raises(ValueError, match=message):
            c_transform(np.array(xi), 0.5, 2.0, metric_cost(rng, 3))

    def test_zero_potential(self, rng):
        cost = metric_cost(rng, 5)
        out = c_transform(np.zeros(5), 0.7, 2.0, cost)
        assert np.allclose(out, 0.0)

    def test_constant_shift(self, rng):
        cost = metric_cost(rng, 5)
        out = c_transform(np.full(5, 3.25), 0.7, 2.0, cost)
        assert np.allclose(out, -3.25)

    def test_tent_is_fixed_up_to_sign_on_dyadic_grid(self):
        # 1-Lipschitz profile, lambda = 1, p = 1: the transform is exactly the
        # negation; the dyadic grid keeps all float arithmetic exact
        grid = np.arange(-64, 65) / 16.0
        cost = line_cost(grid)
        phi = tent_potential(grid)
        out = c_transform(phi, 1.0, 1.0, cost)
        assert np.array_equal(out, -phi)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_double_transform_identities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        cost = metric_cost(rng, n, "square")
        lam = float(rng.uniform(0.05, 1.0))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        xi = rng.normal(size=n) * 3.0
        s1 = c_transform(xi, lam, p, cost)
        s2 = c_transform(s1, lam, p, cost)
        s3 = c_transform(s2, lam, p, cost)
        assert np.all(s2 <= xi + 1e-12)
        assert np.max(np.abs(s3 - s1)) <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_vanishing_at_reference_bounds_transform(self, seed):
        # xi(y0) = 0 forces -S xi(u) <= lam * d(u, y0)**p
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        cost = metric_cost(rng, n)
        lam = float(rng.uniform(0.05, 1.0))
        p = float(rng.choice([1.0, 2.0]))
        xi = rng.normal(size=n)
        y0 = int(rng.integers(n))
        xi[y0] = 0.0
        s = c_transform(xi, lam, p, cost)
        bound = lam * cost.powered(p)[:, y0]
        assert np.all(-s <= bound + 1e-12)

    def test_domain_restriction(self, rng):
        cost = metric_cost(rng, 6)
        domain = np.array([1, 3, 4])
        xi = rng.normal(size=3)
        out = c_transform(xi, 0.5, 2.0, cost, domain=domain)
        dp = cost.powered(2.0)
        manual = np.array(
            [max(-0.5 * dp[u, v] - xi[i] for i, v in enumerate(domain)) for u in range(6)]
        )
        assert np.allclose(out, manual)

    def test_rejects_bad_lambda(self, rng):
        cost = metric_cost(rng, 3)
        with pytest.raises(ValueError):
            c_transform(np.zeros(3), 0.0, 1.0, cost)
        with pytest.raises(ValueError):
            c_transform(np.zeros(3), 1.5, 1.0, cost)


class TestCouplingMap:
    def test_diagonal_is_identity(self):
        cost = line_cost([0.0, 1.0])
        mu = DiscreteMeasure([0, 1], [0.5, 0.5])
        res = solve_ot(mu, mu, cost, 2.0)
        assert coupling_is_deterministic(res.coupling, tol=1e-9) == {0: 0, 1: 1}

    def test_product_coupling_is_not_a_map(self):
        from disot.ot import Coupling

        gamma = np.full((2, 2), 0.25)
        c = Coupling(gamma, np.array([0, 1]), np.array([0, 1]))
        assert coupling_is_deterministic(c, tol=0.05) is None

    def test_zero_row_is_skipped(self):
        from disot.ot import Coupling

        gamma = np.array([[0.0, 0.0], [0.2, 0.8]])
        c = Coupling(gamma, np.array([3, 4]), np.array([0, 1]))
        assert coupling_is_deterministic(c, tol=0.3) == {4: 1}

    def test_monotone_map_on_sorted_grids(self):
        # optimal coupling of sorted 1-d grids at p = 2 is the monotone
        # rearrangement, a genuine map
        n = 20
        x = np.arange(n) / n
        y = 0.3 + np.arange(n) / (2 * n)
        cost = line_cost(np.concatenate([x, y]))
        mu = DiscreteMeasure(np.arange(n), np.full(n, 1.0 / n))
        nu = DiscreteMeasure(np.arange(n, 2 * n), np.full(n, 1.0 / n))
        res = solve_ot(mu, nu, cost, 2.0)
        tmap = coupling_is_deterministic(res.coupling, tol=1e-9)
        assert tmap is not None
        targets = [tmap[i] for i in range(n)]
        assert targets == sorted(targets)
