import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disot.errors import (
    AllZeroMass,
    BaseMismatch,
    IndexOutOfRange,
    InvalidGroundCost,
    NegativeWeight,
)
from disot.io import parse_instance
from disot.measures import (
    DiscreteMeasure,
    FiberedMeasure,
    GroundCost,
    Violation,
    dirac,
    validate_ground_cost,
)


def reference_measure(ids, weights):
    """(point ids, weights) of DiscreteMeasure's rule in pure Python.

    Each id's weights are summed in input order from 0.0, the total is the
    math.fsum of those sums, and the rescaled atoms that stay positive are
    kept in id order; None when the total is not positive.
    """
    merged: dict[int, float] = {}
    for i, w in zip(ids, weights):
        merged[i] = merged.get(i, 0.0) + w
    total = math.fsum(merged.values())
    if total <= 0.0:
        return None
    atoms = [(i, merged[i] / total) for i in sorted(merged)]
    return [i for i, w in atoms if w > 0.0], [w for i, w in atoms if w > 0.0]


class TestNormalize:
    def test_rescale(self):
        m = DiscreteMeasure([0, 1], [2.0, 2.0])
        assert m.point_ids.tolist() == [0, 1]
        assert m.weights.tolist() == [0.5, 0.5]

    def test_duplicate_merge(self):
        m = DiscreteMeasure([0, 0], [1.0, 1.0])
        assert m.point_ids.tolist() == [0]
        assert m.weights.tolist() == [1.0]

    def test_zero_atom_prune(self):
        m = DiscreteMeasure([0, 1], [0.0, 3.0])
        assert m.point_ids.tolist() == [1]
        assert m.weights.tolist() == [1.0]

    def test_all_zero_mass(self):
        with pytest.raises(AllZeroMass):
            DiscreteMeasure([0, 1], [0.0, 0.0])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            DiscreteMeasure([0, 1], [-0.5, 1.5])

    def test_negative_point_id(self):
        # numpy would index a negative id from the end of the point set
        with pytest.raises(IndexOutOfRange, match="negative point id -2"):
            DiscreteMeasure([-2, 1], [0.5, 0.5])
        with pytest.raises(IndexOutOfRange):
            DiscreteMeasure([1, -1], [0.5, 0.5])

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.floats(0.0, 10.0, allow_nan=False)),
            min_size=1,
            max_size=12,
        )
    )
    def test_mass_one_and_sorted(self, atoms):
        ids, weights = zip(*atoms)
        if sum(weights) <= 0.0:
            with pytest.raises(AllZeroMass):
                DiscreteMeasure(ids, weights)
            return
        m = DiscreteMeasure(ids, weights)
        assert abs(m.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(m.point_ids) > 0)
        assert np.all(m.weights > 0.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.one_of(
                    st.floats(0.0, 1e300),
                    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1.0]),
                ),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300)
    def test_matches_the_reference_bit_for_bit(self, atoms):
        ids = [i for i, _ in atoms]
        weights = [w for _, w in atoms]
        want = reference_measure(ids, weights)
        if want is None:
            with pytest.raises(AllZeroMass):
                DiscreteMeasure(ids, weights)
            return
        m = DiscreteMeasure(ids, weights)
        assert m.point_ids.tolist() == want[0]
        assert [w.hex() for w in m.weights.tolist()] == [w.hex() for w in want[1]]

    def test_repr(self):
        m = DiscreteMeasure([2, 0, 2], [1.0, 1.0, 2.0])
        assert repr(m) == "DiscreteMeasure({0: 0.25, 2: 0.75})"


NON_FINITE_WEIGHTS = pytest.mark.parametrize(
    "weights",
    [[math.nan, 1.0], [math.inf, 1.0], [1e308, 1e308]],
    ids=["nan", "inf", "sum_overflows"],
)


class TestConstructorErrors:
    @pytest.mark.parametrize("ids, w", [([0, 1], [1.0]), ([[0]], [[1.0]])])
    def test_discrete_measure_needs_equal_1d_arrays(self, ids, w):
        with pytest.raises(ValueError, match="1-d and equally long"):
            DiscreteMeasure(ids, w)

    @pytest.mark.parametrize("d, message", [
        ([[0.0, 1.0]], "cost matrix must be square"),
        ([[1.0, 1.0], [1.0, 0.0]], "cost matrix has nonzero diagonal"),
        ([[0.0, 1.0], [2.0, 0.0]], "cost matrix is not symmetric"),
    ])
    def test_ground_cost(self, d, message):
        with pytest.raises(InvalidGroundCost, match=message):
            GroundCost(d)

    def test_fibered_measure_needs_one_weight_per_base_point(self):
        with pytest.raises(BaseMismatch, match="base_ids and sigma lengths differ"):
            FiberedMeasure(["a", "b"], [1.0], {"a": dirac(0), "b": dirac(0)})

    def test_fibered_measure_needs_a_fiber_at_every_positive_weight(self):
        with pytest.raises(BaseMismatch, match="'b' has positive mass but no fiber measure"):
            FiberedMeasure(["a", "b"], [0.5, 0.5], {"a": dirac(0)})

    @pytest.mark.parametrize("make, attr", [
        (lambda: dirac(0), "weights"),
        (lambda: GroundCost([[0.0]]), "d"),
        (lambda: FiberedMeasure(["a"], [1.0], {"a": dirac(0)}), "sigma"),
    ])
    def test_immutable(self, make, attr):
        obj = make()
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            setattr(obj, attr, None)


class TestNonFiniteInputs:
    """Non-finite weights and costs are refused when they are constructed."""

    @NON_FINITE_WEIGHTS
    def test_weights(self, weights):
        with pytest.raises(ValueError):
            DiscreteMeasure([0, 1], weights)

    @NON_FINITE_WEIGHTS
    def test_base_weights(self, weights):
        with pytest.raises(ValueError):
            FiberedMeasure(["a", "b"], weights, {"a": dirac(0), "b": dirac(0)})

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_cost_entries(self, entry):
        with pytest.raises(InvalidGroundCost, match="non-finite"):
            GroundCost([[0.0, entry], [entry, 0.0]])

    def test_cost_powers(self):
        cost = GroundCost([[0.0, 1e200], [1e200, 0.0]])
        ids = np.arange(2)
        with pytest.raises(InvalidGroundCost, match="overflows"):
            cost.powered(2.0)
        with pytest.raises(InvalidGroundCost, match="overflows"):
            cost.powered_submatrix(ids, ids, 2.0)
        assert cost.powered_submatrix(ids, ids, 1.5)[0, 1] == pytest.approx(1e300)


class TestGroundCostValidation:
    def test_two_point_metric(self):
        assert validate_ground_cost([[0, 1], [1, 0]]).ok

    def test_non_square_matrix(self):
        rep = validate_ground_cost([[0.0, 1.0]])
        assert rep.violations == (Violation("shape", (1, 2), 0.0, "matrix is not square"),)

    def test_symmetry_violation(self):
        rep = validate_ground_cost([[0, 1], [2, 0]])
        bad = rep.worst("symmetry")
        assert bad is not None and bad.location == (0, 1)

    def test_triangle_violation_with_slack(self):
        rep = validate_ground_cost([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        bad = rep.worst("triangle")
        assert bad is not None
        assert bad.location == (0, 1, 2)
        assert bad.magnitude == pytest.approx(1.0)

    def test_diagonal_and_negativity(self):
        rep = validate_ground_cost([[1.0, -2.0], [-2.0, 0.0]])
        kinds = {v.kind for v in rep.violations}
        assert "diagonal" in kinds and "negativity" in kinds

    @given(st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_accepts_euclidean_matrices(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        d = (d + d.T) / 2.0
        assert validate_ground_cost(d).ok


class TestDisintegrate:
    """FiberedMeasure holds base weights sigma and one conditional fiber
    measure per base point."""

    def test_null_base_point(self):
        fm = FiberedMeasure(["w1", "w2"], [1.0, 0.0], {"w1": dirac(0)})
        assert fm.base_ids == ("w1",)
        assert fm.sigma.tolist() == [1.0]
        with pytest.raises(BaseMismatch):
            fm.fiber("w2")

    def test_errors(self):
        with pytest.raises(AllZeroMass):
            FiberedMeasure(["w1"], [0.0], {"w1": dirac(0)})
        with pytest.raises(NegativeWeight):
            FiberedMeasure(["w1", "w2"], [-1.0, 2.0], {"w1": dirac(0), "w2": dirac(0)})

    @pytest.mark.parametrize("sigma", [[0.5, 0.5], [1.0, 0.0]], ids=["both_charged", "one_null"])
    def test_repeated_base_point(self, sigma):
        with pytest.raises(BaseMismatch, match="base point 'w' is listed more than once"):
            FiberedMeasure(["w", "w"], sigma, {"w": dirac(0)})

    def test_normalization_conservation(self, rng):
        base = ["w0", "w1", "w2"]
        fibers = {b: DiscreteMeasure(rng.integers(5, size=10), 5.0 * rng.random(10)) for b in base}
        fm = FiberedMeasure(base, 5.0 * rng.random(3), fibers)
        assert abs(fm.sigma.sum() - 1.0) <= 1e-12
        for b in fm.base_ids:
            assert abs(fm.fiber(b).weights.sum() - 1.0) <= 1e-12


class TestReferenceDelta:
    def test_relabeling_must_preserve_cost(self):
        # relabelings of a shared fiber are checked where the instance is parsed
        pts = np.array([0.0, 1.0, 3.0])
        doc = {
            "base": [{"id": "w", "sigma": 1.0}],
            "cost": np.abs(pts[:, None] - pts[None, :]).tolist(),
            "fibers": {"w": {"measures": {"m": [{"point": 0, "w": 1.0}]}}},
        }
        for perm, match in (
            ([1, 0, 2], "relabeling at 'w' does not preserve the cost"),
            ([0, 0, 2], "relabeling at 'w' is not a permutation"),
            ([0, 1], "relabeling at 'w' is not a permutation"),
        ):
            with pytest.raises(InvalidGroundCost, match=match):
                parse_instance({**doc, "relabelings": {"w": perm}})
        assert parse_instance({**doc, "relabelings": {"w": [0, 1, 2]}}).costs["w"].n == 3
