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
from disot.measures import (
    Bundle,
    DiscreteMeasure,
    FiberedMeasure,
    GroundCost,
    dirac,
    disintegrate,
    normalize_measure,
    validate_ground_cost,
)


class TestNormalize:
    def test_rescale(self):
        m = normalize_measure([(0, 2.0), (1, 2.0)])
        assert m.as_dict() == {0: 0.5, 1: 0.5}

    def test_duplicate_merge(self):
        m = normalize_measure([(0, 1.0), (0, 1.0)])
        assert m.as_dict() == {0: 1.0}

    def test_zero_atom_prune(self):
        m = normalize_measure([(0, 0.0), (1, 3.0)])
        assert m.as_dict() == {1: 1.0}

    def test_all_zero_mass(self):
        with pytest.raises(AllZeroMass):
            normalize_measure([(0, 0.0), (1, 0.0)])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            normalize_measure([(0, -0.5), (1, 1.5)])

    def test_negative_point_id(self):
        # numpy would index a negative id from the end of the point set
        with pytest.raises(IndexOutOfRange, match="negative point id -2"):
            DiscreteMeasure([-2, 1], [0.5, 0.5])
        with pytest.raises(IndexOutOfRange):
            normalize_measure([(1, 0.5), (-1, 0.5)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.floats(0.0, 10.0, allow_nan=False)),
            min_size=1,
            max_size=12,
        )
    )
    def test_mass_one_and_sorted(self, atoms):
        if sum(w for _, w in atoms) <= 0.0:
            with pytest.raises(AllZeroMass):
                normalize_measure(atoms)
            return
        m = normalize_measure(atoms)
        assert abs(m.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(m.point_ids) > 0)
        assert np.all(m.weights > 0.0)


NON_FINITE_WEIGHTS = pytest.mark.parametrize(
    "weights",
    [[math.nan, 1.0], [math.inf, 1.0], [1e308, 1e308]],
    ids=["nan", "inf", "sum_overflows"],
)


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

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_disintegrate_weights(self, weight):
        # a base point whose mass is not finite was dropped, finite atoms and all
        with pytest.raises(ValueError, match="not finite"):
            disintegrate([("a", 0, 1.0), ("b", 0, weight), ("b", 1, 1.0)])


class TestGroundCostValidation:
    def test_two_point_metric(self):
        assert validate_ground_cost([[0, 1], [1, 0]]).ok

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
    def test_conditional_normalization(self):
        fm = disintegrate([("w1", 0, 0.5), ("w1", 1, 0.25), ("w2", 0, 0.25)])
        assert fm.sigma_at("w1") == pytest.approx(0.75)
        assert fm.sigma_at("w2") == pytest.approx(0.25)
        assert fm.fiber("w1").as_dict() == pytest.approx({0: 2 / 3, 1: 1 / 3})
        assert fm.fiber("w2").as_dict() == {0: 1.0}

    def test_one_point_base(self):
        fm = disintegrate([("w", 0, 0.2), ("w", 1, 0.6)])
        assert fm.sigma_at("w") == 1.0
        assert fm.fiber("w").as_dict() == pytest.approx({0: 0.25, 1: 0.75})

    def test_null_base_point(self):
        fm = disintegrate([("w1", 0, 1.0)])
        assert fm.sigma_at("w2") == 0.0
        with pytest.raises(BaseMismatch):
            fm.fiber("w2")

    def test_errors(self):
        with pytest.raises(AllZeroMass):
            disintegrate([("w1", 0, 0.0)])
        with pytest.raises(NegativeWeight):
            disintegrate([("w1", 0, -1.0)])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 4),
                st.floats(0.0, 5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_reconstruction_roundtrip(self, atoms):
        total = sum(w for _, _, w in atoms)
        if total <= 0.0:
            return
        fm = disintegrate(atoms)
        # merge the input the same way for comparison
        merged = {}
        for b, i, w in atoms:
            merged[(b, i)] = merged.get((b, i), 0.0) + w / total
        rebuilt = {(b, i): w for b, i, w in fm.atoms()}
        for key, w in merged.items():
            if w > 0.0:
                assert rebuilt[key] == pytest.approx(w, abs=1e-12)

    def test_normalization_conservation(self, rng):
        atoms = [
            (f"w{rng.integers(3)}", int(rng.integers(5)), float(rng.random()))
            for _ in range(30)
        ]
        fm = disintegrate(atoms)
        assert abs(fm.sigma.sum() - 1.0) <= 1e-12
        for b in fm.base_ids:
            assert abs(fm.fiber(b).weights.sum() - 1.0) <= 1e-12


class TestReferenceDelta:
    def test_relabeling_must_preserve_cost(self):
        from disot.errors import InvalidGroundCost

        pts = np.array([0.0, 1.0, 3.0])
        cost = GroundCost(np.abs(pts[:, None] - pts[None, :]))
        with pytest.raises(InvalidGroundCost):
            Bundle(["w"], cost, relabelings={"w": [1, 0, 2]})
