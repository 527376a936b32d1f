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
    ReferencePoint,
    dirac,
    disintegrate,
    normalize_measure,
    p_moment,
    reference_delta,
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
    def test_single_fiber_dirac(self):
        cost = GroundCost([[0.0, 1.0], [1.0, 0.0]])
        bundle = Bundle(["w"], cost)
        fm = reference_delta(bundle, 0, {"w": 1.0})
        assert fm.fiber("w").as_dict() == {0: 1.0}

    def test_relabeled_pushforward(self):
        # swapping the two points of a symmetric two-point space preserves cost
        cost = GroundCost([[0.0, 1.0], [1.0, 0.0]])
        bundle = Bundle(["w1", "w2"], cost, relabelings={"w2": [1, 0]})
        fm = reference_delta(bundle, 0, {"w1": 0.5, "w2": 0.5})
        assert fm.fiber("w1").as_dict() == {0: 1.0}
        assert fm.fiber("w2").as_dict() == {1: 1.0}

    def test_index_out_of_range(self):
        cost = GroundCost([[0.0, 1.0], [1.0, 0.0]])
        bundle = Bundle(["w"], cost)
        with pytest.raises(IndexOutOfRange):
            reference_delta(bundle, 5, {"w": 1.0})

    def test_relabeling_must_preserve_cost(self):
        from disot.errors import InvalidGroundCost

        pts = np.array([0.0, 1.0, 3.0])
        cost = GroundCost(np.abs(pts[:, None] - pts[None, :]))
        with pytest.raises(InvalidGroundCost):
            Bundle(["w"], cost, relabelings={"w": [1, 0, 2]})


class TestPMoment:
    def _bundle(self, dists):
        n = len(dists)
        d = np.zeros((n + 1, n + 1))
        d[0, 1:] = dists
        d[1:, 0] = dists
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    d[i, j] = abs(d[0, i] - d[0, j]) + min(d[0, i], d[0, j])
        return Bundle(["w"], GroundCost(d))

    def test_zero_at_reference(self):
        bundle = self._bundle([1.0])
        ref = reference_delta(bundle, 0, {"w": 1.0})
        assert p_moment(ref, ref, bundle, 2.0) == 0.0

    def test_two_atom_fiber(self):
        # d(y0, a) = 0, d(y0, b) = 2, half mass each, p = 2 -> 2
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        bundle = Bundle(["w"], GroundCost(d))
        ref = reference_delta(bundle, 0, {"w": 1.0})
        m = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure([0, 1], [0.5, 0.5])})
        assert p_moment(m, ref, bundle, 2.0) == pytest.approx(2.0)

    def test_sigma_average(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        bundle = Bundle(["w1", "w2"], {"w1": GroundCost(d), "w2": GroundCost(d)})
        sig = {"w1": 0.5, "w2": 0.5}
        ref = reference_delta(bundle, 0, sig)
        fibers = {b: DiscreteMeasure([0, 1], [0.5, 0.5]) for b in ("w1", "w2")}
        m = FiberedMeasure(["w1", "w2"], [0.5, 0.5], fibers)
        assert p_moment(m, ref, bundle, 2.0) == pytest.approx(2.0)

    def test_base_mismatch(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        bundle = Bundle(["w1"], {"w1": GroundCost(d)})
        ref = reference_delta(bundle, 0, {"w1": 1.0})
        other = FiberedMeasure(["x"], [1.0], {"x": dirac(0)})
        with pytest.raises(BaseMismatch):
            p_moment(other, ref, bundle, 2.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_p_when_distances_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        pts = 1.0 + 2.0 * rng.random(4)  # pairwise |x - y| may be < 1, so shift below
        d = np.zeros((5, 5))
        base = np.concatenate([[0.0], pts])
        for i in range(5):
            for j in range(5):
                d[i, j] = 0.0 if i == j else max(1.0, abs(base[i] - base[j]))
        # max(1, |x-y|) keeps the triangle inequality and all distances >= 1
        bundle = Bundle(["w"], GroundCost(d))
        ref = reference_delta(bundle, 0, {"w": 1.0})
        ids = 1 + rng.choice(4, size=2, replace=False)
        m = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure(ids, rng.dirichlet(np.ones(2)))})
        ps = [1.0, 1.5, 2.0, 3.0]
        vals = [p_moment(m, ref, bundle, p) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_iff_dirac_at_reference(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        bundle = Bundle(["w"], GroundCost(d))
        ref = reference_delta(bundle, 0, {"w": 1.0})
        at_ref = FiberedMeasure(["w"], [1.0], {"w": dirac(0)})
        off_ref = FiberedMeasure(["w"], [1.0], {"w": DiscreteMeasure([0, 1], [0.9, 0.1])})
        assert p_moment(at_ref, ref, bundle, 2.0) == 0.0
        assert p_moment(off_ref, ref, bundle, 2.0) > 0.0


class TestReferencePoint:
    def test_per_fiber_indices(self):
        ref = ReferencePoint(y0=0, per_fiber={"w2": 1})
        assert ref.index_for("w1") == 0
        assert ref.index_for("w2") == 1

    def test_missing(self):
        with pytest.raises(IndexOutOfRange):
            ReferencePoint().index_for("w")
