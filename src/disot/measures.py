"""Discrete and fibered measures: construction, validation, disintegration.

A measure lives on a finite point set indexed 0..n-1 whose pairwise distances
are recorded in a :class:`GroundCost`.  A fibered measure couples a base
weighting ``sigma`` with one conditional measure per base point.  All types are
immutable after construction and safe to share across concurrent solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroMass,
    BaseMismatch,
    IndexOutOfRange,
    InvalidGroundCost,
    NegativeWeight,
)
from .tolerances import MASS_TOL, TRIANGLE_TOL


@dataclass(frozen=True)
class Violation:
    """One structural defect found by a validator."""

    kind: str
    location: tuple
    magnitude: float
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a report-based check: empty ``violations`` means valid."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def worst(self, kind: str | None = None) -> Violation | None:
        pool = [v for v in self.violations if kind is None or v.kind == kind]
        return max(pool, key=lambda v: v.magnitude) if pool else None


def _total_mass(w: np.ndarray, what: str) -> float:
    """math.fsum of nonnegative weights; a NaN, an inf or an overflowing sum is refused."""
    try:
        total = math.fsum(w)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"{what} and their sum must be finite")
    return total


class DiscreteMeasure:
    """Probability measure with finitely many atoms on an indexed point set.

    Construction normalizes: duplicate point ids are merged by summing their
    weights, zero-weight atoms are pruned, and weights are rescaled to total
    mass 1.  Atoms are kept sorted by point id.

    Raises
    ------
    ValueError
        if any input weight is not finite, or their total overflows.
    IndexOutOfRange
        if any point id is negative.
    NegativeWeight
        if any input weight is negative.
    AllZeroMass
        if the total input mass is not strictly positive.
    """

    __slots__ = ("point_ids", "weights")

    def __init__(self, point_ids: Sequence[int], weights: Sequence[float]):
        ids = np.asarray(point_ids, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if ids.shape != w.shape or ids.ndim != 1:
            raise ValueError("point_ids and weights must be 1-d and equally long")
        if ids.size and ids.min() < 0:
            raise IndexOutOfRange(f"negative point id {ids.min()}")
        if w.size and w.min() < 0.0:
            i = int(w.argmin())
            raise NegativeWeight(f"weight {w[i]} at point {ids[i]}")
        order = np.argsort(ids, kind="stable")
        ids, w = ids[order], w[order]
        # merge duplicates
        uniq, inverse = np.unique(ids, return_inverse=True)
        if uniq.size != ids.size:
            merged = np.zeros(uniq.size)
            np.add.at(merged, inverse, w)
            ids, w = uniq, merged
        # a NaN weight survives this prune, so that the total refuses it
        keep = w != 0.0
        ids, w = ids[keep], w[keep]
        total = _total_mass(w, "weights")
        if total <= 0.0:
            raise AllZeroMass("measure has no positive mass")
        w = w / total
        # denormal inputs can underflow to zero under the rescale
        keep = w > 0.0
        ids, w = ids[keep], w[keep]
        ids.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "point_ids", ids)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    def __len__(self) -> int:
        return self.point_ids.size

    def __repr__(self) -> str:
        atoms = ", ".join(f"{i}: {w:.6g}" for i, w in zip(self.point_ids, self.weights))
        return f"DiscreteMeasure({{{atoms}}})"

    def as_dict(self) -> dict[int, float]:
        return {int(i): float(w) for i, w in zip(self.point_ids, self.weights)}

    def almost_equal(self, other: "DiscreteMeasure", tol: float = MASS_TOL) -> bool:
        return (
            self.point_ids.shape == other.point_ids.shape
            and bool(np.all(self.point_ids == other.point_ids))
            and bool(np.all(np.abs(self.weights - other.weights) <= tol))
        )


def normalize_measure(raw_atoms: Iterable[tuple[int, float]]) -> DiscreteMeasure:
    """Build a DiscreteMeasure from (point_id, weight) pairs.

    Duplicates are merged, zero atoms pruned, weights rescaled to sum to 1.
    """
    pairs = list(raw_atoms)
    ids = [p for p, _ in pairs]
    ws = [w for _, w in pairs]
    return DiscreteMeasure(ids, ws)


def dirac(point_id: int) -> DiscreteMeasure:
    return DiscreteMeasure([point_id], [1.0])


class GroundCost:
    """Finite, symmetric, nonnegative matrix of pairwise distances on a finite point set.

    The matrix is stored raw; solvers apply the p-th power at solve time so a
    single GroundCost serves every exponent.  The triangle inequality is not
    enforced at construction; use :func:`validate_ground_cost` for a report.
    """

    __slots__ = ("d", "n")

    def __init__(self, d: Sequence[Sequence[float]] | np.ndarray):
        mat = np.array(d, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidGroundCost("cost matrix must be square")
        if mat.size and not (mat.min() >= 0.0 and mat.max() < math.inf):
            raise InvalidGroundCost("cost matrix has negative or non-finite entries")
        if np.any(np.diag(mat) != 0.0):
            raise InvalidGroundCost("cost matrix has nonzero diagonal")
        if not np.array_equal(mat, mat.T):
            raise InvalidGroundCost("cost matrix is not symmetric")
        mat.setflags(write=False)
        object.__setattr__(self, "d", mat)
        object.__setattr__(self, "n", mat.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("GroundCost is immutable")

    def powered(self, p: float) -> np.ndarray:
        """d**p, with p == 1 returned without a pow call.

        Raises InvalidGroundCost when a finite distance overflows to inf.
        """
        return self.d if p == 1.0 else _finite_power(self.d, p)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.d[np.ix_(rows, cols)]

    def powered_submatrix(self, rows: np.ndarray, cols: np.ndarray, p: float) -> np.ndarray:
        """submatrix(rows, cols) ** p, with p == 1 returned without a pow call."""
        sub = self.submatrix(rows, cols)
        return sub if p == 1.0 else _finite_power(sub, p)


def _finite_power(d: np.ndarray, p: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        dp = d**p
    if dp.size and not dp.max() < math.inf:
        raise InvalidGroundCost(f"cost {d.max():.6g} overflows to inf at power p = {p:g}")
    return dp


def validate_ground_cost(d: Sequence[Sequence[float]] | np.ndarray) -> ValidationReport:
    """Check metric-space axioms on a square matrix and report every violation.

    Reported kinds: ``shape``, ``negativity``, ``diagonal``, ``symmetry`` and
    ``triangle``.  For triangle violations the entry with the worst slack
    ``d[i,k] - d[i,j] - d[j,k]`` is reported per intermediate point j.
    """
    mat = np.asarray(d, dtype=np.float64)
    out: list[Violation] = []
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return ValidationReport((Violation("shape", mat.shape, 0.0, "matrix is not square"),))
    n = mat.shape[0]
    for i, j in zip(*np.nonzero(mat < 0.0)):
        out.append(Violation("negativity", (int(i), int(j)), float(-mat[i, j])))
    for i in range(n):
        if mat[i, i] != 0.0:
            out.append(Violation("diagonal", (i, i), float(abs(mat[i, i]))))
    asym = mat - mat.T
    for i, j in zip(*np.nonzero(asym)):
        if i < j:
            out.append(Violation("symmetry", (int(i), int(j)), float(abs(asym[i, j]))))
    # triangle: d[i,k] <= d[i,j] + d[j,k] for every triple, up to TRIANGLE_TOL
    for j in range(n):
        slack = mat - (mat[:, j : j + 1] + mat[j : j + 1, :])
        slack[j, :] = -np.inf
        slack[:, j] = -np.inf
        np.fill_diagonal(slack, -np.inf)
        worst = float(slack.max()) if n > 1 else -np.inf
        if worst > TRIANGLE_TOL:
            i, k = np.unravel_index(int(slack.argmax()), slack.shape)
            out.append(
                Violation(
                    "triangle",
                    (int(i), int(j), int(k)),
                    worst,
                    f"d[{i},{k}] > d[{i},{j}] + d[{j},{k}] by {worst:.3g}",
                )
            )
    return ValidationReport(tuple(out))


class Bundle:
    """Finite base points, each carrying a fiber point set with a ground cost.

    When every fiber shares one point set and cost (``shared_fiber``), optional
    per-base relabelings may be given.  A relabeling is a permutation g of the
    shared point set and must preserve the cost exactly: d[g(i), g(j)] == d[i, j].
    """

    __slots__ = ("base_ids", "_costs", "shared_fiber", "relabelings")

    def __init__(
        self,
        base_ids: Sequence[str],
        costs: GroundCost | Mapping[str, GroundCost],
        relabelings: Mapping[str, Sequence[int]] | None = None,
    ):
        bids = tuple(str(b) for b in base_ids)
        shared = isinstance(costs, GroundCost)
        if not shared and relabelings:
            raise InvalidGroundCost("relabelings require a shared fiber")
        perms: dict[str, np.ndarray] = {}
        if relabelings:
            d = costs.d  # type: ignore[union-attr]
            for bid, perm in relabelings.items():
                g = np.asarray(perm, dtype=np.int64)
                if sorted(g.tolist()) != list(range(d.shape[0])):
                    raise InvalidGroundCost(f"relabeling at {bid!r} is not a permutation")
                if not np.array_equal(d[np.ix_(g, g)], d):
                    raise InvalidGroundCost(f"relabeling at {bid!r} does not preserve the cost")
                g.setflags(write=False)
                perms[str(bid)] = g
        object.__setattr__(self, "base_ids", bids)
        object.__setattr__(self, "_costs", costs)
        object.__setattr__(self, "shared_fiber", shared)
        object.__setattr__(self, "relabelings", perms)

    def __setattr__(self, name, value):
        raise AttributeError("Bundle is immutable")

    def cost(self, base_id: str) -> GroundCost:
        if self.shared_fiber:
            return self._costs  # type: ignore[return-value]
        try:
            return self._costs[base_id]  # type: ignore[index]
        except KeyError:
            raise BaseMismatch(f"no fiber cost for base point {base_id!r}") from None

    def relabel(self, base_id: str, index: int) -> int:
        g = self.relabelings.get(base_id)
        return int(g[index]) if g is not None else index


class FiberedMeasure:
    """Base weights ``sigma`` plus one conditional DiscreteMeasure per base point.

    Base points with zero sigma carry no fiber measure and are dropped, so the
    pushforward onto the base equals sigma by construction and every stored
    fiber sums to 1.
    """

    __slots__ = ("base_ids", "sigma", "fibers")

    def __init__(self, base_ids: Sequence[str], sigma: Sequence[float], fibers: Mapping[str, DiscreteMeasure]):
        bids = [str(b) for b in base_ids]
        s = np.asarray(sigma, dtype=np.float64)
        if len(bids) != s.size:
            raise BaseMismatch("base_ids and sigma lengths differ")
        if s.size and s.min() < 0.0:
            raise NegativeWeight("negative base weight")
        total = _total_mass(s, "base weights")
        if total <= 0.0:
            raise AllZeroMass("base weights have no positive mass")
        s = s / total
        keep = s > 0.0
        bids = [b for b, k in zip(bids, keep) if k]
        s = s[keep]
        fib = {}
        for b in bids:
            if b not in fibers:
                raise BaseMismatch(f"base point {b!r} has positive mass but no fiber measure")
            fib[b] = fibers[b]
        s.setflags(write=False)
        object.__setattr__(self, "base_ids", tuple(bids))
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "fibers", fib)

    def __setattr__(self, name, value):
        raise AttributeError("FiberedMeasure is immutable")

    def sigma_at(self, base_id: str) -> float:
        try:
            return float(self.sigma[self.base_ids.index(str(base_id))])
        except ValueError:
            return 0.0

    def fiber(self, base_id: str) -> DiscreteMeasure:
        try:
            return self.fibers[str(base_id)]
        except KeyError:
            raise BaseMismatch(f"no fiber at base point {base_id!r} (sigma = 0)") from None

    def same_base(self, other: "FiberedMeasure") -> bool:
        return self.base_ids == other.base_ids and bool(
            np.all(np.abs(self.sigma - other.sigma) <= MASS_TOL)
        )

    def atoms(self) -> list[tuple[str, int, float]]:
        """Flat (base_id, fiber_point_id, weight) list reconstructing the measure."""
        out = []
        for b, s in zip(self.base_ids, self.sigma):
            f = self.fibers[b]
            for i, w in zip(f.point_ids, f.weights):
                out.append((b, int(i), float(s * w)))
        return out


def disintegrate(atoms_on_total_space: Iterable[tuple[str, int, float]]) -> FiberedMeasure:
    """Split atoms (base_id, fiber_point_id, weight) into sigma and conditionals.

    sigma[b] is the total mass over base point b; the fiber at b is the
    conditional measure (weights divided by sigma[b]).  Reconstructing through
    :meth:`FiberedMeasure.atoms` reproduces the input up to merging, pruning
    and 1e-12 arithmetic.
    """
    grouped: dict[str, list[tuple[int, float]]] = {}
    order: list[str] = []
    for b, i, w in atoms_on_total_space:
        b = str(b)
        if not math.isfinite(w):
            raise ValueError(f"weight {w} at ({b!r}, {i}) is not finite")
        if w < 0.0:
            raise NegativeWeight(f"weight {w} at ({b!r}, {i})")
        if b not in grouped:
            grouped[b] = []
            order.append(b)
        grouped[b].append((int(i), float(w)))
    masses = {b: math.fsum(w for _, w in pairs) for b, pairs in grouped.items()}
    total = math.fsum(masses.values())
    if total <= 0.0:
        raise AllZeroMass("atoms carry no positive mass")
    base_ids = [b for b in order if masses[b] > 0.0]
    sigma = [masses[b] for b in base_ids]
    fibers = {b: normalize_measure(grouped[b]) for b in base_ids}
    return FiberedMeasure(base_ids, sigma, fibers)
