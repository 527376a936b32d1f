"""Dual certificates for barycenter problems: validation, evaluation, extraction.

A certificate is one pair (zeta_k, xi_k) per input: strictly positive base
weights zeta_k with unit-bounded L^{r'}(sigma) norm and per-fiber potentials
xi_k on the candidate support whose zeta-weighted sum vanishes pointwise.  Its
dual value, a transform-and-integrate functional, lower-bounds the barycenter
objective of every feasible candidate (weak duality); a zero gap certifies
optimality.

Each barycenter solve extracts its certificate once, at the minimizer it
returns, from the duals it holds, and returns it as ``result.certificate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .barycenter import BarycenterProblem, BarycenterResult, fiber_lps, objective
from .errors import ShapeMismatch
from .measures import FiberedMeasure, ValidationReport, Violation
from .metric import fiber_distance_profile, lq_norm
from .ot import c_transform
from .tolerances import CERT_TOL, EXACT_CERT_TOL, NORM_TOL, SUM_TOL, ZETA_FLOOR


@dataclass(frozen=True)
class DualCertificate:
    """Feasible dual variables (zeta_k, xi_k), k = 1..K.

    ``zeta`` is K x B over the problem's base points; ``xi[k][base_id]`` holds
    one value per candidate support point of that fiber.  The derived product
    eta_k(w, v) = zeta_k(w) * xi_k(w, v) sums to zero over k at every (w, v).
    """

    base_ids: tuple[str, ...]
    zeta: np.ndarray
    xi: tuple[Mapping[str, np.ndarray], ...]

    @property
    def K(self) -> int:
        return len(self.xi)

    def to_dict(self) -> dict:
        return {
            "zeta": {
                str(k + 1): {b: float(self.zeta[k, i]) for i, b in enumerate(self.base_ids)}
                for k in range(self.K)
            },
            "xi": {
                str(k + 1): {b: [float(x) for x in self.xi[k][b]] for b in self.base_ids}
                for k in range(self.K)
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DualCertificate":
        zeta_map = payload["zeta"]
        xi_map = payload["xi"]
        ks = sorted(zeta_map, key=int)
        base_ids = tuple(zeta_map[ks[0]].keys())
        zeta = np.array([[float(zeta_map[k][b]) for b in base_ids] for k in ks])
        xi = tuple(
            {b: np.asarray(xi_map[k][b], dtype=np.float64) for b in base_ids} for k in ks
        )
        return cls(base_ids=base_ids, zeta=zeta, xi=xi)


@dataclass(frozen=True)
class GapReport:
    """Primal value, certified dual lower bound, and their difference."""

    primal: float
    dual: float
    gap: float
    certified: bool
    tol: float


def _check_shapes(cert: DualCertificate, problem: BarycenterProblem):
    if cert.base_ids != problem.base_ids:
        raise ShapeMismatch("certificate base points do not match the problem")
    if cert.zeta.shape != (problem.K, len(problem.base_ids)) or cert.K != problem.K:
        raise ShapeMismatch("certificate has the wrong number of inputs or base points")
    for k in range(problem.K):
        for b in problem.base_ids:
            if cert.xi[k][b].shape != (problem.support[b].size,):
                raise ShapeMismatch(f"xi[{k}][{b!r}] does not match the support size")


def validate_certificate(cert: DualCertificate, problem: BarycenterProblem) -> ValidationReport:
    """Check positivity, the L^{r'}(sigma) norm bound, and the pointwise sum.

    All violations are listed with their locations; no exceptions are raised
    for infeasibility, only for outright shape mismatches.
    """
    _check_shapes(cert, problem)
    out: list[Violation] = []
    r_conj = problem.config.r_conj
    sigma = problem.sigma
    for k in range(problem.K):
        row = cert.zeta[k]
        bad = np.nonzero(row <= 0.0)[0]
        for i in bad:
            out.append(
                Violation("positivity", (k, problem.base_ids[int(i)]), float(-row[int(i)]))
            )
        norm = lq_norm(row, sigma, r_conj)
        if norm > 1.0 + NORM_TOL:
            out.append(Violation("norm", (k,), float(norm - 1.0), f"|zeta_{k+1}| = {norm:.12g}"))
    for i, b in enumerate(problem.base_ids):
        total = np.zeros(problem.support[b].size)
        for k in range(problem.K):
            total += cert.zeta[k, i] * cert.xi[k][b]
        worst = int(np.abs(total).argmax()) if total.size else 0
        if total.size and abs(total[worst]) > SUM_TOL:
            out.append(
                Violation(
                    "sum",
                    (b, int(problem.support[b][worst])),
                    float(abs(total[worst])),
                    "sum_k zeta_k * xi_k != 0",
                )
            )
    return ValidationReport(tuple(out))


def eval_dual(cert: DualCertificate, problem: BarycenterProblem) -> float:
    """Dual functional value of a certificate.

    Per input and base point, the transform of xi_k is integrated against the
    input's fiber measure, weighted by zeta_k * sigma, summed and negated.
    Defined for any certificate of the right shape, feasible or not.
    """
    _check_shapes(cert, problem)
    p = problem.config.p
    terms = []
    for k, mk in enumerate(problem.inputs):
        lam = float(problem.lambdas[k])
        for i, b in enumerate(problem.base_ids):
            cost = problem.costs[b]
            transform = c_transform(cert.xi[k][b], lam, p, cost, domain=problem.support[b])
            f = mk.fiber(b)
            integral = float(np.dot(f.weights, transform[f.point_ids]))
            terms.append(cert.zeta[k, i] * problem.sigma[i] * integral)
    return -math.fsum(terms)


def extract_certificate(
    problem: BarycenterProblem,
    minimizer: FiberedMeasure,
    zeta: np.ndarray | None = None,
    betas: Mapping[str, Sequence[np.ndarray]] | None = None,
) -> DualCertificate:
    """Build a feasible certificate at a minimizer of the problem.

    zeta: as given by the solve (ones at q = p, where they attain the
    supremum; the minimax multipliers at q = inf), else (q < inf only) the
    Hoelder-aligned powers of the fiber distance profile to ``minimizer``.
    betas: the duals of the zeta-weighted joint LPs (``fiber_lps``), solved
    here when not given.  xi: per fiber, -beta_k / zeta_k; the first K-1 are
    tightened by a double transform, the K-th rebuilt to make the weighted
    sum vanish identically, and all are re-centered to vanish at the fiber's
    first support point (which changes no value).
    """
    p, q = problem.config.p, problem.config.q
    K = problem.K
    if zeta is None:
        if math.isinf(q):
            raise ValueError("a q = inf certificate takes zeta from the minimax LP")
        prof = [fiber_distance_profile(mk, minimizer, p, problem.costs) for mk in problem.inputs]
        raw = np.array([[d for _, d in pk] for pk in prof]) ** (q - p)
        zeta = np.maximum(raw, ZETA_FLOOR)
        zeta /= np.array([[lq_norm(row, problem.sigma, problem.config.r_conj)] for row in zeta])
    if betas is None:
        betas = fiber_lps(problem, zeta)[2]

    xi: list[dict[str, np.ndarray]] = [dict() for _ in range(K)]
    for i, b in enumerate(problem.base_ids):
        cost = problem.costs[b]
        support = problem.support[b]
        tightened = []
        for k in range(K - 1):
            lam = float(problem.lambdas[k])
            hat = -betas[b][k] / zeta[k, i]
            inner = c_transform(hat, lam, p, cost, domain=support)
            tightened.append(c_transform(inner, lam, p, cost)[support])
        last = np.zeros(support.size)
        for k in range(K - 1):
            last -= zeta[k, i] * tightened[k]
        tightened.append(last / zeta[K - 1, i])
        for k in range(K):
            xi[k][b] = tightened[k] - tightened[k][0]
    return DualCertificate(base_ids=problem.base_ids, zeta=zeta, xi=tuple(xi))


def duality_gap(
    problem: BarycenterProblem,
    result: BarycenterResult,
    cert: DualCertificate,
    tol: float | None = None,
) -> GapReport:
    """Primal objective at the result versus the certificate's dual value.

    ``tol`` is relative: the gap passes when it is at most
    tol * (1 + |primal|), which the report carries as its ``tol``.  It
    defaults to EXACT_CERT_TOL in the exact LP regime q = p and to CERT_TOL
    otherwise.  An invalid certificate yields dual = -inf and certified = False.
    A NaN or negative ``tol`` raises ValueError.
    """
    if tol is None:
        tol = EXACT_CERT_TOL if problem.config.q == problem.config.p else CERT_TOL
    elif not tol >= 0.0:  # written so that a NaN tol fails
        raise ValueError(f"tol must be nonnegative, got {tol}")
    primal = objective(problem, result.minimizer)
    tol = tol * (1.0 + abs(primal))
    report = validate_certificate(cert, problem)
    if not report.ok:
        return GapReport(primal=primal, dual=-math.inf, gap=math.inf, certified=False, tol=tol)
    dual = eval_dual(cert, problem)
    gap = primal - dual
    return GapReport(primal=primal, dual=dual, gap=gap, certified=bool(gap <= tol), tol=tol)
