"""Dual certificates for barycenter problems: validation, evaluation, extraction.

A certificate is one pair (zeta_k, xi_k) per input: strictly positive base
weights zeta_k with unit-bounded L^{r'}(sigma) norm and per-fiber potentials
xi_k on the candidate support whose zeta-weighted sum vanishes pointwise.  Its
dual value, a transform-and-integrate functional, lower-bounds the barycenter
objective of every feasible candidate (weak duality); a zero gap certifies
optimality.

This module builds and checks certificates; it does not solve.  Each
barycenter solve (:mod:`disot.barycenter`) chooses the zeta and the per-fiber
betas of its route and hands them to :func:`extract_certificate` once, at the
minimizer it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import ShapeMismatch
from .measures import ValidationReport, Violation
from .metric import lq_norm
from .ot import c_transform
from .tolerances import CERT_TOL, EXACT_CERT_TOL, NORM_TOL, SUM_TOL, gap_allowance

if TYPE_CHECKING:
    from .barycenter import BarycenterProblem, BarycenterResult


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
    problem: BarycenterProblem, zeta: np.ndarray, betas: Mapping[str, Sequence[np.ndarray]]
) -> DualCertificate:
    """Build a feasible certificate from a solve's zeta (K x B) and per-fiber betas.

    betas[b][k] is an optimal dual of the k-th input's column links in the
    joint LP of fiber b = base_ids[i] at tau = lambda * zeta[:, i].  xi: per
    fiber, -beta_k / zeta_k; the first K-1 are tightened by a double
    transform, the K-th rebuilt to make the weighted sum vanish identically,
    and all are re-centered to vanish at the fiber's first support point
    (which changes no value).
    """
    p = problem.config.p
    K = problem.K
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

    The primal is sum_k lambda_k * d_k**p over the result's distances to the
    inputs, the barycenter objective at its minimizer.

    ``tol`` is relative: the gap passes when it is at most
    tol * (1 + |primal|) (:func:`disot.tolerances.gap_allowance`), which the
    report carries as its ``tol``.  It defaults to EXACT_CERT_TOL in the exact
    LP regime q = p and to CERT_TOL otherwise.  An invalid certificate yields
    dual = -inf and certified = False.  A NaN or negative ``tol`` raises
    ValueError.
    """
    if tol is None:
        tol = EXACT_CERT_TOL if problem.config.q == problem.config.p else CERT_TOL
    elif not tol >= 0.0:  # written so that a NaN tol fails
        raise ValueError(f"tol must be nonnegative, got {tol}")
    p = problem.config.p
    primal = math.fsum(lam * d**p for lam, d in zip(problem.lambdas, result.per_k_distances))
    tol = gap_allowance(tol, primal)
    report = validate_certificate(cert, problem)
    if not report.ok:
        return GapReport(primal=primal, dual=-math.inf, gap=math.inf, certified=False, tol=tol)
    dual = eval_dual(cert, problem)
    gap = primal - dual
    return GapReport(primal=primal, dual=dual, gap=gap, certified=bool(gap <= tol), tol=tol)
