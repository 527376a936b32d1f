"""Barycenters on fixed candidate supports: exact LPs and projected subgradient.

The objective is the weighted sum of p-th powers of the distances to the
inputs, which is convex in the target fiber weights.  q = p decouples into
one exact joint transportation LP per fiber; at q = inf the objective is
piecewise linear, and one exact minimax LP covers all fibers.  p < q < inf is
solved by projected subgradient descent on the weight simplices.  Every solve
also returns the dual certificate of its minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import BaseMismatch, EmptySupport, SupportViolation
from .measures import DiscreteMeasure, FiberedMeasure, GroundCost
from .metric import CostTable, DisintConfig, cost_at, lq_norm, scrmk
from .ot import coupling_rows, highs, transport
from .tolerances import (
    CERT_EVERY,
    CERT_TOL,
    LAMBDA_TOL,
    MAX_ITER,
    PROBE_DIST_TOL,
    PROBE_EXACT_VALUE_TOL,
    PROBE_VALUE_TOL,
    ZETA_FLOOR,
)

if TYPE_CHECKING:
    from .duality import DualCertificate


@dataclass(frozen=True)
class BarycenterProblem:
    """K >= 2 input measures, simplex weights, exponents, and candidate supports.

    ``support`` maps each base point to the candidate point ids the barycenter
    may charge; it defaults to every point of that fiber's cost matrix.
    ``costs`` accepts any cost table and is stored as a dict from each base
    point to its ground cost.
    """

    inputs: tuple[FiberedMeasure, ...]
    lambdas: np.ndarray
    config: DisintConfig
    costs: Mapping[str, GroundCost]
    support: Mapping[str, np.ndarray]

    def __post_init__(self):
        if len(self.inputs) < 2:
            raise ValueError("a barycenter problem needs at least two inputs")
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.size != len(self.inputs):
            raise ValueError("one lambda per input required")
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambdas must be finite")
        if lam.min() <= 0.0:
            raise ValueError("lambdas must be strictly positive")
        if abs(math.fsum(lam) - 1.0) > LAMBDA_TOL:
            raise ValueError("lambdas must sum to 1")
        object.__setattr__(self, "lambdas", lam)
        base = self.inputs[0]
        for other in self.inputs[1:]:
            if not base.same_base(other):
                raise BaseMismatch("inputs must share base points and base weights")
        costs = {b: cost_at(self.costs, b) for b in base.base_ids}
        sup = {}
        for b in base.base_ids:
            ids = np.asarray(self.support[b], dtype=np.int64)
            if ids.size == 0:
                raise EmptySupport(f"no candidate support at base point {b!r}")
            if ids.min() < 0 or ids.max() >= costs[b].n:
                raise SupportViolation(f"support ids out of range at {b!r}")
            sup[b] = np.unique(ids)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "support", sup)

    @property
    def K(self) -> int:
        return len(self.inputs)

    @property
    def base_ids(self) -> tuple[str, ...]:
        return self.inputs[0].base_ids

    @property
    def sigma(self) -> np.ndarray:
        return self.inputs[0].sigma


def make_problem(
    inputs: Sequence[FiberedMeasure],
    lambdas: Sequence[float],
    config: DisintConfig,
    costs: CostTable,
    support: Mapping[str, Sequence[int]] | None = None,
) -> BarycenterProblem:
    if support is None:
        support = {b: np.arange(cost_at(costs, b).n) for b in inputs[0].base_ids}
    return BarycenterProblem(
        inputs=tuple(inputs),
        lambdas=np.asarray(lambdas, dtype=np.float64),
        config=config,
        costs=costs,
        support={b: np.asarray(s, dtype=np.int64) for b, s in support.items()},
    )


_ONE_POINT_BASE = "base"


def classical_problem(
    mus: Sequence[DiscreteMeasure],
    cost: GroundCost,
    lambdas: Sequence[float],
    p: float,
    support: Sequence[int] | None = None,
    q: float | None = None,
) -> BarycenterProblem:
    """Wrap plain discrete measures as a one-point-base fibered problem."""
    fibered = [
        FiberedMeasure([_ONE_POINT_BASE], [1.0], {_ONE_POINT_BASE: mu}) for mu in mus
    ]
    cfg = DisintConfig(p, p if q is None else q)
    sup = None if support is None else {_ONE_POINT_BASE: np.asarray(support, dtype=np.int64)}
    return make_problem(fibered, lambdas, cfg, cost, sup)


@dataclass(frozen=True)
class BarycenterResult:
    minimizer: FiberedMeasure
    value: float
    per_k_distances: np.ndarray
    solver_log: dict
    certified: bool
    gap: float
    dual_bound: float | None
    certificate: DualCertificate


def _result(problem: BarycenterProblem, minimizer, value, log, **status) -> BarycenterResult:
    """Result at ``minimizer`` with the distance from every input to it."""
    dists = np.array([scrmk(mk, minimizer, problem.config, problem.costs) for mk in problem.inputs])
    return BarycenterResult(
        minimizer=minimizer, value=value, per_k_distances=dists, solver_log=log, **status
    )


def _candidate_in_support(problem: BarycenterProblem, candidate: FiberedMeasure):
    if not problem.inputs[0].same_base(candidate):
        raise BaseMismatch("candidate does not share the problem's base weights")
    for b in candidate.base_ids:
        extra = np.setdiff1d(candidate.fiber(b).point_ids, problem.support[b])
        if extra.size:
            raise SupportViolation(
                f"candidate charges points {extra.tolist()} outside the support at {b!r}"
            )


def objective(problem: BarycenterProblem, candidate: FiberedMeasure) -> float:
    """Weighted sum of p-th powers of distances from the inputs to candidate."""
    _candidate_in_support(problem, candidate)
    dists = [scrmk(mk, candidate, problem.config, problem.costs) for mk in problem.inputs]
    return math.fsum(lam * d**problem.config.p for lam, d in zip(problem.lambdas, dists))


def fiber_barycenter_lp(
    fibers: Sequence[DiscreteMeasure],
    cost: GroundCost,
    tau: np.ndarray,
    p: float,
    support: np.ndarray,
):
    """Joint transportation LP for one fiber.

    Variables are one coupling per input plus shared target weights w on the
    support; couplings are constrained to have their row marginals equal to
    the inputs and all column marginals equal to w.

    Returns (value, w, betas), where beta_k, the exact LP dual of the k-th
    input's column links, lives on the candidate support.  With alpha_k the
    duals of the k-th input's row marginals, they satisfy
    alpha_k(i) + beta_k(s) <= tau_k * d(i, s)**p and sum_k beta_k >= 0.
    """
    K = len(fibers)
    s = support.size
    sizes = np.array([len(f) for f in fibers])
    n_marg = int(sizes.sum())
    n_gamma = n_marg * s
    # rows: every input's row marginals, then per input s column links to w
    rows, cols, data = coupling_rows(sizes, np.full(K, s), np.full(K, n_gamma))
    blocks = [cost.powered_submatrix(f.point_ids, support, p).ravel() for f in fibers]
    cvec = np.concatenate([t * cp for t, cp in zip(tau, blocks)] + [np.zeros(s)])
    beq = np.concatenate([f.weights for f in fibers] + [np.zeros(K * s)])
    res = highs(cvec, (rows, cols, data, beq))
    w = np.maximum(res.x[n_gamma:], 0.0)
    betas = np.split(res.eqlin.marginals[n_marg:], K)
    value = math.fsum((cvec[:n_gamma] * res.x[:n_gamma]).tolist())
    return value, w, betas


def minimax_barycenter_lp(problem: BarycenterProblem):
    """Epigraph LP of the q = inf barycenter: min_w sum_k lambda_k max_b MK_p^p.

    One epigraph variable t_k per input bounds the cost of each (input,
    fiber) coupling.  Returns (value, weights, zeta): the optimum, the optimal
    w keyed by base point, and the rescaled K x B epigraph multipliers zeta.
    """
    p = problem.config.p
    K, B = problem.K, len(problem.base_ids)
    # variable layout: [gamma blocks (k major, fiber minor), w blocks, t (K)]
    blocks = [(mk.fiber(b), b) for mk in problem.inputs for b in problem.base_ids]
    m = np.array([len(f) for f, _ in blocks])
    s = np.array([problem.support[b].size for _, b in blocks])
    n_gamma = int((m * s).sum())
    w_off = n_gamma + np.cumsum(s[:B]) - s[:B]
    t_off = n_gamma + int(s[:B].sum())
    cvec = np.zeros(t_off + K)
    cvec[t_off:] = problem.lambdas

    # epigraph row k * B + i: <gamma_(k, b_i), cp> - t_k <= 0
    cp = [
        problem.costs[b].powered_submatrix(f.point_ids, problem.support[b], p).ravel()
        for f, b in blocks
    ]
    epi = np.arange(K * B)
    ub_rows = np.concatenate([np.repeat(epi, m * s), epi])
    ub_cols = np.concatenate([np.arange(n_gamma), t_off + epi // B])
    ub_data = np.concatenate(cp + [np.full(K * B, -1.0)])

    # each block's row marginals directly followed by its column links to w;
    # HiGHS returns other (equally optimal) multipliers for other row orders
    rows, cols, data = coupling_rows(m, s, np.tile(w_off, K))
    n_marg = int(m.sum())
    order = np.concatenate(
        [
            np.arange(n_marg) + np.repeat(np.cumsum(s) - s, m),
            np.arange(int(s.sum())) + np.repeat(np.cumsum(m), s),
        ]
    )
    beq = np.zeros(order.size)
    beq[order[:n_marg]] = np.concatenate([f.weights for f, _ in blocks])
    res = highs(cvec, (order[rows], cols, data, beq), (ub_rows, ub_cols, ub_data, np.zeros(K * B)))
    w = np.maximum(res.x[n_gamma:t_off], 0.0)
    weights = dict(zip(problem.base_ids, np.split(w, np.cumsum(s[: B - 1]))))
    value = math.fsum((problem.lambdas * res.x[t_off:]).tolist())
    # multipliers are <= 0 for a minimization; rescaled by lambda_k * sigma
    # they are the aligned zeta_k, of unit L^1(sigma) norm
    rho = np.maximum(-res.ineqlin.marginals.reshape(K, B), 0.0)
    zeta = np.maximum(rho / (problem.lambdas[:, None] * problem.sigma[None, :]), ZETA_FLOOR)
    zeta /= np.array([[lq_norm(row, problem.sigma, 1.0)] for row in zeta])
    return value, weights, zeta


def _assemble(problem: BarycenterProblem, weights: Mapping[str, np.ndarray]) -> FiberedMeasure:
    # DiscreteMeasure drops the support points of weight zero
    fibers = {b: DiscreteMeasure(problem.support[b], weights[b]) for b in problem.base_ids}
    return FiberedMeasure(problem.base_ids, problem.sigma, fibers)


def classical_barycenter(problem: BarycenterProblem) -> BarycenterResult:
    """Global barycenter over measures on the support, by one joint LP.

    Requires a one-point base; the optimum is exact.
    """
    if len(problem.base_ids) != 1:
        raise BaseMismatch("classical barycenter expects a one-point base")
    return _lp_barycenter(problem)


def _lp_route(problem: BarycenterProblem) -> bool:
    """Whether an exact LP solves the problem: q = p or q = inf."""
    return problem.config.q == problem.config.p or math.isinf(problem.config.q)


def fiber_lps(problem: BarycenterProblem, zeta: np.ndarray):
    """Each fiber's joint LP at tau = lambda * zeta[:, i]: values, weights, betas by base point."""
    values, weights, betas = {}, {}, {}
    for i, b in enumerate(problem.base_ids):
        values[b], weights[b], betas[b] = fiber_barycenter_lp(
            [mk.fiber(b) for mk in problem.inputs],
            problem.costs[b],
            problem.lambdas * zeta[:, i],
            problem.config.p,
            problem.support[b],
        )
    return values, weights, betas


def _lp_weights(problem: BarycenterProblem):
    """Optimal weights keyed by base point, LP value, solver log, and the duals zeta, betas.

    One minimax LP at q = inf (no betas); else one joint LP per fiber at zeta = 1.
    """
    if math.isinf(problem.config.q):
        value, weights, zeta = minimax_barycenter_lp(problem)
        return weights, value, {"method": "minimax_lp"}, zeta, None
    zeta = np.ones((problem.K, len(problem.base_ids)))
    fiber_values, weights, betas = fiber_lps(problem, zeta)
    value = math.fsum(s * v for s, v in zip(problem.sigma, fiber_values.values()))
    return weights, value, {"method": "joint_lp", "fiber_values": fiber_values}, zeta, betas


def _lp_barycenter(problem: BarycenterProblem) -> BarycenterResult:
    from . import duality  # deferred: duality builds on this module's LP helpers

    weights, value, log, zeta, betas = _lp_weights(problem)
    minimizer = _assemble(problem, weights)
    cert = duality.extract_certificate(problem, minimizer, zeta, betas)
    return _result(
        problem, minimizer, value, log, certified=True, gap=0.0, dual_bound=value, certificate=cert
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorting algorithm)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    idx = np.nonzero(u + (1.0 - css) / ks > 0.0)[0]
    k = int(idx[-1]) + 1
    tau = (1.0 - css[k - 1]) / k
    return np.maximum(v + tau, 0.0)


def disint_barycenter(
    problem: BarycenterProblem,
    start: Mapping[str, np.ndarray] | None = None,
    max_iter: int = MAX_ITER,
    tol: float = CERT_TOL,
) -> BarycenterResult:
    """Barycenter in the disintegrated metric.

    q = p (per-fiber LPs) and q = inf (one minimax LP) return the exact LP
    optimum with gap 0 and ignore ``start``, ``max_iter`` and ``tol``.  For
    p < q < inf projected subgradient descent with steps c/sqrt(iter) stops
    once a dual certificate bounds the gap by tol * (1 + value).  The
    certificate is checked at the first iteration and then every CERT_EVERY
    iterations (:mod:`disot.tolerances`).  Hitting the iteration cap returns
    the best iterate flagged as non-certified.  On this route a ``max_iter``
    below 1 or a NaN or negative ``tol`` raises ValueError.

    ``certificate`` is the dual certificate at the minimizer, from the LP
    duals or from the last check (extracted anew if the minimizer moved since);
    ``dual_bound`` stays the best bound over the checks.
    """
    if _lp_route(problem):
        return _lp_barycenter(problem)
    return _subgradient_barycenter(problem, start, max_iter, tol)


def _subgradient_barycenter(problem, start, max_iter, tol):
    from . import duality  # deferred: duality builds on this module's LP helpers

    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    # written so that a NaN tol fails
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    p, r = problem.config.p, problem.config.r
    base_ids = problem.base_ids
    sigma = problem.sigma
    K = problem.K
    lambdas = problem.lambdas
    supports = problem.support

    # cost blocks per (k, fiber): input support x candidate support, p-th power
    cp = {}
    for k, mk in enumerate(problem.inputs):
        for b in base_ids:
            cp[(k, b)] = problem.costs[b].powered_submatrix(mk.fiber(b).point_ids, supports[b], p)

    if start is None:
        w = {b: np.full(supports[b].size, 1.0 / supports[b].size) for b in base_ids}
    else:
        w = {b: project_simplex(np.asarray(start[b], dtype=np.float64)) for b in base_ids}

    best_val = math.inf
    best_w = None
    cert_w = cert = None  # the weights of the last check and their certificate
    dual_bound = -math.inf
    step_scale = None
    certified = False
    gap = math.inf
    trace = []

    it = 0
    for it in range(1, max_iter + 1):
        # per-(k, fiber) p-th power costs (K x fibers) and column duals at w
        fmat = np.empty((K, len(base_ids)))
        duals = {b: [] for b in base_ids}
        for i, b in enumerate(base_ids):
            for k, mk in enumerate(problem.inputs):
                fmat[k, i], _, _, v, _ = transport(cp[(k, b)], mk.fiber(b).weights, w[b])
                duals[b].append(v)
        per_k_norm = np.array([lq_norm(fmat[k], sigma, r) for k in range(K)])
        obj = math.fsum(lambdas * per_k_norm)
        if obj < best_val:
            best_val = obj
            best_w = {b: w[b].copy() for b in base_ids}

        grad = {b: np.zeros(supports[b].size) for b in base_ids}
        for k in range(K):
            nk = per_k_norm[k]
            if nk <= 0.0:
                continue
            coeff = sigma * fmat[k] ** (r - 1.0) * nk ** (1.0 - r)
            for i, b in enumerate(base_ids):
                if coeff[i] != 0.0:
                    grad[b] += lambdas[k] * coeff[i] * duals[b][k]

        gnorm = math.sqrt(math.fsum(float(g @ g) for g in grad.values()))
        if gnorm == 0.0:
            # zero subgradient of a convex objective: the iterate is optimal
            best_val, best_w = obj, {b: w[b].copy() for b in base_ids}
            certified = True
            gap = 0.0
            dual_bound = max(dual_bound, obj)
            break
        if step_scale is None:
            step_scale = obj / gnorm

        if it == 1 or it % CERT_EVERY == 0:
            if best_w is not cert_w:
                cert_w = best_w
                cert = duality.extract_certificate(problem, _assemble(problem, best_w))
                dual_bound = max(dual_bound, duality.eval_dual(cert, problem))
            gap = best_val - dual_bound
            trace.append((it, best_val, dual_bound))
            if gap <= tol * (1.0 + abs(best_val)):
                certified = True
                break

        step = step_scale / math.sqrt(it)
        if dual_bound > -math.inf and obj > dual_bound:
            # Polyak step toward the certified lower bound; the bound only
            # underestimates the optimum, so this remains convergent and is
            # much faster than the plain c/sqrt(iter) tail
            step = (obj - dual_bound) / (gnorm * gnorm)
        for b in base_ids:
            w[b] = project_simplex(w[b] - step * grad[b])

    log = {
        "method": "projected_subgradient",
        "iterations": it,
        "trace": trace[-20:],
        "max_iter_exceeded": not certified,
    }
    minimizer = _assemble(problem, best_w)
    if best_w is not cert_w:
        cert = duality.extract_certificate(problem, minimizer)
    return _result(
        problem,
        minimizer,
        best_val,
        log,
        certified=certified,
        gap=gap,
        dual_bound=dual_bound if dual_bound > -math.inf else None,
        certificate=cert,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Collection of equal-value minimizers found by randomized re-solving."""

    values: tuple[float, ...]
    max_pairwise_distance: float
    witness: bool
    n_candidates: int


def _resolve(
    problem: BarycenterProblem, rng, radius: float, mode: str, max_iter: int, tol: float
):
    """One randomized re-solve: objective tilt, random start, or support subset.

    The tilt serves the LP routes (q = p, q = inf) and the random start the
    subgradient route (p < q < inf); ``max_iter`` and ``tol`` bound the
    subgradient solves.
    """
    if mode == "tilt":
        tilted = {}
        for b in problem.base_ids:
            # tilt the LP objective multiplicatively; minimizers of the tilted
            # LP that keep the original objective value witness the optimal face
            d = problem.costs[b].d
            tilt = 1.0 + radius * rng.random(d.shape)
            tilt = (tilt + tilt.T) / 2.0
            np.fill_diagonal(tilt, 1.0)
            tilted[b] = GroundCost(d * tilt)
        weights = _lp_weights(replace(problem, costs=tilted))[0]
        return _assemble(problem, weights)
    if mode == "support":
        sub_support = {}
        for b in problem.base_ids:
            keep = rng.random(problem.support[b].size) < 0.5
            sub_support[b] = problem.support[b][keep]
            if sub_support[b].size == 0:
                sub_support[b] = problem.support[b]
        sub = replace(problem, support=sub_support)
        return disint_barycenter(sub, max_iter=max_iter, tol=tol).minimizer
    # random feasible start for the subgradient path
    start = {
        b: rng.dirichlet(np.ones(problem.support[b].size)) for b in problem.base_ids
    }
    return disint_barycenter(problem, start=start, max_iter=max_iter, tol=tol).minimizer


def uniqueness_probe(
    problem: BarycenterProblem,
    result: BarycenterResult,
    trials: int,
    radius: float,
    seed: int = 0,
    max_iter: int = MAX_ITER,
    tol: float = CERT_TOL,
) -> ProbeReport:
    """Empirical probe for minimizer uniqueness.

    Re-solves from randomized starts (objective tilts of size ``radius`` on
    the LP routes q = p and q = inf, random subgradient starts for
    p < q < inf) and from random support subsets, and also tries each input
    measure as a candidate.  Minimizers within PROBE_EXACT_VALUE_TOL (LP
    routes) or PROBE_VALUE_TOL (p < q < inf) of the best value, relative to
    1 + |value|, are collected and their maximum pairwise distance reported;
    a distance above PROBE_DIST_TOL at equal value is a nonuniqueness witness
    (all three in :mod:`disot.tolerances`).  ``max_iter`` and ``tol`` are
    passed to every subgradient re-solve, as to :func:`disint_barycenter`.
    """
    rng = np.random.default_rng(seed)
    exact = _lp_route(problem)
    rel = PROBE_EXACT_VALUE_TOL if exact else PROBE_VALUE_TOL
    value_tol = rel * (1.0 + abs(result.value))

    candidates: list[FiberedMeasure] = [result.minimizer]
    for mk in problem.inputs:
        try:
            _candidate_in_support(problem, mk)
        except SupportViolation:
            continue
        candidates.append(mk)
    for t in range(trials):
        if exact:
            mode = "tilt" if t % 2 == 0 else "support"
        else:
            mode = "start" if t % 2 == 0 else "support"
        candidates.append(_resolve(problem, rng, radius, mode, max_iter, tol))

    values = np.array([objective(problem, c) for c in candidates])
    best = float(values.min())
    keep = [c for c, v in zip(candidates, values) if v <= best + value_tol]
    kept_values = tuple(float(v) for v in values if v <= best + value_tol)

    max_dist = 0.0
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            d = scrmk(keep[i], keep[j], problem.config, problem.costs)
            max_dist = max(max_dist, d)
    return ProbeReport(
        values=kept_values,
        max_pairwise_distance=max_dist,
        witness=max_dist > PROBE_DIST_TOL,
        n_candidates=len(keep),
    )
