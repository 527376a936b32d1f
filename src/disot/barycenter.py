"""Barycenters on fixed candidate supports: exact LPs and projected subgradient.

The objective is the weighted sum of p-th powers of the distances to the
inputs, which is convex in the target fiber weights.  Every route asks one
question per fiber, the joint transportation LP at input weights tau, and
:func:`fiber_barycenter_lp` alone answers it: with two inputs by one exact
transport problem between them, with three or more by the multi-marginal
north-west corner where its own certificate proves it optimal, and
elsewhere by HiGHS on a restricted LP: the corner's cells and each atom's
cheapest support point, grown by pricing until no coupling column prices
below the transport pivot rule.  q = p decouples into one such LP per
fiber; at q = inf the objective is piecewise linear, and one exact minimax
LP covers all fibers.  p < q < inf is solved by projected subgradient
descent on the weight simplices.  Every solve also returns the dual certificate of its minimizer:
each route chooses its zeta, the fiber LPs at that zeta give the betas, and
:func:`disot.duality.extract_certificate` builds the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .duality import DualCertificate, eval_dual, extract_certificate
from .errors import BaseMismatch, EmptySupport, SupportOutOfRange, SupportViolation
from .measures import DiscreteMeasure, FiberedMeasure, GroundCost
from .metric import DisintConfig, cost_at, fiber_distance_profile, lq_norm, scrmk
from .ot import _common_mass, _dyadic_ints, coupling_rows, exact_transport, highs, transport
from .tolerances import (
    CERT_EVERY,
    CERT_TOL,
    LAMBDA_TOL,
    MAX_ITER,
    NW_SLACK_ULPS,
    OPT_TOL,
    PROBE_DIST_TOL,
    PROBE_EXACT_VALUE_TOL,
    PROBE_VALUE_TOL,
    ZETA_FLOOR,
    gap_allowance,
)


@dataclass(frozen=True)
class BarycenterProblem:
    """K >= 2 input measures, simplex weights, exponents, and candidate supports.

    The constructor converts every argument once: ``inputs`` to a tuple,
    ``lambdas`` to a float array, ``costs`` (any cost table) to a dict from
    each base point to its ground cost, and ``support``, a map from each base
    point to the candidate point ids the barycenter may charge, to sorted
    unique int arrays.  ``support`` defaults to every point of each fiber's
    cost matrix.  ``blocks[b][k]`` is the cost block d(f_k^b, support_b)**p
    from the k-th input's atoms at base point b to its candidate support,
    built once here for every solve on the problem.
    """

    inputs: tuple[FiberedMeasure, ...]
    lambdas: np.ndarray
    config: DisintConfig
    costs: Mapping[str, GroundCost]
    support: Mapping[str, np.ndarray] | None = None
    blocks: Mapping[str, tuple[np.ndarray, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inputs = tuple(self.inputs)
        if len(inputs) < 2:
            raise ValueError("a barycenter problem needs at least two inputs")
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.size != len(inputs):
            raise ValueError("one lambda per input required")
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambdas must be finite")
        if lam.min() <= 0.0:
            raise ValueError("lambdas must be strictly positive")
        if abs(math.fsum(lam) - 1.0) > LAMBDA_TOL:
            raise ValueError("lambdas must sum to 1")
        base = inputs[0]
        for other in inputs[1:]:
            if not base.same_base(other):
                raise BaseMismatch("inputs must share base points and base weights")
        costs = {b: cost_at(self.costs, b) for b in base.base_ids}
        for k, mk in enumerate(inputs):
            for b, f in mk.fibers.items():
                # atoms are sorted by point id, so the last is the largest
                if f.point_ids.size and int(f.point_ids[-1]) >= costs[b].n:
                    raise SupportOutOfRange(
                        f"input {k + 1} has atom {int(f.point_ids[-1])} at base point {b!r}, "
                        f"outside its point set of size {costs[b].n}"
                    )
        sup, blocks = {}, {}
        for b in base.base_ids:
            ids = np.arange(costs[b].n) if self.support is None else self.support[b]
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size == 0:
                raise EmptySupport(f"no candidate support at base point {b!r}")
            if ids.min() < 0 or ids.max() >= costs[b].n:
                raise SupportViolation(f"support ids out of range at {b!r}")
            sup[b] = np.unique(ids)
            blocks[b] = tuple(
                costs[b].powered_submatrix(mk.fiber(b).point_ids, sup[b], self.config.p)
                for mk in inputs
            )
        for name, value in (("inputs", inputs), ("lambdas", lam), ("costs", costs),
                            ("support", sup), ("blocks", blocks)):
            object.__setattr__(self, name, value)

    @property
    def K(self) -> int:
        return len(self.inputs)

    @property
    def base_ids(self) -> tuple[str, ...]:
        return self.inputs[0].base_ids

    @property
    def sigma(self) -> np.ndarray:
        return self.inputs[0].sigma


_ONE_POINT_BASE = "base"


def classical_problem(
    mus: Sequence[DiscreteMeasure],
    cost: GroundCost,
    lambdas: Sequence[float],
    p: float,
    support: Sequence[int] | None = None,
) -> BarycenterProblem:
    """Wrap plain discrete measures as a one-point-base fibered problem."""
    fibered = [FiberedMeasure([_ONE_POINT_BASE], [1.0], {_ONE_POINT_BASE: mu}) for mu in mus]
    sup = None if support is None else {_ONE_POINT_BASE: support}
    return BarycenterProblem(fibered, lambdas, DisintConfig(p, p), cost, sup)


@dataclass(frozen=True)
class BarycenterResult:
    minimizer: FiberedMeasure
    value: float
    per_k_distances: np.ndarray
    solver_log: dict
    certified: bool
    gap: float
    dual_bound: float
    certificate: DualCertificate


def _result(problem: BarycenterProblem, minimizer, value, log, profile=None, **status) -> BarycenterResult:
    """Result at ``minimizer`` with the distance from every input to it.

    ``profile``, each input's fiber distance profile to the minimizer where
    the caller has it, gives the distances as :func:`disot.metric.scrmk`
    would, without solving its transports again.
    """
    if profile is None:
        dists = np.array([scrmk(mk, minimizer, problem.config, problem.costs) for mk in problem.inputs])
    else:
        dists = np.array([lq_norm(pk, mk.sigma, problem.config.q)
                          for mk, pk in zip(problem.inputs, profile)])
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


# floats in one block of the m1 x m2 x s sums behind a pair cost (8 MB)
_PAIR_BLOCK = 1 << 20


def _pair_cost(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """C[i, j] = min over s of c1[i, s] + c2[j, s], a block of rows at a time."""
    m1, s = c1.shape
    m2 = c2.shape[0]
    step = max(1, _PAIR_BLOCK // (m2 * s))
    out = np.empty((m1, m2))
    for lo in range(0, m1, step):
        np.min(c1[lo : lo + step, None, :] + c2[None, :, :], axis=2, out=out[lo : lo + step])
    return out


def fiber_barycenter_lp(problem: BarycenterProblem, b: str, tau: np.ndarray):
    """Fiber b's joint transportation LP at input weights tau: (value, w, betas).

    The LP couples each input's fiber, of weights a_k, to shared weights w on
    the support at cost sum_k <gamma_k, c_k>, with c_k = tau_k *
    ``problem.blocks[b][k]``.  c and a are built here, once, and every solver
    below reads only them.  beta_k, an optimal dual of the k-th input's column
    links to w, satisfies alpha_k(i) + beta_k(s) <= c_k[i, s] with alpha_k
    optimal duals of its row marginals, and sum_k beta_k >= 0 up to the
    solver's tolerance.

    Two inputs make one transport problem between them on the pair cost
    C(i, j) = min_s c_1[i, s] + c_2[j, s] (Agueh & Carlier 2011).  The value
    is its optimal basis's exact value, w its plan pushed through the first
    minimizing s, and its potentials (u, v) give beta_1(s) = min_i c_1[i, s]
    - u_i and beta_2(s) = min_j c_2[j, s] - v_j.  More inputs walk the
    multi-marginal north-west corner once (:func:`_northwest_walk`).  Its plan
    is the answer where its own certificate proves it optimal
    (:func:`_northwest_lp`); elsewhere its cells seed the restricted LP that
    HiGHS solves with pricing (:func:`_joint_lp`).
    """
    c = [t * blk for t, blk in zip(tau, problem.blocks[b])]
    a = [mk.fiber(b).weights for mk in problem.inputs]
    if problem.K > 2:
        walk = _northwest_walk(c, a)
        found = _northwest_lp(c, walk)
        return _joint_lp(c, a, walk) if found is None else found
    c1, c2 = c
    value, gamma, u, v = exact_transport(_pair_cost(c1, c2), *a)
    rows, cols = np.nonzero(gamma)
    w = np.zeros(c1.shape[1])
    np.add.at(w, (c1[rows] + c2[cols]).argmin(axis=1), gamma[rows, cols])
    betas = [(c1 - u[:, None]).min(axis=0), (c2 - v[:, None]).min(axis=0)]
    return value, w, betas


def _northwest_walk(c: Sequence[np.ndarray], a: Sequence[np.ndarray]):
    """The multi-marginal north-west corner of weights a at costs c: (steps, mass).

    The walk visits K-tuples of input atoms in point-id order: each step moves
    the least residual mass to the tuple's first minimizing s, then advances
    the first exhausted input; ties insert tuples of zero mass.  Each step is
    (k, idx, s, t): the input k that advanced into the tuple idx (None at the
    first), s, and the mass t it moves, an integer at the common mass
    ``mass`` of the weights a (:func:`disot.ot._common_mass`).  Its
    plan, t / mass on the cell (k, idx[k], s) of every input k, is feasible
    for the fiber LP.
    """
    K = len(c)
    left, mass = _common_mass(*a)
    last = [len(r) - 1 for r in left]
    idx = [0] * K
    steps = []
    k = None
    while True:
        s = int(sum(ck[i] for ck, i in zip(c, idx)).argmin())
        t = min(r[i] for r, i in zip(left, idx))
        steps.append((k, tuple(idx), s, t))
        for r, i in zip(left, idx):
            r[i] -= t
        k = next((k for k in range(K) if left[k][idx[k]] == 0 and idx[k] < last[k]), None)
        if k is None:
            return steps, mass
        idx[k] += 1


def _northwest_lp(c: Sequence[np.ndarray], walk):
    """:func:`fiber_barycenter_lp` by the north-west corner ``walk`` at costs c, or None.

    The fiber LP equals the multi-marginal transport over K-tuples of input
    atoms at cost C(i_1..i_K) = min_s sum_k c_k[i_k, s].  Where every c_k is
    Monge in point order, as |x - s|^p is on the line, C is submodular and the
    comonotone north-west corner plan is optimal (Carlier 2003; Bein, Brucker,
    Park & Pathak 1995).

    The path potentials phi_k, with sum_k phi_k(i_k) = C on every visited
    tuple, give beta_k(s) = min_i c_k[i, s] - phi_k(i).  They prove the plan
    optimal when sum_k beta_k >= 0, the joint LP's one remaining dual row; the
    check allows NW_SLACK_ULPS ulps of K * max|c_k| of float rounding, and
    None says it failed.  Masses at one common mass and costs as dyadic
    integers make the value and the potentials exact before their one
    rounding, as in :func:`disot.ot.exact_basis_value`.
    """
    steps, mass = walk
    K = len(c)
    ints, cs = _dyadic_ints([ck.item(i, s) for _, idx, s, _ in steps for ck, i in zip(c, idx)])
    tuple_cost = [sum(ints[j * K : (j + 1) * K]) for j in range(len(steps))]
    # each input advances one atom at a time, so its potentials grow by appends
    phi = [[tuple_cost[0]]] + [[0] for _ in range(K - 1)]
    w = [0] * c[0].shape[1]
    for j, (k, _, s, t) in enumerate(steps):
        if k is not None:
            phi[k].append(phi[k][-1] + tuple_cost[j] - tuple_cost[j - 1])
        w[s] += t
    betas = [(ck - np.array([x / cs for x in pk])[:, None]).min(axis=0) for ck, pk in zip(c, phi)]
    scale = K * max(float(ck.max(initial=0.0)) for ck in c)
    if float(sum(betas).min()) < -NW_SLACK_ULPS * math.ulp(scale):
        return None
    total = sum(t * ct for (*_, t), ct in zip(steps, tuple_cost))
    # int / int is correctly rounded; nonnegative costs make the optimum nonnegative
    return max(0.0, total / (mass * cs)), np.array([x / mass for x in w]), betas


def _joint_lp(c: Sequence[np.ndarray], a: Sequence[np.ndarray], walk):
    """:func:`fiber_barycenter_lp` at costs c and weights a by HiGHS on a restricted LP.

    The full LP has one coupling per input plus w as variables; its rows are
    every input's row marginals, then per input the column links of its
    coupling to w.  HiGHS first gets only some coupling columns: the cells of
    the north-west corner ``walk`` (:func:`_northwest_walk` at c and a), whose
    plan makes the restricted LP feasible, and each input atom's cheapest
    support point, beside every w column.  HiGHS's duals of the rows, alpha_k
    and beta_k, then price every coupling column at c_k[i, s] - alpha_k(i) -
    beta_k(s), and each column outside the LP priced below -OPT_TOL * largest
    |c_k|, the pivot rule of :func:`disot.ot.transport`, joins it for the next
    solve.  Columns only join, so the loop ends, at the latest with the full
    LP.  The columns keep the full LP's order, and the betas are HiGHS's duals
    of the links at the last solve.
    """
    K = len(c)
    s = c[0].shape[1]
    sizes = np.array([ck.shape[0] for ck in c])
    n_marg = int(sizes.sum())
    n_gamma = n_marg * s
    # column first[k] + i * s + j is input k's cell (i, j); its two rows are
    # rows[col] (marginal) and rows[n_gamma + col] (link)
    rows, cols, data = coupling_rows(sizes, np.full(K, s), np.full(K, n_gamma))
    first = s * (np.cumsum(sizes) - sizes)
    cvec = np.concatenate([ck.ravel() for ck in c] + [np.zeros(s)])
    beq = np.concatenate([*a, np.zeros(K * s)])
    tol = OPT_TOL * max(float(np.abs(ck).max(initial=0.0)) for ck in c)
    active = np.arange(n_gamma + s) >= n_gamma
    tuples = np.array([idx for _, idx, _, _ in walk[0]])
    targets = np.array([j for _, _, j, _ in walk[0]])
    active[first + tuples * s + targets[:, None]] = True
    for ck, f0 in zip(c, first):
        active[f0 + np.arange(ck.shape[0]) * s + ck.argmin(axis=1)] = True
    while True:
        keep = active[cols]
        renumber = np.cumsum(active) - 1
        res = highs(cvec[active], (rows[keep], renumber[cols[keep]], data[keep], beq))
        y = res.eqlin.marginals
        reduced = cvec[:n_gamma] - y[rows[:n_gamma]] - y[rows[n_gamma : 2 * n_gamma]]
        joins = ~active[:n_gamma] & (reduced < -tol)
        if not joins.any():
            break
        active[:n_gamma] |= joins
    w = np.maximum(res.x[-s:], 0.0)
    betas = np.split(y[n_marg:], K)
    value = math.fsum((cvec[active][:-s] * res.x[:-s]).tolist())
    return value, w, betas


def minimax_barycenter_lp(problem: BarycenterProblem):
    """Epigraph LP of the q = inf barycenter: min_w sum_k lambda_k max_b MK_p^p.

    One epigraph variable t_k per input bounds the cost of each (input,
    fiber) coupling.  Returns (value, weights, zeta): the optimum, the optimal
    w keyed by base point, and the rescaled K x B epigraph multipliers zeta.
    """
    K, B = problem.K, len(problem.base_ids)
    # variable layout: [gamma blocks (k major, fiber minor), w blocks, t (K)]
    cp = [problem.blocks[b][k] for k in range(K) for b in problem.base_ids]
    m = np.array([c.shape[0] for c in cp])
    s = np.array([c.shape[1] for c in cp])
    n_gamma = int((m * s).sum())
    w_off = n_gamma + np.cumsum(s[:B]) - s[:B]
    t_off = n_gamma + int(s[:B].sum())
    cvec = np.zeros(t_off + K)
    cvec[t_off:] = problem.lambdas

    # epigraph row k * B + i: <gamma_(k, b_i), cp> - t_k <= 0
    epi = np.arange(K * B)
    ub_rows = np.concatenate([np.repeat(epi, m * s), epi])
    ub_cols = np.concatenate([np.arange(n_gamma), t_off + epi // B])
    ub_data = np.concatenate([c.ravel() for c in cp] + [np.full(K * B, -1.0)])

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
    fibers = [mk.fiber(b) for mk in problem.inputs for b in problem.base_ids]
    beq[order[:n_marg]] = np.concatenate([f.weights for f in fibers])
    res = highs(cvec, (order[rows], cols, data, beq), (ub_rows, ub_cols, ub_data, np.zeros(K * B)))
    w = np.maximum(res.x[n_gamma:t_off], 0.0)
    weights = dict(zip(problem.base_ids, np.split(w, np.cumsum(s[: B - 1]))))
    value = math.fsum((problem.lambdas * res.x[t_off:]).tolist())
    # multipliers are <= 0 for a minimization; rescaled by lambda_k * sigma
    # they are the aligned zeta_k, of unit L^1(sigma) norm (r' = 1 at q = inf)
    rho = np.maximum(-res.ineqlin.marginals.reshape(K, B), 0.0)
    zeta = _unit_zeta(problem, rho / (problem.lambdas[:, None] * problem.sigma[None, :]))
    return value, weights, zeta


def _unit_zeta(problem: BarycenterProblem, raw: np.ndarray) -> np.ndarray:
    """K x B base weights floored at ZETA_FLOOR, each row scaled to unit L^{r'}(sigma) norm."""
    zeta = np.maximum(raw, ZETA_FLOOR)
    zeta /= np.array([[lq_norm(row, problem.sigma, problem.config.r_conj)] for row in zeta])
    return zeta


def _assemble(problem: BarycenterProblem, weights: Mapping[str, np.ndarray]) -> FiberedMeasure:
    # DiscreteMeasure drops the support points of weight zero
    fibers = {b: DiscreteMeasure(problem.support[b], weights[b]) for b in problem.base_ids}
    return FiberedMeasure(problem.base_ids, problem.sigma, fibers)


def classical_barycenter(problem: BarycenterProblem) -> BarycenterResult:
    """Global barycenter over measures on the support, by one joint LP.

    Requires a one-point base; the optimum is exact.
    """
    if len(problem.base_ids) != 1:
        raise BaseMismatch("classical barycenter expects a one-point base; use disint-bary instead")
    return _lp_barycenter(problem)


def _lp_route(problem: BarycenterProblem) -> bool:
    """Whether an exact LP solves the problem: q = p or q = inf."""
    return problem.config.q == problem.config.p or math.isinf(problem.config.q)


def fiber_lps(problem: BarycenterProblem, zeta: np.ndarray):
    """Each fiber's joint LP at tau = lambda * zeta[:, i]: values, weights, betas by base point."""
    values, weights, betas = {}, {}, {}
    for i, b in enumerate(problem.base_ids):
        tau = problem.lambdas * zeta[:, i]
        values[b], weights[b], betas[b] = fiber_barycenter_lp(problem, b, tau)
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
    weights, value, log, zeta, betas = _lp_weights(problem)
    if betas is None:  # the minimax LP: betas from the joint LPs at its zeta
        betas = fiber_lps(problem, zeta)[2]
    minimizer = _assemble(problem, weights)
    cert = extract_certificate(problem, zeta, betas)
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
    problem: BarycenterProblem, max_iter: int = MAX_ITER, tol: float = CERT_TOL
) -> BarycenterResult:
    """Barycenter in the disintegrated metric.

    q = p (per-fiber LPs) and q = inf (one minimax LP) return the exact LP
    optimum with gap 0 and ignore ``max_iter`` and ``tol``.  For p < q < inf
    projected subgradient descent, started from uniform weights on every
    fiber's support, takes Polyak steps toward the best certified dual bound
    and stops once a dual certificate bounds the gap by tol * (1 + value)
    (:func:`disot.tolerances.gap_allowance`).  The certificate is checked at
    the first iteration, every CERT_EVERY iterations, and at once when an
    iterate's value reaches the bound, which weak duality makes optimal.
    Hitting the iteration cap returns the best iterate flagged as
    non-certified.  On this route a ``max_iter`` below 1 or a NaN or negative
    ``tol`` raises ValueError.  Each iteration solves one transport per
    (fiber, input) from the input's atoms to the current weights at a fixed
    cost, warm-started from that transport's optimal tree at the previous
    iteration (the ``basis`` of :func:`disot.ot.transport`).  The uniqueness
    probe's random starts call the subgradient route directly.

    ``certificate`` is the dual certificate at the minimizer, from the LP
    duals or from the last check (extracted anew if the minimizer moved since);
    ``dual_bound`` stays the best bound over the checks, and ``gap`` is
    ``value - dual_bound`` at return.
    """
    if _lp_route(problem):
        return _lp_barycenter(problem)
    return _subgradient_barycenter(problem, None, max_iter, tol)


def _certificate_at(problem: BarycenterProblem, minimizer: FiberedMeasure):
    """Certificate at a p < q < inf minimizer, and each input's fiber distance profile to it.

    zeta is Hoelder-aligned with the profile; the betas come from the fiber
    LPs at that zeta.
    """
    p, q = problem.config.p, problem.config.q
    prof = [fiber_distance_profile(mk, minimizer, p, problem.costs) for mk in problem.inputs]
    zeta = _unit_zeta(problem, np.array(prof) ** (q - p))
    return extract_certificate(problem, zeta, fiber_lps(problem, zeta)[2]), prof


def _subgradient_barycenter(problem, start, max_iter, tol):
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    # written so that a NaN tol fails
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    r = problem.config.r
    base_ids = problem.base_ids
    sigma = problem.sigma
    K = problem.K
    lambdas = problem.lambdas
    supports = problem.support

    if start is None:
        w = {b: np.full(supports[b].size, 1.0 / supports[b].size) for b in base_ids}
    else:
        w = {b: project_simplex(start[b]) for b in base_ids}

    best_val, best_w = math.inf, None
    # the weights of the last check, their certificate and distance profile
    cert_w = cert = prof = None
    dual_bound = -math.inf
    certified = False
    trace = []
    # each (fiber, input) transport keeps its cost while w moves, so its last
    # optimal tree stays dual feasible and warm-starts the next solve
    trees = {}

    for it in range(1, max_iter + 1):
        # per-(k, fiber) p-th power costs (K x fibers) and column duals at w
        fmat = np.empty((K, len(base_ids)))
        duals = {b: [] for b in base_ids}
        for i, b in enumerate(base_ids):
            for k, mk in enumerate(problem.inputs):
                fmat[k, i], _, _, v, trees[b, k] = transport(
                    problem.blocks[b][k], mk.fiber(b).weights, w[b], basis=trees.get((b, k))
                )
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
            dual_bound = max(dual_bound, obj)
            break

        # at obj <= dual_bound weak duality makes the iterate optimal, and
        # the check certifies it
        if it == 1 or it % CERT_EVERY == 0 or obj <= dual_bound:
            if best_w is not cert_w:
                cert_w = best_w
                cert, prof = _certificate_at(problem, _assemble(problem, best_w))
                dual_bound = max(dual_bound, eval_dual(cert, problem))
            trace.append((it, best_val, dual_bound))
            if best_val - dual_bound <= gap_allowance(tol, best_val):
                certified = True
                break

        # Polyak step toward the certified lower bound, which only
        # underestimates the optimum
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
        cert, prof = _certificate_at(problem, minimizer)
    return _result(
        problem, minimizer, best_val, log, prof,
        certified=certified, gap=best_val - dual_bound, dual_bound=dual_bound, certificate=cert,
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
    """One randomized re-solve: objective tilt, support subset, or random start.

    Each mode only builds the perturbed problem (tilted costs, a random
    support subset, or a random start), which is then re-solved one way.
    The LP routes (q = p, q = inf), which the tilt serves, solve only the LP
    weights: a full solve's certificate and distances would be discarded.
    The subgradient route (p < q < inf), which the random start serves, is
    called directly with that start (``None`` in the other modes, for
    uniform weights) and solves within ``max_iter`` and ``tol``.
    """
    start = None
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
        problem = replace(problem, costs=tilted)
    elif mode == "support":
        # an empty draw keeps the whole support of its fiber
        keep = {b: rng.random(problem.support[b].size) < 0.5 for b in problem.base_ids}
        sub = {b: problem.support[b][k] if k.any() else problem.support[b] for b, k in keep.items()}
        problem = replace(problem, support=sub)
    else:
        start = {b: rng.dirichlet(np.ones(problem.support[b].size)) for b in problem.base_ids}
    if _lp_route(problem):
        return _assemble(problem, _lp_weights(problem)[0])
    return _subgradient_barycenter(problem, start, max_iter, tol).minimizer


def check_probe_settings(trials: int, radius: float) -> None:
    """Raise ValueError unless ``trials >= 0`` and ``radius`` is finite and ``>= 0``."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    # written so that a NaN radius fails
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")


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
    1 + |value| (:func:`disot.tolerances.gap_allowance`), are collected and their maximum pairwise distance reported;
    a distance above PROBE_DIST_TOL at equal value is a nonuniqueness witness
    (all three in :mod:`disot.tolerances`).  ``max_iter`` and ``tol`` are
    passed to every subgradient re-solve, as to :func:`disint_barycenter`.
    """
    check_probe_settings(trials, radius)
    rng = np.random.default_rng(seed)
    exact = _lp_route(problem)
    value_tol = gap_allowance(PROBE_EXACT_VALUE_TOL if exact else PROBE_VALUE_TOL, result.value)

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
