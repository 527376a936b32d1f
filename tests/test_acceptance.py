"""Acceptance suite: one test per criterion, tolerances pinned in the asserts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either produced by an independent oracle
inside the test (brute-force enumeration, exhaustive grid search), verified
closed-form arithmetic, or a structural identity.
"""

import itertools
import math
import time

import numpy as np
import pytest

from disot.barycenter import (
    classical_barycenter,
    classical_problem,
    disint_barycenter,
    make_problem,
    objective,
    uniqueness_probe,
)
from disot.duality import (
    DualCertificate,
    duality_gap,
    eval_dual,
    validate_certificate,
)
from disot.instances import interval_pair, shared_fiber_nonuniqueness, tent_potential
from disot.measures import DiscreteMeasure, FiberedMeasure, GroundCost
from disot.metric import DisintConfig, scrmk
from disot.ot import brute_force_ot, c_transform, coupling_is_deterministic, solve_ot, transport

from conftest import metric_cost, random_fibered_instance, random_measure


def line_cost(points):
    pts = np.asarray(points, dtype=np.float64)
    return GroundCost(np.abs(pts[:, None] - pts[None, :]))


def test_criterion_1_interval_pair_reproduction():
    """Two-interval p=1 barycenter: value, both minimizers, explicit dual, distance 3."""
    t0 = time.perf_counter()
    inst = interval_pair(50)
    problem = inst.problem()
    result = classical_barycenter(problem)

    assert result.value == pytest.approx(1.5, abs=0.02)

    base = problem.base_ids[0]
    nu0 = FiberedMeasure([base], [1.0], {base: inst.nu0})
    nu1 = FiberedMeasure([base], [1.0], {base: inst.nu1})
    obj0 = objective(problem, nu0)
    obj1 = objective(problem, nu1)
    assert abs(obj0 - result.value) <= 0.02
    assert abs(obj1 - result.value) <= 0.02

    cert = inst.explicit_certificate(problem)
    assert validate_certificate(cert, problem).ok
    dual = eval_dual(cert, problem)
    assert dual == pytest.approx(1.5, abs=0.02)

    d01 = solve_ot(inst.nu0, inst.nu1, inst.cost, 1.0).value_p
    assert d01 == pytest.approx(3.0, abs=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"[criterion 1] PASS value={result.value:.6f} dual={dual:.6f} "
        f"obj(nu0)={obj0:.6f} obj(nu1)={obj1:.6f} mk1={d01:.12f} ({elapsed:.2f}s)"
    )


def test_criterion_2_shared_fiber_nonuniqueness():
    """q=inf: two constructed candidates tie to 1e-6 and sit > 0.1 apart."""
    t0 = time.perf_counter()
    inst = shared_fiber_nonuniqueness()
    problem = inst.problem(p=2.0)
    obj_a = objective(problem, inst.candidate_uniform_mid)
    obj_b = objective(problem, inst.candidate_modified)
    dist = scrmk(
        inst.candidate_uniform_mid, inst.candidate_modified, problem.config, problem.costs
    )
    assert abs(obj_a - obj_b) <= 1e-6
    assert dist > 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"[criterion 2] PASS objectives=({obj_a:.8f}, {obj_b:.8f}) "
        f"distance={dist:.4f} ({elapsed:.2f}s)"
    )


def test_criterion_3_strong_duality_at_q_equals_p():
    """20 random instances, K=3, p=q=2: extracted certificates close the gap."""
    worst = -math.inf
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        fibers = int(rng.integers(2, 5))
        ms, costs = random_fibered_instance(rng, 3, fibers, 6)
        lam = rng.dirichlet(np.ones(3))
        problem = make_problem(ms, lam, DisintConfig(2.0, 2.0), costs)
        result = disint_barycenter(problem)
        cert = result.certificate
        assert np.all(cert.zeta == 1.0), "q = p extraction must use unit base weights"
        report = duality_gap(problem, result, cert)
        assert report.certified
        assert report.gap <= 1e-7
        assert report.gap >= -1e-9
        worst = max(worst, report.gap)
    print(f"[criterion 3] PASS 20 instances, worst gap = {worst:.3e}")


def test_criterion_4_weak_duality_everywhere():
    """100 (instance, certificate) pairs over p in {1,2,3}, q in {p,2p,inf}."""
    checks = 0
    violations = 0
    pair_idx = 0
    for p in (1.0, 2.0, 3.0):
        for q in (p, 2.0 * p, math.inf):
            per_cell = 12 if (p, q) != (3.0, math.inf) else 4  # 9 cells -> 100 pairs
            for _ in range(per_cell):
                rng = np.random.default_rng(4000 + pair_idx)
                pair_idx += 1
                K = int(rng.integers(2, 4))
                ms, costs = random_fibered_instance(rng, K, 2, 3, full_support=True)
                lam = rng.dirichlet(np.ones(K))
                problem = make_problem(ms, lam, DisintConfig(p, q), costs)
                # random feasible certificate: zeta = 1, potentials summing to zero
                zeta = np.ones((K, len(problem.base_ids)))
                xi = [dict() for _ in range(K)]
                for b in problem.base_ids:
                    s = problem.support[b].size
                    acc = np.zeros(s)
                    for k in range(K - 1):
                        xi[k][b] = rng.normal(size=s)
                        acc += xi[k][b]
                    xi[K - 1][b] = -acc
                cert = DualCertificate(problem.base_ids, zeta, tuple(xi))
                assert validate_certificate(cert, problem).ok
                dual = eval_dual(cert, problem)
                candidates = list(ms)
                uniform = FiberedMeasure(
                    problem.base_ids,
                    problem.sigma,
                    {
                        b: DiscreteMeasure(problem.support[b], np.full(3, 1 / 3))
                        for b in problem.base_ids
                    },
                )
                randomw = FiberedMeasure(
                    problem.base_ids,
                    problem.sigma,
                    {
                        b: DiscreteMeasure(problem.support[b], rng.dirichlet(np.ones(3)))
                        for b in problem.base_ids
                    },
                )
                candidates += [uniform, randomw]
                for cand in candidates:
                    checks += 1
                    if dual > objective(problem, cand) + 1e-9:
                        violations += 1
    assert pair_idx == 100
    assert violations == 0
    print(f"[criterion 4] PASS 100 pairs, {checks} candidate checks, 0 violations")


def test_criterion_5_oracle_equivalence():
    """solve_ot vs brute-force enumeration on 200 instances within the bounds."""
    worst = 0.0
    count = 0
    for seed in range(140):
        rng = np.random.default_rng(5000 + seed)
        n_pts = int(rng.integers(2, 9))
        kind = "square" if seed % 3 == 0 else "interval"
        cost = metric_cost(rng, n_pts, kind)
        mu = random_measure(rng, n_pts, max_atoms=4)
        nu = random_measure(rng, n_pts, max_atoms=4)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        got = solve_ot(mu, nu, cost, p).value_p
        want = brute_force_ot(mu, nu, cost, p)
        worst = max(worst, abs(got - want))
        count += 1
    for seed in range(60):
        rng = np.random.default_rng(5500 + seed)
        n = int(rng.integers(2, 9)) if seed % 6 else 8
        cost = metric_cost(rng, 2 * n, "square")
        ids = rng.permutation(2 * n)
        mu = DiscreteMeasure(ids[:n], np.full(n, 1.0 / n))
        nu = DiscreteMeasure(ids[n:], np.full(n, 1.0 / n))
        p = float(rng.choice([1.0, 2.0]))
        got = solve_ot(mu, nu, cost, p).value_p
        want = brute_force_ot(mu, nu, cost, p)
        worst = max(worst, abs(got - want))
        count += 1
    assert count == 200
    assert worst <= 1e-9
    print(f"[criterion 5] PASS 200 instances, worst |solve - oracle| = {worst:.3e}")


def test_criterion_6_metric_axioms():
    """Symmetry exact, triangle within 1e-9, q-monotonicity on 100 triples."""
    worst_tri = -math.inf
    worst_mono = -math.inf
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        fibers = int(rng.integers(2, 4))
        (a, b, c), costs = random_fibered_instance(rng, 3, fibers, 4)
        values = {}
        for p, q in ((1.0, 1.0), (2.0, 2.0), (2.0, 4.0), (2.0, math.inf)):
            cfg = DisintConfig(p, q)
            dab = scrmk(a, b, cfg, costs)
            dba = scrmk(b, a, cfg, costs)
            assert dab == dba, "symmetry must be exact"
            dac = scrmk(a, c, cfg, costs)
            dcb = scrmk(c, b, cfg, costs)
            worst_tri = max(worst_tri, dab - (dac + dcb))
            assert dab <= dac + dcb + 1e-9
            values[(p, q)] = dab
        # q-monotonicity within fixed p across the corpus configs
        chain = [values[(2.0, 2.0)], values[(2.0, 4.0)], values[(2.0, math.inf)]]
        for lo, hi in zip(chain, chain[1:]):
            worst_mono = max(worst_mono, lo - hi)
            assert lo <= hi + 1e-12
    print(
        f"[criterion 6] PASS 100 triples x 4 configs, "
        f"worst triangle slack = {worst_tri:.3e}, worst monotonicity slack = {worst_mono:.3e}"
    )


def test_criterion_7_decoupling():
    """disint barycenter at q = p equals the sigma-weighted per-fiber LP values."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        K = int(rng.integers(2, 4))
        fibers = int(rng.integers(2, 4))
        ms, costs = random_fibered_instance(rng, K, fibers, 4)
        lam = rng.dirichlet(np.ones(K))
        p = float(rng.choice([1.0, 2.0]))
        problem = make_problem(ms, lam, DisintConfig(p, p), costs)
        joint = disint_barycenter(problem)
        agg = []
        for i, b in enumerate(problem.base_ids):
            sub = classical_problem(
                [mk.fiber(b) for mk in ms], costs[b], lam, p=p, support=problem.support[b]
            )
            agg.append(float(ms[0].sigma[i]) * classical_barycenter(sub).value)
        diff = abs(joint.value - math.fsum(agg))
        worst = max(worst, diff)
        assert diff <= 1e-9
    print(f"[criterion 7] PASS 20 instances, worst |joint - aggregated| = {worst:.3e}")


def test_criterion_8_transform_identities():
    """Triple transform fixes S xi, double transform lower-bounds xi; exact tent case."""
    worst_fix = 0.0
    worst_bound = -math.inf
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(2, 9))
        cost = metric_cost(rng, n, "square" if seed % 2 else "interval")
        lam = float(rng.uniform(0.05, 1.0))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        xi = rng.normal(size=n) * float(rng.uniform(0.1, 4.0))
        s1 = c_transform(xi, lam, p, cost)
        s2 = c_transform(s1, lam, p, cost)
        s3 = c_transform(s2, lam, p, cost)
        worst_fix = max(worst_fix, float(np.max(np.abs(s3 - s1))))
        worst_bound = max(worst_bound, float(np.max(s2 - xi)))
        assert np.max(np.abs(s3 - s1)) <= 1e-12
        assert np.all(s2 <= xi + 1e-12)
    # 1-Lipschitz profile on a dyadic grid of [-4, 4]: transform is exact negation
    grid = np.arange(-64, 65) / 16.0
    cost = line_cost(grid)
    phi = tent_potential(grid)
    s_phi = c_transform(phi, 1.0, 1.0, cost)
    assert np.array_equal(s_phi, -phi), "S phi must equal -phi exactly"
    print(
        f"[criterion 8] PASS 100 potentials, worst |S3 - S1| = {worst_fix:.3e}, "
        f"worst S2 - xi = {worst_bound:.3e}; tent identity exact"
    )


def _grid_oracle_two_fibers(problem, steps=32):
    """Vectorized exhaustive search over per-fiber weight simplices."""
    p, q = problem.config.p, problem.config.q
    r = q / p
    b1, b2 = problem.base_ids
    sigma = problem.sigma

    def grid(dim):
        out = []
        for combo in itertools.combinations_with_replacement(range(dim), steps):
            w = np.zeros(dim)
            for c in combo:
                w[c] += 1.0 / steps
            out.append(w)
        return out

    grids = {b: grid(problem.support[b].size) for b in (b1, b2)}
    fvals = {}
    for k, mk in enumerate(problem.inputs):
        for b in (b1, b2):
            f = mk.fiber(b)
            sub = problem.costs[b].submatrix(f.point_ids, problem.support[b])
            cp = sub if p == 1.0 else sub**p
            fvals[(k, b)] = np.array([transport(cp, f.weights, w)[0] for w in grids[b]])
    total = np.zeros((len(grids[b1]), len(grids[b2])))
    for k in range(problem.K):
        nk = (
            sigma[0] * fvals[(k, b1)][:, None] ** r + sigma[1] * fvals[(k, b2)][None, :] ** r
        ) ** (1.0 / r)
        total += float(problem.lambdas[k]) * nk
    return float(total.min())


def test_criterion_9_subgradient_certification():
    """p=2, q=4 solver certifies at 1e-3 relative and matches grid search."""
    worst_gap_ratio = 0.0
    worst_dev = 0.0
    for seed in range(10):
        rng = np.random.default_rng(9000 + seed)
        ms, costs = random_fibered_instance(rng, 2, 2, 3, full_support=True)
        lam = rng.dirichlet(np.ones(2))
        problem = make_problem(ms, lam, DisintConfig(2.0, 4.0), costs)
        result = disint_barycenter(problem, max_iter=10_000, tol=1e-3)
        assert result.certified, f"instance {seed} failed to certify"
        assert result.solver_log["iterations"] <= 10_000
        assert result.gap <= 1e-3 * (1.0 + abs(result.value))
        oracle = _grid_oracle_two_fibers(problem, steps=32)
        dev = abs(result.value - oracle)
        worst_dev = max(worst_dev, dev)
        worst_gap_ratio = max(worst_gap_ratio, result.gap / (1.0 + abs(result.value)))
        assert dev <= 2e-2
    print(
        f"[criterion 9] PASS 10 instances, worst certified gap ratio = {worst_gap_ratio:.2e}, "
        f"worst |value - grid oracle| = {worst_dev:.2e}"
    )


def test_criterion_10_uniqueness_probe():
    """p=2, q=2 with a 50-atom spread input: restarts coincide, coupling is a map."""
    n = 50
    g0 = (np.arange(n) + 0.5) / n
    g1 = g0 + 0.5
    gmid = g0 + 0.25
    pts = np.concatenate([g0, g1, gmid])
    cost = line_cost(pts)
    mu0 = DiscreteMeasure(np.arange(n), np.full(n, 1.0 / n))
    mu1 = DiscreteMeasure(np.arange(n, 2 * n), np.full(n, 1.0 / n))
    problem = classical_problem([mu0, mu1], cost, [0.5, 0.5], p=2.0)
    result = classical_barycenter(problem)

    probe = uniqueness_probe(problem, result, trials=10, radius=1e-9, seed=0)
    assert probe.n_candidates >= 2
    assert probe.max_pairwise_distance <= 1e-4
    assert not probe.witness

    # distinguished (spread) marginal: its optimal coupling must be a map on
    # these sorted 1-d supports
    ot = solve_ot(mu0, result.minimizer.fiber(problem.base_ids[0]), cost, 2.0)
    tmap = coupling_is_deterministic(ot.coupling, tol=1e-6)
    assert tmap is not None
    targets = [tmap[i] for i in sorted(tmap)]
    assert targets == sorted(targets), "map on sorted supports must be monotone"
    print(
        f"[criterion 10] PASS {probe.n_candidates} minimizers within "
        f"{probe.max_pairwise_distance:.2e}; deterministic monotone map found"
    )
