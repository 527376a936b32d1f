"""Output checks for the benchmark's invocations.

``check_report`` judges one invocation from its exit status, its stdout and
the instance files it read, and returns a list of problems (empty when the
output is correct).  ``reference_values`` and ``check_reference`` compare the
reported numbers with values recorded for the default seed.  ``self_test``
corrupts good reports and confirms that each corruption is caught.

The checks use only the standard library: they must not depend on the code
they judge.  Reports print floats with 12 significant digits, so identities
between reported numbers hold to about 1e-12 relative; ``SLACK`` leaves room
for that rounding and for sums over a few hundred printed entries.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

SLACK = 1e-9
# relative agreement with the recorded values on exact routes (LP, ot)
EXACT_RTOL = 1e-12
# tolerances duality_gap applies by default, at q = p and at q > p
EXACT_GAP_REL = 1e-7
SUBGRADIENT_GAP_REL = 1e-3


def _close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _q_of(config: dict) -> float:
    """q from a report's config; float() also reads the "inf" the reports print."""
    return float(config.get("q", config.get("p")))


def _exact(config: dict) -> bool:
    return _q_of(config) == float(config["p"])


def _load(workdir: Path, name: str) -> dict:
    with open(workdir / name, encoding="utf-8") as fh:
        return json.load(fh)


def _normalized(atoms: list) -> tuple[list[int], list[float]]:
    """Point ids and weights as the program normalizes them (sorted, mass 1)."""
    merged: dict[int, float] = {}
    for a in atoms:
        merged[int(a["point"])] = merged.get(int(a["point"]), 0.0) + float(a["w"])
    ids = sorted(i for i, w in merged.items() if w > 0.0)
    total = math.fsum(merged[i] for i in ids)
    return ids, [merged[i] / total for i in ids]


class Problems(list):
    def need(self, cond: bool, msg: str) -> bool:
        if not cond:
            self.append(msg)
        return cond


def _require(rep: dict, keys: tuple[str, ...], where: str, out: Problems) -> bool:
    missing = [k for k in keys if k not in rep]
    return out.need(not missing, f"{where}: missing {', '.join(missing)}")


def _check_minimizer(minimizer: dict, where: str, out: Problems):
    for base, atoms in minimizer.items():
        ws = [float(a["w"]) for a in atoms]
        out.need(all(w > 0.0 for w in ws), f"{where}: non-positive weight at {base}")
        out.need(abs(math.fsum(ws) - 1.0) <= SLACK, f"{where}: fiber {base} mass {math.fsum(ws)}")


def _check_solver_payload(res: dict, config: dict, where: str, out: Problems):
    """A barycenter result: certification, weak duality and the objective."""
    if not _require(res, ("value", "per_k_distances", "minimizer", "certified", "solver_log"), where, out):
        return
    value = float(res["value"])
    certified = res["certified"]
    out.need(isinstance(certified, bool), f"{where}: certified is not a boolean")
    tol = float(config.get("tol", SUBGRADIENT_GAP_REL))
    if "dual_bound" in res:
        out.need(float(res["dual_bound"]) <= value + SLACK * (1 + abs(value)),
                 f"{where}: dual bound above the primal value")
    if certified is True:
        out.need("gap" in res, f"{where}: certified without a gap")
        if "gap" in res:
            out.need(float(res["gap"]) <= tol * (1 + abs(value)) * (1 + SLACK),
                     f"{where}: certified with gap {res['gap']} above tolerance")
    else:
        log = res["solver_log"]
        out.need(log.get("max_iter_exceeded") is True and log.get("iterations") == int(config.get("max_iter", -1)),
                 f"{where}: not certified before the iteration cap")
    _check_minimizer(res["minimizer"], where, out)
    lambdas = [float(x) for x in config.get("lambda", [])]
    dists = [float(d) for d in res["per_k_distances"]]
    p = float(config["p"])
    if lambdas and len(lambdas) == len(dists):
        again = math.fsum(lam * d**p for lam, d in zip(lambdas, dists))
        out.need(_close(value, again, 1e-6, 1e-9),
                 f"{where}: value {value} differs from sum lambda d^p = {again}")


def _check_certificate(cert: dict, out: Problems):
    """Feasibility: zeta > 0 and sum_k zeta_k * xi_k = 0 at every support point."""
    ks = sorted(cert["zeta"], key=int)
    for base in cert["zeta"][ks[0]]:
        zetas = [float(cert["zeta"][k][base]) for k in ks]
        out.need(all(z > 0.0 for z in zetas), f"certificate: zeta not positive at {base}")
        xis = [[float(x) for x in cert["xi"][k][base]] for k in ks]
        for j in range(len(xis[0])):
            terms = [z * xi[j] for z, xi in zip(zetas, xis)]
            scale = 1.0 + max(abs(t) for t in terms)
            if not out.need(abs(math.fsum(terms)) <= SLACK * scale,
                            f"certificate: sum_k zeta xi = {math.fsum(terms)} at {base}[{j}]"):
                break


def _check_certify(rep, inv, rc, workdir, out: Problems):
    res = rep.get("results", {})
    if not _require(res, ("primal", "dual", "gap", "certified", "tolerance", "certificate", "solver"),
                    "certify", out):
        return
    primal, dual, gap, tol = (float(res[k]) for k in ("primal", "dual", "gap", "tolerance"))
    certified = res["certified"]
    out.need(certified is (rc == 0), f"certify: certified={certified} with exit status {rc}")
    out.need(dual <= primal + SLACK * (1 + abs(primal)), "certify: dual above primal")
    if math.isfinite(dual):
        out.need(abs(gap - (primal - dual)) <= SLACK * (1 + abs(primal)), "certify: gap != primal - dual")
        _check_certificate(res["certificate"], out)
    rel = EXACT_GAP_REL if _exact(rep["config"]) else SUBGRADIENT_GAP_REL
    out.need(tol <= rel * (1 + abs(primal)) * (1 + SLACK), f"certify: tolerance {tol} looser than default")
    if certified is True:
        out.need(gap <= tol, f"certify: certified with gap {gap} > {tol}")
    elif not inv.capped:
        out.append("certify: not certified")
    solver_conf = dict(rep["config"], tol=inv.option("--tol", "1e-3"), max_iter=inv.option("--max-iter", "10000"))
    _check_solver_payload(res["solver"], solver_conf, "certify.solver", out)


def _check_disint_bary(rep, inv, rc, workdir, out: Problems):
    res = rep.get("results", {})
    _check_solver_payload(res, rep.get("config", {}), "disint-bary", out)
    certified = res.get("certified")
    out.need(certified is (rc == 0), f"disint-bary: certified={certified} with exit status {rc}")
    if not inv.capped:
        out.need(certified is True, "disint-bary: not certified")


def _check_bary(rep, inv, rc, workdir, out: Problems):
    res = rep.get("results", {})
    _check_solver_payload(res, rep.get("config", {}), "bary", out)
    out.need(res.get("certified") is True, "bary: not certified")
    out.need(float(res.get("gap", "nan")) == 0.0, "bary: exact LP with nonzero gap")


def _check_ot(rep, inv, rc, workdir, out: Problems):
    """Optimality from the report and the instance alone.

    Marginals of the coupling, its cost, dual feasibility
    -phi(i) - psi(j) <= d(i, j)**p, complementary slackness on the coupling's
    support, and equal primal and dual objectives.
    """
    res = rep.get("results", {})
    if not _require(res, ("value_p", "mk", "coupling", "row_points", "col_points", "phi", "psi"), "ot", out):
        return
    inst = _load(workdir, rep["config"]["input"])
    fiber = inst["fibers"][rep["config"]["fiber"]]
    p = float(rep["config"]["p"])
    mu_ids, mu = _normalized(fiber["measures"][inv.option("--mu")])
    nu_ids, nu = _normalized(fiber["measures"][inv.option("--nu")])
    if not (out.need(res["row_points"] == mu_ids, "ot: row points differ from mu's support")
            and out.need(res["col_points"] == nu_ids, "ot: column points differ from nu's support")):
        return
    gamma = [[float(x) for x in row] for row in res["coupling"]]
    phi = [float(x) for x in res["phi"]]
    psi = [float(x) for x in res["psi"]]
    cost = [[float(fiber["cost"][i][j]) ** p for j in nu_ids] for i in mu_ids]
    value = float(res["value_p"])
    scale = 1.0 + max(max(row) for row in cost)
    tol = SLACK * scale

    rows_off = max(abs(math.fsum(row) - w) for row, w in zip(gamma, mu))
    cols_off = max(abs(math.fsum(col) - w) for col, w in zip(zip(*gamma), nu))
    out.need(rows_off <= SLACK and cols_off <= SLACK,
             f"ot: coupling marginals off by {max(rows_off, cols_off):.3g}")
    out.need(min(min(row) for row in gamma) >= -SLACK, "ot: negative coupling entry")
    primal = math.fsum(g * c for grow, crow in zip(gamma, cost) for g, c in zip(grow, crow))
    out.need(_close(primal, value, SLACK, 1e-12), f"ot: coupling cost {primal} != value_p {value}")
    dual = math.fsum(-f * w for f, w in zip(phi, mu)) + math.fsum(-g * w for g, w in zip(psi, nu))
    out.need(_close(dual, value, SLACK, tol), f"ot: dual objective {dual} != value_p {value}")
    worst_feas = worst_slack = 0.0
    for f, grow, crow in zip(phi, gamma, cost):
        for g, s, c in zip(grow, psi, crow):
            excess = -f - s - c
            worst_feas = max(worst_feas, excess)
            if g > 1e-12:
                worst_slack = max(worst_slack, -excess)
    out.need(worst_feas <= tol, f"ot: dual infeasible by {worst_feas:.3g}")
    out.need(worst_slack <= tol, f"ot: complementary slackness off by {worst_slack:.3g}")
    out.need(_close(float(res["mk"]), value ** (1.0 / p), 1e-11), "ot: mk != value_p ** (1/p)")


def _check_dist(rep, inv, rc, workdir, out: Problems):
    res = rep.get("results", {})
    if not _require(res, ("distance", "profile"), "dist", out):
        return
    inst = _load(workdir, rep["config"]["input"])
    sigma = {b["id"]: float(b["sigma"]) for b in inst["base"]}
    prof = {b: float(d) for b, d in res["profile"].items()}
    out.need(set(prof) == {b for b, s in sigma.items() if s > 0.0}, "dist: profile misses base points")
    out.need(all(d >= 0.0 for d in prof.values()), "dist: negative fiber distance")
    q = _q_of(rep["config"])
    if math.isinf(q):
        again = max(prof.values())
    else:
        again = math.fsum(sigma[b] * d**q for b, d in prof.items()) ** (1.0 / q)
    out.need(_close(float(res["distance"]), again, SLACK), "dist: distance is not the L^q norm of the profile")


def _check_probe(rep, inv, rc, workdir, out: Problems):
    res = rep.get("results", {})
    if not _require(res, ("values", "max_pairwise_distance", "witness", "n_minimizers_collected"), "probe", out):
        return
    values = [float(v) for v in res["values"]]
    out.need(len(values) == res["n_minimizers_collected"] >= 1, "probe: candidate count mismatch")
    spread = (1e-9 if _exact(rep["config"]) else 2e-3) * (1 + abs(min(values)))
    out.need(max(values) - min(values) <= spread * (1 + SLACK), "probe: kept values are not equal")
    dmax = float(res["max_pairwise_distance"])
    out.need(dmax >= 0.0 and res["witness"] is (dmax > 1e-4), "probe: witness flag disagrees with distance")


def _check_example(rep, inv, rc, workdir, out: Problems):
    res = rep.get("results", {})
    if rep.get("config", {}).get("example") == "2.2":
        # two translated intervals at distance 3: every point of the geodesic
        # is a barycenter with value 3/2, both inputs included
        if not _require(res, ("lp_value", "dual_value", "gap", "certified", "objective_nu0",
                              "objective_nu1", "mk1_nu0_nu1", "nonuniqueness_witness"), "example 2.2", out):
            return
        lp = float(res["lp_value"])
        out.need(res["certified"] is True and rc == 0, "example 2.2: not certified")
        out.need(float(res["gap"]) <= EXACT_GAP_REL * (1 + lp), "example 2.2: gap above tolerance")
        out.need(float(res["dual_value"]) <= lp + SLACK, "example 2.2: dual above primal")
        out.need(_close(lp, 1.5, SLACK), f"example 2.2: value {lp} != 3/2")
        out.need(_close(float(res["mk1_nu0_nu1"]), 3.0, EXACT_RTOL), "example 2.2: MK_1 != 3")
        for key in ("objective_nu0", "objective_nu1"):
            out.need(_close(float(res[key]), 1.5, SLACK), f"example 2.2: {key} != 3/2")
        out.need(res["nonuniqueness_witness"] is True, "example 2.2: no nonuniqueness witness")
    else:
        if not _require(res, ("solver_value", "solver_certified", "solver_gap", "objective_difference",
                              "distance_between_candidates", "distinct_equal_value_minimizers"),
                        "example 2.1", out):
            return
        value = float(res["solver_value"])
        out.need(res["solver_certified"] is True and rc == 0, "example 2.1: not certified")
        out.need(float(res["solver_gap"]) <= SUBGRADIENT_GAP_REL * (1 + abs(value)), "example 2.1: gap above tolerance")
        out.need(res["distinct_equal_value_minimizers"] is True
                 and float(res["objective_difference"]) <= 1e-6
                 and float(res["distance_between_candidates"]) > 0.1,
                 "example 2.1: no distinct equal-value minimizers")


def _check_generate(rep, inv, rc, workdir, out: Problems):
    written = inv.option("--output")
    out.need(rep.get("results", {}).get("written") == written, "generate: wrong output path reported")
    out.need((workdir / written).read_bytes() == (workdir / inv.same_as).read_bytes(),
             f"generate: {written} differs from the setup's {inv.same_as}")


CHECKS = {
    "ot": _check_ot,
    "dist": _check_dist,
    "bary": _check_bary,
    "disint-bary": _check_disint_bary,
    "certify": _check_certify,
    "probe-uniqueness": _check_probe,
    "example": _check_example,
    "generate": _check_generate,
}


def check_report(inv, rc: int, stdout: bytes, workdir: Path) -> list[str]:
    """Problems with one invocation's output; empty when it is correct."""
    out = Problems()
    if inv.kind == "import":
        out.need(rc == 0, f"exit status {rc}")
        out.need(stdout == b"", "import printed output")
        return out
    allowed = (0, 3) if inv.capped else (0,)
    out.need(rc in allowed, f"exit status {rc}")
    try:
        rep = json.loads(stdout)
    except ValueError:
        return out + ["stdout is not a JSON report"]
    if not out.need(isinstance(rep, dict) and rep.get("command") == inv.command,
                    "report names another command"):
        return out
    try:
        CHECKS[inv.command](rep, inv, rc, workdir, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        out.append(f"malformed report: {type(exc).__name__}: {exc}")
    return out


def reference_values(rep: dict) -> dict[str, tuple[float, float | None]]:
    """The reported numbers kept in the record: name -> (value, tolerance).

    Tolerance None marks an exact route (LP, transport, exact re-evaluation),
    matched to ``EXACT_RTOL`` relative.  Subgradient values carry their
    reported relative certification tolerance instead.
    """
    res, conf, cmd = rep["results"], rep.get("config", {}), rep["command"]
    exact = cmd not in ("disint-bary", "certify") or _exact(conf)
    if cmd == "ot":
        out = {"value_p": (res["value_p"], None), "mk": (res["mk"], None)}
    elif cmd == "dist":
        out = {"distance": (res["distance"], None)}
    elif cmd in ("bary", "disint-bary"):
        out = {"value": (res["value"], None if exact else float(conf["tol"]))}
    elif cmd == "certify":
        tol = None if exact else float(res["tolerance"]) / (1 + abs(float(res["primal"])))
        out = {"primal": (res["primal"], tol), "dual": (res["dual"], tol)}
    elif cmd == "probe-uniqueness":
        out = {"best": (min(float(v) for v in res["values"]), None),
               "max_pairwise_distance": (res["max_pairwise_distance"], None)}
    elif cmd == "example" and conf.get("example") == "2.2":
        out = {k: (res[k], None) for k in ("lp_value", "dual_value", "mk1_nu0_nu1", "witness_max_distance")}
    elif cmd == "example":
        out = {"solver_value": (res["solver_value"], SUBGRADIENT_GAP_REL),
               "objective_candidate_a": (res["objective_candidate_a"], None),
               "distance_between_candidates": (res["distance_between_candidates"], None)}
    else:
        out = {}
    return {k: (float(v), tol) for k, (v, tol) in out.items()}


def check_reference(stdout: bytes, recorded: dict[str, float]) -> list[str]:
    """Compare with recorded values: |v - ref| <= EXACT_RTOL * |ref| on exact
    routes and tol * (1 + |ref|) on subgradient ones."""
    try:
        now = reference_values(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"reference: cannot read report ({exc})"]
    problems = []
    for key, ref in recorded.items():
        if key not in now:
            problems.append(f"reference: {key} not reported")
            continue
        value, tol = now[key]
        limit = EXACT_RTOL * abs(ref) if tol is None else tol * (1 + abs(ref))
        if not abs(value - ref) <= limit:
            problems.append(f"reference: {key} = {value!r}, recorded {ref!r}")
    return problems


def self_test(samples) -> tuple[list[str], list[str]]:
    """Corrupt good reports; returns (caught, missed) descriptions.

    ``samples`` holds (invocation, exit status, stdout, workdir) of correct
    outputs, such as one ``ot`` report and one report with a ``certified``
    field.  ``missed`` is empty when every corruption was flagged.
    """
    caught, missed = [], []
    for inv, rc, stdout, workdir in samples:
        if check_report(inv, rc, stdout, workdir):
            missed.append(f"{inv.label}: the clean report already fails")
            continue
        rep = json.loads(stdout)
        corruptions = []
        if inv.command == "ot":
            bumped = copy.deepcopy(rep)
            bumped["results"]["value_p"] = float(bumped["results"]["value_p"]) * (1 + 1e-6)
            corruptions.append(("value_p perturbed by 1e-6 relative", bumped))
            shifted = copy.deepcopy(rep)
            row = shifted["results"]["coupling"][0]
            j = max(range(len(row)), key=lambda c: row[c])
            row[j] = row[j] + 1e-6
            corruptions.append(("coupling marginal off by 1e-6", shifted))
        for path in _certified_paths(rep):
            dropped = copy.deepcopy(rep)
            node = dropped
            for key in path[:-1]:
                node = node[key]
            del node[path[-1]]
            corruptions.append((f"dropped {'.'.join(path)}", dropped))
        for what, bad in corruptions:
            found = check_report(inv, rc, json.dumps(bad).encode(), workdir)
            if found:
                caught.append(f"{inv.label}: {what} -> {found[0]}")
            else:
                missed.append(f"{inv.label}: {what} was not flagged")
    return caught, missed


def _certified_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("certified", "solver_certified"):
                yield (*path, key)
            else:
                yield from _certified_paths(value, (*path, key))
