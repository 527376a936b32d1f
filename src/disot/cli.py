"""Command-line front end: ingestion, solver invocation, reports.

Subcommands: ot, dist, bary, disint-bary, certify, probe-uniqueness, example,
generate.  Reports are emitted as deterministic JSON (or long-format CSV) with
floats fixed to 12 significant digits, so identical configs and seeds yield
byte-identical output.  Exit codes: 0 success, 2 validation or parse failure,
3 solver non-certification.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from . import __version__
from .barycenter import (
    classical_barycenter,
    disint_barycenter,
    make_problem,
    objective,
    uniqueness_probe,
)
from .duality import duality_gap, extract_certificate
from .errors import DisotError, ParseError
from .instances import generate_instance, interval_pair, shared_fiber_nonuniqueness
from .io import (
    Instance,
    combine_1d_points,
    dump_text,
    load_csv_measure,
    load_instance,
    report_to_csv,
    save_document,
)
from .measures import DiscreteMeasure, FiberedMeasure
from .metric import DisintConfig, fiber_distance_profile, scrmk
from .ot import coupling_is_deterministic, solve_ot

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CERTIFIED = 3


@dataclass
class RunConfig:
    """Validated flags for one invocation."""

    command: str
    input: str | None = None
    output: str | None = None
    fmt: str = "json"
    p: float = 2.0
    q: float | None = None
    kappa: float | None = None
    lambdas: list[float] | None = None
    names: list[str] | None = None
    tol: float = 1e-3
    max_iter: int = 10_000
    seed: int = 0
    trials: int = 10
    radius: float = 1e-6
    fiber: str | None = None
    mu: str = "mu"
    nu: str = "nu"
    mu_csv: str | None = None
    nu_csv: str | None = None
    example: str | None = None
    n: int = 50
    fibers: int = 2
    atoms: int = 3
    measures: int = 2
    kind: str = "interval"
    oracle_checkable: bool = False

    def disint_config(self) -> DisintConfig:
        q = self.p if self.q is None else self.q
        return DisintConfig(self.p, q)


def _parse_q(text: str) -> float:
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad value for --q: {text!r}") from None


def _parse_lambdas(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ParseError(f"bad value for --lambda: {text!r}") from None


def _measure_payload(m: FiberedMeasure) -> dict:
    return {
        b: [{"point": int(i), "w": float(w)} for i, w in zip(f.point_ids, f.weights)]
        for b, f in ((b, m.fiber(b)) for b in m.base_ids)
    }


def _pick_names(instance: Instance, cfg: RunConfig, minimum: int = 2) -> list[str]:
    names = cfg.names if cfg.names else sorted(instance.measures)
    if len(names) < minimum:
        raise ParseError(f"need at least {minimum} measure names, got {names}")
    return names


def _lambdas_for(cfg: RunConfig, k: int) -> list[float]:
    if cfg.lambdas is None:
        return [1.0 / k] * k
    if len(cfg.lambdas) != k:
        raise ParseError(f"--lambda needs {k} entries, got {len(cfg.lambdas)}")
    return cfg.lambdas


def _problem_from_instance(instance: Instance, cfg: RunConfig, names: list[str]):
    inputs = [instance.measure(nm) for nm in names]
    lams = _lambdas_for(cfg, len(inputs))
    return make_problem(
        inputs, lams, cfg.disint_config(), instance.costs(), kappa=cfg.kappa
    )


def _result_payload(problem, result) -> dict:
    payload = {
        "value": result.value,
        "per_k_distances": [float(d) for d in result.per_k_distances],
        "minimizer": _measure_payload(result.minimizer),
        "certified": result.certified,
        "solver_log": result.solver_log,
    }
    if result.gap is not None:
        payload["gap"] = result.gap
    if result.dual_bound is not None:
        payload["dual_bound"] = result.dual_bound
    return payload


def _cmd_ot(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.mu_csv or cfg.nu_csv:
        if not (cfg.mu_csv and cfg.nu_csv):
            raise ParseError("--mu-csv and --nu-csv must be given together")
        xs, mu_local = load_csv_measure(cfg.mu_csv)
        ys, nu_local = load_csv_measure(cfg.nu_csv)
        _, cost, (mu_idx, nu_idx) = combine_1d_points([xs, ys])
        mu = DiscreteMeasure(mu_idx[mu_local.point_ids], mu_local.weights)
        nu = DiscreteMeasure(nu_idx[nu_local.point_ids], nu_local.weights)
        source = {"mu_csv": cfg.mu_csv, "nu_csv": cfg.nu_csv}
    else:
        if not cfg.input:
            raise ParseError("ot needs --input or a pair of CSV files")
        instance = load_instance(cfg.input)
        fiber = cfg.fiber or (
            instance.base_ids[0] if len(instance.base_ids) == 1 else None
        )
        if fiber is None:
            raise ParseError("--fiber is required on a multi-fiber instance")
        mu = instance.measure(cfg.mu).fiber(fiber)
        nu = instance.measure(cfg.nu).fiber(fiber)
        cost = instance.bundle.cost(fiber)
        source = {"input": cfg.input, "fiber": fiber}
    res = solve_ot(mu, nu, cost, cfg.p)
    tmap = coupling_is_deterministic(res.coupling, tol=1e-7)
    results = {
        "value_p": res.value_p,
        "mk": res.mk,
        "coupling": [[float(x) for x in row] for row in res.coupling.gamma],
        "row_points": [int(i) for i in res.coupling.row_ids],
        "col_points": [int(i) for i in res.coupling.col_ids],
        "phi": [float(x) for x in res.phi],
        "psi": [float(x) for x in res.psi],
        "deterministic_map": {str(k): v for k, v in tmap.items()} if tmap else None,
    }
    return {"command": "ot", "config": {"p": cfg.p, **source}, "results": results}, EXIT_OK


def _cmd_dist(cfg: RunConfig) -> tuple[dict, int]:
    if not cfg.input:
        raise ParseError("dist needs --input")
    instance = load_instance(cfg.input)
    m = instance.measure(cfg.mu)
    n = instance.measure(cfg.nu)
    config = cfg.disint_config()
    profile = fiber_distance_profile(m, n, config.p, instance.costs())
    value = scrmk(m, n, config, instance.costs())
    results = {
        "distance": value,
        "profile": {b: d for b, d in profile},
    }
    conf = {"p": config.p, "q": config.q, "input": cfg.input, "m": cfg.mu, "n": cfg.nu}
    return {"command": "dist", "config": conf, "results": results}, EXIT_OK


def _cmd_bary(cfg: RunConfig) -> tuple[dict, int]:
    if not cfg.input:
        raise ParseError("bary needs --input")
    instance = load_instance(cfg.input)
    if len(instance.base_ids) != 1:
        raise ParseError("bary expects a one-point base; use disint-bary instead")
    names = _pick_names(instance, cfg)
    problem = _problem_from_instance(instance, cfg, names)
    result = classical_barycenter(problem)
    conf = {"p": cfg.p, "input": cfg.input, "names": names, "lambda": problem.lambdas}
    return (
        {"command": "bary", "config": conf, "results": _result_payload(problem, result)},
        EXIT_OK,
    )


def _cmd_disint_bary(cfg: RunConfig) -> tuple[dict, int]:
    if not cfg.input:
        raise ParseError("disint-bary needs --input")
    instance = load_instance(cfg.input)
    names = _pick_names(instance, cfg)
    problem = _problem_from_instance(instance, cfg, names)
    result = disint_barycenter(problem, max_iter=cfg.max_iter, tol=cfg.tol)
    config = problem.config
    conf = {
        "p": config.p,
        "q": config.q,
        "input": cfg.input,
        "names": names,
        "lambda": problem.lambdas,
        "tol": cfg.tol,
        "max_iter": cfg.max_iter,
    }
    status = EXIT_OK if result.certified else EXIT_NOT_CERTIFIED
    return (
        {"command": "disint-bary", "config": conf, "results": _result_payload(problem, result)},
        status,
    )


def _cmd_certify(cfg: RunConfig) -> tuple[dict, int]:
    if not cfg.input:
        raise ParseError("certify needs --input")
    instance = load_instance(cfg.input)
    names = _pick_names(instance, cfg)
    problem = _problem_from_instance(instance, cfg, names)
    result = disint_barycenter(problem, max_iter=cfg.max_iter, tol=cfg.tol)
    cert = extract_certificate(problem, result)
    report = duality_gap(problem, result, cert)
    results = {
        "primal": report.primal,
        "dual": report.dual,
        "gap": report.gap,
        "certified": report.certified,
        "tolerance": report.tol,
        "certificate": cert.to_dict(),
        "solver": _result_payload(problem, result),
    }
    conf = {
        "p": problem.config.p,
        "q": problem.config.q,
        "input": cfg.input,
        "names": names,
        "lambda": problem.lambdas,
    }
    status = EXIT_OK if report.certified else EXIT_NOT_CERTIFIED
    return {"command": "certify", "config": conf, "results": results}, status


def _cmd_probe(cfg: RunConfig) -> tuple[dict, int]:
    if not cfg.input:
        raise ParseError("probe-uniqueness needs --input")
    instance = load_instance(cfg.input)
    names = _pick_names(instance, cfg)
    problem = _problem_from_instance(instance, cfg, names)
    result = disint_barycenter(problem, max_iter=cfg.max_iter, tol=cfg.tol)
    probe = uniqueness_probe(
        problem, result, trials=cfg.trials, radius=cfg.radius, seed=cfg.seed
    )
    results = {
        "values": list(probe.values),
        "max_pairwise_distance": probe.max_pairwise_distance,
        "witness": probe.witness,
        "n_minimizers_collected": probe.n_candidates,
    }
    conf = {
        "p": problem.config.p,
        "q": problem.config.q,
        "input": cfg.input,
        "names": names,
        "trials": cfg.trials,
        "radius": cfg.radius,
        "seed": cfg.seed,
    }
    return {"command": "probe-uniqueness", "config": conf, "results": results}, EXIT_OK


def _cmd_example(cfg: RunConfig) -> tuple[dict, int]:
    key = (cfg.example or "").lower()
    if key in ("2.2", "intervals", "p1-intervals"):
        return _example_intervals(cfg)
    if key in ("2.1", "shared-fiber", "qinf"):
        return _example_shared_fiber(cfg)
    raise ParseError(f"unknown example {cfg.example!r} (use 2.1 or 2.2)")


def _example_intervals(cfg: RunConfig) -> tuple[dict, int]:
    inst = interval_pair(cfg.n)
    problem = inst.problem()
    result = classical_barycenter(problem)
    base = problem.base_ids[0]
    nu0_f = FiberedMeasure([base], [1.0], {base: inst.nu0})
    nu1_f = FiberedMeasure([base], [1.0], {base: inst.nu1})
    obj0 = objective(problem, nu0_f)
    obj1 = objective(problem, nu1_f)
    cert = inst.explicit_certificate(problem)
    gap = duality_gap(problem, result, cert)
    d01 = solve_ot(inst.nu0, inst.nu1, inst.cost, 1.0).value_p
    probe = uniqueness_probe(problem, result, trials=4, radius=1e-9, seed=cfg.seed)
    results = {
        "lp_value": result.value,
        "dual_value": gap.dual,
        "gap": gap.gap,
        "certified": gap.certified,
        "objective_nu0": obj0,
        "objective_nu1": obj1,
        "mk1_nu0_nu1": d01,
        "minimizers": {
            "nu0": _measure_payload(nu0_f),
            "nu1": _measure_payload(nu1_f),
        },
        "nonuniqueness_witness": probe.witness,
        "witness_max_distance": probe.max_pairwise_distance,
    }
    conf = {"example": "2.2", "n": cfg.n, "p": 1.0, "lambda": [0.5, 0.5]}
    status = EXIT_OK if gap.certified else EXIT_NOT_CERTIFIED
    return {"command": "example", "config": conf, "results": results}, status


def _example_shared_fiber(cfg: RunConfig) -> tuple[dict, int]:
    inst = shared_fiber_nonuniqueness()
    problem = inst.problem(p=2.0)
    result = disint_barycenter(problem, max_iter=cfg.max_iter, tol=cfg.tol)
    obj_a = objective(problem, inst.candidate_uniform_mid)
    obj_b = objective(problem, inst.candidate_modified)
    dist_ab = scrmk(
        inst.candidate_uniform_mid, inst.candidate_modified, problem.config, problem.costs
    )
    results = {
        "solver_value": result.value,
        "solver_certified": result.certified,
        "solver_gap": result.gap,
        "objective_candidate_a": obj_a,
        "objective_candidate_b": obj_b,
        "objective_difference": abs(obj_a - obj_b),
        "distance_between_candidates": dist_ab,
        "minimizers": {
            "candidate_a": _measure_payload(inst.candidate_uniform_mid),
            "candidate_b": _measure_payload(inst.candidate_modified),
        },
        "distinct_equal_value_minimizers": bool(
            abs(obj_a - obj_b) <= 1e-6 and dist_ab > 0.1
        ),
    }
    conf = {"example": "2.1", "p": 2.0, "q": math.inf, "lambda": [0.5, 0.5]}
    status = EXIT_OK if result.certified else EXIT_NOT_CERTIFIED
    return {"command": "example", "config": conf, "results": results}, status


def _cmd_generate(cfg: RunConfig) -> tuple[dict, int]:
    doc = generate_instance(
        seed=cfg.seed,
        n_fibers=cfg.fibers,
        n_atoms=cfg.atoms,
        n_measures=cfg.measures,
        kind=cfg.kind,
        oracle_checkable=cfg.oracle_checkable,
    )
    if cfg.output:
        save_document(cfg.output, doc)
        summary = {
            "command": "generate",
            "config": {
                "seed": cfg.seed,
                "fibers": cfg.fibers,
                "atoms": cfg.atoms,
                "measures": cfg.measures,
                "kind": cfg.kind,
                "oracle_checkable": cfg.oracle_checkable,
            },
            "results": {"written": cfg.output},
        }
        return summary, EXIT_OK
    return doc, EXIT_OK


_HANDLERS = {
    "ot": _cmd_ot,
    "dist": _cmd_dist,
    "bary": _cmd_bary,
    "disint-bary": _cmd_disint_bary,
    "certify": _cmd_certify,
    "probe-uniqueness": _cmd_probe,
    "example": _cmd_example,
    "generate": _cmd_generate,
}


def run(cfg: RunConfig) -> int:
    """Execute one subcommand and emit its report; returns the exit status."""
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        raise ParseError(f"unknown command {cfg.command!r}")
    report, status = handler(cfg)
    text = report_to_csv(report) if cfg.fmt == "csv" else dump_text(report)
    if cfg.output and cfg.command != "generate":
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def _add_common(sp: argparse.ArgumentParser, q_flag: bool = True):
    sp.add_argument("--input", help="instance file (JSON, measures schema)")
    sp.add_argument("--output", help="write the report here instead of stdout")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sp.add_argument("--p", type=float, default=2.0, help="fiber cost exponent, >= 1")
    if q_flag:
        sp.add_argument("--q", type=_parse_q, default=None, help="base exponent; accepts inf")
    sp.add_argument("--kappa", type=float, default=None, help="objective exponent (default p)")
    sp.add_argument(
        "--lambda",
        dest="lambdas",
        type=_parse_lambdas,
        default=None,
        metavar="W1,W2,...",
        help="input weights on the probability simplex",
    )
    sp.add_argument("--names", type=lambda s: [x for x in s.split(",") if x], default=None)
    sp.add_argument("--tol", type=float, default=1e-3, help="relative certification tolerance")
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized probes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="disot",
        description="Exact discrete optimal transport on fibered spaces: "
        "distances, barycenters, dual certificates.",
    )
    ap.add_argument("--version", action="version", version=f"disot {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ot", help="transport distance between two measures on one fiber")
    _add_common(sp, q_flag=False)
    sp.add_argument("--fiber", help="base point to use on multi-fiber instances")
    sp.add_argument("--mu", default="mu", help="name of the source measure")
    sp.add_argument("--nu", default="nu", help="name of the target measure")
    sp.add_argument("--mu-csv", dest="mu_csv", help="1-d CSV (coordinate, weight) source")
    sp.add_argument("--nu-csv", dest="nu_csv", help="1-d CSV (coordinate, weight) target")

    sp = sub.add_parser("dist", help="disintegrated distance between two fibered measures")
    _add_common(sp)
    sp.add_argument("--m", dest="mu", default="m", help="first measure name")
    sp.add_argument("--n", dest="nu", default="n", help="second measure name")

    sp = sub.add_parser("bary", help="classical barycenter on a one-point base (exact LP)")
    _add_common(sp, q_flag=False)

    sp = sub.add_parser("disint-bary", help="disintegrated barycenter at kappa = p")
    _add_common(sp)

    sp = sub.add_parser("certify", help="solve, extract a dual certificate, report the gap")
    _add_common(sp)

    sp = sub.add_parser("probe-uniqueness", help="randomized search for distinct minimizers")
    _add_common(sp)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--radius", type=float, default=1e-6, help="perturbation size")

    sp = sub.add_parser("example", help="run a named built-in reproduction")
    sp.add_argument("example", choices=("2.1", "2.2", "intervals", "shared-fiber"))
    sp.add_argument("--n", type=int, default=50, help="atoms per interval (intervals example)")
    sp.add_argument("--output", help="write the report here instead of stdout")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("generate", help="write a deterministic pseudo-random instance")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fibers", type=int, default=2)
    sp.add_argument("--atoms", type=int, default=3)
    sp.add_argument("--measures", type=int, default=2)
    sp.add_argument("--kind", choices=("interval", "square"), default="interval")
    sp.add_argument("--oracle-checkable", dest="oracle_checkable", action="store_true")
    sp.add_argument("--output", help="instance file to write (stdout when omitted)")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    known = {f for f in RunConfig.__dataclass_fields__}
    payload = {k: v for k, v in vars(args).items() if k in known and v is not None}
    return RunConfig(**payload)


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = config_from_args(args)
        status = run(cfg)
    except DisotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return status


if __name__ == "__main__":
    sys.exit(main())
