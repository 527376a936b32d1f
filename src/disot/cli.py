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

from . import __version__
from .barycenter import (
    classical_barycenter,
    disint_barycenter,
    make_problem,
    objective,
    uniqueness_probe,
)
from .duality import duality_gap
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
from .tolerances import (
    CERT_TOL,
    DISTINCT_DISTANCE,
    EQUAL_VALUE_TOL,
    EXAMPLE_PROBE_RADIUS,
    MAP_TOL,
    MAX_ITER,
    PROBE_RADIUS,
)

# atoms per interval in example 2.2 unless --n says otherwise
INTERVAL_ATOMS = 50

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CERTIFIED = 3


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


def _disint_config(args: argparse.Namespace) -> DisintConfig:
    return DisintConfig(args.p, args.p if args.q is None else args.q)


def _pick_names(instance: Instance, args: argparse.Namespace) -> list[str]:
    names = args.names if args.names else sorted(instance.measures)
    if len(names) < 2:
        raise ParseError(f"need at least 2 measure names, got {names}")
    return names


def _lambdas_for(args: argparse.Namespace, k: int) -> list[float]:
    if args.lambdas is None:
        return [1.0 / k] * k
    if len(args.lambdas) != k:
        raise ParseError(f"--lambda needs {k} entries, got {len(args.lambdas)}")
    return args.lambdas


def _problem_from_instance(
    instance: Instance, args: argparse.Namespace, names: list[str], config: DisintConfig
):
    inputs = [instance.measure(nm) for nm in names]
    return make_problem(inputs, _lambdas_for(args, len(inputs)), config, instance.costs())


def _solve(args: argparse.Namespace):
    """Load the instance, build the barycenter problem and solve it."""
    instance = load_instance(args.input)
    names = _pick_names(instance, args)
    problem = _problem_from_instance(instance, args, names, _disint_config(args))
    result = disint_barycenter(problem, max_iter=args.max_iter, tol=args.tol)
    return names, problem, result


def _result_payload(result) -> dict:
    payload = {
        "value": result.value,
        "per_k_distances": [float(d) for d in result.per_k_distances],
        "minimizer": _measure_payload(result.minimizer),
        "certified": result.certified,
        "solver_log": result.solver_log,
        "gap": result.gap,
    }
    if result.dual_bound is not None:
        payload["dual_bound"] = result.dual_bound
    return payload


def _cmd_ot(args: argparse.Namespace) -> tuple[dict, int]:
    if args.mu_csv or args.nu_csv:
        if not (args.mu_csv and args.nu_csv):
            raise ParseError("--mu-csv and --nu-csv must be given together")
        xs, mu_local = load_csv_measure(args.mu_csv)
        ys, nu_local = load_csv_measure(args.nu_csv)
        _, cost, (mu_idx, nu_idx) = combine_1d_points([xs, ys])
        mu = DiscreteMeasure(mu_idx[mu_local.point_ids], mu_local.weights)
        nu = DiscreteMeasure(nu_idx[nu_local.point_ids], nu_local.weights)
        source = {"mu_csv": args.mu_csv, "nu_csv": args.nu_csv}
    else:
        if not args.input:
            raise ParseError("ot needs --input or a pair of CSV files")
        instance = load_instance(args.input)
        fiber = args.fiber or (
            instance.base_ids[0] if len(instance.base_ids) == 1 else None
        )
        if fiber is None:
            raise ParseError("--fiber is required on a multi-fiber instance")
        mu = instance.measure(args.mu).fiber(fiber)
        nu = instance.measure(args.nu).fiber(fiber)
        cost = instance.bundle.cost(fiber)
        source = {"input": args.input, "fiber": fiber}
    res = solve_ot(mu, nu, cost, args.p)
    tmap = coupling_is_deterministic(res.coupling, tol=MAP_TOL)
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
    return {"command": "ot", "config": {"p": args.p, **source}, "results": results}, EXIT_OK


def _cmd_dist(args: argparse.Namespace) -> tuple[dict, int]:
    instance = load_instance(args.input)
    m = instance.measure(args.mu)
    n = instance.measure(args.nu)
    config = _disint_config(args)
    profile = fiber_distance_profile(m, n, config.p, instance.costs())
    value = scrmk(m, n, config, instance.costs())
    results = {
        "distance": value,
        "profile": {b: d for b, d in profile},
    }
    conf = {"p": config.p, "q": config.q, "input": args.input, "m": args.mu, "n": args.nu}
    return {"command": "dist", "config": conf, "results": results}, EXIT_OK


def _cmd_bary(args: argparse.Namespace) -> tuple[dict, int]:
    instance = load_instance(args.input)
    if len(instance.base_ids) != 1:
        raise ParseError("bary expects a one-point base; use disint-bary instead")
    names = _pick_names(instance, args)
    problem = _problem_from_instance(instance, args, names, DisintConfig(args.p, args.p))
    result = classical_barycenter(problem)
    conf = {"p": args.p, "input": args.input, "names": names, "lambda": problem.lambdas}
    return {"command": "bary", "config": conf, "results": _result_payload(result)}, EXIT_OK


def _cmd_disint_bary(args: argparse.Namespace) -> tuple[dict, int]:
    names, problem, result = _solve(args)
    config = problem.config
    conf = {
        "p": config.p,
        "q": config.q,
        "input": args.input,
        "names": names,
        "lambda": problem.lambdas,
        "tol": args.tol,
        "max_iter": args.max_iter,
    }
    status = EXIT_OK if result.certified else EXIT_NOT_CERTIFIED
    return (
        {"command": "disint-bary", "config": conf, "results": _result_payload(result)},
        status,
    )


def _cmd_certify(args: argparse.Namespace) -> tuple[dict, int]:
    names, problem, result = _solve(args)
    # at q = p the LP optimum is exact and the gap check keeps its exact default
    exact = problem.config.q == problem.config.p
    report = duality_gap(problem, result, result.certificate, tol=None if exact else args.tol)
    results = {
        "primal": report.primal,
        "dual": report.dual,
        "gap": report.gap,
        "certified": report.certified,
        "tolerance": report.tol,
        "certificate": result.certificate.to_dict(),
        "solver": _result_payload(result),
    }
    conf = {
        "p": problem.config.p,
        "q": problem.config.q,
        "input": args.input,
        "names": names,
        "lambda": problem.lambdas,
    }
    status = EXIT_OK if report.certified else EXIT_NOT_CERTIFIED
    return {"command": "certify", "config": conf, "results": results}, status


def _cmd_probe(args: argparse.Namespace) -> tuple[dict, int]:
    names, problem, result = _solve(args)
    probe = uniqueness_probe(
        problem,
        result,
        trials=args.trials,
        radius=args.radius,
        seed=args.seed,
        max_iter=args.max_iter,
        tol=args.tol,
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
        "input": args.input,
        "names": names,
        "trials": args.trials,
        "radius": args.radius,
        "seed": args.seed,
    }
    return {"command": "probe-uniqueness", "config": conf, "results": results}, EXIT_OK


def _cmd_example(args: argparse.Namespace) -> tuple[dict, int]:
    if args.example in ("2.2", "intervals"):
        return _example_intervals(args)
    for flag, value in (("--n", args.n), ("--seed", args.seed)):
        if value is not None:
            raise ParseError(f"example 2.1 does not read {flag}")
    return _example_shared_fiber()


def _or_default(value, default):
    return default if value is None else value


def _example_intervals(args: argparse.Namespace) -> tuple[dict, int]:
    n = _or_default(args.n, INTERVAL_ATOMS)
    inst = interval_pair(n)
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
    seed = _or_default(args.seed, 0)
    probe = uniqueness_probe(problem, result, trials=4, radius=EXAMPLE_PROBE_RADIUS, seed=seed)
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
    conf = {"example": "2.2", "n": n, "p": 1.0, "lambda": [0.5, 0.5]}
    status = EXIT_OK if gap.certified else EXIT_NOT_CERTIFIED
    return {"command": "example", "config": conf, "results": results}, status


def _example_shared_fiber() -> tuple[dict, int]:
    inst = shared_fiber_nonuniqueness()
    problem = inst.problem(p=2.0)
    result = disint_barycenter(problem)
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
            abs(obj_a - obj_b) <= EQUAL_VALUE_TOL and dist_ab > DISTINCT_DISTANCE
        ),
    }
    conf = {"example": "2.1", "p": 2.0, "q": math.inf, "lambda": [0.5, 0.5]}
    status = EXIT_OK if result.certified else EXIT_NOT_CERTIFIED
    return {"command": "example", "config": conf, "results": results}, status


def _cmd_generate(args: argparse.Namespace) -> tuple[dict, int]:
    doc = generate_instance(
        seed=args.seed,
        n_fibers=args.fibers,
        n_atoms=args.atoms,
        n_measures=args.measures,
        kind=args.kind,
        oracle_checkable=args.oracle_checkable,
    )
    if args.output:
        save_document(args.output, doc)
        summary = {
            "command": "generate",
            "config": {
                "seed": args.seed,
                "fibers": args.fibers,
                "atoms": args.atoms,
                "measures": args.measures,
                "kind": args.kind,
                "oracle_checkable": args.oracle_checkable,
            },
            "results": {"written": args.output},
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


def run(args: argparse.Namespace) -> int:
    """Execute one parsed subcommand and emit its report; returns the exit status."""
    report, status = _HANDLERS[args.command](args)
    text = report_to_csv(report) if args.fmt == "csv" else dump_text(report)
    if args.output and args.command != "generate":
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def _add_common(sp: argparse.ArgumentParser, input_required: bool = True, q_flag: bool = True):
    sp.add_argument(
        "--input", required=input_required, help="instance file (JSON, measures schema)"
    )
    sp.add_argument("--output", help="write the report here instead of stdout")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    sp.add_argument("--p", type=float, default=2.0, help="fiber cost exponent, >= 1")
    if q_flag:
        sp.add_argument("--q", type=_parse_q, default=None, help="base exponent; accepts inf")


def _add_weights(sp: argparse.ArgumentParser):
    sp.add_argument("--names", type=lambda s: [x for x in s.split(",") if x], default=None)
    sp.add_argument(
        "--lambda",
        dest="lambdas",
        type=_parse_lambdas,
        default=None,
        metavar="W1,W2,...",
        help="input weights on the probability simplex",
    )


def _add_solver(sp: argparse.ArgumentParser):
    sp.add_argument(
        "--tol", type=float, default=CERT_TOL, help="relative certification tolerance at p < q"
    )
    sp.add_argument("--max-iter", dest="max_iter", type=int, default=MAX_ITER)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="disot",
        description="Exact discrete optimal transport on fibered spaces: "
        "distances, barycenters, dual certificates.",
    )
    ap.add_argument("--version", action="version", version=f"disot {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ot", help="transport distance between two measures on one fiber")
    _add_common(sp, input_required=False, q_flag=False)
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
    _add_weights(sp)

    sp = sub.add_parser("disint-bary", help="disintegrated barycenter on fixed supports")
    _add_common(sp)
    _add_weights(sp)
    _add_solver(sp)

    sp = sub.add_parser("certify", help="solve, extract a dual certificate, report the gap")
    _add_common(sp)
    _add_weights(sp)
    _add_solver(sp)

    sp = sub.add_parser("probe-uniqueness", help="randomized search for distinct minimizers")
    _add_common(sp)
    _add_weights(sp)
    _add_solver(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized probes")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--radius", type=float, default=PROBE_RADIUS, help="perturbation size")

    sp = sub.add_parser("example", help="run a named built-in reproduction")
    sp.add_argument("example", choices=("2.1", "2.2", "intervals", "shared-fiber"))
    # each example reads only its own flags; they default to None so that a
    # flag the chosen example ignores is refused instead of dropped
    sp.add_argument("--n", type=int, help=f"atoms per interval (2.2; default {INTERVAL_ATOMS})")
    sp.add_argument("--seed", type=int, help="seed of the uniqueness probe (2.2; default 0)")
    sp.add_argument("--output", help="write the report here instead of stdout")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (DisotError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
