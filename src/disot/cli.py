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

import numpy as np

from . import __version__
from .barycenter import (
    BarycenterProblem,
    check_probe_settings,
    classical_barycenter,
    disint_barycenter,
    objective,
    uniqueness_probe,
)
from .duality import duality_gap
from .errors import DisotError, ParseError
from .instances import generate_instance, interval_pair, shared_fiber_nonuniqueness
from .io import (
    Instance,
    dump_text,
    load_csv_measure,
    load_instance,
    report_to_csv,
    save_document,
)
from .measures import DiscreteMeasure, FiberedMeasure, GroundCost
from .metric import DisintConfig, fiber_distance_profile, lq_norm, scrmk
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
    try:
        q = float("inf" if text.lower() == "oo" else text)
    except ValueError:
        q = math.nan
    if math.isnan(q):
        raise ParseError(f"bad value for --q: {text!r}")
    return q


def _integer(flag: str, least: int, convert=int):
    """The argparse type of ``flag``: a number of at least ``least`` (0 or 1), else ParseError.

    ``convert`` reads the text: int for an integer flag, float for any
    number but NaN.
    """
    kind = "nonnegative" if least == 0 else "positive"
    noun = "integer" if convert is int else "number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not value >= least:
            raise ParseError(f"{flag} must be a {kind} {noun}, got {text!r}")
        return value

    return parse


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


def _disint_config(p: float, q: float | None) -> DisintConfig:
    return DisintConfig(p, p if q is None else q)


def _problem(instance: Instance, args: argparse.Namespace, q: float | None):
    """(names, problem): the barycenter problem on the measures that --names picks.

    The names are --names, or every measure of the instance in sorted order;
    at least two are needed.  The exponents are --p and ``q`` (--p when None),
    and the weights are --lambda, one per name, or equal weights.  Errors
    come in that order: too few names, bad exponents, an unknown name, a
    --lambda of the wrong length.
    """
    names = args.names if args.names else sorted(instance.measures)
    if len(names) < 2:
        raise ParseError(f"need at least 2 measure names, got {names}")
    config = _disint_config(args.p, q)
    inputs = [instance.measure(nm) for nm in names]
    k = len(inputs)
    lambdas = [1.0 / k] * k if args.lambdas is None else args.lambdas
    if len(lambdas) != k:
        raise ParseError(f"--lambda needs {k} entries, got {len(lambdas)}")
    return names, BarycenterProblem(inputs, lambdas, config, instance.costs)


def _solve(args: argparse.Namespace):
    """Load the instance, build the barycenter problem and solve it.

    Returns (problem, result, config echo).  The echo holds p, q, input and
    names, in that order; each command adds the flags it reads beyond these.
    """
    instance = load_instance(args.input)
    names, problem = _problem(instance, args, args.q)
    result = disint_barycenter(problem, max_iter=args.max_iter, tol=args.tol)
    config = problem.config
    return problem, result, {"p": config.p, "q": config.q, "input": args.input, "names": names}


def _result_payload(result) -> dict:
    return {
        "value": result.value,
        "per_k_distances": [float(d) for d in result.per_k_distances],
        "minimizer": _measure_payload(result.minimizer),
        "certified": result.certified,
        "solver_log": result.solver_log,
        "gap": result.gap,
        "dual_bound": result.dual_bound,
    }


def _cmd_ot(args: argparse.Namespace) -> tuple[dict, int]:
    if args.mu_csv or args.nu_csv:
        if not (args.mu_csv and args.nu_csv):
            raise ParseError("--mu-csv and --nu-csv must be given together")
        for flag in ("--input", "--fiber", "--mu", "--nu"):
            if getattr(args, flag[2:]) is not None:
                raise ParseError(f"ot with --mu-csv and --nu-csv does not read {flag}")
        xs, mu = load_csv_measure(args.mu_csv)
        ys, nu = load_csv_measure(args.nu_csv)
        # one point set, mu's rows then nu's; both measures are rebuilt on it
        pts = np.concatenate([xs, ys])
        cost = GroundCost(np.abs(pts[:, None] - pts[None, :]))
        mu = DiscreteMeasure(mu.point_ids, mu.weights)
        nu = DiscreteMeasure(nu.point_ids + xs.size, nu.weights)
        source = {"mu_csv": args.mu_csv, "nu_csv": args.nu_csv}
    else:
        if not args.input:
            raise ParseError("ot needs --input or a pair of CSV files")
        instance = load_instance(args.input)
        m = instance.measure("mu" if args.mu is None else args.mu)
        # only base points of positive normalized weight carry fibers
        fiber = args.fiber or (m.base_ids[0] if len(m.base_ids) == 1 else None)
        if fiber is None:
            raise ParseError("--fiber is required on a multi-fiber instance")
        if fiber not in instance.base_ids:
            raise ParseError(f"base point {fiber!r} not in instance (has: {list(instance.base_ids)})")
        mu = m.fiber(fiber)
        nu = instance.measure("nu" if args.nu is None else args.nu).fiber(fiber)
        cost = instance.costs[fiber]
        source = {"input": args.input, "fiber": fiber}
    res = solve_ot(mu, nu, cost, args.p)
    tmap = coupling_is_deterministic(res.coupling, tol=MAP_TOL)
    results = {
        "value_p": res.value_p,
        "mk": res.mk,
        "coupling": res.coupling.gamma.tolist(),
        "row_points": res.coupling.row_ids.tolist(),
        "col_points": res.coupling.col_ids.tolist(),
        "phi": res.phi.tolist(),
        "psi": res.psi.tolist(),
        "deterministic_map": {str(k): v for k, v in tmap.items()} if tmap else None,
    }
    return {"command": "ot", "config": {"p": args.p, **source}, "results": results}, EXIT_OK


def _cmd_dist(args: argparse.Namespace) -> tuple[dict, int]:
    instance = load_instance(args.input)
    m = instance.measure(args.mu)
    n = instance.measure(args.nu)
    config = _disint_config(args.p, args.q)
    profile = fiber_distance_profile(m, n, config.p, instance.costs)
    # the norm scrmk takes of this same profile
    results = {
        "distance": lq_norm(profile, m.sigma, config.q),
        "profile": dict(zip(m.base_ids, profile.tolist())),
    }
    conf = {"p": config.p, "q": config.q, "input": args.input, "m": args.mu, "n": args.nu}
    return {"command": "dist", "config": conf, "results": results}, EXIT_OK


def _cmd_bary(args: argparse.Namespace) -> tuple[dict, int]:
    names, problem = _problem(load_instance(args.input), args, None)
    result = classical_barycenter(problem)
    conf = {"p": args.p, "input": args.input, "names": names, "lambda": problem.lambdas}
    return {"command": "bary", "config": conf, "results": _result_payload(result)}, EXIT_OK


def _cmd_disint_bary(args: argparse.Namespace) -> tuple[dict, int]:
    problem, result, conf = _solve(args)
    conf.update({"lambda": problem.lambdas, "tol": args.tol, "max_iter": args.max_iter})
    status = EXIT_OK if result.certified else EXIT_NOT_CERTIFIED
    return {"command": "disint-bary", "config": conf, "results": _result_payload(result)}, status


def _cmd_certify(args: argparse.Namespace) -> tuple[dict, int]:
    problem, result, conf = _solve(args)
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
    conf["lambda"] = problem.lambdas
    status = EXIT_OK if report.certified else EXIT_NOT_CERTIFIED
    return {"command": "certify", "config": conf, "results": results}, status


def _cmd_probe(args: argparse.Namespace) -> tuple[dict, int]:
    check_probe_settings(args.trials, args.radius)
    problem, result, conf = _solve(args)
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
    conf.update({"trials": args.trials, "radius": args.radius, "seed": args.seed})
    return {"command": "probe-uniqueness", "config": conf, "results": results}, EXIT_OK


def _cmd_example(args: argparse.Namespace) -> tuple[dict, int]:
    if args.example in ("2.2", "intervals"):
        return _example_intervals(args)
    for flag, value in (("--n", args.n), ("--seed", args.seed)):
        if value is not None:
            raise ParseError(f"example 2.1 does not read {flag}")
    return _example_shared_fiber()


def _example_intervals(args: argparse.Namespace) -> tuple[dict, int]:
    n = INTERVAL_ATOMS if args.n is None else args.n
    inst = interval_pair(n)
    problem = inst.problem()
    result = classical_barycenter(problem)
    nu0_f, nu1_f = problem.inputs
    obj0 = objective(problem, nu0_f)
    obj1 = objective(problem, nu1_f)
    cert = inst.explicit_certificate(problem)
    gap = duality_gap(problem, result, cert)
    d01 = solve_ot(inst.nu0, inst.nu1, inst.cost, 1.0).value_p
    seed = 0 if args.seed is None else args.seed
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
    conf = {"example": "2.2", "n": n, "p": problem.config.p, "lambda": problem.lambdas}
    status = EXIT_OK if gap.certified else EXIT_NOT_CERTIFIED
    return {"command": "example", "config": conf, "results": results}, status


def _example_shared_fiber() -> tuple[dict, int]:
    inst = shared_fiber_nonuniqueness()
    problem = inst.problem()
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
    config = problem.config
    conf = {"example": "2.1", "p": config.p, "q": config.q, "lambda": problem.lambdas}
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
    if not args.output:
        return doc, EXIT_OK
    save_document(args.output, doc)
    flags = ("seed", "fibers", "atoms", "measures", "kind", "oracle_checkable")
    conf = {flag: getattr(args, flag) for flag in flags}
    return {"command": "generate", "config": conf, "results": {"written": args.output}}, EXIT_OK


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


def _add_output(sp: argparse.ArgumentParser, text: str = "write the report here instead of stdout"):
    sp.add_argument("--output", help=text)
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


def _add_common(sp: argparse.ArgumentParser, input_required: bool = True, q_flag: bool = True):
    sp.add_argument(
        "--input", required=input_required, help="instance file (JSON, measures schema)"
    )
    _add_output(sp)
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
    sp.add_argument("--tol", type=_integer("--tol", 0, float), default=CERT_TOL,
                    help="relative certification tolerance at p < q")
    sp.add_argument("--max-iter", dest="max_iter", type=_integer("--max-iter", 1), default=MAX_ITER)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="disot",
        description="Exact discrete optimal transport on fibered spaces: "
        "distances, barycenters, dual certificates.",
    )
    ap.add_argument("--version", action="version", version=f"disot {__version__}")
    seed = _integer("--seed", 0)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ot", help="transport distance between two measures on one fiber")
    _add_common(sp, input_required=False, q_flag=False)
    sp.add_argument("--fiber", help="base point to use on multi-fiber instances")
    # no defaults, so that a name given beside the CSV pair is refused
    sp.add_argument("--mu", help="name of the source measure (default mu)")
    sp.add_argument("--nu", help="name of the target measure (default nu)")
    sp.add_argument("--mu-csv", dest="mu_csv", help="1-d CSV (coordinate, weight) source")
    sp.add_argument("--nu-csv", dest="nu_csv", help="1-d CSV (coordinate, weight) target")

    sp = sub.add_parser("dist", help="disintegrated distance between two fibered measures")
    _add_common(sp)
    sp.add_argument("--m", dest="mu", default="m", help="first measure name")
    sp.add_argument("--n", dest="nu", default="n", help="second measure name")

    sp = sub.add_parser("bary", help="classical barycenter on a one-point base (exact LP)")
    _add_common(sp, q_flag=False)
    _add_weights(sp)

    for name, text in (
        ("disint-bary", "disintegrated barycenter on fixed supports"),
        ("certify", "solve, extract a dual certificate, report the gap"),
        ("probe-uniqueness", "randomized search for distinct minimizers"),
    ):
        sp = sub.add_parser(name, help=text)
        _add_common(sp)
        _add_weights(sp)
        _add_solver(sp)
    sp = sub.choices["probe-uniqueness"]
    sp.add_argument("--seed", type=seed, default=0, help="seed for randomized probes")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--radius", type=float, default=PROBE_RADIUS, help="perturbation size")

    sp = sub.add_parser("example", help="run a named built-in reproduction")
    sp.add_argument("example", choices=("2.1", "2.2", "intervals", "shared-fiber"))
    # each example reads only its own flags; they default to None so that a
    # flag the chosen example ignores is refused instead of dropped
    sp.add_argument("--n", type=int, help=f"atoms per interval (2.2; default {INTERVAL_ATOMS})")
    sp.add_argument("--seed", type=seed, help="seed of the uniqueness probe (2.2; default 0)")
    _add_output(sp)

    sp = sub.add_parser("generate", help="write a deterministic pseudo-random instance")
    sp.add_argument("--seed", type=seed, default=0)
    sp.add_argument("--fibers", type=_integer("--fibers", 1), default=2)
    sp.add_argument("--atoms", type=_integer("--atoms", 1), default=3)
    sp.add_argument("--measures", type=_integer("--measures", 1), default=2)
    sp.add_argument("--kind", choices=("interval", "square"), default="interval")
    sp.add_argument("--oracle-checkable", dest="oracle_checkable", action="store_true")
    _add_output(sp, "instance file to write (stdout when omitted)")
    return ap


def main(argv: list[str] | None = None) -> int:
    # inside the try: --q, --lambda, --seed, --tol, --max-iter and generate's
    # sizes raise ParseError while they are parsed; a size numpy cannot
    # allocate raises MemoryError
    try:
        return run(build_parser().parse_args(argv))
    except (DisotError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
