"""The benchmark's workloads: instances to generate and invocations to time.

Every workload is a fixed list of ``disot`` invocations built from one
workload seed.  The seed only picks the ``disot generate`` seeds of the
instances (and the probe seed), so the program sees nothing but the
generated files.  Instance files are named relative to the run's working
directory, which keeps every report byte-identical across checkouts.
"""

from __future__ import annotations

from dataclasses import dataclass

# Subgradient solves stop at this many iterations.  The certificate is
# checked at iteration 1 and then every 25, so an uncapped solve runs 25 or 50
# iterations depending on the instance, which doubles its time from one seed
# to the next.  With the cap every solve runs exactly 25 iterations; it
# certifies there or exits with status 3 (not certified), which the checker
# accepts for these invocations only.
SUBGRADIENT_ITERS = 25


@dataclass(frozen=True)
class Instance:
    """One ``disot generate`` call; ``name`` is the file it writes."""

    name: str
    flags: tuple[str, ...]

    def argv(self, output: str) -> list[str]:
        return ["generate", *self.flags, "--output", output]


@dataclass(frozen=True)
class Invocation:
    """One timed command.

    ``args`` follow the program name (``disot`` or, for ``kind="import"``,
    ``python``).  ``capped`` marks subgradient solves limited by --max-iter,
    the only ones allowed to exit with status 3.  ``same_as`` names the setup
    instance whose bytes a timed ``generate`` must reproduce.
    """

    label: str
    args: tuple[str, ...]
    kind: str = "cli"
    capped: bool = False
    same_as: str | None = None

    @property
    def command(self) -> str:
        return "import" if self.kind == "import" else self.args[0]

    def option(self, flag: str, default: str | None = None) -> str | None:
        args = list(self.args)
        return args[args.index(flag) + 1] if flag in args else default


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    invocations: tuple[Invocation, ...]
    # traced span names that must record at least one call on this workload
    busy_layers: tuple[str, ...]


def _gen(name: str, seed: int, fibers: int, atoms: int, measures: int, kind: str) -> Instance:
    flags = ("--seed", str(seed), "--fibers", str(fibers), "--atoms", str(atoms),
             "--measures", str(measures), "--kind", kind)
    return Instance(name, flags)


def _capped(label: str, *args: str) -> Invocation:
    return Invocation(label, (*args, "--max-iter", str(SUBGRADIENT_ITERS)), capped=True)


def subgradient_2d(seed: int) -> Workload:
    """2-d costs: transport pivots and subgradient iterations take the time."""
    s = 1000 * seed
    return Workload(
        name="subgradient-2d",
        instances=(
            _gen("sq24a.json", s + 1, 4, 24, 2, "square"),
            _gen("sq24b.json", s + 2, 4, 24, 2, "square"),
            _gen("sq100.json", s + 3, 1, 100, 2, "square"),
            _gen("sq200.json", s + 4, 1, 200, 2, "square"),
        ),
        invocations=(
            _capped("disint-bary q=4", "disint-bary", "--input", "sq24a.json", "--p", "2", "--q", "4"),
            _capped("certify q=4", "certify", "--input", "sq24a.json", "--p", "2", "--q", "4"),
            _capped("disint-bary q=inf", "disint-bary", "--input", "sq24b.json", "--p", "2", "--q", "inf"),
            _capped("certify q=inf", "certify", "--input", "sq24b.json", "--p", "2", "--q", "inf"),
            Invocation("ot n=100", ("ot", "--input", "sq100.json", "--p", "2", "--mu", "m1", "--nu", "m2")),
            Invocation("ot n=200", ("ot", "--input", "sq200.json", "--p", "2", "--mu", "m1", "--nu", "m2")),
        ),
        busy_layers=(
            "ot.transport", "ot.solve_ot", "ot.exact_basis_value", "ot.c_transform",
            "barycenter.disint_barycenter", "barycenter.fiber_barycenter_lp", "barycenter.highs",
            "duality.extract_certificate", "duality.eval_dual", "duality.duality_gap",
            "metric.scrmk", "io.load_instance", "io.dump_text",
        ),
    )


def exact_lp_1d(seed: int) -> Workload:
    """1-d costs at q = p: joint LPs, HiGHS and exact values; no pivots."""
    s = 1000 * seed
    iv = "iv80.json"
    return Workload(
        name="exact-lp-1d",
        instances=(
            _gen(iv, s + 1, 4, 80, 3, "interval"),
            _gen("iv400.json", s + 2, 1, 400, 2, "interval"),
        ),
        invocations=(
            Invocation("disint-bary q=2", ("disint-bary", "--input", iv, "--p", "2", "--q", "2")),
            Invocation("certify p=2 q=2", ("certify", "--input", iv, "--p", "2", "--q", "2")),
            Invocation("certify p=1 q=1", ("certify", "--input", iv, "--p", "1", "--q", "1")),
            Invocation("probe q=2", ("probe-uniqueness", "--input", iv, "--p", "2", "--q", "2",
                                     "--trials", "4", "--seed", str(s + 3))),
            Invocation("example 2.2", ("example", "2.2", "--n", "50")),
            Invocation("ot n=400", ("ot", "--input", "iv400.json", "--p", "2", "--mu", "m1", "--nu", "m2")),
        ),
        busy_layers=(
            "ot.solve_ot", "ot.exact_basis_value", "ot.c_transform",
            "barycenter.fiber_barycenter_lp", "barycenter.highs",
            "duality.extract_certificate", "duality.eval_dual", "duality.duality_gap",
            "metric.scrmk", "io.load_instance", "io.dump_text",
        ),
    )


def short_commands(seed: int) -> Workload:
    """Commands under a second: start-up and import dominate."""
    s = 1000 * seed
    return Workload(
        name="short-commands",
        instances=(
            _gen("tiny.json", s + 1, 1, 3, 2, "interval"),
            _gen("sq25.json", s + 2, 4, 25, 2, "square"),
            _gen("one30.json", s + 3, 1, 30, 2, "interval"),
        ),
        invocations=(
            Invocation("generate", ("generate", "--seed", str(s + 1), "--fibers", "1", "--atoms", "3",
                                    "--measures", "2", "--kind", "interval", "--output", "tiny-again.json"),
                       same_as="tiny.json"),
            Invocation("ot n=3", ("ot", "--input", "tiny.json", "--p", "2", "--mu", "m1", "--nu", "m2")),
            Invocation("dist q=inf", ("dist", "--input", "sq25.json", "--p", "2", "--q", "inf",
                                      "--m", "m1", "--n", "m2")),
            Invocation("bary p=1", ("bary", "--input", "one30.json", "--p", "1")),
            Invocation("example 2.1", ("example", "2.1")),
            Invocation("import disot", ("-c", "import disot"), kind="import"),
        ),
        busy_layers=(
            "ot.transport", "ot.solve_ot", "metric.scrmk", "barycenter.highs",
            "barycenter.disint_barycenter", "io.load_instance", "io.dump_text", "io.save_document",
        ),
    )


WORKLOADS = {w(0).name: w for w in (subgradient_2d, exact_lp_1d, short_commands)}
