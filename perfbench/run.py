"""Closed-loop benchmark of the ``disot`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/``.  One client runs one invocation at a time, each as a fresh
interpreter (as the ``disot`` entry point would start it), so start-up and
import time count.  ``DOT_NUM_THREADS`` is removed from the children's
environment.

Set-up generates the workload's instances with ``disot generate`` several
times and checks that every repetition writes the same bytes.  With
``--trace 0`` the workload's invocations then run in a cycle until S seconds
have passed and each has run at least once; every output is checked and the
end-to-end metrics are printed.  With ``--trace 1`` each CLI invocation runs
once untraced and once traced in-process (see tracer.py), and the per-layer
metrics are printed.  The last stdout line is the result object; the line
before it holds the sample counts, failures and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import check
from tracer import MISSING_TARGET_EXIT
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
# what the ``disot`` console script runs
ENTRY = "import sys; from disot.cli import main; sys.exit(main())"
SETUP_REPS = 3
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 120.0
REFERENCE_SEED = 0


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_kb: int
    rc: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DOT_NUM_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, env: dict[str, str]) -> Sample:
    """Run one child to completion; wall time, CPU time and peak RSS are its own."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                  out_path.read_bytes(), err_path.read_bytes())


def cli_argv(inv) -> list[str]:
    if inv.kind == "import":
        return [sys.executable, *inv.args]
    return [sys.executable, "-c", ENTRY, *inv.args]


def setup(workload, workdir: Path, env, reps: int) -> tuple[list[float], list[str]]:
    """Generate the instances ``reps`` times; returns durations and problems."""
    times, problems, first = [], [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        digests = {}
        for inst in workload.instances:
            s = spawn([sys.executable, "-c", ENTRY, *inst.argv(inst.name)], workdir, env)
            if s.rc != 0:
                raise RuntimeError(f"generate {inst.name} failed ({s.rc}): {s.stderr.decode()[-500:]}")
            digests[inst.name] = hashlib.sha256((workdir / inst.name).read_bytes()).hexdigest()
        times.append(time.perf_counter() - t0)
        if first is None:
            first = digests
        elif digests != first:
            problems.append("setup: generate wrote different bytes on a repeat")
    return times, problems


class Judge:
    """Checks outputs, once per distinct (invocation, status, stdout)."""

    def __init__(self, workdir: Path, reference: dict | None):
        self.workdir = workdir
        self.reference = reference
        self.first: dict[str, Sample] = {}
        self._seen: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, inv, s: Sample) -> bool:
        self.attempted += 1
        key = (inv.label, s.rc, hashlib.sha256(s.stdout).digest())
        if key not in self._seen:
            found = check.check_report(inv, s.rc, s.stdout, self.workdir)
            first = self.first.setdefault(inv.label, s)
            if first is not s and (first.rc, first.stdout) != (s.rc, s.stdout):
                found.append("output differs from the first run of the same invocation")
            if self.reference is not None and inv.kind != "import":
                recorded = self.reference.get(inv.label)
                found += ["reference: no recorded values"] if recorded is None \
                    else check.check_reference(s.stdout, recorded)
            if found and s.stderr:
                found.append("stderr: " + s.stderr.decode(errors="replace")[-300:])
            self._seen[key] = found
        found = self._seen[key]
        if found:
            self.failed += 1
            self.problems += [f"{inv.label}: {p}" for p in found]
        return not found

    def self_test(self, workload) -> None:
        """Corrupt this run's first ot report and first report with a
        certified field; each corruption must be flagged."""
        chosen = []
        for want in ("ot", "certified"):
            for inv in workload.invocations:
                s = self.first.get(inv.label)
                if s is None or inv.kind == "import":
                    continue
                if (inv.command == "ot") if want == "ot" else (b'"certified"' in s.stdout):
                    chosen.append((inv, s.rc, s.stdout, self.workdir))
                    break
        _, missed = check.self_test(chosen)
        if len(chosen) < 2:
            missed.append("no ot report or no certified field to corrupt")
        self.problems += [f"checker self-test: {m}" for m in missed]


def load_reference(workload, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload.name, {})


def timed_loop(workload, workdir, env, seconds: float, judge: Judge) -> dict[str, list[Sample]]:
    """Cycle through the invocations until ``seconds`` passed and each ran once."""
    samples: dict[str, list[Sample]] = defaultdict(list)
    start = time.perf_counter()
    while True:
        for inv in workload.invocations:
            if len(samples) == len(workload.invocations) and time.perf_counter() - start >= seconds:
                return samples
            s = spawn(cli_argv(inv), workdir, env)
            judge(inv, s)
            samples[inv.label].append(s)


def end_to_end(samples: dict[str, list[Sample]], setup_times: list[float]) -> dict:
    # each invocation's median first, so the invocations that ran once more
    # than the others before time ran out do not shift the overall median
    walls = [statistics.median(s.wall for s in ss) for ss in samples.values()]
    return {
        "cmd_p50_s": (statistics.median(walls), "s"),
        "run_s": (sum(walls), "s"),
        "cpu_s": (sum(statistics.median(s.cpu for s in ss) for ss in samples.values()), "s"),
        "peak_rss_mb": (max(s.rss_kb for ss in samples.values() for s in ss) / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def import_breakdown(workdir, env) -> tuple[float, float]:
    """Medians of the cumulative import time of disot and of scipy.optimize
    under ``-X importtime``, over fresh interpreters (0 when not imported)."""
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*?)\s*$")
    disot_us, scipy_us = [], []
    for _ in range(IMPORT_REPS):
        s = spawn([sys.executable, "-X", "importtime", "-c", "import disot"], workdir, env)
        if s.rc != 0:
            raise RuntimeError(f"import disot failed: {s.stderr.decode()[-500:]}")
        cumulative = {}
        for line in s.stderr.decode().splitlines():
            m = pattern.match(line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)))
        disot_us.append(cumulative.get("disot", 0))
        scipy_us.append(cumulative.get("scipy.optimize", 0))
    return statistics.median(disot_us) / 1e6, statistics.median(scipy_us) / 1e6


def traced_pass(workload, workdir, env, judge: Judge, spans_out: Path) -> tuple[dict, list[str]]:
    """Each CLI invocation once untraced and once traced, in-process.

    The traced invocations' spans are written to ``spans_out`` at the end.
    """
    problems: list[str] = []
    plain_main, traced_main, overheads, records, reports = [], [], [], [], []
    for inv in workload.invocations:
        if inv.kind == "import":
            continue
        runs = {}
        for mode in ("plain", "traced"):
            spans_file = workdir / f".spans-{mode}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), "--out", str(spans_file)]
            s = spawn(argv + (["--trace"] if mode == "traced" else []) + ["--", *inv.args], workdir, env)
            if s.rc == MISSING_TARGET_EXIT:
                raise RuntimeError(s.stderr.decode().strip())
            judge(inv, s)
            runs[mode] = (s, json.loads(spans_file.read_text()))
        (plain, prec), (traced, trec) = runs["plain"], runs["traced"]
        if (plain.rc, plain.stdout) != (traced.rc, traced.stdout):
            problems.append(f"{inv.label}: traced and untraced output differ")
        plain_main.append(prec["main_s"])
        traced_main.append(trec["main_s"])
        overheads.append(plain.wall - prec["main_s"])
        records.append(dict(trec, invocation=inv.label))
        reports.append(traced.stdout)
    spans_out.write_text(json.dumps(records))
    metrics = layer_metrics(records, reports)
    metrics["cli.main_s"] = (sum(plain_main), "s")
    metrics["cli.process_overhead_s"] = (statistics.median(overheads), "s")
    metrics["trace.overhead_s"] = (sum(traced_main) - sum(plain_main), "s")
    for layer in workload.busy_layers:
        if not any(span[0] == layer for rec in records for span in rec["spans"]):
            problems.append(f"coverage: {layer} recorded no calls on {workload.name}")
    return metrics, problems


LP_BUILDERS = ("barycenter.fiber_barycenter_lp", "duality.zeta_minimax_lp")
SUBGRADIENT_SIDE_WORK = ("duality.extract_certificate", "duality.eval_dual", "metric.scrmk")


def layer_metrics(records: list[dict], reports: list[bytes]) -> dict:
    """Per-layer counts and times from the spans of one traced pass."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    lp = Counter()
    iter_net_s = 0.0
    iter_count = 0
    for rec in records:
        spans = rec["spans"]
        kids = defaultdict(list)
        for i, span in enumerate(spans):
            kids[span[3]].append(i)
        for i, (name, t0, t1, parent, extra) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            up = parent
            while up != -1 and spans[up][0] != name:
                up = spans[up][3]
            if up == -1:  # time inside a same-name caller is counted there
                busy[name] += dur
            own[name] += dur - sum(spans[k][2] - spans[k][1] for k in kids[i])
            if name == "barycenter.highs" and extra:
                lp.update(extra)
            if name == "barycenter.disint_barycenter" and extra:
                side = sum(spans[k][2] - spans[k][1] for k in kids[i] if spans[k][0] in SUBGRADIENT_SIDE_WORK)
                iter_net_s += dur - side
                iter_count += extra["iterations"]
    m = {}
    for name in ("ot.transport", "ot.exact_basis_value", "ot.solve_ot", "ot.c_transform"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (busy[name], "s")
    m["ot.transport.ms_per_call"] = (1e3 * busy["ot.transport"] / calls["ot.transport"]
                                     if calls["ot.transport"] else 0.0, "ms")
    m["barycenter.fiber_barycenter_lp.calls"] = (calls["barycenter.fiber_barycenter_lp"], "count")
    m["barycenter.highs.calls"] = (calls["barycenter.highs"], "count")
    m["barycenter.highs.s"] = (busy["barycenter.highs"], "s")
    m["barycenter.lp_assembly_s"] = (sum(own[n] for n in LP_BUILDERS), "s")
    for key in ("rows", "cols", "nnz"):
        m[f"barycenter.lp_{key}"] = (lp[key], "count")
    m["barycenter.subgradient_iters"] = (iter_count, "count")
    m["barycenter.subgradient_iter_ms"] = (1e3 * iter_net_s / iter_count if iter_count else 0.0, "ms")
    m["duality.extract_certificate.calls"] = (calls["duality.extract_certificate"], "count")
    for name in ("duality.extract_certificate", "duality.eval_dual", "duality.duality_gap"):
        m[f"{name}.s"] = (busy[name], "s")
    m["metric.scrmk.calls"] = (calls["metric.scrmk"], "count")
    m["metric.scrmk.s"] = (busy["metric.scrmk"], "s")
    m["io.load_instance.s"] = (busy["io.load_instance"], "s")
    m["io.dump_text.s"] = (busy["io.dump_text"], "s")
    m["io.report_bytes"] = (sum(len(r) for r in reports), "bytes")
    m["parallel.fiber_map.calls"] = (calls["parallel.fiber_map"], "count")
    return m


def environment(load_start) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "DOT_NUM_THREADS_in_caller": os.environ.get("DOT_NUM_THREADS"),
        "DOT_NUM_THREADS_in_children": "removed",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="Closed-loop benchmark of the disot CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if opts.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "disot" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    load_start = list(os.getloadavg())
    workload = WORKLOADS[opts.workload](opts.seed)
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-s{opts.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        setup_times, problems = setup(workload, workdir, env, 1 if opts.trace else SETUP_REPS)
        judge = Judge(workdir, load_reference(workload, opts.seed))
        detail = {"workload": workload.name, "seed": opts.seed, "trace": opts.trace}
        if opts.trace:
            spans_out = workdir.parent / f"spans-{workload.name}-s{opts.seed}.json"
            metrics, traced_problems = traced_pass(workload, workdir, env, judge, spans_out)
            problems += traced_problems
            import_s, import_scipy_s = import_breakdown(workdir, env)
            metrics["cli.import_s"] = (import_s, "s")
            metrics["cli.import_scipy_s"] = (import_scipy_s, "s")
        else:
            samples = timed_loop(workload, workdir, env, opts.seconds, judge)
            metrics = end_to_end(samples, setup_times)
            detail["samples"] = {label: len(ss) for label, ss in samples.items()}
            detail["median_wall_s"] = {label: statistics.median(s.wall for s in ss) for label, ss in samples.items()}
            detail["setup_reps"] = [round(t, 4) for t in setup_times]
        judge.self_test(workload)
        problems = judge.problems + problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["fail_frac"] = judge.failed / judge.attempted
    detail["problems"] = problems[:50]
    detail["environment"] = environment(load_start)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
