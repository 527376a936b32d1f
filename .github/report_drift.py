"""Compare the reports of two source trees on the benchmark's workloads.

    python3 .github/report_drift.py --base SRC --head SRC [--seeds 0,1,2]

SRC is a tree's ``src`` directory.  For each side and each seed, every
workload of ``perfbench/workloads.py`` runs in a fresh temporary directory
outside the repository: the side's own ``disot generate`` writes the
instances, then each invocation runs once as a fresh interpreter with
``PYTHONPATH`` set to that side's SRC.  An output is a generated instance
file, or an invocation's stdout bytes and exit status.  Every output that
differs between the sides is printed, then ``N of M outputs differ``; the
exit status is 1 when any output differs and 0 otherwise.

The workloads are read from ``perfbench/workloads.py`` next to this script
and are not modified.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what the ``disot`` console script runs, as in perfbench/run.py
ENTRY = "import sys; from disot.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 600


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _run(argv: list[str], cwd: Path, src: Path) -> tuple[int | str, bytes]:
    """Exit status ("timeout" past CHILD_TIMEOUT_S) and stdout of one child."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("DOT_NUM_THREADS", None)
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", b""
    return proc.returncode, proc.stdout


def outputs(workloads, src: Path, seed: int) -> dict[str, tuple]:
    """(exit status, bytes, what the bytes are) of every output at ``seed`` on one side."""
    out = {}
    for name, make in workloads.items():
        workload = make(seed)
        with tempfile.TemporaryDirectory(prefix="report-drift-") as tmp:
            work = Path(tmp)
            for inst in workload.instances:
                status, _ = _run([sys.executable, "-c", ENTRY, *inst.argv(inst.name)], work, src)
                path = work / inst.name
                written = path.read_bytes() if path.exists() else None
                out[f"seed {seed} {name} instance {inst.name}"] = (status, written, "file")
            for inv in workload.invocations:
                head = [sys.executable] if inv.kind == "import" else [sys.executable, "-c", ENTRY]
                status, stdout = _run([*head, *inv.args], work, src)
                out[f"seed {seed} {name} {inv.label!r}"] = (status, stdout, "stdout")
    return out


def _describe(base: tuple, head: tuple) -> str:
    (rc0, out0, what), (rc1, out1, _) = base, head
    parts = [] if rc0 == rc1 else [f"exit {rc0} -> {rc1}"]
    if out0 != out1:
        parts.append(f"{what} differs")
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="src directory of the base tree")
    ap.add_argument("--head", required=True, type=Path, help="src directory of the changed tree")
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated workload seeds")
    opts = ap.parse_args(argv)
    seeds = [int(s) for s in opts.seeds.split(",") if s.strip()]
    base_src, head_src = opts.base.resolve(), opts.head.resolve()
    workloads = _workloads()
    total = differ = 0
    for seed in seeds:
        base, head = (outputs(workloads, src, seed) for src in (base_src, head_src))
        for label, got in head.items():
            total += 1
            if base[label] != got:
                differ += 1
                print(f"{label}: {_describe(base[label], got)}", flush=True)
    print(f"{differ} of {total} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
