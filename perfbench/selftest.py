"""Show that the output checker catches corrupted reports.

    python3 perfbench/selftest.py

Produces a small ``ot`` report and a ``certify`` report with the program,
checks that both pass, then corrupts them: ``value_p`` perturbed by 1e-6
relative, one coupling entry moved by 1e-6 (a marginal off by 1e-6), and each
``certified`` field dropped.  Exits 0 only if every corruption is flagged.
run.py repeats the same test on the first reports of every run.
"""

from __future__ import annotations

import os
import shutil
import sys

import check
import run
from workloads import Instance, Invocation


def main() -> int:
    workdir = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = run.child_env()
    try:
        inst = Instance("small.json", ("--seed", "7", "--fibers", "2", "--atoms", "6", "--measures", "2"))
        made = run.spawn([sys.executable, "-c", run.ENTRY, *inst.argv(inst.name)], workdir, env)
        if made.rc != 0:
            print(made.stderr.decode(), file=sys.stderr)
            return 1
        samples = []
        for inv in (
            Invocation("ot", ("ot", "--input", inst.name, "--fiber", "w1", "--p", "2", "--mu", "m1", "--nu", "m2")),
            Invocation("certify", ("certify", "--input", inst.name, "--p", "2", "--q", "2")),
        ):
            s = run.spawn(run.cli_argv(inv), workdir, env)
            samples.append((inv, s.rc, s.stdout, workdir))
        caught, missed = check.self_test(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in caught:
        print(f"caught  {line}")
    for line in missed:
        print(f"MISSED  {line}")
    print("checker self-test:", "FAIL" if missed else "PASS (every corruption flagged)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
