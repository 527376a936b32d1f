"""Record the reference values that run.py checks on the default seed.

    python3 perfbench/record_reference.py

Runs every workload's invocations once at seed 0, checks them, and writes
the numbers ``check.reference_values`` selects to reference.json.  Run it
only on a commit whose reports are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
import run
from workloads import WORKLOADS


def main() -> int:
    record = {}
    env = run.child_env()
    for name, make in sorted(WORKLOADS.items()):
        workload = make(run.REFERENCE_SEED)
        workdir = run.ROOT / ".perfbench_work" / f"reference-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            run.setup(workload, workdir, env, 1)
            judge = run.Judge(workdir, None)
            values = {}
            for inv in workload.invocations:
                s = run.spawn(run.cli_argv(inv), workdir, env)
                if not judge(inv, s):
                    print("\n".join(judge.problems), file=sys.stderr)
                    return 1
                if inv.kind != "import":
                    values[inv.label] = {k: v for k, (v, _) in check.reference_values(json.loads(s.stdout)).items()}
            record[name] = values
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
