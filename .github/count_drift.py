"""Compare the count metrics of the benchmark's traced runs on two trees.

    python3 .github/count_drift.py --base DIR --head DIR

DIR is the root of a checkout.  For each workload that ``BENCHMARK.json``
next to this script lists, each tree's own ``perfbench/run.py --workload W
--seed 0 --trace 1`` runs once, and the metrics whose unit is ``count`` are
read from its last stdout line.  Every count that differs between the trees,
or that one tree lacks, is printed, then ``N of M counts differ``; the exit
status is 1 when any count differs, 2 when a run gives no result line, and
0 otherwise.  The benchmark is only run, never modified.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1200


def _workloads() -> list[str]:
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def counts(tree: Path, workload: str) -> dict[str, float] | None:
    """The count metrics of one traced seed-0 run of ``workload`` on ``tree``, or None."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    try:
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    except (IndexError, ValueError, KeyError):
        print(f"{tree} {workload}: no result line (exit {proc.returncode})\n{proc.stderr[-2000:]}")
        return None
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="root of the base checkout")
    ap.add_argument("--head", required=True, type=Path, help="root of the changed checkout")
    opts = ap.parse_args(argv)
    total = differ = 0
    for workload in _workloads():
        base, head = (counts(tree.resolve(), workload) for tree in (opts.base, opts.head))
        if base is None or head is None:
            return 2
        for name in sorted(base.keys() | head.keys()):
            total += 1
            if base.get(name) != head.get(name):
                differ += 1
                print(f"{workload} {name}: {base.get(name)} -> {head.get(name)}", flush=True)
    print(f"{differ} of {total} counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
