"""Run one ``disot`` CLI invocation in-process, with or without tracing.

    python3 perfbench/tracer.py --out SPANS.json [--trace] -- ARGS...

The report goes to stdout exactly as ``disot ARGS...`` would write it, and
the process exits with the CLI's status.  SPANS.json receives the in-process
time of ``disot.cli.main`` and, with --trace, one span per call into the
wrapped functions below.  The wrapping happens here, by rebinding module
attributes, so the program's own files stay untouched.

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index of
the enclosing span or -1, and ``extra`` holds counts read from arguments or
results (LP sizes, subgradient iterations).  Spans stay in memory until the
invocation ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute, span name, required).  A required name that is missing
# fails the run, so a rename cannot silently empty a layer.  The optional ones
# are a private LP builder and the thread-pool layer, which planned
# refactors may remove.
TARGETS = (
    ("disot.io", "load_instance", "io.load_instance", True),
    ("disot.io", "dump_text", "io.dump_text", True),
    ("disot.io", "save_document", "io.save_document", True),
    ("disot.ot", "transport", "ot.transport", True),
    ("disot.ot", "exact_basis_value", "ot.exact_basis_value", True),
    ("disot.ot", "solve_ot", "ot.solve_ot", True),
    ("disot.ot", "c_transform", "ot.c_transform", True),
    ("disot.metric", "scrmk", "metric.scrmk", True),
    ("disot.metric", "fiber_distance_profile", "metric.fiber_distance_profile", True),
    ("disot.barycenter", "disint_barycenter", "barycenter.disint_barycenter", True),
    ("disot.barycenter", "classical_barycenter", "barycenter.classical_barycenter", True),
    ("disot.barycenter", "fiber_barycenter_lp", "barycenter.fiber_barycenter_lp", True),
    ("disot.barycenter", "objective", "barycenter.objective", True),
    ("disot.barycenter", "uniqueness_probe", "barycenter.uniqueness_probe", True),
    ("disot.duality", "extract_certificate", "duality.extract_certificate", True),
    ("disot.duality", "eval_dual", "duality.eval_dual", True),
    ("disot.duality", "duality_gap", "duality.duality_gap", True),
    ("disot.duality", "_zeta_minimax", "duality.zeta_minimax_lp", False),
    ("disot.parallel", "fiber_map", "parallel.fiber_map", False),
    # HiGHS is wrapped at its source, so a lazy ``from scipy.optimize import
    # linprog`` inside a function still reaches the wrapper.
    ("scipy.optimize", "linprog", "barycenter.highs", True),
)

# Besides disot's own modules, these have their bindings of a wrapped
# function replaced by the wrapper.
SOURCE_MODULES = ("scipy.optimize", "scipy.optimize._linprog")


# exit status when a required target is missing
MISSING_TARGET_EXIT = 70


class MissingTarget(RuntimeError):
    pass


class Tracer:
    """Wraps the targets and records their spans.

    One stack tracks the open spans, which assumes a single thread: the
    benchmark removes DOT_NUM_THREADS, so ``fiber_map`` runs serially.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.bindings: dict[str, list[str]] = {}

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, extra(fn, args, kwargs, out) if extra else None]

        return traced

    def install(self):
        importlib.import_module("disot.cli")
        importlib.import_module("scipy.optimize")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "disot" or n.startswith("disot.") or n in SOURCE_MODULES)]
        for mod_name, attr, span, required in TARGETS:
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                if required:
                    raise MissingTarget(f"{mod_name}.{attr} is gone; {span} would read zero") from None
                continue
            wrapper = self.wrap(span, original, EXTRAS.get(span))
            sites = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
            self.bindings[span] = sites


def _lp_size(fn, args, kwargs, _out):
    """Rows, columns and nonzeros of the LP handed to linprog."""
    bound = inspect.signature(fn).bind_partial(*args, **kwargs)
    c = bound.arguments.get("c")
    rows = nnz = 0
    for key in ("A_eq", "A_ub"):
        mat = bound.arguments.get(key)
        if mat is not None:
            rows += mat.shape[0]
            nnz += int(mat.nnz) if hasattr(mat, "nnz") else int((mat != 0).sum())
    return {"rows": rows, "cols": len(c), "nnz": nnz}


def _iterations(_fn, _args, _kwargs, out):
    log = getattr(out, "solver_log", None) or {}
    if log.get("method") != "projected_subgradient":
        return None
    return {"iterations": int(log["iterations"])}


EXTRAS = {"barycenter.highs": _lp_size, "barycenter.disint_barycenter": _iterations}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file for main() time and spans")
    ap.add_argument("--trace", action="store_true", help="wrap the layers and record spans")
    ap.add_argument("args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    tracer = None
    if opts.trace:
        tracer = Tracer()
        try:
            tracer.install()
        except MissingTarget as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return MISSING_TARGET_EXIT
    from disot import cli

    t0 = time.perf_counter()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    record = {"main_s": main_s}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["bindings"] = tracer.bindings
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
