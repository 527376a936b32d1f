"""Instance files, reports, and deterministic serialization.

Instance schema (per-fiber form)::

    {"base": [{"id": str, "sigma": float}],
     "fibers": {id: {"points": [...], "cost": [[...]],
                     "measures": {name: [{"point": idx, "w": float}]}}}}

The shared-fiber form hoists "points"/"cost" to the top level; the solvers
see only "cost".  A base point whose weight normalizes to 0 carries no fiber,
so it may omit its fiber entry and its measures.  All floats are emitted
with 12 significant digits so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DisotError, ParseError
from .measures import DiscreteMeasure, FiberedMeasure, GroundCost, positive_base


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.12g}"


def _number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (np.floating, float)):
        return format_float(float(x))
    return str(int(x))


_NUMBER = (int, float, np.integer, np.floating)


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with fixed float formatting.

    Dict insertion order is preserved; floats use 12 significant digits;
    non-finite floats become the strings "inf", "-inf", "nan".  A list of
    numbers prints on one line.  When its entries are all plain Python
    floats (as ``ndarray.tolist()`` gives), the row is formatted in one
    ``"{:.12g}"`` pass, and kept only if no entry printed as inf or nan
    (no "n" in the text); each entry is then exactly what
    :func:`format_float` returns for it, so the bytes are those of a
    per-number pass.  Any other row of numbers goes through the per-number
    branches.
    """
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        inner = "  " * (indent + 1)
        items = [f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if set(map(type, seq)) == {float}:
            text = ", ".join(map("{:.12g}".format, seq))
            if "n" not in text:
                return "[" + text + "]"
        if all(isinstance(v, _NUMBER) for v in seq):
            return "[" + ", ".join(map(_number, seq)) + "]"
        inner = "  " * (indent + 1)
        items = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"
    if isinstance(obj, _NUMBER):
        return _number(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def dump_text(obj) -> str:
    return dumps(obj) + "\n"


_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def parse_extended_float(x, where: str) -> float:
    """A number (not a boolean) or one of the strings "inf", "-inf", "nan", as a float.

    A boolean or any other string, "0.25" and "Infinity" included, and an
    integer past the float range raise ParseError naming ``where``.
    """
    if isinstance(x, str):
        if x in _NON_FINITE:
            return _NON_FINITE[x]
    elif not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise ParseError(f"{where}: integer too large for a float") from None
    raise ParseError(f"{where}: not a number: {x!r}")


def _json_object(x, where: str) -> Mapping:
    """``x`` when it is a JSON object, else ParseError."""
    if not isinstance(x, Mapping):
        raise ParseError(f"{where} is not a JSON object: {x!r}")
    return x


_INT64 = np.iinfo(np.int64)


def _json_int(x, where: str) -> int:
    """A point id: a JSON integer in the int64 range, not a float or a boolean."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ParseError(f"{where}: not an integer: {x!r}")
    if not _INT64.min <= x <= _INT64.max:
        raise ParseError(f"{where}: integer out of the int64 range: {x!r}")
    return int(x)


def _cost(raw, where: str) -> GroundCost:
    """The GroundCost of a JSON matrix, whose entries must be numbers.

    numpy's conversion reads a numeric string or a boolean as a number, so
    once the matrix is accepted one pass over its entry types refuses them,
    naming the first such entry in :func:`parse_extended_float`'s words.
    """
    try:
        cost = GroundCost(raw)
    except (ValueError, TypeError, OverflowError):
        raise ParseError(f"{where} is not a matrix of numbers") from None
    if not set(map(type, itertools.chain.from_iterable(raw))).isdisjoint((str, bool)):
        bad = next(x for x in itertools.chain.from_iterable(raw) if isinstance(x, (str, bool)))
        raise ParseError(f"{where}: not a number: {bad!r}")
    return cost


@dataclass(frozen=True)
class Instance:
    """Parsed instance file: base points, a ground cost per base point, and named measures.

    In the shared-fiber form every base point maps to one GroundCost object.
    A base point whose weight normalizes to 0 and whose fiber entry is
    omitted has no cost.  The base weights live in the measures, which keep
    only the base points of positive normalized weight: those alone carry
    fibers.
    """

    base_ids: tuple[str, ...]
    costs: dict[str, GroundCost]
    measures: dict[str, FiberedMeasure]

    def measure(self, name: str) -> FiberedMeasure:
        try:
            return self.measures[name]
        except KeyError:
            raise ParseError(
                f"measure {name!r} not in instance (has: {sorted(self.measures)})"
            ) from None


def _measure(ids, weights, where: str) -> DiscreteMeasure:
    """DiscreteMeasure(ids, weights), with ``where`` in front of the message of any error it raises."""
    try:
        return DiscreteMeasure(ids, weights)
    except (DisotError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _parse_atoms(raw, where: str) -> DiscreteMeasure:
    try:
        pairs = [(_json_int(a["point"], where), parse_extended_float(a["w"], where)) for a in raw]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad atom list at {where}: {exc}") from None
    return _measure([i for i, _ in pairs], [w for _, w in pairs], where)


def parse_instance(doc: Mapping) -> Instance:
    """The Instance of a JSON document; see the module docstring for the schema.

    A fiber entry and each measure are required only at the base points of
    positive normalized weight; one that is present elsewhere is still parsed.
    """
    try:
        base = [(str(e["id"]), parse_extended_float(e["sigma"], f"base point {e['id']!r}"))
                for e in doc["base"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad or missing 'base' section: {exc}") from None
    if "relabelings" in doc:
        raise ParseError("the instance key 'relabelings' is not supported")
    base_ids = [b for b, _ in base]
    sigma = [s for _, s in base]
    fibers_doc = _json_object(doc.get("fibers", {}), "'fibers'")
    fibers = {b: _json_object(fibers_doc[b], f"fiber {b!r}")
              for b in base_ids if b in fibers_doc}
    measures_at = {b: _json_object(f.get("measures", {}), f"'measures' of fiber {b!r}")
                   for b, f in fibers.items()}
    positive = set(positive_base(base_ids, sigma)[0])
    if "cost" in doc:
        costs = dict.fromkeys(base_ids, _cost(doc["cost"], "the top-level 'cost'"))
    else:
        costs = {}
        for b in base_ids:
            if b not in fibers:
                if b in positive:
                    raise ParseError(f"no fiber entry for base point {b!r}")
                continue
            try:
                costs[b] = _cost(fibers[b]["cost"], f"the cost of fiber {b!r}")
            except KeyError:
                raise ParseError(f"fiber {b!r} lacks a cost matrix") from None
    measures = {}
    # measure names in the order they first appear
    for name in dict.fromkeys(itertools.chain.from_iterable(measures_at.values())):
        fibs = {}
        for b in base_ids:
            md = measures_at.get(b, {})
            if name in md:
                fibs[b] = _parse_atoms(md[name], f"measure {name!r} at base point {b!r}")
            elif b in positive:
                raise ParseError(f"measure {name!r} missing at base point {b!r}")
        measures[name] = FiberedMeasure(base_ids, sigma, fibs)
    return Instance(base_ids=tuple(base_ids), costs=costs, measures=measures)


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read instance {path}: {exc}") from None
    return parse_instance(doc)


def save_document(path: str, doc: Mapping) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_text(doc))


def load_csv_measure(path: str):
    """1-d point cloud CSV: rows of (coordinate, weight).

    Returns (coordinates, DiscreteMeasure over row indices).  A non-numeric
    first row is treated as a header.  An error in the weights names ``path``.
    """
    rows: list[tuple[float, float]] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh)):
                if not row or all(not c.strip() for c in row):
                    continue
                try:
                    x, w = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    if lineno == 0:
                        continue  # header
                    raise ParseError(f"{path}:{lineno + 1}: expected 'coordinate,weight'") from None
                rows.append((x, w))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path} holds no atoms")
    coords = np.array([x for x, _ in rows])
    return coords, _measure(np.arange(len(rows)), [w for _, w in rows], path)


def report_to_csv(report: Mapping) -> str:
    """Long-format rows (quantity, base_id, value), flattening nested keys.

    Every quantity is a dotted key path with its base point inside it, so the
    ``base_id`` column, kept for the header's sake, is always empty.
    """
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "base_id", "value"])

    def emit(prefix: str, value):
        if isinstance(value, Mapping):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple, np.ndarray)):
            for i, v in enumerate(value):
                emit(f"{prefix}[{i}]", v)
        else:
            if isinstance(value, float):
                value = f"{value:.12g}"
            writer.writerow([prefix, "", value])

    emit("", report)
    return buf.getvalue()
