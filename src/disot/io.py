"""Instance files, reports, and deterministic serialization.

Instance schema (per-fiber form)::

    {"base": [{"id": str, "sigma": float}],
     "fibers": {id: {"points": [...], "cost": [[...]],
                     "measures": {name: [{"point": idx, "w": float}]}}}}

The shared-fiber form hoists "points"/"cost" to the top level and may add
"relabelings": {base_id: [permutation]}, each a permutation of the shared
points that preserves the cost exactly, keyed by a base point.  Relabelings
are checked on parsing and then dropped, as "points" is, since the solvers
see only "cost"; the per-fiber form has no shared points to relabel, and
rejects them.  A base point of weight 0 may omit its fiber entry.  All
floats are emitted with 12 significant digits so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidGroundCost, ParseError
from .measures import DiscreteMeasure, FiberedMeasure, GroundCost


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


def _json_node(x, kind: type, where: str):
    """``x`` when it is a JSON object (kind Mapping) or array (kind list), else ParseError."""
    if not isinstance(x, kind):
        name = "object" if kind is Mapping else "array"
        raise ParseError(f"{where} is not a JSON {name}: {x!r}")
    return x


_INT64 = np.iinfo(np.int64)


def _json_int(x, where: str) -> int:
    """A point id or relabeling entry: a JSON integer in the int64 range, not a float or a boolean."""
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
    """Parsed instance file: base weights, a ground cost per base point, and named measures.

    In the shared-fiber form every base point maps to one GroundCost object.
    A base point of weight 0 whose fiber entry is omitted has no cost.
    """

    base_ids: tuple[str, ...]
    sigma: np.ndarray
    costs: dict[str, GroundCost]
    measures: dict[str, FiberedMeasure]

    def measure(self, name: str) -> FiberedMeasure:
        try:
            return self.measures[name]
        except KeyError:
            raise ParseError(
                f"measure {name!r} not in instance (has: {sorted(self.measures)})"
            ) from None


def _parse_atoms(raw, where: str) -> DiscreteMeasure:
    try:
        pairs = [(_json_int(a["point"], where), parse_extended_float(a["w"], where)) for a in raw]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad atom list at {where}: {exc}") from None
    return DiscreteMeasure([i for i, _ in pairs], [w for _, w in pairs])


def parse_instance(doc: Mapping) -> Instance:
    try:
        base = [(str(e["id"]), parse_extended_float(e["sigma"], f"base point {e['id']!r}"))
                for e in doc["base"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad or missing 'base' section: {exc}") from None
    base_ids = [b for b, _ in base]
    sigma = np.array([s for _, s in base])
    fibers_doc = _json_node(doc.get("fibers", {}), Mapping, "'fibers'")
    fibers = {b: _json_node(fibers_doc[b], Mapping, f"fiber {b!r}")
              for b in base_ids if b in fibers_doc}
    measures_at = {b: _json_node(f.get("measures", {}), Mapping, f"'measures' of fiber {b!r}")
                   for b, f in fibers.items()}
    if "cost" in doc:
        cost = _cost(doc["cost"], "the top-level 'cost'")
        # a relabeling is checked and then dropped: no solver reads it
        for bid, perm in _json_node(doc.get("relabelings", {}), Mapping, "'relabelings'").items():
            if bid not in base_ids:
                raise ParseError(f"relabeling at {bid!r} names no base point")
            where = f"relabeling at {bid!r}"
            perm = _json_node(perm, list, where)
            g = np.array([_json_int(i, where) for i in perm], dtype=np.int64)
            if sorted(g.tolist()) != list(range(cost.n)):
                raise InvalidGroundCost(f"relabeling at {bid!r} is not a permutation")
            if not np.array_equal(cost.d[np.ix_(g, g)], cost.d):
                raise InvalidGroundCost(f"relabeling at {bid!r} does not preserve the cost")
        costs = dict.fromkeys(base_ids, cost)
    else:
        if doc.get("relabelings"):
            raise ParseError("relabelings need the shared-fiber form, with one top-level 'cost'")
        costs = {}
        for b in base_ids:
            if sigma[base_ids.index(b)] <= 0.0 and b not in fibers:
                continue
            try:
                fd = fibers[b]
            except KeyError:
                raise ParseError(f"no fiber entry for base point {b!r}") from None
            try:
                costs[b] = _cost(fd["cost"], f"the cost of fiber {b!r}")
            except KeyError:
                raise ParseError(f"fiber {b!r} lacks a cost matrix") from None
    # collect measure names across fibers
    names: list[str] = []
    for b in base_ids:
        for name in measures_at.get(b, {}):
            if name not in names:
                names.append(name)
    measures = {}
    positive = [b for b, s in base if s > 0.0]
    for name in names:
        fibs = {}
        for b in positive:
            md = measures_at.get(b, {})
            if name not in md:
                raise ParseError(f"measure {name!r} missing at base point {b!r}")
            fibs[b] = _parse_atoms(md[name], f"measure {name!r} at base point {b!r}")
        measures[name] = FiberedMeasure(base_ids, sigma, fibs)
    return Instance(base_ids=tuple(base_ids), sigma=sigma, costs=costs, measures=measures)


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
    first row is treated as a header.
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
    weights = [w for _, w in rows]
    return coords, DiscreteMeasure(np.arange(len(rows)), weights)


def combine_1d_points(coord_lists: Sequence[np.ndarray]):
    """Union point set of several 1-d clouds with |x - y| ground cost.

    Returns (points, GroundCost, offsets) where offsets[i] maps the i-th
    cloud's local indices into the union.
    """
    offsets = []
    start = 0
    for c in coord_lists:
        offsets.append(np.arange(start, start + c.size))
        start += c.size
    pts = np.concatenate(coord_lists) if coord_lists else np.array([])
    cost = GroundCost(np.abs(pts[:, None] - pts[None, :]))
    return pts, cost, offsets


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
