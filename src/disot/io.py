"""Instance files, reports, and deterministic serialization.

Instance schema (per-fiber form)::

    {"base": [{"id": str, "sigma": float}],
     "fibers": {id: {"points": [...], "cost": [[...]],
                     "measures": {name: [{"point": idx, "w": float}]}}}}

The shared-fiber form hoists "points"/"cost" to the top level and may add
"relabelings": {base_id: [permutation]}.  "points" is descriptive: it is
accepted and never read, since the solvers see only "cost".  All floats are
emitted with 12 significant digits so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError
from .measures import Bundle, DiscreteMeasure, FiberedMeasure, GroundCost, normalize_measure


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    out = f"{x:.12g}"
    return out


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with fixed float formatting.

    Dict insertion order is preserved; floats use 12 significant digits;
    non-finite floats become the strings "inf", "-inf", "nan".
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (np.floating, float)):
        return format_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def dump_text(obj) -> str:
    return dumps(obj) + "\n"


def parse_extended_float(x) -> float:
    """Accept plain floats plus the strings "inf", "-inf", "nan"."""
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            raise ParseError(f"not a number: {x!r}") from None
    return float(x)


@dataclass(frozen=True)
class Instance:
    """Parsed instance file: a bundle, base weights, and named fibered measures."""

    base_ids: tuple[str, ...]
    sigma: np.ndarray
    bundle: Bundle
    measures: dict[str, FiberedMeasure]

    def measure(self, name: str) -> FiberedMeasure:
        try:
            return self.measures[name]
        except KeyError:
            raise ParseError(
                f"measure {name!r} not in instance (has: {sorted(self.measures)})"
            ) from None

    def costs(self) -> dict[str, GroundCost]:
        return {b: self.bundle.cost(b) for b in self.base_ids}


def _parse_atoms(raw, where: str) -> DiscreteMeasure:
    try:
        pairs = [(int(a["point"]), parse_extended_float(a["w"])) for a in raw]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad atom list at {where}: {exc}") from None
    return normalize_measure(pairs)


def parse_instance(doc: Mapping) -> Instance:
    try:
        base = [(str(e["id"]), parse_extended_float(e["sigma"])) for e in doc["base"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad or missing 'base' section: {exc}") from None
    base_ids = [b for b, _ in base]
    sigma = np.array([s for _, s in base])
    fibers_doc = doc.get("fibers", {})
    shared = "cost" in doc
    if shared:
        cost = GroundCost(np.array(doc["cost"], dtype=np.float64))
        relab = {
            str(k): [int(i) for i in v] for k, v in doc.get("relabelings", {}).items()
        } or None
        bundle = Bundle(base_ids, cost, relab)
    else:
        costs = {}
        for b in base_ids:
            if sigma[base_ids.index(b)] <= 0.0 and b not in fibers_doc:
                continue
            try:
                fd = fibers_doc[b]
            except KeyError:
                raise ParseError(f"no fiber entry for base point {b!r}") from None
            try:
                costs[b] = GroundCost(np.array(fd["cost"], dtype=np.float64))
            except KeyError:
                raise ParseError(f"fiber {b!r} lacks a cost matrix") from None
        bundle = Bundle(base_ids, costs)
    # collect measure names across fibers
    names: list[str] = []
    for b in base_ids:
        for name in fibers_doc.get(b, {}).get("measures", {}):
            if name not in names:
                names.append(name)
    measures = {}
    positive = [b for b, s in base if s > 0.0]
    for name in names:
        fibs = {}
        for b in positive:
            md = fibers_doc.get(b, {}).get("measures", {})
            if name not in md:
                raise ParseError(f"measure {name!r} missing at base point {b!r}")
            fibs[b] = _parse_atoms(md[name], f"{name}@{b}")
        measures[name] = FiberedMeasure(base_ids, sigma, fibs)
    return Instance(base_ids=tuple(base_ids), sigma=sigma, bundle=bundle, measures=measures)


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
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                emit(f"{prefix}[{i}]", v)
        else:
            if isinstance(value, float):
                value = f"{value:.12g}"
            writer.writerow([prefix, "", value])

    emit("", report)
    return buf.getvalue()
