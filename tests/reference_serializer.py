"""The earlier ``io.dumps``, kept as a reference: it recurses once per number.

``io.dumps`` formats a row of plain floats in one pass; the two must give the
same text on every document (``tests/test_cli.py::TestSerializerReference``).
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from disot.io import format_float


def reference_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {reference_dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(reference_dumps(v) for v in seq) + "]"
        items = [f"{inner}{reference_dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (np.floating, float)):
        return format_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)
