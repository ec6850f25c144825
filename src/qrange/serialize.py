"""Canonical JSON and CSV formatting.

The machine-readable outputs are byte-stable: keys are emitted in sorted
order, floats are printed with 17 significant digits (enough to round-trip a
double), and non-finite values are rejected rather than written.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

__all__ = ["format_float", "format_csv_rows", "canonical_json"]


def _finite_text(x: float) -> str:
    # ".17g" prints finite values with a lowercase "e" only; ".0" keeps an
    # integral value reading as a float.
    text = format(x, ".17g")
    return text if "." in text or "e" in text else text + ".0"


def format_float(x: float) -> str:
    """Render a float with 17 significant digits, keeping JSON float-ness."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return _finite_text(x)


def format_csv_rows(rows: np.ndarray) -> str:
    """The two-column ``rows`` as CSV lines, each value as :func:`format_float` prints it.

    Every value is checked before any text is built, so a non-finite value
    raises the same :class:`ValueError` as :func:`format_float`.
    """
    finite = np.isfinite(rows)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(rows[~finite][0])!r}")
    r = _finite_text
    return "".join([f"{r(a)},{r(b)}\n" for a, b in rows.tolist()])


def _write(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, indent)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(child_pad)
            _write(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(child_pad + json.dumps(key) + ": ")
            _write(obj[key], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic pretty JSON (sorted keys, 17-significant-digit floats)."""
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)
