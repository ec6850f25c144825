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

from .errors import DimensionMismatch

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


# Indexed by 2 * (first value integral) + (second value integral).
_ROW_TEMPLATES = ("%.17g,%.17g\n", "%.17g,%.17g.0\n", "%.17g.0,%.17g\n", "%.17g.0,%.17g.0\n")


def format_csv_rows(rows: np.ndarray) -> str:
    """The ``(m, 2)`` float64 ``rows`` as CSV lines, each value as :func:`format_float` prints it.

    ``.17g`` round-trips, so the values it prints without a point or an
    exponent are exactly the integral ones with ``|x| < 1e17`` (``-0.0``
    among them); those get ``.0`` appended.  All lines are built by one
    ``%`` call on a template of per-row ``%.17g`` fields.

    Anything but an ``(m, 2)`` float64 array raises :class:`DimensionMismatch`.
    Every value is checked before any text is built, so a non-finite value
    raises the same :class:`ValueError` as :func:`format_float`.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == 2):
        got = f"{rows.dtype} array of shape {rows.shape}" if isinstance(rows, np.ndarray) else type(rows).__name__
        raise DimensionMismatch(f"CSV rows must be an (m, 2) float64 array, got {got}")
    finite = np.isfinite(rows)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(rows[~finite][0])!r}")
    integral = (rows == np.trunc(rows)) & (np.abs(rows) < 1e17)
    kinds = (2 * integral[:, 0] + integral[:, 1]).tolist()
    template = "".join([_ROW_TEMPLATES[k] for k in kinds])
    return template % tuple(rows.ravel().tolist())


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
