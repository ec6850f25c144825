"""Canonical JSON and CSV formatting.

A report prints its own fields: :func:`jsonable` turns a dataclass into the
dict of its fields, in declaration order, less those declared with
``field(metadata={"json": False})``.  It is the one place that converts
arrays, tuples, NumPy scalars and enum members to plain JSON data.

The machine-readable outputs are byte-stable: keys are emitted in sorted
order, floats are printed with 17 significant digits (enough to round-trip a
double), and non-finite values are rejected rather than written.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Iterator
from enum import Enum
from typing import Any

import numpy as np

from .errors import DimensionMismatch

__all__ = ["format_float", "format_csv_rows", "csv_row_blocks", "jsonable", "canonical_json"]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits, keeping JSON float-ness."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    # ".17g" prints finite values with a lowercase "e" only; ".0" keeps an
    # integral value reading as a float.
    text = format(x, ".17g")
    return text if "." in text or "e" in text else text + ".0"


def format_csv_rows(rows: np.ndarray) -> str:
    """The ``(m, 2)`` float64 ``rows`` as CSV lines, each value as :func:`format_float` prints it.

    ``.17g`` prints a value in fixed notation when its 17-digit decimal
    exponent ``k`` lies in [-4, 16], that is for ``1e-4 <= |x| < 1e17`` and
    for ``±0``; it round-trips, so the integral values in that window are the
    ones it prints without a point, and those get ``.0``.  NumPy builds that
    text here, in blocks of 2048 rows:

    * ``k`` starts as ``floor(log10|x|)`` and moves by one wherever the exact
      product ``|x|·10**(16-k)`` falls outside ``[1e16, 1e17)``.
    * Dekker's TwoProduct gives that product exactly as ``hi + lo``: ``10**j``
      is an exact double for ``j <= 22``, Veltkamp's split makes each partial
      product exact, no intermediate overflows or underflows in the window,
      and NumPy rounds every ufunc result (it fuses no multiply-add across
      calls).
    * ``hi`` is an even integer above ``2**53``, so ``hi + rint(lo)`` is the
      17-digit integer rounded half to even, as ``.17g`` rounds.  It never
      reaches ``10**17``: that needs ``|x|`` less than 5e-18 (relative) below
      a power of ten, and no float64 lies that close to one in the window.
    * A 4-digit table prints the digits into fixed-width byte slots, and a
      mask looked up by sign, ``k`` and the last nonzero digit keeps the
      sign, the point, the digits without trailing zeros and the separator.

    A row holding a value outside the window (exponent form) is printed
    value by value with :func:`format_float`.  The text is the blocks of
    :func:`csv_row_blocks` joined, and raises as that does.
    """
    return b"".join(csv_row_blocks(rows)).decode("ascii")


def csv_row_blocks(rows: np.ndarray) -> Iterator[bytes]:
    """Check ``rows``, then return their CSV lines as ASCII bytes, one block of rows at a time.

    The lines are those of :func:`format_csv_rows`.  Anything but an
    ``(m, 2)`` float64 array raises :class:`DimensionMismatch`, and a
    non-finite value raises the same :class:`ValueError` as
    :func:`format_float`; both checks run when this is called, before any
    block is built.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == 2):
        got = f"{rows.dtype} array of shape {rows.shape}" if isinstance(rows, np.ndarray) else type(rows).__name__
        raise DimensionMismatch(f"CSV rows must be an (m, 2) float64 array, got {got}")
    finite = np.isfinite(rows)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(rows[~finite][0])!r}")
    from ._csvtext import csv_blocks  # compiled only by the commands that write CSV

    return csv_blocks(rows)


def jsonable(obj: Any) -> Any:
    """``obj`` as plain JSON data: dicts, lists, strings, numbers, booleans and ``None``.

    A dataclass becomes the dict of its fields in declaration order, less
    those whose metadata sets ``"json"`` to false; dicts, lists and tuples
    are walked; arrays and NumPy scalars become their ``.tolist()``, and an
    enum member its ``.value``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.metadata.get("json", True)}
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    return obj


def _write(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, list):
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
    """Deterministic pretty JSON (sorted keys, 17-significant-digit floats) of :func:`jsonable` ``(obj)``."""
    out: list[str] = []
    _write(jsonable(obj), out, 0)
    out.append("\n")
    return "".join(out)
