"""Canonical JSON and the ``--format text`` rendering of reports.

A report prints its own fields: :func:`jsonable` turns a dataclass into the
dict of its fields, in declaration order, less those declared with
``field(metadata={"json": False})``.  It is the one place that converts
arrays, tuples, NumPy scalars and enum members to plain JSON data.

Both formats print every value that is not a string by one rule,
:func:`_scalar`: ``null``, ``true``/``false``, integers, floats with 17
significant digits (enough to round-trip a double), and ``{}``/``[]`` for an
empty dict or list; a non-finite value is rejected rather than written.  Only
JSON quotes strings.  :func:`canonical_json` is byte-stable, with keys in
sorted order; :func:`report_text` prints indented ``key: value`` lines in
field order.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from typing import Any

import numpy as np

__all__ = ["format_float", "jsonable", "canonical_json", "report_text"]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits, keeping JSON float-ness."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    # ".17g" prints finite values with a lowercase "e" only; ".0" keeps an
    # integral value reading as a float.
    text = format(x, ".17g")
    return text if "." in text or "e" in text else text + ".0"


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


def _scalar(value: Any) -> str:
    """``value``, neither a string nor a nonempty dict or list, as both formats print it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (dict, list)) and not value:
        return "{}" if isinstance(value, dict) else "[]"
    raise TypeError(f"cannot serialize object of type {type(value).__name__}")


def _write(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, list) and obj:
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(child_pad)
            _write(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict) and obj:
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
        out.append(_scalar(obj))


def canonical_json(obj: Any) -> str:
    """Deterministic pretty JSON (sorted keys, 17-significant-digit floats) of :func:`jsonable` ``(obj)``."""
    out: list[str] = []
    _write(jsonable(obj), out, 0)
    out.append("\n")
    return "".join(out)


def _write_text(obj: dict[str, Any] | list[Any], out: list[str], indent: int) -> None:
    # A dict's value follows "key:", a list's item follows "-".  An empty dict
    # or list prints as a value after a key, but opens an item of a list.
    pad = "  " * indent
    in_dict = isinstance(obj, dict)
    for head, value in ((f"{key}:", value) for key, value in obj.items()) if in_dict else (("-", item) for item in obj):
        if isinstance(value, (dict, list)) and (value or not in_dict):
            out.append(f"{pad}{head}\n")
            _write_text(value, out, indent + 1)
        else:
            out.append(f"{pad}{head} {value if isinstance(value, str) else _scalar(value)}\n")


def report_text(obj: Any) -> str:
    """:func:`jsonable` ``(obj)`` as indented ``key: value`` and ``- item`` lines, in field order, strings unquoted."""
    out: list[str] = []
    _write_text(jsonable(obj), out, 0)
    return "".join(out)
