"""Spans around calls into qrange's layers, recorded from outside the package.

Callers inside qrange bind helpers by name (``from .spectral import eigh``),
so a wrapper must replace the name in every qrange module namespace that
holds the function, not only in the module that defines it.  Each span is
``[name, start_ns, end_ns, parent_index, op_id, distinct]``; ``distinct`` is 1
when an ``eigh`` call sees a matrix not yet seen in the same op.

Importing this module loads neither numpy nor qrange, so the CLI entry point can
time ``import qrange.cli`` before it.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Public functions of each layer (module of src/qrange) that get a span.
LAYERS = {
    "cli": ("main",),
    "quadratic": ("load_problem", "evaluate"),
    "spectral": (
        "eigh",
        "inertia",
        "range_membership",
        "null_space_basis",
        "pencil_dependence",
        "apply_pseudoinverse",
    ),
    "separation": (
        "exists_separating_affine_levels",
        "affine_separates_quadratic",
        "construct_separation_witness",
        "level_pair_separation",
    ),
    "convexity": ("check_convexity", "check_flores_bazan", "cross_check", "verify_certificate"),
    "range_oracle": ("sample_range", "detect_holes", "emit_plot_data"),
    "instances": ("run_curated_suite",),
    "serialize": ("canonical_json",),
}
DIGESTED = {"spectral.eigh"}
OP = "op"


class Tracer:
    """Keeps spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._seen: set[int] = set()

    def install(self) -> None:
        """Wrap every listed function of every loaded layer."""
        import numpy as np

        def digest(matrix) -> int:
            m = np.ascontiguousarray(matrix, dtype=float)
            return hash((m.shape, m.tobytes()))

        modules = [m for k, m in list(sys.modules.items()) if k == "qrange" or k.startswith("qrange.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"qrange.{layer}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original, digest if f"{layer}.{name}" in DIGESTED else None)
                for module in modules:
                    if vars(module).get(name) is original:
                        setattr(module, name, wrapper)

    def _wrap(self, name, fn, digest):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            distinct = 0
            if digest is not None:
                key = digest(args[0])
                if key not in self._seen:
                    self._seen.add(key)
                    distinct = 1
            record = [name, clock(), 0, stack[-1] if stack else -1, self._op, distinct]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; nested spans carry its id."""
        self._op = op_id
        self._seen = set()
        record = [OP, time.perf_counter_ns(), 0, -1, op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def summarize(paths: list[str]) -> tuple[int, dict[str, dict[str, int]]]:
    """Ops and per-span-name totals (calls, total_ns, self_ns, distinct) over span files.

    Self time is a span's duration minus the durations of its direct children.
    """
    ops = 0
    stats: dict[str, dict[str, int]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _op, _distinct in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _parent, _op, distinct), children in zip(spans, child_ns):
            if name == OP:
                ops += 1
            s = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "distinct": 0})
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - children
            s["distinct"] += distinct
    return ops, stats
