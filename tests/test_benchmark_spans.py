"""The benchmark's tracer wraps qrange functions by name; each name must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_layers() -> dict[str, tuple[str, ...]]:
    # perfbench is not a package; spans.py imports neither numpy nor qrange.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in load_layers().items() for name in names]
)
def test_traced_name_is_a_callable_of_its_layer(layer, name):
    assert callable(getattr(importlib.import_module(f"qrange.{layer}"), name, None))
