"""The package namespace and what each CLI command imports at start-up."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrange

REPO_ROOT = Path(__file__).resolve().parent.parent
INSTANCE = str(REPO_ROOT / "instances" / "saddle_with_line_split.json")


class TestNamespace:
    def test_every_public_name_is_its_home_submodules_object(self):
        for name in qrange.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(f"qrange.{qrange._HOME[name]}")
            value = getattr(qrange, name)
            assert value is getattr(home, name), name
            if hasattr(value, "__module__"):
                assert value.__module__ == home.__name__, name

    def test_every_submodule_exports_what_the_package_does(self):
        for module, names in qrange._EXPORTS.items():
            home = importlib.import_module(f"qrange.{module}")
            assert sorted(home.__all__) == sorted(names), module

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from qrange import *", namespace)
        for name in qrange.__all__:
            assert namespace[name] is getattr(qrange, name), name

    def test_dir_lists_every_public_name(self):
        assert set(qrange.__all__) <= set(dir(qrange))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qrange.no_such_name  # noqa: B018
        assert not hasattr(qrange, "no_such_name")

    def test_submodules_import_from_the_package(self):
        from qrange import quadratic, spectral

        assert quadratic is sys.modules["qrange.quadratic"]
        assert spectral is sys.modules["qrange.spectral"]
        assert spectral.eigh is qrange.eigh


# Runs ``python -m qrange ARGV`` (or a bare ``import qrange`` when ARGV is
# null) in this interpreter and prints the exit code and the modules that the
# run added to sys.modules.
_FRESH_INTERPRETER = """
import contextlib, io, json, runpy, sys
argv = json.load(sys.stdin)
before = set(sys.modules)
code = None
if argv is None:
    import qrange
else:
    sys.argv = ["qrange", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("qrange", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def _loaded_by(argv: list[str] | None) -> set[str]:
    """The modules a fresh interpreter loads to run ``qrange ARGV``; the command must succeed."""
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER],
        input=json.dumps(argv), capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["code"] == (None if argv is None else 0), proc.stderr
    return set(doc["loaded"])


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = _loaded_by(None)
    assert "qrange" in loaded
    assert not {m for m in loaded if m.startswith("qrange.")}
    assert "numpy" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--input", INSTANCE],
        ["fb-check", "--input", INSTANCE],
        ["cross-check", "--input", INSTANCE],
        ["witness", "--input", INSTANCE],
        ["separate", "--input", INSTANCE, "--alpha", "0", "--beta", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_decision_commands_load_neither_oracle_nor_instances(argv):
    loaded = _loaded_by(argv)
    # separate runs the level-pair test of qrange.separation alone.
    decision_module = "qrange.separation" if argv[0] == "separate" else "qrange.convexity"
    assert {"qrange.cli", decision_module, "numpy"} <= loaded
    assert not loaded & {"qrange.instances", "qrange.range_oracle", "hashlib"}


def test_sample_loads_the_oracle_but_not_instances(tmp_path):
    argv = ["sample", "--input", INSTANCE, "--output", str(tmp_path / "cloud"), "--samples", "2000", "--resolution", "40"]
    loaded = _loaded_by(argv)
    assert "qrange.range_oracle" in loaded
    assert not loaded & {"qrange.instances", "qrange.convexity", "qrange.separation", "qrange.spectral"}
    # The Philox stream is computed in range_oracle, not drawn from numpy.random.
    assert "numpy.random" not in loaded


def test_reproduce_loads_instances_but_not_the_oracle():
    loaded = _loaded_by(["reproduce"])
    assert "qrange.instances" in loaded
    assert "qrange.range_oracle" not in loaded


# Calls the entry point ``qrange.__main__.run`` on ``reproduce`` in this
# interpreter and prints the exit code, the OPENBLAS_NUM_THREADS it leaves and
# the threads of the process, or null where there is no /proc.
_ENTRY_POINT = """
import contextlib, io, json, os, sys
from qrange.__main__ import run
sys.argv = ["qrange", "reproduce"]
with contextlib.redirect_stdout(io.StringIO()):
    code = run()
tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else None
print(json.dumps({"code": code, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "tasks": tasks}))
"""


@pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "caller-set"])
def test_entry_point_runs_blas_on_one_thread_unless_the_caller_chose(caller):
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    proc = subprocess.run([sys.executable, "-c", _ENTRY_POINT], capture_output=True, text=True, env=env, timeout=120, check=True)
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0, proc.stderr
    assert doc["blas_threads"] == (caller or "1")
    if caller is None and doc["tasks"] is not None:
        assert len(doc["tasks"]) == 1
