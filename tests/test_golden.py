"""Golden CLI outputs: stdout bytes and exit codes pinned per command and case.

Every invocation below runs through :func:`qrange.cli.main` and must
reproduce the recorded stdout byte for byte, with the recorded exit code.
This turns "same behaviour" across refactors into a byte comparison.
The ``*-text`` goldens pin the ``--format text`` renderer on one NONCONVEX
run of each decision command and on one ``sample`` run; ``reproduce-text``
pins ``reproduce``'s default pass/fail table.  ``check`` and ``witness`` also
run, in both formats, on the n = 1 pair ``tests/data/parabola_line_1d.json``,
whose empty restricted spectrum prints as ``[]``.
``sample`` writes its CSVs into a fresh directory; its golden holds stdout
with the output paths made relative to that directory, followed by the
sha256 of each written CSV in ``sha256sum`` format.  One more golden pins the
library's decisions on ``differential_batch(20240817, 500)``: the sha256 of
the canonical JSON of every instance's ``cross_check`` result, certificate,
Flores-Bazan report and ``verify_certificate`` report.

The bytes are pinned to the environment they were recorded in: NumPy 2.4.6
with scipy-openblas 0.3.31 (LAPACK eigenvectors and BLAS summation order can
differ in the last bits elsewhere).  After an intended output change, rewrite
the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import differential_batch
from qrange import cross_check, verify_certificate
from qrange.cli import main
from qrange.instances import curated_cases
from qrange.serialize import canonical_json

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
BATCH_SEED, BATCH_SIZE = 20240817, 500
BATCH_DIGEST = GOLDEN_DIR / f"batch-{BATCH_SEED}-{BATCH_SIZE}.sha256"
SAMPLE_CASE = "saddle_with_line_split"
# One NONCONVEX run per decision command, repeated with --format text.
TEXT_RUNS = (
    "check-saddle_pair_dependent",
    "fb-check-saddle_pair_dependent",
    "cross-check-saddle_pair_dependent",
    "witness-saddle_pair_dependent",
    "separate-tilted_saddle_mutual--4_2",
)
DEFAULT_SAMPLE_CASE = "saddle_pair_dependent"
MAX_SEED_SAMPLE_CASE = "tilted_saddle_mutual"
# An n = 1 pair, f = x^2 and g = x: its restricted eigenvalues are an empty list.
ONE_DIMENSIONAL = REPO_ROOT / "tests" / "data" / "parabola_line_1d.json"
OUT_DIR = "{out}"


def _invocations() -> dict[str, list[str]]:
    runs: dict[str, list[str]] = {}
    for case in curated_cases():
        path = str(REPO_ROOT / "instances" / f"{case.name}.json")
        for command in ("check", "fb-check", "cross-check", "witness"):
            runs[f"{command}-{case.name}"] = [command, "--input", path]
        for lc in case.expected.level_checks:
            runs[f"separate-{case.name}-{lc.f_level:g}_{lc.g_level:g}"] = [
                "separate", "--input", path, "--alpha", repr(lc.f_level), "--beta", repr(lc.g_level)
            ]
    for name in TEXT_RUNS:
        runs[f"{name}-text"] = [*runs[name], "--format", "text"]
    for command in ("check", "witness"):
        runs[f"{command}-{ONE_DIMENSIONAL.stem}"] = [command, "--input", str(ONE_DIMENSIONAL)]
        runs[f"{command}-{ONE_DIMENSIONAL.stem}-text"] = [command, "--input", str(ONE_DIMENSIONAL), "--format", "text"]
    runs["reproduce-json"] = ["reproduce", "--format", "json"]
    runs["reproduce-text"] = ["reproduce"]
    path = str(REPO_ROOT / "instances" / f"{SAMPLE_CASE}.json")
    for mode in ("uniform", "grid"):
        runs[f"sample-{mode}-{SAMPLE_CASE}"] = [
            "sample", "--input", path, "--mode", mode, "--samples", "2000",
            "--resolution", "40", "--output", f"{OUT_DIR}/cloud.csv",
        ]
    runs[f"sample-uniform-{SAMPLE_CASE}-text"] = [*runs[f"sample-uniform-{SAMPLE_CASE}"], "--format", "text"]
    # The `sample` benchmark op: CLI defaults (1e5 samples, resolution 200).
    path = str(REPO_ROOT / "instances" / f"{DEFAULT_SAMPLE_CASE}.json")
    runs[f"sample-default-{DEFAULT_SAMPLE_CASE}"] = ["sample", "--input", path, "--output", f"{OUT_DIR}/cloud.csv"]
    # The largest seed: every block's first key word is 2**64 - 1, so the
    # Philox key schedule wraps at its first bump.  Two blocks, of 4096 and
    # 904 rows.
    path = str(REPO_ROOT / "instances" / f"{MAX_SEED_SAMPLE_CASE}.json")
    runs[f"sample-max_seed-{MAX_SEED_SAMPLE_CASE}"] = [
        "sample", "--input", path, "--seed", str(2**64 - 1), "--samples", "5000",
        "--resolution", "50", "--output", f"{OUT_DIR}/cloud.csv",
    ]
    return runs


INVOCATIONS = _invocations()


def _in_dir(argv: list[str], tmp: str) -> list[str]:
    return [arg.replace(OUT_DIR + "/", tmp + "/") for arg in argv]


def _golden_text(stdout: str, tmp: str) -> str:
    """``stdout`` with paths relative to ``tmp``, then the sha256 of each CSV there."""
    text = stdout.replace(tmp + "/", "")
    for csv in sorted(Path(tmp).iterdir()):
        text += f"{hashlib.sha256(csv.read_bytes()).hexdigest()}  {csv.name}\n"
    return text


def _run(argv: list[str]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(_in_dir(argv, tmp))
        return code, _golden_text(out.getvalue(), tmp)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_matches_golden(name):
    code, out = _run(INVOCATIONS[name])
    expected = (GOLDEN_DIR / f"{name}.stdout").read_text(encoding="utf-8")
    assert out == expected
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]


# Runs the invocations read from stdin through the CLI in this interpreter and
# prints each exit code and stdout, then whether SciPy was imported.
_FRESH_INTERPRETER = """
import contextlib, io, json, sys
from qrange.cli import main
from qrange.serialize import canonical_json
results = {}
for name, argv in json.load(sys.stdin).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results[name] = [code, out.getvalue()]
print(json.dumps({"results": results, "scipy_loaded": "scipy" in sys.modules}))
"""


def _run_fresh(runs: dict[str, list[str]]) -> tuple[dict[str, list], bool]:
    """Exit code and stdout per run from one fresh interpreter, and whether it loaded SciPy."""
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER],
        input=json.dumps(runs), capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout)
    return doc["results"], doc["scipy_loaded"]


def test_decision_commands_match_golden_without_scipy():
    """A fresh interpreter reproduces the decision goldens and never imports SciPy.

    The in-process goldens run after other test modules have imported SciPy,
    so they cannot see an output that changes when SciPy is absent.
    """
    runs = {
        f"{command}-{path.stem}": INVOCATIONS[f"{command}-{path.stem}"]
        for path in sorted((REPO_ROOT / "instances").glob("*.json"))
        for command in ("check", "cross-check", "witness")
    }
    assert len(runs) == 24
    results, scipy_loaded = _run_fresh(runs)
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    for name in runs:
        code, out = results[name]
        assert out == (GOLDEN_DIR / f"{name}.stdout").read_text(encoding="utf-8"), name
        assert code == codes[name], name
    assert scipy_loaded is False


def test_sample_commands_match_golden_without_scipy(tmp_path):
    """A fresh interpreter reproduces the ``sample`` goldens, CSV bytes included, without SciPy."""
    names = sorted(name for name in INVOCATIONS if name.startswith("sample-"))
    assert len(names) == 5
    dirs = {name: tmp_path / name for name in names}
    for d in dirs.values():
        d.mkdir()
    results, scipy_loaded = _run_fresh({name: _in_dir(INVOCATIONS[name], str(dirs[name])) for name in names})
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    for name in names:
        code, out = results[name]
        assert _golden_text(out, str(dirs[name])) == (GOLDEN_DIR / f"{name}.stdout").read_text(encoding="utf-8"), name
        assert code == codes[name], name
    assert scipy_loaded is False


def test_package_never_imports_scipy():
    """SciPy is a test dependency only: no module under ``src/qrange`` imports it."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "qrange").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert offenders == []


def _batch_digest() -> str:
    """sha256 of the canonical JSON of every decision the library makes on the batch."""
    docs = []
    for p in differential_batch(BATCH_SEED, BATCH_SIZE):
        result = cross_check(p)
        docs.append(
            {
                "cross_check": result,
                "certificate": result.certificate,
                "fb_report": result.fb_report,
                "verify_certificate": verify_certificate(p, result.certificate),
            }
        )
    return hashlib.sha256(canonical_json(docs).encode("utf-8")).hexdigest()


def test_batch_decisions_match_golden_digest():
    assert _batch_digest() + "\n" == BATCH_DIGEST.read_text(encoding="utf-8")


def test_every_golden_file_has_an_invocation():
    recorded = {p.stem for p in GOLDEN_DIR.glob("*.stdout")}
    assert recorded == set(INVOCATIONS)


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(INVOCATIONS.items()):
        codes[name], out = _run(argv)
        (GOLDEN_DIR / f"{name}.stdout").write_text(out, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    BATCH_DIGEST.write_text(_batch_digest() + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
