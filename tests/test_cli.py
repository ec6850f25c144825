"""Command-line interface: exit codes, output envelopes, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from qrange import ProblemInstance, load_problem, make_quadratic, save_problem
from qrange.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SPLIT = str(REPO_ROOT / "instances" / "saddle_pair_dependent.json")
CONVEX = str(REPO_ROOT / "instances" / "bowl_vs_sheet_3d.json")
MUTUAL = str(REPO_ROOT / "instances" / "tilted_saddle_mutual.json")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--input", SPLIT)
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "NONCONVEX"

    def test_usage_error_missing_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage error" in err

    def test_usage_error_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "check", "--input", SPLIT, "--bogus")
        assert code == 1

    def test_usage_error_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "separate", "--input", SPLIT, "--alpha", "1")
        assert code == 1

    def test_invalid_input_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--input", "/nonexistent/problem.json")
        assert code == 2
        assert "invalid input" in err

    def test_invalid_input_bad_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2}', encoding="utf-8")
        code, _, _ = run_cli(capsys, "check", "--input", str(bad))
        assert code == 2

    def test_invalid_input_asymmetric_matrix(self, capsys, tmp_path):
        doc = {
            "n": 2,
            "linear_convention": "half",
            "f": {"A": [[1.0, 2.0], [0.0, 1.0]], "a": [0.0, 0.0], "a0": 0.0},
            "g": {"A": [[1.0, 0.0], [0.0, 1.0]], "a": [0.0, 0.0], "a0": 0.0},
        }
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, _ = run_cli(capsys, "check", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["check", "fb-check", "witness", "cross-check"])
    def test_overflowing_norms_are_invalid_input(self, capsys, tmp_path, command):
        # Finite coefficients whose norms overflow, so no threshold can be sized.
        p = load_problem(SPLIT)
        path = tmp_path / "huge.json"
        save_problem(ProblemInstance(p.f.scaled(1e306), p.g.scaled(1e306)), str(path))
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "invalid input: coefficient norms overflow the float range\n"

    @pytest.mark.parametrize("command", ["check", "fb-check", "witness", "cross-check"])
    def test_underflowing_norms_are_invalid_input(self, capsys, tmp_path, command):
        # Nonzero coefficients whose squared norms underflow: read as zero,
        # they would screen the NONCONVEX pair as affine.
        p = load_problem(SPLIT)
        path = tmp_path / "tiny.json"
        save_problem(ProblemInstance(p.f.scaled(1e-300), p.g.scaled(1e-300)), str(path))
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "invalid input: coefficient norms underflow the float range\n"


class TestCheckCommand:
    def test_envelope_shape(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--input", SPLIT)
        doc = json.loads(out)
        assert set(doc) == {"command", "tolerances", "result"}
        assert doc["command"] == "check"
        assert doc["tolerances"]["tol_dep"] == pytest.approx(1e-9)

    def test_tolerance_override_echoed(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--input", SPLIT, "--tol-dep", "1e-6")
        doc = json.loads(out)
        assert doc["tolerances"]["tol_dep"] == pytest.approx(1e-6)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "check", "--input", SPLIT)
        _, second, _ = run_cli(capsys, "check", "--input", SPLIT)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "check", "--input", SPLIT, "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["result"]["verdict"] == "NONCONVEX"

    def test_text_format(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--input", SPLIT, "--format", "text")
        assert "verdict: NONCONVEX" in out
        assert "tolerances:" in out


class TestOtherCommands:
    def test_fb_check(self, capsys):
        code, out, _ = run_cli(capsys, "fb-check", "--input", SPLIT)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"] == "NONCONVEX"
        assert doc["result"]["certificate"] == [1.0, 2.0]

    def test_cross_check_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "cross-check", "--input", CONVEX)
        assert code == 0
        assert json.loads(out)["result"]["agree"] is True

    def test_separate_mutual(self, capsys):
        code, out, _ = run_cli(capsys, "separate", "--input", MUTUAL, "--alpha", "-4", "--beta", "2")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["g_separates_f"] is True
        assert doc["f_separates_g"] is True

    def test_witness_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--input", SPLIT)
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["verdict"] == "NONCONVEX"
        assert doc["verification"]["valid"] is True
        assert doc["witness"]["gap_point"] == [-1.0, -2.0]

    def test_witness_on_convex_instance(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--input", CONVEX)
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["verdict"] == "CONVEX"
        assert doc["witness"] is None

    def test_sample_writes_csvs(self, capsys, tmp_path):
        base = tmp_path / "cloud"
        code, out, _ = run_cli(
            capsys, "sample", "--input", SPLIT, "--output", str(base),
            "--samples", "20000", "--resolution", "100",
        )
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["holes"]["suspected_nonconvex"] is True
        assert (tmp_path / "cloud.csv").is_file()
        assert (tmp_path / "cloud_hull.csv").is_file()

    def test_sample_requires_output(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--input", SPLIT)
        assert code == 1

    def test_sample_byte_identical(self, capsys, tmp_path):
        for name in ("one", "two"):
            run_cli(
                capsys, "sample", "--input", SPLIT, "--output", str(tmp_path / name),
                "--samples", "5000", "--resolution", "50",
            )
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_reproduce_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert "ALL PASS" in out
        assert "FAIL " not in out

    def test_reproduce_json(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] is True
        assert len(doc["result"]["rows"]) >= 30

    @pytest.mark.parametrize("flag", ["--tol-eig", "--tol-dep", "--tol-rank", "--tol-psd"])
    def test_reproduce_rejects_tolerance_override(self, capsys, flag):
        # reproduce always runs at the default tolerances, so an override would be ignored.
        code, out, err = run_cli(capsys, "reproduce", flag, "0.5")
        assert code == 1
        assert out == ""
        assert "usage error" in err


class TestDegenerateSampling:
    def test_collinear_cloud_reported_not_crashed(self, capsys, tmp_path):
        f = make_quadratic(np.diag([1.0, 1.0]), np.zeros(2), 0.0)
        p = ProblemInstance(f, f.scaled(2.0))
        path = tmp_path / "line.json"
        save_problem(p, str(path))
        code, out, _ = run_cli(
            capsys, "sample", "--input", str(path), "--output", str(tmp_path / "line"),
            "--samples", "1000", "--resolution", "50",
        )
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["holes"]["suspected_nonconvex"] is False
        assert "degenerate_cloud" in doc["holes"]

    def test_overflowing_cloud_is_invalid_input(self, capsys, tmp_path):
        # Finite coefficients whose sampled values overflow to inf.
        p = load_problem(SPLIT)
        path = tmp_path / "huge.json"
        save_problem(ProblemInstance(p.f.scaled(1e307), p.g.scaled(1e307)), str(path))
        code, out, err = run_cli(
            capsys, "sample", "--input", str(path), "--output", str(tmp_path / "huge"),
            "--samples", "1000", "--resolution", "50",
        )
        assert code == 2
        assert out == ""
        assert "invalid input" in err and "overflow" in err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--coverage-radius", "nan"),
            ("--coverage-radius", "inf"),
            ("--coverage-radius", "-inf"),
            ("--coverage-radius", "0"),
            ("--coverage-radius", "-1"),
            ("--min-cluster", "0"),
        ],
    )
    def test_bad_hole_parameter_is_invalid_input(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(
            capsys, "sample", "--input", CONVEX, "--output", str(tmp_path / "cloud"),
            "--samples", "2000", "--resolution", "40", f"{flag}={value}",
        )
        assert code == 2
        assert out == ""
        assert "invalid input" in err
        assert list(tmp_path.glob("*.csv")) == []
