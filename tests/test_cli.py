"""Command-line interface: exit codes, output envelopes, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from qrange import (
    ProblemInstance,
    curated_cases,
    get_case,
    load_problem,
    make_quadratic,
    save_problem,
)
from qrange.cli import main
from conftest import random_instance

REPO_ROOT = Path(__file__).resolve().parent.parent
SPLIT = str(REPO_ROOT / "instances" / "saddle_pair_dependent.json")
CONVEX = str(REPO_ROOT / "instances" / "bowl_vs_sheet_3d.json")
MUTUAL = str(REPO_ROOT / "instances" / "tilted_saddle_mutual.json")
# One invocation of each command that loads a problem and decides it.
DECISION_ARGV = {
    "check": ["check", "--input", SPLIT],
    "fb-check": ["fb-check", "--input", SPLIT],
    "cross-check": ["cross-check", "--input", SPLIT],
    "separate": ["separate", "--input", MUTUAL, "--alpha", "-4", "--beta", "2"],
    "witness": ["witness", "--input", SPLIT],
}


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

    @pytest.mark.parametrize("n", [2.5, "2", True], ids=["float", "string", "bool"])
    def test_invalid_input_non_integer_dimension(self, capsys, tmp_path, n):
        # int() would read each of these as a dimension; only an integer is one.
        doc = {
            "n": n,
            "f": {"A": [[1.0, 0.0], [0.0, -1.0]], "a": [0.0, 0.0], "a0": 0.0},
            "g": {"A": [[1.0, 0.0], [0.0, 1.0]], "a": [1.0, 0.0], "a0": 0.0},
        }
        path = tmp_path / "dimension.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: dimension field 'n' must be an integer")

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

    @pytest.mark.parametrize("command", ["check", "witness"])
    @pytest.mark.parametrize("name", [c.name for c in curated_cases() if c.expected.verdict == "NONCONVEX"])
    def test_nonconvex_pairs_at_two_to_the_510_are_never_an_internal_error(self, capsys, tmp_path, command, name):
        # Both norms fit below 2^512, but the certificate's intermediates may
        # not: that is a verdict (exit 0) or invalid input (exit 2), never exit 4.
        p = get_case(name).instance
        path = tmp_path / "top.json"
        save_problem(ProblemInstance(p.f.scaled(2.0**510), p.g.scaled(2.0**510)), str(path))
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert (code, bool(out), err.startswith("invalid input: ")) in ((0, True, False), (2, False, True))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_combined_gradient_norm_above_two_to_the_512_is_decided(self, capsys, tmp_path):
        # At 2^510 the combined gradient's squared norm overflows although its
        # norm fits: the witness is built and verifies, and nothing warns.
        # At 2^511 the coefficient norms themselves overflow.
        p = load_problem(SPLIT)
        runs = {}
        for k in (510, 511):
            path = tmp_path / f"scaled_{k}.json"
            save_problem(ProblemInstance(p.f.scaled(2.0**k), p.g.scaled(2.0**k)), str(path))
            runs[k] = run_cli(capsys, "witness", "--input", str(path))
        code, out, err = runs[510]
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["verdict"] == "NONCONVEX" and result["verification"]["valid"]
        assert runs[511] == (2, "", "invalid input: coefficient norms overflow the float range\n")

    def test_pinned_levels_at_two_to_the_509_are_decided(self, capsys, tmp_path):
        # Draw 3556 of the audit mix at 2^509 with pinned levels (not its
        # certificate's): measured from f's stationary point, the separation
        # margin's pseudoinverse term fits, so both directions are answered
        # as at unit scale.
        rng = np.random.default_rng(5)
        for _ in range(3557):
            p = random_instance(rng)
        alpha, beta = float.fromhex("-0x1.0044fe5f9f9c8p+2"), float.fromhex("0x1.0ab2b973f39e3p+5")
        s = 2.0**509
        path = tmp_path / "top.json"
        save_problem(ProblemInstance(p.f.scaled(s), p.g.scaled(s)), str(path))
        levels = f"--alpha={s * alpha!r}", f"--beta={s * beta!r}"
        code, out, err = run_cli(capsys, "separate", "--input", str(path), *levels)
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["g_separates_f"], result["f_separates_g"]) == (True, True)

    def test_levels_whose_foot_point_terms_overflow_are_invalid_input(self, capsys):
        # At beta = 1e160 f's terms at the hyperplane's foot point overflow:
        # exit 2 with the one invalid-input line, and no NumPy warning.
        code, out, err = run_cli(capsys, "separate", "--input", SPLIT, "--alpha=0", "--beta=1e160")
        assert (code, out, err) == (2, "", "invalid input: terms at the foot point overflow the float range\n")
        code, out, err = run_cli(capsys, "separate", "--input", SPLIT, "--alpha=0", "--beta=1e150")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["g_separates_f"], result["f_separates_g"]) == (False, False)

    def test_both_orientations_passing_is_decided(self, capsys, tmp_path):
        # At tol_psd = 1e-3 both orientations pass, and +1's witness line
        # lies inside {c'x = 0}: the certificate is built on -1, whose
        # negative eigenvalue is the larger, not an internal error (exit 4).
        f = make_quadratic(np.diag([-1e-6, 1.0]), [0.0, 0.3], 0.0)
        path = tmp_path / "both.json"
        save_problem(ProblemInstance(f, make_quadratic(f.A, [0.0, 1.0], 0.0)), str(path))
        results = {}
        for command in ("check", "witness"):
            code, out, err = run_cli(capsys, command, "--input", str(path), "--tol-psd", "1e-3")
            assert (code, err) == (0, ""), command
            results[command] = json.loads(out)["result"]
        assert (results["check"]["verdict"], results["check"]["orientation"]) == ("NONCONVEX", -1)
        assert results["witness"]["verification"]["valid"]

    def test_rank_tolerance_above_eigenvalue_tolerance_is_decided(self, capsys, tmp_path):
        # The inertia counts -1e-6 as negative, so the column space and the
        # restricted form's pseudoinverse keep it too: a verdict, not exit 4.
        f = make_quadratic(np.diag([-1e-6, 1.0]), [1e-3, 0.5], 0.0)
        path = tmp_path / "weak.json"
        save_problem(ProblemInstance(f, make_quadratic(f.A, [1.1e-2, 1.0], 0.0)), str(path))
        code, out, err = run_cli(capsys, "check", "--input", str(path), "--tol-rank", "1e-2")
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["verdict"] == "NONCONVEX"

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

    @staticmethod
    def same_report_in_file(capsys, tmp_path, argv):
        """Run ``argv`` with and without ``--output``; the file holds stdout's bytes, under the same exit code."""
        code, expected, _ = run_cli(capsys, *argv)
        target = tmp_path / "report"
        assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", "")
        assert target.read_bytes() == expected.encode("utf-8")
        return code, expected

    @pytest.mark.parametrize("command", list(DECISION_ARGV))
    def test_output_file(self, capsys, tmp_path, command):
        code, out = self.same_report_in_file(capsys, tmp_path, DECISION_ARGV[command])
        assert code == 0
        assert json.loads(out)["command"] == command

    @pytest.mark.parametrize("command", list(DECISION_ARGV))
    def test_text_format(self, capsys, tmp_path, command):
        code, out = self.same_report_in_file(capsys, tmp_path, [*DECISION_ARGV[command], "--format", "text"])
        assert code == 0
        assert out.startswith(f"command: {command}\ntolerances:\n")
        if command in ("check", "fb-check", "witness"):
            assert "verdict: NONCONVEX" in out


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

    @pytest.mark.parametrize("alpha", ["-4e0", "-1.2e+154"])
    def test_separate_takes_negative_exponent_levels_with_equals(self, capsys, alpha):
        # argparse reads a separate "-4e0" as an option, as --help says.
        code, out, err = run_cli(capsys, "separate", "--input", MUTUAL, f"--alpha={alpha}", "--beta=2e0")
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["f_level"] == float(alpha)
        assert run_cli(capsys, "separate", "--input", MUTUAL, "--alpha", alpha, "--beta", "2e0")[0] == 1

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

    def test_sample_help_shows_output_as_the_required_csv_base_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--input INPUT --output OUTPUT" in out
        assert "[--output" not in out
        assert "CSV base path; the report goes to stdout" in out
        assert "instead of stdout" not in out

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

    @pytest.mark.parametrize("flag", ["--tol-eig", "--tol-dep", "--tol-rank", "--tol-psd"])
    def test_sample_rejects_tolerance_override(self, capsys, tmp_path, flag):
        # sample decides nothing, so an override would be ignored.
        code, out, err = run_cli(capsys, "sample", "--input", SPLIT, "--output", str(tmp_path / "cloud"), flag, "0.5")
        assert code == 1
        assert out == ""
        assert "usage error" in err
        assert list(tmp_path.iterdir()) == []


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
