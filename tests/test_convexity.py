"""Top-level convexity decisions, certificates, and the independent checker."""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from qrange import (
    VERDICT_CONVEX,
    VERDICT_NONCONVEX,
    InvalidInstance,
    ProblemInstance,
    check_convexity,
    check_flores_bazan,
    cross_check,
    curated_cases,
    evaluate,
    get_case,
    level_pair_separation,
    make_quadratic,
    verify_certificate,
)
from qrange import quadratic, spectral
from conftest import differential_batch, random_instance, transformed_instance


def saddle_pair() -> ProblemInstance:
    f = make_quadratic([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
    g = make_quadratic([[-2.0, 0.0], [0.0, 2.0]], [2.0, -1.0], 0.0)
    return ProblemInstance(f, g)


class TestCheckConvexityVerdicts:
    def test_dependent_saddles_nonconvex(self):
        cert = check_convexity(saddle_pair())
        assert cert.verdict == VERDICT_NONCONVEX
        assert cert.pencil_ratio == pytest.approx(2.0, abs=1e-15)
        assert cert.orientation == +1
        assert not cert.swapped

    def test_certificate_values(self):
        cert = check_convexity(saddle_pair())
        assert cert.f_level == pytest.approx(-1.0, abs=1e-12)
        assert cert.g_level == pytest.approx(-2.0, abs=1e-12)
        wit = cert.witness
        assert np.allclose(sorted([tuple(wit.u), tuple(wit.v)]), [(-1.0, 0.0), (1.0, 0.0)])
        assert np.allclose(wit.gap_point, [-1.0, -2.0])

    def test_gap_point_is_really_missing_from_the_range(self):
        # dense sampling never lands near the certified gap point
        p = saddle_pair()
        cert = check_convexity(p)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-6, 6, size=(200_000, 2))
        values = np.column_stack(
            [
                np.einsum("ij,jk,ik->i", pts, p.f.A, pts) + 2.0 * pts @ p.f.a + p.f.a0,
                np.einsum("ij,jk,ik->i", pts, p.g.A, pts) + 2.0 * pts @ p.g.a + p.g.a0,
            ]
        )
        dist = np.min(np.linalg.norm(values - np.asarray(cert.witness.gap_point), axis=1))
        assert dist > 0.05

    def test_both_matrices_zero_convex(self):
        f = make_quadratic(np.zeros((2, 2)), [1.0, 0.0], 1.0)
        g = make_quadratic(np.zeros((2, 2)), [0.0, -0.5], 0.0)
        cert = check_convexity(ProblemInstance(f, g))
        assert cert.verdict == VERDICT_CONVEX
        assert cert.path[-1]["step"] == 0

    def test_homogeneous_pair_convex(self):
        f = make_quadratic(np.diag([1.0, 1.0]), np.zeros(2), 0.5)
        g = make_quadratic(np.diag([1.0, -1.0]), np.zeros(2), -0.5)
        cert = check_convexity(ProblemInstance(f, g))
        assert cert.verdict == VERDICT_CONVEX
        assert cert.path[-1]["step"] == 0
        assert cert.path[-1]["outcome"] == "convex_homogeneous_pair"

    def test_independent_matrices_convex_at_pencil_step(self):
        f = make_quadratic(np.diag([1.0, 1.0, 0.0]), np.zeros(3), 0.0)
        g = make_quadratic(np.diag([-1.0, 1.0, 0.0]), [0.0, 0.0, 0.5], 0.0)
        cert = check_convexity(ProblemInstance(f, g))
        assert cert.verdict == VERDICT_CONVEX
        assert cert.path[-1]["check"] == "matrix_dependence"
        assert cert.path[-1]["step"] == 1

    def test_zero_combined_gradient_convex(self):
        # g = 2 f exactly: the range is a parabola-free line image, never split
        f = make_quadratic([[-1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 0.25)
        g = f.scaled(2.0)
        cert = check_convexity(ProblemInstance(f, g))
        assert cert.verdict == VERDICT_CONVEX
        assert cert.path[-1]["step"] == 2

    def test_orientation_negative_branch(self):
        # flipped saddle wants the negated matrix: exactly one positive eigenvalue
        f = make_quadratic([[-1.0, 0.0], [0.0, 4.0]], [0.0, 0.0], -1.0)
        g = make_quadratic(np.zeros((2, 2)), [0.5, -2.5], 0.0)
        cert = check_convexity(ProblemInstance(f, g))
        assert cert.verdict == VERDICT_NONCONVEX
        assert cert.orientation == -1

    def test_gradient_out_of_column_space_convex(self):
        # singular matrix, combined gradient sticks out of the column space
        f = make_quadratic(np.diag([-1.0, 1.0, 0.0]), np.zeros(3), 0.0)
        g = make_quadratic(np.diag([-2.0, 2.0, 0.0]), [0.0, 0.0, 1.0], 0.0)
        cert = check_convexity(ProblemInstance(f, g))
        assert cert.verdict == VERDICT_CONVEX
        assert cert.path[-1]["step"] == 2


class TestSwapHandling:
    def swap_instance(self) -> ProblemInstance:
        f = make_quadratic(np.zeros((2, 2)), [1.0, 0.0], 0.0)  # purely affine
        g = make_quadratic([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
        return ProblemInstance(f, g)

    def test_affine_first_function_triggers_swap(self):
        cert = check_convexity(self.swap_instance())
        assert cert.swapped
        assert cert.verdict == VERDICT_NONCONVEX

    def test_swapped_certificate_reports_original_coordinates(self):
        p = self.swap_instance()
        cert = check_convexity(p)
        wit = cert.witness
        # range points must match fresh evaluations of the ORIGINAL pair
        for point, stored in ((wit.u, wit.range_at_u), (wit.v, wit.range_at_v)):
            assert evaluate(p.f, point) == pytest.approx(stored[0], abs=1e-12)
            assert evaluate(p.g, point) == pytest.approx(stored[1], abs=1e-12)
        assert np.allclose(wit.gap_point, [cert.f_level, cert.g_level])

    def test_swapped_certificate_verifies(self):
        p = self.swap_instance()
        report = verify_certificate(p, check_convexity(p))
        assert report["valid"]

    def test_verdict_swap_symmetric(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            p = random_instance(rng)
            assert check_convexity(p).verdict == check_convexity(p.swapped()).verdict


class TestDecisionPath:
    def test_path_is_ordered_and_jsonable(self):
        cert = check_convexity(saddle_pair())
        steps = [rec["step"] for rec in cert.path]
        assert steps == sorted(steps)
        assert cert.path[0]["check"] == "degenerate_screen"
        assert cert.path[-1]["check"] == "certificate_construction"
        doc = cert.to_jsonable()
        assert doc["verdict"] == VERDICT_NONCONVEX
        assert isinstance(doc["path"], list)

    def test_orientation_evidence_recorded(self):
        cert = check_convexity(saddle_pair())
        rec = next(r for r in cert.path if r["check"] == "orientation_conditions")
        assert rec["eigenvalues"] == pytest.approx([-1.0, 1.0])
        assert rec["orientation_pos"] is True


class TestCheckFloresBazan:
    def test_dependent_saddles_nonconvex_with_direction(self):
        report = check_flores_bazan(saddle_pair())
        assert report.verdict == VERDICT_NONCONVEX
        assert report.certificate is not None
        d = np.asarray(report.certificate)
        # direction property: d2 * A = d1 * B
        p = saddle_pair()
        assert np.allclose(d[1] * p.f.A, d[0] * p.g.A, atol=1e-12)

    def test_independent_matrices_convex(self):
        f = make_quadratic(np.diag([1.0, 1.0]), np.zeros(2), 0.0)
        g = make_quadratic(np.diag([1.0, -1.0]), [1.0, 0.0], 0.0)
        report = check_flores_bazan(ProblemInstance(f, g))
        assert report.verdict == VERDICT_CONVEX
        assert report.certificate is None
        assert report.conditions["matrix_dependence"]["dependent"] is False

    def test_direction_property_on_random_nonconvex(self):
        rng = np.random.default_rng(123)
        seen = 0
        for _ in range(120):
            p = random_instance(rng)
            report = check_flores_bazan(p)
            if report.verdict != VERDICT_NONCONVEX:
                continue
            seen += 1
            d = np.asarray(report.certificate)
            assert np.linalg.norm(d) > 0
            scale = max(1.0, float(np.linalg.norm(p.f.A)), float(np.linalg.norm(p.g.A)))
            assert np.linalg.norm(d[1] * p.f.A - d[0] * p.g.A) <= 1e-7 * scale
        assert seen >= 5

    def test_swap_handling(self):
        f = make_quadratic(np.zeros((2, 2)), [1.0, 0.0], 0.0)
        g = make_quadratic([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
        p = ProblemInstance(f, g)
        report = check_flores_bazan(p)
        assert report.verdict == VERDICT_NONCONVEX
        assert report.conditions["swapped"] is True
        d = np.asarray(report.certificate)
        assert np.allclose(d[1] * p.f.A, d[0] * p.g.A, atol=1e-12)


class TestDifferentialAgreement:
    def test_two_hundred_random_instances_agree(self):
        for p in differential_batch(seed=4242, count=200):
            result = cross_check(p)
            assert result.agree, (
                f"checkers disagree: separation={result.separation_verdict} "
                f"direction={result.flores_bazan_verdict}\n{result.diagnostics}"
            )

    def test_nonconvex_certificates_all_verify(self):
        for p in differential_batch(seed=999, count=150):
            cert = check_convexity(p)
            if cert.verdict == VERDICT_NONCONVEX:
                report = verify_certificate(p, cert)
                assert report["valid"], report


class TestCheckAgreesWithSeparate:
    def test_certificate_levels_separate_in_the_analysed_direction(self):
        # check's NONCONVEX levels must be a level pair that separate splits
        # the same way: {g = beta} splits {f = alpha}, or the reverse when the
        # certificate analysed the swapped pair.
        instances = [c.instance for c in curated_cases()] + differential_batch(seed=20240817, count=500)
        checked = 0
        for p in instances:
            cert = check_convexity(p)
            if cert.verdict != VERDICT_NONCONVEX:
                continue
            rep = level_pair_separation(p.f, p.g, cert.f_level, cert.g_level, p.tolerances)
            assert rep.f_separates_g if cert.swapped else rep.g_separates_f, cert.to_jsonable()
            checked += 1
        assert checked >= 50


class TestInvarianceProperties:
    def test_affine_substitution_and_scaling_preserve_verdict(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            p = random_instance(rng)
            base = check_convexity(p).verdict
            q = transformed_instance(rng, p)
            assert check_convexity(q).verdict == base

    def test_constant_shift_preserves_verdict(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_instance(rng)
            base = check_convexity(p).verdict
            # The built margin also clears the rounding of levels near 1e16.
            for df, dg in ((3.7, -2.2), (1e16, -1e16)):
                shifted = ProblemInstance(p.f.add_constant(df), p.g.add_constant(dg), p.tolerances)
                cert = check_convexity(shifted)
                assert cert.verdict == base
                assert verify_certificate(shifted, cert)["valid"]

    def test_value_scaling_preserves_verdict(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            p = random_instance(rng)
            base = check_convexity(p).verdict
            scaled = ProblemInstance(p.f.scaled(-4.5), p.g.scaled(0.25), p.tolerances)
            assert check_convexity(scaled).verdict == base
        # Every threshold scales with its function, so neither exact common
        # factors 2^k nor independent factors over 16 decades move a verdict,
        # and every certificate built at those scales verifies.
        rng = np.random.default_rng(5)
        draws = [random_instance(rng) for _ in range(4000)]
        independent = 10.0 ** np.random.default_rng(11).uniform(-8.0, 8.0, size=(4000, 2))
        common = [(2.0**k, 2.0**k) for k in (-40, -27, -14, 14, 27, 40)]
        for i, p in enumerate(draws):
            base = check_convexity(p).verdict
            for s, t in common + [tuple(independent[i])]:
                scaled = ProblemInstance(p.f.scaled(s), p.g.scaled(t), p.tolerances)
                cert = check_convexity(scaled)
                assert cert.verdict == base, (i, s, t)
                if cert.verdict == VERDICT_NONCONVEX:
                    assert verify_certificate(scaled, cert)["valid"], (i, s, t)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_near_the_top_of_the_range_is_invalid_input(self):
        # At 2^510 both norms fit, but the witness line's coefficients can
        # overflow.  That is invalid input, not a RootFailure.  The combined
        # gradient's squared norm can overflow too; its norm is then taken on
        # the gradient brought to unit size, so those draws are decided, with
        # the unscaled verdict and a certificate that verifies.
        rejected = set()
        for p in differential_batch(5, 250):
            base = check_convexity(p).verdict
            scaled = ProblemInstance(p.f.scaled(2.0**510), p.g.scaled(2.0**510), p.tolerances)
            try:
                cert = check_convexity(scaled)
            except InvalidInstance as exc:
                rejected.add(str(exc))
                continue
            assert cert.verdict == base
            if cert.verdict == VERDICT_NONCONVEX:
                assert verify_certificate(scaled, cert)["valid"]
        assert rejected == {
            "coefficient norms overflow the float range",
            "witness line coefficients overflow the float range",
        }

    def test_large_scale_certificate_verifies(self):
        # At 1e10 the pseudoinverse term is large enough that a fixed margin
        # of 1 would fall under the separation check's relative threshold.
        p = get_case("rank_deficient_4d").instance
        scaled = ProblemInstance(p.f.scaled(1e10), p.g.scaled(1e10), p.tolerances)
        cert = check_convexity(scaled)
        assert cert.verdict == VERDICT_NONCONVEX
        assert verify_certificate(scaled, cert)["valid"]


class TestVerifyCertificate:
    def test_convex_certificate_vacuously_valid(self):
        f = make_quadratic(np.diag([1.0, 1.0]), np.zeros(2), 0.0)
        g = make_quadratic(np.diag([1.0, -1.0]), np.zeros(2), 0.0)
        p = ProblemInstance(f, g)
        report = verify_certificate(p, check_convexity(p))
        assert report == {"applicable": False, "valid": True}

    def test_tampered_witness_rejected(self):
        import dataclasses

        p = saddle_pair()
        cert = check_convexity(p)
        bad_witness = dataclasses.replace(cert.witness, u=cert.witness.u + 0.5)
        bad_cert = dataclasses.replace(cert, witness=bad_witness)
        report = verify_certificate(p, bad_cert)
        assert not report["valid"]

    def test_wrong_instance_rejected(self):
        p = saddle_pair()
        cert = check_convexity(p)
        other = ProblemInstance(p.f.add_constant(5.0), p.g, p.tolerances)
        report = verify_certificate(other, cert)
        assert not report["valid"]

    @staticmethod
    def with_stored_side_value(cert, value):
        """``cert`` with ``range_at_u`` changed only in the other function's coordinate."""
        stored = cert.witness.range_at_u.copy()
        stored[0 if cert.swapped else 1] = value
        return dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, range_at_u=stored))

    @pytest.mark.parametrize("relative_change, consistent", [(1e-9, False), (1e-14, True), (0.0, True)])
    def test_stored_range_point_tolerance(self, relative_change, consistent):
        # The stored points must match fresh evaluations to 1e-12 absolute
        # plus 1e-12 relative, as np.allclose(rtol=1e-12, atol=1e-12) would.
        p = saddle_pair()
        cert = check_convexity(p)
        stored = cert.witness.range_at_u[1]
        assert stored == -6.0
        report = verify_certificate(p, self.with_stored_side_value(cert, stored * (1.0 + relative_change)))
        assert report["points_consistent"] is consistent
        assert report["valid"] is consistent

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_stored_point_against_finite_value(self, value):
        p = saddle_pair()
        report = verify_certificate(p, self.with_stored_side_value(check_convexity(p), value))
        assert report["points_consistent"] is False
        assert report["valid"] is False

    def test_equal_infinities_are_consistent(self):
        p = saddle_pair()
        cert = check_convexity(p)
        wit = cert.witness
        # Overflows to +inf at both witness points, (-1, 0) and (1, 0).
        huge = make_quadratic(np.diag([8e307, 8e307]), np.zeros(2), 1.7e308)
        stored = [np.array([r[0], np.inf]) for r in (wit.range_at_u, wit.range_at_v)]
        cert = dataclasses.replace(cert, witness=dataclasses.replace(wit, range_at_u=stored[0], range_at_v=stored[1]))
        with np.errstate(over="ignore"):
            assert [evaluate(huge, wit.u), evaluate(huge, wit.v)] == [np.inf, np.inf]
            report = verify_certificate(ProblemInstance(p.f, huge), cert)
        assert report["points_consistent"] is True
        assert report["valid"] is False


class TestCrossCheck:
    def test_agreement_and_shape(self):
        result = cross_check(saddle_pair())
        assert result.agree
        assert result.separation_verdict == result.flores_bazan_verdict == VERDICT_NONCONVEX
        assert result.diagnostics is None
        doc = result.to_jsonable()
        assert doc["agree"] is True


NONCONVEX_CASES = [c for c in curated_cases() if c.expected.verdict == VERDICT_NONCONVEX]


class TestSharedReduction:
    """Both checkers read one reduction, and it computes only what is read."""

    @pytest.fixture
    def spectral_calls(self, monkeypatch):
        """``spectral_calls(name)`` records the array shapes of each call of ``spectral.<name>``."""

        def count(name):
            # Callers bind helpers by name, so wrap the helper in every namespace that holds it.
            calls = []
            original = getattr(spectral, name)

            def counting(*args, **kwargs):
                calls.append([np.shape(a) for a in args if isinstance(a, np.ndarray)])
                return original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "qrange" and vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counting)
            return calls

        return count

    @pytest.mark.parametrize("checker", [check_convexity, cross_check], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("case", NONCONVEX_CASES, ids=lambda c: c.name)
    def test_at_most_two_eigensolves_per_nonconvex_case(self, spectral_calls, checker, case):
        eigh_calls = spectral_calls("eigh")
        result = checker(case.instance)
        assert getattr(result, "certificate", result).verdict == VERDICT_NONCONVEX
        assert len(eigh_calls) <= 2, eigh_calls

    @pytest.mark.parametrize("case", NONCONVEX_CASES, ids=lambda c: c.name)
    def test_at_most_two_range_memberships_per_nonconvex_case(self, spectral_calls, case):
        # a and c in range(A); the projected gradient's membership is read from
        # the one pseudoinverse projection.
        calls = spectral_calls("range_membership")
        assert check_convexity(case.instance).verdict == VERDICT_NONCONVEX
        assert len(calls) <= 2, calls

    @pytest.mark.parametrize("checker", [check_convexity, cross_check], ids=lambda fn: fn.__name__)
    def test_independent_pencil_needs_no_eigensolve(self, spectral_calls, checker):
        eigh_calls = spectral_calls("eigh")
        case = next(c for c in curated_cases() if c.name == "bowl_vs_sheet_3d")
        assert case.expected.final_step == 1
        checker(case.instance)
        assert eigh_calls == []

    def test_independent_pencil_is_one_pencil_test(self, spectral_calls):
        calls = spectral_calls("pencil_dependence")
        check_convexity(next(c for c in curated_cases() if c.name == "bowl_vs_sheet_3d").instance)
        assert len(calls) == 1, calls

    @pytest.fixture
    def numpy_wrapper_calls(self, monkeypatch):
        """The names of the calls made to ``numpy.linalg.norm``, ``numpy.allclose`` and ``numpy.errstate``.

        ``numpy.linalg`` binds its own ``errstate``, so only qrange's entries count.
        """
        calls = []
        for owner, name in ((np.linalg, "norm"), (np, "allclose"), (np, "errstate")):
            original = getattr(owner, name)

            def counting(*args, _label=f"{owner.__name__}.{name}", _original=original, **kwargs):
                calls.append(_label)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("case", NONCONVEX_CASES, ids=lambda c: c.name)
    def test_certify_calls_no_norm_or_allclose_wrapper(self, numpy_wrapper_calls, case):
        # The decision path reads norms through spectral._norm, compares
        # stored points float by float and enters no np.errstate; NumPy's
        # per-call wrappers cost more than the arithmetic at these sizes.
        cert = check_convexity(case.instance)
        assert verify_certificate(case.instance, cert)["valid"]
        assert numpy_wrapper_calls == []

    @pytest.mark.parametrize("case", NONCONVEX_CASES, ids=lambda c: c.name)
    def test_certify_reads_the_witness_values_of_f(self, monkeypatch, case):
        # The witness keeps f at its two points from its level check, so the
        # checker evaluates only g there; the verifier still evaluates afresh.
        calls = []
        original = quadratic.evaluate

        def counting(q, x):
            calls.append(q)
            return original(q, x)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "qrange" and vars(module).get("evaluate") is original:
                monkeypatch.setattr(module, "evaluate", counting)
        cert = check_convexity(case.instance)
        assert len(calls) == 7
        calls.clear()
        assert verify_certificate(case.instance, cert)["valid"]
        assert len(calls) == 4

    @pytest.mark.parametrize("case", NONCONVEX_CASES, ids=lambda c: c.name)
    def test_cross_check_calls_no_norm_or_allclose_wrapper(self, numpy_wrapper_calls, case):
        assert cross_check(case.instance).agree
        assert numpy_wrapper_calls == []
