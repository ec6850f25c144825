"""Top-level convexity decisions, certificates, and the independent checker."""

from __future__ import annotations

import dataclasses
import itertools
import sys

import numpy as np
import pytest

from qrange import (
    VERDICT_CONVEX,
    VERDICT_NONCONVEX,
    InvalidInstance,
    ProblemInstance,
    ToleranceSet,
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
from qrange import quadratic, separation, spectral
from conftest import differential_batch, random_instance, random_symmetric, transformed_instance


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
        # After the swap the affine f is the function that must straddle its
        # level, also when its constant dwarfs its variation.
        p = self.swap_instance()
        for df in (0.0, 1e17, -1e17, 1e20):
            shifted = ProblemInstance(p.f.add_constant(df), p.g, p.tolerances)
            report = verify_certificate(shifted, check_convexity(shifted))
            assert report["valid"], df

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
            for df, dg in ((3.7, -2.2), (1e16, -1e16)):
                shifted = ProblemInstance(p.f.add_constant(df), p.g.add_constant(dg), p.tolerances)
                cert = check_convexity(shifted)
                assert cert.verdict == base
                assert verify_certificate(shifted, cert)["valid"]
        # saddle_pair_dependent's margin ||A||_2 * (1 + ||x_c||)^2 is 1, below
        # the float spacing of f's values near 1e16; the built margin also
        # clears the rounding of levels there.  With g shifted instead, the
        # witness points lie far enough off the hyperplane that g's values
        # straddle its level beyond their own rounding, also when the two
        # shifts cancel in the hyperplane's offset (the pencil ratio is 2).
        p = get_case("saddle_pair_dependent").instance
        for df, dg in ((1e16, 0.0), (-1e16, 0.0), (1e17, 0.0), (-1e17, 0.0), (0.0, 1e17), (0.0, -1e17), (0.0, 1e20),
                       (1e17, 2e17), (1e20, 2e20)):
            shifted = ProblemInstance(p.f.add_constant(df), p.g.add_constant(dg), p.tolerances)
            cert = check_convexity(shifted)
            assert cert.verdict == VERDICT_NONCONVEX
            assert verify_certificate(shifted, cert)["valid"], (df, dg)

    def test_far_stationary_point_levels_pass_the_recheck(self):
        # ||x_c|| is about 1e9, so the re-check's threshold, which grows
        # like ||a|| * ||x_c||^2, is above ||A||_2 * (1 + ||x_c||)^2 at
        # tol_psd = 1e-6; the built margin clears it all the same.
        f = make_quadratic(np.diag([1.0, -1.0]), [1e9, 3e8], 0.0)
        g = make_quadratic(np.diag([2.0, -2.0]), [0.0, 1.0], 0.0)
        for tol in (ToleranceSet(), ToleranceSet(tol_psd=1e-6)):
            p = ProblemInstance(f, g, tol)
            cert = check_convexity(p)
            assert cert.verdict == VERDICT_NONCONVEX
            assert verify_certificate(p, cert)["valid"]

    def test_value_scaling_preserves_verdict(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            p = random_instance(rng)
            base = check_convexity(p).verdict
            scaled = ProblemInstance(p.f.scaled(-4.5), p.g.scaled(0.25), p.tolerances)
            assert check_convexity(scaled).verdict == base
        # Every threshold scales with its function, so neither exact common
        # factors 2^k nor independent factors over 16 decades move a verdict,
        # and every certificate built at those scales verifies.  The margin
        # is sized by the data, so certificates verify near both ends of the
        # float range too; those factors run on the NONCONVEX draws only.
        rng = np.random.default_rng(5)
        draws = [random_instance(rng) for _ in range(4000)]
        independent = 10.0 ** np.random.default_rng(11).uniform(-8.0, 8.0, size=(4000, 2))
        common = [(2.0**k, 2.0**k) for k in (-40, -27, -14, 14, 27, 40)]
        extreme = [(2.0**k, 2.0**k) for k in (-505, -300, -100, 500)]
        for i, p in enumerate(draws):
            base = check_convexity(p).verdict
            for s, t in common + [tuple(independent[i])] + (extreme if base == VERDICT_NONCONVEX else []):
                scaled = ProblemInstance(p.f.scaled(s), p.g.scaled(t), p.tolerances)
                cert = check_convexity(scaled)
                assert cert.verdict == base, (i, s, t)
                if cert.verdict == VERDICT_NONCONVEX:
                    assert verify_certificate(scaled, cert)["valid"], (i, s, t)

    @staticmethod
    def with_weak_negative_eigenvalue(p, cert, x, tol=None):
        """``p`` with its oriented lone negative eigenvalue moved to ``-x * ||A||_2``.

        ``A`` is the analysed matrix and keeps its eigenvectors; the other
        matrix is rebuilt as ``ratio * A``, so the pencil stays dependent.
        Given tolerances ``tol``, both linear terms are also rebuilt as ``A``
        times their old preimages, so they stay in ``A``'s column space.
        """
        f, g = (p.g, p.f) if cert.swapped else (p.f, p.g)
        s = cert.orientation
        vals, vecs = np.linalg.eigh(s * f.A)
        vals[0] = -x * np.abs(vals).max()
        a_mat = s * (vecs * vals) @ vecs.T
        a_mat = (a_mat + a_mat.T) / 2.0
        fa, ga = f.a, g.a
        if tol is not None:
            fa, ga = a_mat @ np.linalg.solve(f.A, fa), a_mat @ np.linalg.solve(f.A, ga)
        f = make_quadratic(a_mat, fa, f.a0)
        g = make_quadratic(cert.pencil_ratio * f.A, ga, g.a0)
        return ProblemInstance(*((g, f) if cert.swapped else (f, g)), tol or p.tolerances)

    def test_weak_negative_eigenvalue_certificates_verify(self):
        # A weak lone negative eigenvalue makes the witness line long.  Built
        # from the stationary point it is still accurate: every pair stays
        # NONCONVEX with a certificate that verifies, and nothing raises.
        rng = np.random.default_rng(5)
        pairs = []
        while len(pairs) < 40:
            p = random_instance(rng)
            cert = check_convexity(p)
            if cert.verdict == VERDICT_NONCONVEX:
                pairs.append((p, cert))
        for x in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            for i, (p, cert) in enumerate(pairs):
                q = self.with_weak_negative_eigenvalue(p, cert, x)
                weak = check_convexity(q)
                assert weak.verdict == VERDICT_NONCONVEX, (x, i)
                assert verify_certificate(q, weak)["valid"], (x, i)
        # With tol_rank above tol_eig the column space still keeps every
        # eigenpair the inertia counts, so the weak eigenvector stays in it:
        # the unchanged linear terms stay in range, and the witness line
        # starts where f's slope along it is zero.
        for i, (p, cert) in enumerate(pairs):
            weak = self.with_weak_negative_eigenvalue(p, cert, 1e-8)
            q = ProblemInstance(weak.f, weak.g, ToleranceSet(tol_rank=1e-6))
            cert = check_convexity(q)
            assert cert.verdict == VERDICT_NONCONVEX, i
            assert verify_certificate(q, cert)["valid"], i
        # Rebuilding both linear terms onto A's column space moves the
        # combined gradient, so some pairs turn convex; the rest verify.
        tol = ToleranceSet(tol_rank=1e-3)
        decided = 0
        for x in (1e-8, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2):
            for i, (p, cert) in enumerate(pairs):
                q = self.with_weak_negative_eigenvalue(p, cert, x, tol)
                weak = check_convexity(q)
                if weak.verdict == VERDICT_NONCONVEX:
                    assert verify_certificate(q, weak)["valid"], (x, i)
                    decided += 1
        assert decided >= 50

    def test_overflow_near_the_top_of_the_range_is_invalid_input(self):
        # At 2^510 both norms can fit while the re-check's pseudoinverse
        # term overflows.  That is invalid input, not a RootFailure.  The
        # combined gradient's squared norm can overflow too; its norm is then
        # taken on the gradient brought to unit size, so those draws are
        # decided, with the unscaled verdict and a certificate that verifies.
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
            "pseudoinverse term overflows the float range",
        }

    def test_large_scale_certificate_verifies(self):
        # At 1e10 the pseudoinverse term is large enough that a fixed margin
        # of 1 would fall under the separation check's relative threshold.
        p = get_case("rank_deficient_4d").instance
        scaled = ProblemInstance(p.f.scaled(1e10), p.g.scaled(1e10), p.tolerances)
        cert = check_convexity(scaled)
        assert cert.verdict == VERDICT_NONCONVEX
        assert verify_certificate(scaled, cert)["valid"]


class TestToleranceCutoffs:
    """Each column space or pseudoinverse keeps every eigenpair its inertia counts as nonzero."""

    @staticmethod
    def weak_pair(lam, tol_rank):
        f = make_quadratic(np.diag([-lam, 1.0]), [1e-3, 0.5], 0.0)
        g = make_quadratic(f.A, [1.1e-2, 1.0], 0.0)
        return ProblemInstance(f, g, ToleranceSet(tol_rank=tol_rank))

    @pytest.mark.parametrize("tol_rank", [1e-3, 1e-2])
    @pytest.mark.parametrize("lam", [1e-6, 1e-8])
    def test_rank_tolerance_above_eigenvalue_tolerance(self, lam, tol_rank):
        # The inertia counts -lam as negative.  Cut at tol_rank, A's column
        # space would drop its eigenvector, so c fails membership (CONVEX),
        # and W's pseudoinverse would drop W's eigenvalue ~4e-4 that its
        # inertia counts positive, so the re-check fails (InvalidReport).
        p = self.weak_pair(lam, tol_rank)
        cert = check_convexity(p)
        assert cert.verdict == VERDICT_NONCONVEX
        assert verify_certificate(p, cert)["valid"]
        assert cross_check(p).agree

    def test_restricted_form_cutoff_keeps_the_rank_tolerance(self):
        # Draw 366 (n = 6) has a restricted-form eigenvalue of about
        # -8.9e-5 * ||A||_2.  At tol_psd = 1e-3 its inertia counts it as zero,
        # but the re-check's pseudoinverse must keep it, or the projected
        # gradient leaves the column space: the cutoff is min(tol_rank, tol_psd).
        rng = np.random.default_rng(5)
        for _ in range(367):
            p = random_instance(rng)
        assert p.f.n == 6
        q = ProblemInstance(p.f, p.g, ToleranceSet(tol_psd=1e-3))
        result = cross_check(q)
        assert result.agree and result.certificate.verdict == VERDICT_NONCONVEX
        assert verify_certificate(q, result.certificate)["valid"]

    def test_both_checkers_read_one_membership_of_the_linear_terms(self):
        # Draw 3164 (n = 2, A of rank 1) at these tolerances: c passes the
        # membership test at tol_rank * c_scale while g.a alone would fail it
        # at tol_rank * m_g.  Given f.a in range, g.a is in range exactly when
        # c is, so the direction criterion reads the separation path's test.
        rng = np.random.default_rng(5)
        for _ in range(3165):
            p = random_instance(rng)
        assert p.f.n == 2
        q = ProblemInstance(p.f, p.g, ToleranceSet(tol_rank=1e-2, tol_psd=1e-3))
        result = cross_check(q)
        assert result.agree and result.certificate.verdict == VERDICT_NONCONVEX
        assert result.fb_report.conditions["linear_terms_in_column_space"] == {"f": True, "g": True}
        assert verify_certificate(q, result.certificate)["valid"]


def _fro(x: np.ndarray) -> float:
    return float(np.sqrt((x * x).sum()))


class TestBoundaryFamilies:
    """NONCONVEX draws with one tolerance decision moved to ``k`` times its threshold.

    On either side of a threshold nothing raises, every NONCONVEX certificate
    verifies, both checkers agree, and the verdict is the one that side of
    the threshold gives.  The same holds, verdicts aside, under raised
    tolerances.
    """

    K = [sign * k for k in (0.1, 0.32, 0.56, 1.78, 3.16, 10.0) for sign in (1, -1)]
    # tol_rank, tol_psd and tol_eig off their defaults, alone and in pairs.
    RAISED = [("tol_rank", 1e-6), ("tol_rank", 1e-3), ("tol_rank", 1e-2), ("tol_psd", 1e-6), ("tol_psd", 1e-3),
              ("tol_eig", 1e-6), ("tol_eig", 1e-3)]
    SETTINGS = [dict([a]) for a in RAISED] + [
        dict([a, b]) for a, b in itertools.combinations(RAISED, 2) if a[0] != b[0]
    ]

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(5)
        pairs = []
        while len(pairs) < 40:
            p = random_instance(rng)
            cert = check_convexity(p)
            if cert.verdict == VERDICT_NONCONVEX:
                pairs.append((p, cert))
        return pairs

    @staticmethod
    def decided(q: ProblemInstance):
        result = cross_check(q)
        assert result.agree
        if result.certificate.verdict == VERDICT_NONCONVEX:
            assert verify_certificate(q, result.certificate)["valid"]
        return result.certificate.verdict

    @staticmethod
    def rebuilt(p, cert, f, g) -> ProblemInstance:
        """``p`` with its analysed pair replaced by ``(f, g)``."""
        return ProblemInstance(*((g, f) if cert.swapped else (f, g)), p.tolerances)

    def test_pencil_residual(self, pairs):
        # g.A moves off ratio * f.A along a direction orthogonal to f.A.
        rng = np.random.default_rng(1)
        for i, (p, cert) in enumerate(pairs):
            f, g = (p.g, p.f) if cert.swapped else (p.f, p.g)
            E = random_symmetric(rng, f.n)
            E = E - ((E * f.A).sum() / (f.A * f.A).sum()) * f.A
            threshold = p.tolerances.tol_dep * (_fro(g.A) + _fro(g.a))
            for k in self.K:
                q = self.rebuilt(p, cert, f, make_quadratic(g.A + (k * threshold / _fro(E)) * E, g.a, g.a0))
                assert self.decided(q) == (VERDICT_NONCONVEX if abs(k) < 1 else VERDICT_CONVEX), (i, k)

    def test_combined_gradient_norm(self, pairs):
        # g.a moves to ratio * f.a plus a multiple of the old combined
        # gradient, so the gradient keeps its direction and only its norm
        # crosses the zero test.  With ratio 0 that test is relative to the
        # gradient itself, so no norm crosses it.
        for i, (p, cert) in enumerate(pairs):
            f, g = (p.g, p.f) if cert.swapped else (p.f, p.g)
            ratio = cert.pencil_ratio
            if ratio == 0.0:
                continue
            half = -ratio * f.a + g.a
            base = ratio * f.a
            c_scale = 2.0 * (abs(ratio) * (_fro(f.A) + _fro(f.a)) + _fro(g.A) + _fro(base))
            threshold = p.tolerances.tol_dep * c_scale
            for k in self.K:
                ga = base + (k * threshold / (2.0 * _fro(half))) * half
                q = self.rebuilt(p, cert, f, make_quadratic(g.A, ga, g.a0))
                assert self.decided(q) == (VERDICT_CONVEX if abs(k) < 1 else VERDICT_NONCONVEX), (i, k)

    def test_tolerance_mix(self, pairs):
        # Raised rank, semidefiniteness and eigenvalue tolerances, on draws of
        # every verdict and on pairs with a weak lone negative eigenvalue.
        rng = np.random.default_rng(5)
        inputs = [random_instance(rng) for _ in range(20)]
        inputs += [TestInvarianceProperties.with_weak_negative_eigenvalue(p, cert, 1e-6) for p, cert in pairs[:20]]
        assert len(self.SETTINGS) == 23
        for setting in self.SETTINGS:
            for q in inputs:
                self.decided(ProblemInstance(q.f, q.g, ToleranceSet(**setting)))


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
    def with_u_moved_out(p, cert):
        """``cert`` with ``u`` moved to ``x_c + 1.5*(u - x_c)`` and its range point updated.

        Along the witness line ``s*(f - alpha)`` falls as ``M - |lam|*t**2``,
        so the moved ``u`` misses the level by ``1.25*M``.
        """
        w = cert.witness
        x_c = (w.u + w.v) / 2.0
        u = x_c + 1.5 * (w.u - x_c)
        moved = dataclasses.replace(w, u=u, range_at_u=np.array([evaluate(p.f, u), evaluate(p.g, u)]))
        return dataclasses.replace(cert, witness=moved)

    def assert_moved_u_rejected(self, p):
        cert = check_convexity(p)
        assert verify_certificate(p, cert)["valid"]
        report = verify_certificate(p, self.with_u_moved_out(p, cert))
        assert report["points_consistent"]
        assert report["levels_hit"] is False
        assert report["valid"] is False

    @pytest.mark.parametrize("k", [0, -100, -505])
    def test_level_miss_is_measured_against_the_level_at_every_scale(self, k):
        # A level test with an absolute floor would accept the moved u below
        # unit size; g still straddles its level, so only that test rejects it.
        p = get_case("saddle_pair_dependent").instance
        p = ProblemInstance(p.f.scaled(2.0**k), p.g.scaled(2.0**k), p.tolerances)
        self.assert_moved_u_rejected(p)
        assert verify_certificate(p, self.with_u_moved_out(p, check_convexity(p)))["strictly_straddles"]

    @pytest.mark.parametrize("x", [1e-8, 1e-6])
    def test_level_miss_is_measured_against_the_level_on_weak_eigenvalues(self, x):
        # With lam = -x*||A||_2 the witness points lie far out, where f's
        # terms exceed M by about 1/x: a miss sized to tol_residual times
        # those terms would accept the moved u at x = 1e-8.
        self.assert_moved_u_rejected(TestToleranceCutoffs.weak_pair(x, ToleranceSet().tol_rank))
        rng = np.random.default_rng(5)
        decided = 0
        while decided < 10:
            p = random_instance(rng)
            cert = check_convexity(p)
            if cert.verdict == VERDICT_NONCONVEX:
                self.assert_moved_u_rejected(TestInvarianceProperties.with_weak_negative_eigenvalue(p, cert, x))
                decided += 1

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
        # One column-space split of A serves a and c in range(A) and x_c; one
        # of W serves the projected gradient's membership and pseudoinverse.
        calls = spectral_calls("_column_space")
        assert check_convexity(case.instance).verdict == VERDICT_NONCONVEX
        assert len(calls) == 2, calls

    @pytest.mark.parametrize("checker", [check_convexity, cross_check], ids=lambda fn: fn.__name__)
    def test_independent_pencil_needs_no_eigensolve(self, spectral_calls, checker):
        eigh_calls = spectral_calls("eigh")
        case = next(c for c in curated_cases() if c.name == "bowl_vs_sheet_3d")
        assert case.expected.final_step == 1
        checker(case.instance)
        assert eigh_calls == []

    @pytest.mark.parametrize("case", NONCONVEX_CASES, ids=lambda c: c.name)
    def test_two_direction_norms_per_nonconvex_case(self, spectral_calls, case):
        # The reduction's lazy norm_c serves the zero test and every foot
        # point; null_space_basis measures its input itself.
        calls = spectral_calls("_wide_norm")
        assert check_convexity(case.instance).verdict == VERDICT_NONCONVEX
        assert len(calls) == 2, calls

    @pytest.mark.parametrize("case", NONCONVEX_CASES, ids=lambda c: c.name)
    def test_certify_builds_no_affine_form(self, monkeypatch, case):
        # The level offset is read from the pair's reduction, not from an AffineForm.
        built = []
        monkeypatch.setattr(separation.AffineForm, "__post_init__", lambda self: built.append(self))
        cert = check_convexity(case.instance)
        assert verify_certificate(case.instance, cert)["valid"]
        assert built == []

    def test_independent_pencil_is_one_pencil_test(self, spectral_calls):
        calls = spectral_calls("pencil_dependence")
        check_convexity(next(c for c in curated_cases() if c.name == "bowl_vs_sheet_3d").instance)
        assert len(calls) == 1, calls

    @pytest.fixture
    def numpy_wrapper_calls(self, monkeypatch):
        """The names of the calls made to ``numpy.linalg.norm``, ``numpy.linalg.lstsq``, ``numpy.allclose`` and ``numpy.errstate``.

        ``numpy.linalg`` binds its own ``errstate``, so only qrange's entries
        count.  The certificate is built in closed form, so it solves nothing.
        """
        calls = []
        for owner, name in ((np.linalg, "norm"), (np.linalg, "lstsq"), (np, "allclose"), (np, "errstate")):
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
