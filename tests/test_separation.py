"""Separation of quadratic level sets by hyperplanes and by other level sets."""

from __future__ import annotations

import numpy as np
import pytest

from qrange import (
    AffineForm,
    DimensionMismatch,
    InvalidInstance,
    InvalidReport,
    ToleranceSet,
    ZeroVector,
    affine_separates_quadratic,
    combination_affine_form,
    construct_separation_witness,
    evaluate,
    exists_separating_affine_levels,
    level_pair_separation,
    make_quadratic,
    null_space_basis,
)
from conftest import random_instance, random_rotation, symmetric_with_spectrum

TOL = ToleranceSet()


def hyperbola(a0: float = 0.0):
    """f(x, y) = -x^2 + 4 y^2 + a0; level sets are hyperbolas."""
    return make_quadratic([[-1.0, 0.0], [0.0, 4.0]], [0.0, 0.0], a0)


class TestAffineForm:
    def test_evaluation(self):
        h = AffineForm(np.array([2.0, -1.0]), 3.0)
        assert h(np.array([1.0, 1.0])) == pytest.approx(4.0)

    def test_empty_direction_rejected(self):
        with pytest.raises(DimensionMismatch):
            AffineForm(np.array([]), 0.0)


class TestCombinationAffineForm:
    def test_gradient_doubles_stored_linear_term(self):
        # difference of the two shifted saddles: (g - 0) - 1*(f - 0) = 2x - 1
        f = hyperbola(1.0)
        g = make_quadratic([[-1.0, 0.0], [0.0, 4.0]], [1.0, 0.0], 0.0)
        h = combination_affine_form(f, g, 1.0)
        assert np.allclose(h.c, [2.0, 0.0])
        assert h.c0 == pytest.approx(-1.0)

    def test_matches_pointwise_difference(self):
        rng = np.random.default_rng(21)
        a_mat = symmetric_with_spectrum(rng, np.array([-1.0, 0.5, 2.0]))
        f = make_quadratic(a_mat, rng.uniform(-1, 1, 3), 0.7)
        ratio = -1.25
        g = make_quadratic(ratio * a_mat, rng.uniform(-1, 1, 3), -0.3)
        alpha, beta = 0.6, -1.1
        h = combination_affine_form(f, g, ratio, alpha, beta)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            expected = -ratio * (evaluate(f, x) - alpha) + (evaluate(g, x) - beta)
            assert h(x) == pytest.approx(expected, abs=1e-10)


class TestAffineSeparatesQuadratic:
    def test_through_center_fails_with_near_degenerate_flag(self):
        # hyperplane through the hyperbola's center touches both branches
        report = affine_separates_quadratic(hyperbola(), AffineForm(np.array([2.0, -1.0]), 0.0))
        assert not report.separates
        assert report.failed_conditions[+1] == ("positive_margin",)
        assert report.near_degenerate

    def test_shifted_hyperbola_separated(self):
        report = affine_separates_quadratic(hyperbola(-1.0), AffineForm(np.array([1.0, -5.0]), 0.0))
        assert report.separates
        assert report.orientation == -1
        assert report.margin == pytest.approx(1.0)
        assert np.allclose(report.foot_point, [0.0, 0.0])
        assert report.failed_conditions[-1] == ()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hyperplane_given_above_two_to_the_512(self):
        # The same hyperplane with its coefficients times 2^600: the squared
        # norm of c overflows, its norm does not, so the verdict stands.
        h = AffineForm(np.array([1.0, -5.0]) * 2.0**600, 0.0)
        report = affine_separates_quadratic(hyperbola(-1.0), h)
        assert report.separates and report.orientation == -1
        assert np.allclose(report.foot_point, [0.0, 0.0])

    def test_wrong_curvature_count_fails(self):
        # three negatives one way, zero the other: neither has exactly one
        f = make_quadratic(np.diag([-1.0, -2.0, -3.0]), np.zeros(3), -1.0)
        report = affine_separates_quadratic(f, AffineForm(np.array([1.0, 0.0, 0.0]), 0.0))
        assert not report.separates
        assert "one_negative_eigenvalue" in report.failed_conditions[+1]
        assert "one_negative_eigenvalue" in report.failed_conditions[-1]

    def test_indefinite_restriction_fails_both_orientations(self):
        # saddle directions inside the hyperplane: both restrictions indefinite
        f = make_quadratic(np.diag([-1.0, 1.0, 1.0, -1.0]), np.zeros(4), -1.0)
        report = affine_separates_quadratic(f, AffineForm(np.array([1.0, 0.0, 0.0, 0.0]), 0.0))
        assert not report.separates
        assert "restricted_form_semidefinite" in report.failed_conditions[+1]

    def test_gradient_outside_column_space_fails(self):
        # singular matrix; hyperplane normal has a null-space component
        f = make_quadratic(np.diag([-1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]), -1.0)
        report = affine_separates_quadratic(f, AffineForm(np.array([0.0, 0.0, 1.0]), 0.0))
        assert not report.separates
        assert "gradient_in_range" in report.failed_conditions[+1]

    @pytest.mark.parametrize(
        ("a_mat", "a", "c", "c0", "message"),
        [
            # ||a|| over A's kept eigenvalue 1e-158 overflows.
            ([-1e-150, 1e-158], [0.0, 1e152], [0.0, 1.0], 0.0, r"pinv\(A\) a overflows"),
            # The stationary point's distance from the hyperplane overflows.
            ([-1.0, 1.0], [0.0, 0.0], [1e-150, 0.0], 1e200, "terms at the foot point overflow"),
            # The foot point x_c = (0, -1e154) fits, but 2 a'x0 = -2e308 does not.
            ([-1.0, 1.0], [0.0, 1e154], [1.0, 0.0], 0.0, "terms at the foot point overflow"),
        ],
        ids=["far_stationary_point", "far_hyperplane", "far_foot_point_terms"],
    )
    def test_far_stationary_point_or_hyperplane_is_invalid_input(self, a_mat, a, c, c0, message):
        # The margin is measured from the stationary point; where it or the
        # terms f sums at the hyperplane's foot point lie beyond the float
        # range, the query is invalid input, and nothing warns.
        f = make_quadratic(np.diag(a_mat), a, 0.0)
        with pytest.raises(InvalidInstance, match=message):
            affine_separates_quadratic(f, AffineForm(np.array(c), c0))

    @pytest.mark.parametrize(
        ("a", "a0", "answer"),
        [
            # The minimum over {x1 = 0} is 1000 at x_c = (0, 1e5), where f
            # sums terms of about 1e10: the threshold is sized by those terms,
            # about 3e1, not by ||a|| * ||x_c||**2, about 1e15.
            ([0.0, -1e5], 1e10 + 1000.0, (True, 1000.0)),
            # x_c = (0, -1e153) on {x1 = 0}: its terms fit, so the pair is
            # decided, with minimum -1e306.
            ([0.0, 1e153], 0.0, (False, None)),
        ],
        ids=["small_margin", "far_stationary_point"],
    )
    def test_far_stationary_point_on_the_hyperplane_is_decided(self, a, a0, answer):
        f = make_quadratic(np.diag([-1.0, 1.0]), a, a0)
        report = affine_separates_quadratic(f, AffineForm(np.array([1.0, 0.0]), 0.0))
        assert (report.separates, report.margin) == answer
        assert not report.near_degenerate

    def test_at_most_one_orientation_wins(self):
        rng = np.random.default_rng(33)
        wins = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            a_mat = symmetric_with_spectrum(rng, rng.uniform(-2, 2, n))
            f = make_quadratic(a_mat, a_mat @ rng.uniform(-1, 1, n), float(rng.uniform(-2, 2)))
            h = AffineForm(rng.standard_normal(n), float(rng.uniform(-1, 1)))
            report = affine_separates_quadratic(f, h)
            if report.separates:
                wins += 1
                assert report.orientation in (-1, +1)
                assert report.margin > 0.0
                assert report.failed_conditions[report.orientation] == ()
                assert report.failed_conditions[-report.orientation] != ()
        assert wins > 0  # the sweep must exercise the separating branch


class TestExistsSeparatingAffineLevels:
    def test_shifted_saddle_levels(self):
        # The stationary point is the origin, so the hyperplane passes through
        # it and alpha = f(0) - M with M = ||A||_2 * (1 + 0)^2 = 4.
        f = hyperbola(1.0)
        result = exists_separating_affine_levels(f, np.array([2.0, 0.0]), TOL)
        assert result.exists
        assert result.orientation == +1
        assert result.gamma == 0.0
        assert result.alpha == 1.0 - 4.0

    def test_constructed_levels_actually_separate(self):
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            spec = np.sort(rng.uniform(0.2, 2.0, n))
            spec[0] = -spec[0]
            a_mat = symmetric_with_spectrum(rng, spec)
            u = rng.uniform(-1, 1, n)
            f = make_quadratic(a_mat, a_mat @ u, float(rng.uniform(-2, 2)))
            c = a_mat @ rng.standard_normal(n)
            if np.linalg.norm(c) < 1e-9:
                continue
            result = exists_separating_affine_levels(f, c, TOL)
            if not result.exists:
                continue
            hits += 1
            shifted = f.add_constant(-result.alpha)
            h = AffineForm(c, -result.gamma)
            report = affine_separates_quadratic(shifted, h, TOL)
            assert report.separates
            assert report.orientation == result.orientation
            # The hyperplane passes through the stationary point x_c = -u,
            # where the margin is M = ||A||_2 * (1 + ||x_c||)^2.
            margin = np.abs(spec).max() * (1.0 + np.linalg.norm(u)) ** 2
            assert report.margin == pytest.approx(margin, rel=1e-9)
            assert abs(h(-u)) <= 1e-12 * np.linalg.norm(c)
        assert hits >= 10

    def test_no_negative_direction_fails(self):
        f = make_quadratic(np.eye(2), np.zeros(2), 0.0)
        result = exists_separating_affine_levels(f, np.array([1.0, 0.0]), TOL)
        assert not result.exists

    def test_zero_direction_is_rejected(self):
        with pytest.raises(ZeroVector):
            exists_separating_affine_levels(hyperbola(), np.zeros(2), TOL)

    def test_levels_that_overflow_are_invalid_input(self):
        # x_c = (0, -1e200) fits, but the margin grows as ||A||_2 (1 + ||x_c||)^2
        # and alpha would read -inf; that is invalid input, and nothing warns.
        f = make_quadratic(np.diag([-1e-100, 1e-100]), [0.0, 1e100], 0.0)
        with pytest.raises(InvalidInstance, match="separating levels overflow"):
            exists_separating_affine_levels(f, np.array([1.0, 0.0]), TOL)

    @pytest.mark.parametrize(
        ("a_mat", "c", "tol_psd", "orientation"),
        [
            # +1's eigenvector (1, 0) lies in {c'x = 0}; -1's has |lam| = ||A||_2.
            ([-1e-6, 1.0], [0.0, 1.4], 1e-3, -1),
            # A tie takes +1.
            ([-1.0, 1.0], [1.0, 1.0], 1e-9, +1),
        ],
    )
    def test_both_orientations_passing_builds_on_the_larger_negative_eigenvalue(self, a_mat, c, tol_psd, orientation):
        # W lies in the zero band, so both orientations pass; the levels are
        # built on the one whose witness line crosses the hyperplane.
        f = make_quadratic(np.diag(a_mat), [0.0, 0.0], 0.0)
        tol = ToleranceSet(tol_psd=tol_psd)
        result = exists_separating_affine_levels(f, np.array(c), tol)
        assert (result.exists, result.orientation) == (True, orientation)
        h = AffineForm(np.array(c), -result.gamma)
        report = affine_separates_quadratic(f.add_constant(-result.alpha), h, tol)
        assert (report.separates, report.orientation) == (True, orientation)
        wit = construct_separation_witness(f, h, report, tol, result.alpha)
        assert wit.h_at_u * wit.h_at_v < 0.0


class TestLevelPairSeparation:
    def test_twin_saddles_split_at_origin_levels(self):
        f = hyperbola(1.0)
        g = make_quadratic([[-1.0, 0.0], [0.0, 4.0]], [1.0, 0.0], 0.0)
        rep = level_pair_separation(f, g, 0.0, 0.0)
        assert rep.g_separates_f and rep.f_separates_g
        assert rep.ratio_g_on_f == pytest.approx(1.0)

    def test_twin_saddles_no_split_at_other_levels(self):
        f = hyperbola(1.0)
        g = make_quadratic([[-1.0, 0.0], [0.0, 4.0]], [1.0, 0.0], 0.0)
        rep = level_pair_separation(f, g, 2.0, 0.0)
        assert not rep.g_separates_f and not rep.f_separates_g

    def test_affine_function_cannot_be_separated(self):
        # a hyperplane is connected: nothing splits it
        f = hyperbola(-1.0)
        g = make_quadratic(np.zeros((2, 2)), [0.5, -2.5], 0.0)
        rep = level_pair_separation(f, g, 0.0, 0.0)
        assert rep.g_separates_f  # the affine level set splits the hyperbola
        assert not rep.f_separates_g

    def test_both_affine_neither_separates(self):
        f = make_quadratic(np.zeros((2, 2)), [1.0, 0.0], 0.0)
        g = make_quadratic(np.zeros((2, 2)), [0.0, 1.0], 0.0)
        rep = level_pair_separation(f, g, 0.0, 0.0)
        assert not rep.g_separates_f and not rep.f_separates_g

    def test_independent_matrices_neither_separates(self):
        f = make_quadratic(np.diag([1.0, 1.0]), np.zeros(2), 0.0)
        g = make_quadratic(np.diag([1.0, -1.0]), np.zeros(2), 0.0)
        rep = level_pair_separation(f, g, 1.0, 0.0)
        assert not rep.g_separates_f and not rep.f_separates_g
        assert rep.ratio_g_on_f is None

    @pytest.mark.parametrize(
        ("draw", "levels", "answer"),
        [
            (3556, ("-0x1.0044fe5f9f9c8p+2", "0x1.0ab2b973f39e3p+5"), (True, True)),
            (3154, ("-0x1.7d56a2170bf6fp+4", "0x1.14c65b0af8f8cp+5"), (False, True)),
        ],
    )
    def test_pinned_levels_keep_their_answer_up_to_two_to_the_510(self, draw, levels, answer):
        # f, g and both levels scaled by 2^k keep the answer, and nothing
        # warns.  The margin is measured at the point of the hyperplane
        # nearest f's stationary point, and the pseudoinverse term divides
        # before it squares, so the term fits at 2^509 and 2^510 too;
        # measured from the origin's foot point it overflowed there.  The
        # levels are pinned: they are not the draw's certificate's.
        rng = np.random.default_rng(5)
        for _ in range(draw + 1):
            p = random_instance(rng)
        alpha, beta = map(float.fromhex, levels)
        for k in (0, 505, 509, 510):
            s = 2.0**k
            rep = level_pair_separation(p.f.scaled(s), p.g.scaled(s), s * alpha, s * beta)
            assert (rep.g_separates_f, rep.f_separates_g) == answer, k

    def test_levels_whose_foot_point_terms_overflow_are_invalid_input(self):
        # saddle_pair_dependent: at beta = 1e160 the hyperplane lies so far
        # from the stationary point that f's terms at its foot point
        # overflow; that is invalid input, before any evaluation warns.
        f = make_quadratic(np.diag([-1.0, 1.0]), [0.0, 0.0], 0.0)
        g = make_quadratic(np.diag([-2.0, 2.0]), [2.0, -1.0], 0.0)
        rep = level_pair_separation(f, g, 0.0, 1e150)
        assert (rep.g_separates_f, rep.f_separates_g) == (False, False)
        with pytest.raises(InvalidInstance, match="terms at the foot point overflow"):
            level_pair_separation(f, g, 0.0, 1e160)


class TestConstructSeparationWitness:
    def test_hyperbola_witness_points(self):
        f = hyperbola(-1.0)
        h = AffineForm(np.array([1.0, -5.0]), 0.0)
        report = affine_separates_quadratic(f, h)
        wit = construct_separation_witness(f, h, report)
        got = sorted([tuple(np.round(wit.u, 12)), tuple(np.round(wit.v, 12))])
        assert got == [(0.0, -0.5), (0.0, 0.5)]
        assert wit.h_at_u * wit.h_at_v < 0.0

    def test_respects_target_level(self):
        f = hyperbola()
        h = AffineForm(np.array([1.0, -5.0]), 0.0)
        alpha = 3.0
        report = affine_separates_quadratic(f.add_constant(-alpha), h)
        assert report.separates
        wit = construct_separation_witness(f, h, report, alpha=alpha)
        assert evaluate(f, wit.u) == pytest.approx(alpha, abs=1e-9)
        assert evaluate(f, wit.v) == pytest.approx(alpha, abs=1e-9)
        assert wit.h_at_u * wit.h_at_v < 0.0

    def test_dimension_mismatch_rejected(self):
        f = hyperbola()
        report = affine_separates_quadratic(f.add_constant(-3.0), AffineForm(np.array([1.0, -5.0]), 0.0))
        with pytest.raises(DimensionMismatch):
            construct_separation_witness(f, AffineForm(np.array([1.0, -5.0, 0.0]), 0.0), report, alpha=3.0)

    def test_failed_report_rejected(self):
        f = hyperbola()
        h = AffineForm(np.array([2.0, -1.0]), 0.0)
        report = affine_separates_quadratic(f, h)
        assert not report.separates
        with pytest.raises(InvalidReport):
            construct_separation_witness(f, h, report)

    def test_random_separating_instances_have_valid_witnesses(self):
        rng = np.random.default_rng(29)
        built = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            spec = np.sort(rng.uniform(0.2, 2.0, n))
            spec[0] = -spec[0]
            a_mat = symmetric_with_spectrum(rng, spec)
            f = make_quadratic(a_mat, a_mat @ rng.uniform(-1, 1, n), float(rng.uniform(-2, 2)))
            c = a_mat @ rng.standard_normal(n)
            if np.linalg.norm(c) < 1e-9:
                continue
            found = exists_separating_affine_levels(f, c, TOL)
            if not found.exists:
                continue
            shifted = f.add_constant(-found.alpha)
            h = AffineForm(c, -found.gamma)
            report = affine_separates_quadratic(shifted, h, TOL)
            wit = construct_separation_witness(f, h, report, TOL, alpha=found.alpha)
            built += 1
            assert evaluate(f, wit.u) == pytest.approx(found.alpha, abs=1e-6 * max(1, abs(found.alpha)))
            assert wit.h_at_u * wit.h_at_v < 0.0
        assert built >= 10
