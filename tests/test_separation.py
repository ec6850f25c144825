"""Separation of quadratic level sets by hyperplanes and by other level sets."""

from __future__ import annotations

import numpy as np
import pytest

from qrange import (
    AffineForm,
    DimensionMismatch,
    InvalidReport,
    ToleranceSet,
    affine_separates_quadratic,
    combination_affine_form,
    construct_separation_witness,
    evaluate,
    exists_separating_affine_levels,
    level_pair_separation,
    make_quadratic,
    null_space_basis,
)
from conftest import random_rotation, symmetric_with_spectrum

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
        f = hyperbola(1.0)
        result = exists_separating_affine_levels(f, np.array([2.0, 0.0]), TOL)
        assert result.exists
        assert result.orientation == +1
        assert result.gamma == pytest.approx(0.0, abs=1e-12)
        assert result.alpha == pytest.approx(0.0, abs=1e-12)

    def test_constructed_levels_actually_separate(self):
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            spec = np.sort(rng.uniform(0.2, 2.0, n))
            spec[0] = -spec[0]
            a_mat = symmetric_with_spectrum(rng, spec)
            f = make_quadratic(a_mat, a_mat @ rng.uniform(-1, 1, n), float(rng.uniform(-2, 2)))
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
            assert report.margin == pytest.approx(1.0, abs=1e-7)
        assert hits >= 10

    def test_no_negative_direction_fails(self):
        f = make_quadratic(np.eye(2), np.zeros(2), 0.0)
        result = exists_separating_affine_levels(f, np.array([1.0, 0.0]), TOL)
        assert not result.exists


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
