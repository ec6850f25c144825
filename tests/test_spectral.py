"""Spectral helpers: eigensystems, inertia, null/range spaces, pencils."""

from __future__ import annotations

import numpy as np
import pytest

from qrange import (
    DimensionMismatch,
    Inertia,
    InvalidInstance,
    ZeroMatrix,
    ZeroVector,
    apply_pseudoinverse,
    eigh,
    inertia,
    null_space_basis,
    pencil_dependence,
    range_membership,
)
from qrange.spectral import _norm, _wide_norm

TOL_EIG = 1e-9
TOL_RANK = 1e-9
TOL_DEP = 1e-9


def signs(M, scale=None):
    """Inertia of ``M`` with the zero threshold ``TOL_EIG * scale`` (default: its spectral norm)."""
    sd = eigh(M)
    return inertia(sd, TOL_EIG * (sd.spectral_norm if scale is None else scale)).as_tuple()


def member(M, v, scale=1.0):
    """Range membership with the rank cutoff relative to ``M`` and the residual to ``scale``."""
    sd = eigh(M)
    return range_membership(sd, v, TOL_RANK * sd.spectral_norm, TOL_RANK * scale)


def pinv_form(M, w):
    sd = eigh(M)
    return apply_pseudoinverse(sd, w, TOL_RANK * sd.spectral_norm, TOL_RANK)


class TestEigh:
    def test_eigenvalues_ascending(self):
        sd = eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(sd.eigenvalues, [-1.0, 2.0, 3.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(-1, 1, (5, 5))
        m = (m + m.T) / 2
        sd = eigh(m)
        assert np.allclose((sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T, m, atol=1e-12)

    def test_spectral_norm(self):
        sd = eigh(np.diag([-4.0, 1.0]))
        assert sd.spectral_norm == pytest.approx(4.0)

    @pytest.mark.parametrize("M", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))])
    def test_non_square_rejected(self, M):
        with pytest.raises(DimensionMismatch, match="matrix must be square"):
            eigh(M)

    def test_empty_matrix(self):
        sd = eigh(np.zeros((0, 0)))
        assert sd.eigenvalues.shape == (0,)
        assert sd.spectral_norm == 0.0

    @pytest.mark.parametrize("signs", [(-1.0,), (0.0,), (-1.0, 1.0), (1.0,)], ids=["negative", "zero", "mixed", "positive"])
    def test_spectral_norm_is_the_largest_magnitude_bit_for_bit(self, signs):
        # eigh reads the norm off the ends of the ascending spectrum; it must
        # be np.abs(vals).max() to the bit, sign of zero included.
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            for _ in range(50):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                spectrum = rng.choice(signs, n) * rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-200, 200)
                sd = eigh((q * spectrum) @ q.T)
                assert sd.spectral_norm.hex() == float(np.abs(sd.eigenvalues).max()).hex()


class TestInertia:
    def test_plain_counts(self):
        assert signs(np.diag([-2.0, 0.0, 3.0])) == (1, 1, 1)

    def test_threshold_scales_with_norm(self):
        # 1e-6 is a zero next to a 1e6 eigenvalue, but not next to one of size 1
        assert signs(np.diag([1e6, 1e-6])) == (0, 1, 1)
        assert signs(np.diag([1.0, 1e-6])) == (0, 0, 2)

    def test_tiny_matrix_judged_against_passed_threshold(self):
        # a matrix of size 1e-12 keeps its signs against its own scale; only
        # against a scale of 1 do its eigenvalues count as zero
        tiny = 1e-12 * np.diag([-1.0, 2.0])
        assert signs(tiny) == (1, 0, 1)
        assert signs(tiny, scale=1.0) == (0, 2, 0)

    def test_empty(self):
        assert inertia(eigh(np.zeros((0, 0))), 0.0) == Inertia(0, 0, 0)

    def test_counts_are_count_nonzero_at_every_threshold(self):
        # inertia bisects the ascending spectrum; its counts must be the
        # count_nonzero counts, also at a threshold equal to an eigenvalue's
        # magnitude and one unit either side of it.
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            for _ in range(60):
                spectrum = rng.choice([-2.0, -1.0, -1e-12, 0.0, 1e-12, 1.0, 2.0], n) * rng.uniform(0.5, 1.5, n)
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                sd = eigh((q * spectrum) @ q.T)
                vals = sd.eigenvalues
                magnitudes = np.abs(vals)
                thresholds = [0.0, *magnitudes, *np.nextafter(magnitudes, np.inf), *np.nextafter(magnitudes, 0.0)]
                for thr in thresholds:
                    n_neg, n_pos = int(np.count_nonzero(vals < -thr)), int(np.count_nonzero(vals > thr))
                    assert inertia(sd, thr) == Inertia(n_neg, n - n_neg - n_pos, n_pos), (vals, thr)


class TestNullSpaceBasis:
    def test_columns_orthonormal_and_orthogonal_to_input(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 6):
            c = rng.standard_normal(n)
            v = null_space_basis(c)
            assert v.shape == (n, n - 1)
            assert np.allclose(v.T @ v, np.eye(n - 1), atol=1e-12)
            assert np.allclose(c @ v, 0.0, atol=1e-12 * max(1.0, np.linalg.norm(c)))

    def test_deterministic(self):
        c = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(null_space_basis(c), null_space_basis(c))

    def test_scale_invariant_subspace(self):
        c = np.array([1.0, -2.0, 0.5])
        v1 = null_space_basis(c)
        v2 = null_space_basis(1000.0 * c)
        assert np.allclose(v1, v2, atol=1e-12)

    def test_direction_whose_norm_overflows_rejected(self):
        # Every entry fits but the norm does not: normalised, the direction
        # would read as zero and the basis would not be orthogonal to it.
        with pytest.raises(InvalidInstance, match="direction norm overflows"):
            null_space_basis(np.full(2, 1.7e308))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            null_space_basis(np.zeros(3))

    @pytest.mark.parametrize("c", [np.zeros(0), np.ones((2, 2)), np.array(1.0)])
    def test_direction_that_is_no_nonempty_vector_rejected(self, c):
        with pytest.raises(DimensionMismatch, match="nonempty vector"):
            null_space_basis(c)


class TestRangeMembership:
    def test_member_of_rank_deficient_range(self):
        target = np.array([4.0, 3.0, 0.0])
        assert member(np.diag([2.0, -3.0, 0.0]), target)

    def test_nonmember_detected(self):
        assert not member(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_zero_vector_always_member(self):
        assert member(np.zeros((2, 2)), np.zeros(2))

    def test_rotated_rank_deficient(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a_mat = (q * np.array([1.5, -0.5, 0.0, 0.0])) @ q.T
        inside = a_mat @ rng.standard_normal(4)
        outside = inside + 0.3 * q[:, 3]
        assert member(a_mat, inside)
        assert not member(a_mat, outside)

    def test_tiny_vector_judged_against_passed_threshold(self):
        # a residual of 1e-12 is far outside the range next to data of size
        # 1e-12, and within tolerance only next to data of size 1
        tiny = 1e-12 * np.diag([1.0, 0.0])
        off = 1e-12 * np.array([1.0, 1.0])
        assert not member(tiny, off, scale=1e-12)
        assert member(tiny, off, scale=1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            member(np.eye(2), np.zeros(3))


class TestApplyPseudoinverse:
    def test_matches_pinv_on_range(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a_mat = (q * np.array([2.0, -1.0, 0.0])) @ q.T
        w = a_mat @ rng.standard_normal(3)
        expected = float(w @ np.linalg.pinv(a_mat) @ w)
        assert pinv_form(a_mat, w) == pytest.approx(expected, abs=1e-10)

    def test_out_of_range_rejected(self):
        assert pinv_form(np.diag([1.0, 0.0]), np.array([0.0, 1.0])) is None

    def test_zero_vector(self):
        assert pinv_form(np.diag([1.0, 0.0]), np.zeros(2)) == 0.0

    def test_overflowing_term_is_invalid_input(self):
        # A margin compared against an infinite term would decide on inf.
        with pytest.raises(InvalidInstance, match="pseudoinverse term overflows"):
            pinv_form(np.diag([1.0, 4.0]), np.array([2.0**600, 1.0]))

    def test_term_whose_square_overflows_is_kept(self):
        # (2**520)**2 overflows, but the term (2**520)**2 / 2**100 fits.
        assert pinv_form(np.diag([2.0**100, 1.0]), np.array([2.0**520, 0.0])) == 2.0**940

    def test_term_whose_square_underflows_is_kept(self):
        # (1e-170)**2 underflows to 0, but the terms 1e-190 and 4.5e-190 fit.
        sd = eigh(np.diag([1e-150, 2e-150]))
        w = np.array([1e-170, 3e-170])
        assert apply_pseudoinverse(sd, w, 1e-160, 1e-300) == pytest.approx(5.5e-190, rel=1e-15, abs=0.0)

    def test_large_finite_term_keeps_its_bits(self):
        # A sum near the top of the float range is kept, since it is finite.
        assert pinv_form(np.diag([1.0, 4.0]), np.array([2.0**490, 2.0**500])) == 2.0**980 + 2.0**998


def dependent_ratio(A, B):
    """The ratio of ``B`` on ``A`` when :func:`pencil_dependence` accepts it, else ``None``.

    The residual threshold is relative to ``||B||_F``, as the pair reduction
    sizes it for a second function with no linear term.
    """
    ratio, residual, dependent = pencil_dependence(A, B, TOL_DEP * float(np.linalg.norm(B)))
    assert residual == pytest.approx(float(np.linalg.norm(np.asarray(B) - ratio * np.asarray(A))))
    return ratio if dependent else None


class TestPencilDependence:
    def test_exact_multiple(self):
        a_mat = np.diag([-1.0, 1.0])
        assert dependent_ratio(a_mat, 2.0 * a_mat) == pytest.approx(2.0, abs=1e-15)

    def test_zero_second_matrix_gives_ratio_zero(self):
        assert dependent_ratio(np.diag([-1.0, 1.0]), np.zeros((2, 2))) == 0.0

    def test_independent_pair_rejected(self):
        assert dependent_ratio(np.diag([1.0, 1.0]), np.diag([1.0, -1.0])) is None

    def test_negative_ratio(self):
        rng = np.random.default_rng(6)
        m = rng.uniform(-1, 1, (4, 4))
        m = (m + m.T) / 2
        assert dependent_ratio(m, -0.75 * m) == pytest.approx(-0.75, abs=1e-12)

    def test_zero_first_matrix_raises(self):
        with pytest.raises(ZeroMatrix):
            pencil_dependence(np.zeros((2, 2)), np.eye(2), TOL_DEP)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="shape mismatch"):
            pencil_dependence(np.eye(2), np.eye(3), TOL_DEP)

    def test_near_dependence_within_tolerance(self):
        a_mat = np.diag([1.0, 2.0])
        b_mat = 3.0 * a_mat + 1e-12 * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert dependent_ratio(a_mat, b_mat) == pytest.approx(3.0, abs=1e-9)

    def test_above_tolerance_rejected(self):
        a_mat = np.diag([1.0, 2.0])
        b_mat = 3.0 * a_mat + 1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert dependent_ratio(a_mat, b_mat) is None

    def test_scale_free_acceptance(self):
        # the residual test is relative to the second matrix, so a huge pair
        # with the same shape tolerance behaves like the unit pair
        a_mat = 1e8 * np.diag([1.0, 2.0])
        b_mat = 3.0 * a_mat + 1e-4 * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert dependent_ratio(a_mat, b_mat) == pytest.approx(3.0, abs=1e-9)


class TestNorm:
    """``_norm`` is ``np.linalg.norm`` without the wrapper, bit for bit."""

    @staticmethod
    def same_bits(x):
        with np.errstate(over="ignore"):
            return _norm(x).hex() == float(np.linalg.norm(x)).hex()

    def test_vectors_and_matrices(self):
        m = np.arange(12.0).reshape(3, 4) / 7.0
        for x in (np.array([3.0, -4.0]), m, m.T, m[::2, ::3], m[:, 1], np.asfortranarray(m)):
            assert self.same_bits(x)

    def test_empty(self):
        assert _norm(np.empty(0)) == 0.0
        assert self.same_bits(np.empty(0)) and self.same_bits(np.empty((0, 0)))

    def test_subnormals(self):
        x = np.array([5e-324, -3e-320, 1e-310])
        assert _norm(x) == 0.0
        assert self.same_bits(x) and self.same_bits(np.array([1e-160, 2e-155]))

    @pytest.mark.filterwarnings("error")
    def test_squares_that_leave_the_float_range(self):
        # An overflowing square reads inf without a floating-point report.
        for value, expected in ((1e200, np.inf), (1e-200, 0.0)):
            x = np.full((3, 3), value)
            with np.errstate(all="raise"):
                assert _norm(x) == expected
            assert self.same_bits(x) and self.same_bits(x[0])

    def test_random_draws_across_forty_decades(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            shape = (int(rng.integers(1, 9)),) if rng.random() < 0.5 else tuple(rng.integers(1, 9, size=2))
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-20.0, 20.0, size=shape)
            if x.ndim == 2 and rng.random() < 0.5:
                x = x.T
            assert self.same_bits(x), x


class TestWideNorm:
    """``_wide_norm`` is ``_norm`` unless the square overflows; then it rescales."""

    def test_same_bits_as_norm_wherever_the_square_fits(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            x = rng.standard_normal(int(rng.integers(1, 17))) * 10.0 ** rng.uniform(-150.0, 150.0)
            for v in (x, x[::2], x[::-1]):
                assert _wide_norm(v).hex() == _norm(v).hex(), v

    def test_norms_above_two_to_the_512(self):
        # 3-4-5 at 2^600, and the largest finite entries of a 1-vector.
        assert _wide_norm(np.array([3.0, -4.0]) * 2.0**600) == 5.0 * 2.0**600
        assert _wide_norm(np.array([-np.finfo(float).max])) == np.finfo(float).max
        x = np.array([0.3, -1.7, 2.2, 0.9]) * 2.0**700
        assert _wide_norm(x) == pytest.approx(np.linalg.norm(x / 2.0**700) * 2.0**700, rel=1e-15)

    def test_a_norm_beyond_the_float_range_is_invalid_input(self):
        with np.errstate(all="raise"), pytest.raises(InvalidInstance, match="direction norm overflows"):
            _wide_norm(np.full(4, 1e308))

    def test_hyperplane_basis_of_a_direction_above_two_to_the_512(self):
        # The basis is that of the direction brought to unit size, bit for bit.
        c = np.array([1.0, -2.0, 0.5]) * 2.0**800
        with np.errstate(all="raise"):
            assert np.array_equal(null_space_basis(c), null_space_basis(c / 2.0**800))
