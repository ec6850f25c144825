"""Symmetric-matrix machinery: eigendecompositions, inertia, ranges, pencils.

A matrix is decomposed once by :func:`eigh`; :func:`inertia`,
:func:`range_membership` and :func:`apply_pseudoinverse` take the resulting
:class:`SpectralData`, so each column-space question is one projection onto
an eigenbasis already in hand.  Every threshold comes from the caller's
reduction, sized by the scale of the function it tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, InvalidInstance, ZeroMatrix, ZeroVector

__all__ = [
    "SpectralData",
    "Inertia",
    "eigh",
    "inertia",
    "null_space_basis",
    "range_membership",
    "pencil_dependence",
    "apply_pseudoinverse",
]


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending, ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns, and ``spectral_norm`` is the largest
    eigenvalue magnitude.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spectral_norm: float


@dataclass(frozen=True)
class Inertia:
    n_neg: int
    n_zero: int
    n_pos: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_neg, self.n_zero, self.n_pos)

    def negatives(self, sign: int) -> int:
        """The negative count of ``sign * M``: negation is exact and the zero band symmetric, so ``-M``'s is ``n_pos``."""
        return self.n_neg if sign > 0 else self.n_pos


def _norm(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` for a float array, without NumPy's wrapper.

    This is the wrapper's own path for ``ord=None``: the square root of the
    ``dot`` of the array raveled in memory order.  ``np.vdot`` is that kernel
    bit for bit, but an overflowing square reads ``inf`` with no warning, so
    no caller needs ``np.errstate``.  ``x @ x`` or ``(x * x).sum()`` are other
    kernels and may round differently.
    """
    x = x.ravel(order="K")
    return math.sqrt(np.vdot(x, x))


def _wide_norm(x: np.ndarray) -> float:
    """:func:`_norm`, or, when its square overflows, the norm of ``x`` brought to unit size.

    :func:`_norm` reads ``inf`` from ``||x|| >= 2**512``.  Only then is the
    norm taken again on ``x`` divided by the power of two of its largest
    ``|entry|`` and scaled back, so every other norm is bit for bit
    :func:`_norm`'s.  A norm that itself overflows is :class:`InvalidInstance`:
    the direction would be normalised to zero, and every foot point and
    hyperplane basis built from it would be wrong.
    """
    norm = _norm(x)
    if norm == math.inf:
        _, e = np.frexp(np.abs(x).max())
        with np.errstate(over="ignore"):
            norm = float(np.ldexp(_norm(np.ldexp(x, -e)), e))
        if norm == math.inf:
            raise InvalidInstance("direction norm overflows the float range")
    return norm


def eigh(M: np.ndarray) -> SpectralData:
    """Eigendecomposition of a symmetric matrix (0x0 allowed)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        return SpectralData(np.empty(0), np.empty((0, 0)), 0.0)
    try:
        vals, vecs = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed on {M.shape[0]}x{M.shape[1]} matrix") from exc
    vals = np.ascontiguousarray(vals)
    vecs = np.ascontiguousarray(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralData(vals, vecs, float(np.abs(vals).max()))


def inertia(s: SpectralData, thr: float) -> Inertia:
    """Count eigenvalue signs; ``|eig| <= thr`` counts as zero."""
    n_neg = np.count_nonzero(s.eigenvalues < -thr)
    n_pos = np.count_nonzero(s.eigenvalues > thr)
    return Inertia(n_neg, len(s.eigenvalues) - n_neg - n_pos, n_pos)


def null_space_basis(c: np.ndarray) -> np.ndarray:
    """An ``n x (n-1)`` orthonormal basis of the hyperplane ``{x : c'x = 0}``.

    Built from the Householder reflection sending ``c`` to a coordinate axis,
    so the result is deterministic.  Raises :class:`ZeroVector` if ``c = 0``
    and :class:`InvalidInstance` if ``||c||`` overflows.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.shape[0] == 0:
        raise DimensionMismatch(f"direction must be a nonempty vector, got shape {c.shape}")
    norm_c = _wide_norm(c)
    if norm_c == 0.0:
        raise ZeroVector("cannot build a hyperplane basis for the zero direction")
    v = c / norm_c
    v[0] += 1.0 if v[0] >= 0.0 else -1.0
    H = np.eye(len(c)) - (2.0 / (v @ v)) * (v[:, None] * v)
    return np.ascontiguousarray(H[:, 1:])


def _column_space(s: SpectralData, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvectors with ``|eig| > cutoff``, as columns, and their eigenvalues."""
    keep = np.abs(s.eigenvalues) > cutoff
    return s.eigenvectors[:, keep], s.eigenvalues[keep]


def _project(s: SpectralData, v: np.ndarray, cutoff: float, thr: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Coordinates of ``v`` on the column-space eigenvectors and their eigenvalues.

    The column space is spanned by the eigenvectors with ``|eig| > cutoff``;
    ``None`` when the residual of ``v`` off it exceeds ``thr``.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (s.eigenvectors.shape[0],):
        raise DimensionMismatch(
            f"vector has shape {v.shape}, expected ({s.eigenvectors.shape[0]},)"
        )
    Q, vals = _column_space(s, cutoff)
    coords = Q.T @ v
    if _norm(v - Q @ coords) > thr:
        return None
    return coords, vals


def range_membership(s: SpectralData, v: np.ndarray, cutoff: float, thr: float) -> bool:
    """Is ``v`` in the column space of the matrix that ``s`` decomposes?"""
    return _project(s, v, cutoff, thr) is not None


def pencil_dependence(A: np.ndarray, B: np.ndarray, thr: float) -> tuple[float, float, bool]:
    """Does ``B = r A`` hold for some ratio ``r``?

    Returns the Frobenius projection ``r = <A, B> / <A, A>``, the residual
    ``||B - r A||_F``, and the verdict ``residual <= thr``.
    ``A`` must be nonzero (:class:`ZeroMatrix` otherwise).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    denom = float((A * A).sum())
    if denom == 0.0:
        raise ZeroMatrix("pencil base matrix is zero")
    ratio = float((A * B).sum()) / denom
    residual = _norm(B - ratio * A)
    return ratio, residual, residual <= thr


def apply_pseudoinverse(s: SpectralData, w: np.ndarray, cutoff: float, thr: float) -> float | None:
    """The quadratic form ``w' pinv(M) w`` for the symmetric ``M`` that ``s`` decomposes.

    Computed spectrally as ``sum (q_i'w)^2 / eig_i`` over the column-space
    eigenpairs of :func:`range_membership`; ``None`` when ``w`` lies outside
    that column space.  (Intended for semidefinite ``M``, where the sign of
    the result matches the sign of ``M``.)  A sum that overflows is
    :class:`InvalidInstance`: no margin can be measured against it.
    """
    parts = _project(s, w, cutoff, thr)
    if parts is None:
        return None
    coords, vals = parts
    # Kept eigenvalues exceed cutoff, so every term is below ||coords||^2 / cutoff < 2**1000.
    if np.vdot(coords, coords) < float(cutoff) * 2.0**1000:
        return float((coords * coords / vals).sum())
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float((coords * coords / vals).sum())
    if not math.isfinite(quad):
        raise InvalidInstance("pseudoinverse term overflows the float range")
    return quad


def _pseudoinverse_solve(s: SpectralData, v: np.ndarray, cutoff: float) -> np.ndarray:
    """``pinv(M) v`` over the eigenpairs with ``|eig| > cutoff``, for the ``M`` that ``s`` decomposes."""
    Q, vals = _column_space(s, cutoff)
    return Q @ ((Q.T @ v) / vals)
