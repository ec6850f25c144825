"""Symmetric-matrix machinery: eigendecompositions, inertia, ranges, pencils.

The eigenvalue-sign, column-space and pencil tests are decided here:

* eigenvalue signs are classified against ``tol * max(1, spectral_norm)``;
* column-space membership keeps eigenspaces with ``|eig| > tol * spectral_norm``
  and accepts a residual up to ``tol * max(1, ||v||)``;
* pencil dependence projects one matrix on the other in the Frobenius inner
  product and accepts a residual up to ``tol * max(||A||_F, ||B||_F)``.

The other tolerance tests live with their callers.  ``separation._PairReduction``
screens zero matrices, linear terms and combined gradient against ``tol_dep``
times a floored pair scale; ``separation._affine_separates`` compares the
strictness margin with ``tol_psd * max(1, |f(x0)|)``, and
``separation._separating_levels`` sizes the margin it builds to clear that;
``separation._separation_witness`` and ``convexity.verify_certificate`` accept
witness points within ``tol_residual * max(1, |level|)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, OutOfRange, ZeroMatrix, ZeroVector

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

    def negated(self) -> "SpectralData":
        """The decomposition of ``-M``: eigenvalues negated, eigenpairs reversed, so still ascending."""
        vals = np.ascontiguousarray(-self.eigenvalues[::-1])
        vecs = np.ascontiguousarray(self.eigenvectors[:, ::-1])
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return SpectralData(vals, vecs, self.spectral_norm)


@dataclass(frozen=True)
class Inertia:
    n_neg: int
    n_zero: int
    n_pos: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_neg, self.n_zero, self.n_pos)


def _matrix_digest(M: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(M, dtype=float).tobytes()).hexdigest()[:16]


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
        raise ConvergenceFailure(
            f"eigensolver failed on {M.shape[0]}x{M.shape[1]} matrix (digest {_matrix_digest(M)})"
        ) from exc
    vals = np.ascontiguousarray(vals)
    vecs = np.ascontiguousarray(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralData(vals, vecs, float(np.max(np.abs(vals))))


def inertia(s: SpectralData, tol_eig: float) -> Inertia:
    """Count eigenvalue signs; |eig| <= tol_eig * max(1, spectral_norm) counts as zero."""
    thr = tol_eig * max(1.0, s.spectral_norm)
    n_neg = int(np.sum(s.eigenvalues < -thr))
    n_pos = int(np.sum(s.eigenvalues > thr))
    return Inertia(n_neg, len(s.eigenvalues) - n_neg - n_pos, n_pos)


def null_space_basis(c: np.ndarray) -> np.ndarray:
    """An ``n x (n-1)`` orthonormal basis of the hyperplane ``{x : c'x = 0}``.

    Built from the Householder reflection sending ``c`` to a coordinate axis,
    so the result is deterministic.  Raises :class:`ZeroVector` if ``c = 0``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.shape[0] == 0:
        raise DimensionMismatch(f"direction must be a nonempty vector, got shape {c.shape}")
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        raise ZeroVector("cannot build a hyperplane basis for the zero direction")
    u = c / norm_c
    v = u.copy()
    v[0] += 1.0 if u[0] >= 0.0 else -1.0
    H = np.eye(len(c)) - (2.0 / (v @ v)) * np.outer(v, v)
    return np.ascontiguousarray(H[:, 1:])


def _range_projection_parts(
    s: SpectralData, tol_rank: float
) -> tuple[np.ndarray, np.ndarray]:
    """Columns spanning the (numerical) column space and their eigenvalues."""
    keep = np.abs(s.eigenvalues) > tol_rank * s.spectral_norm
    return s.eigenvectors[:, keep], s.eigenvalues[keep]


def range_membership(
    M: np.ndarray,
    v: np.ndarray,
    tol_rank: float,
    spectral: SpectralData | None = None,
) -> tuple[bool, np.ndarray | None]:
    """Is ``v`` in the column space of symmetric ``M``?

    Returns ``(True, y)`` with the minimum-norm solution of ``M y = v`` when
    the projection residual ``||v - P v||`` is at most
    ``tol_rank * max(1, ||v||)``, else ``(False, None)``.
    """
    v = np.asarray(v, dtype=float)
    s = spectral if spectral is not None else eigh(M)
    if v.shape != (s.eigenvectors.shape[0],):
        raise DimensionMismatch(
            f"vector has shape {v.shape}, expected ({s.eigenvectors.shape[0]},)"
        )
    Q, vals = _range_projection_parts(s, tol_rank)
    coords = Q.T @ v
    residual = float(np.linalg.norm(v - Q @ coords))
    if residual > tol_rank * max(1.0, float(np.linalg.norm(v))):
        return False, None
    return True, Q @ (coords / vals) if vals.size else np.zeros_like(v)


def pencil_dependence(A: np.ndarray, B: np.ndarray, tol_dep: float) -> float | None:
    """The ratio ``r`` with ``B = r A``, or ``None`` if no such ratio exists.

    ``r`` is the Frobenius projection ``<A, B> / <A, A>``; dependence is
    accepted when ``||B - r A||_F <= tol_dep * max(||A||_F, ||B||_F)``.
    ``A`` must be nonzero (:class:`ZeroMatrix` otherwise).
    """
    ratio, _, dependent = _pencil_fit(A, B, tol_dep)
    return ratio if dependent else None


def _pencil_fit(A: np.ndarray, B: np.ndarray, tol_dep: float) -> tuple[float, float, bool]:
    """Projected ratio ``<A, B> / <A, A>``, residual ``||B - r A||_F``, and the dependence verdict."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    denom = float(np.sum(A * A))
    if denom == 0.0:
        raise ZeroMatrix("pencil base matrix is zero")
    ratio = float(np.sum(A * B)) / denom
    residual = float(np.linalg.norm(B - ratio * A))
    scale = max(float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    return ratio, residual, residual <= tol_dep * scale


def apply_pseudoinverse(
    M: np.ndarray,
    w: np.ndarray,
    tol_rank: float,
    spectral: SpectralData | None = None,
) -> float:
    """The quadratic form ``w' pinv(M) w`` for symmetric ``M``.

    Computed spectrally as ``sum (q_i'w)^2 / eig_i`` over eigenpairs with
    ``|eig_i| > tol_rank * spectral_norm``.  The value is only meaningful when
    ``w`` lies in the column space of ``M``; :class:`OutOfRange` is raised
    otherwise.  (Intended for semidefinite ``M``, where the sign of the result
    matches the sign of ``M``.)
    """
    w = np.asarray(w, dtype=float)
    s = spectral if spectral is not None else eigh(M)
    Q, vals = _range_projection_parts(s, tol_rank)
    coords = Q.T @ w
    residual = float(np.linalg.norm(w - Q @ coords))
    if residual > tol_rank * max(1.0, float(np.linalg.norm(w))):
        raise OutOfRange(
            f"vector lies outside the column space (residual {residual:.3e})"
        )
    if vals.size == 0:
        return 0.0
    return float(np.sum(coords * coords / vals))
