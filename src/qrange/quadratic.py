"""Quadratic functions, tolerance settings, and problem instances.

A quadratic function is stored as ``f(x) = x' A x + 2 a' x + a0`` with ``A``
symmetric.  Note the factor two: ``a`` is *half* the linear coefficient
vector.  Every file format and public API in this package uses that "half"
convention; loaders reject files that declare anything else.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch, InvalidInstance

__all__ = [
    "ToleranceSet",
    "QuadraticFunction",
    "ProblemInstance",
    "make_quadratic",
    "evaluate",
    "evaluate_many",
    "compose_affine",
    "problem_from_dict",
    "problem_to_dict",
    "load_problem",
    "save_problem",
]

_TOL_FIELDS = ("tol_sym", "tol_dep", "tol_eig", "tol_rank", "tol_psd", "tol_residual")


@dataclass(frozen=True)
class ToleranceSet:
    """Relative tolerances used by all numerical decisions.

    tol_sym:      symmetry acceptance when building a quadratic
    tol_dep:      linear-dependence residual for matrix pencils
    tol_eig:      eigenvalue sign classification (inertia)
    tol_rank:     rank / column-space membership cutoff
    tol_psd:      semidefiniteness classification and strictness margins
    tol_residual: acceptance of constructed witness points
    """

    tol_sym: float = 1e-10
    tol_dep: float = 1e-9
    tol_eig: float = 1e-9
    tol_rank: float = 1e-9
    tol_psd: float = 1e-9
    tol_residual: float = 1e-7

    def __post_init__(self) -> None:
        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise InvalidInstance(f"{name} must lie strictly inside (0, 1), got {value!r}")

    def replace(self, **overrides: float) -> "ToleranceSet":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in _TOL_FIELDS}


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class QuadraticFunction:
    """Value type for ``f(x) = x' A x + 2 a' x + a0`` with symmetric ``A``.

    Instances are immutable; build them through :func:`make_quadratic`, which
    validates shapes and symmetrizes nearly-symmetric input.
    """

    A: np.ndarray
    a: np.ndarray
    a0: float

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def __call__(self, x: np.ndarray) -> float:
        return evaluate(self, x)

    def add_constant(self, delta: float) -> "QuadraticFunction":
        """The function ``f + delta`` (used to move a level to zero)."""
        return QuadraticFunction(self.A, self.a, self.a0 + float(delta))

    def scaled(self, s: float) -> "QuadraticFunction":
        """The function ``s * f``."""
        s = float(s)
        return QuadraticFunction(_read_only(s * self.A), _read_only(s * self.a), s * self.a0)


def make_quadratic(M: np.ndarray, a: np.ndarray, a0: float, tol_sym: float = 1e-10) -> QuadraticFunction:
    """Validate and build a :class:`QuadraticFunction`.

    ``M`` may deviate from exact symmetry by at most ``tol_sym * ||M||_F``
    in Frobenius norm, so the test does not depend on the scale of ``M``;
    within that budget it is replaced by ``(M + M') / 2``, beyond it
    :class:`AsymmetricInput` is raised.
    """
    M = np.asarray(M, dtype=float)
    a = np.asarray(a, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {M.shape}")
    n = M.shape[0]
    if n == 0:
        raise DimensionMismatch("dimension must be at least 1")
    if a.shape != (n,):
        raise DimensionMismatch(f"linear term has shape {a.shape}, expected ({n},)")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(a)) and np.isfinite(a0)):
        raise InvalidInstance("quadratic data must be finite")
    # Norms of M / max|M_ij| cannot overflow; the test is the one above,
    # divided through by that scale.
    scale = float(np.abs(M).max())
    if scale > 0.0:
        unit = M / scale
        asym = float(np.linalg.norm(unit - unit.T))
        if asym > tol_sym * float(np.linalg.norm(unit)):
            raise AsymmetricInput(
                f"matrix asymmetry {asym * scale:.3e} exceeds tolerance; refusing to symmetrize"
            )
    sym = (M + M.T) / 2.0
    return QuadraticFunction(_read_only(sym), _read_only(a), float(a0))


def evaluate(q: QuadraticFunction, x: np.ndarray) -> float:
    """Evaluate ``q`` at a single point ``x``.

    The value is bit for bit ``float(x @ A @ x + 2.0 * (a @ x) + a0)`` on
    the contiguous copy of ``x``, for any layout, in fewer calls:
    ``ndarray.dot`` runs the BLAS gemv and dot kernels of ``@`` with less
    wrapping, and the tail is summed in Python floats, the same IEEE
    operations as on NumPy scalars.  ``A`` and ``a`` are the contiguous
    copies :func:`make_quadratic` stores.
    """
    x = np.asarray(x, dtype=float, order="C")
    if x.shape != (q.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({q.n},)")
    return float(x.dot(q.A).dot(x)) + 2.0 * float(q.a.dot(x)) + q.a0


def evaluate_many(q: QuadraticFunction, X: np.ndarray) -> np.ndarray:
    """Evaluate ``q`` row-wise on an ``(m, n)`` array of points.

    The quadratic term is summed on contiguous copies of the columns, term
    ``(x_j * A[j, k]) * x_k`` added to a zero start for ``j`` in order and,
    within each ``j``, ``k`` in order.  That is the order and association of
    ``np.einsum("ij,jk,ik->i", X, A, X)``, so the values are bit for bit the
    einsum's, for any memory layout of ``X``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != q.n:
        raise DimensionMismatch(f"points have shape {X.shape}, expected (m, {q.n})")
    cols = np.ascontiguousarray(X.T)
    quad = np.zeros(X.shape[0])
    for col_j, row in zip(cols, q.A.tolist()):
        for col_k, a_jk in zip(cols, row):
            quad += col_j * a_jk * col_k
    return quad + 2.0 * (X @ q.a) + q.a0


def compose_affine(q: QuadraticFunction, T: np.ndarray, t: np.ndarray) -> QuadraticFunction:
    """The quadratic ``x -> q(T x + t)`` for an ``n x m`` matrix ``T``.

    Used mainly to express invariance of verdicts under invertible changes of
    variables.
    """
    T = np.asarray(T, dtype=float)
    t = np.asarray(t, dtype=float)
    if T.ndim != 2 or T.shape[0] != q.n or t.shape != (q.n,):
        raise DimensionMismatch(f"substitution shapes {T.shape}, {t.shape} do not match n={q.n}")
    A2 = T.T @ q.A @ T
    A2 = (A2 + A2.T) / 2.0  # restore exact symmetry lost to round-off
    a2 = T.T @ (q.A @ t + q.a)
    a02 = float(t @ q.A @ t + 2.0 * (q.a @ t) + q.a0)
    return QuadraticFunction(_read_only(A2), _read_only(a2), a02)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A pair of quadratics on the same space, plus the tolerances to use."""

    f: QuadraticFunction
    g: QuadraticFunction
    tolerances: ToleranceSet = ToleranceSet()

    def __post_init__(self) -> None:
        if self.f.n != self.g.n:
            raise DimensionMismatch(
                f"f is on dimension {self.f.n} but g is on dimension {self.g.n}"
            )

    @property
    def n(self) -> int:
        return self.f.n

    def swapped(self) -> "ProblemInstance":
        return ProblemInstance(self.g, self.f, self.tolerances)


# ---------------------------------------------------------------------------
# JSON problem files
# ---------------------------------------------------------------------------
#
# {
#   "n": 2,
#   "linear_convention": "half",          # optional; "half" is the only value
#   "f": {"A": [[...], ...], "a": [...], "a0": 0.0},
#   "g": {...},
#   "tolerances": {"tol_eig": 1e-9, ...}  # optional, partial overrides
# }
#
# "half" means the stored vector is half the linear coefficient:
# f(x) = x'Ax + 2a'x + a0.


def _quadratic_from_dict(entry: Mapping[str, Any], n: int, tol_sym: float, label: str) -> QuadraticFunction:
    try:
        A = np.asarray(entry["A"], dtype=float)
        a = np.asarray(entry["a"], dtype=float)
        a0 = float(entry["a0"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstance(f"bad quadratic entry for {label!r}: {exc}") from exc
    if A.shape != (n, n) or a.shape != (n,):
        raise InvalidInstance(
            f"{label!r} has shapes A{A.shape}, a{a.shape}; expected ({n}, {n}) and ({n},)"
        )
    return make_quadratic(A, a, a0, tol_sym)


def problem_from_dict(doc: Mapping[str, Any]) -> ProblemInstance:
    """Build a :class:`ProblemInstance` from a parsed problem-file document."""
    if not isinstance(doc, Mapping):
        raise InvalidInstance("problem document must be a JSON object")
    convention = doc.get("linear_convention", "half")
    if convention != "half":
        raise InvalidInstance(
            f"unsupported linear_convention {convention!r}; "
            "this tool stores half the linear coefficient (f = x'Ax + 2a'x + a0)"
        )
    if "n" not in doc:
        raise InvalidInstance("missing dimension field 'n'")
    n = doc["n"]
    # int() would read 2.5 as 2 and "2" as 2: only an integer is a dimension.
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidInstance(f"dimension field 'n' must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise InvalidInstance(f"dimension must be positive, got {n}")
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, Mapping):
        raise InvalidInstance("'tolerances' must be an object")
    unknown = set(tol_doc) - set(_TOL_FIELDS)
    if unknown:
        raise InvalidInstance(f"unknown tolerance fields: {sorted(unknown)}")
    try:
        tol = ToleranceSet(**{k: float(v) for k, v in tol_doc.items()})
    except (TypeError, ValueError) as exc:
        raise InvalidInstance(f"bad tolerances: {exc}") from exc
    if "f" not in doc or "g" not in doc:
        raise InvalidInstance("problem document must contain 'f' and 'g'")
    f = _quadratic_from_dict(doc["f"], n, tol.tol_sym, "f")
    g = _quadratic_from_dict(doc["g"], n, tol.tol_sym, "g")
    return ProblemInstance(f, g, tol)


def problem_to_dict(p: ProblemInstance, include_tolerances: bool = False) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "n": p.n,
        "linear_convention": "half",
        "f": {"A": p.f.A.tolist(), "a": p.f.a.tolist(), "a0": p.f.a0},
        "g": {"A": p.g.A.tolist(), "a": p.g.a.tolist(), "a0": p.g.a0},
    }
    if include_tolerances:
        doc["tolerances"] = p.tolerances.to_dict()
    return doc


def load_problem(path: str) -> ProblemInstance:
    """Load a problem instance from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInstance(f"cannot read problem file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"problem file {path!r} is not valid JSON: {exc}") from exc
    return problem_from_dict(doc)


def save_problem(p: ProblemInstance, path: str, include_tolerances: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(p, include_tolerances), fh, indent=2)
        fh.write("\n")
