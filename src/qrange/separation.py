"""Decide whether an affine level set separates a quadratic level set.

"Separates" is meant in the sign-splitting sense: ``{h = 0}`` separates
``{f = 0}`` when the zero set of ``f`` is nonempty, disjoint from ``{h = 0}``,
and contains points with both signs of ``h``.

The decision procedure works on one of the two orientations ``s in {+1, -1}``
of ``f`` (write ``F = s*f``, ``Abar = s*A``, ``abar = s*a``) and checks, for a
hyperplane with unit-scaled direction ``c`` and offset point
``x0 = -(c0/c'c) c``:

  (i)   ``Abar`` has exactly one negative eigenvalue and ``a`` lies in the
        column space of ``A``;
  (ii)  ``c`` is nonzero and lies in the column space of ``A``;
  (iii) with ``V`` an orthonormal basis of ``{c'x = 0}`` and
        ``W = V' Abar V``: ``W`` is positive semidefinite,
        ``w = V'(Abar x0 + abar)`` lies in the column space of ``W``, and the
        strictness margin ``F(x0) - w' pinv(W) w`` is positive.

Separation holds iff some orientation passes all three.  The margin test uses
a relative threshold, so boundary cases (margin within tolerance of zero) are
reported as non-separating with ``near_degenerate=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInstance,
    InvalidReport,
    OutOfRange,
    RootFailure,
    ZeroVector,
)
from .quadratic import QuadraticFunction, ToleranceSet, evaluate
from .spectral import (
    Inertia,
    SpectralData,
    _norm,
    _wide_norm,
    apply_pseudoinverse,
    eigh,
    inertia,
    null_space_basis,
    pencil_dependence,
    range_membership,
)

__all__ = [
    "AffineForm",
    "SeparationReport",
    "SeparationWitness",
    "LevelSearchResult",
    "LevelPairReport",
    "combination_affine_form",
    "affine_separates_quadratic",
    "exists_separating_affine_levels",
    "level_pair_separation",
    "construct_separation_witness",
]

# Condition labels used in SeparationReport.failed_conditions.
COND_ONE_NEGATIVE = "one_negative_eigenvalue"
COND_LINEAR_IN_RANGE = "linear_term_in_range"
COND_GRADIENT_NONZERO = "gradient_nonzero"
COND_GRADIENT_IN_RANGE = "gradient_in_range"
COND_RESTRICTED_SEMIDEFINITE = "restricted_form_semidefinite"
COND_PROJECTED_IN_RANGE = "projected_gradient_in_range"
COND_POSITIVE_MARGIN = "positive_margin"


@dataclass(frozen=True, eq=False)
class AffineForm:
    """The affine function ``h(x) = c'x + c0``."""

    c: np.ndarray
    c0: float

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.shape[0] == 0:
            raise DimensionMismatch(f"direction must be a nonempty vector, got shape {c.shape}")
        if not (np.isfinite(c).all() and np.isfinite(self.c0)):
            raise InvalidInstance("affine form data must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c0", float(self.c0))

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.n},)")
        return float(self.c @ x + self.c0)


@dataclass(frozen=True, eq=False)
class SeparationReport:
    """Outcome of :func:`affine_separates_quadratic`.

    ``failed_conditions`` maps each orientation (+1 / -1) to the labels of the
    conditions that orientation failed (empty tuple = orientation passed).
    The geometric fields are populated for the successful orientation only.
    """

    separates: bool
    orientation: int | None
    foot_point: np.ndarray | None
    margin: float | None
    failed_conditions: dict[int, tuple[str, ...]]
    near_degenerate: bool


@dataclass(frozen=True, eq=False)
class SeparationWitness:
    """Two points of ``{f = alpha}`` on opposite strict sides of ``{h = 0}``.

    ``f_at_u`` and ``f_at_v`` are ``f`` evaluated at the points, as the level
    residual check read them.
    """

    u: np.ndarray
    v: np.ndarray
    alpha: float
    h_at_u: float
    h_at_v: float
    f_at_u: float
    f_at_v: float


@dataclass(frozen=True)
class LevelSearchResult:
    """Outcome of :func:`exists_separating_affine_levels`."""

    exists: bool
    orientation: int | None
    gamma: float | None
    alpha: float | None


@dataclass(frozen=True, eq=False)
class LevelPairReport:
    """Both directions of level-set separation between two quadratics."""

    g_separates_f: bool
    f_separates_g: bool
    ratio_g_on_f: float | None
    ratio_f_on_g: float | None


# The square root of the smallest normal float: a norm below it has a
# subnormal square, which has lost precision or flushed to zero.
_TINY_NORM = 2.0**-511


def _norms(f: QuadraticFunction) -> tuple[float, float]:
    """``(||f.A||_F, ||f.a||)``; :class:`InvalidInstance` when they overflow or underflow.

    A function with nonzero coefficients whose squared norms both lie below
    the smallest normal float has no magnitude to size a threshold with, so
    it is rejected like an overflowing one; an all-zero function is kept.
    """
    norms = _norm(f.A), _norm(f.a)
    if not math.isfinite(norms[0] + norms[1]):
        raise InvalidInstance("coefficient norms overflow the float range")
    if max(norms) < _TINY_NORM and (f.A.any() or f.a.any()):
        raise InvalidInstance("coefficient norms underflow the float range")
    return norms


def _finite_norm(c: np.ndarray) -> float:
    """``||c||``; :class:`InvalidInstance` when it overflows.

    An overflowing direction would be normalised to zero, and every foot
    point and hyperplane basis built from it would be wrong.
    """
    norm_c = _wide_norm(c)
    if norm_c == math.inf:
        raise InvalidInstance("combined gradient norm overflows the float range")
    return norm_c


class _lazy:
    """An attribute computed on first read and then stored on the instance.

    Unlike ``functools.cached_property`` on Python 3.11 it takes no lock;
    a reduction is never shared between threads while it fills in.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


class HyperplaneReduction:
    """The spectral facts of a quadratic ``f`` relative to a direction ``c``.

    Holds ``eigh(A)`` and its inertia, the memberships ``a in range(A)`` and
    ``c in range(A)``, an orthonormal basis ``V`` of ``{c'x = 0}``, the
    restricted form ``W = V' A V``, ``eigh(W)`` and its inertia.  Each fact is
    computed on first use and then shared by every consumer, so a caller that
    stops early pays only for what it read.  No fact depends on ``f``'s
    constant, and ``c`` and ``2c`` give bit-identical ``V`` and ``W``, so one
    reduction along the combined gradient ``c`` also serves the level form
    with direction ``2c``.

    Tolerances are relative: eigenvalues of ``A`` and ``W`` to ``A``'s
    spectral norm, ``f``'s other terms to ``scale = ||A||_F + ||a||`` (the
    constant only shifts the range), and ``c`` to ``c_scale``.
    """

    def __init__(self, f: QuadraticFunction, c: np.ndarray, tol: ToleranceSet, scale: float, c_scale: float) -> None:
        self.f = f
        self.c = np.asarray(c, dtype=float)
        self.tol = tol
        self.scale = scale
        self.c_scale = c_scale

    @classmethod
    def alone(cls, f: QuadraticFunction, c: np.ndarray, tol: ToleranceSet) -> "HyperplaneReduction":
        """The reduction of ``f`` along a ``c`` given on its own, so ``c_scale = ||c||``."""
        c = np.asarray(c, dtype=float)
        return cls(f, c, tol, sum(_norms(f)), _finite_norm(c))

    @_lazy
    def sd(self) -> SpectralData:
        return eigh(self.f.A)

    @_lazy
    def ine(self) -> Inertia:
        return inertia(self.sd, self.tol.tol_eig * self.sd.spectral_norm)

    def in_range(self, v: np.ndarray, scale: float) -> bool:
        """Is ``v``, formed from terms of magnitude ``scale``, in the column space of ``A``?"""
        tol_rank = self.tol.tol_rank
        return range_membership(self.sd, v, tol_rank * self.sd.spectral_norm, tol_rank * scale)

    @_lazy
    def a_in(self) -> bool:
        return self.in_range(self.f.a, self.scale)

    @_lazy
    def c_in(self) -> bool:
        return not self.c_zero and self.in_range(self.c, self.c_scale)

    @_lazy
    def c_zero(self) -> bool:
        # c can vanish by cancellation, so measure it against the magnitudes
        # that entered the subtraction.
        return _finite_norm(self.c) <= self.tol.tol_dep * self.c_scale

    @_lazy
    def V(self) -> np.ndarray:
        return null_space_basis(self.c)

    @_lazy
    def W(self) -> np.ndarray:
        W = self.V.T @ self.f.A @ self.V
        return (W + W.T) / 2.0

    @_lazy
    def sd_w(self) -> SpectralData:
        return eigh(self.W)

    @_lazy
    def ine_w(self) -> Inertia:
        return inertia(self.sd_w, self.tol.tol_psd * self.sd.spectral_norm)

    def margin_terms(
        self, sd_w: SpectralData, w: np.ndarray, x0: np.ndarray, value: float
    ) -> tuple[float | None, float]:
        """The term ``w' pinv(W) w`` at a foot point ``x0``, and the threshold its margin must exceed.

        ``sd_w`` decomposes ``W`` or ``-W``; the term is ``None`` when the
        projected gradient ``w`` lies off their column space.  Each test is a
        tolerance times the size of what it compares: with ``r = 1 + ||x0||``,
        ``scale * r`` bounds ``||A x0 + a||``, and ``value >= |F(x0)|``, the
        term and ``scale * r**2`` bound the margin ``F(x0) - term``.
        """
        r = 1.0 + _norm(x0)
        tol_rank = self.tol.tol_rank
        quad = apply_pseudoinverse(sd_w, w, tol_rank * self.sd.spectral_norm, tol_rank * self.scale * r)
        return quad, self.tol.tol_psd * (value + abs(quad or 0.0) + self.scale * r * r)

    def foot(self, f: QuadraticFunction, c: np.ndarray, c0: float) -> tuple[np.ndarray, np.ndarray, float]:
        """The foot point ``x0`` of ``{c'x + c0 = 0}``, ``w = V'(A x0 + a)`` and ``f(x0)``.

        ``f`` is the reduced function up to a constant and ``c`` the reduced
        direction up to a positive factor.  Negation is exact, so ``-w`` is
        the projected gradient of ``-f`` bit for bit.
        """
        norm_c = _finite_norm(c)
        x0 = -(c0 / norm_c) * (c / norm_c)
        return x0, self.V.T @ (f.A @ x0 + f.a), evaluate(f, x0)

    def failed_conditions(self, sign: int) -> tuple[str, ...]:
        """The orientation conditions that ``sign * f`` fails; empty means they all hold.

        For ``Abar = sign * A``: exactly one negative eigenvalue, ``a`` and a
        nonzero ``c`` in the column space of ``A``, and ``Abar`` positive
        semidefinite on ``{c'x = 0}``.
        """
        labels = []
        if self.ine.negatives(sign) != 1:
            labels.append(COND_ONE_NEGATIVE)
        if not self.a_in:
            labels.append(COND_LINEAR_IN_RANGE)
        if self.c_zero:
            labels.append(COND_GRADIENT_NONZERO)
            return tuple(labels)
        if not self.c_in:
            labels.append(COND_GRADIENT_IN_RANGE)
        if self.ine_w.negatives(sign) != 0:
            labels.append(COND_RESTRICTED_SEMIDEFINITE)
        return tuple(labels)


class _PairReduction:
    """The pair ``(f, g)`` reduced once, shared by every consumer.

    Construction runs the degenerate screen and the role swap; the pencil
    fit and the :class:`HyperplaneReduction` of ``f`` along the combined
    gradient ``c = -ratio*f.a + g.a`` are computed on first use.  After the
    swap, ``f`` and ``g`` are the analysed pair, and ``f_scale`` and
    ``g_scale`` their magnitudes ``||A||_F + ||a||``.
    """

    def __init__(self, f: QuadraticFunction, g: QuadraticFunction, tol: ToleranceSet) -> None:
        self.tol = tol
        (fm, fl), (gm, gl) = _norms(f), _norms(g)
        self.norms = {"f_matrix": fm, "g_matrix": gm, "f_linear": fl, "g_linear": gl}
        # Each part is "zero" relative to its own function's magnitude.
        self.fa_zero = fm <= tol.tol_dep * (fm + fl)
        self.ga_zero = gm <= tol.tol_dep * (gm + gl)
        self.a_zero = fl <= tol.tol_dep * (fm + fl)
        self.b_zero = gl <= tol.tol_dep * (gm + gl)
        self.swapped = bool(self.fa_zero and not self.ga_zero)
        self.f, self.g = (g, f) if self.swapped else (f, g)
        self.f_scale, self.g_scale = (gm + gl, fm + fl) if self.swapped else (fm + fl, gm + gl)

    @_lazy
    def pencil(self) -> tuple[float, float, bool]:
        """Projected ratio, residual and dependence verdict of ``g.A`` on ``f.A``."""
        return pencil_dependence(self.f.A, self.g.A, self.tol.tol_dep * self.g_scale)

    @property
    def ratio(self) -> float | None:
        ratio, _, dependent = self.pencil
        return ratio if dependent else None

    @_lazy
    def hyperplane(self) -> HyperplaneReduction:
        # The terms of c are bounded by those of g - ratio * f.
        c = -self.ratio * self.f.a + self.g.a
        c_scale = abs(self.ratio) * self.f_scale + self.g_scale
        return HyperplaneReduction(self.f, c, self.tol, self.f_scale, c_scale)


def combination_affine_form(
    f: QuadraticFunction,
    g: QuadraticFunction,
    ratio: float,
    alpha: float = 0.0,
    beta: float = 0.0,
) -> AffineForm:
    """The affine function ``-ratio*(f - alpha) + (g - beta)``.

    Only valid when the quadratic parts cancel (``g.A = ratio * f.A``); the
    caller is responsible for having established that.  Because the stored
    linear term is half the gradient, the affine form's direction is
    ``2*(-ratio*f.a + g.a)``.
    """
    grad = 2.0 * (-ratio * f.a + g.a)
    const = -ratio * (f.a0 - alpha) + (g.a0 - beta)
    return AffineForm(grad, float(const))


def affine_separates_quadratic(
    f: QuadraticFunction, h: AffineForm, tol: ToleranceSet | None = None
) -> SeparationReport:
    """Does the hyperplane ``{h = 0}`` separate the level set ``{f = 0}``?"""
    tol = tol or ToleranceSet()
    if h.n != f.n:
        raise DimensionMismatch(f"affine form on dimension {h.n}, quadratic on {f.n}")
    return _affine_separates(f, h, HyperplaneReduction.alone(f, h.c, tol))


def _affine_separates(
    f: QuadraticFunction, h: AffineForm, red: HyperplaneReduction
) -> SeparationReport:
    """:func:`affine_separates_quadratic` reading the facts of ``red``.

    ``red`` reduces ``f`` up to a constant shift, along ``h.c`` or ``h.c / 2``.
    """
    if red.c_zero:
        failed = {sign: red.failed_conditions(sign) for sign in (+1, -1)}
        return SeparationReport(False, None, None, None, failed, False)

    x0, w_plus, f_x0 = red.foot(f, h.c, h.c0)
    # The two orientations share all spectral work: negating f negates the
    # restricted form and its pseudoinverse term, so the margins are exact
    # negatives of one another (hence at most one orientation can pass).
    quad_term, threshold = red.margin_terms(red.sd_w, w_plus, x0, abs(f_x0))

    failed: dict[int, tuple[str, ...]] = {}
    near_degenerate = False
    winner: tuple[int, float] | None = None
    for sign in (+1, -1):
        labels = list(red.failed_conditions(sign))
        if quad_term is None:
            labels.append(COND_PROJECTED_IN_RANGE)
            margin = None
        else:
            margin = sign * (f_x0 - quad_term)
            if margin <= threshold:
                labels.append(COND_POSITIVE_MARGIN)
                if not labels[:-1] and abs(margin) <= threshold:
                    near_degenerate = True
        failed[sign] = tuple(labels)
        if not labels and winner is None:
            winner = (sign, margin)

    if winner is None:
        return SeparationReport(False, None, None, None, failed, near_degenerate)
    sign, margin = winner
    return SeparationReport(
        separates=True,
        orientation=sign,
        foot_point=x0,
        margin=margin,
        failed_conditions=failed,
        near_degenerate=False,
    )


def exists_separating_affine_levels(
    f: QuadraticFunction,
    c: np.ndarray,
    tol: ToleranceSet | None = None,
    c0: float = 0.0,
) -> LevelSearchResult:
    """Do levels ``gamma, alpha`` exist with ``{c'x + c0 = gamma}`` separating ``{f = alpha}``?

    Existence depends only on the direction of ``c``: it requires, for some
    orientation, exactly one negative eigenvalue, both ``f``'s linear term and
    ``c`` in the column space of ``A``, and the restricted form positive
    semidefinite.  When these hold, concrete levels are constructed:

    * solve ``V' A u0 = V' a`` (least squares; the sign cancels) and set
      ``gamma = c0 - c'u0``, which makes the projected gradient at the foot
      point of ``{c'x + c0 = gamma}`` land inside the restricted form's column
      space by construction;
    * push ``alpha`` to ``f(foot) - s*(pinv_term + m)``, which makes the
      strictness margin ``m`` for orientation ``s`` (small levels for the
      ``+1`` orientation, large ones for ``-1``).  ``m`` is 1 unless twice
      the separation check's threshold, over ``1 - tol_psd``, is larger.
    """
    tol = tol or ToleranceSet()
    c = np.asarray(c, dtype=float)
    if c.shape != (f.n,):
        raise DimensionMismatch(f"direction has shape {c.shape}, expected ({f.n},)")
    if _norm(c) == 0.0:
        raise ZeroVector("level search requires a nonzero direction")
    red = HyperplaneReduction.alone(f, c, tol)
    for sign in (+1, -1):
        if not red.failed_conditions(sign):
            return LevelSearchResult(True, sign, *_separating_levels(red, c, c0, sign))
    return LevelSearchResult(False, None, None, None)


def _separating_levels(
    red: HyperplaneReduction, c: np.ndarray, c0: float, sign: int
) -> tuple[float, float]:
    """Levels ``(gamma, alpha)`` for an orientation ``sign`` that passes ``red``'s conditions.

    ``c`` is the direction used for the levels; ``red`` reduces ``f`` along
    ``c`` or ``c / 2``.
    """
    f, V = red.f, red.V
    u0, *_ = np.linalg.lstsq(V.T @ f.A, V.T @ f.a, rcond=None)
    gamma = float(c0 - c @ u0)
    foot, w, f_foot = red.foot(f, c, c0 - gamma)
    sd_w = red.sd_w if sign > 0 else red.sd_w.negated()
    quad_term, bound = red.margin_terms(sd_w, sign * w, foot, abs(f_foot))
    if quad_term is None:
        raise OutOfRange("projected gradient lies outside the restricted form's column space")
    # _affine_separates needs margin > this bound at value |quad_term + margin|.
    # Twice the smallest such margin clears it, and the |f(foot)| in this
    # bound also covers the rounding in alpha.
    margin = max(1.0, 2.0 * bound / (1.0 - red.tol.tol_psd))
    alpha = f_foot - sign * (quad_term + margin)
    return gamma, alpha


def _one_direction(
    f: QuadraticFunction,
    alpha: float,
    g: QuadraticFunction,
    beta: float,
    tol: ToleranceSet,
) -> tuple[bool, float | None]:
    """Does ``{g = beta}`` separate ``{f = alpha}``?  Also returns the pencil ratio."""
    red = _PairReduction(f, g, tol)
    # An affine f has connected level sets, so nothing separates them.  Only
    # then does the reduction swap roles, so past this test red.f is f.
    if red.fa_zero or red.ratio is None:
        return False, None
    h = combination_affine_form(f, g, red.ratio, alpha, beta)
    return _affine_separates(f.add_constant(-alpha), h, red.hyperplane).separates, red.ratio


def level_pair_separation(
    f: QuadraticFunction,
    g: QuadraticFunction,
    alpha: float,
    beta: float,
    tol: ToleranceSet | None = None,
) -> LevelPairReport:
    """Decide both directions of separation between ``{f = alpha}`` and ``{g = beta}``.

    Each direction reduces to the affine case: ``{g = beta}`` can separate
    ``{f = alpha}`` only if the quadratic parts are linearly dependent, in
    which case the combination ``-ratio*(f - alpha) + (g - beta)`` is affine
    and coincides with ``g - beta`` on ``{f = alpha}``.  If both functions are
    affine, or the quadratic parts are independent, both directions are false.
    """
    tol = tol or ToleranceSet()
    if f.n != g.n:
        raise DimensionMismatch(f"dimension mismatch: {f.n} vs {g.n}")
    g_on_f, ratio_gf = _one_direction(f, float(alpha), g, float(beta), tol)
    f_on_g, ratio_fg = _one_direction(g, float(beta), f, float(alpha), tol)
    return LevelPairReport(g_on_f, f_on_g, ratio_gf, ratio_fg)


def construct_separation_witness(
    f: QuadraticFunction,
    h: AffineForm,
    report: SeparationReport,
    tol: ToleranceSet | None = None,
    alpha: float = 0.0,
) -> SeparationWitness:
    """Construct two points of ``{f = alpha}`` strictly on opposite sides of ``{h = 0}``.

    ``report`` must be a successful :func:`affine_separates_quadratic` result
    for ``(f - alpha, h)``.  The points are found on the line through the
    report's foot point along the oriented matrix's negative-curvature
    eigenvector: there the shifted function is positive at the foot point and
    concave along the line, so it has exactly two real roots, one on each side
    of the hyperplane.
    """
    tol = tol or ToleranceSet()
    return _separation_witness(HyperplaneReduction.alone(f, h.c, tol), h, report, alpha)


def _separation_witness(
    red: HyperplaneReduction, h: AffineForm, report: SeparationReport, alpha: float
) -> SeparationWitness:
    """:func:`construct_separation_witness` reading ``eigh(A)`` from ``red``."""
    f, tol = red.f, red.tol
    if not report.separates or report.orientation is None or report.foot_point is None:
        raise InvalidReport("witness construction requires a successful separation report")
    sign = report.orientation
    x0 = report.foot_point
    k = 0 if sign > 0 else -1  # the least eigenpair of sign * A
    lead = sign * float(red.sd.eigenvalues[k])
    if lead >= 0.0:
        raise InvalidReport("oriented matrix has no negative-curvature direction")
    direction = red.sd.eigenvectors[:, k]

    const = sign * (evaluate(f, x0) - alpha)
    # Negate the direction, not the dot: a zero slope must stay +0.0 for copysign.
    lin = float(2.0 * (sign * direction) @ (f.A @ x0 + f.a))
    disc = lin * lin - 4.0 * lead * const
    if not math.isfinite(disc):
        raise InvalidInstance("witness line coefficients overflow the float range")
    if disc <= 0.0:
        raise RootFailure(f"no two real roots along the witness line (disc={disc:.3e})")
    q = -(lin + float(np.copysign(np.sqrt(disc), lin))) / 2.0
    t1, t2 = q / lead, const / q
    t_lo, t_hi = (t1, t2) if t1 <= t2 else (t2, t1)
    u = x0 + t_lo * direction
    v = x0 + t_hi * direction

    h_u, h_v = h(u), h(v)
    if not (h_u * h_v < 0.0):
        raise RootFailure("witness points do not fall on opposite sides of the hyperplane")
    f_u, f_v = evaluate(f, u), evaluate(f, v)
    level_scale = max(1.0, abs(alpha))
    for value in (f_u, f_v):
        if abs(value - alpha) > tol.tol_residual * level_scale:
            raise RootFailure("witness point misses the target level beyond tolerance")
    return SeparationWitness(u, v, float(alpha), h_u, h_v, f_u, f_v)
