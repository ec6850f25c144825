"""Decide whether an affine level set separates a quadratic level set.

"Separates" is meant in the sign-splitting sense: ``{h = 0}`` separates
``{f = 0}`` when the zero set of ``f`` is nonempty, disjoint from ``{h = 0}``,
and contains points with both signs of ``h``.

The decision procedure works on one of the two orientations ``s in {+1, -1}``
of ``f`` (write ``F = s*f``, ``Abar = s*A``, ``abar = s*a``) and checks, for a
hyperplane ``{c'x + c0 = 0}`` and its foot point ``x0``, the point of the
hyperplane nearest ``f``'s stationary point ``x_c = -pinv(A) a``:

  (i)   ``Abar`` has exactly one negative eigenvalue and ``a`` lies in the
        column space of ``A``;
  (ii)  ``c`` is nonzero and lies in the column space of ``A``;
  (iii) with ``V`` an orthonormal basis of ``{c'x = 0}`` and
        ``W = V' Abar V``: ``W`` is positive semidefinite,
        ``w = V'(Abar x0 + abar)`` lies in the column space of ``W``, and the
        strictness margin ``F(x0) - w' pinv(W) w`` is positive.  It is the
        minimum of ``F`` over the hyperplane, so it does not depend on the
        point it is measured from; at ``x0`` a hyperplane through ``x_c``
        has ``w`` and the pseudoinverse term at rounding level.

Separation holds iff some orientation passes all three.  The margin test uses
a relative threshold, so boundary cases (margin within tolerance of zero) are
reported as non-separating with ``near_degenerate=True``.  The threshold is
sized by the terms ``f`` sums at ``x0``; where they or ``x_c`` overflow, the
query is :class:`InvalidInstance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInstance, InvalidReport, RootFailure, ZeroVector
from .quadratic import QuadraticFunction, ToleranceSet, evaluate
from .spectral import (
    Inertia,
    SpectralData,
    _column_space,
    _norm,
    _project,
    _reflector_basis,
    _wide_norm,
    apply_pseudoinverse,
    eigh,
    inertia,
    pencil_dependence,
)

__all__ = [
    "AffineForm",
    "SeparationReport",
    "SeparationWitness",
    "LevelSearchResult",
    "LevelPairReport",
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
    The geometric fields are populated for the successful orientation only;
    ``foot_point`` is the point of the hyperplane nearest ``f``'s stationary
    point ``x_c``, where ``margin`` was measured.
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


# How far, in units of the terms it sums, the other function's values at
# the witness points must lie from its level: a few units of rounding.
_STRADDLE_ULPS = 16.0 * 2.0**-52
# The rounding a witness value may carry, in units of the terms f sums there.
_LEVEL_ULPS = 64.0 * 2.0**-52

_FAR_FOOT = "terms at the foot point overflow the float range"

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
    """The spectral facts of a quadratic ``f`` relative to the hyperplanes ``{c'x + c0 = 0}``.

    Holds ``eigh(A)`` and its inertia, the stationary point
    ``x_c = -pinv(A) a`` and ``f(x_c)``, ``||c||``, the memberships
    ``a in range(A)`` and ``c in range(A)``, an orthonormal basis ``V`` of
    ``{c'x = 0}``, the restricted form ``W = V' A V``, ``eigh(W)`` and its
    inertia.  Each fact is computed on first use and then shared by every
    consumer, so a caller that stops early pays only for what it read.  No
    fact but ``f(x_c)`` depends on ``f``'s constant, and none on the offset
    ``c0``, so one reduction serves every level hyperplane of a direction;
    callers pass only the offset.

    ``f_norms`` are ``(||A||_F, ||a||)`` as :func:`_norms` measured them.
    Tolerances are relative: eigenvalues of ``A`` and ``W`` to ``A``'s
    spectral norm, ``f``'s other terms to ``scale = ||A||_F + ||a||`` (the
    constant only shifts the range), and ``c`` to ``c_scale``.  The column
    space and pseudoinverse of ``A`` or ``W`` keep every eigenpair above
    ``min(tol_rank, t) * ||A||_2``, with ``t`` that matrix's inertia
    tolerance (``tol_eig`` or ``tol_psd``), so none drops an eigenpair its
    inertia counts as nonzero.
    """

    def __init__(
        self,
        f: QuadraticFunction,
        c: np.ndarray,
        tol: ToleranceSet,
        f_norms: tuple[float, float],
        c_scale: float | None = None,
    ) -> None:
        self.f = f
        self.c = np.asarray(c, dtype=float)
        self.tol = tol
        self.f_norms = f_norms
        self.scale = f_norms[0] + f_norms[1]
        self.c_scale = self.norm_c if c_scale is None else c_scale

    @classmethod
    def alone(cls, f: QuadraticFunction, c: np.ndarray, tol: ToleranceSet | None) -> "HyperplaneReduction":
        """The reduction of ``f`` along a ``c`` given on its own, so ``c_scale = ||c||``.

        Each public entry point validates here: ``c`` must have shape ``(f.n,)``; ``tol=None`` is the default.
        """
        c = np.asarray(c, dtype=float)
        if c.shape != (f.n,):
            raise DimensionMismatch(f"direction has shape {c.shape}, expected ({f.n},)")
        return cls(f, c, tol or ToleranceSet(), _norms(f))

    @_lazy
    def sd(self) -> SpectralData:
        return eigh(self.f.A)

    @_lazy
    def ine(self) -> Inertia:
        return inertia(self.sd, self.tol.tol_eig * self.sd.spectral_norm)

    def negative_pair(self, sign: int) -> tuple[float, np.ndarray]:
        """The least eigenvalue of ``sign * A`` and its unit eigenvector."""
        k = 0 if sign > 0 else -1
        return sign * float(self.sd.eigenvalues[k]), self.sd.eigenvectors[:, k]

    @_lazy
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """The column space of ``A``: its kept eigenvectors, as columns, and their eigenvalues."""
        return _column_space(self.sd, min(self.tol.tol_rank, self.tol.tol_eig) * self.sd.spectral_norm)

    @_lazy
    def x_c(self) -> np.ndarray:
        """The stationary point ``-pinv(A) a``; :class:`InvalidInstance` when it overflows.

        When ``a`` lies outside the column space of ``A`` it is no stationary
        point, but still the point every foot point is measured from.
        """
        Q, vals = self.split
        # No coordinate overflows while ||a|| stays below 2**1000 times the
        # least kept eigenvalue.
        if vals.size and not self.f_norms[1] < min(map(abs, vals.tolist())) * 2.0**1000:
            raise InvalidInstance("pinv(A) a overflows the float range")
        # + 0.0 turns a zero coordinate's -0.0 into +0.0, so no witness prints -0.0.
        return -(Q @ ((Q.T @ self.f.a) / vals)) + 0.0

    def terms(self, r: float) -> float:
        """``||A||_F r**2 + 2 ||a|| r``: the size of ``f``'s terms at a point of norm ``r``, its constant aside."""
        norm_A, norm_a = self.f_norms
        return norm_A * r * r + 2.0 * norm_a * r

    @_lazy
    def f_c(self) -> float:
        """``f(x_c)``."""
        return evaluate(self.f, self.x_c)

    def in_range(self, v: np.ndarray, scale: float) -> bool:
        """Is ``v``, formed from terms of magnitude ``scale``, in the column space of ``A``?"""
        return _project(self.split[0], v, self.tol.tol_rank * scale) is not None

    @_lazy
    def a_in(self) -> bool:
        return self.in_range(self.f.a, self.scale)

    @_lazy
    def c_in(self) -> bool:
        return not self.c_zero and self.in_range(self.c, self.c_scale)

    @_lazy
    def norm_c(self) -> float:
        return _wide_norm(self.c)

    @_lazy
    def c_zero(self) -> bool:
        # c can vanish by cancellation, so measure it against the magnitudes
        # that entered the subtraction.
        return self.norm_c <= self.tol.tol_dep * self.c_scale

    @_lazy
    def V(self) -> np.ndarray:
        # Read only once c_zero is false, so norm_c > 0.
        return _reflector_basis(self.c, self.norm_c)

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

    @_lazy
    def orientations(self) -> tuple[int, ...]:
        """The orientations whose conditions all hold, the one to build a certificate on first.

        Both hold only when all of ``W`` lies in the zero band.  Then the
        eigenvector of the negative eigenvalue with ``|lam| = ||A||_2`` cannot
        lie in ``{c'x = 0}``, so its witness line crosses every level
        hyperplane: the orientation whose negative eigenvalue is larger in
        magnitude comes first, ``+1`` on a tie.
        """
        passing = tuple(sign for sign in (+1, -1) if not self.failed_conditions(sign))
        if len(passing) == 2 and self.negative_pair(-1)[0] < self.negative_pair(+1)[0]:
            return (-1, +1)
        return passing


class _PairReduction:
    """The pair ``(f, g)`` reduced once, shared by every consumer.

    Construction runs the degenerate screen and the role swap; the pencil
    fit and the :class:`HyperplaneReduction` of ``f`` along the direction
    ``2*(-ratio*f.a + g.a)`` shared by every level form of the pair are
    computed on first use.  After the swap, ``f`` and ``g`` are the analysed
    pair, and ``f_scale`` and ``g_scale`` their magnitudes ``||A||_F + ||a||``.
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
        self.f_norms = (gm, gl) if self.swapped else (fm, fl)
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
        # The gradient of -ratio*f + g (the stored linear terms are half
        # gradients), bounded termwise by twice g - ratio * f.
        c = 2.0 * (-self.ratio * self.f.a + self.g.a)
        c_scale = 2.0 * (abs(self.ratio) * self.f_scale + self.g_scale)
        return HyperplaneReduction(self.f, c, self.tol, self.f_norms, c_scale)

    def offset(self, alpha: float = 0.0, beta: float = 0.0) -> float:
        """The offset ``c0`` at which ``hyperplane`` is the level form ``-ratio*(f - alpha) + (g - beta)``.

        :class:`InvalidInstance` when it overflows: no hyperplane lies there.
        """
        offset = -self.ratio * (self.f.a0 - alpha) + (self.g.a0 - beta)
        if not math.isfinite(offset):
            raise InvalidInstance("level form offset overflows the float range")
        return offset


def affine_separates_quadratic(
    f: QuadraticFunction, h: AffineForm, tol: ToleranceSet | None = None
) -> SeparationReport:
    """Does the hyperplane ``{h = 0}`` separate the level set ``{f = 0}``?"""
    return _affine_separates(HyperplaneReduction.alone(f, h.c, tol), h.c0)


def _affine_separates(red: HyperplaneReduction, c0: float, alpha: float = 0.0) -> SeparationReport:
    """Does ``{red.c'x + c0 = 0}`` separate ``{red.f = alpha}``?  It tests ``red.f - alpha``."""
    f = red.f.add_constant(-alpha)
    if red.c_zero:
        failed = {sign: red.failed_conditions(sign) for sign in (+1, -1)}
        return SeparationReport(False, None, None, None, failed, False)

    # The foot point x0 is the point of the hyperplane nearest x_c, dist
    # away.  The two orientations share all spectral work: negating f
    # negates the restricted form and its pseudoinverse term, so the margins
    # are exact negatives of one another (at most one orientation can pass).
    # Each test is a tolerance times the size of what it compares: with
    # r = 1 + ||x0||, scale * r bounds the projected gradient ||A x0 + a||,
    # and |f(x0)|, the term and the terms f sums at x0 bound the margin
    # f(x0) - term.  Where those terms overflow, f(x0) cannot be evaluated.
    dist = (float(np.vdot(red.c, red.x_c)) + c0) / red.norm_c
    if not math.isfinite(dist):
        raise InvalidInstance(_FAR_FOOT)
    x0 = red.x_c - dist * (red.c / red.norm_c)
    r = 1.0 + _norm(x0)
    terms = red.terms(r)
    if not math.isfinite(terms):
        raise InvalidInstance(_FAR_FOOT)
    f_x0 = evaluate(f, x0)
    tol = red.tol
    w = red.V.T @ (f.A @ x0 + f.a)
    cutoff = min(tol.tol_rank, tol.tol_psd) * red.sd.spectral_norm
    quad_term = apply_pseudoinverse(red.sd_w, w, cutoff, tol.tol_rank * red.scale * r)
    threshold = tol.tol_psd * (abs(f_x0) + abs(quad_term or 0.0) + terms)

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
) -> LevelSearchResult:
    """Do levels ``gamma, alpha`` exist with ``{c'x = gamma}`` separating ``{f = alpha}``?

    Existence depends only on the direction of ``c``: it requires, for some
    orientation ``s``, exactly one negative eigenvalue of ``s*A``, both
    ``f``'s linear term and ``c`` in the column space of ``A``, and ``s*A``
    positive semidefinite on ``{c'x = 0}``.  When these hold, the levels are
    built at the stationary point ``x_c = -pinv(A) a``:

    * ``gamma = c'x_c`` puts the hyperplane through ``x_c``;
    * ``alpha = f(x_c) - s*M`` with ``M = ||A||_2 * (1 + ||x_c||)**2``, or
      more where the tolerance of the margin test, the rounding of
      ``f(x_c)``, or the rounding of values at the witness points that must
      straddle a level on either side of the hyperplane needs it.

    The gradient of ``f`` vanishes at ``x_c``, so on the hyperplane
    ``s*(f(x) - alpha) = M + (x - x_c)' s*A (x - x_c) >= M``: the strictness
    margin is ``M``, sized like the terms of ``f`` near ``x_c``.  Levels
    that overflow the float range are :class:`InvalidInstance`.
    """
    red = HyperplaneReduction.alone(f, c, tol)
    if red.c_zero:
        raise ZeroVector("level search requires a nonzero direction")
    if not red.orientations:
        return LevelSearchResult(False, None, None, None)
    sign = red.orientations[0]
    return LevelSearchResult(True, sign, *_separating_levels(red, 0.0, sign))


def _separating_levels(red: HyperplaneReduction, c0: float, sign: int) -> tuple[float, float]:
    """Levels with ``{red.c'x + c0 = gamma}`` separating ``{f = alpha}`` for a passing orientation ``sign``."""
    x_c, f_c = red.x_c, red.f_c
    r = 1.0 + _norm(x_c)
    r2 = r**2
    # The margin is sized like f's terms near x_c.  It also clears, twice
    # over, the threshold of the margin test that level_pair_separation
    # applies at these levels, where the foot point is x_c, and the rounding
    # of alpha, a unit of |f(x_c)|.
    tol_psd = red.tol.tol_psd
    margin = max(red.sd.spectral_norm * r2, 2.0 * tol_psd * (abs(f_c) + red.terms(r)) / (1.0 - tol_psd))
    # The witness points x_c -/+ tau*d, tau = sqrt(margin / |lam|), lie
    # tau * |c'd| off the hyperplane, and the other function's values there
    # lie about that far from its level.  That must clear the rounding of
    # the terms it sums: |c0| holds its constant and c_scale bounds the rest.
    lam, d = red.negative_pair(sign)
    slope = abs(float(red.c @ d))
    if slope > 0.0:
        reach = _STRADDLE_ULPS * (abs(c0) + red.c_scale * r2) / slope
        margin = max(margin, -lam * reach * reach)
    gamma, alpha = float(red.c @ x_c + c0), f_c - sign * margin
    if not (math.isfinite(gamma) and math.isfinite(alpha)):
        raise InvalidInstance("separating levels overflow the float range")
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
    return _affine_separates(red.hyperplane, red.offset(alpha, beta), alpha).separates, red.ratio


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
    A non-finite level is :class:`InvalidInstance`.
    """
    tol = tol or ToleranceSet()
    if f.n != g.n:
        raise DimensionMismatch(f"dimension mismatch: {f.n} vs {g.n}")
    alpha, beta = float(alpha), float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidInstance("levels must be finite")
    g_on_f, ratio_gf = _one_direction(f, alpha, g, beta, tol)
    f_on_g, ratio_fg = _one_direction(g, beta, f, alpha, tol)
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
    for ``(f - alpha, h)``; only its orientation ``s`` is read.  The points
    are ``x_c -/+ tau*d``, on the line through the stationary point
    ``x_c = -pinv(A) a`` along the eigenvector ``d`` of ``s*A``'s negative
    eigenvalue ``lam``.  The gradient vanishes at ``x_c``, so along that line
    ``s*(f - alpha)`` falls from ``s*(f(x_c) - alpha) > 0`` as
    ``lam * t**2``, and ``tau = sqrt(s*(f(x_c) - alpha) / |lam|)``.  A
    non-finite ``alpha`` is :class:`InvalidInstance`.
    """
    red = HyperplaneReduction.alone(f, h.c, tol)
    if not math.isfinite(alpha):
        raise InvalidInstance("levels must be finite")
    if not report.separates or report.orientation is None:
        raise InvalidReport("witness construction requires a successful separation report")
    return _separation_witness(red, h.c0, report.orientation, alpha)


def _separation_witness(red: HyperplaneReduction, c0: float, sign: int, alpha: float) -> SeparationWitness:
    """:func:`construct_separation_witness` for ``{red.c'x + c0 = 0}`` and orientation ``sign``."""
    f, tol = red.f, red.tol
    lam, d = red.negative_pair(sign)
    if lam >= 0.0:
        raise InvalidReport("oriented matrix has no negative-curvature direction")
    x_c = red.x_c
    height = sign * (red.f_c - alpha)
    if not height > 0.0:
        raise RootFailure(f"f at the stationary point lies on the wrong side of the level (height={height:.3e})")
    step = math.sqrt(height / -lam) * d
    u, v = x_c - step, x_c + step

    h_u, h_v = float(red.c @ u + c0), float(red.c @ v + c0)
    if not (h_u * h_v < 0.0):
        raise RootFailure("witness points do not fall on opposite sides of the hyperplane")
    f_u, f_v = evaluate(f, u), evaluate(f, v)
    # Each value may miss alpha by tol_residual * |alpha|, plus rounding: a
    # few units of the terms f sums at the farther point, which bound the
    # rounding of x_c, f(x_c) and the step too.
    allowed = tol.tol_residual * abs(alpha) + _LEVEL_ULPS * (red.terms(max(_norm(u), _norm(v))) + abs(f.a0))
    if not (abs(f_u - alpha) <= allowed and abs(f_v - alpha) <= allowed and math.isfinite(allowed)):
        raise RootFailure("witness point misses the target level beyond tolerance")
    return SeparationWitness(u, v, float(alpha), h_u, h_v, f_u, f_v)
