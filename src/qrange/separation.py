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

from dataclasses import dataclass
from functools import cached_property

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
        if not (np.all(np.isfinite(c)) and np.isfinite(self.c0)):
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
    """Two points of ``{f = alpha}`` on opposite strict sides of ``{h = 0}``."""

    u: np.ndarray
    v: np.ndarray
    alpha: float
    h_at_u: float
    h_at_v: float


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
    """

    def __init__(self, f: QuadraticFunction, c: np.ndarray, tol: ToleranceSet) -> None:
        self.f = f
        self.c = np.asarray(c, dtype=float)
        self.tol = tol

    @cached_property
    def sd(self) -> SpectralData:
        return eigh(self.f.A)

    @cached_property
    def ine(self) -> Inertia:
        return inertia(self.sd, self.tol.tol_eig)

    @cached_property
    def a_in(self) -> bool:
        return range_membership(self.sd, self.f.a, self.tol.tol_rank)

    @cached_property
    def c_in(self) -> bool:
        return range_membership(self.sd, self.c, self.tol.tol_rank)

    @cached_property
    def V(self) -> np.ndarray:
        return null_space_basis(self.c)

    @cached_property
    def W(self) -> np.ndarray:
        W = self.V.T @ self.f.A @ self.V
        return (W + W.T) / 2.0

    @cached_property
    def sd_w(self) -> SpectralData:
        return eigh(self.W)

    @cached_property
    def ine_w(self) -> Inertia:
        return inertia(self.sd_w, self.tol.tol_psd)

    def failed_conditions(self, sign: int) -> tuple[str, ...]:
        """The orientation conditions that ``sign * f`` fails; empty means they all hold.

        For ``Abar = sign * A``: exactly one negative eigenvalue, ``a`` and a
        nonzero ``c`` in the column space of ``A``, and ``Abar`` positive
        semidefinite on ``{c'x = 0}``.
        """
        labels = []
        if (self.ine.n_neg if sign > 0 else self.ine.n_pos) != 1:
            labels.append(COND_ONE_NEGATIVE)
        if not self.a_in:
            labels.append(COND_LINEAR_IN_RANGE)
        if float(np.linalg.norm(self.c)) == 0.0:
            labels.append(COND_GRADIENT_NONZERO)
            return tuple(labels)
        if not self.c_in:
            labels.append(COND_GRADIENT_IN_RANGE)
        if (self.ine_w.n_neg if sign > 0 else self.ine_w.n_pos) != 0:
            labels.append(COND_RESTRICTED_SEMIDEFINITE)
        return tuple(labels)


class _PairReduction:
    """The pair ``(f, g)`` reduced once, shared by every consumer.

    Construction runs the degenerate screen and the role swap; the pencil
    fit, the combined gradient ``c = -ratio*f.a + g.a``, its zero test, the
    :class:`HyperplaneReduction` of ``f`` along ``c`` and the membership
    ``g.a in range(f.A)`` are computed on first use.  After the swap, ``f``
    and ``g`` are the analysed pair.
    """

    def __init__(self, f: QuadraticFunction, g: QuadraticFunction, tol: ToleranceSet) -> None:
        self.tol = tol
        self.norms = norms = {
            "f_matrix": float(np.linalg.norm(f.A)),
            "g_matrix": float(np.linalg.norm(g.A)),
            "f_linear": float(np.linalg.norm(f.a)),
            "g_linear": float(np.linalg.norm(g.a)),
        }
        # Each object is "zero" relative to the larger of 1 and the pair's
        # shared scale, so a pair like (1e-14 * M, M) screens the tiny member
        # as zero.
        mat_scale = max(1.0, norms["f_matrix"], norms["g_matrix"])
        vec_scale = max(1.0, norms["f_linear"], norms["g_linear"])
        self.fa_zero = norms["f_matrix"] <= tol.tol_dep * mat_scale
        self.ga_zero = norms["g_matrix"] <= tol.tol_dep * mat_scale
        self.a_zero = norms["f_linear"] <= tol.tol_dep * vec_scale
        self.b_zero = norms["g_linear"] <= tol.tol_dep * vec_scale
        self.swapped = bool(self.fa_zero and not self.ga_zero)
        self.f, self.g = (g, f) if self.swapped else (f, g)

    @cached_property
    def pencil(self) -> tuple[float, float, bool]:
        """Projected ratio, residual and dependence verdict of ``g.A`` on ``f.A``."""
        return pencil_dependence(self.f.A, self.g.A, self.tol.tol_dep)

    @property
    def ratio(self) -> float | None:
        ratio, _, dependent = self.pencil
        return ratio if dependent else None

    @cached_property
    def c(self) -> np.ndarray:
        return -self.ratio * self.f.a + self.g.a

    @cached_property
    def c_zero(self) -> bool:
        # c can vanish by cancellation, so measure it against the magnitudes
        # that entered the subtraction.
        scale = max(
            1.0, abs(self.ratio) * float(np.linalg.norm(self.f.a)) + float(np.linalg.norm(self.g.a))
        )
        return float(np.linalg.norm(self.c)) <= self.tol.tol_dep * scale

    @cached_property
    def hyperplane(self) -> HyperplaneReduction:
        return HyperplaneReduction(self.f, self.c, self.tol)

    @cached_property
    def b_in(self) -> bool:
        return range_membership(self.hyperplane.sd, self.g.a, self.tol.tol_rank)


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
    return _affine_separates(f, h, HyperplaneReduction(f, h.c, tol))


def _affine_separates(
    f: QuadraticFunction, h: AffineForm, red: HyperplaneReduction
) -> SeparationReport:
    """:func:`affine_separates_quadratic` reading the facts of ``red``.

    ``red`` reduces ``f`` up to a constant shift, along ``h.c`` or ``h.c / 2``.
    """
    tol = red.tol
    norm_c = float(np.linalg.norm(h.c))
    if norm_c == 0.0:
        failed = {sign: red.failed_conditions(sign) for sign in (+1, -1)}
        return SeparationReport(False, None, None, None, failed, False)

    unit_c = h.c / norm_c
    x0 = -(h.c0 / norm_c) * unit_c
    w_plus = red.V.T @ (f.A @ x0 + f.a)
    f_x0 = evaluate(f, x0)
    threshold = tol.tol_psd * max(1.0, abs(f_x0))
    # The two orientations share all spectral work: negating f negates the
    # restricted form and its pseudoinverse term, so the margins are exact
    # negatives of one another (hence at most one orientation can pass).
    # None means w_plus lies outside the restricted form's column space.
    quad_term = apply_pseudoinverse(red.sd_w, w_plus, tol.tol_rank)

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

    * solve ``V' Abar u0 = V' abar`` (least squares) and set
      ``gamma = c0 - c'u0``, which makes the projected gradient at the foot
      point of ``{c'x + c0 = gamma}`` land inside the restricted form's column
      space by construction;
    * push ``alpha`` to ``f(foot) - s*(pinv_term + m)``, which makes the
      strictness margin ``m`` for orientation ``s`` (small levels for the
      ``+1`` orientation, large ones for ``-1``).  ``m`` is 1 unless
      ``|pinv_term|`` is large: then it is
      ``2*tol_psd*|pinv_term| / (1 - tol_psd)``, twice the smallest margin
      that clears the relative threshold of the separation check.
    """
    tol = tol or ToleranceSet()
    c = np.asarray(c, dtype=float)
    if c.shape != (f.n,):
        raise DimensionMismatch(f"direction has shape {c.shape}, expected ({f.n},)")
    if float(np.linalg.norm(c)) == 0.0:
        raise ZeroVector("level search requires a nonzero direction")
    red = HyperplaneReduction(f, c, tol)
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
    norm_c = float(np.linalg.norm(c))
    A_bar = sign * f.A
    a_bar = sign * f.a
    u0, *_ = np.linalg.lstsq(V.T @ A_bar, V.T @ a_bar, rcond=None)
    gamma = float(c0 - c @ u0)
    foot = -((c0 - gamma) / norm_c) * (c / norm_c)
    w_bar = V.T @ (A_bar @ foot + a_bar)
    sd_w = red.sd_w if sign > 0 else red.sd_w.negated()
    quad_term = apply_pseudoinverse(sd_w, w_bar, red.tol.tol_rank)
    if quad_term is None:
        raise OutOfRange("projected gradient lies outside the restricted form's column space")
    # _affine_separates needs margin > tol_psd * max(1, |quad_term + margin|);
    # twice the smallest such margin leaves room for rounding in alpha.
    tol_psd = red.tol.tol_psd
    margin = max(1.0, 2.0 * tol_psd * abs(quad_term) / (1.0 - tol_psd))
    alpha = evaluate(f, foot) - sign * (quad_term + margin)
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
    return _separation_witness(HyperplaneReduction(f, h.c, tol), h, report, alpha)


def _separation_witness(
    red: HyperplaneReduction, h: AffineForm, report: SeparationReport, alpha: float
) -> SeparationWitness:
    """:func:`construct_separation_witness` reading ``eigh(A)`` from ``red``."""
    f, tol = red.f, red.tol
    if not report.separates or report.orientation is None or report.foot_point is None:
        raise InvalidReport("witness construction requires a successful separation report")
    sign = report.orientation
    x0 = report.foot_point
    sd = red.sd if sign > 0 else red.sd.negated()
    lead = float(sd.eigenvalues[0])
    if lead >= 0.0:
        raise InvalidReport("oriented matrix has no negative-curvature direction")
    direction = sd.eigenvectors[:, 0]

    a_bar = sign * f.a
    const = sign * (evaluate(f, x0) - alpha)
    lin = float(2.0 * direction @ ((sign * f.A) @ x0 + a_bar))
    disc = lin * lin - 4.0 * lead * const
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
    level_scale = max(1.0, abs(alpha))
    for point in (u, v):
        if abs(evaluate(f, point) - alpha) > tol.tol_residual * level_scale:
            raise RootFailure("witness point misses the target level beyond tolerance")
    return SeparationWitness(u, v, float(alpha), h_u, h_v)
