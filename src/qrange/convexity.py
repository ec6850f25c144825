"""Convexity of the joint range of two quadratics, with certificates.

The joint range of ``(f, g)`` is ``{(f(x), g(x)) : x in R^n}``.  Both
decision procedures below read one shared reduction of the pair (screen,
pencil fit, spectral facts), computed lazily:

* :func:`check_convexity` — the separation path.  The range is nonconvex
  exactly when some level set of one function separates a level set of the
  other, which (after reducing the pencil) collapses to the affine-separation
  conditions of :mod:`qrange.separation`.  On a NONCONVEX verdict it builds a
  full certificate: concrete levels, two attained range points, and the
  unattained point between them.

* :func:`check_flores_bazan` — the direction-based criterion, phrased
  through a direction ``d`` in range space that the homogeneous range must
  avoid.  For a dependent pencil only two candidate directions (up to
  positive scaling) can qualify, so the check is finite.

:func:`cross_check` runs both on one reduction and reports agreement.  The
criteria are algebraically equivalent and share their numerics, so a
mismatch points at the decision logic, not at the input; it is not an
independent numerical second opinion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .quadratic import ProblemInstance, evaluate
from .separation import _PairReduction, _separating_levels, _separation_witness

__all__ = [
    "VERDICT_CONVEX",
    "VERDICT_NONCONVEX",
    "NonconvexityWitness",
    "ConvexityCertificate",
    "FBReport",
    "CrossCheckResult",
    "check_convexity",
    "check_flores_bazan",
    "cross_check",
    "verify_certificate",
]

VERDICT_CONVEX = "CONVEX"
VERDICT_NONCONVEX = "NONCONVEX"


@dataclass(frozen=True, eq=False)
class NonconvexityWitness:
    """Certificate data for a nonconvex joint range.

    ``range_at_u`` and ``range_at_v`` are attained range points with the same
    first coordinate, and ``gap_point`` lies strictly between them on that
    vertical segment but is not attained — so the range fails convexity.
    """

    u: np.ndarray
    v: np.ndarray
    range_at_u: np.ndarray
    range_at_v: np.ndarray
    gap_point: np.ndarray


@dataclass(frozen=True, eq=False)
class ConvexityCertificate:
    """Verdict plus the full decision path that produced it.

    ``path`` is an ordered list of JSON-ready records, one per decision the
    algorithm took.  When ``swapped`` is true the analysis ran on the swapped
    pair ``(g, f)`` (needed when ``f`` alone is affine); ``pencil_ratio`` and
    ``orientation`` refer to the swapped pair, while the witness's range
    points and ``gap_point`` — and ``f_level``/``g_level`` — are reported in
    the original coordinate order.  A CONVEX verdict leaves ``pencil_ratio``,
    ``orientation``, ``f_level``, ``g_level`` and ``witness`` at their
    default ``None``; ``path`` defaults to ``()``.
    """

    verdict: str
    swapped: bool
    pencil_ratio: float | None = None
    orientation: int | None = None
    f_level: float | None = None
    g_level: float | None = None
    witness: NonconvexityWitness | None = None
    path: tuple[dict[str, Any], ...] = ()


@dataclass(frozen=True, eq=False)
class FBReport:
    """Outcome of the joint-range direction criterion."""

    verdict: str
    swapped: bool
    certificate: np.ndarray | None
    conditions: dict[str, Any]


@dataclass(frozen=True, eq=False)
class CrossCheckResult:
    """Both verdicts on one reduction; ``certificate`` and ``fb_report`` are not printed."""

    agree: bool
    separation_verdict: str
    flores_bazan_verdict: str
    certificate: ConvexityCertificate = field(metadata={"json": False})
    fb_report: FBReport = field(metadata={"json": False})
    diagnostics: dict[str, Any] | None


def check_convexity(p: ProblemInstance) -> ConvexityCertificate:
    """Decide convexity of the joint range of ``(p.f, p.g)``.

    Decision path: degenerate screen (either both quadratic parts or both
    linear terms vanish => convex, swapping the pair if only ``f``'s matrix
    vanishes); matrix dependence (independent => convex); combined gradient
    and column-space membership (any failure => convex); and finally the
    orientation conditions, whose success yields a NONCONVEX verdict with a
    constructed witness.
    """
    return _check_convexity(_PairReduction(p.f, p.g, p.tolerances))


def _check_convexity(red: _PairReduction) -> ConvexityCertificate:
    swapped = red.swapped
    affine, homogeneous = bool(red.fa_zero and red.ga_zero), bool(red.a_zero and red.b_zero)
    path: list[dict[str, Any]] = [
        {
            "step": 0,
            "check": "degenerate_screen",
            "norms": red.norms,
            "both_matrices_zero": affine,
            "both_linear_terms_zero": homogeneous,
            "swapped": swapped,
            "outcome": "convex_affine_pair" if affine else "convex_homogeneous_pair" if homogeneous else "continue",
        }
    ]
    if affine or homogeneous:
        return ConvexityCertificate(VERDICT_CONVEX, swapped, path=tuple(path))

    projected, residual, dependent = red.pencil
    record1 = {
        "step": 1,
        "check": "matrix_dependence",
        "projected_ratio": projected,
        "residual": residual,
        "dependent": dependent,
        "outcome": "continue" if dependent else "convex_independent_matrices",
    }
    path.append(record1)
    if not dependent:
        return ConvexityCertificate(VERDICT_CONVEX, swapped, path=tuple(path))

    g, ratio, hp = red.g, projected, red.hyperplane
    passes2 = hp.a_in and hp.c_in
    record2 = {
        "step": 2,
        "check": "combined_gradient_and_ranges",
        "pencil_ratio": ratio,
        "combined_gradient": (0.5 * hp.c).tolist(),
        "gradient_zero": hp.c_zero,
        "linear_term_in_range": bool(hp.a_in),
        "gradient_in_range": bool(hp.c_in),
        "outcome": "continue" if passes2 else "convex_gradient_conditions",
    }
    path.append(record2)
    if not passes2:
        return ConvexityCertificate(VERDICT_CONVEX, swapped, path=tuple(path))

    pos_ok, neg_ok = +1 in hp.orientations, -1 in hp.orientations
    record3 = {
        "step": 3,
        "check": "orientation_conditions",
        "eigenvalues": hp.sd.eigenvalues.tolist(),
        "inertia": list(hp.ine.as_tuple()),
        "restricted_eigenvalues": hp.sd_w.eigenvalues.tolist(),
        "orientation_pos": pos_ok,
        "orientation_neg": neg_ok,
        "outcome": "nonconvex" if (pos_ok or neg_ok) else "convex_orientation_conditions",
    }
    path.append(record3)
    if not (pos_ok or neg_ok):
        return ConvexityCertificate(VERDICT_CONVEX, swapped, path=tuple(path))
    orientation = hp.orientations[0]

    # Construct the certificate at f's stationary point: levels, then witness
    # points.  Every level form of the pair is hp's hyperplane at another
    # offset.  It passes through x_c, and s*A is semidefinite on it, so the
    # least value of s*(f - alpha) on it is the margin s*(f(x_c) - alpha),
    # which the witness requires to be positive.
    c0 = red.offset()
    gamma, alpha = _separating_levels(hp, c0, orientation)
    beta = ratio * alpha + gamma
    wit = _separation_witness(hp, c0 - gamma, orientation, alpha)
    range_u = np.array([wit.f_at_u, evaluate(g, wit.u)])
    range_v = np.array([wit.f_at_v, evaluate(g, wit.v)])
    gap = np.array([alpha, beta])
    f_level, g_level = alpha, beta
    if swapped:
        range_u, range_v, gap = range_u[::-1], range_v[::-1], gap[::-1]
        f_level, g_level = beta, alpha
    path.append(
        {
            "step": 3,
            "check": "certificate_construction",
            "orientation": orientation,
            "separating_level": gamma,
            "f_level": f_level,
            "g_level": g_level,
            "margin": orientation * (hp.f_c - alpha),
            "outcome": "nonconvex",
        }
    )
    witness = NonconvexityWitness(wit.u, wit.v, range_u, range_v, gap)
    return ConvexityCertificate(
        verdict=VERDICT_NONCONVEX,
        swapped=swapped,
        pencil_ratio=float(ratio),
        orientation=orientation,
        f_level=float(f_level),
        g_level=float(g_level),
        witness=witness,
        path=tuple(path),
    )


def check_flores_bazan(p: ProblemInstance) -> FBReport:
    """Joint-range convexity via the direction criterion.

    The range of the homogeneous pair is a closed convex cone; the full range
    is nonconvex iff some nonzero direction ``d`` satisfies: the linear terms
    vanish on the common kernel (here: both lie in the column space of the
    base matrix); ``d`` annihilates the matrix pencil; ``-d`` is attained by
    the homogeneous pair; and every attaining point has a nonzero combined
    linear term.  For a dependent pencil ``g.A = r * f.A`` only the two
    directions ``(1, r)`` and ``(-1, -r)`` can qualify, and the last condition
    reduces to: nonzero combined gradient, semidefinite restriction to its
    hyperplane, and a unique oriented negative eigenvalue.
    """
    return _check_flores_bazan(_PairReduction(p.f, p.g, p.tolerances))


def _check_flores_bazan(red: _PairReduction) -> FBReport:
    conditions: dict[str, Any] = {"norms": red.norms}
    if red.fa_zero and red.ga_zero:
        conditions["matrix_dependence"] = {
            "dependent": True,
            "note": "both quadratic parts vanish; the homogeneous range is the origin",
        }
        return FBReport(VERDICT_CONVEX, False, None, conditions)
    swapped = red.swapped
    conditions["swapped"] = swapped

    ratio = red.ratio
    conditions["matrix_dependence"] = {"dependent": ratio is not None, "ratio": ratio}
    if ratio is None:
        # Independent quadratic parts: only d = 0 annihilates the pencil.
        return FBReport(VERDICT_CONVEX, swapped, None, conditions)

    hp = red.hyperplane
    ine, a_in = hp.ine, hp.a_in
    # g.a = c/2 + ratio*f.a, so once f.a lies in the column space, g.a does
    # exactly when c does or vanishes: read the separation path's decision.
    b_in = (hp.c_zero or hp.c_in) if a_in else hp.in_range(red.g.a, red.g_scale)
    conditions["linear_terms_in_column_space"] = {"f": bool(a_in), "g": bool(b_in)}
    conditions["combined_gradient_nonzero"] = not hp.c_zero

    certificate: np.ndarray | None = None
    for label, direction_sign in (("candidate_pos", +1), ("candidate_neg", -1)):
        d = direction_sign * np.array([1.0, ratio])
        n_neg = ine.negatives(direction_sign)
        attains = n_neg >= 1
        definite = not hp.c_zero and hp.ine_w.negatives(direction_sign) == 0 and n_neg == 1
        qualified = bool(a_in and b_in and attains and definite)
        conditions[label] = {
            "d": d.tolist(),
            "negated_direction_attained": bool(attains),
            "hyperplane_restriction_definite": bool(definite),
            "qualified": qualified,
        }
        if qualified and certificate is None:
            certificate = d[::-1].copy() if swapped else d

    if certificate is None:
        return FBReport(VERDICT_CONVEX, swapped, None, conditions)
    return FBReport(VERDICT_NONCONVEX, swapped, certificate, conditions)


def verify_certificate(p: ProblemInstance, cert: ConvexityCertificate) -> dict[str, Any]:
    """Independently re-check a NONCONVEX certificate against the instance.

    The witness promises two attained range points and an unattained point
    between them: both witness points hit the analyzed quadratic's level
    within ``tol_residual * |level|`` plus rounding, 64 units of the terms
    ``||A||_F * r**2 + 2 * ||a|| * r + |a0|`` it sums at the farther point
    (``r`` its norm), the other function's values straddle its level
    strictly, and the stored range points match fresh evaluations to within
    ``1e-12 + 1e-12 * |stored|`` each.  When the certificate analyzed the
    swapped pair, the roles of ``f`` and ``g`` in those checks swap
    accordingly.

    Returns a JSON-ready dict with per-check booleans, residuals, and an
    overall ``valid`` flag (vacuously true for CONVEX certificates).
    """
    if cert.verdict != VERDICT_NONCONVEX:
        return {"applicable": False, "valid": True}
    if cert.witness is None or cert.f_level is None or cert.g_level is None:
        return {"applicable": True, "valid": False, "reason": "certificate lacks witness data"}
    tol = p.tolerances
    wit = cert.witness
    levels = (cert.f_level, cert.g_level)
    # Index of the function whose level the witness hits, and of the other one.
    hit, side = (1, 0) if cert.swapped else (0, 1)
    fresh_u = (evaluate(p.f, wit.u), evaluate(p.g, wit.u))
    fresh_v = (evaluate(p.f, wit.v), evaluate(p.g, wit.v))

    residual_u = abs(fresh_u[hit] - levels[hit])
    residual_v = abs(fresh_v[hit] - levels[hit])
    # The miss is measured against the level; 64 units of rounding of the
    # terms the function sums at the farther witness point are allowed on top.
    q = (p.f, p.g)[hit]
    r = max(math.sqrt(np.vdot(wit.u, wit.u)), math.sqrt(np.vdot(wit.v, wit.v)))
    terms = math.sqrt(np.vdot(q.A, q.A)) * r * r + 2.0 * math.sqrt(np.vdot(q.a, q.a)) * r + abs(q.a0)
    allowed = tol.tol_residual * abs(levels[hit]) + 64.0 * 2.0**-52 * terms
    levels_hit = residual_u <= allowed and residual_v <= allowed and math.isfinite(allowed)
    strictly_straddles = (fresh_u[side] - levels[side]) * (fresh_v[side] - levels[side]) < 0.0

    stored = wit.range_at_u.tolist() + wit.range_at_v.tolist()
    points_consistent = all(map(_close, fresh_u + fresh_v, stored))
    gap_consistent = wit.gap_point.tolist() == list(levels)

    return {
        "applicable": True,
        "levels_hit": bool(levels_hit),
        "residual_u": float(residual_u),
        "residual_v": float(residual_v),
        "strictly_straddles": bool(strictly_straddles),
        "points_consistent": points_consistent,
        "gap_consistent": gap_consistent,
        "valid": bool(levels_hit and strictly_straddles and points_consistent and gap_consistent),
    }


def _close(x: float, y: float) -> bool:
    """``np.isclose(x, y, rtol=1e-12, atol=1e-12)`` on two floats.

    Equal values are close, infinities included; NaN is close to nothing.
    """
    return x == y or (abs(x - y) <= 1e-12 + 1e-12 * abs(y) and math.isfinite(y))


def cross_check(p: ProblemInstance) -> CrossCheckResult:
    """Run both checkers on one shared reduction and compare verdicts.

    The two criteria are equivalent and read the same spectral facts, so
    ``agree`` checks the decision logic, not the numerics; a false value
    comes with both evidence trails in ``diagnostics``.
    """
    red = _PairReduction(p.f, p.g, p.tolerances)
    certificate = _check_convexity(red)
    fb = _check_flores_bazan(red)
    agree = certificate.verdict == fb.verdict
    diagnostics = None
    if not agree:
        diagnostics = {
            "separation_path": list(certificate.path),
            "fb_conditions": fb.conditions,
        }
    return CrossCheckResult(
        agree=agree,
        separation_verdict=certificate.verdict,
        flores_bazan_verdict=fb.verdict,
        certificate=certificate,
        fb_report=fb,
        diagnostics=diagnostics,
    )
