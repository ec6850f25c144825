"""Curated problem instances with known outcomes, and the reproduction suite.

Each case bundles a :class:`ProblemInstance` with the facts the tool is
expected to establish about it (verdict, pencil ratio, level-pair separation
table, ...).  ``run_curated_suite`` re-derives everything and reports one
pass/fail row per expectation; the CLI's ``reproduce`` command prints that
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .convexity import (
    VERDICT_CONVEX,
    VERDICT_NONCONVEX,
    check_convexity,
    cross_check,
    verify_certificate,
)
from .quadratic import ProblemInstance, make_quadratic, problem_to_dict
from .separation import level_pair_separation

__all__ = [
    "CuratedCase",
    "SuiteRow",
    "case_file_document",
    "curated_cases",
    "get_case",
    "evaluate_case",
    "run_curated_suite",
    "suite_passed",
]

_RATIO_TOL = 1e-12
_EIG_TOL = 1e-9


@dataclass(frozen=True)
class LevelCheck:
    """Expected two-way separation outcome at one level pair."""

    f_level: float
    g_level: float
    g_separates_f: bool
    f_separates_g: bool


@dataclass(frozen=True)
class Expected:
    verdict: str
    pencil_ratio: float | None = None
    orientation: int | None = None
    final_step: int | None = None
    matrix_eigenvalues: tuple[float, ...] | None = None
    level_checks: tuple[LevelCheck, ...] = ()


@dataclass(frozen=True, eq=False)
class CuratedCase:
    name: str
    description: str
    instance: ProblemInstance
    expected: Expected


@dataclass(frozen=True)
class SuiteRow:
    case: str
    check: str
    passed: bool
    detail: str

    def to_jsonable(self) -> dict[str, Any]:
        return {"case": self.case, "check": self.check, "passed": self.passed, "detail": self.detail}


def _quad(A, a, a0):
    return make_quadratic(np.asarray(A, dtype=float), np.asarray(a, dtype=float), a0)


def _build_cases() -> tuple[CuratedCase, ...]:
    rt3 = np.sqrt(3.0)
    rt2 = np.sqrt(2.0)

    saddle = _quad([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
    saddle_partner = _quad([[-2.0, 0.0], [0.0, 2.0]], [2.0, -1.0], 0.0)
    saddle_partner_hom = _quad([[-2.0, 0.0], [0.0, 2.0]], [0.0, 0.0], 0.0)

    tilted_f = _quad([[-rt3 / 2, 0.0], [0.0, rt3 / 2]], [0.5, -0.25], 0.0)
    tilted_g = _quad([[0.5, 0.0], [0.0, -0.5]], [rt3 / 2, -rt3 / 4], 0.0)

    A4 = np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.5],
        ]
    )
    rank_f = _quad(A4, [1.0, 1.0 / rt2, 1.0, 1.0 / rt2], 0.0)
    rank_g = _quad(2.0 * A4, [2.5, 3.0 / (2.0 * rt2), 4.0, 3.0 / (2.0 * rt2)], 0.0)

    bowl_3d = _quad(np.diag([1.0, 1.0, 0.0]), [0.0, 0.0, 0.0], 0.0)
    sheet_3d = _quad(np.diag([-1.0, 1.0, 0.0]), [0.0, 0.0, 0.5], 0.0)

    wide_saddle = np.diag([-1.0, 4.0])
    zero2 = np.zeros((2, 2))

    return (
        CuratedCase(
            "saddle_pair_dependent",
            "2-D saddle paired with twice itself plus a shifted linear term; "
            "the joint range has a gap on a vertical line",
            ProblemInstance(saddle, saddle_partner),
            Expected(
                VERDICT_NONCONVEX,
                pencil_ratio=2.0,
                orientation=+1,
                matrix_eigenvalues=(-1.0, 1.0),
            ),
        ),
        CuratedCase(
            "saddle_pair_homogeneous",
            "the same matrix pair with no linear terms; homogeneous pairs "
            "always have a convex joint range",
            ProblemInstance(saddle, saddle_partner_hom),
            Expected(VERDICT_CONVEX, final_step=0),
        ),
        CuratedCase(
            "tilted_saddle_mutual",
            "two proportional 2-D saddles (negative ratio) whose level sets "
            "separate each other at a known level pair",
            ProblemInstance(tilted_f, tilted_g),
            Expected(
                VERDICT_NONCONVEX,
                pencil_ratio=float(-1.0 / rt3),
                level_checks=(LevelCheck(-4.0, 2.0, True, True),),
            ),
        ),
        CuratedCase(
            "rank_deficient_4d",
            "4-D pair with a rank-3 base matrix (eigenvalues -1, 0, 1, 1), "
            "dependent partner at ratio 2, and linear terms inside the column space",
            ProblemInstance(rank_f, rank_g),
            Expected(
                VERDICT_NONCONVEX,
                pencil_ratio=2.0,
                orientation=+1,
                matrix_eigenvalues=(-1.0, 0.0, 1.0, 1.0),
            ),
        ),
        CuratedCase(
            "bowl_vs_sheet_3d",
            "3-D pair with linearly independent quadratic parts; independence "
            "alone forces a convex joint range",
            ProblemInstance(bowl_3d, sheet_3d),
            Expected(VERDICT_CONVEX, final_step=1),
        ),
        CuratedCase(
            "saddle_with_line_nosplit",
            "wide saddle with an affine partner whose zero line meets the "
            "saddle's zero set, so that level pair does not separate "
            "(other levels do: the range is still nonconvex)",
            ProblemInstance(
                _quad(wide_saddle, [0.0, 0.0], 0.0),
                _quad(zero2, [1.0, -0.5], 0.0),
            ),
            Expected(
                VERDICT_NONCONVEX,
                pencil_ratio=0.0,
                level_checks=(LevelCheck(0.0, 0.0, False, False),),
            ),
        ),
        CuratedCase(
            "saddle_with_line_split",
            "lowered wide saddle with an affine partner whose zero line passes "
            "between the two branches of the saddle's zero set",
            ProblemInstance(
                _quad(wide_saddle, [0.0, 0.0], -1.0),
                _quad(zero2, [0.5, -2.5], 0.0),
            ),
            Expected(
                VERDICT_NONCONVEX,
                pencil_ratio=0.0,
                orientation=-1,
                level_checks=(LevelCheck(0.0, 0.0, True, False),),
            ),
        ),
        CuratedCase(
            "shifted_saddle_twins",
            "a wide saddle and its horizontal translate (ratio 1); their zero "
            "sets separate each other, while the levels (2, 0) do not",
            ProblemInstance(
                _quad(wide_saddle, [0.0, 0.0], 1.0),
                _quad(wide_saddle, [1.0, 0.0], 0.0),
            ),
            Expected(
                VERDICT_NONCONVEX,
                pencil_ratio=1.0,
                level_checks=(
                    LevelCheck(0.0, 0.0, True, True),
                    LevelCheck(2.0, 0.0, False, False),
                ),
            ),
        ),
    )


_CASES: tuple[CuratedCase, ...] = _build_cases()


def curated_cases() -> tuple[CuratedCase, ...]:
    return _CASES


def get_case(name: str) -> CuratedCase:
    for case in _CASES:
        if case.name == name:
            return case
    raise KeyError(f"no curated case named {name!r}")


def _row(case: str, check: str, passed: bool, detail: str) -> SuiteRow:
    return SuiteRow(case, check, bool(passed), detail)


def evaluate_case(case: CuratedCase) -> list[SuiteRow]:
    """Re-derive every expectation of one curated case."""
    rows: list[SuiteRow] = []
    inst, exp = case.instance, case.expected

    result = cross_check(inst)
    cert = result.certificate
    rows.append(
        _row(
            case.name,
            "checker_agreement",
            result.agree,
            f"separation={result.separation_verdict} direction={result.flores_bazan_verdict}",
        )
    )
    rows.append(
        _row(case.name, "verdict", cert.verdict == exp.verdict, f"expected {exp.verdict}, got {cert.verdict}")
    )

    if exp.pencil_ratio is not None:
        got = cert.pencil_ratio
        ok = got is not None and abs(got - exp.pencil_ratio) <= _RATIO_TOL * max(1.0, abs(exp.pencil_ratio))
        rows.append(_row(case.name, "pencil_ratio", ok, f"expected {exp.pencil_ratio!r}, got {got!r}"))

    if exp.orientation is not None:
        rows.append(
            _row(
                case.name,
                "orientation",
                cert.orientation == exp.orientation,
                f"expected {exp.orientation:+d}, got {cert.orientation}",
            )
        )

    if exp.final_step is not None:
        got_step = cert.path[-1]["step"] if cert.path else None
        rows.append(
            _row(
                case.name,
                "decision_step",
                got_step == exp.final_step,
                f"expected stop at step {exp.final_step}, got {got_step}",
            )
        )

    if exp.matrix_eigenvalues is not None:
        eigs = None
        for record in cert.path:
            if record.get("check") == "orientation_conditions":
                eigs = np.asarray(record["eigenvalues"])
        ok = eigs is not None and eigs.shape == (len(exp.matrix_eigenvalues),) and bool(
            np.all(np.abs(eigs - np.asarray(exp.matrix_eigenvalues)) <= _EIG_TOL)
        )
        rows.append(
            _row(
                case.name,
                "matrix_eigenvalues",
                ok,
                f"expected {list(exp.matrix_eigenvalues)}, got {None if eigs is None else eigs.tolist()}",
            )
        )

    for lc in exp.level_checks:
        rep = level_pair_separation(inst.f, inst.g, lc.f_level, lc.g_level, inst.tolerances)
        ok = rep.g_separates_f == lc.g_separates_f and rep.f_separates_g == lc.f_separates_g
        rows.append(
            _row(
                case.name,
                f"level_pair({lc.f_level:g},{lc.g_level:g})",
                ok,
                f"expected g_on_f={lc.g_separates_f}/f_on_g={lc.f_separates_g}, "
                f"got {rep.g_separates_f}/{rep.f_separates_g}",
            )
        )

    if exp.verdict == VERDICT_NONCONVEX:
        verification = verify_certificate(inst, cert)
        rows.append(
            _row(
                case.name,
                "witness_valid",
                verification["valid"],
                ", ".join(f"{k}={v}" for k, v in verification.items() if k != "valid"),
            )
        )
    return rows


def run_curated_suite() -> list[SuiteRow]:
    """Evaluate every curated case, in case order."""
    return [row for case in _CASES for row in evaluate_case(case)]


def suite_passed(rows: list[SuiteRow]) -> bool:
    return all(row.passed for row in rows)


def case_file_document(case: CuratedCase) -> dict[str, Any]:
    """The JSON document stored in the repository for one curated case."""
    doc: dict[str, Any] = {"name": case.name, "description": case.description}
    doc.update(problem_to_dict(case.instance))
    return doc
