"""Curated reference instances: registry, shipped data files, suite rows."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from qrange import (
    case_file_document,
    curated_cases,
    evaluate_case,
    get_case,
    load_problem,
    problem_to_dict,
    run_curated_suite,
    suite_passed,
)
from qrange.serialize import jsonable

REPO_ROOT = Path(__file__).resolve().parent.parent
INSTANCE_DIR = REPO_ROOT / "instances"


class TestRegistry:
    def test_expected_case_names(self):
        names = [case.name for case in curated_cases()]
        assert names == [
            "saddle_pair_dependent",
            "saddle_pair_homogeneous",
            "tilted_saddle_mutual",
            "rank_deficient_4d",
            "bowl_vs_sheet_3d",
            "saddle_with_line_nosplit",
            "saddle_with_line_split",
            "shifted_saddle_twins",
        ]

    def test_get_case_by_name(self):
        case = get_case("rank_deficient_4d")
        assert case.instance.n == 4

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_case("no_such_case")


class TestShippedFiles:
    def test_every_case_has_a_file(self):
        for case in curated_cases():
            assert (INSTANCE_DIR / f"{case.name}.json").is_file()

    def test_files_match_registry_exactly(self):
        for case in curated_cases():
            on_disk = json.loads((INSTANCE_DIR / f"{case.name}.json").read_text(encoding="utf-8"))
            assert on_disk == case_file_document(case), f"{case.name} drifted from the registry"

    def test_files_load_as_problems(self):
        for case in curated_cases():
            p = load_problem(INSTANCE_DIR / f"{case.name}.json")
            assert problem_to_dict(p) == problem_to_dict(case.instance)


class TestSuite:
    def test_all_rows_pass(self):
        rows = run_curated_suite()
        failures = [r for r in rows if not r.passed]
        assert suite_passed(rows), failures

    def test_rows_cover_every_case(self):
        rows = run_curated_suite()
        assert {r.case for r in rows} == {c.name for c in curated_cases()}

    def test_rows_are_jsonable(self):
        row = run_curated_suite()[0]
        doc = jsonable(row)
        assert set(doc) == {"case", "check", "passed", "detail"}

    def test_single_case_evaluation(self):
        rows = evaluate_case(get_case("saddle_pair_dependent"))
        assert all(r.passed for r in rows)
        assert any(r.check == "witness_valid" for r in rows)

    def test_verdict_mix(self):
        # the suite must exercise both verdicts
        verdicts = {}
        for case in curated_cases():
            verdicts[case.name] = case.expected.verdict
        assert "CONVEX" in verdicts.values() and "NONCONVEX" in verdicts.values()
