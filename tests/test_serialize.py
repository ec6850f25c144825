"""Canonical JSON writer: byte stability and float formatting."""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qrange._csvtext import _BLOCK_ROWS
from qrange.errors import DimensionMismatch
from qrange.quadratic import load_problem
from qrange.range_oracle import RangeSample, SampleMode, emit_plot_data, sample_range
from qrange.serialize import canonical_json, format_csv_rows, format_float, jsonable

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


class TestFormatFloat:
    def test_integer_valued_floats_keep_a_decimal_point(self):
        assert format_float(1.0) == "1.0"
        assert format_float(-250.0) == "-250.0"
        assert format_float(0.0) == "0.0"
        assert format_float(-0.0) == "-0.0"
        assert format_float(1e16) == "10000000000000000.0"

    def test_seventeen_significant_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1e17) == "1e+17"
        assert format_float(5e-324) == "4.9406564584124654e-324"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = float(rng.uniform(-1e6, 1e6)) * 10.0 ** float(rng.integers(-12, 12))
            assert float(format_float(x)) == x

    def test_nonfinite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                format_float(bad)


# Values where ".17g" drops the decimal point, switches to exponent form, or
# prints a sign or a subnormal; 99999999999999984.0 is the largest double below
# 1e17, and 99999999999999999.0 rounds to 1e17.
EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 1e16, 1e17, 2.0**52, 2.0**53, 2.0**53 + 2, 1e15 + 0.125, 99999999999999984.0,
    99999999999999999.0, 1e20, 5e-324, 1e300, 1.7976931348623157e308, 1 / 3, -250.0, 1e-5,
    -1e16, -1e17, -(2.0**53), -5e-324, -1e300,
]


def _per_value_csv(rows: np.ndarray) -> str:
    return "".join(f"{format_float(a)},{format_float(b)}\n" for a, b in rows)


class TestFormatCsvRows:
    def test_matches_format_float_per_value(self):
        rows = np.array([[a, b] for a in EDGE_VALUES for b in EDGE_VALUES])
        assert format_csv_rows(rows) == _per_value_csv(rows)

    def test_matches_format_float_over_six_hundred_decades(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
        values[::3] = np.round(values[::3])
        rows = values.reshape(-1, 2)
        assert format_csv_rows(rows) == _per_value_csv(rows)

    def test_empty_rows_give_empty_text(self):
        assert format_csv_rows(np.empty((0, 2))) == ""

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((3, 3)),
            np.zeros(4),
            np.zeros((2, 2, 2)),
            np.zeros((0, 3)),
            np.zeros((2, 2), dtype=np.int64),
            np.zeros((2, 2), dtype=np.float32),
            [[1.0, 2.0]],
        ],
        ids=["three-columns", "vector", "three-axes", "empty-three-columns", "int64", "float32", "list"],
    )
    def test_anything_but_an_m_by_2_float_array_is_a_dimension_mismatch(self, bad):
        with pytest.raises(DimensionMismatch, match=r"\(m, 2\) float64 array"):
            format_csv_rows(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^cannot serialize non-finite value {bad!r}$"):
            format_csv_rows(np.array([[1.0, 2.0], [3.0, bad]]))

    def test_nonfinite_cloud_leaves_no_file(self, tmp_path):
        points = np.array([[0.0, 1.0], [2.0, math.inf], [4.0, 5.0]])
        cloud = RangeSample(points, 2, 1.0, 3, 0, SampleMode.UNIFORM)
        with pytest.raises(ValueError):
            emit_plot_data(cloud, None, str(tmp_path / "cloud.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_three_column_cloud_leaves_no_file(self, tmp_path):
        cloud = RangeSample(np.zeros((3, 3)), 2, 1.0, 3, 0, SampleMode.UNIFORM)
        with pytest.raises(DimensionMismatch):
            emit_plot_data(cloud, None, str(tmp_path / "cloud.csv"))
        assert list(tmp_path.iterdir()) == []


def _rows_of(values) -> np.ndarray:
    """The values, both signs of each, as (m, 2) rows."""
    values = np.asarray(values, dtype=np.float64)
    return np.stack([values, -values], axis=1)


def _ulp_steps(x: float, steps: int) -> list[float]:
    """``x`` and the ``steps`` doubles on each side of it."""
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = float(np.nextafter(up, math.inf)), float(np.nextafter(down, -math.inf))
        out += [up, down]
    return out


class TestCsvDigits:
    """format_csv_rows builds the digits in NumPy; each case compares it with format_float value by value."""

    def test_decade_boundaries_and_four_ulps_around_them(self):
        # Seventeen digits of |x| round up to 10**k only if |x| lies less than
        # 5e-18 (relative) below it; no double lies that close below a power
        # of ten in the fixed-notation window, so no 17-digit integer carries.
        for k in range(-4, 18):
            power, nearest = Fraction(10) ** k, float(f"1e{k}")
            below = nearest if nearest < power else float(np.nextafter(nearest, 0.0))
            assert 1 - Fraction(below) / power > Fraction(5, 10**18), k
        values = [v for k in range(-5, 18) for v in _ulp_steps(float(f"1e{k}"), 4)]
        rows = _rows_of(values)
        assert format_csv_rows(rows) == _per_value_csv(rows)

    def test_seventeenth_digit_ties_round_half_to_even(self):
        # 17 digits leave one decimal in [1e15, 1e16) and two in [1e14, 1e15): x.25, x.75 and
        # 2**49 + 8i/64 (x.125, x.375, ...) are halfway between two 17-digit decimals.
        ties = [1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.125, 1e15 + 0.375, 1e15 + 0.625, 1e15 + 0.875]
        ties += list(2.0**50 + np.arange(1, 40) / 4) + list(2.0**49 + np.arange(1, 64) / 64)
        rows = _rows_of(ties)
        assert format_csv_rows(rows) == _per_value_csv(rows)
        assert format_csv_rows(np.array([[1e15 + 0.25, 1e15 + 0.75]])) == "1000000000000000.2,1000000000000000.8\n"

    def test_carries_into_the_next_decade(self):
        below_1e_4 = float(np.nextafter(1e-4, 0.0))
        values = [99999999999999999.0, 99999999999999984.0, below_1e_4, 1e-4, 0.99999999999999994, 9.9999999999999995]
        values += [float(np.nextafter(10.0**k, 0.0)) for k in range(-4, 18)]
        rows = _rows_of(values)
        assert format_csv_rows(rows) == _per_value_csv(rows)
        assert format_csv_rows(np.array([[99999999999999999.0, below_1e_4]])) == "1e+17,9.9999999999999991e-05\n"

    def test_integral_values_up_to_1e17_and_signed_zeros(self):
        rng = np.random.default_rng(12)
        values = [0.0, -0.0, 1e17, 2.0**56, 2.0**53 - 1, 2.0**53 + 2]
        values += list(rng.integers(0, 10**17, 5_000).astype(np.float64))
        values += list(np.arange(-2_000.0, 2_000.0)) + [float(10**k) * d for k in range(17) for d in (1, 2, 5, 9)]
        rows = _rows_of(values)
        assert format_csv_rows(rows) == _per_value_csv(rows)
        assert format_csv_rows(np.array([[0.0, -0.0]])) == "0.0,-0.0\n"

    def test_log_uniform_draws_from_1e_minus_5_to_1e18(self):
        rng = np.random.default_rng(13)
        values = 10.0 ** rng.uniform(-5.0, 18.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        rows = values.reshape(-1, 2)
        assert format_csv_rows(rows) == _per_value_csv(rows)

    @pytest.mark.parametrize(
        "count", [0, 1, _BLOCK_ROWS // 2 - 1, _BLOCK_ROWS // 2 + 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
    )
    def test_block_boundaries(self, count):
        rows = np.random.default_rng(count).uniform(-1e3, 1e3, (count, 2))
        assert format_csv_rows(rows) == _per_value_csv(rows)
        # rows printed value by value: the first, both sides of the block edge, the last
        for at in {0, _BLOCK_ROWS - 1, _BLOCK_ROWS, count - 1} & set(range(count)):
            rows[at] = [1e-9, 1e20]
        assert format_csv_rows(rows) == _per_value_csv(rows)

    def test_memory_layouts(self):
        rng = np.random.default_rng(15)
        base = rng.uniform(-1e6, 1e6, (_BLOCK_ROWS + 3, 4))
        base[::7, 1] = np.round(base[::7, 1])
        base[5] = [1e20, 1e-7, -1e-300, 0.0]
        read_only = base[:, :2].copy()
        read_only.setflags(write=False)
        layouts = {
            "fortran": np.asfortranarray(base[:, 2:]),
            "transposed": np.ascontiguousarray(base[:, :2].T).T,
            "column-strided": base[:, ::2],
            "row-strided": base[::3, 1:3],
            "reversed": base[::-1, :2],
            "read-only": read_only,
        }
        for name, rows in layouts.items():
            assert format_csv_rows(rows) == _per_value_csv(np.ascontiguousarray(rows)), name

    def test_sampled_cloud_is_read_only_and_prints_per_value(self):
        cloud = sample_range(load_problem(str(INSTANCES / "saddle_pair_dependent.json")), 5.0, 3_000, 0)
        assert not cloud.points.flags.writeable
        assert format_csv_rows(cloud.points) == _per_value_csv(cloud.points)


class TestCanonicalJson:
    def test_keys_sorted(self):
        text = canonical_json({"zebra": 1, "apple": 2})
        assert text.index('"apple"') < text.index('"zebra"')

    def test_numpy_types_handled(self):
        doc = {"vec": np.array([1.0, 2.5]), "n": np.int64(3), "x": np.float64(0.5)}
        parsed = json.loads(canonical_json(doc))
        assert parsed == {"vec": [1.0, 2.5], "n": 3, "x": 0.5}

    def test_byte_stable(self):
        doc = {"a": [1.0, {"b": (2, 3.5)}], "c": None, "d": True}
        assert canonical_json(doc) == canonical_json(doc)

    def test_valid_json_with_trailing_newline(self):
        text = canonical_json({"x": [1, 2, {"y": 0.125}]})
        assert text.endswith("\n")
        assert json.loads(text) == {"x": [1, 2, {"y": 0.125}]}

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings, got 1"):
            canonical_json({1: 0.5})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize object of type set"):
            canonical_json({"x": {1.0}})

    def test_dataclass_prints_its_fields_in_order_less_json_false(self):
        @dataclasses.dataclass
        class Report:
            zeta: np.ndarray
            alpha: tuple
            hidden: object = dataclasses.field(metadata={"json": False})

        doc = jsonable({"report": Report(np.array([1.0]), (np.int64(2), np.bool_(True)), object())})
        assert doc == {"report": {"zeta": [1.0], "alpha": [2, True]}}
        assert list(doc["report"]) == ["zeta", "alpha"]
        assert [type(x) for x in doc["report"]["alpha"]] == [int, bool]

    def test_range_sample_prints_its_parameters_not_its_points(self):
        cloud = RangeSample(np.zeros((3, 2)), 2, 1.0, 3, 7, SampleMode.UNIFORM)
        doc = jsonable(cloud)
        assert doc == {"dimension": 2, "box": 1.0, "count": 3, "seed": 7, "mode": "uniform"}
        assert list(doc) == ["dimension", "box", "count", "seed", "mode"]
        assert type(doc["mode"]) is str  # the enum member's value, which text output prints as is
