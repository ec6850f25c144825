"""Canonical JSON writer: byte stability and float formatting."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qrange.range_oracle import RangeSample, SampleMode, emit_plot_data
from qrange.serialize import canonical_json, format_csv_rows, format_float


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
# prints a sign or a subnormal.
EDGE_VALUES = [
    0.0, -0.0, 1e16, 1e17, 2.0**53, 99999999999999999.0, 5e-324, 1e300, 1 / 3, -250.0, 1e-5,
    -1e16, -1e17, -(2.0**53), -5e-324, -1e300,
]


class TestFormatCsvRows:
    def test_matches_format_float_per_value(self):
        rows = np.array([[a, b] for a in EDGE_VALUES for b in EDGE_VALUES])
        expected = "".join(f"{format_float(a)},{format_float(b)}\n" for a, b in rows)
        assert format_csv_rows(rows) == expected

    def test_empty_rows_give_empty_text(self):
        assert format_csv_rows(np.empty((0, 2))) == ""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            format_csv_rows(np.array([[1.0, 2.0], [3.0, bad]]))

    def test_nonfinite_cloud_leaves_no_file(self, tmp_path):
        points = np.array([[0.0, 1.0], [2.0, math.inf], [4.0, 5.0]])
        cloud = RangeSample(points, 2, 1.0, 3, 0, SampleMode.UNIFORM)
        with pytest.raises(ValueError):
            emit_plot_data(cloud, None, str(tmp_path / "cloud.csv"))
        assert list(tmp_path.iterdir()) == []


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
