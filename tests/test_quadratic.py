"""Quadratic-function data model, evaluation, algebra, and JSON I/O."""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest

from qrange import (
    AsymmetricInput,
    DimensionMismatch,
    InvalidInstance,
    ProblemInstance,
    QuadraticFunction,
    ToleranceSet,
    compose_affine,
    evaluate,
    evaluate_many,
    load_problem,
    make_quadratic,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)


def saddle() -> QuadraticFunction:
    return make_quadratic([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)


class TestMakeQuadratic:
    def test_stores_symmetrized_matrix(self):
        f = make_quadratic([[1.0, 2.0], [2.0, 3.0]], [0.5, -0.5], 1.5)
        assert np.array_equal(f.A, [[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(f.a, [0.5, -0.5])
        assert f.a0 == 1.5

    def test_small_asymmetry_averaged(self):
        eps = 1e-12
        f = make_quadratic([[1.0, 2.0 + eps], [2.0 - eps, 3.0]], [0.0, 0.0], 0.0)
        assert f.A[0, 1] == f.A[1, 0] == pytest.approx(2.0, abs=1e-15)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(AsymmetricInput):
            make_quadratic([[1.0, 2.0], [0.0, 3.0]], [0.0, 0.0], 0.0)

    @pytest.mark.parametrize("eps", [1.0, 1e-6, 1e-11, 1e-20, 2.0**-500])
    def test_asymmetry_rejected_at_every_scale(self, eps):
        # The test is relative to ||M||_F alone: a tiny matrix is not exempt.
        with pytest.raises(AsymmetricInput):
            make_quadratic([[0.0, eps], [0.0, 0.0]], [0.0, 0.0], 0.0)

    @pytest.mark.parametrize("factor", [2.0**-500, 2.0**-100, 1.0, 2.0**100, 2.0**500])
    def test_small_asymmetry_averaged_at_every_scale(self, factor):
        eps = 1e-12
        M = factor * np.array([[1.0, 2.0 + eps], [2.0 - eps, 3.0]])
        f = make_quadratic(M, [0.0, 0.0], 0.0)
        assert f.A[0, 1] == f.A[1, 0] == (M[0, 1] + M[1, 0]) / 2.0

    def test_huge_asymmetry_rejected_without_overflow(self):
        # The Frobenius norm of M itself overflows to inf here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AsymmetricInput, match="exceeds tolerance"):
                make_quadratic([[1e200, 1e200], [0.0, 1e200]], [0.0, 0.0], 0.0)
            f = make_quadratic([[1e200, 1e200], [1e200, 1e200]], [0.0, 0.0], 0.0)
        assert np.array_equal(f.A, np.full((2, 2), 1e200))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_quadratic(np.eye(3), [1.0, 2.0], 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInstance):
            make_quadratic([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
        with pytest.raises(InvalidInstance):
            make_quadratic(np.eye(2), [np.inf, 0.0], 0.0)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_quadratic(np.ones((2, 3)), [0.0, 0.0], 0.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionMismatch, match="dimension must be at least 1"):
            make_quadratic(np.zeros((0, 0)), np.zeros(0), 0.0)

    def test_arrays_read_only(self):
        f = saddle()
        with pytest.raises(ValueError):
            f.A[0, 0] = 5.0


class TestEvaluation:
    def test_linear_coefficient_is_half_the_gradient(self):
        # value at x must be x'Ax + 2 a'x + a0
        f = make_quadratic(np.zeros((2, 2)), [1.0, -0.5], 0.25)
        assert evaluate(f, np.array([1.0, 1.0])) == pytest.approx(2.0 * 1.0 - 2.0 * 0.5 + 0.25)

    def test_pure_quadratic(self):
        f = saddle()
        assert evaluate(f, np.array([3.0, 2.0])) == pytest.approx(-9.0 + 4.0)

    def test_evaluate_many_matches_pointwise(self):
        rng = np.random.default_rng(7)
        f = make_quadratic(rng.uniform(-1, 1, (3, 3)) + np.eye(3) if False else _rand_sym(rng, 3), rng.uniform(-1, 1, 3), 0.7)
        pts = rng.uniform(-2, 2, size=(40, 3))
        batch = evaluate_many(f, pts)
        single = np.array([evaluate(f, p) for p in pts])
        assert np.allclose(batch, single, atol=1e-12)

    def test_evaluate_many_is_the_einsum_bit_for_bit(self):
        # The three-operand einsum is the reference: evaluate_many sums its
        # terms in the einsum's order, on any layout of the points.
        rng = np.random.default_rng(31)
        for draw in range(320):
            n = int(rng.integers(1, 9))
            f = make_quadratic(_rand_sym(rng, n) * 10.0 ** rng.uniform(-6, 6), rng.uniform(-1, 1, n), rng.uniform(-1, 1))
            base = rng.standard_normal((int(rng.integers(1, 400)), 2 * n)) * 10.0 ** rng.uniform(-6, 6)
            base[rng.random(base.shape) < 0.05] = -0.0
            layouts = (
                np.ascontiguousarray(base[:, :n]),
                np.asfortranarray(base[:, :n]),
                base[:, ::2],  # strided rows and columns
                base[::-1, n:],  # reversed rows
            )
            X = layouts[draw % 4]
            if draw % 3 == 0:
                X.setflags(write=False)
            expected = np.einsum("ij,jk,ik->i", X, f.A, X) + 2.0 * (X @ f.a) + f.a0
            assert np.array_equal(evaluate_many(f, X).view(np.int64), expected.view(np.int64)), draw

    @pytest.mark.parametrize("n", range(1, 13))
    def test_evaluate_is_the_matmul_expression_bit_for_bit(self, n):
        # evaluate calls the kernels of x @ A @ x + 2 (a @ x) + a0 with less
        # wrapping; its value must keep every bit, at every common scale of
        # the coefficients.  On every layout of x, strided, reversed or
        # broadcast, the bits are those of the contiguous copy.
        rng = np.random.default_rng(40 + n)
        for exponent in range(-500, 501, 50):
            s = 2.0**exponent
            for _ in range(25):
                f = make_quadratic(s * _rand_sym(rng, n), s * rng.uniform(-1, 1, n), s * rng.uniform(-1, 1))
                base = rng.standard_normal(3 * n) * 10.0 ** rng.uniform(-3, 3)
                layouts = (
                    base[:n].copy(),
                    base[::3],  # strided
                    base[n - 1 :: -1],  # reversed
                    np.broadcast_to(base[0], (n,)),  # stride 0
                )
                for x in layouts:
                    y = np.ascontiguousarray(x)
                    expected = float(y @ f.A @ y + 2.0 * (f.a @ y) + f.a0)
                    assert evaluate(f, x).hex() == expected.hex(), (exponent, x)

    def test_evaluate_rejects_a_point_of_the_wrong_shape(self):
        f = saddle()
        for x in (np.zeros(3), np.zeros((2, 1)), np.array(1.0), 1.0):
            with pytest.raises(DimensionMismatch, match="expected \\(2,\\)"):
                evaluate(f, x)

    @pytest.mark.parametrize("X", [np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2))])
    def test_evaluate_many_rejects_points_of_the_wrong_shape(self, X):
        with pytest.raises(DimensionMismatch, match="expected \\(m, 2\\)"):
            evaluate_many(saddle(), X)

    def test_callable_protocol(self):
        f = saddle()
        assert f(np.array([2.0, 0.0])) == pytest.approx(-4.0)


def _rand_sym(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    return (m + m.T) / 2


class TestAlgebra:
    def test_compose_affine_pointwise(self):
        rng = np.random.default_rng(11)
        f = make_quadratic(_rand_sym(rng, 3), rng.uniform(-1, 1, 3), 1.2)
        t_mat = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
        shift = rng.uniform(-1, 1, 3)
        composed = compose_affine(f, t_mat, shift)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            assert evaluate(composed, x) == pytest.approx(evaluate(f, t_mat @ x + shift), abs=1e-10)

    @pytest.mark.parametrize("T, t", [(np.eye(3), np.zeros(2)), (np.eye(2), np.zeros(3)), (np.zeros(2), np.zeros(2))])
    def test_compose_affine_rejects_mismatched_substitution(self, T, t):
        with pytest.raises(DimensionMismatch, match="do not match n=2"):
            compose_affine(saddle(), T, t)

    def test_scaled_and_shifted(self):
        f = saddle()
        x = np.array([1.0, 2.0])
        assert evaluate(f.scaled(-3.0), x) == pytest.approx(-3.0 * evaluate(f, x))
        assert evaluate(f.add_constant(4.0), x) == pytest.approx(evaluate(f, x) + 4.0)


class TestToleranceSet:
    def test_defaults(self, default_tolerances):
        d = default_tolerances.to_dict()
        assert d["tol_sym"] == 1e-10
        assert d["tol_dep"] == 1e-9
        assert d["tol_eig"] == 1e-9
        assert d["tol_rank"] == 1e-9
        assert d["tol_psd"] == 1e-9
        assert d["tol_residual"] == 1e-7

    def test_replace(self, default_tolerances):
        # dataclasses.replace overrides one field and reruns the range checks.
        t = dataclasses.replace(default_tolerances, tol_dep=1e-6)
        assert t.tol_dep == 1e-6
        assert t.tol_eig == default_tolerances.tol_eig
        with pytest.raises(InvalidInstance):
            dataclasses.replace(default_tolerances, tol_psd=1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInstance):
            ToleranceSet(tol_dep=0.0)
        with pytest.raises(InvalidInstance):
            ToleranceSet(tol_eig=1.0)


class TestProblemInstance:
    def test_dimension_consistency_enforced(self):
        f2 = saddle()
        g3 = make_quadratic(np.eye(3), np.zeros(3), 0.0)
        with pytest.raises(DimensionMismatch):
            ProblemInstance(f2, g3)

    def test_swapped_exchanges_roles(self):
        f = saddle()
        g = make_quadratic(np.eye(2), [1.0, 0.0], 2.0)
        p = ProblemInstance(f, g).swapped()
        assert p.f is g and p.g is f


class TestJsonRoundTrip:
    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(5)
        p = ProblemInstance(
            make_quadratic(_rand_sym(rng, 3), rng.uniform(-1, 1, 3), 0.125),
            make_quadratic(_rand_sym(rng, 3), rng.uniform(-1, 1, 3), -2.5),
            ToleranceSet(tol_dep=1e-8),
        )
        path = tmp_path / "instance.json"
        save_problem(p, path, include_tolerances=True)
        q = load_problem(path)
        assert np.array_equal(p.f.A, q.f.A)
        assert np.array_equal(p.g.a, q.g.a)
        assert p.g.a0 == q.g.a0
        assert q.tolerances.tol_dep == 1e-8

    def test_dict_shape(self):
        p = ProblemInstance(saddle(), saddle())
        doc = problem_to_dict(p)
        assert doc["linear_convention"] == "half"
        assert doc["n"] == 2
        assert set(doc["f"]) == {"A", "a", "a0"}

    def test_wrong_convention_rejected(self):
        p = ProblemInstance(saddle(), saddle())
        doc = problem_to_dict(p)
        doc["linear_convention"] = "full"
        with pytest.raises(InvalidInstance):
            problem_from_dict(doc)

    def test_unknown_tolerance_rejected(self):
        p = ProblemInstance(saddle(), saddle())
        doc = problem_to_dict(p)
        doc["tolerances"] = {"tol_bogus": 1e-9}
        with pytest.raises(InvalidInstance):
            problem_from_dict(doc)

    @pytest.mark.parametrize("n", [2.5, "2", True, None, [2]])
    def test_non_integer_dimension_rejected(self, n):
        doc = problem_to_dict(ProblemInstance(saddle(), saddle()))
        doc["n"] = n
        with pytest.raises(InvalidInstance, match="must be an integer"):
            problem_from_dict(doc)

    def test_numpy_integer_dimension_accepted(self):
        doc = problem_to_dict(ProblemInstance(saddle(), saddle()))
        doc["n"] = np.int64(2)
        assert problem_from_dict(doc).n == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: [doc], "must be a JSON object"),
            (lambda doc: {**doc, "n": 0}, "dimension must be positive, got 0"),
            (lambda doc: {**doc, "n": -1}, "dimension must be positive, got -1"),
            (lambda doc: {**doc, "tolerances": [1e-9]}, "'tolerances' must be an object"),
            (lambda doc: {**doc, "tolerances": {"tol_eig": "x"}}, "bad tolerances"),
            (lambda doc: {**doc, "g": {"A": doc["g"]["A"], "a": doc["g"]["a"]}}, "bad quadratic entry for 'g'"),
            (lambda doc: {**doc, "f": {**doc["f"], "A": [[1.0, 0.0]]}}, "'f' has shapes A\\(1, 2\\)"),
        ],
    )
    def test_malformed_document_rejected(self, change, message):
        doc = problem_to_dict(ProblemInstance(saddle(), saddle()))
        with pytest.raises(InvalidInstance, match=message):
            problem_from_dict(change(doc))

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidInstance):
            problem_from_dict({"f": {"A": [[1.0]], "a": [0.0], "a0": 0.0}})

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises((InvalidInstance, json.JSONDecodeError)):
            load_problem(path)
