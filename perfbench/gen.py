"""Seeded instance generator for the library workloads.

Every dependent pair is built in an orthonormal basis ``[d, V]`` where ``d``
is the direction of the combined gradient ``c = -r*a + b`` and ``V`` spans the
hyperplane ``d'x = 0``.  In that basis ``A = [[corner, k'], [k, W]]`` with the
restricted form ``W`` and the Schur complement ``s = corner - k' W^-1 k``
chosen, so by Haynsworth ``In(A) = In(W) + In(s)`` and the verdict is fixed
by construction: the range is NONCONVEX exactly when ``W`` is definite with
the sign opposite to ``s``.  The eigenvalues of ``W`` and ``s`` have
magnitude at least 0.3, far from every tolerance threshold.

This module is independent of the repository's test fixtures, so editing the
tests never moves the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qrange import ProblemInstance, make_quadratic

NONCONVEX = "NONCONVEX"
CONVEX = "CONVEX"


@dataclass(frozen=True, eq=False)
class Case:
    problem: ProblemInstance
    verdict: str  # known by construction
    family: str
    scale: tuple[float, float]  # factors applied to f and g


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _magnitudes(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.uniform(0.3, 2.0, size=size)


def _with_spectrum(rng: np.random.Generator, spectrum: np.ndarray) -> np.ndarray:
    q = _rotation(rng, spectrum.size)
    return (q * spectrum) @ q.T


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.uniform(-2.0, 2.0, size=(n, n))
    return (m + m.T) / 2.0


def _dependent(
    rng: np.random.Generator, n: int, w_signs: np.ndarray, schur_sign: float, ratio: float, family: str
) -> Case:
    """A pair with ``g.A = ratio * f.A``, built as the module docstring says."""
    q = _rotation(rng, n)
    d = q[:, 0]
    w = _with_spectrum(rng, _magnitudes(rng, n - 1) * w_signs)
    k = rng.uniform(-1.0, 1.0, size=n - 1)
    corner = schur_sign * float(rng.uniform(0.3, 2.0)) + float(k @ np.linalg.solve(w, k))
    block = np.block([[np.array([[corner]]), k[None, :]], [k[:, None], w]])
    a_mat = q @ block @ q.T
    a_mat = (a_mat + a_mat.T) / 2.0
    a = a_mat @ rng.uniform(-1.5, 1.5, size=n)
    b = ratio * a + float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0])) * d
    f = make_quadratic(a_mat, a, float(rng.uniform(-3.0, 3.0)))
    g = make_quadratic(ratio * a_mat, b, float(rng.uniform(-3.0, 3.0)))
    definite = bool(np.all(w_signs > 0) or np.all(w_signs < 0))
    nonconvex = definite and w_signs[0] * schur_sign < 0
    return Case(ProblemInstance(f, g), NONCONVEX if nonconvex else CONVEX, family, (1.0, 1.0))


def certify_case(rng: np.random.Generator, n: int) -> Case:
    """One negative eigenvalue, positive definite restriction: NONCONVEX."""
    return _dependent(rng, n, np.ones(n - 1), -1.0, float(rng.uniform(-3.0, 3.0)), "one_negative_definite")


def _independent(rng: np.random.Generator, n: int) -> Case:
    f = make_quadratic(_random_symmetric(rng, n), rng.uniform(-2.0, 2.0, size=n), float(rng.uniform(-3.0, 3.0)))
    g = make_quadratic(_random_symmetric(rng, n), rng.uniform(-2.0, 2.0, size=n), float(rng.uniform(-3.0, 3.0)))
    return Case(ProblemInstance(f, g), CONVEX, "independent", (1.0, 1.0))


def _rank_deficient(rng: np.random.Generator, n: int) -> Case:
    """Singular A; either a leaves its column space, or a generic b puts c outside it: CONVEX."""
    rank = int(rng.integers(1, n))
    q = _rotation(rng, n)
    spectrum = np.concatenate([_magnitudes(rng, rank) * rng.choice([-1.0, 1.0], size=rank), np.zeros(n - rank)])
    a_mat = (q * spectrum) @ q.T
    a = a_mat @ rng.uniform(-1.5, 1.5, size=n)
    if rng.random() < 0.5:
        a = a + float(rng.uniform(0.3, 1.5)) * q[:, rank + int(rng.integers(0, n - rank))]
    ratio = float(rng.uniform(-3.0, 3.0))
    f = make_quadratic(a_mat, a, float(rng.uniform(-3.0, 3.0)))
    g = make_quadratic(ratio * a_mat, rng.uniform(-2.0, 2.0, size=n), float(rng.uniform(-3.0, 3.0)))
    return Case(ProblemInstance(f, g), CONVEX, "rank_deficient", (1.0, 1.0))


def screen_case(rng: np.random.Generator, n: int, family: int, log10_scale: float) -> Case:
    """One pair of the differential mix (``family`` in 0..19 picks the kind in
    the shares 10:4:3:3), with random role swap and per-function rescaling."""
    if family < 10:
        case = _independent(rng, n)
    elif family < 14:
        ratio = 0.0 if rng.random() < 0.15 else float(rng.uniform(-3.0, 3.0))
        w_signs = rng.choice([-1.0, 1.0], size=n - 1)
        case = _dependent(rng, n, w_signs, float(rng.choice([-1.0, 1.0])), ratio, "dependent")
    elif family < 17:
        case = _rank_deficient(rng, n)
    else:
        w_signs = np.ones(n - 1)
        if n >= 3 and rng.random() < 0.5:
            w_signs[0] = -1.0  # indefinite restriction (schur > 0 keeps one negative eigenvalue)
        schur_sign = -1.0 if w_signs[0] > 0 else 1.0
        case = _dependent(rng, n, w_signs, schur_sign, float(rng.uniform(-3.0, 3.0)), "one_negative")
    p = case.problem
    if rng.random() < 0.25:
        p = ProblemInstance(p.g, p.f)
    s, t = 10.0 ** rng.uniform(-log10_scale, log10_scale, size=2)
    return Case(ProblemInstance(p.f.scaled(s), p.g.scaled(t)), case.verdict, case.family, (float(s), float(t)))


# The pools fix the shares of n and of each kind of pair; the seed draws the
# rest, so runs with different seeds do the same mix of work.


def certify_pool(seed: int, count: int) -> list[Case]:
    """n cycles through 2..8."""
    rng = np.random.default_rng([seed, 1])
    return [certify_case(rng, 2 + i % 7) for i in range(count)]


def screen_pool(seed: int, count: int, log10_scale: float) -> list[Case]:
    """Blocks of 20 pairs in the kind shares, n = 2..6 by block."""
    rng = np.random.default_rng([seed, 2])
    return [screen_case(rng, 2 + (i // 20) % 5, i % 20, log10_scale) for i in range(count)]
