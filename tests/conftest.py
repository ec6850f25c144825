"""Shared test fixtures and random-instance generators.

The generators below feed the differential and invariance suites.  They are
fully deterministic: every draw comes from a ``numpy.random.Generator``
seeded by the caller, so failures replay exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from qrange import (
    ProblemInstance,
    QuadraticFunction,
    RangeSample,
    SampleMode,
    ToleranceSet,
    compose_affine,
    make_quadratic,
    null_space_basis,
)

# ---------------------------------------------------------------------------
# building blocks


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    m = rng.uniform(-scale, scale, size=(n, n))
    return (m + m.T) / 2.0


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def symmetric_with_spectrum(rng: np.random.Generator, eigenvalues: np.ndarray) -> np.ndarray:
    q = random_rotation(rng, eigenvalues.size)
    return (q * eigenvalues) @ q.T


def quad(rng: np.random.Generator, matrix: np.ndarray, linear: np.ndarray | None = None) -> QuadraticFunction:
    n = matrix.shape[0]
    a = rng.uniform(-2.0, 2.0, size=n) if linear is None else linear
    return make_quadratic(matrix, a, float(rng.uniform(-3.0, 3.0)))


# ---------------------------------------------------------------------------
# the differential-suite generator mix


def _dependent_pair(rng: np.random.Generator, n: int) -> ProblemInstance:
    """Pencil-dependent pair: second matrix a scalar multiple of the first."""
    a_mat = random_symmetric(rng, n)
    lam = float(rng.uniform(-3.0, 3.0)) if rng.random() > 0.15 else 0.0
    return ProblemInstance(quad(rng, a_mat), quad(rng, lam * a_mat))


def _independent_pair(rng: np.random.Generator, n: int) -> ProblemInstance:
    return ProblemInstance(quad(rng, random_symmetric(rng, n)), quad(rng, random_symmetric(rng, n)))


def _rank_deficient_pair(rng: np.random.Generator, n: int) -> ProblemInstance:
    """First matrix singular; its linear term forced into or out of the column space."""
    rank = int(rng.integers(1, n))
    eigs = np.concatenate([rng.uniform(0.3, 2.0, size=rank) * rng.choice([-1.0, 1.0], size=rank), np.zeros(n - rank)])
    q = random_rotation(rng, n)
    a_mat = (q * eigs) @ q.T
    in_range = a_mat @ rng.uniform(-1.5, 1.5, size=n)
    if rng.random() < 0.5:
        linear = in_range
    else:
        null_dir = q[:, rank + int(rng.integers(0, n - rank))]
        linear = in_range + float(rng.uniform(0.3, 1.5)) * null_dir
    lam = float(rng.uniform(-3.0, 3.0))
    f = make_quadratic(a_mat, linear, float(rng.uniform(-3.0, 3.0)))
    return ProblemInstance(f, quad(rng, lam * a_mat))


def _one_negative_pair(rng: np.random.Generator, n: int) -> ProblemInstance:
    """One negative eigenvalue; the restricted form on the combined-gradient
    hyperplane forced semidefinite or indefinite."""
    want_psd = rng.random() < 0.5
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    v_basis = null_space_basis(direction)
    if want_psd:
        restricted = symmetric_with_spectrum(rng, rng.uniform(0.0, 2.0, size=n - 1))
    else:
        spec = rng.uniform(0.3, 2.0, size=n - 1) * rng.choice([-1.0, 1.0], size=n - 1)
        spec[0] = -abs(spec[0])
        spec[-1] = abs(spec[-1])
        restricted = symmetric_with_spectrum(rng, spec)
    corner = float(rng.uniform(-4.0, -1.0))
    cross = rng.uniform(-1.0, 1.0, size=n - 1)
    basis = np.column_stack([direction, v_basis])
    block = np.zeros((n, n))
    block[0, 0] = corner
    block[0, 1:] = cross
    block[1:, 0] = cross
    block[1:, 1:] = restricted
    a_mat = basis @ block @ basis.T
    a_mat = (a_mat + a_mat.T) / 2.0
    lam = float(rng.uniform(-3.0, 3.0))
    a_lin = a_mat @ rng.uniform(-1.5, 1.5, size=n)
    c_half = direction * float(rng.uniform(0.3, 2.0))
    b_lin = lam * a_lin + c_half
    f = make_quadratic(a_mat, a_lin, float(rng.uniform(-3.0, 3.0)))
    g = make_quadratic(lam * a_mat, b_lin, float(rng.uniform(-3.0, 3.0)))
    return ProblemInstance(f, g)


def random_instance(rng: np.random.Generator, n: int | None = None) -> ProblemInstance:
    """One instance from the differential mix.

    Half the draws have a dependent pencil (kinds a, c, d); the other half
    have independent matrices (kind b).  A random role swap exercises the
    argument-order path.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    u = rng.random()
    if u < 0.5:
        p = _independent_pair(rng, n)
    elif u < 0.7:
        p = _dependent_pair(rng, n)
    elif u < 0.85:
        p = _rank_deficient_pair(rng, n)
    else:
        p = _one_negative_pair(rng, n)
    if rng.random() < 0.25:
        p = ProblemInstance(p.g, p.f, p.tolerances)
    return p


def differential_batch(seed: int, count: int) -> list[ProblemInstance]:
    rng = np.random.default_rng(seed)
    return [random_instance(rng) for _ in range(count)]


def singular_nonconvex_pair(rng: np.random.Generator) -> ProblemInstance:
    """A NONCONVEX pair whose shared matrix is singular.

    ``A`` has size ``n`` in [3, 6], rank in [2, n-1] and one negative
    eigenvalue.  ``f`` has linear term ``a = A y``; ``g`` has matrix ``r A``
    and linear term ``r a + c`` with ``c = A w`` and ``w'Aw < 0``.  So both
    linear terms lie in the column space of ``A``, and ``A`` is positive
    semidefinite on ``{c'x = 0}``.
    """
    n = int(rng.integers(3, 7))
    rank = int(rng.integers(2, n))
    negative = -float(rng.uniform(0.3, 2.0))
    positive = rng.uniform(0.3, 2.0, size=rank - 1)
    q = random_rotation(rng, n)
    a_mat = (q * np.concatenate([[negative], positive, np.zeros(n - rank)])) @ q.T
    # In eigen-coordinates, w'Aw = negative + sum(positive * z**2) <= negative / 2.
    z = rng.uniform(-1.0, 1.0, size=rank - 1) * np.sqrt(-negative / (2.0 * (rank - 1) * positive))
    w = q @ np.concatenate([[1.0], z, rng.uniform(-1.0, 1.0, size=n - rank)])
    a_lin = a_mat @ rng.uniform(-1.5, 1.5, size=n)
    r = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
    f = make_quadratic(a_mat, a_lin, float(rng.uniform(-3.0, 3.0)))
    g = make_quadratic(r * a_mat, r * a_lin + a_mat @ w, float(rng.uniform(-3.0, 3.0)))
    return ProblemInstance(f, g)


# ---------------------------------------------------------------------------
# invariance-transform generator


def transformed_instance(rng: np.random.Generator, p: ProblemInstance) -> ProblemInstance:
    """Random range-preserving-up-to-invertible-affine-map transform:
    invertible variable substitution, nonzero value scalings, constant
    shifts, and argument order swap."""
    n = p.n
    t_mat = random_rotation(rng, n) * rng.uniform(0.4, 2.5, size=n) * rng.choice([-1.0, 1.0], size=n)
    q_shift = rng.uniform(-2.0, 2.0, size=n)
    s = _nonzero_uniform(rng)
    t = _nonzero_uniform(rng)
    c1 = float(rng.uniform(-5.0, 5.0))
    c2 = float(rng.uniform(-5.0, 5.0))
    f = compose_affine(p.f, t_mat, q_shift).scaled(s).add_constant(c1)
    g = compose_affine(p.g, t_mat, q_shift).scaled(t).add_constant(c2)
    if rng.random() < 0.5:
        f, g = g, f
    return ProblemInstance(f, g, p.tolerances)


def _nonzero_uniform(rng: np.random.Generator, low: float = -10.0, high: float = 10.0) -> float:
    while True:
        value = float(rng.uniform(low, high))
        if abs(value) > 1e-3:
            return value


# ---------------------------------------------------------------------------
# synthetic range clouds for hole detection


def annulus_cloud() -> RangeSample:
    """20000 points uniform in angle and radius on the annulus 2 <= r <= 3."""
    rng = np.random.default_rng(5)
    angle = rng.uniform(0, 2 * np.pi, 20_000)
    radius = rng.uniform(2.0, 3.0, 20_000)
    pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return RangeSample(pts, 2, 3.0, pts.shape[0], 5, SampleMode.UNIFORM)


def disk_cloud() -> RangeSample:
    """20000 points uniform on the disk of radius 3."""
    rng = np.random.default_rng(6)
    angle = rng.uniform(0, 2 * np.pi, 20_000)
    radius = np.sqrt(rng.uniform(0.0, 1.0, 20_000)) * 3.0
    pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return RangeSample(pts, 2, 3.0, pts.shape[0], 6, SampleMode.UNIFORM)


def near_collinear_cloud() -> RangeSample:
    """Seven points whose top edge holds (5, 1), 1e-15 above the chord from (1, 1-1e-15) to (9, 1-1e-15).

    Quickhull splits the top chord at (5, 1), its farthest point, and keeps
    it; the hull's post-pass drops it, since it lies within the collinearity
    margin of the line through its neighbours.  Qhull drops it too.
    """
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [1.0, 1.0 - 1e-15], [5.0, 1.0], [9.0, 1.0 - 1e-15], [5.0, 0.5], [3.0, 0.3]])
    return RangeSample(pts, 2, 1.0, pts.shape[0], 0, SampleMode.UNIFORM)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def default_tolerances() -> ToleranceSet:
    return ToleranceSet()
