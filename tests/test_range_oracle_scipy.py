"""Hole detection against a SciPy reference: Qhull hull, k-d tree, labelling.

:func:`reference` is hole detection as it stood when it was built from
``scipy.spatial.ConvexHull``, ``cKDTree`` and ``ndimage.label``.  The NumPy
implementation must report the same hole cells and largest cluster, and its
hull rows must be a cyclic rotation of Qhull's.  SciPy is a test dependency
only, so this module is skipped without it.
"""

from __future__ import annotations

import numpy as np
import pytest

from qrange import RangeSample, SampleMode, detect_holes, get_case, sample_range
from conftest import annulus_cloud, disk_cloud

pytest.importorskip("scipy")
from scipy import ndimage  # noqa: E402
from scipy.spatial import ConvexHull, cKDTree  # noqa: E402

# The collinearity constant the HoleReport.hull_vertices docstring documents.
COLLINEAR = 3e-15
C9_INSTANCES = ("saddle_pair_dependent", "tilted_saddle_mutual", "rank_deficient_4d", "bowl_vs_sheet_3d")


def reference(s: RangeSample, resolution: int, radius: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Qhull's hull vertices, the hole cells and the largest 4-connected cluster."""
    pts = s.points
    hull = ConvexHull(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    cell = (hi - lo) / resolution
    cell_diag = float(np.linalg.norm(cell))
    centers_x = lo[0] + (np.arange(resolution) + 0.5) * cell[0]
    centers_y = lo[1] + (np.arange(resolution) + 0.5) * cell[1]
    gx, gy = np.meshgrid(centers_x, centers_y, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    signed = centers @ hull.equations[:, :2].T + hull.equations[:, 2]
    inside = np.all(signed <= -cell_diag, axis=1)
    uncovered = np.zeros(centers.shape[0], dtype=bool)
    if np.any(inside):
        dist, _ = cKDTree(pts).query(centers[inside], k=1)
        uncovered[inside] = dist > radius
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, n_clusters = ndimage.label(uncovered.reshape(resolution, resolution), structure=structure)
    largest = int(np.bincount(labels.ravel())[1:].max()) if n_clusters else 0
    return pts[hull.vertices], centers[uncovered], largest


def assert_rotation_of(ours: np.ndarray, qhull: np.ndarray, tol: float = 0.0) -> None:
    """``ours`` lists Qhull's rows from another start, each row within ``tol``."""
    assert ours.shape == qhull.shape
    start = int(np.argmin(np.abs(qhull - ours[0]).max(axis=1)))
    gap = np.abs(np.roll(qhull, -start, axis=0) - ours).max()
    assert gap <= tol, f"hull rows differ by {gap:.3e}, allowed {tol:.3e}"


def c9_cloud(name: str, mode: str) -> RangeSample:
    return sample_range(get_case(name).instance, 5.0, 100_000, seed=0, mode=SampleMode(mode))


def check_against_reference(s: RangeSample, resolution: int, coverage_radius=None, hull_tol: float = 0.0):
    report = detect_holes(s, resolution, coverage_radius)
    qhull, hole_cells, largest = reference(s, resolution, report.coverage_radius)
    assert np.array_equal(report.hole_cells, hole_cells)
    assert report.largest_cluster == largest
    assert report.suspected_nonconvex == (largest >= 4)
    assert_rotation_of(report.hull_vertices, qhull, hull_tol)


@pytest.mark.parametrize("mode", ["uniform", "grid"])
@pytest.mark.parametrize("name", C9_INSTANCES)
def test_c9_clouds_match_reference(name, mode):
    s = c9_cloud(name, mode)
    # Grid mode on rank_deficient_4d has near-duplicate hull points 1 ulp
    # apart, and Qhull may keep a different one of each pair.
    tol = COLLINEAR * float(np.abs(s.points).max()) if (name, mode) == ("rank_deficient_4d", "grid") else 0.0
    check_against_reference(s, 200, hull_tol=tol)


@pytest.mark.parametrize("cells", [None, 0.3, 1.0, 3.0, 25.0, 1e290])
@pytest.mark.parametrize("cloud", [annulus_cloud, disk_cloud], ids=["annulus", "disk"])
def test_synthetic_clouds_match_reference(cloud, cells):
    s = cloud()
    cell_diag = float(np.linalg.norm(np.ptp(s.points, axis=0) / 100))
    check_against_reference(s, 100, None if cells is None else cells * cell_diag)


def test_cloud_whose_prefilter_finds_two_points_matches_reference():
    # Every one of the eight prefilter directions is extreme at one of the
    # two tips of a thin diamond, each tip held by three equal points, as on
    # rank_deficient_4d; no candidate is dropped before quickhull.
    rng = np.random.default_rng(8)
    u, v = rng.uniform(-1.0, 1.0, (2, 20_000))
    inside = np.column_stack([u, 0.3 * u + 0.1 * v * (1.0 - np.abs(u))])
    tips = np.array([[-1.0, -0.3], [1.0, 0.3]])
    pts = np.vstack([tips, inside, tips, tips[::-1]])
    x, y = pts.T
    extreme = [np.argmin(x), np.argmin(x + y), np.argmin(y), np.argmax(x - y),
               np.argmax(x), np.argmax(x + y), np.argmax(y), np.argmin(x - y)]
    assert np.unique(pts[extreme], axis=0).tolist() == tips.tolist()
    check_against_reference(RangeSample(pts, 2, 1.0, pts.shape[0], 0, SampleMode.UNIFORM), 100)
