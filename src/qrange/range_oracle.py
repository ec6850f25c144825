"""Empirical corroboration of convexity verdicts by sampling the joint range.

This module never proves anything: it draws domain points, maps them through
``(f, g)``, and looks for uncovered patches strictly inside the convex hull
of the resulting cloud.  A clustered patch suggests a nonconvex range.  Known
false-negative modes (documented, not worked around): holes thinner than the
raster, holes outside the sampled box's image, and ranges whose interesting
geometry is dwarfed by the image of large ``|x|``.

SciPy (convex hull, k-d tree, cluster labelling) is imported inside
:func:`detect_holes`, its only user, not at module level.  The package
imports this module, so a module-level import would make ``import qrange``
and every CLI command load SciPy, which takes longer than a whole decision;
only ``sample`` calls :func:`detect_holes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateCloud, DimensionMismatch, InvalidInstance, IoFailure
from .quadratic import ProblemInstance, evaluate_many
from .serialize import format_csv_rows

__all__ = [
    "SampleMode",
    "RangeSample",
    "HoleReport",
    "domain_points",
    "sample_range",
    "detect_holes",
    "emit_plot_data",
]

# Points are generated in fixed-size blocks, each from its own
# counter-based generator keyed by (seed, block index).
_BLOCK = 4096


class SampleMode(str, Enum):
    UNIFORM = "uniform"
    GRID = "grid"


@dataclass(frozen=True, eq=False)
class RangeSample:
    """A deterministic cloud of joint-range points ``(f(x), g(x))``."""

    points: np.ndarray
    dimension: int
    box: float
    count: int
    seed: int
    mode: SampleMode


@dataclass(frozen=True, eq=False)
class HoleReport:
    """Raster evidence of uncovered patches inside the cloud's convex hull."""

    suspected_nonconvex: bool
    hole_cells: np.ndarray
    hull_vertices: np.ndarray
    resolution: int
    coverage_radius: float
    largest_cluster: int


def _uniform_block(seed: int, block_index: int, n: int, box: float, rows: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(block_index))))
    return gen.uniform(-box, box, size=(rows, n))


def _grid_side(count: int, n: int) -> int:
    side = max(1, round(count ** (1.0 / n)))
    while side**n < count:
        side += 1
    while side > 1 and (side - 1) ** n >= count:
        side -= 1
    return side


def domain_points(
    n: int,
    box: float,
    count: int,
    seed: int,
    mode: SampleMode = SampleMode.UNIFORM,
) -> np.ndarray:
    """The ``count`` deterministic domain points for these parameters."""
    if count < 1:
        raise InvalidInstance(f"sample count must be positive, got {count}")
    if not (box > 0.0 and math.isfinite(box)):
        raise InvalidInstance(f"box half-width must be positive and finite, got {box}")

    if mode == SampleMode.UNIFORM:
        parts = [
            _uniform_block(seed, block, n, box, min(_BLOCK, count - block * _BLOCK))
            for block in range(-(-count // _BLOCK))
        ]
        return np.concatenate(parts, axis=0)

    side = _grid_side(count, n)
    axis = np.linspace(-box, box, side) if side > 1 else np.array([0.0])
    idx = np.arange(count)
    coords = np.empty((count, n))
    for k in range(n):
        coords[:, k] = axis[(idx // side ** (n - 1 - k)) % side]
    return coords


def sample_range(
    p: ProblemInstance,
    box: float,
    count: int,
    seed: int,
    mode: SampleMode = SampleMode.UNIFORM,
) -> RangeSample:
    """Map ``count`` deterministic domain points through ``(f, g)``.

    Raises :class:`InvalidInstance` when a value overflows to a non-finite
    float: no hull or raster can be built from such a cloud.
    """
    X = domain_points(p.n, box, count, seed, mode)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = np.column_stack([evaluate_many(p.f, X), evaluate_many(p.g, X)])
    if not np.isfinite(pts).all():
        raise InvalidInstance(f"sampled range values overflow the float range on the box of half-width {box}")
    pts.setflags(write=False)
    return RangeSample(pts, p.n, float(box), int(count), int(seed), mode)


def detect_holes(
    s: RangeSample,
    resolution: int,
    coverage_radius: float | None = None,
    min_cluster: int = 4,
) -> HoleReport:
    """Raster the hull interior and flag clustered cells far from every sample.

    A cell is a *hole cell* when its center sits inside the hull with margin
    at least one cell diagonal and farther than ``coverage_radius`` (default:
    two cell diagonals) from every sample point.  ``suspected_nonconvex`` is
    true when some 4-connected cluster has at least ``min_cluster`` cells —
    single stray cells are sampling noise, not geometry.

    Raises :class:`DegenerateCloud` when the cloud is (numerically) collinear;
    hole detection is undecidable there and callers treating the outcome as a
    verdict should read it as "no hole suspected".
    """
    from scipy import ndimage
    from scipy.spatial import ConvexHull, QhullError, cKDTree

    if resolution < 2:
        raise InvalidInstance(f"resolution must be at least 2, got {resolution}")
    pts = s.points
    if pts.shape[0] < 3:
        raise DegenerateCloud("need at least 3 points to form a hull with interior")
    spread = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if spread[1] <= 1e-12 * max(spread[0], np.finfo(float).tiny):
        raise DegenerateCloud("sampled range cloud is numerically collinear")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateCloud(f"convex hull construction failed: {exc}") from exc

    lo, hi = pts.min(axis=0), pts.max(axis=0)
    cell = (hi - lo) / resolution
    cell_diag = float(np.linalg.norm(cell))
    radius = 2.0 * cell_diag if coverage_radius is None else float(coverage_radius)

    centers_x = lo[0] + (np.arange(resolution) + 0.5) * cell[0]
    centers_y = lo[1] + (np.arange(resolution) + 0.5) * cell[1]
    gx, gy = np.meshgrid(centers_x, centers_y, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])

    # hull.equations rows are (normal, offset) with unit outward normal, so
    # the expression below is the signed distance to each facet.
    signed = centers @ hull.equations[:, :2].T + hull.equations[:, 2]
    inside = np.all(signed <= -cell_diag, axis=1)

    uncovered = np.zeros(centers.shape[0], dtype=bool)
    if np.any(inside):
        dist, _ = cKDTree(pts).query(centers[inside], k=1)
        uncovered[inside] = dist > radius
    grid = uncovered.reshape(resolution, resolution)

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, n_clusters = ndimage.label(grid, structure=structure)
    largest = int(np.bincount(labels.ravel())[1:].max()) if n_clusters else 0

    hole_cells = centers[uncovered]
    hole_cells.setflags(write=False)
    hull_vertices = np.ascontiguousarray(pts[hull.vertices])
    hull_vertices.setflags(write=False)
    return HoleReport(
        suspected_nonconvex=bool(largest >= min_cluster),
        hole_cells=hole_cells,
        hull_vertices=hull_vertices,
        resolution=int(resolution),
        coverage_radius=radius,
        largest_cluster=largest,
    )


def _write_csv(path: str, body: str) -> None:
    """Write the ``fx,gx`` header and the rows :func:`format_csv_rows` built, in one call."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("fx,gx\n" + body)
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc


def emit_plot_data(s: RangeSample, report: HoleReport | None, path: str) -> list[str]:
    """Write the cloud (and hull/hole sidecars) as CSV files.

    ``path`` names the sample CSV; sidecars take ``_hull`` / ``_holes``
    suffixes before the extension.  Returns the written paths.  Values are
    printed as :func:`~qrange.serialize.format_float` prints them.  Every
    file's rows are formatted before any file is opened, so a non-finite
    value raises :class:`ValueError` and leaves no file behind.
    """
    if s.points.ndim != 2 or s.points.shape[1] != 2:
        raise DimensionMismatch("range sample must hold 2-column points")
    root, ext = (path[:-4], path[-4:]) if path.lower().endswith(".csv") else (path, ".csv")
    bodies = {root + ext: format_csv_rows(s.points)}
    if report is not None:
        bodies[f"{root}_hull{ext}"] = format_csv_rows(report.hull_vertices)
        bodies[f"{root}_holes{ext}"] = format_csv_rows(report.hole_cells)
    for name, body in bodies.items():
        _write_csv(name, body)
    return list(bodies)
