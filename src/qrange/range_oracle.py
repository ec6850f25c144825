"""Empirical corroboration of convexity verdicts by sampling the joint range.

This module never proves anything: it draws domain points, maps them through
``(f, g)``, and looks for uncovered patches strictly inside the convex hull
of the resulting cloud.  A clustered patch suggests a nonconvex range.  Known
false-negative modes (documented, not worked around): holes thinner than the
raster, holes outside the sampled box's image, and ranges whose interesting
geometry is dwarfed by the image of large ``|x|``.

The cloud is generated and evaluated in blocks of 4096 domain points, so
the domain points are never whole and the values do not depend on how many
threads BLAS runs.  Hole detection uses NumPy only, and works on contiguous
columns: the cloud is built with its ``f`` and ``g`` columns contiguous, and
detection copies it once, scaled, into two contiguous rows whatever its
layout, so every pass over ``f`` or ``g`` reads memory in order.  The SVD
that screens out collinear clouds takes one centered copy of it (LAPACK
copies that again).  Quickhull's chord tests and the cell keys run on
blocks of 4096 points, and the cell sort reorders the scaled copy in place,
one row at a time, so no other pass copies the whole cloud.

The hull is an Akl–Toussaint prefilter followed by quickhull; its vertices
run counter-clockwise from the lexicographically smallest one (least ``f``,
then least ``g``), and a vertex closer than ``_COLLINEAR`` (3e-15) times the
cloud's largest absolute coordinate to the line through its two neighbours
is dropped, as Qhull merges such near-collinear vertices.  Coverage sorts
the points once by raster cell and decides each cell center from cells that
lie wholly inside the coverage radius, or else from exact distances to the
points of the cells the radius reaches; clusters are 4-connected runs of
hole cells.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateCloud, InvalidInstance, IoFailure
from .quadratic import ProblemInstance, evaluate_many
from .serialize import csv_row_blocks

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
# counter-based generator keyed by (seed, block index), so the size is part
# of the sampled cloud.  The points are evaluated, and detection's chord
# tests and cell keys computed, in blocks of the same size.
_BLOCK = 4096

# A hull vertex closer than this, times the cloud's largest absolute
# coordinate, to the line through its two neighbours is not a vertex.  Qhull
# merges such near-collinear vertices (grid-mode clouds have many).  Any value
# from 1e-15 to 1e-8 gives Qhull's vertex sets on the curated instances; this
# one, about 14 units of roundoff, also does on clouds far from the origin
# relative to their extent, where larger values drop true vertices.
_COLLINEAR = 3e-15

# Margin, in cells, by which the coverage test widens every cell before it
# decides a center from cell indices alone; it covers the rounding in cell
# assignment and center placement, so those decisions agree with exact
# distances.
_SLACK = 1.0 / 16


class SampleMode(str, Enum):
    UNIFORM = "uniform"
    GRID = "grid"


@dataclass(frozen=True, eq=False)
class RangeSample:
    """A deterministic cloud of joint-range points ``(f(x), g(x))``; ``points`` is not printed."""

    points: np.ndarray = field(metadata={"json": False})
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
    """The hull's vertices counter-clockwise, starting at the lexicographically
    smallest (least ``f``, then least ``g``).  A vertex closer than ``3e-15``
    times the cloud's largest absolute coordinate to the line through its two
    neighbours is dropped."""
    resolution: int
    coverage_radius: float
    largest_cluster: int


def _uniform_block(seed: int, block_index: int, n: int, box: float, rows: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(block_index))))
    return gen.uniform(-box, box, size=(rows, n))


def _grid_side(count: int, n: int) -> int:
    """The least side ``s`` with ``s**n >= count``; the rounded root never exceeds it."""
    side = round(count ** (1.0 / n))
    while side**n < count:
        side += 1
    return side


def _domain_blocks(n: int, box: float, count: int, seed: int, mode: SampleMode) -> Iterator[np.ndarray]:
    """Check the sampling parameters, then yield the domain points in blocks of ``_BLOCK`` rows.

    A lone last row joins the block before it: BLAS evaluates a one-row
    block with a dot product, which rounds differently from the
    matrix-vector kernel that evaluates every other row.
    """
    if count < 1:
        raise InvalidInstance(f"sample count must be positive, got {count}")
    if not (box > 0.0 and math.isfinite(2.0 * box)):
        raise InvalidInstance(f"box half-width must be positive, with a finite width 2*box, got {box}")
    if not 0 <= seed < 2**64:
        raise InvalidInstance(f"sampling seed must lie in [0, 2**64), got {seed}")
    starts = list(range(0, count, _BLOCK))
    if count % _BLOCK == 1 and len(starts) > 1:
        del starts[-1]
    if mode == SampleMode.UNIFORM:

        def rows(start: int, stop: int) -> np.ndarray:
            blocks = range(start // _BLOCK, -(-stop // _BLOCK))
            return np.concatenate([_uniform_block(seed, b, n, box, min(_BLOCK, stop - b * _BLOCK)) for b in blocks])

    else:
        side = _grid_side(count, n)
        axis = np.linspace(-box, box, side) if side > 1 else np.array([0.0])

        def rows(start: int, stop: int) -> np.ndarray:
            idx = np.arange(start, stop)
            coords = np.empty((idx.size, n))
            for k in range(n):
                coords[:, k] = axis[(idx // side ** (n - 1 - k)) % side]
            return coords

    return (rows(start, stop) for start, stop in zip(starts, [*starts[1:], count]))


def domain_points(
    n: int,
    box: float,
    count: int,
    seed: int,
    mode: SampleMode = SampleMode.UNIFORM,
) -> np.ndarray:
    """The ``count`` deterministic domain points for these parameters."""
    return np.concatenate(list(_domain_blocks(n, box, count, seed, mode)), axis=0)


def sample_range(
    p: ProblemInstance,
    box: float,
    count: int,
    seed: int,
    mode: SampleMode = SampleMode.UNIFORM,
) -> RangeSample:
    """Map ``count`` deterministic domain points through ``(f, g)``.

    The points are generated and evaluated one block at a time, so the
    values do not depend on how many threads BLAS runs.  Raises
    :class:`InvalidInstance` when a value overflows to a non-finite float: no
    hull or raster can be built from such a cloud.
    """
    blocks = _domain_blocks(p.n, box, count, seed, mode)
    columns = np.empty((2, count))
    start = 0
    for X in blocks:
        stop = start + X.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            columns[0, start:stop] = evaluate_many(p.f, X)
            columns[1, start:stop] = evaluate_many(p.g, X)
        if not np.isfinite(columns[:, start:stop]).all():
            raise InvalidInstance(f"sampled range values overflow the float range on the box of half-width {box}")
        start = stop
    columns.setflags(write=False)
    # The (m, 2) points keep their f and g columns contiguous.
    return RangeSample(columns.T, p.n, float(box), int(count), int(seed), mode)


def _convex_hull(x: np.ndarray, y: np.ndarray, scale: float) -> np.ndarray:
    """The hull vertices of the points ``(x, y)`` in the order :class:`HoleReport` documents.

    ``scale`` is the cloud's largest absolute coordinate.  Points strictly
    inside the polygon of the extreme points in eight directions cannot be
    vertices and are dropped first (Akl–Toussaint).  Quickhull then splits
    each chord at the candidate farthest outside it; candidates within
    ``tau`` of a chord are not vertices, and neither is a vertex left within
    ``tau`` of the line through its neighbours.
    """
    tau = _COLLINEAR * scale
    # Counter-clockwise by direction: -x, -x-y, -y, x-y, x, x+y, y, y-x.
    extreme = [np.argmin(x), np.argmin(x + y), np.argmin(y), np.argmax(x - y),
               np.argmax(x), np.argmax(x + y), np.argmax(y), np.argmin(x - y)]
    poly = np.column_stack([x[extreme], y[extreme]])
    poly = poly[np.any(poly != np.roll(poly, 1, axis=0), axis=1)]
    candidates = np.arange(x.size)
    if poly.shape[0] >= 3:
        edges = [(px, py, dx, dy, tau * math.hypot(dx, dy)) for (px, py), (dx, dy) in zip(poly, np.roll(poly, -1, axis=0) - poly)]
        outer = np.zeros(x.size, dtype=bool)
        for px, py, dx, dy, h in edges:
            outer |= dx * (y - py) - dy * (x - px) <= h
        candidates = np.flatnonzero(outer)
    # The lexicographically least and greatest candidates; among equal
    # points, the first and the last, as a stable sort would order them.
    cx = x[candidates]
    tied = candidates[cx == cx.min()]
    first = int(tied[np.argmin(y[tied])])
    tied = candidates[cx == cx.max()][::-1]
    last = int(tied[np.argmax(y[tied])])

    def chain(p: int, q: int) -> list[int]:
        # The vertices strictly between p and q, counter-clockwise; a chord's
        # candidates are the points right of it, outside the hull so far.
        out: list[int] = []
        stack: list = [(p, q, candidates)]
        while stack:
            item = stack.pop()
            if isinstance(item, int):
                out.append(item)
                continue
            p, q, c = item
            px, py, dx, dy = x[p], y[p], x[q] - x[p], y[q] - y[p]
            h = tau * math.hypot(dx, dy)
            kept: list = []
            for start in range(0, c.size, _BLOCK):
                cb = c[start : start + _BLOCK]
                outside = dy * (x[cb] - px) - dx * (y[cb] - py)
                keep = outside > h
                kept.append((cb[keep], outside[keep]))
            c, outside = (np.concatenate(part) for part in zip(*kept))
            if c.size:
                m = int(c[np.argmax(outside)])
                stack += [(m, q, c), m, (p, m, c)]
        return out

    vertices = [first, *chain(first, last), last, *chain(last, first)]
    hull = np.column_stack([x[vertices], y[vertices]])
    while hull.shape[0] >= 3:
        prev = np.roll(hull, 1, axis=0)
        chord = np.roll(hull, -1, axis=0) - prev
        outside = chord[:, 1] * (hull[:, 0] - prev[:, 0]) - chord[:, 0] * (hull[:, 1] - prev[:, 1])
        dist = outside / np.hypot(chord[:, 0], chord[:, 1])
        k = int(np.argmin(dist))
        if dist[k] > tau:
            break
        hull = np.delete(hull, k, axis=0)
    if hull.shape[0] < 3:
        raise DegenerateCloud(f"convex hull has {hull.shape[0]} vertices")
    return np.roll(hull, -int(np.lexsort((hull[:, 1], hull[:, 0]))[0]), axis=0)


def _cell_keys(xy: np.ndarray, lo: np.ndarray, cell: np.ndarray, res: int) -> np.ndarray:
    """The raster cell ``i * res + j`` of each point, clamped to the raster, built in one buffer."""
    ij = xy - lo[:, None]
    ij /= cell[:, None]
    np.floor(ij, out=ij)
    np.clip(ij, 0, res - 1, out=ij)
    ij[0] *= res  # exact: the cells number fewer than 2**53
    ij[0] += ij[1]
    return ij[0].astype(np.intp)


def _uncovered(
    xy: np.ndarray, scale: float, lo: np.ndarray, cell: np.ndarray, centers: np.ndarray, inside: np.ndarray, radius: float
) -> np.ndarray:
    """Which ``inside`` raster centers lie farther than ``radius`` from every point.

    ``xy`` holds the points' coordinates as two contiguous rows, which are
    sorted by raster cell in place; ``scale`` is their largest absolute
    value, and ``centers`` holds the raster's center coordinates, ``x`` by
    row index and ``y`` by column index.

    Decides what a nearest-neighbour query does: a center is covered when
    some point has ``sqrt(dx*dx + dy*dy) <= radius``.  A center is covered
    at once when a cell wholly inside the radius holds a point (a
    summed-area table counts them); the others are checked exactly against
    the points of the cells the radius reaches, one contiguous slice of the
    cell-sorted points per raster row.  Offsets are clamped to the raster, so
    the cost is bounded by its size, not by ``radius`` or the aspect ratio.
    """
    res = inside.shape[0]
    key = np.empty(xy.shape[1], dtype=np.intp)
    for start in range(0, key.size, _BLOCK):
        key[start : start + _BLOCK] = _cell_keys(xy[:, start : start + _BLOCK], lo, cell, res)
    counts = np.bincount(key, minlength=res * res)
    order = np.argsort(key)
    del key
    for row in xy:
        row[:] = row[order]
    del order
    bx, by = xy
    start = np.zeros(res * res + 1, dtype=np.intp)
    np.cumsum(counts, out=start[1:])
    occupied = np.zeros((res + 1, res + 1), dtype=np.intp)
    occupied[1:, 1:] = (counts.reshape(res, res) > 0).cumsum(axis=0).cumsum(axis=1)

    # For a row offset d, cells with column offset up to full[d] lie wholly
    # inside the radius and those up to reach[d] may hold a covering point;
    # -1 means none.  Both shrink as d grows.
    cx, cy = float(cell[0]), float(cell[1])
    slack = _SLACK + 4.0 * np.finfo(float).eps * scale / min(cx, cy)
    d = np.arange(res, dtype=float)
    far, near = (d + 0.5 + slack) * cx, np.maximum(d - 0.5 - slack, 0.0) * cx
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.floor(np.sqrt((radius - far) * (radius + far)) / cy - 0.5 - slack)
        reach = np.floor(np.sqrt((radius - near) * (radius + near)) / cy + 0.5 + slack)
    full = np.minimum.accumulate(np.where(far <= radius, np.minimum(full, res - 1), -1).astype(np.intp))
    reach = np.where(near <= radius, np.minimum(reach, res - 1), -1).astype(np.intp)

    idx = np.arange(res)
    covered = np.zeros((res, res), dtype=bool)
    full = full[full >= 0]
    for dd in np.flatnonzero(np.diff(full, append=-1)):
        # Rows within dd and columns within full[dd], the widest such block.
        r0, r1 = np.clip(idx - dd, 0, res)[:, None], np.clip(idx + dd + 1, 0, res)[:, None]
        c0, c1 = np.clip(idx - full[dd], 0, res), np.clip(idx + full[dd] + 1, 0, res)
        covered |= occupied[r1, c1] - occupied[r0, c1] - occupied[r1, c0] + occupied[r0, c0] > 0

    uncovered = inside & ~covered
    ti, tj = np.nonzero(uncovered)
    at_x, at_y = centers[0, ti], centers[1, tj]
    hit = np.zeros(ti.size, dtype=bool)
    for dd in range(np.count_nonzero(reach >= 0)):
        if hit.all():
            break
        w = reach[dd]
        for row in (ti - dd, ti + dd) if dd else (ti,):
            k = np.flatnonzero((row >= 0) & (row < res) & ~hit)
            base = row[k] * res
            lo_i = start[base + np.clip(tj[k] - w, 0, res)]
            n = start[base + np.clip(tj[k] + w + 1, 0, res)] - lo_i
            owner = np.repeat(k, n)
            j = np.arange(owner.size) + np.repeat(lo_i - (np.cumsum(n) - n), n)
            dx, dy = at_x[owner] - bx[j], at_y[owner] - by[j]
            hit[owner[np.sqrt(dx * dx + dy * dy) <= radius]] = True
    uncovered[ti, tj] = ~hit
    return uncovered


def _largest_cluster(grid: np.ndarray) -> int:
    """Cells in the largest 4-connected cluster of ``grid``, by run-length labelling."""
    res = grid.shape[1]
    step = np.diff(grid.astype(np.int8), prepend=0, append=0, axis=1)
    row, begin = np.nonzero(step == 1)
    end = np.nonzero(step == -1)[1]
    if row.size == 0:
        return 0
    # Runs sorted by (row, column); run b in the next row touches run a when
    # it ends after a begins and begins before a ends.
    key = row * (res + 1)
    lo = np.searchsorted(key + end, key + res + 1 + begin, side="right")
    hi = np.searchsorted(key + begin, key + res + 1 + end, side="left")
    n = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(row.size), n)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(n) - n), n)
    # Hook each edge's larger root onto its smaller one, then flatten the
    # trees, until both ends of every edge share a root.
    root = np.arange(row.size)
    while not np.array_equal(root[a], root[b]):
        np.minimum.at(root, np.maximum(root[a], root[b]), np.minimum(root[a], root[b]))
        while not np.array_equal(root[root], root):
            root = root[root]
    return int(np.bincount(root, weights=end - begin).max())


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

    Raises :class:`InvalidInstance` for a resolution below 2, a
    ``coverage_radius`` that is not positive and finite, or a ``min_cluster``
    below 1.  Raises :class:`DegenerateCloud` when the cloud is (numerically)
    collinear; hole detection is undecidable there and callers treating the
    outcome as a verdict should read it as "no hole suspected".
    """
    if resolution < 2:
        raise InvalidInstance(f"resolution must be at least 2, got {resolution}")
    if coverage_radius is not None and not (coverage_radius > 0.0 and math.isfinite(coverage_radius)):
        raise InvalidInstance(f"coverage radius must be positive and finite, got {coverage_radius}")
    if min_cluster < 1:
        raise InvalidInstance(f"minimum cluster size must be at least 1, got {min_cluster}")
    if s.points.shape[0] < 3:
        raise DegenerateCloud("need at least 3 points to form a hull with interior")
    # Work on the cloud divided by the power of two of its largest |coordinate|
    # and scale the results back: both steps are exact, so no decision moves,
    # and cross products neither overflow nor underflow at extreme scales.
    # The scaled cloud is one copy with its f and g columns as contiguous
    # rows, whatever the layout of ``s.points``.
    scale, e = np.frexp(np.maximum(s.points.max(), -s.points.min()))
    scale = float(scale)  # the largest |coordinate| of the scaled cloud
    xy = np.ldexp(s.points.T, -e, order="C")
    spread = np.linalg.svd((xy - xy.mean(axis=1, keepdims=True)).T, compute_uv=False)
    if spread[1] <= 1e-12 * max(spread[0], np.finfo(float).tiny):
        raise DegenerateCloud("sampled range cloud is numerically collinear")
    hull_vertices = _convex_hull(xy[0], xy[1], scale)

    lo, hi = xy.min(axis=1), xy.max(axis=1)
    cell = (hi - lo) / resolution
    cell_diag = float(np.linalg.norm(cell))
    if coverage_radius is None:
        radius = 2.0 * cell_diag
        coverage_radius = float(np.ldexp(radius, e))
    else:
        # A radius that overflows here dwarfs the cloud; inf covers the same centers.
        with np.errstate(over="ignore"):
            radius = float(np.ldexp(coverage_radius, -e))

    centers = lo[:, None] + (np.arange(resolution) + 0.5) * cell[:, None]
    centers_x, centers_y = centers

    # Unit outward facet normals of the counter-clockwise hull, so
    # ``x*nx + y*ny + off`` is the signed distance to each facet line.  It is
    # built one facet at a time from the raster's column and row coordinates
    # with elementwise arithmetic, not a matrix product: BLAS runs a large
    # product on worker threads, whose speed depends on how busy the other
    # cores are.
    edge = np.roll(hull_vertices, -1, axis=0) - hull_vertices
    normals = np.column_stack([edge[:, 1], -edge[:, 0]]) / np.hypot(edge[:, 0], edge[:, 1])[:, None]
    offsets = -np.einsum("ij,ij->i", normals, hull_vertices)
    farthest = np.full((resolution, resolution), -np.inf)
    signed = np.empty_like(farthest)
    for (nx, ny), off in zip(normals.tolist(), offsets.tolist()):
        np.add.outer(centers_x * nx, centers_y * ny, out=signed)
        signed += off
        np.maximum(farthest, signed, out=farthest)
    inside = farthest <= -cell_diag

    uncovered = _uncovered(xy, scale, lo, cell, centers, inside, radius)
    largest = _largest_cluster(uncovered)

    hole_i, hole_j = np.nonzero(uncovered)
    hole_cells = np.ldexp(np.column_stack([centers_x[hole_i], centers_y[hole_j]]), e)
    hull_vertices = np.ldexp(hull_vertices, e)
    hole_cells.setflags(write=False)
    hull_vertices.setflags(write=False)
    return HoleReport(
        suspected_nonconvex=bool(largest >= min_cluster),
        hole_cells=hole_cells,
        hull_vertices=hull_vertices,
        resolution=int(resolution),
        coverage_radius=float(coverage_radius),
        largest_cluster=largest,
    )


def emit_plot_data(s: RangeSample, report: HoleReport | None, path: str) -> list[str]:
    """Write the cloud (and hull/hole sidecars) as CSV files.

    ``path`` names the sample CSV; sidecars take ``_hull`` / ``_holes``
    suffixes before the extension.  Returns the written paths.  Values are
    printed as :func:`~qrange.serialize.format_float` prints them, and each
    file is written as its ``fx,gx`` header, then its rows, one block of
    rows at a time.  Every file's rows are validated before any file is
    opened, so a non-finite value raises :class:`ValueError`, and points
    that are not an ``(m, 2)`` float64 array raise
    :class:`DimensionMismatch`, leaving no file behind.  A file that cannot
    be written raises :class:`IoFailure`; the files written before it, and
    what of it was written, stay.
    """
    root, ext = (path[:-4], path[-4:]) if path.lower().endswith(".csv") else (path, ".csv")
    files = {root + ext: csv_row_blocks(s.points)}
    if report is not None:
        files[f"{root}_hull{ext}"] = csv_row_blocks(report.hull_vertices)
        files[f"{root}_holes{ext}"] = csv_row_blocks(report.hole_cells)
    for name, blocks in files.items():
        try:
            with open(name, "wb") as fh:
                fh.write(b"fx,gx\n")
                fh.writelines(blocks)
        except OSError as exc:
            raise IoFailure(f"cannot write {name!r}: {exc}") from exc
    return list(files)
