"""Sampling oracle: deterministic point streams, hole detection, CSV export."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qrange import (
    DegenerateCloud,
    HoleReport,
    InvalidInstance,
    IoFailure,
    ProblemInstance,
    RangeSample,
    SampleMode,
    detect_holes,
    domain_points,
    emit_plot_data,
    load_problem,
    make_quadratic,
    sample_range,
)
from qrange._csvtext import _BLOCK_ROWS
from qrange.range_oracle import _cell_keys, _grid_side
from qrange.serialize import format_csv_rows
from conftest import annulus_cloud, disk_cloud, near_collinear_cloud, random_symmetric

REPO_ROOT = Path(__file__).resolve().parent.parent
INSTANCES = REPO_ROOT / "instances"
BENCHMARK_INSTANCES = ("saddle_pair_dependent", "tilted_saddle_mutual", "rank_deficient_4d", "bowl_vs_sheet_3d")

# Reads a JSON list of cases ``[[f, g], box, count, seed, mode]`` on stdin and
# prints the sha256 of each case's (2, count) values: from ``sample_range``
# ("blocks"), or from evaluate_many on the whole of domain_points ("whole").
_DIGESTS = """
import hashlib, json, sys
import numpy as np
from qrange import ProblemInstance, SampleMode, domain_points, evaluate_many, make_quadratic, sample_range

out = []
for (f, g), box, count, seed, mode in json.load(sys.stdin):
    p = ProblemInstance(make_quadratic(*f), make_quadratic(*g))
    if sys.argv[1] == "whole":
        X = domain_points(p.n, box, count, seed, SampleMode(mode))
        values = np.stack([evaluate_many(p.f, X), evaluate_many(p.g, X)])
    else:
        values = sample_range(p, box, count, seed, SampleMode(mode)).points.T
    out.append(hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest())
print(json.dumps(out))
"""


def _digests(cases: list, how: str, blas_threads: int) -> list[str]:
    """The digests :data:`_DIGESTS` prints for ``cases`` in a fresh interpreter running BLAS on ``blas_threads`` threads."""
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)), OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS, how], input=json.dumps(cases), capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return json.loads(proc.stdout)


def _random_pair(n: int, seed: int) -> list:
    """The ``[f, g]`` of a random pair in ``n`` variables, as :func:`make_quadratic` arguments."""
    rng = np.random.default_rng([n, seed])
    return [[random_symmetric(rng, n).tolist(), rng.uniform(-2.0, 2.0, n).tolist(), float(rng.uniform(-1.0, 1.0))] for _ in range(2)]


def _traced_peak(fn):
    """``fn()`` and the most memory it held above its entry, as NumPy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def saddle_pair() -> ProblemInstance:
    f = make_quadratic([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
    g = make_quadratic([[-2.0, 0.0], [0.0, 2.0]], [2.0, -1.0], 0.0)
    return ProblemInstance(f, g)


class TestDomainPoints:
    def test_deterministic_regeneration(self):
        a = domain_points(3, 2.0, 5000, seed=42)
        b = domain_points(3, 2.0, 5000, seed=42)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = domain_points(2, 1.0, 100, seed=1)
        b = domain_points(2, 1.0, 100, seed=2)
        assert not np.array_equal(a, b)

    def test_points_inside_box(self):
        pts = domain_points(4, 1.5, 2000, seed=3)
        assert np.all(np.abs(pts) <= 1.5)

    def test_grid_mode_exact_power(self):
        # 27 = 3^3 exactly: the grid must be 3 per axis, no off-by-one
        pts = domain_points(3, 1.0, 27, seed=0, mode=SampleMode.GRID)
        assert pts.shape == (27, 3)
        assert len(np.unique(pts[:, 0])) == 3
        corners = pts[np.all(np.abs(pts) == 1.0, axis=1)]
        assert corners.shape[0] == 8

    def test_grid_side_is_the_least_side_that_holds_count(self):
        for n in range(1, 7):
            for count in range(1, 2001):
                side = _grid_side(count, n)
                assert (side - 1) ** n < count <= side**n, (count, n)

    def test_grid_mode_covers_requested_count(self):
        pts = domain_points(2, 1.0, 10, seed=0, mode=SampleMode.GRID)
        assert pts.shape == (10, 2)

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidInstance):
            domain_points(2, 1.0, 0, seed=0)
        with pytest.raises(InvalidInstance):
            domain_points(2, -1.0, 10, seed=0)

    @pytest.mark.parametrize("mode", list(SampleMode))
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_range_rejected(self, mode, seed):
        with pytest.raises(InvalidInstance, match="seed"):
            domain_points(2, 1.0, 10, seed, mode)

    @pytest.mark.parametrize("mode", list(SampleMode))
    def test_box_whose_width_overflows_rejected(self, mode):
        with pytest.raises(InvalidInstance, match="2\\*box"):
            domain_points(2, 1e308, 10, 0, mode)

    def test_extreme_valid_seed_and_box_accepted(self):
        pts = domain_points(2, 8.9e307, 10, 2**64 - 1)
        assert pts.shape == (10, 2) and np.isfinite(pts).all()


class TestSampleRange:
    def test_shape_and_metadata(self):
        s = sample_range(saddle_pair(), 5.0, 1000, seed=11)
        assert s.points.shape == (1000, 2)
        assert s.dimension == 2
        assert s.box == 5.0
        assert s.seed == 11
        assert s.mode == SampleMode.UNIFORM

    def test_bit_identical_regeneration(self):
        a = sample_range(saddle_pair(), 5.0, 5000, seed=4)
        b = sample_range(saddle_pair(), 5.0, 5000, seed=4)
        assert np.array_equal(a.points, b.points)

    def test_values_match_direct_evaluation(self):
        p = saddle_pair()
        s = sample_range(p, 2.0, 100, seed=9)
        X = domain_points(2, 2.0, 100, seed=9)
        f_vals = np.einsum("ij,jk,ik->i", X, p.f.A, X) + 2.0 * X @ p.f.a + p.f.a0
        assert np.allclose(s.points[:, 0], f_vals, atol=1e-12)

    def test_cloud_does_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a whole-array product of 100,002 rows between two
        # threads at row 50,001; on these two n = 8 pairs the rows next to
        # the split then round differently than on one thread.
        cases = [[_random_pair(8, seed), 3.0, 100_002, 0, "uniform"] for seed in (1, 3)]
        one, *more = (_digests(cases, "blocks", threads) for threads in (1, 2, 4))
        assert all(digests == one for digests in more)

    def test_holds_less_than_twice_its_result(self):
        p = ProblemInstance(*(make_quadratic(*q) for q in _random_pair(4, 0)))
        sample_range(p, 3.0, 10, 0)  # NumPy's random module is imported on first use
        cloud, peak = _traced_peak(lambda: sample_range(p, 3.0, 100_000, 0))
        assert peak < 2 * cloud.points.nbytes


# Counts on both sides of the block seams, a lone row past one (4097, 8193) included.
BLOCK_SEAM_CASES = {
    n: [
        [_random_pair(n, seed), 3.0, count, seed, mode.value]
        for count in (1, 2, 4095, 4096, 4097, 8193, 10003)
        for mode in SampleMode
        for seed in (0, 5, 2**64 - 1)
    ]
    for n in range(1, 9)
}


@pytest.fixture(scope="module")
def whole_array_digests() -> dict[int, list[str]]:
    """The digests of evaluate_many on the whole of domain_points, with BLAS on one thread."""
    digests = iter(_digests([case for cases in BLOCK_SEAM_CASES.values() for case in cases], "whole", 1))
    return {n: [next(digests) for _ in cases] for n, cases in BLOCK_SEAM_CASES.items()}


@pytest.mark.parametrize("n", BLOCK_SEAM_CASES)
def test_blocks_evaluate_as_the_whole_array(n, whole_array_digests):
    for ((f, g), box, count, seed, mode), reference in zip(BLOCK_SEAM_CASES[n], whole_array_digests[n], strict=True):
        cloud = sample_range(ProblemInstance(make_quadratic(*f), make_quadratic(*g)), box, count, seed, SampleMode(mode))
        assert hashlib.sha256(np.ascontiguousarray(cloud.points.T).tobytes()).hexdigest() == reference, (count, seed, mode)


class TestDetectHoles:
    def test_gap_detected_in_split_range(self):
        s = sample_range(saddle_pair(), 5.0, 100_000, seed=0)
        report = detect_holes(s, 200)
        assert report.suspected_nonconvex
        assert report.largest_cluster >= 4
        assert report.hole_cells.shape[1] == 2

    def test_convex_range_clean(self):
        f = make_quadratic(np.diag([1.0, 1.0, 0.0]), np.zeros(3), 0.0)
        g = make_quadratic(np.diag([-1.0, 1.0, 0.0]), [0.0, 0.0, 0.5], 0.0)
        s = sample_range(ProblemInstance(f, g), 5.0, 100_000, seed=0)
        report = detect_holes(s, 200)
        assert not report.suspected_nonconvex

    def test_collinear_cloud_raises(self):
        f = make_quadratic(np.diag([1.0, 1.0]), np.zeros(2), 0.0)
        s = sample_range(ProblemInstance(f, f.scaled(2.0)), 5.0, 1000, seed=0)
        with pytest.raises(DegenerateCloud):
            detect_holes(s, 50)

    def test_resolution_below_two_rejected(self):
        with pytest.raises(InvalidInstance, match="resolution must be at least 2, got 1"):
            detect_holes(annulus_cloud(), 1)

    def test_too_few_points_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        s = RangeSample(pts, 2, 1.0, 2, 0, SampleMode.UNIFORM)
        with pytest.raises(DegenerateCloud):
            detect_holes(s, 10)

    def test_flat_hull_raises(self):
        # Not collinear by the SVD gate, but the apex is closer to the base
        # line than the hull's collinearity margin at this magnitude.
        pts = np.array([[1e10, 1e10], [1e10 + 1.0, 1e10], [1e10 + 0.5, 1e10 + 1e-5]])
        s = RangeSample(pts, 2, 1.0, 3, 0, SampleMode.UNIFORM)
        with pytest.raises(DegenerateCloud, match="2 vertices"):
            detect_holes(s, 10)

    def test_hull_counter_clockwise_from_smallest_vertex(self):
        report = detect_holes(annulus_cloud(), 50)
        v = report.hull_vertices
        assert np.array_equal(v[0], min(v.tolist()))
        edge = np.roll(v, -1, axis=0) - v
        turn = edge[:, 0] * np.roll(edge[:, 1], -1) - edge[:, 1] * np.roll(edge[:, 0], -1)
        assert np.all(turn > 0)

    def test_huge_coverage_radius_covers_everything(self):
        # On the cloud scaled by 2^-60 the radius relative to its size overflows.
        cloud = annulus_cloud()
        for pts in (cloud.points, np.ldexp(cloud.points, -60)):
            report = detect_holes(RangeSample(pts, 2, 3.0, pts.shape[0], 5, SampleMode.UNIFORM), 100, coverage_radius=1e300)
            assert report.hole_cells.shape == (0, 2)
            assert report.largest_cluster == 0
            assert not report.suspected_nonconvex
            assert report.coverage_radius == 1e300

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_coverage_radius_rejected(self, radius):
        with pytest.raises(InvalidInstance, match="coverage radius"):
            detect_holes(disk_cloud(), 20, coverage_radius=radius)

    def test_bad_min_cluster_rejected(self):
        with pytest.raises(InvalidInstance, match="cluster"):
            detect_holes(disk_cloud(), 20, min_cluster=0)

    def test_synthetic_annulus_has_hole(self):
        report = detect_holes(annulus_cloud(), 100)
        assert report.suspected_nonconvex
        assert report.largest_cluster > 20

    def test_synthetic_disk_clean(self):
        report = detect_holes(disk_cloud(), 100)
        assert not report.suspected_nonconvex

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_hull_ends_tied_in_x_and_duplicated(self, zero_first):
        # The least and greatest x are each shared by several points, and the
        # corners (0, 0) and (1, 1) appear more than once, (0, 0) also as
        # (-0.0, -0.0).  The hull starts at the first of the tied corners.
        rng = np.random.default_rng(3)
        zeros = [[-0.0, -0.0], [0.0, 0.0]] if zero_first else [[0.0, 0.0], [-0.0, -0.0]]
        pts = np.array([
            [0.0, 0.5], [1.0, 1.0], zeros[0], [0.0, 1.0], [1.0, 0.25], [0.0, 0.25],
            [1.0, 0.0], zeros[1], [1.0, 1.0], [0.0, 0.0], *rng.uniform(0.1, 0.9, (200, 2)),
        ])
        report = detect_holes(RangeSample(pts, 2, 1.0, pts.shape[0], 0, SampleMode.UNIFORM), 10)
        assert report.hull_vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        assert np.signbit(report.hull_vertices[0]).tolist() == [zero_first, zero_first]

    def test_near_collinear_quickhull_vertex_dropped(self):
        report = detect_holes(near_collinear_cloud(), 10)
        top = 1.0 - 1e-15
        assert report.hull_vertices.tolist() == [[0.0, 0.0], [10.0, 0.0], [9.0, top], [1.0, top]]

    def test_reports_do_not_depend_on_the_layout_of_the_points(self):
        cloud = sample_range(saddle_pair(), 5.0, 20_000, seed=0)
        strided = np.repeat(cloud.points, 2, axis=1)[:, ::2]
        reversed_rows = np.ascontiguousarray(cloud.points[::-1])[::-1]
        layouts = [np.ascontiguousarray(cloud.points), np.asfortranarray(cloud.points), strided, reversed_rows]
        reports = [detect_holes(RangeSample(pts, 2, 5.0, pts.shape[0], 0, SampleMode.UNIFORM), 100) for pts in layouts]
        assert reports[0].suspected_nonconvex
        for report in reports[1:]:
            assert report.largest_cluster == reports[0].largest_cluster
            assert report.coverage_radius == reports[0].coverage_radius
            assert np.array_equal(report.hull_vertices, reports[0].hull_vertices)
            assert np.array_equal(report.hole_cells, reports[0].hole_cells)

    @pytest.mark.parametrize("k", [996, -996])
    def test_power_of_two_scaling_moves_no_decision(self, k):
        # At 2^996 the hull's cross products overflow and at 2^-996 they
        # underflow, unless the cloud is first brought to unit size.
        p = saddle_pair()
        base = detect_holes(sample_range(p, 5.0, 20_000, seed=0), 100)
        cloud = sample_range(ProblemInstance(p.f.scaled(2.0**k), p.g.scaled(2.0**k)), 5.0, 20_000, seed=0)
        with np.errstate(all="raise"):
            report = detect_holes(cloud, 100)
        assert base.largest_cluster > 20 and report.suspected_nonconvex
        assert report.largest_cluster == base.largest_cluster
        assert np.array_equal(report.hole_cells, np.ldexp(base.hole_cells, k))
        assert np.array_equal(report.hull_vertices, np.ldexp(base.hull_vertices, k))
        assert report.coverage_radius == np.ldexp(base.coverage_radius, k)

    @pytest.mark.parametrize("name", BENCHMARK_INSTANCES)
    def test_holds_under_3_75_times_the_cloud(self, name):
        cloud = sample_range(load_problem(str(INSTANCES / f"{name}.json")), 5.0, 100_000, 0)
        detect_holes(disk_cloud(), 20)  # NumPy's linalg module is imported on first use
        _, peak = _traced_peak(lambda: detect_holes(cloud, 200))
        assert peak < 3.75 * cloud.points.nbytes

    @pytest.mark.parametrize("res", [2, 200, 4097])
    def test_cell_keys_are_the_clamped_floor_of_each_point(self, res):
        rng = np.random.default_rng(res)
        xy = rng.uniform(-1.0, 1.0, (2, 5000)) * np.array([[1e-3], [1e3]])
        lo, hi = xy.min(axis=1), xy.max(axis=1)
        cell = (hi - lo) / res
        ij = np.clip(np.floor((xy - lo[:, None]) / cell[:, None]), 0, res - 1).astype(np.intp)
        assert np.array_equal(_cell_keys(xy, lo, cell, res), ij[0] * res + ij[1])


class TestEmitPlotData:
    def test_files_written_and_parse(self, tmp_path):
        s = sample_range(saddle_pair(), 5.0, 5000, seed=1)
        report = detect_holes(s, 60)
        base = tmp_path / "cloud"
        written = emit_plot_data(s, report, str(base))
        assert len(written) == 3
        header = (tmp_path / "cloud.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "fx,gx"
        body = np.loadtxt(tmp_path / "cloud.csv", delimiter=",", skiprows=1)
        assert body.shape == (5000, 2)
        assert np.allclose(body, s.points, atol=1e-12)

    def test_byte_identical_across_runs(self, tmp_path):
        s = sample_range(saddle_pair(), 5.0, 2000, seed=2)
        report = detect_holes(s, 50)
        p1, p2 = tmp_path / "one", tmp_path / "two"
        emit_plot_data(s, report, str(p1))
        emit_plot_data(s, report, str(p2))
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one_holes.csv").read_bytes() == (tmp_path / "two_holes.csv").read_bytes()

    def test_no_hole_report_writes_sample_only(self, tmp_path):
        s = sample_range(saddle_pair(), 5.0, 1000, seed=3)
        written = emit_plot_data(s, None, str(tmp_path / "bare"))
        assert written == [str(tmp_path / "bare.csv")]
        assert not (tmp_path / "bare_hull.csv").exists()
        assert not (tmp_path / "bare_holes.csv").exists()

    def test_files_are_the_header_and_format_csv_rows_across_block_seams(self, tmp_path):
        points = np.random.default_rng(6).uniform(-1e3, 1e3, (2 * _BLOCK_ROWS + 5, 2))
        # rows printed value by value: both sides of the first block seam, and the last
        for at in (_BLOCK_ROWS - 1, _BLOCK_ROWS, len(points) - 1):
            points[at] = [1e-9, -1e20]
        hull = points[[0, _BLOCK_ROWS, -1]]
        report = HoleReport(False, np.empty((0, 2)), hull, 2, 1.0, 0)
        cloud = RangeSample(points, 2, 1.0, len(points), 0, SampleMode.UNIFORM)
        written = emit_plot_data(cloud, report, str(tmp_path / "cloud.csv"))
        for name, rows in zip(written, (points, hull, report.hole_cells), strict=True):
            assert Path(name).read_bytes() == b"fx,gx\n" + format_csv_rows(rows).encode("ascii"), name
        assert Path(written[2]).read_bytes() == b"fx,gx\n"

    def test_missing_directory_is_an_io_failure(self, tmp_path):
        s = sample_range(saddle_pair(), 5.0, 100, seed=4)
        with pytest.raises(IoFailure, match="^cannot write "):
            emit_plot_data(s, None, str(tmp_path / "missing" / "cloud.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_writing_holds_less_than_the_file_it_writes(self, tmp_path):
        cloud = sample_range(load_problem(str(INSTANCES / "saddle_pair_dependent.json")), 5.0, 100_000, 0)
        format_csv_rows(np.zeros((1, 2)))  # the digit tables are built on first use
        _, peak = _traced_peak(lambda: emit_plot_data(cloud, None, str(tmp_path / "cloud.csv")))
        assert peak < (tmp_path / "cloud.csv").stat().st_size
