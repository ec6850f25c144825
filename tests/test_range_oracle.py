"""Sampling oracle: deterministic point streams, hole detection, CSV export."""

from __future__ import annotations

import numpy as np
import pytest

from qrange import (
    DegenerateCloud,
    InvalidInstance,
    ProblemInstance,
    RangeSample,
    SampleMode,
    detect_holes,
    domain_points,
    emit_plot_data,
    make_quadratic,
    sample_range,
)
from conftest import annulus_cloud, disk_cloud


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

    def test_grid_mode_covers_requested_count(self):
        pts = domain_points(2, 1.0, 10, seed=0, mode=SampleMode.GRID)
        assert pts.shape == (10, 2)

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidInstance):
            domain_points(2, 1.0, 0, seed=0)
        with pytest.raises(InvalidInstance):
            domain_points(2, -1.0, 10, seed=0)


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
