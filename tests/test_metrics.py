"""Point-map and pose metric definitions plus dataset aggregation."""

from dataclasses import asdict, fields

import numpy as np
import pytest

from conftest import random_rigid, random_rotation

from reconkit.camera import PointMap
from reconkit.metrics import (
    AbsolutePoseReport,
    PointMapReport,
    PoseReport,
    PoseReports,
    absolute_pose_metrics,
    aggregate,
    point_map_metrics_views,
    relative_pose_metrics,
)
from reconkit.pnp import solve_pnp
from reconkit.transforms import RigidTransform, relative_pose, rotation_about_axis


def full_map(values):
    values = np.asarray(values, dtype=float)
    return PointMap.from_dense(values, np.ones(values.shape[:2], dtype=bool))


class TestPointMapMetrics:
    def test_perfect(self, rng):
        pm = full_map(rng.uniform(0.5, 2.0, (6, 6, 3)))
        report = point_map_metrics_views([(pm, pm)], pred_scale=1.3, gt_scale=1.3)
        assert report.point_err == 0.0
        assert report.normal_err == 0.0
        assert report.scale_err == 0.0

    def test_spatial_scaling_absorbed(self, rng):
        gt = full_map(rng.uniform(0.5, 2.0, (6, 6, 3)))
        pred = full_map(2.0 * gt.values)
        report = point_map_metrics_views([(pred, gt)], pred_scale=1.0, gt_scale=1.0)
        assert report.point_err < 1e-12  # alignment absorbs the doubling
        assert report.normal_err < 1e-9  # directions preserved
        assert report.scale_err == 0.0

    def test_scale_error_definition(self, rng):
        pm = full_map(rng.uniform(0.5, 2.0, (6, 6, 3)))
        report = point_map_metrics_views([(pm, pm)], pred_scale=1.1, gt_scale=1.0)
        assert abs(report.scale_err - 0.1) < 1e-12

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError, match="^need at least one \\(pred, gt\\) pair of point maps$"):
            point_map_metrics_views(iter(()), pred_scale=1.0, gt_scale=1.0)

    def test_no_jointly_valid_pixel_rejected(self, rng):
        pred = full_map(rng.uniform(0.5, 2.0, (6, 6, 3)))
        gt = PointMap.from_dense(pred.values, np.zeros((6, 6), dtype=bool))
        with pytest.raises(ValueError, match="^no jointly valid pixels across views$"):
            point_map_metrics_views([(pred, gt), (gt, pred)], pred_scale=1.0, gt_scale=1.0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            PointMapReport(point_err=-1.0, normal_err=0.0, scale_err=0.0)

    @pytest.mark.parametrize("errors", [(np.nan, 0.1, 0.0), (0.1, np.nan, 0.0), (0.1, 0.1, np.inf)])
    def test_non_finite_fields_rejected(self, errors):
        with pytest.raises(ValueError, match="finite and non-negative"):
            PointMapReport(*errors)

    @pytest.mark.parametrize("kind", [PoseReport, AbsolutePoseReport])
    @pytest.mark.parametrize("accuracies", [(1.5, 1.0), (1.0, -0.5)])
    def test_pose_accuracies_outside_unit_interval_rejected(self, kind, accuracies):
        with pytest.raises(ValueError, match="accuracies"):
            kind(0.1, 0.1, *accuracies, 0.03, 0.03)


@pytest.mark.parametrize("metrics", [relative_pose_metrics, absolute_pose_metrics])
@pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -0.03])
def test_pose_threshold_must_be_finite_and_positive(metrics, threshold):
    identity = RigidTransform.identity()
    with pytest.raises(ValueError, match="t_threshold must be finite and positive"):
        metrics(identity, identity, threshold, 0.03)
    with pytest.raises(ValueError, match="r_threshold must be finite and positive"):
        metrics(identity, identity, 0.03, threshold)


class TestRelativePoseMetrics:
    def test_perfect(self, rng):
        p = random_rigid(rng)
        r = relative_pose_metrics(p, p, 0.03, 0.03)
        assert (r.rte, r.rre, r.rta, r.rra) == (0.0, 0.0, 1.0, 1.0)

    def test_translation_above_threshold(self):
        gt = RigidTransform.identity()
        pred = RigidTransform(np.eye(3), np.array([0.05, 0.0, 0.0]))
        r = relative_pose_metrics(pred, gt, t_threshold=0.03, r_threshold=0.03)
        assert abs(r.rte - 0.05) < 1e-15
        assert r.rta == 0.0
        assert r.rra == 1.0

    def test_dataset_counting_oracle(self, rng):
        reports = []
        below = 0
        for i in range(10):
            gt = random_rigid(rng)
            off = 0.01 if i < 7 else 0.08
            axis = rng.standard_normal(3)
            pred = RigidTransform(
                gt.rotation @ rotation_about_axis(axis, off),
                gt.translation + off / np.sqrt(3.0),
            )
            reports.append(relative_pose_metrics(pred, gt, 0.03, 0.03))
            if off < 0.03:
                below += 1
        summary = aggregate(reports)
        assert below == 7
        assert abs(summary.rta - 0.7) < 1e-12
        assert abs(summary.rra - 0.7) < 1e-12

    def test_swap_symmetry(self, rng):
        for _ in range(50):
            a, b, a2, b2 = (random_rigid(rng) for _ in range(4))
            fwd = relative_pose_metrics(relative_pose(a, b), relative_pose(a2, b2))
            # swapping the views consistently inverts both relative poses
            rev = relative_pose_metrics(relative_pose(b, a), relative_pose(b2, a2))
            assert abs(fwd.rre - rev.rre) < 1e-9


@pytest.mark.parametrize("report", [PoseReport, AbsolutePoseReport])
@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("error", [float("inf"), float("nan"), -0.1])
def test_pose_report_refuses_a_bad_error(report, index, error):
    """A non-finite or negative translation or rotation error is refused, as a point error is."""
    values = [0.0, 0.0, 1.0, 1.0, 0.03, 0.03]
    values[index] = error
    name = [f.name for f in fields(report)][index]
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative, got {error}"):
        report(*values)


def test_overflowing_translation_error_is_refused():
    """A translation error past the float range is refused by name, without an overflow warning."""
    far = RigidTransform(np.eye(3), np.array([1e200, 0.0, 0.0]))
    with pytest.raises(ValueError, match="rte must be finite and non-negative, got inf"):
        relative_pose_metrics(far, RigidTransform(np.eye(3), np.array([0.0, 1e200, 0.0])))


class TestAbsolutePoseMetrics:
    def test_perfect(self, rng):
        p = random_rigid(rng)
        r = absolute_pose_metrics(p, p)
        assert (r.ate, r.are, r.ata, r.ara) == (0.0, 0.0, 1.0, 1.0)

    def test_rotation_above_threshold(self, rng):
        gt = random_rigid(rng)
        pred = RigidTransform(
            gt.rotation @ rotation_about_axis(rng.standard_normal(3), 0.02),
            gt.translation,
        )
        r = absolute_pose_metrics(pred, gt, t_threshold=0.01, r_threshold=0.01)
        assert r.ara == 0.0
        assert r.ata == 1.0

    def test_pnp_recovered_pose(self, small_bundle):
        view = small_bundle.views[0]
        res = solve_pnp(small_bundle.keypoints_3d, small_bundle.keypoints_2d[0], view.intrinsics)
        report = absolute_pose_metrics(res.extrinsic.inverse(), view.pose_world)
        assert report.ate < 1e-6
        assert report.are < 1e-6


class TestAggregate:
    def test_single_report_identity(self):
        r = PointMapReport(0.1, 0.2, 0.3)
        s = aggregate([r])
        assert (s.point_err, s.normal_err, s.scale_err) == (0.1, 0.2, 0.3)

    def test_two_report_mean(self):
        s = aggregate([PointMapReport(0.1, 0.0, 0.0), PointMapReport(0.3, 0.0, 0.0)])
        assert abs(s.point_err - 0.2) < 1e-15

    def test_recomputation_oracle(self, rng):
        reports = [
            AbsolutePoseReport(
                ate=float(rng.uniform(0, 0.1)),
                are=float(rng.uniform(0, 0.1)),
                ata=float(rng.integers(0, 2)),
                ara=float(rng.integers(0, 2)),
                t_threshold=0.01,
                r_threshold=0.01,
            )
            for _ in range(25)
        ]
        s = aggregate(reports)
        assert abs(s.ate - np.mean([r.ate for r in reports])) < 1e-15
        assert abs(s.ata - np.mean([r.ata for r in reports])) < 1e-15

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate([])

    def test_non_report_error(self):
        with pytest.raises(TypeError):
            aggregate([0.1, 0.2])

    def test_mixed_types_error(self):
        with pytest.raises(ValueError, match="mixed"):
            aggregate([PointMapReport(0, 0, 0), PoseReport(0, 0, 1, 1, 0.03, 0.03)])

    def test_mixed_nested_types_error(self):
        rel, absolute = PoseReport(0, 0, 1, 1, 0.03, 0.03), AbsolutePoseReport(0, 0, 1, 1, 0.01, 0.01)
        with pytest.raises(ValueError, match="mixed"):
            aggregate([PoseReports(rel, absolute), PointMapReport(0, 0, 0)])
        with pytest.raises(ValueError, match="mixed"):
            aggregate([PoseReports(rel, absolute), PoseReports(rel, rel)])

    def test_nested_reports_aggregate_field_wise(self, rng):
        def draw(kind, threshold):
            errors, hits = rng.uniform(0, 0.1, 2).tolist(), rng.integers(0, 2, 2).astype(float).tolist()
            return kind(*errors, *hits, threshold, threshold)

        reports = [PoseReports(draw(PoseReport, 0.03 * (i + 1)), draw(AbsolutePoseReport, 0.01 * (i + 1)))
                   for i in range(7)]
        s = aggregate(reports)
        assert s == PoseReports(aggregate([r.relative for r in reports]), aggregate([r.absolute for r in reports]))
        assert (s.relative.t_threshold, s.absolute.r_threshold) == (0.03, 0.01)

    def test_pose_reports_fields_are_the_eval_pose_row(self):
        rel, absolute = PoseReport(0.1, 0.2, 1, 0, 0.03, 0.03), AbsolutePoseReport(0.3, 0.4, 0, 1, 0.01, 0.01)
        assert asdict(PoseReports(rel, absolute)) == {
            "relative": {"rte": 0.1, "rre": 0.2, "rta": 1, "rra": 0, "t_threshold": 0.03, "r_threshold": 0.03},
            "absolute": {"ate": 0.3, "are": 0.4, "ata": 0, "ara": 1, "t_threshold": 0.01, "r_threshold": 0.01},
        }
