"""Benchmark metrics for point maps and camera poses, plus aggregation.

Translation errors are meters, rotation errors radians; a threshold value
like 0.03 means 0.03 m for translation and 0.03 rad for rotation.  Scale
error is relative: |s_pred - s_gt| / s_gt.  Per-sample accuracies are 0/1
indicators that aggregate to dataset fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .camera import POSITIVE, check_number
from .losses import joint_points, normal_angles, normals_from_pointmap, point_loss_flat
from .transforms import RigidTransform, rotation_angle

DEFAULT_RELATIVE_THRESHOLD = 0.03
DEFAULT_ABSOLUTE_THRESHOLD = 0.01


@dataclass(frozen=True)
class PointMapReport:
    point_err: float
    normal_err: float
    scale_err: float

    def __post_init__(self):
        for name, error in vars(self).items():
            check_number(name, error, lambda v: v >= 0, "finite and non-negative")


class _PoseReportBase:
    """Field layout: t_err, r_err, t_acc, r_acc, t_threshold, r_threshold."""

    def __post_init__(self):
        for f in fields(self)[:2]:
            check_number(f.name, getattr(self, f.name), lambda v: v >= 0, "finite and non-negative")
        if not all(0 <= getattr(self, f.name) <= 1 for f in fields(self)[2:4]):
            raise ValueError("accuracies must lie in [0, 1]")
        for f in fields(self)[4:]:
            check_number(f.name, getattr(self, f.name), *POSITIVE)


@dataclass(frozen=True)
class PoseReport(_PoseReportBase):
    rte: float
    rre: float
    rta: float
    rra: float
    t_threshold: float
    r_threshold: float


@dataclass(frozen=True)
class AbsolutePoseReport(_PoseReportBase):
    ate: float
    are: float
    ata: float
    ara: float
    t_threshold: float
    r_threshold: float


@dataclass(frozen=True)
class PoseReports:
    """A binocular scene's pose errors: view 1 relative to view 0, and view 0 in the robot base frame."""

    relative: PoseReport
    absolute: AbsolutePoseReport


def point_map_metrics_views(pairs, pred_scale: float, gt_scale: float) -> PointMapReport:
    """Scale-aligned point error, normal angle error and relative scale error.

    `pairs` yields one (pred, gt) pair of point maps per view.  Each pair is
    read and let go before the next is drawn, so a generator holds one
    view's maps at a time.  One alignment scale is fit jointly over the
    jointly valid pixels of all views, gathered into one (N, 3) array each.
    """
    check_number("ground-truth scale", gt_scale, *POSITIVE)
    joint, angles = [], []
    for p, g in pairs:
        angles.append(normal_angles(normals_from_pointmap(p), normals_from_pointmap(g)))
        joint.append(joint_points(p, g))  # after the normals, so that no copy of the points waits for them
        del p, g
    if not joint:
        raise ValueError("need at least one (pred, gt) pair of point maps")
    pred_flat, gt_flat = (np.concatenate(pts) for pts in zip(*joint))
    del joint  # each view's copy goes before the point loss forms its products
    if pred_flat.shape[0] == 0:
        raise ValueError("no jointly valid pixels across views")
    all_angles = np.concatenate(angles)
    if all_angles.size == 0:
        raise ValueError("no jointly valid normal pairs across views")
    return PointMapReport(
        point_err=point_loss_flat(pred_flat, gt_flat),
        normal_err=float(all_angles.mean()),
        scale_err=abs(pred_scale - gt_scale) / gt_scale,
    )


def _pose_metrics(report, pred: RigidTransform, gt: RigidTransform, t_threshold, r_threshold):
    with np.errstate(over="ignore"):  # past about 1.3e154 m the norm is inf, which the report refuses by name
        t_err = float(np.linalg.norm(pred.translation - gt.translation))
    r_err = rotation_angle(pred.rotation, gt.rotation)
    return report(
        t_err, r_err, float(t_err < t_threshold), float(r_err < r_threshold), t_threshold, r_threshold
    )


def relative_pose_metrics(
    pred: RigidTransform,
    gt: RigidTransform,
    t_threshold: float = DEFAULT_RELATIVE_THRESHOLD,
    r_threshold: float = DEFAULT_RELATIVE_THRESHOLD,
) -> PoseReport:
    """Per-pair RTE/RRE with 0/1 threshold accuracies."""
    return _pose_metrics(PoseReport, pred, gt, t_threshold, r_threshold)


def absolute_pose_metrics(
    pred: RigidTransform,
    gt: RigidTransform,
    t_threshold: float = DEFAULT_ABSOLUTE_THRESHOLD,
    r_threshold: float = DEFAULT_ABSOLUTE_THRESHOLD,
) -> AbsolutePoseReport:
    """ATE/ARE of the camera pose expressed in the robot base frame."""
    return _pose_metrics(AbsolutePoseReport, pred, gt, t_threshold, r_threshold)


def aggregate(reports):
    """Arithmetic mean of every error field; accuracies become fractions.

    Accepts a non-empty list of reports of one type and returns a summary of
    that type: thresholds are copied from the first report, and a field that
    holds a report (as PoseReports' do) is the aggregate of those reports.
    Mixed types are a ValueError; anything that is no dataclass fails in
    `fields` with a TypeError.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    kind = type(reports[0])
    if any(type(r) is not kind for r in reports):
        raise ValueError("cannot aggregate mixed report types")

    def summary(name):
        values = [getattr(r, name) for r in reports]
        if name.endswith("_threshold"):
            return values[0]
        return aggregate(values) if is_dataclass(values[0]) else float(np.mean(values))

    return kind(**{f.name: summary(f.name) for f in fields(kind)})
