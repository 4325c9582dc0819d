"""Benchmark metrics for point maps and camera poses, plus aggregation.

Translation errors are meters, rotation errors radians; a threshold value
like 0.03 means 0.03 m for translation and 0.03 rad for rotation.  Scale
error is relative: |s_pred - s_gt| / s_gt.  Per-sample accuracies are 0/1
indicators that aggregate to dataset fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .losses import normal_angles, normals_from_pointmap, point_loss_flat
from .transforms import RigidTransform, rotation_angle

DEFAULT_RELATIVE_THRESHOLD = 0.03
DEFAULT_ABSOLUTE_THRESHOLD = 0.01


@dataclass(frozen=True)
class PointMapReport:
    point_err: float
    normal_err: float
    scale_err: float

    def __post_init__(self):
        if min(self.point_err, self.normal_err, self.scale_err) < 0:
            raise ValueError("point map errors must be non-negative")


class _PoseReportBase:
    """Field layout: t_err, r_err, t_acc, r_acc, t_threshold, r_threshold."""

    def __post_init__(self):
        if not all(0 <= getattr(self, f.name) <= 1 for f in fields(self)[2:4]):
            raise ValueError("accuracies must lie in [0, 1]")


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


def point_map_metrics_views(
    pred_views, gt_views, pred_scale: float, gt_scale: float
) -> PointMapReport:
    """Scale-aligned point error, normal angle error and relative scale error.

    One alignment scale is fit jointly over the valid pixels of all views;
    only the jointly valid pixels of each view are gathered.
    """
    if len(pred_views) != len(gt_views) or not pred_views:
        raise ValueError("need equal, non-empty lists of predicted and gt maps")
    if not (gt_scale > 0):
        raise ValueError(f"ground-truth scale must be positive, got {gt_scale}")
    pred_pts, gt_pts, angles = [], [], []
    for p, g in zip(pred_views, gt_views):
        if p.shape != g.shape:
            raise ValueError(f"view shapes differ: {p.shape} vs {g.shape}")
        joint = np.flatnonzero(p.valid & g.valid)
        pred_pts.append(np.take(p.values.reshape(-1, 3), joint, axis=0))
        gt_pts.append(np.take(g.values.reshape(-1, 3), joint, axis=0))
        angles.append(normal_angles(normals_from_pointmap(p), normals_from_pointmap(g)))
    pred_flat = np.concatenate(pred_pts)
    gt_flat = np.concatenate(gt_pts)
    if pred_flat.shape[0] == 0:
        raise ValueError("no jointly valid pixels across views")
    all_angles = np.concatenate(angles)
    return PointMapReport(
        point_err=point_loss_flat(pred_flat, gt_flat),
        normal_err=float(all_angles.mean()) if all_angles.size else 0.0,
        scale_err=abs(pred_scale - gt_scale) / gt_scale,
    )


def _pose_metrics(report, pred: RigidTransform, gt: RigidTransform, t_threshold, r_threshold):
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

    Accepts a non-empty list of PointMapReport, PoseReport or
    AbsolutePoseReport and returns a summary of the same type whose
    thresholds are copied from the first report.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    first = reports[0]
    kind = type(first)
    if any(type(r) is not kind for r in reports):
        raise ValueError("cannot aggregate mixed report types")
    if kind not in (PointMapReport, PoseReport, AbsolutePoseReport):
        raise TypeError(f"cannot aggregate reports of type {kind.__name__}")
    return kind(
        **{
            f.name: getattr(first, f.name)
            if f.name.endswith("_threshold")
            else float(np.mean([getattr(r, f.name) for r in reports]))
            for f in fields(kind)
        }
    )
