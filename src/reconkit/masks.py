"""Per-part mask handling and composition of masked point maps.

Masks are three H x W probability grids (robot, object, background).  A
pixel's label is the argmax over the parts whose probability exceeds the
threshold; ties break by the fixed order robot > object > background.
Label encoding: 0 = invalid, 1 = robot, 2 = object, 3 = background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CoordMap, DepthMap, PointMap, unproject

LABEL_INVALID = 0
LABEL_ROBOT = 1
LABEL_OBJECT = 2
LABEL_BACKGROUND = 3

PART_NAMES = ("robot", "object", "background")


@dataclass(frozen=True, eq=False)
class MaskSet:
    robot: np.ndarray
    object: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        first = None
        for name in PART_NAMES:
            m = np.asarray(getattr(self, name), dtype=float)
            if m.ndim != 2:
                raise ValueError(f"{name} mask must be HxW, got shape {m.shape}")
            if first is None:
                first = m.shape
            elif m.shape != first:
                raise ValueError(f"{name} mask shape {m.shape} != {first}")
            if np.any(m < 0) or np.any(m > 1) or not np.all(np.isfinite(m)):
                raise ValueError(f"{name} mask has entries outside [0, 1]")
            object.__setattr__(self, name, m)

    @property
    def shape(self):
        return self.robot.shape

    def stacked(self) -> np.ndarray:
        """H x W x 3 array in part order (robot, object, background)."""
        return np.stack([self.robot, self.object, self.background], axis=-1)

    @staticmethod
    def from_stacked(arr) -> "MaskSet":
        arr = np.asarray(arr, dtype=float)
        return MaskSet(arr[:, :, 0], arr[:, :, 1], arr[:, :, 2])


@dataclass(frozen=True, eq=False)
class LabeledPointMap:
    """Point map whose valid pixels additionally carry a part label."""

    points: PointMap
    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.uint8)
        if lab.shape != self.points.shape:
            raise ValueError(
                f"label grid shape {lab.shape} != point grid {self.points.shape}"
            )
        object.__setattr__(self, "labels", lab)


def binarize(masks: MaskSet, threshold: float = 0.5) -> np.ndarray:
    """Per-pixel part labels; pixels where no part clears threshold are invalid.

    The maximum and the winning part are taken over the three part planes
    directly; a part wins where it equals the maximum, and among equal
    parts robot beats object beats background, the first-index rule of
    argmax over the stacked (robot, object, background) axis.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    top = np.maximum(np.maximum(masks.robot, masks.object), masks.background)
    labels = np.full(masks.shape, LABEL_BACKGROUND, dtype=np.uint8)
    labels[masks.object == top] = LABEL_OBJECT
    labels[masks.robot == top] = LABEL_ROBOT
    labels[top <= threshold] = LABEL_INVALID
    return labels


def compose_masked_points(
    depth: DepthMap,
    coords: CoordMap,
    masks: MaskSet,
    threshold: float = 0.5,
) -> LabeledPointMap:
    """Unproject and keep only pixels with a valid part label.

    Masking never alters geometry: the surviving points equal plain
    unprojection restricted to the labeled pixels.  Dropped pixels hold
    (0, 0, 0) and label LABEL_INVALID.
    """
    if masks.shape != depth.shape:
        raise ValueError(f"mask shape {masks.shape} != depth shape {depth.shape}")
    points = unproject(coords, depth)
    labels = binarize(masks, threshold)
    labels[~points.valid] = LABEL_INVALID
    keep = labels != LABEL_INVALID
    values = points.values  # a fresh buffer, zero wherever points are invalid
    values[points.valid & ~keep] = 0.0
    return LabeledPointMap(PointMap(values, keep), labels)
