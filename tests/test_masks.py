"""Mask binarization and masked point-map composition."""

import re

import numpy as np
import pytest

from reconkit.camera import CoordMap, DepthMap, unproject
from reconkit.masks import (
    LABEL_BACKGROUND,
    LABEL_INVALID,
    LABEL_OBJECT,
    LABEL_ROBOT,
    LabeledPointMap,
    MaskSet,
    binarize,
    compose_masked_points,
)


def _uniform_masks(h, w, robot=0.0, obj=0.0, background=0.0):
    return MaskSet(
        robot=np.full((h, w), robot),
        object=np.full((h, w), obj),
        background=np.full((h, w), background),
    )


def test_binarize_certain_robot():
    labels = binarize(_uniform_masks(2, 2, robot=1.0), 0.5)
    assert (labels == LABEL_ROBOT).all()


def test_binarize_nothing_clears_threshold():
    labels = binarize(_uniform_masks(2, 2, robot=0.1, obj=0.1, background=0.1), 0.5)
    assert (labels == LABEL_INVALID).all()


def test_binarize_argmax_wins():
    labels = binarize(_uniform_masks(1, 1, robot=0.6, obj=0.7, background=0.1), 0.5)
    assert labels[0, 0] == LABEL_OBJECT


def test_binarize_tie_breaks_by_part_order():
    labels = binarize(_uniform_masks(1, 1, robot=0.8, obj=0.8, background=0.8), 0.5)
    assert labels[0, 0] == LABEL_ROBOT


def test_binarize_threshold_range():
    with pytest.raises(ValueError, match="threshold"):
        binarize(_uniform_masks(1, 1), 1.0)


def test_mask_entries_validated():
    with pytest.raises(ValueError, match="outside"):
        MaskSet(robot=np.full((1, 1), 1.5), object=np.zeros((1, 1)), background=np.zeros((1, 1)))


@pytest.mark.parametrize(
    "make,message",
    [(lambda: MaskSet(np.zeros((2, 2, 1)), np.zeros((2, 2)), np.zeros((2, 2))),
      "robot mask must be HxW, got shape (2, 2, 1)"),
     (lambda: MaskSet(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3))), "background mask shape (2, 3) != (2, 2)"),
     (lambda: LabeledPointMap(unproject(CoordMap(np.zeros((2, 2, 2))), DepthMap(np.ones((2, 2)))), np.zeros((2, 3))),
      "label grid shape (2, 3) != point grid (2, 2)")],
)
def test_shapes_checked(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_compose_all_masks_zero(rng):
    h, w = 4, 5
    depth = DepthMap(rng.uniform(1.0, 2.0, (h, w)))
    coords = CoordMap(rng.standard_normal((h, w, 2)))
    out = compose_masked_points(depth, coords, _uniform_masks(h, w))
    assert out.points.valid.sum() == 0
    assert (out.labels == LABEL_INVALID).all()


def test_compose_equals_unprojection_on_labeled_pixels(rng):
    h, w = 6, 7
    depth = DepthMap(rng.uniform(1.0, 2.0, (h, w)))
    coords = CoordMap(rng.standard_normal((h, w, 2)))
    robot = (rng.random((h, w)) < 0.4).astype(float)
    obj = np.where(robot == 0, (rng.random((h, w)) < 0.5).astype(float), 0.0)
    masks = MaskSet(robot=robot, object=obj, background=np.zeros((h, w)))
    out = compose_masked_points(depth, coords, masks)
    plain = unproject(coords, depth)
    keep = out.points.valid
    np.testing.assert_array_equal(out.points.values[keep], plain.values[keep])
    np.testing.assert_array_equal(keep, (robot + obj) > 0.5)
    assert set(np.unique(out.labels[keep])) <= {LABEL_ROBOT, LABEL_OBJECT}


def test_compose_respects_depth_holes():
    depth = DepthMap(np.array([[1.0, 0.0]]))
    coords = CoordMap(np.zeros((1, 2, 2)))
    masks = _uniform_masks(1, 2, robot=1.0)
    out = compose_masked_points(depth, coords, masks)
    assert out.points.valid[0, 0]
    assert not out.points.valid[0, 1]
    assert out.labels[0, 1] == LABEL_INVALID


def test_compose_dimension_mismatch(rng):
    depth = DepthMap(np.ones((2, 2)))
    coords = CoordMap(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="shape"):
        compose_masked_points(depth, coords, _uniform_masks(3, 3, robot=1.0))


def test_part_permutation_leaves_point_set_unchanged(rng):
    h, w = 5, 5
    depth = DepthMap(rng.uniform(1.0, 2.0, (h, w)))
    coords = CoordMap(rng.standard_normal((h, w, 2)))
    a = (rng.random((h, w)) < 0.3).astype(float)
    b = np.where(a == 0, (rng.random((h, w)) < 0.4).astype(float), 0.0)
    c = np.where(a + b == 0, 1.0, 0.0)
    out1 = compose_masked_points(depth, coords, MaskSet(robot=a, object=b, background=c))
    out2 = compose_masked_points(depth, coords, MaskSet(robot=b, object=c, background=a))
    np.testing.assert_array_equal(out1.points.valid, out2.points.valid)
    np.testing.assert_array_equal(out1.points.values, out2.points.values)
    # labels permute with the parts
    assert (out2.labels[out1.labels == LABEL_ROBOT] == LABEL_BACKGROUND).all()


def test_compose_on_oracle_scene_equals_restriction(small_bundle):
    # perfect masks/depth/coords: composition is exactly plain unprojection
    # restricted to the labeled pixels
    view = small_bundle.views[0]
    out = compose_masked_points(view.depth, view.coords, view.masks, 0.5)
    plain = unproject(view.coords, view.depth)
    labels = binarize(view.masks, 0.5)
    keep = plain.valid & (labels != LABEL_INVALID)
    np.testing.assert_array_equal(out.points.valid, keep)
    np.testing.assert_array_equal(out.points.values[keep], plain.values[keep])
    np.testing.assert_array_equal(out.labels[keep], labels[keep])


def test_point_count_bounded_and_single_label(rng):
    h, w = 8, 8
    depth_vals = rng.uniform(1.0, 2.0, (h, w))
    depth_vals[0, :] = -1.0  # invalid row
    depth = DepthMap(depth_vals)
    coords = CoordMap(rng.standard_normal((h, w, 2)))
    masks = _uniform_masks(h, w, robot=0.9)
    out = compose_masked_points(depth, coords, masks)
    assert out.points.valid.sum() <= depth.valid.sum()
    assert (out.labels[out.points.valid] == LABEL_ROBOT).all()
