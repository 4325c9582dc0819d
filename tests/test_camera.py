"""Pinhole camera model: unprojection, projection, coord maps.

Expected values are hand-computed from the conventions:
    coord(u, v) = ((u - cx)/fx, (v - cy)/fy)
    unproject((x, y), d) = (x d, y d, d)
    project((x, y, z))  = (fx x/z + cx, fy y/z + cy)
"""

import re

import numpy as np
import pytest

from reconkit.camera import (
    CoordMap,
    DepthMap,
    Intrinsics,
    PixelVectors,
    check_array,
    check_number,
    coords_from_intrinsics,
    normalize,
    project,
    unproject,
)


def test_unproject_single_coord():
    coords = CoordMap(np.array([[[0.5, -0.25]]]))
    depth = DepthMap(np.array([[2.0]]))
    pm = unproject(coords, depth)
    np.testing.assert_array_equal(pm.values[0, 0], [1.0, -0.5, 2.0])
    assert pm.valid[0, 0]


def test_unproject_optical_axis():
    pm = unproject(CoordMap(np.zeros((1, 1, 2))), DepthMap(np.ones((1, 1))))
    np.testing.assert_array_equal(pm.values[0, 0], [0.0, 0.0, 1.0])


def test_unproject_full_map_from_intrinsics(vga_intrinsics):
    coords = coords_from_intrinsics(vga_intrinsics)
    depth = DepthMap(np.full((480, 640), 1.5))
    pm = unproject(coords, depth)
    np.testing.assert_allclose(pm.values[240, 320], [0.0, 0.0, 1.5], atol=1e-15)
    assert pm.valid.all()


def test_unproject_dimension_mismatch(vga_intrinsics):
    coords = coords_from_intrinsics(vga_intrinsics)
    with pytest.raises(ValueError, match="shape"):
        unproject(coords, DepthMap(np.ones((10, 10))))


@pytest.mark.parametrize(
    "valid, message",
    [
        ([[True, True, True]], "valid marks pixels whose depth is not finite and > 0"),
        ([[False, False, True]], "valid marks pixels whose depth is not finite and > 0"),
        ([[True], [True], [True]], "valid grid shape (3, 1) != depth map shape (1, 3)"),
        ([True, True, True], "valid grid shape (3,) != depth map shape (1, 3)"),
    ],
    ids=["zero-and-nan-depth", "nan-depth", "transposed", "flat"],
)
def test_unproject_refuses_untrusted_valid(valid, message):
    """A valid grid of another shape, or one marking a zero or NaN depth, is refused, not lifted."""
    coords, depth = CoordMap(np.zeros((1, 3, 2))), DepthMap(np.array([[0.0, 1.0, np.nan]]))
    with pytest.raises(ValueError, match=re.escape(message)):
        unproject(coords, depth, np.array(valid))
    assert unproject(coords, depth, np.array([[False, True, False]])).index.tolist() == [1]


def test_invalid_depth_marks_pixels_invalid():
    values = np.array([[1.0, 0.0], [-2.0, np.nan]])
    depth = DepthMap(values)
    assert depth.valid[0, 0]
    assert not depth.valid[0, 1]
    assert not depth.valid[1, 0]
    assert not depth.valid[1, 1]
    pm = unproject(CoordMap(np.zeros((2, 2, 2))), depth)
    np.testing.assert_array_equal(pm.valid, depth.valid)


def test_coords_principal_point(vga_intrinsics):
    coords = coords_from_intrinsics(vga_intrinsics)
    np.testing.assert_array_equal(coords.values[240, 320], [0.0, 0.0])


def test_coords_one_focal_length_right():
    k = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=900, height=480)
    coords = coords_from_intrinsics(k)
    np.testing.assert_allclose(coords.values[240, 820], [1.0, 0.0], atol=1e-15)


def test_coords_substitution():
    k = Intrinsics(fx=600.0, fy=400.0, cx=1e-9, cy=1e-9, width=100, height=100)
    coords = coords_from_intrinsics(k)
    np.testing.assert_allclose(coords.values[40, 60], [0.1, 0.1], atol=1e-12)


def test_coords_are_the_normalized_pixel_positions(rng):
    """The coord map holds `normalize` of each pixel (u, v), bit for bit, over drawn intrinsics."""
    for _ in range(25):
        w, h = (int(n) for n in rng.integers(1, 50, 2))
        k = Intrinsics(fx=rng.uniform(1.0, 900.0), fy=rng.uniform(1.0, 900.0), cx=rng.uniform(0.01, 0.99) * w,
                       cy=rng.uniform(0.01, 0.99) * h, width=w, height=h)
        u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        assert coords_from_intrinsics(k).values.tobytes() == np.stack(normalize(k, u, v), axis=-1).tobytes()
        assert tuple(coords_from_intrinsics(k).values[h - 1, 0]) == normalize(k, 0.0, float(h - 1))


@pytest.mark.parametrize(
    "make,message",
    [(lambda: DepthMap(np.ones((2, 2, 1))), "depth values must be HxW, got shape (2, 2, 1)"),
     (lambda: CoordMap(np.zeros((2, 2, 3))), "coord values must be HxWx2, got shape (2, 2, 3)"),
     (lambda: PixelVectors.from_dense(np.zeros((2, 3, 3)), np.ones((3, 2), dtype=bool)),
      "PixelVectors needs HxWx3 values and an HxW valid grid, got (2, 3, 3), (3, 2)")],
)
def test_raster_shapes_checked(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_project_on_axis(vga_intrinsics):
    np.testing.assert_array_equal(project([0.0, 0.0, 2.0], vga_intrinsics), [320.0, 240.0])


def test_project_substitution(vga_intrinsics):
    np.testing.assert_allclose(
        project([1.0, -0.5, 2.0], vga_intrinsics), [570.0, 115.0], atol=1e-12
    )


def test_project_rejects_nonpositive_depth(vga_intrinsics):
    with pytest.raises(ValueError, match="depth"):
        project([0.0, 0.0, -1.0], vga_intrinsics)
    with pytest.raises(ValueError, match="depth"):
        project([0.0, 0.0, 0.0], vga_intrinsics)


def test_project_unproject_round_trip(vga_intrinsics, rng):
    coords = coords_from_intrinsics(vga_intrinsics)
    us = rng.integers(0, 640, size=1000)
    vs = rng.integers(0, 480, size=1000)
    ds = rng.uniform(0.2, 5.0, size=1000)
    pts = np.stack(
        [coords.values[vs, us, 0] * ds, coords.values[vs, us, 1] * ds, ds], axis=1
    )
    uv = project(pts, vga_intrinsics)
    np.testing.assert_allclose(uv[:, 0], us, atol=1e-9)
    np.testing.assert_allclose(uv[:, 1], vs, atol=1e-9)


def test_perspective_division_reproduces_coords(vga_intrinsics, rng):
    coords = coords_from_intrinsics(vga_intrinsics)
    depth = DepthMap(rng.uniform(0.5, 3.0, size=(480, 640)))
    pm = unproject(coords, depth)
    x_over_z = pm.values[:, :, 0] / pm.values[:, :, 2]
    y_over_z = pm.values[:, :, 1] / pm.values[:, :, 2]
    # (x * d) / d re-rounds twice; equality holds to a couple of ulp
    np.testing.assert_allclose(x_over_z, coords.values[:, :, 0], rtol=0, atol=5e-16)
    np.testing.assert_allclose(y_over_z, coords.values[:, :, 1], rtol=0, atol=5e-16)


def test_unprojection_depth_homogeneity(vga_intrinsics, rng):
    coords = coords_from_intrinsics(vga_intrinsics)
    base = rng.uniform(0.5, 3.0, size=(480, 640))
    lam = 3.7
    pm1 = unproject(coords, DepthMap(base))
    pm2 = unproject(coords, DepthMap(lam * base))
    np.testing.assert_allclose(pm2.values, lam * pm1.values, rtol=1e-12)


@pytest.mark.parametrize(
    "changes,error,message",
    [({"fx": np.inf}, ValueError, "fx must be finite and positive, got inf"),
     ({"fy": np.inf}, ValueError, "fy must be finite and positive, got inf"),
     ({"width": 10.0}, TypeError, "image width: expected an integer, got 10.0"),
     ({"height": True, "cy": 0.5}, TypeError, "image height: expected an integer, got True")],
)
def test_intrinsics_need_finite_focal_lengths_and_integer_sizes(changes, error, message):
    with pytest.raises(error, match=message):
        Intrinsics(**{"fx": 10.0, "fy": 10.0, "cx": 5.0, "cy": 5.0, "width": 10, "height": 10, **changes})


@pytest.mark.parametrize(
    "value,options,error,message",
    [(True, {}, TypeError, "x: expected a number, got True"),
     (np.True_, {}, TypeError, "x: expected a number, got "),
     (False, {"integer": True}, TypeError, "x: expected an integer, got False"),
     (2.0, {"integer": True}, TypeError, "x: expected an integer, got 2.0"),
     ("1", {}, TypeError, "x: expected a number, got '1'"),
     (None, {}, TypeError, "x: expected a number, got None"),
     (float("nan"), {}, ValueError, "x must be finite, got nan"),
     (-np.inf, {}, ValueError, "x must be finite, got -inf"),
     (0, {"ok": lambda v: v > 0, "must": "positive"}, ValueError, "x must be positive, got 0")],
)
def test_check_number_rejects(value, options, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        check_number("x", value, **options)


@pytest.mark.parametrize("value,integer", [(3, True), (np.int64(3), True), (10**400, True), (-2.5, False),
                                           (np.float64(0.5), False), (7, False)])
def test_check_number_returns_the_value(value, integer):
    assert check_number("x", value, integer=integer) is value


@pytest.mark.parametrize(
    "value,error,message",
    [([[1.0, 2.0]], ValueError, "a: expected shape (2, 2), got [[1.0, 2.0]]"),
     ([[1.0, 2.0], [3.0]], ValueError, "a: expected shape (2, 2), got [3.0]"),
     ("ab", ValueError, "a: expected shape (2, 2), got 'ab'"),
     ([[1.0, 2.0], [3.0, [4.0]]], TypeError, "a: expected a number, got [4.0]"),
     ([[1.0, True], [3.0, 4.0]], TypeError, "a: expected a number, got True"),
     ([[1.0, 2.0], [float("nan"), 4.0]], ValueError, "a must be finite, got nan")],
)
def test_check_array_rejects(value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        check_array("a", value, (2, 2))


def test_check_array_reads_every_entry():
    np.testing.assert_array_equal(check_array("a", [[1, 2.5], (3, np.float64(4))], (2, 2)), [[1.0, 2.5], [3.0, 4.0]])
    assert check_array("a", np.arange(3.0), (3,)).dtype == np.float64
    with pytest.raises(ValueError, match=re.escape("a must be positive, got -1.0")):
        check_array("a", [2.0, -1.0], (2,), lambda v: v > 0, "positive")


def test_intrinsics_invariants():
    with pytest.raises(ValueError):
        Intrinsics(fx=-1.0, fy=1.0, cx=1.0, cy=1.0, width=10, height=10)
    with pytest.raises(ValueError):
        Intrinsics(fx=10.0, fy=10.0, cx=20.0, cy=5.0, width=10, height=10)
