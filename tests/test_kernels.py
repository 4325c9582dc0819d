"""Valid-pixel kernels and copy-free raster I/O against full-frame reference copies.

Each `full_frame_*` function below is the full-frame form the kernel had
before it was restricted to the pixels it keeps.  The kernels must match
them bit for bit (values and validity, compared with `tobytes()`), also for
non-finite inputs, for which both run under `np.errstate(all="ignore")`.
"""

import os
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit.camera import CoordMap, DepthMap, PointMap, unproject
from reconkit.losses import NormalMap, normal_angles, normals_from_pointmap
from reconkit.masks import LABEL_INVALID, MaskSet, binarize, compose_masked_points
from reconkit.oracle import raster
from reconkit.oracle.raster import DTYPE_TAGS, HEADER, MAGIC, TruncatedRasterError, read_raster, write_raster

# ---------------------------------------------------------------------------
# Full-frame reference copies
# ---------------------------------------------------------------------------


def full_frame_normals(points: PointMap) -> NormalMap:
    h, w = points.shape
    v = points.values
    m = points.valid
    normals = np.zeros((h, w, 3))
    ok = np.zeros((h, w), dtype=bool)
    ok[1:-1, 1:-1] = m[1:-1, 1:-1] & m[1:-1, 2:] & m[1:-1, :-2] & m[2:, 1:-1] & m[:-2, 1:-1]
    dx = v[1:-1, 2:] - v[1:-1, :-2]
    dy = v[2:, 1:-1] - v[:-2, 1:-1]
    n = np.cross(dx, dy)
    lengths = np.linalg.norm(n, axis=-1)
    interior_ok = ok[1:-1, 1:-1] & (lengths > 0)
    n = np.where(interior_ok[:, :, None], n / np.where(lengths == 0, 1.0, lengths)[:, :, None], 0.0)
    normals[1:-1, 1:-1] = n
    ok[1:-1, 1:-1] = interior_ok
    return NormalMap(normals, ok)


def full_frame_angles(pred: NormalMap, gt: NormalMap) -> np.ndarray:
    both = pred.valid & gt.valid
    np_, ng = pred.values[both], gt.values[both]
    cross = np.linalg.norm(np.cross(np_, ng), axis=-1)
    dot = np.sum(np_ * ng, axis=-1)
    return np.arctan2(cross, dot)


def full_frame_unproject(coords: CoordMap, depth: DepthMap) -> PointMap:
    d = depth.values
    pts = np.empty(coords.values.shape[:2] + (3,))
    pts[:, :, 0] = coords.values[:, :, 0] * d
    pts[:, :, 1] = coords.values[:, :, 1] * d
    pts[:, :, 2] = d
    pts[~depth.valid] = 0.0
    return PointMap(pts, depth.valid.copy())


def full_frame_binarize(masks: MaskSet, threshold: float) -> np.ndarray:
    probs = masks.stacked()
    labels = (np.argmax(probs, axis=-1) + 1).astype(np.uint8)
    labels[np.max(probs, axis=-1) <= threshold] = LABEL_INVALID
    return labels


def full_frame_compose(depth, coords, masks, threshold):
    points = full_frame_unproject(coords, depth)
    labels = full_frame_binarize(masks, threshold)
    keep = points.valid & (labels != LABEL_INVALID)
    labels = np.where(keep, labels, LABEL_INVALID).astype(np.uint8)
    values = np.where(keep[:, :, None], points.values, 0.0)
    return values, keep, labels


def copying_write_raster(path, array):
    arr = np.asarray(array)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    tag = raster.TAG_FOR_KIND[f"{arr.dtype.kind}{arr.dtype.itemsize}"]
    h, w, c = arr.shape
    payload = np.ascontiguousarray(arr, dtype=DTYPE_TAGS[tag]).tobytes()
    path.write_bytes(HEADER.pack(MAGIC, h, w, c, tag) + payload)


def copying_read_raster(path) -> np.ndarray:
    data = path.read_bytes()
    _, h, w, c, tag = HEADER.unpack_from(data)
    arr = np.frombuffer(data, dtype=DTYPE_TAGS[tag], offset=HEADER.size).reshape(h, w, c)
    if c == 1:
        arr = arr[:, :, 0]
    return arr.copy()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """fn(*args) with numpy errors silenced, or the ValueError it raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except ValueError as exc:
            return exc


def assert_same_normals(got, want):
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
    else:
        assert same_bits(got.values, want.values) and same_bits(got.valid, want.valid)


# ---------------------------------------------------------------------------
# Drawn inputs
# ---------------------------------------------------------------------------

# the kind of point values a drawn map holds
POINT_KINDS = ("random", "grid", "line", "nonfinite")


def drawn_points(rng, h, w, p_valid, kind, fortran=False) -> PointMap:
    """Random point values: `grid` repeats values (duplicate neighbours,
    zero-length normals here and there), `line` puts every point on one
    line (exactly collinear stencils), `nonfinite` puts NaN and +-inf at
    some valid pixels."""
    if kind == "grid":
        values = rng.integers(-2, 3, size=(h, w, 3)) * 0.5
    elif kind == "line":
        steps = np.arange(h)[:, None] + 2 * np.arange(w)[None, :]
        values = rng.integers(-3, 4, size=3) + steps[:, :, None] * rng.integers(-3, 4, size=3)
    else:
        values = rng.standard_normal((h, w, 3)) * rng.uniform(0.1, 10.0)
    if kind == "nonfinite":
        hit = rng.random((h, w, 3)) < 0.05
        values[hit] = rng.choice([np.nan, np.inf, -np.inf], size=hit.sum())
    if fortran:
        values = np.asfortranarray(values)
    return PointMap(values, rng.random((h, w)) < p_valid)


def drawn_normals(rng, h, w, p_valid, kind) -> NormalMap:
    v = rng.standard_normal((h, w, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    if kind == "nonfinite":
        v[rng.random((h, w)) < 0.1] = np.nan
    return NormalMap(v, rng.random((h, w)) < p_valid)


map_sizes = dict(seed=st.integers(0, 2**32 - 1), h=st.integers(3, 30), w=st.integers(3, 40))
validity = st.sampled_from([0.0, 0.4, 0.9, 1.0])


class TestNormals:
    @settings(max_examples=80, deadline=None)
    @given(**map_sizes, p_valid=validity, kind=st.sampled_from(POINT_KINDS), fortran=st.booleans())
    @example(seed=0, h=3, w=3, p_valid=1.0, kind="random", fortran=False)
    @example(seed=1, h=3, w=17, p_valid=1.0, kind="grid", fortran=False)
    @example(seed=2, h=23, w=3, p_valid=0.9, kind="line", fortran=True)
    @example(seed=3, h=30, w=40, p_valid=0.0, kind="random", fortran=False)
    @example(seed=4, h=12, w=9, p_valid=1.0, kind="nonfinite", fortran=False)
    def test_matches_full_frame(self, seed, h, w, p_valid, kind, fortran):
        points = drawn_points(np.random.default_rng(seed), h, w, p_valid, kind, fortran)
        assert_same_normals(
            outcome(normals_from_pointmap, points), outcome(full_frame_normals, points)
        )

    def test_duplicate_neighbours_are_invalid(self):
        values = np.zeros((3, 3, 3))
        values[:, :, 0] = np.arange(3)[None, :]  # every row identical: dy = 0
        normals = normals_from_pointmap(PointMap(values, np.ones((3, 3), bool)))
        assert not normals.valid.any() and not normals.values.any()


class TestNormalAngles:
    @settings(max_examples=60, deadline=None)
    @given(**map_sizes, p_valid=validity, kind=st.sampled_from(["random", "nonfinite"]),
           relation=st.sampled_from(["independent", "equal", "opposite"]))
    @example(seed=0, h=3, w=3, p_valid=0.0, kind="random", relation="independent")
    def test_matches_full_frame(self, seed, h, w, p_valid, kind, relation):
        rng = np.random.default_rng(seed)
        pred = drawn_normals(rng, h, w, p_valid, kind)
        if relation == "independent":
            gt = drawn_normals(rng, h, w, p_valid, kind)
        else:
            sign = 1.0 if relation == "equal" else -1.0
            gt = NormalMap(sign * pred.values, rng.random((h, w)) < p_valid)
        got = outcome(normal_angles, pred, gt)
        assert same_bits(got, outcome(full_frame_angles, pred, gt))

    def test_angles_of_computed_normals(self, small_bundle):
        maps = [unproject(v.coords, v.depth) for v in small_bundle.views]
        pred = normals_from_pointmap(PointMap(maps[0].values * 1.01, maps[0].valid))
        gt = normals_from_pointmap(maps[0])
        assert same_bits(normal_angles(pred, gt), full_frame_angles(pred, gt))


def drawn_depth_coords(rng, h, w, p_valid, huge):
    scale = 1e200 if huge else 1.0
    depth = DepthMap(rng.uniform(-0.5, 3.0, (h, w)) * scale, rng.random((h, w)) < p_valid)
    coords = CoordMap(rng.standard_normal((h, w, 2)) * scale)
    return depth, coords


def drawn_masks(rng, h, w, levels) -> MaskSet:
    """Mask planes on a grid of `levels` values in [0, 1] (exact ties and
    threshold hits when levels is small), with some zeros negated."""
    planes = rng.integers(0, levels, size=(h, w, 3)) / (levels - 1)
    planes[rng.random((h, w, 3)) < 0.1] = -0.0
    return MaskSet.from_stacked(planes)


class TestUnproject:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 30), w=st.integers(1, 40),
           p_valid=validity, huge=st.booleans())
    @example(seed=0, h=1, w=1, p_valid=1.0, huge=False)
    def test_matches_full_frame(self, seed, h, w, p_valid, huge):
        depth, coords = drawn_depth_coords(np.random.default_rng(seed), h, w, p_valid, huge)
        got, want = outcome(unproject, coords, depth), outcome(full_frame_unproject, coords, depth)
        assert same_bits(got.values, want.values) and same_bits(got.valid, want.valid)


class TestBinarizeCompose:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 30), w=st.integers(1, 40),
           levels=st.sampled_from([2, 3, 5, 1001]),
           threshold=st.sampled_from([0.25, 0.5, 0.75, 0.999]))
    def test_binarize_matches_argmax(self, seed, h, w, levels, threshold):
        masks = drawn_masks(np.random.default_rng(seed), h, w, levels)
        assert same_bits(binarize(masks, threshold), full_frame_binarize(masks, threshold))

    @pytest.mark.parametrize(
        "probs,label",
        [
            ((0.6, 0.6, 0.6), 1),  # three-way tie: robot
            ((0.2, 0.7, 0.7), 2),  # object ties background: object
            ((0.7, 0.2, 0.7), 1),  # robot ties background: robot
            ((0.5, 0.5, 0.2), LABEL_INVALID),  # maximum exactly at the threshold
            ((0.75, 0.75, -0.0), 1),
        ],
    )
    def test_ties_and_threshold(self, probs, label):
        masks = MaskSet(*(np.full((1, 1), p) for p in probs))
        assert binarize(masks, 0.5)[0, 0] == label == full_frame_binarize(masks, 0.5)[0, 0]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 30), w=st.integers(1, 40),
           p_valid=validity, levels=st.sampled_from([2, 5, 1001]),
           threshold=st.sampled_from([0.25, 0.5, 0.75]), huge=st.booleans())
    def test_compose_matches_full_frame(self, seed, h, w, p_valid, levels, threshold, huge):
        rng = np.random.default_rng(seed)
        depth, coords = drawn_depth_coords(rng, h, w, p_valid, huge)
        masks = drawn_masks(rng, h, w, levels)
        with np.errstate(all="ignore"):
            got = compose_masked_points(depth, coords, masks, threshold)
            values, keep, labels = full_frame_compose(depth, coords, masks, threshold)
        assert same_bits(got.points.values, values)
        assert same_bits(got.points.valid, keep)
        assert same_bits(got.labels, labels)


class TestRasterIO:
    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "u1", ">f8"])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(0, 12), w=st.integers(0, 12),
           layout=st.sampled_from(["2d", "3d", "fortran"]))
    def test_round_trip_matches_copying_io(self, tmp_path_factory, dtype, channels, seed, h, w, layout):
        rng = np.random.default_rng(seed)
        arr = rng.uniform(0, 255, (h, w, channels)).astype(dtype)
        if layout == "2d":
            arr = arr[:, :, 0]
        if layout == "fortran":
            arr = np.asfortranarray(arr)
        d = tmp_path_factory.mktemp("raster")
        write_raster(d / "new.r3rb", arr)
        copying_write_raster(d / "old.r3rb", arr)
        assert (d / "new.r3rb").read_bytes() == (d / "old.r3rb").read_bytes()
        got = read_raster(d / "new.r3rb")
        assert same_bits(got, copying_read_raster(d / "new.r3rb"))
        assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable
        np.testing.assert_array_equal(got.reshape(arr.shape), arr)

    @pytest.mark.parametrize("dtype,channels", [("<f8", 1), ("<f4", 3), ("u1", 2)])
    def test_truncation_reports_byte_offset(self, tmp_path, dtype, channels):
        path = tmp_path / "r.r3rb"
        write_raster(path, np.ones((3, 4, channels), dtype=dtype))
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            where = f"got {cut} of {HEADER.size} bytes" if cut < HEADER.size else f"at byte {cut},"
            with pytest.raises(TruncatedRasterError, match=where):
                read_raster(path)
        path.write_bytes(data + b"\0")
        with pytest.raises(TruncatedRasterError, match=f"at byte {len(data) + 1},"):
            read_raster(path)

    def test_file_shrinking_after_size_check(self, tmp_path, monkeypatch):
        path = tmp_path / "r.r3rb"
        write_raster(path, np.ones((4, 5)))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
        with pytest.raises(TruncatedRasterError, match=f"at byte {size - 8},"):
            read_raster(path)
