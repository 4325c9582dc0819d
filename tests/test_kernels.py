"""Valid-pixel kernels, ray kernels and copy-free raster I/O against reference copies.

Each `full_frame_*` function below is the full-frame form the kernel had
before it was restricted to the pixels it keeps.  The kernels must match
them bit for bit (values and validity, compared with `tobytes()`), also for
non-finite inputs, for which both run under `np.errstate(all="ignore")`.

Each `scalar_*` function recomputes one ray kernel for a single pixel in
plain Python floats (`math.sqrt`), in the kernel's order of operations.
Every element a kernel returns, and every depth `render` returns, must equal
that recomputation bit for bit.
"""

import math
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reconkit.camera import CoordMap, DepthMap, PointMap, coords_from_intrinsics, unproject
from reconkit.losses import NormalMap, normal_angles, normals_from_pointmap
from reconkit.masks import (LABEL_BACKGROUND, LABEL_INVALID, LABEL_OBJECT, LABEL_ROBOT, MaskSet, binarize,
                            compose_masked_points)
from reconkit.oracle import raster
from reconkit.oracle.bundle import generate_scene, random_scene_spec
from reconkit.oracle.mock import NoiseModel
from reconkit.oracle.scene import (RAY_EPS, Box, CameraRanges, Capsule, Sphere, Table, chain_capsules, render,
                                   sample_camera)
from reconkit.oracle.raster import DTYPE_TAGS, HEADER, MAGIC, TruncatedRasterError, read_raster, write_raster
from reconkit.pipeline import evaluate_pointmap_scene, scene_seed
from reconkit.transforms import RigidTransform, rotation_about_axis

# ---------------------------------------------------------------------------
# Reference copies
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
    return NormalMap.from_dense(normals, ok)


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
    return PointMap.from_dense(pts, depth.valid.copy())


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


def scalar_frame(pose: RigidTransform, v, point=True) -> list:
    """R^T (v - t) for a point, R^T v for a direction, each sum left to right."""
    r, t = pose.rotation.tolist(), pose.translation.tolist()
    q = [float(a) - b for a, b in zip(v, t)] if point else [float(a) for a in v]
    return [(r[0][j] * q[0] + r[1][j] * q[1]) + r[2][j] * q[2] for j in range(3)]


def scalar_dot(v, x, y) -> float:
    return x * v[0] + (y * v[1] + v[2])


def scalar_local(pose: RigidTransform, view: RigidTransform, x, y):
    """The camera centre and the ray (x, y, 1) of `view` in the frame of pose."""
    o = scalar_frame(pose, view.translation)
    return o, [scalar_dot(scalar_frame(view, a, point=False), x, y) for a in pose.rotation.T.tolist()]


def nan_or(f, a, b):
    """np.minimum/np.maximum of two floats (for f = min/max): NaN if either is NaN."""
    return math.nan if math.isnan(a) or math.isnan(b) else f(a, b)


def skip_nan(f, a, b):
    """np.fmin/np.fmax of two floats (for f = min/max): the other one where one is NaN."""
    return b if math.isnan(a) else a if math.isnan(b) else f(a, b)


def scalar_sphere(sphere: Sphere, view, x, y) -> float:
    c = scalar_frame(view, sphere.center)
    a = x * x + (y * y + 1.0)
    b = scalar_dot(c, x, y)
    disc = b * b - a * (((c[0] * c[0] + c[1] * c[1]) + c[2] * c[2]) - sphere.radius * sphere.radius)
    if disc < 0:
        return math.inf
    sq = math.sqrt(disc)
    return next((t for t in ((b - sq) / a, (b + sq) / a) if t > RAY_EPS), math.inf)


def scalar_box(box: Box, view, x, y) -> float:
    o, d = scalar_local(box.pose, view, x, y)
    lo, hi, hit = [], [], True
    for i, h in enumerate(box.half_extents.tolist()):
        inv_d = 1.0 / d[i] if d[i] else math.copysign(math.inf, d[i])
        t_lo, t_hi = (-h - o[i]) * inv_d, (h - o[i]) * inv_d
        lo.append(nan_or(min, t_lo, t_hi))
        hi.append(nan_or(max, t_lo, t_hi))
        hit = hit and not (abs(o[i]) > h and abs(d[i]) < 1e-15)
    near = skip_nan(max, skip_nan(max, lo[0], lo[1]), lo[2])
    far = skip_nan(min, skip_nan(min, hi[0], hi[1]), hi[2])
    if hit and far >= near and far > RAY_EPS:
        return near if near > RAY_EPS else far
    return math.inf


def scalar_capsule_body(capsule: Capsule, view, x, y) -> float:
    axis = [float(b) - a for a, b in zip(capsule.p0.tolist(), capsule.p1.tolist())]
    length = math.sqrt((axis[0] * axis[0] + axis[1] * axis[1]) + axis[2] * axis[2])
    if length < 1e-12:
        return math.inf
    u = scalar_frame(view, [a / length for a in axis], point=False)
    sign = math.copysign(1.0, u[2])
    g = -1.0 / (sign + u[2])
    h = u[0] * u[1] * g
    axes = ((1.0 + sign * u[0] * u[0] * g, sign * h, -sign * u[0]), (h, sign + u[1] * u[1] * g, -u[1]), u)
    p0 = scalar_frame(view, capsule.p0)
    o = [-((p0[0] * e[0] + p0[1] * e[1]) + p0[2] * e[2]) for e in axes]
    d0, d1, d_par = (scalar_dot(e, x, y) for e in axes)
    a = d0 * d0 + d1 * d1
    b = d0 * o[0] + d1 * o[1]
    disc = b * b - a * ((o[0] * o[0] + o[1] * o[1]) - capsule.radius * capsule.radius)
    if disc < 0 or a == 0:  # a ray along the axis: numpy's roots are NaN or infinite
        return math.inf
    sq = math.sqrt(disc)
    t = math.inf
    for t_cand in ((-b - sq) / a, (-b + sq) / a):
        s = o[2] + t_cand * d_par
        if t_cand > RAY_EPS and 0 <= s <= length and t_cand < t:
            t = t_cand
    return t


def scalar_table(table: Table, view, x, y) -> float:
    o, (dx, dy, dz) = scalar_local(table.pose, view, x, y)
    if not abs(dz) > 1e-15:
        return math.inf
    t = -o[2] / dz
    hx, hy = table.half_extents.tolist()
    return t if t > RAY_EPS and abs(o[0] + t * dx) <= hx and abs(o[1] + t * dy) <= hy else math.inf


SCALAR_KERNELS = {Sphere: scalar_sphere, Box: scalar_box, Table: scalar_table}


def scalar_casts(spec) -> list:
    """(kernel, scalar kernel, surface, label) of each cast `render` makes of spec, in its order."""
    casts = [(s.cast, SCALAR_KERNELS[type(s)], s, label) for s, label in
             [(spec.table, LABEL_BACKGROUND)] + [(p, LABEL_OBJECT) for p in spec.primitives]]
    for capsule in chain_capsules(spec):
        casts.append((capsule.cast_body, scalar_capsule_body, capsule, LABEL_ROBOT))
        casts += [(end.cast, scalar_sphere, end, LABEL_ROBOT) for end in capsule.ends()]
    return casts


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
    return PointMap.from_dense(values, rng.random((h, w)) < p_valid)


def drawn_normals(rng, h, w, p_valid, kind) -> tuple[NormalMap, np.ndarray]:
    """Random unit normals and the dense array they were taken from;
    `nonfinite` puts NaN at some invalid pixels (at a valid pixel a NaN
    normal is rejected)."""
    v = rng.standard_normal((h, w, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    valid = rng.random((h, w)) < p_valid
    if kind == "nonfinite":
        v[~valid & (rng.random((h, w)) < 0.1)] = np.nan
    return NormalMap.from_dense(v, valid), v


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
        normals = normals_from_pointmap(PointMap.from_dense(values, np.ones((3, 3), bool)))
        assert not normals.valid.any() and not normals.values.any()


class TestNormalAngles:
    @settings(max_examples=60, deadline=None)
    @given(**map_sizes, p_valid=validity, kind=st.sampled_from(["random", "nonfinite"]),
           relation=st.sampled_from(["independent", "equal", "opposite"]))
    @example(seed=0, h=3, w=3, p_valid=0.0, kind="random", relation="independent")
    @example(seed=1, h=5, w=4, p_valid=1.0, kind="random", relation="opposite")
    def test_matches_full_frame(self, seed, h, w, p_valid, kind, relation):
        rng = np.random.default_rng(seed)
        pred, dense = drawn_normals(rng, h, w, p_valid, kind)
        if relation == "independent":
            gt, _ = drawn_normals(rng, h, w, p_valid, kind)
        else:
            sign = 1.0 if relation == "equal" else -1.0
            valid = (rng.random((h, w)) < p_valid) & ~np.isnan(dense[:, :, 0])
            gt = NormalMap.from_dense(sign * dense, valid)
        got = outcome(normal_angles, pred, gt)
        assert same_bits(got, outcome(full_frame_angles, pred, gt))

    def test_angles_of_computed_normals(self, small_bundle):
        maps = [unproject(v.coords, v.depth) for v in small_bundle.views]
        pred = normals_from_pointmap(PointMap.from_dense(maps[0].values * 1.01, maps[0].valid))
        gt = normals_from_pointmap(maps[0])
        assert same_bits(normal_angles(pred, gt), full_frame_angles(pred, gt))


class TestCompactNormals:
    """A NormalMap holds its valid pixels only; the dense grids are built when read."""

    @settings(max_examples=60, deadline=None)
    @given(**map_sizes, p_valid=validity)
    @example(seed=0, h=3, w=3, p_valid=0.0)
    def test_dense_round_trip(self, seed, h, w, p_valid):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((h, w, 3))
        v[rng.random((h, w)) < 0.1, 0] = -0.0  # signed zeros survive the trip
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        m = rng.random((h, w)) < p_valid
        normals = NormalMap.from_dense(v, m)
        assert same_bits(normals.values, np.where(m[:, :, None], v, 0.0))
        assert same_bits(normals.valid, m)
        assert normals.shape == (h, w) and same_bits(normals.index, np.flatnonzero(m))

    @pytest.mark.parametrize("index, message", [
        ([2, 1], "increasing"),
        ([1, 1], "increasing"),
        ([-1, 2], "inside the grid"),
        ([0, 9], "inside the grid"),
        ([[0, 1]], "1-D index"),
    ])
    def test_bad_index_rejected(self, index, message):
        comps = np.tile([[1.0], [0.0], [0.0]], np.size(index))
        with pytest.raises(ValueError, match=message):
            NormalMap((3, 3), index, comps.reshape((3,) + np.shape(index)))

    def test_component_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 components as long"):
            NormalMap((3, 3), [4], (np.ones(1), np.zeros(1), np.zeros(2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
    def test_non_unit_normal_at_valid_pixel_rejected(self, bad):
        v = np.zeros((3, 3, 3))
        v[:, :, 2] = 1.0
        v[1, 1] = (0.0, 0.0, bad)
        with pytest.raises(ValueError, match="unit norm"):
            NormalMap.from_dense(v, np.ones((3, 3), bool))
        v[1, 1] = (np.nan, 0.0, 0.0)  # at an invalid pixel it is never read
        assert not np.isnan(NormalMap.from_dense(v, v[:, :, 2] == 1.0).values).any()

    def test_angles_pair_pixels_not_positions(self):
        # as many valid pixels in each map, but only pixel 1 is valid in both
        z = (np.zeros(2), np.zeros(2), np.ones(2))
        pred = NormalMap((3, 3), [0, 1], (np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 1.0])))
        assert same_bits(normal_angles(pred, NormalMap((3, 3), [1, 2], z)), np.zeros(1))
        assert same_bits(normal_angles(pred, NormalMap((3, 3), [0, 1], z)), np.array([np.pi / 2, 0.0]))

    def test_eval_path_builds_no_dense_grid(self, small_bundle, monkeypatch):
        noise = NoiseModel(depth_sigma=0.01, coord_sigma=0.001)
        want = evaluate_pointmap_scene(small_bundle, noise, 5)

        def dense(self):
            raise AssertionError("a dense normal grid was built on the eval path")

        monkeypatch.setattr(NormalMap, "values", property(dense))
        monkeypatch.setattr(NormalMap, "valid", property(dense))
        assert evaluate_pointmap_scene(small_bundle, noise, 5) == want


# any float: finite, infinite and NaN, with signed zeros and subnormals drawn often
EDGE_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from([np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e-310])
# one eval-qvga scene's traced evaluation peak: 16.1 MB with compact point maps read one view pair at a time,
# 26.5 MB with dense HxWx3 maps held for every view; the bound leaves 1.4 MB of margin over the first
EVAL_PEAK_BOUND = 17.5e6


class TestCompactPoints:
    """A PointMap holds its valid pixels only; the dense grids are built when read."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), h=st.integers(1, 9), w=st.integers(1, 9))
    def test_from_dense_keeps_every_valid_bit(self, data, h, w):
        values = data.draw(hnp.arrays(np.float64, (h, w, 3), elements=EDGE_FLOATS))
        valid = data.draw(hnp.arrays(np.bool_, (h, w)))
        points = PointMap.from_dense(values, valid)
        assert same_bits(points.valid, valid)
        assert same_bits(points.values, np.where(valid[:, :, None], values, 0.0))

    def test_eval_path_builds_no_dense_grid(self, small_bundle, monkeypatch):
        noise = NoiseModel(depth_sigma=0.01, coord_sigma=0.001)
        want = evaluate_pointmap_scene(small_bundle, noise, 5)

        def dense(self):
            raise AssertionError("a dense point grid was built on the eval path")

        monkeypatch.setattr(PointMap, "values", property(dense))
        assert evaluate_pointmap_scene(small_bundle, noise, 5) == want

    def test_eval_scene_peak_bounded(self):
        seed = scene_seed(1, 2)  # scene 2 of an eval-qvga tree at seed 1, the largest of its 8
        bundle = generate_scene(random_scene_spec(seed, views=2, width=320, height=240), seed)
        noise = NoiseModel(depth_sigma=0.002, coord_sigma=0.0002, heatmap_blur=0.5, mask_flip_rate=0.01)
        tracemalloc.start()
        try:
            evaluate_pointmap_scene(bundle, noise, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= EVAL_PEAK_BOUND, f"traced peak {peak / 1e6:.1f} MB"


def drawn_depth_coords(rng, h, w, p_valid, huge):
    scale = 1e200 if huge else 1.0
    values = rng.uniform(-0.5, 3.0, (h, w)) * scale
    depth = DepthMap(np.where(rng.random((h, w)) < p_valid, values, 0.0))
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


# ---------------------------------------------------------------------------
# Ray kernels
# ---------------------------------------------------------------------------


def assert_kernel_matches_scalar(kernel, scalar, surface, view, x, y) -> np.ndarray:
    """kernel(view, x, y) for a row x and a column y, each element against the scalar kernel."""
    t = outcome(kernel, view, x, y)
    assert t.shape == (y.shape[0], x.shape[0])
    for (i, j), got in np.ndenumerate(t):
        assert got.tobytes() == np.float64(scalar(surface, view, float(x[j]), float(y[i, 0]))).tobytes()
    return t


def drawn_pose(rng, aligned, span=1.0) -> RigidTransform:
    """A random pose within span of the origin; an `aligned` one's rotation is a signed permutation,
    so rays keep their zero components."""
    if aligned:
        rot = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], (3, 1))
        rot[0] *= np.sign(np.linalg.det(rot))
    else:
        rot = rotation_about_axis(rng.standard_normal(3), rng.uniform(-np.pi, np.pi))
    return RigidTransform(rot, rng.uniform(-span, span, 3))


def drawn_surfaces(rng, aligned) -> list:
    """One surface of each kind near the origin."""
    return [
        Sphere(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.1, 1.0)),
        Box(drawn_pose(rng, aligned), rng.uniform(0.1, 1.0, 3)),
        Table(drawn_pose(rng, aligned), rng.uniform(0.1, 2.0, 2)),
        Capsule(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), rng.uniform(0.05, 0.5)),
    ]


def drawn_coords(rng, n, p_zero) -> np.ndarray:
    """n normalized pixel coordinates, some zero (some -0.0) or tiny."""
    v = rng.standard_normal(n)
    zero = rng.random(n) < p_zero
    v[zero] = rng.choice([0.0, -0.0, 1e-16, -1e-16], size=zero.sum())
    return v


def drawn_window(rng, h, w):
    r0, c0 = rng.integers(0, h), rng.integers(0, w)
    return slice(r0, rng.integers(r0 + 1, h + 1)), slice(c0, rng.integers(c0 + 1, w + 1))


def hit_rows(t) -> list:
    return ["".join("1" if np.isfinite(v) else "0" for v in row) for row in t]


def sideways(sign) -> np.ndarray:
    """The rotation of a camera whose rays (x, y, 1) are (1, sign x, sign y) in the world."""
    return np.array([[0.0, 0.0, 1.0], [sign, 0.0, 0.0], [0.0, sign, 0.0]])


# the rotation of a camera whose rays (x, y, 1) are (x, 1, -y) in the world
ALONG_Y = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


class TestRayKernels:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 60), height=st.integers(1, 45),
           near=st.booleans())
    def test_scene_casts_match_reference(self, seed, width, height, near):
        """Sampled pixels of a drawn scene and camera, half of them on the robot or an object."""
        rng = np.random.default_rng(seed)
        spec = random_scene_spec(seed, views=1, width=width, height=height)
        ranges = CameraRanges(radius=(0.05, 0.5)) if near else spec.camera
        k, pose = sample_camera(spec.workspace_center, rng, ranges, width, height)
        depth, labels = render(spec, k, pose)
        coords = coords_from_intrinsics(k).values
        parts = np.flatnonzero((labels == LABEL_ROBOT) | (labels == LABEL_OBJECT))
        picks = rng.choice(width * height, 40)
        if parts.size:
            picks = np.concatenate([picks, rng.choice(parts, 40)])
        casts = scalar_casts(spec)
        for v, u in zip(*np.unravel_index(picks, (height, width))):
            x, y = coords[v, u].tolist()
            t, label = math.inf, 0
            for _, scalar, surface, part in casts:
                t_part = scalar(surface, pose, x, y)
                if t_part < t:
                    t, label = t_part, part
            assert depth[v, u].tobytes() == np.float64(t if t < math.inf else 0.0).tobytes()
            assert labels[v, u] == label

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 20), w=st.integers(1, 20),
           aligned=st.booleans(), p_zero=st.sampled_from([0.0, 0.3, 0.6]))
    def test_drawn_rays_match_reference(self, seed, h, w, aligned, p_zero):
        """Random cameras and pixel coordinates with zero (some negative) or tiny components, over a drawn window."""
        rng = np.random.default_rng(seed)
        view = drawn_pose(rng, aligned, span=2.0)
        rows, cols = drawn_window(rng, h, w)
        x, y = drawn_coords(rng, w, p_zero)[cols], drawn_coords(rng, h, p_zero)[:, None][rows]
        for surface in drawn_surfaces(rng, aligned):
            if isinstance(surface, Capsule):
                assert_kernel_matches_scalar(surface.cast_body, scalar_capsule_body, surface, view, x, y)
            else:
                assert_kernel_matches_scalar(surface.cast, SCALAR_KERNELS[type(surface)], surface, view, x, y)

    def test_scene_kernels_match_scalar_reference(self):
        """Every cast of a 64x48 scene, over the whole frame."""
        spec = random_scene_spec(4, views=1, width=64, height=48)
        k, pose = sample_camera(spec.workspace_center, np.random.default_rng(4), spec.camera, 64, 48)
        coords = coords_from_intrinsics(k).values
        hit = set()
        for kernel, scalar, surface, label in scalar_casts(spec):
            t = assert_kernel_matches_scalar(kernel, scalar, surface, pose, coords[0, :, 0], coords[:, :1, 1])
            if np.isfinite(t).any():
                hit.add(label)
        assert hit == {LABEL_BACKGROUND, LABEL_OBJECT, LABEL_ROBOT}

    # one row of x: zero, -0.0, no component zero, tiny; and y: 0.05, then zero
    XS, YS = np.array([0.0, -0.0, -0.1, -1e-16]), np.array([[0.05], [0.0]])

    @pytest.mark.parametrize(
        "origin,hits",
        [
            # each origin seen by a camera whose rays are (x, y, 1) in the world, then by one whose rays are (1, x, y)
            ((0.5, 0.0, -5.0), (["1111", "1111"], ["0000", "0000"])),  # inside the x and y slabs
            ((1.3, 0.0, -5.0), (["0010", "0010"], ["0000", "0000"])),  # outside the x slab
            ((0.0, -3.0, -5.0), (["0000", "0000"], ["0000", "0000"])),  # outside the y slab
            ((-3.0, -0.2, 1.0), (["0000", "0000"], ["0000", "1111"])),  # on a z face: 0 * inf is NaN
            ((1.0, 0.0, -5.0), (["1111", "1111"], ["0000", "0000"])),  # on an x face
            ((1.0 + 2**-52, 0.0, -5.0), (["0010", "0010"], ["0000", "0000"])),  # a tiny x toward the face is parallel
        ],
    )
    def test_box_zero_component(self, origin, hits):
        box = Box(RigidTransform.identity(), [1.0, 1.0, 1.0])
        for rotation, rows in zip((np.eye(3), sideways(1.0)), hits):
            view = RigidTransform(rotation, origin)
            t = assert_kernel_matches_scalar(box.cast, scalar_box, box, view, self.XS, self.YS)
            assert hit_rows(t) == rows

    @pytest.mark.parametrize(
        "height,sign,hits",
        [
            (1.0, 1.0, ["0000", "0000"]),  # every ray points up or along the plane
            (1.0, -1.0, ["1101", "0000"]),  # x = -0.1 lands 2 m to the side; y = 0 runs along the plane
            (0.0, -1.0, ["0000", "0000"]),  # the origin in the plane: t = 0
        ],
    )
    def test_table_parallel_ray(self, height, sign, hits):
        """A 2 x 2 m table seen from 20 m away along x, at the given height."""
        table = Table(RigidTransform.identity(), [1.0, 1.0])
        view = RigidTransform(sideways(sign), [-20.0, 0.0, height])
        t = assert_kernel_matches_scalar(table.cast, scalar_table, table, view, self.XS, self.YS)
        assert hit_rows(t) == hits

    def test_table_ray_within_1e15_of_parallel(self):
        """From 1e-16 m above a table's plane, a ray at slope 1e-16 would meet it 1 m away, and is parallel."""
        table = Table(RigidTransform.identity(), [1.0, 1.0])
        view = RigidTransform(sideways(-1.0), [-1.0, 0.0, 1e-16])
        x, y = np.zeros(1), np.array([[1e-16], [1e-14]])
        t = assert_kernel_matches_scalar(table.cast, scalar_table, table, view, x, y)
        assert hit_rows(t) == ["0", "1"]

    def test_tangent_rays(self):
        """disc == 0 exactly: the sphere and the cylinder are grazed at one point."""
        x, y = np.zeros(1), np.zeros((1, 1))
        sphere = Sphere([0.0, 0.0, 5.0], 1.0)
        view = RigidTransform(np.eye(3), [1.0, 0.0, 0.0])
        assert assert_kernel_matches_scalar(sphere.cast, scalar_sphere, sphere, view, x, y)[0, 0] == 5.0
        capsule = Capsule([0.0, 0.0, 0.0], [0.0, 0.0, 10.0], 1.0)
        view = RigidTransform(ALONG_Y, [1.0, -5.0, 5.0])
        assert assert_kernel_matches_scalar(capsule.cast_body, scalar_capsule_body, capsule, view, x, y)[0, 0] == 5.0


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
