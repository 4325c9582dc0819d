"""Valid-pixel kernels, ray kernels and copy-free raster I/O against reference copies.

Each `full_frame_*` function below is the full-frame form the kernel had
before it was restricted to the pixels it keeps, and each `axis_*` function
the form a ray kernel had before it worked on each x/y/z component
separately (reductions over the length-3 axis, a boolean scatter into an
inf-filled buffer).  The kernels must match them bit for bit (values and
validity, compared with `tobytes()`), also for non-finite inputs, for which
both run under `np.errstate(all="ignore")`.
"""

import os
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit.camera import CoordMap, DepthMap, PointMap, coords_from_intrinsics, unproject
from reconkit.losses import NormalMap, normal_angles, normals_from_pointmap
from reconkit.masks import LABEL_INVALID, MaskSet, binarize, compose_masked_points
from reconkit.oracle import raster
from reconkit.oracle.bundle import random_scene_spec
from reconkit.oracle.mock import NoiseModel
from reconkit.oracle.scene import RAY_EPS, Box, CameraRanges, Capsule, Sphere, Table, chain_capsules, sample_camera
from reconkit.oracle.raster import DTYPE_TAGS, HEADER, MAGIC, TruncatedRasterError, read_raster, write_raster
from reconkit.pipeline import evaluate_pointmap_scene
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


def axis_sphere(sphere: Sphere, origin, dirs) -> np.ndarray:
    oc = origin - sphere.center
    a = np.sum(dirs * dirs, axis=-1)
    b = 2.0 * (dirs @ oc)
    c = oc @ oc - sphere.radius**2
    disc = b * b - 4.0 * a * c
    t = np.full(dirs.shape[:-1], np.inf)
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t1 = (-b - sq) / (2.0 * a)
    t2 = (-b + sq) / (2.0 * a)
    near = np.where(t1 > RAY_EPS, t1, np.where(t2 > RAY_EPS, t2, np.inf))
    t[hit] = near[hit]
    return t


def axis_box(box: Box, origin, dirs) -> np.ndarray:
    inv = box.pose.inverse()
    o = inv.apply(origin)
    d = dirs @ inv.rotation.T
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_d = 1.0 / d
        t_lo = (-box.half_extents - o) * inv_d
        t_hi = (box.half_extents - o) * inv_d
    near = np.nanmax(np.minimum(t_lo, t_hi), axis=-1)
    far = np.nanmin(np.maximum(t_lo, t_hi), axis=-1)
    parallel_miss = np.any(
        (np.abs(d) < 1e-15) & ((o < -box.half_extents) | (o > box.half_extents)),
        axis=-1,
    )
    t = np.where(near > RAY_EPS, near, np.where(far > RAY_EPS, far, np.inf))
    t[(far < near) | (far <= RAY_EPS) | parallel_miss] = np.inf
    return t


def axis_capsule_body(capsule: Capsule, origin, dirs) -> np.ndarray:
    axis = capsule.p1 - capsule.p0
    length = np.linalg.norm(axis)
    if length < 1e-12:
        return np.full(dirs.shape[:-1], np.inf)
    u = axis / length
    oc = origin - capsule.p0
    d_par = dirs @ u
    oc_par = oc @ u
    d_perp = dirs - d_par[..., None] * u
    oc_perp = oc - oc_par * u
    a = np.sum(d_perp * d_perp, axis=-1)
    b = 2.0 * (d_perp @ oc_perp)
    c = oc_perp @ oc_perp - capsule.radius**2
    t = np.full(dirs.shape[:-1], np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        ok = (disc >= 0) & (a > 1e-30)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for t_cand in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
            s = oc_par + t_cand * d_par
            good = ok & (t_cand > RAY_EPS) & (s >= 0) & (s <= length)
            t = np.where(good & (t_cand < t), t_cand, t)
    return t


def axis_table(table: Table, origin, dirs) -> np.ndarray:
    inv = table.pose.inverse()
    o = inv.apply(origin)
    d = dirs @ inv.rotation.T
    dz = d[..., 2]
    t = np.full(dirs.shape[:-1], np.inf)
    hit = np.abs(dz) > 1e-15
    t_hit = np.where(hit, -o[2] / np.where(hit, dz, 1.0), 0.0)
    px = o[0] + t_hit * d[..., 0]
    py = o[1] + t_hit * d[..., 1]
    ok = hit & (t_hit > RAY_EPS) & (np.abs(px) <= table.half_extents[0]) & (np.abs(py) <= table.half_extents[1])
    t[ok] = t_hit[ok]
    return t


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
        normals = normals_from_pointmap(PointMap(values, np.ones((3, 3), bool)))
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
        pred = normals_from_pointmap(PointMap(maps[0].values * 1.01, maps[0].valid))
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


def assert_casts_match(surfaces, origin, dirs):
    """Each cast `render` makes of these surfaces (a capsule's body and end spheres apart) against its reference copy."""
    casts = []
    for s in surfaces:
        if isinstance(s, Capsule):
            casts += [(s, Capsule.intersect_body, axis_capsule_body)]
            casts += [(end, Sphere.intersect, axis_sphere) for end in s.ends()]
        else:
            casts.append((s, type(s).intersect, {Sphere: axis_sphere, Box: axis_box, Table: axis_table}[type(s)]))
    for s, kernel, reference in casts:
        assert same_bits(outcome(kernel, s, origin, dirs), outcome(reference, s, origin, dirs))


def drawn_pose(rng, aligned) -> RigidTransform:
    rot = np.eye(3) if aligned else rotation_about_axis(rng.standard_normal(3), rng.uniform(-np.pi, np.pi))
    return RigidTransform(rot, rng.uniform(-1.0, 1.0, 3))


def drawn_surfaces(rng, aligned) -> list:
    """One surface of each kind near the origin; `aligned` ones have no rotation."""
    return [
        Sphere(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.1, 1.0)),
        Box(drawn_pose(rng, aligned), rng.uniform(0.1, 1.0, 3)),
        Table(drawn_pose(rng, aligned), rng.uniform(0.1, 2.0, 2)),
        Capsule(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3), rng.uniform(0.05, 0.5)),
    ]


def drawn_window(rng, h, w):
    r0, c0 = rng.integers(0, h), rng.integers(0, w)
    return slice(r0, rng.integers(r0 + 1, h + 1)), slice(c0, rng.integers(c0 + 1, w + 1))


class TestRayKernels:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 60), height=st.integers(1, 45),
           near=st.booleans())
    def test_scene_casts_match_reference(self, seed, width, height, near):
        """Every surface of a drawn scene, over a drawn window of a drawn camera's rays."""
        rng = np.random.default_rng(seed)
        spec = random_scene_spec(seed, views=1, width=width, height=height)
        ranges = CameraRanges(radius=(0.05, 0.5)) if near else spec.camera
        k, pose = sample_camera(spec.workspace_center, rng, ranges, width, height)
        coords = coords_from_intrinsics(k).values
        dirs = np.concatenate([coords, np.ones((height, width, 1))], axis=-1) @ pose.rotation.T
        surfaces = [spec.table, *spec.primitives, *chain_capsules(spec)]
        assert_casts_match(surfaces, pose.translation, dirs[drawn_window(rng, height, width)])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 20), w=st.integers(1, 20),
           aligned=st.booleans(), p_zero=st.sampled_from([0.0, 0.3, 0.6]))
    def test_drawn_rays_match_reference(self, seed, h, w, aligned, p_zero):
        """Random origins and directions with zero (some negative) or tiny components."""
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((h, w, 3))
        zero = rng.random((h, w, 3)) < p_zero
        dirs[zero] = rng.choice([0.0, -0.0, 1e-16, -1e-16], size=zero.sum())
        dirs[np.all(dirs == 0, axis=-1)] = (0.0, 0.0, 1.0)
        origin = rng.uniform(-2.0, 2.0, 3)
        assert_casts_match(drawn_surfaces(rng, aligned), origin, dirs[drawn_window(rng, h, w)])

    # one direction per pixel of a 1x5 grid: x, y (as -0.0), z, no component zero, x and y zero and z tiny
    ZERO_COMPONENTS = np.array(
        [[[0.0, 0.1, 1.0], [-0.1, -0.0, 1.0], [1.0, 0.05, 0.0], [-0.1, 0.05, 1.0], [0.0, 0.0, 1e-16]]]
    )

    @pytest.mark.parametrize(
        "origin,hits",
        [
            ((0.5, 0.0, -5.0), [True, True, False, True, False]),  # inside the x and y slabs
            ((3.0, 0.0, -5.0), [False, False, False, False, False]),  # outside the x slab
            ((0.0, -3.0, -5.0), [False, False, False, False, False]),  # outside the y slab
            ((-3.0, -0.2, 0.0), [False, False, True, False, False]),  # inside the z slab only
            ((1.0, 0.0, -5.0), [True, True, False, True, False]),  # on an x face: 0 * inf is NaN
        ],
    )
    def test_box_zero_component(self, origin, hits):
        box = Box(RigidTransform.identity(), [1.0, 1.0, 1.0])
        t = box.intersect(np.array(origin), self.ZERO_COMPONENTS)
        assert same_bits(t, axis_box(box, np.array(origin), self.ZERO_COMPONENTS))
        assert list(np.isfinite(t[0])) == hits

    @pytest.mark.parametrize(
        "height,sign,hits",
        [
            (1.0, 1.0, [False, False, False, False, False]),  # every ray points up or along the plane
            (1.0, -1.0, [True, True, False, True, False]),
            (0.0, -1.0, [False, False, False, False, False]),  # the origin in the plane: t = 0
        ],
    )
    def test_table_parallel_ray(self, height, sign, hits):
        table = Table(RigidTransform.identity(), [1.0, 1.0])
        origin, dirs = np.array([0.0, 0.0, height]), sign * self.ZERO_COMPONENTS
        t = table.intersect(origin, dirs)
        assert same_bits(t, axis_table(table, origin, dirs))
        assert list(np.isfinite(t[0])) == hits

    def test_tangent_rays(self):
        """disc == 0 exactly: the sphere and the cylinder are grazed at one point."""
        dirs = np.array([[[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]])
        sphere = Sphere([0.0, 0.0, 5.0], 1.0)
        origin = np.array([1.0, 0.0, 0.0])
        t = sphere.intersect(origin, dirs)
        assert same_bits(t, axis_sphere(sphere, origin, dirs)) and t[0, 0] == 5.0
        capsule = Capsule([0.0, 0.0, 0.0], [0.0, 0.0, 10.0], 1.0)
        origin = np.array([1.0, -5.0, 5.0])
        t = capsule.intersect_body(origin, dirs)
        assert same_bits(t, axis_capsule_body(capsule, origin, dirs)) and t[0, 1] == 5.0


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
