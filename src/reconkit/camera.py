"""Pinhole camera model, depth/coord/point rasters, and (un)projection.

COORDINATE CONVENTIONS
======================
Camera frame (right-handed, standard computer vision):
  - x right, y down, z forward along the optical axis.
Normalized image coordinates:
  - pixel (u, v) maps to ((u - cx) / fx, (v - cy) / fy), the 2D position of
    the pixel on the plane at unit depth.
  - integer pixel indices map directly; no half-pixel offset is applied.
Unprojection:
  - coord (x, y) with depth d lifts to (x * d, y * d, d).

Depth maps treat non-finite or <= 0 values as holes (invalid pixels) rather
than errors.  All raster types are immutable values after construction and
every operation here is a pure function.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

# check_number's (ok, must) for a value that must be finite and > 0
POSITIVE = (lambda v: v > 0, "finite and positive")


def check_number(name: str, value, ok=lambda v: True, must: str = "finite", integer: bool = False):
    """value, if it is a real number (an integer if asked; a bool is neither), finite and ok(value).

    A real value is finite only if a finite float holds it, so an integer past the float range is not.
    Otherwise a TypeError (wrong type) or ValueError (non-finite, or not ok) that names `name`.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise TypeError(f"{name}: expected {'an integer' if integer else 'a number'}, got {value!r}")
    if not ((integer or abs(value) <= sys.float_info.max) and ok(value)):  # NaN and inf compare false
        raise ValueError(f"{name} must be {must}, got {value}")
    return value


def check_array(name: str, value, shape: tuple, ok=lambda v: True, must: str = "finite") -> np.ndarray:
    """value (nested sequences, as JSON gives them) as a float array, if it has exactly `shape` and every entry
    passes check_number(name, entry, ok, must); each entry is checked as given, before numpy reads a bool as 1.0.

    Otherwise a ValueError (wrong nesting or length) or check_number's error, each naming `name`.
    """

    def entries(v, dims):
        if not dims:
            return [check_number(name, v, ok, must)]
        if not isinstance(v, (list, tuple, np.ndarray)) or len(v) != dims[0]:
            raise ValueError(f"{name}: expected shape {shape}, got {v!r}")
        return [e for item in v for e in entries(item, dims[1:])]

    return np.array(entries(value, shape), dtype=float).reshape(shape)


@dataclass(frozen=True, eq=False)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy"):
            check_number(name, getattr(self, name), *POSITIVE)
        for name in ("cx", "cy"):
            check_number(name, getattr(self, name))
        for name in ("width", "height"):
            check_number(f"image {name}", getattr(self, name), integer=True)
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )


@dataclass(frozen=True, eq=False)
class DepthMap:
    """H x W depth in meters; a pixel is valid iff its depth is finite and > 0."""

    values: np.ndarray
    valid: np.ndarray = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"depth values must be HxW, got shape {v.shape}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "valid", np.isfinite(v) & (v > 0))

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True, eq=False)
class CoordMap:
    """H x W x 2 normalized image coordinates (plane at unit depth)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[2] != 2:
            raise ValueError(f"coord values must be HxWx2, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("coord map contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape[:2]


@dataclass(frozen=True, eq=False)
class PixelVectors:
    """3-vectors held per valid pixel of an H x W grid.

    `index` is the sorted flat (row-major) index of the valid pixels and
    `components` their x, y and z as three 1-D arrays.  The dense `values`
    (zero at invalid pixels) and `valid` grids are built on access.
    """

    shape: tuple
    index: np.ndarray
    components: tuple

    def __post_init__(self):
        h, w = shape = tuple(int(n) for n in self.shape)
        idx = np.asarray(self.index, dtype=np.intp)
        comps = tuple(np.asarray(c, dtype=float) for c in self.components)
        if idx.ndim != 1 or [c.shape for c in comps] != [idx.shape] * 3:
            raise ValueError(f"{type(self).__name__} needs a 1-D index and 3 components as long")
        if idx.size and not (0 <= idx[0] and idx[-1] < h * w and np.all(idx[1:] > idx[:-1])):
            raise ValueError(f"{type(self).__name__} index must be increasing and inside the grid")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "index", idx)
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_dense(cls, values, valid):
        """The vectors of an HxWx3 array at the pixels an HxW grid marks valid."""
        v = np.asarray(values, dtype=float)
        m = np.asarray(valid, dtype=bool)
        if v.ndim != 3 or v.shape[2] != 3 or m.shape != v.shape[:2]:
            raise ValueError(f"{cls.__name__} needs HxWx3 values and an HxW valid grid, got {v.shape}, {m.shape}")
        idx = np.flatnonzero(m)
        return cls(m.shape, idx, tuple(np.take(v.reshape(-1, 3), idx, axis=0).T))

    @property
    def valid(self) -> np.ndarray:
        grid = np.zeros(self.shape[0] * self.shape[1], dtype=bool)
        grid[self.index] = True
        return grid.reshape(self.shape)

    @property
    def values(self) -> np.ndarray:
        grid = np.zeros((self.shape[0] * self.shape[1], 3))
        for axis, component in enumerate(self.components):  # into its column: no (N, 3) copy
            grid[self.index, axis] = component
        return grid.reshape(self.shape + (3,))

    def stacked(self) -> np.ndarray:
        """The valid pixels' vectors as one (N, 3) array, in pixel order."""
        return np.column_stack(self.components)


class PointMap(PixelVectors):
    """Camera- or world-frame points in meters, held per valid pixel (see PixelVectors)."""


def normalize(k: Intrinsics, u, v) -> tuple:
    """The normalized image coordinates ((u - cx) / fx, (v - cy) / fy) of pixel positions u and v."""
    return (u - k.cx) / k.fx, (v - k.cy) / k.fy


def coords_from_intrinsics(k: Intrinsics) -> CoordMap:
    """Normalized coordinate map of every pixel center of a pinhole camera."""
    x, y = normalize(k, np.arange(k.width, dtype=float), np.arange(k.height, dtype=float)[:, None])
    return CoordMap(np.stack(np.broadcast_arrays(x, y), axis=-1))


def unproject(coords: CoordMap, depth: DepthMap, valid: np.ndarray | None = None) -> PointMap:
    """Lift (x, y) coords with depth d to camera-frame points (x d, y d, d).

    Only the valid pixels are lifted: those of the HxW grid `valid`, which
    must lie within depth.valid (else a ValueError), or else of
    depth.valid.  Each product is the same single multiplication as over
    the full frame, so the values are bit-identical; no HxWx3 buffer is
    built.
    """
    if coords.shape != depth.shape:
        raise ValueError(
            f"coord map shape {coords.shape} != depth map shape {depth.shape}"
        )
    if valid is not None and np.shape(valid) != depth.shape:
        raise ValueError(f"valid grid shape {np.shape(valid)} != depth map shape {depth.shape}")
    if valid is not None and np.any(np.asarray(valid, dtype=bool) & ~depth.valid):
        raise ValueError("valid marks pixels whose depth is not finite and > 0")
    idx = np.flatnonzero(depth.valid if valid is None else valid)
    d = np.take(depth.values, idx)
    xy = np.take(coords.values.reshape(-1, 2), idx, axis=0)
    return PointMap(depth.shape, idx, (xy[:, 0] * d, xy[:, 1] * d, d))


def project(point, k: Intrinsics) -> np.ndarray:
    """Project camera-frame points (..., 3) to pixel coordinates (..., 2)."""
    p = np.asarray(point, dtype=float)
    z = p[..., 2]
    if np.any(z <= 0):
        raise ValueError("cannot project points with non-positive depth")
    uv = np.empty(p.shape[:-1] + (2,))
    uv[..., 0] = k.fx * p[..., 0] / z + k.cx
    uv[..., 1] = k.fy * p[..., 1] / z + k.cy
    return uv
