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

from dataclasses import dataclass

import numpy as np


class DegenerateCoordMapError(ValueError):
    """Raised when intrinsics cannot be recovered from a coord map."""


@dataclass(frozen=True, eq=False)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got {self.fx}, {self.fy}")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True, eq=False)
class DepthMap:
    """H x W depth in meters plus a validity grid."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"depth values must be HxW, got shape {v.shape}")
        m = np.asarray(self.valid, dtype=bool)
        if m.shape != v.shape:
            raise ValueError(f"valid grid shape {m.shape} != depth shape {v.shape}")
        # Holes: a pixel cannot be valid unless its depth is finite and > 0.
        m = m & np.isfinite(v) & (v > 0)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "valid", m)

    @staticmethod
    def from_values(values) -> "DepthMap":
        v = np.asarray(values, dtype=float)
        return DepthMap(v, np.ones(v.shape, dtype=bool))

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
class PointMap:
    """H x W x 3 points in meters plus a validity grid."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"point values must be HxWx3, got shape {v.shape}")
        m = np.asarray(self.valid, dtype=bool)
        if m.shape != v.shape[:2]:
            raise ValueError(f"valid grid shape {m.shape} != point grid {v.shape[:2]}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "valid", m)

    @property
    def shape(self):
        return self.values.shape[:2]

    def valid_points(self) -> np.ndarray:
        """Flat (N, 3) array of the valid points."""
        return self.values[self.valid]


def coords_from_intrinsics(k: Intrinsics) -> CoordMap:
    """Normalized coordinate map of every pixel center of a pinhole camera."""
    u = np.arange(k.width, dtype=float)
    v = np.arange(k.height, dtype=float)
    x = (u - k.cx) / k.fx
    y = (v - k.cy) / k.fy
    grid = np.empty((k.height, k.width, 2))
    grid[:, :, 0] = x[None, :]
    grid[:, :, 1] = y[:, None]
    return CoordMap(grid)


def unproject(coords: CoordMap, depth: DepthMap) -> PointMap:
    """Lift (x, y) coords with depth d to camera-frame points (x d, y d, d).

    Invalid pixels are (0, 0, 0).  The products are formed only at valid
    pixels and written into a zeroed buffer; each is the same single
    multiplication as over the full frame, so the values are bit-identical.
    """
    if coords.shape != depth.shape:
        raise ValueError(
            f"coord map shape {coords.shape} != depth map shape {depth.shape}"
        )
    h, w = depth.shape
    idx = np.flatnonzero(depth.valid)
    d = np.take(depth.values, idx)
    x, y = np.take(coords.values.reshape(-1, 2), idx, axis=0).T
    pts = np.zeros((h * w, 3))
    pts[idx, 0] = x * d
    pts[idx, 1] = y * d
    pts[idx, 2] = d
    return PointMap(pts.reshape(h, w, 3), depth.valid.copy())


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


def intrinsics_from_coords(coords: CoordMap) -> Intrinsics:
    """Least-squares recovery of fx, fy, cx, cy from a coord map.

    The model x = (u - cx)/fx is linear in (a, b) = (1/fx, cx/fx), so the
    exact minimizer of the squared coord discrepancy is a 1D regression of
    the map's x channel on the pixel column index (and y on the row index).
    """
    h, w = coords.shape
    if h < 2 or w < 2:
        raise ValueError(f"need at least a 2x2 image, got {h}x{w}")
    u = np.broadcast_to(np.arange(w, dtype=float)[None, :], (h, w)).ravel()
    v = np.broadcast_to(np.arange(h, dtype=float)[:, None], (h, w)).ravel()
    x = coords.values[:, :, 0].ravel()
    y = coords.values[:, :, 1].ravel()

    def fit(pix, val):
        pm, vm = pix.mean(), val.mean()
        var = np.mean((pix - pm) ** 2)
        slope = np.mean((pix - pm) * (val - vm)) / var
        if not np.isfinite(slope) or slope <= 0:
            raise DegenerateCoordMapError(
                "coord map is degenerate (no recoverable focal length)"
            )
        focal = 1.0 / slope
        center = pm - vm * focal
        return focal, center

    fx, cx = fit(u, x)
    fy, cy = fit(v, y)
    return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)
