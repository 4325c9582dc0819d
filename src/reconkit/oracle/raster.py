"""Bit-exact binary raster format.

Layout (little-endian): magic bytes "R3RB", u32 height, u32 width,
u32 channels, u32 dtype tag, then the row-major payload.  Dtype tags:
1 = float32, 2 = float64, 3 = uint8.  Oracle bundles store float64 rasters
(validity and label grids as uint8); float32 is supported for externally
produced data.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"R3RB"
HEADER = struct.Struct("<4sIIII")

DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
TAG_FOR_KIND = {"f4": 1, "f8": 2, "u1": 3}


class RasterError(ValueError):
    """Base class for raster format violations."""


class BadMagicError(RasterError):
    pass


class TruncatedRasterError(RasterError):
    pass


class UnknownDtypeError(RasterError):
    pass


def write_raster(path, array: np.ndarray):
    """Write an HxW or HxWxC array; dtype must be float32, float64 or uint8.

    The header is written, then the array's own buffer (copied only when it
    is not C-contiguous in the tag's little-endian dtype).
    """
    arr = np.asarray(array)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise RasterError(f"raster must be HxW or HxWxC, got shape {arr.shape}")
    key = f"{arr.dtype.kind}{arr.dtype.itemsize}"
    if key not in TAG_FOR_KIND:
        raise UnknownDtypeError(f"unsupported raster dtype {arr.dtype}")
    tag = TAG_FOR_KIND[key]
    h, w, c = arr.shape
    payload = np.ascontiguousarray(arr, dtype=DTYPE_TAGS[tag])
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, h, w, c, tag))
        f.write(payload.data)


def read_raster(path) -> np.ndarray:
    """Read a raster; returns HxW for single-channel files, else HxWxC.

    The header and the file size are checked first, then the payload is
    read straight into the returned (owning, C-contiguous) array.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(HEADER.size)
        if len(header) < HEADER.size:
            raise TruncatedRasterError(
                f"{path}: truncated header, got {len(header)} of {HEADER.size} bytes"
            )
        magic, h, w, c, tag = HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if tag not in DTYPE_TAGS:
            raise UnknownDtypeError(f"{path}: unknown dtype tag {tag}")
        dtype = DTYPE_TAGS[tag]
        expected = HEADER.size + h * w * c * dtype.itemsize
        if size != expected:
            raise TruncatedRasterError(
                f"{path}: truncated raster at byte {size}, expected {expected} bytes"
            )
        arr = np.empty((h, w) if c == 1 else (h, w, c), dtype=dtype)
        got = f.readinto(arr)
    if got != arr.nbytes:
        raise TruncatedRasterError(
            f"{path}: truncated raster at byte {HEADER.size + got}, expected {expected} bytes"
        )
    return arr
