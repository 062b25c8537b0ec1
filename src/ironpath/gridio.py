"""Raster data model and file I/O shared by every pipeline stage.

Two on-disk formats:

FGRID   ASCII header line ``FGRID <width> <height> <cell_size_m>\\n`` followed
        by width*height little-endian float32 values, row-major, top row
        first.  Lossless for float32 payloads.
PGM     Binary P5.  Grayscale images use maxval 65535 (two bytes per sample,
        big-endian); label masks use maxval 2 (one byte per sample).
        Grayscale intensity = sample / 65535; in memory an image is a plain
        (height, width) float64 array of intensities in [0, 1].

In memory a raster is its array, and its size is the array's shape: a
height grid (FloatGrid) is a float64 array plus the WorldTransform frame of
its pixel centres, a label mask (LabelMask) a uint8 array.  WorldTransform
does every pixel<->world conversion of the pipeline.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

LABEL_BACKGROUND = 0
LABEL_WRINKLE = 1
LABEL_BUMP = 2


class GridFormatError(ValueError):
    """Raised when a grid/image file is malformed."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WorldTransform:
    """Pixel-center to world-plane mapping: world = origin + (u, v) * cell_size.

    The one place pixel and world coordinates are converted, for scalars and
    arrays alike, and the one check of a cell size."""

    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be finite and > 0, got {self.cell_size}")

    def pixel_to_world(self, u, v):
        return (self.origin[0] + u * self.cell_size,
                self.origin[1] + v * self.cell_size)

    def world_to_pixel(self, x, y):
        return ((x - self.origin[0]) / self.cell_size,
                (y - self.origin[1]) / self.cell_size)


@dataclass(frozen=True)
class FloatGrid:
    """Scalar field over a regular grid (heights in meters): its (h, w)
    array, at least 3x3, row-major with the top row first, and the
    WorldTransform frame of its pixel centres.

    ``data`` is kept as a read-only float64 array.  The file payload is
    float32, so a grid read from disk round-trips bit-exactly; in-memory
    precision stays double for differentiation.
    """

    data: np.ndarray
    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or min(d.shape) < 3:
            raise ValueError(f"grid must be a 2-D array of at least 3x3, got shape {d.shape}")
        WorldTransform(self.cell_size, self.origin)      # the cell-size check
        if not np.all(np.isfinite(d)):
            raise ValueError("grid contains non-finite values")
        object.__setattr__(self, "data", _readonly(d))

    @property
    def transform(self) -> WorldTransform:
        return WorldTransform(self.cell_size, self.origin)


@dataclass(frozen=True)
class LabelMask:
    """Per-pixel labels of an (h, w) uint8 array: 0 background, 1 wrinkle, 2 bump."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 2:
            raise ValueError(f"labels must be a 2-D array, got shape {d.shape}")
        if not np.all((d >= 0) & (d <= 2)):
            raise ValueError("labels must be 0 (background), 1 (wrinkle) or 2 (bump)")
        object.__setattr__(self, "data", _readonly(d.astype(np.uint8, copy=False)))


# --- FGRID ---

def write_grid(grid: FloatGrid, path) -> None:
    h, w = grid.data.shape
    header = f"FGRID {w} {h} {grid.cell_size!r}\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(grid.data, dtype="<f4").tobytes())


def read_grid(path) -> FloatGrid:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace")
        parts = header.split()
        if len(parts) != 4 or parts[0] != "FGRID":
            raise GridFormatError(f"{path}: bad FGRID header {header!r}")
        try:
            w, h = int(parts[1]), int(parts[2])
            cell = float(parts[3])
        except ValueError as e:
            raise GridFormatError(f"{path}: bad FGRID header {header!r}") from e
        if w < 0 or h < 0:
            raise GridFormatError(f"{path}: bad FGRID header {header!r}")
        payload = f.read()
    expected = w * h * 4
    if len(payload) != expected:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise GridFormatError(f"{path}: non-finite value in payload")
    return FloatGrid(data.reshape(h, w), cell)


# --- PGM ---

def _read_pgm_header(f, path):
    """Parse 'P5 <w> <h> <maxval>' allowing whitespace and # comments."""
    magic = f.read(2)
    if magic != b"P5":
        raise GridFormatError(f"{path}: not a binary PGM (magic {magic!r})")
    vals = []
    while len(vals) < 3:
        c = f.read(1)
        if not c:
            raise GridFormatError(f"{path}: truncated PGM header")
        if c.isspace():
            continue
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
            continue
        tok = c
        c = f.read(1)
        while c and not c.isspace():
            tok += c
            c = f.read(1)
        try:
            vals.append(int(tok))
        except ValueError as e:
            raise GridFormatError(f"{path}: bad PGM header token {tok!r}") from e
        if vals[-1] < 0:
            raise GridFormatError(f"{path}: bad PGM header token {tok!r}")
    return vals


def write_gray(img: np.ndarray, path) -> None:
    """Write an (h, w) intensity array; values outside [0, 1] are clipped."""
    img = np.asarray(img, np.float64)
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    samples = np.rint(np.clip(img, 0.0, 1.0) * 65535.0).astype(">u2")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(samples.tobytes())


def read_gray(path) -> np.ndarray:
    """A read-only (h, w) float64 intensity array in [0, 1]."""
    with open(path, "rb") as f:
        w, h, maxval = _read_pgm_header(f, path)
        if maxval != 65535:
            raise GridFormatError(f"{path}: expected maxval 65535, got {maxval}")
        payload = f.read()
    if len(payload) != w * h * 2:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, expected {w * h * 2}")
    samples = np.frombuffer(payload, dtype=">u2").astype(np.float64)
    return _readonly((samples / 65535.0).reshape(h, w))


def write_labels(mask: LabelMask, path) -> None:
    h, w = mask.data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n2\n".encode("ascii"))
        f.write(mask.data.tobytes())


def read_labels(path) -> LabelMask:
    with open(path, "rb") as f:
        w, h, maxval = _read_pgm_header(f, path)
        if maxval != 2:
            raise GridFormatError(f"{path}: expected maxval 2 label mask, got {maxval}")
        payload = f.read()
    if len(payload) != w * h:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, expected {w * h}")
    return LabelMask(np.frombuffer(payload, dtype=np.uint8).reshape(h, w))


def write_atomic(path, writer) -> None:
    """Write via a uniquely named temporary file in the same directory, then
    rename, so partial files never appear; if the writer raises, the
    temporary file is removed and path is left as it was."""
    # a fresh random name, not mkstemp, so the file gets the usual permissions
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
