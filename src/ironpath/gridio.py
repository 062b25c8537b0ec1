"""Raster data model and file I/O shared by every pipeline stage.

Two on-disk formats:

FGRID   ASCII header line ``FGRID <width> <height> <cell_size_m>\\n`` followed
        by width*height little-endian float32 values, row-major, top row
        first.  Lossless for float32 payloads.
PGM     Binary P5.  Grayscale images use maxval 65535 (two bytes per sample,
        big-endian); label masks use maxval 2 (one byte per sample).
        Grayscale intensity = sample / 65535; in memory an image is a plain
        (height, width) float64 array of intensities in [0, 1].
"""

from __future__ import annotations

import contextlib
import os
import secrets
from dataclasses import dataclass, field

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
    """Pixel-center to world-plane mapping: world = origin + (u, v) * cell_size."""

    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.cell_size > 0):
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")

    def pixel_to_world(self, u: float, v: float) -> tuple[float, float]:
        return (self.origin[0] + u * self.cell_size,
                self.origin[1] + v * self.cell_size)

    def world_to_pixel(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.origin[0]) / self.cell_size,
                (y - self.origin[1]) / self.cell_size)


@dataclass(frozen=True)
class FloatGrid:
    """Scalar field over a regular grid (heights in meters, or unitless scores).

    ``data`` is float64 with shape (height, width), row-major, top row first.
    The file payload is float32, so a grid read from disk round-trips
    bit-exactly; in-memory precision stays double for differentiation.
    """

    width: int
    height: int
    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)
    data: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise ValueError(f"grid must be at least 3x3, got {self.width}x{self.height}")
        if not (self.cell_size > 0):
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")
        d = np.asarray(self.data, dtype=np.float64)
        if d.size != self.width * self.height:
            raise ValueError(f"data length {d.size} != {self.width}x{self.height}")
        if not np.all(np.isfinite(d)):
            raise ValueError("grid contains non-finite values")
        object.__setattr__(self, "data", _readonly(d.reshape(self.height, self.width)))

    @property
    def transform(self) -> WorldTransform:
        return WorldTransform(self.cell_size, self.origin)


@dataclass(frozen=True)
class LabelMask:
    """Per-pixel labels: 0 background, 1 wrinkle, 2 bump."""

    width: int
    height: int
    data: np.ndarray = field(default=None)

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.size != self.width * self.height:
            raise ValueError(f"data length {d.size} != {self.width}x{self.height}")
        if not np.all((d >= 0) & (d <= 2)):
            raise ValueError("labels must be 0 (background), 1 (wrinkle) or 2 (bump)")
        object.__setattr__(self, "data", _readonly(
            d.reshape(self.height, self.width).astype(np.uint8, copy=False)))


# --- FGRID ---

def write_grid(grid: FloatGrid, path) -> None:
    header = f"FGRID {grid.width} {grid.height} {grid.cell_size!r}\n"
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
        payload = f.read()
    expected = w * h * 4
    if len(payload) != expected:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise GridFormatError(f"{path}: non-finite value in payload")
    return FloatGrid(w, h, cell, data=data)


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
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.width} {mask.height}\n2\n".encode("ascii"))
        f.write(mask.data.tobytes())


def read_labels(path) -> LabelMask:
    with open(path, "rb") as f:
        w, h, maxval = _read_pgm_header(f, path)
        if maxval != 2:
            raise GridFormatError(f"{path}: expected maxval 2 label mask, got {maxval}")
        payload = f.read()
    if len(payload) != w * h:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, expected {w * h}")
    return LabelMask(w, h, data=np.frombuffer(payload, dtype=np.uint8))


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
