"""Raster data model and file framing shared by every pipeline stage.

Two raster formats:

FGRID   ASCII header line ``FGRID <width> <height> <cell_size_m>\\n``, or
        ``FGRID <width> <height> <cell_size_m> <origin_x> <origin_y>\\n`` for
        a grid whose origin is not (0, 0), followed by width*height
        little-endian float32 values, row-major, top row first.  Lossless
        for float32 payloads.
PGM     Binary P5.  Grayscale images use maxval 65535 (two bytes per sample,
        big-endian); label masks use maxval 2 (one byte per sample).
        Grayscale intensity = sample / 65535; in memory an image is a plain
        (height, width) float64 array of intensities in [0, 1].

Every binary file is framed here, classify's model file (SVMW) too: one
header-line reader, one payload reader with the exact-length and non-finite
checks, and write_atomic, through which every writer writes its bytes.

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
    arrays alike, and the one check of a frame: a finite cell size above 0
    and a finite origin."""

    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be finite and > 0, got {self.cell_size}")
        if not all(math.isfinite(c) for c in self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")

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
        WorldTransform(self.cell_size, self.origin)      # the frame check
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


# --- file framing: one header-line reader, one payload reader, one writer ---

def header_count(s) -> int:
    """A header's size, maxval or count field (str or bytes): a non-empty
    run of ASCII decimal digits, so no sign, `_` or other numerals."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a run of decimal digits: {s!r}")
    return int(s)


def header_float(s: str) -> float:
    """A header's real-number field: as float() reads it, but without `_`."""
    if "_" in s:
        raise ValueError(f"digit separator in {s!r}")
    return float(s)


def read_header(f, path, magic: str, *types, optional=()) -> list:
    """The fields of the header line `<magic> <field>...` that starts the
    binary file f, field i converted by types[i], then the trailing fields
    `optional` (types too), which are all present or all absent;
    GridFormatError on another magic or field count, or when a conversion
    raises ValueError."""
    header = f.readline().decode("ascii", errors="replace")
    parts = header.split()
    bad = f"{path}: bad {magic} header {header!r}"
    if len(parts) - 1 not in (len(types), len(types) + len(optional)) or parts[0] != magic:
        raise GridFormatError(bad)
    try:
        return [t(s) for t, s in zip(types + optional, parts[1:])]
    except ValueError as e:
        raise GridFormatError(bad) from e


def read_payload(f, path, dtype, shape: tuple) -> np.ndarray:
    """The rest of the binary file f, in one read, as a read-only `dtype` array
    of `shape`; GridFormatError unless its length is exact and it is finite."""
    payload = f.read()
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype).reshape(shape)
    if not np.all(np.isfinite(data)):
        raise GridFormatError(f"{path}: non-finite value in payload")
    return data


def write_atomic(path, data: bytes) -> None:
    """Write `data` to path via a uniquely named temporary file in the same
    directory, then rename, so partial files never appear; if anything
    fails, the temporary file is removed and path is left as it was."""
    # a fresh random name, not mkstemp, so the file gets the usual permissions
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# --- FGRID ---

def write_grid(grid: FloatGrid, path) -> None:
    """The header names the origin only when it is not (0, 0).  A grid with a
    value beyond float32's range, which read_grid would refuse, is a
    ValueError, and nothing is written."""
    h, w = grid.data.shape
    frame = [grid.cell_size, *grid.origin] if any(grid.origin) else [grid.cell_size]
    header = " ".join(["FGRID", str(w), str(h), *(repr(float(x)) for x in frame)])
    with np.errstate(over="ignore"):
        data = grid.data.astype("<f4")
    if not np.all(np.isfinite(data)):
        raise ValueError("grid value beyond the float32 range of FGRID")
    write_atomic(path, f"{header}\n".encode("ascii") + data.tobytes())


def read_grid(path) -> FloatGrid:
    with open(path, "rb") as f:
        w, h, cell, *origin = read_header(f, path, "FGRID", header_count, header_count,
                                          header_float, optional=(header_float, header_float))
        data = read_payload(f, path, "<f4", (h, w))
    return FloatGrid(data, cell, tuple(origin) or (0.0, 0.0))


# --- PGM ---

def _read_pgm(path, maxval: int, dtype, kind: str = "") -> np.ndarray:
    """The (h, w) samples of the binary PGM at path, of maxval `maxval`: `P5`,
    then width, height and maxval between whitespace and `#` comments (a `#`
    starts one only before a token), and one whitespace byte ends the header."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P5":
            raise GridFormatError(f"{path}: not a binary PGM (magic {magic!r})")
        vals, tok = [], b""
        while len(vals) < 3:
            c = f.read(1)
            if c and not c.isspace() and (tok or c != b"#"):
                tok += c
            elif tok:                   # whitespace or the end of the file ends a token
                try:
                    vals.append(header_count(tok))
                except ValueError as e:
                    raise GridFormatError(f"{path}: bad PGM header token {tok!r}") from e
                tok = b""
            elif c == b"#":
                f.readline()
            elif not c:
                raise GridFormatError(f"{path}: truncated PGM header")
        w, h, got = vals
        if got != maxval:
            raise GridFormatError(f"{path}: expected maxval {maxval}{kind}, got {got}")
        return read_payload(f, path, dtype, (h, w))


def _pgm(samples: np.ndarray, maxval: int) -> bytes:
    h, w = samples.shape
    return f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + samples.tobytes()


def write_gray(img: np.ndarray, path) -> None:
    """Write an (h, w) intensity array; values outside [0, 1] are clipped."""
    img = np.asarray(img, np.float64)
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    write_atomic(path, _pgm(np.rint(np.clip(img, 0.0, 1.0) * 65535.0).astype(">u2"), 65535))


def read_gray(path) -> np.ndarray:
    """A read-only (h, w) float64 intensity array in [0, 1]."""
    return _readonly(_read_pgm(path, 65535, ">u2") / 65535.0)


def write_labels(mask: LabelMask, path) -> None:
    write_atomic(path, _pgm(mask.data, 2))


def read_labels(path) -> LabelMask:
    return LabelMask(_read_pgm(path, 2, np.uint8, " label mask"))
