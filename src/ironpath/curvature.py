"""Curvature scan: find smooth height bumps via the Hessian shape-index rule.

Pipeline: optional Gaussian pre-smooth, per-pixel Hessian eigenvalues, shape
index, threshold to bump points, morphological closing and hole filling,
8-connected components, volume ranking and per-bump Gaussian parameter
estimates (center, principal axes, orientation).

The image operations are plain numpy with a fixed arithmetic order, so their
bits are part of the report's byte identity:

- the Gaussian is a separable correlation, down the columns and then along
  the rows, over a symmetrically padded array, with a kernel truncated at
  3 sigma; each output starts from the centre tap and adds the symmetric
  tap pairs from the outermost inward;
- closing and erosion use the 3x3 square with a zero border;
- hole filling keeps everything but the 4-connected background components
  that touch the border;
- components are 8-connected and numbered in the raster order of their
  first pixel, each with its bounding box, so the per-component work reads
  only that box.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .gridio import FloatGrid

log = logging.getLogger(__name__)

# Half-open shape-index interval accepted as bump points.
BUMP_INDEX_LO = -1.0 / 8.0
BUMP_INDEX_HI = 5.0 / 8.0

# Largest accepted pre-smoothing sigma.  At 1000 px the kernel (6001 taps)
# already spans any scan several times over and flattens it; wider kernels
# only cost time and, far enough out, cannot be allocated at all.
MAX_SMOOTH_SIGMA_PX = 1000.0

# Largest accepted closing count.  n passes bridge gaps up to 2n px wide; at
# 100 that is 200 px, a sixth of a 1280x960 scan and a third of a 640x480
# one, so any bumps on it merge.  Each pass is a dilation and an erosion
# over the whole image.
MAX_CLOSE_ITERATIONS = 100

# Relative tolerance of the umbilic test: where the eigenvalue gap is below
# this fraction of the largest |eigenvalue| (of the whole image in `hessian`),
# the shape index takes its umbilic limit +-1, or NaN where the trace is 0.
EPS_UMBILIC_REL = 1e-9

# Relative-height floor for the Gaussian fit: only pixels at or above this
# fraction of a component's peak take part.
FIT_FLOOR = 0.05


@dataclass
class CurvatureField:
    """Per-pixel Hessian eigenvalues (lambda1 >= lambda2) and shape index.

    ``shape_index`` holds the limit value +-1 at umbilic pixels (equal
    eigenvalues, nonzero trace) and NaN where the surface is locally flat.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    shape_index: np.ndarray


@dataclass
class HeightBump:
    """A segmented smooth bump: pixel support plus fitted Gaussian parameters."""

    id: int
    pixels: np.ndarray            # (N, 2) array of (u, v) pixel coords
    center: tuple[float, float]   # world meters
    volume: float                 # m^3, relative to the component boundary minimum
    d1: float                     # 1-sigma length along the major axis, meters
    d2: float                     # minor axis, meters
    orientation: float            # radians, major axis direction, in [0, pi)


@dataclass
class BumpParams:
    smooth_sigma_px: float = 2.0
    polarity: str = "up"          # "up": bumps are height maxima; "down": minima
    min_volume_m3: float = 1e-6
    min_pixels: int = 5
    close_iterations: int = 2     # morphological closing passes on the bump mask
    min_minor_axis_m: float = 0.008   # thinner components are ridge ghosts, not bumps

    def __post_init__(self):
        if not 0.0 <= self.smooth_sigma_px <= MAX_SMOOTH_SIGMA_PX:
            raise ValueError(f"smooth_sigma_px must be in [0, {MAX_SMOOTH_SIGMA_PX:g}], "
                             f"got {self.smooth_sigma_px}")
        if self.polarity not in ("up", "down"):
            raise ValueError(f"polarity must be 'up' or 'down', got {self.polarity!r}")
        if not 0 <= self.close_iterations <= MAX_CLOSE_ITERATIONS:
            raise ValueError(f"close_iterations must be in [0, {MAX_CLOSE_ITERATIONS}], "
                             f"got {self.close_iterations}")
        for name in ("min_volume_m3", "min_pixels", "min_minor_axis_m"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def smooth(z: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of an (h, w) array, truncated at 3 sigma, with
    symmetric boundaries (the edge sample repeats); a kernel of radius 0
    (sigma below 1/6, 0 included) returns z itself."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    r = int(3.0 * sigma + 0.5)
    if r == 0:
        return z
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = phi / phi.sum()
    out = z
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (r, r)
        zp = np.pad(out, pad, mode="symmetric")
        n = out.shape[axis]

        def tap(j):
            return zp[r + j:r + j + n] if axis == 0 else zp[:, r + j:r + j + n]

        out = tap(0) * w[r]
        pair = np.empty_like(out)
        for j in range(r, 0, -1):
            np.add(tap(-j), tap(j), out=pair)
            pair *= w[r - j]
            out += pair
    return out


def _morph(mask: np.ndarray, op, iterations: int = 1) -> np.ndarray:
    """`iterations` passes of the 3x3 square under the ufunc `op`: np.logical_or
    dilates, np.logical_and erodes; pixels outside the image are 0."""
    for _ in range(iterations):
        p = np.pad(mask, 1)
        rows = op(op(p[:, :-2], p[:, 1:-1]), p[:, 2:])
        mask = op(op(rows[:-2], rows[1:-1]), rows[2:])
    return mask


def _label(mask: np.ndarray, diagonal: bool = True):
    """Connected components of a 2-D mask by run-length union-find.

    Components are 8-connected (``diagonal``) or 4-connected and numbered
    1..n in the raster order of their first pixel.  Returns the int32 label
    image, n, and an (n, 4) array of half-open bounding boxes
    (row0, row1, col0, col1).
    """
    h, w = mask.shape
    labels = np.zeros((h, w), np.int32)
    edges = np.diff(np.pad(mask.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    rows, starts = np.nonzero(edges == 1)     # runs in raster order
    ends = np.nonzero(edges == -1)[1]         # exclusive
    n = len(rows)
    if n == 0:
        return labels, 0, np.zeros((0, 4), np.intp)
    # Runs a (row above) and b touch when their column spans overlap, widened
    # by one column for diagonal contact.  Row keys make the touching runs of
    # the row above one contiguous index range [lo, hi) for each b.
    stride = w + 2
    slack = 1 if diagonal else 0
    key = rows * stride
    above = key - stride
    lo = np.searchsorted(key + ends, above + starts - slack, side="right")
    hi = np.searchsorted(key + starts, above + ends + slack, side="left")
    counts = np.maximum(hi - lo, 0)
    b = np.repeat(np.arange(n), counts)
    a = lo[b] + np.arange(len(b)) - np.repeat(np.cumsum(counts) - counts, counts)
    # Hook each root onto the smaller root across an edge, then compress;
    # every root ends as its component's first run.
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    is_root = parent == np.arange(n)
    run_label = np.cumsum(is_root)[parent]
    ncomp = int(is_root.sum())
    labels.flat[np.flatnonzero(mask)] = np.repeat(run_label, ends - starts)
    k = run_label - 1
    row1 = np.zeros(ncomp, np.intp)
    np.maximum.at(row1, k, rows + 1)
    col0 = np.full(ncomp, w, np.intp)
    np.minimum.at(col0, k, starts)
    col1 = np.zeros(ncomp, np.intp)
    np.maximum.at(col1, k, ends)
    return labels, ncomp, np.column_stack([rows[is_root], row1, col0, col1])


def _fill_holes(mask: np.ndarray) -> np.ndarray:
    """The mask plus every background region that does not reach the border.

    Background regions are 4-connected, so a diagonal gap in the mask's
    8-connected outline does not let them out."""
    bg, n, _ = _label(~mask, diagonal=False)
    outside = np.zeros(n + 1, bool)
    for edge in (bg[0], bg[-1], bg[:, 0], bg[:, -1]):
        outside[edge] = True
    outside[0] = False
    return ~outside[bg]


def _hessian_components(z: np.ndarray, cell: float):
    """fxx, fyy, fxy by central differences over a symmetrically padded z."""
    zp = np.pad(z, 1, mode="symmetric")
    c2 = cell**2
    fxx = np.multiply(2.0, z)
    np.subtract(zp[1:-1, 2:], fxx, out=fxx)
    fxx += zp[1:-1, :-2]
    fxx /= c2
    fyy = np.multiply(2.0, z)
    np.subtract(zp[2:, 1:-1], fyy, out=fyy)
    fyy += zp[:-2, 1:-1]
    fyy /= c2
    fxy = np.subtract(zp[2:, 2:], zp[2:, :-2])
    fxy -= zp[:-2, 2:]
    fxy += zp[:-2, :-2]
    fxy /= 4.0 * c2
    return fxx, fyy, fxy


def hessian(z: np.ndarray, cell: float) -> CurvatureField:
    """Central-difference Hessian eigenvalues and shape index of the (h, w)
    heights z on a grid of spacing cell.

    Each step writes into an array the function already holds, so at most
    four full-image float64 arrays are alive at once.  The ufuncs and their
    order are those of the plain expressions
    tr = fxx + fyy, disc = sqrt((fxx - fyy)**2 + 4 fxy**2),
    l1, l2 = (tr +- disc) / 2 and s = (2/pi) atan(tr / (l1 - l2)),
    so every value keeps its bits."""
    fxx, fyy, fxy = _hessian_components(np.asarray(z, np.float64), cell)
    tr = np.add(fxx, fyy)
    disc = fxx
    disc -= fyy
    np.square(disc, out=disc)
    np.square(fxy, out=fxy)
    fxy *= 4.0
    disc += fxy
    np.sqrt(disc, out=disc)
    l1 = np.add(tr, disc, out=fyy)
    l1 *= 0.5
    l2 = np.subtract(tr, disc, out=fxy)
    l2 *= 0.5
    den = disc
    lmax = max(np.abs(l1, out=den).max(), np.abs(l2, out=den).max())
    eps = EPS_UMBILIC_REL * lmax
    np.subtract(l1, l2, out=den)
    defined = den >= eps if eps > 0 else den > 0
    s = den                 # the shape index replaces den pixel by pixel
    np.divide(tr, den, out=s, where=defined)
    np.arctan(s, out=s, where=defined)
    np.multiply(2.0 / np.pi, s, out=s, where=defined)
    np.logical_not(defined, out=defined)
    s[defined] = np.nan
    umbilic = (tr > 0) | (tr < 0)           # |tr| > 0, NaN excluded
    umbilic &= defined
    s[umbilic] = np.sign(tr[umbilic])
    return CurvatureField(l1, l2, s)


def shape_index(l1: float, l2: float) -> float:
    """(2/pi) * atan((l1+l2)/(l1-l2)); +-1 in the umbilic limit, NaN when flat."""
    if l2 > l1:
        raise ValueError("requires lambda1 >= lambda2")
    eps = EPS_UMBILIC_REL * max(abs(l1), abs(l2))
    if l1 - l2 < eps or l1 == l2:
        tr = l1 + l2
        return math.copysign(1.0, tr) if tr != 0.0 else math.nan
    return (2.0 / math.pi) * math.atan((l1 + l2) / (l1 - l2))


def _fit_gaussian(x, y, w):
    """Weighted LSQ fit of log(w) to a 2D quadratic: (center, d1, d2, orientation),
    or None for fewer than 6 points, a singular system or a non-concave fit."""
    if len(w) < 6:
        return None
    lw = np.log(w)
    x0, y0 = x.mean(), y.mean()
    xs, ys = x - x0, y - y0
    A = np.stack([np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys], axis=1)
    Aw = A * w[:, None]
    try:
        c = np.linalg.solve(A.T @ Aw, Aw.T @ lw)
        prec = -np.array([[2.0 * c[3], c[4]], [c[4], 2.0 * c[5]]])   # Sigma^-1
        ev, evec = np.linalg.eigh(prec)
        if ev[0] <= 0:
            return None
        center = np.array([x0, y0]) + np.linalg.solve(prec, c[1:3])
    except np.linalg.LinAlgError:
        return None
    d1, d2 = 1.0 / math.sqrt(ev[0]), 1.0 / math.sqrt(ev[1])      # d1 >= d2
    orientation = math.atan2(evec[1, 0], evec[0, 0]) % math.pi   # major axis
    return center, d1, d2, orientation


def _pca_moments(x, y, w):
    """Fallback: weighted position covariance (biased by region truncation)."""
    W = w.sum()
    mx, my = (w * x).sum() / W, (w * y).sum() / W
    dx, dy = x - mx, y - my
    C = np.array([[(w * dx * dx).sum(), (w * dx * dy).sum()],
                  [(w * dx * dy).sum(), (w * dy * dy).sum()]]) / W
    ev, evec = np.linalg.eigh(C)
    if ev[0] <= 0:
        return None
    d1, d2 = math.sqrt(ev[1]), math.sqrt(ev[0])
    orientation = math.atan2(evec[1, 1], evec[0, 1]) % math.pi
    return np.array([mx, my]), d1, d2, orientation


def detect_bumps(grid: FloatGrid, params: BumpParams) -> list[HeightBump]:
    """Detect smooth height bumps, sorted by volume descending.

    "down" bump points have a smoothed-height shape index s in [BUMP_INDEX_LO,
    BUMP_INDEX_HI).  "up" ones have s in the mirrored (-BUMP_INDEX_HI,
    -BUMP_INDEX_LO], as the index of the negated height is -s (`hessian` is
    odd in z), so dome-like bumps fall on the ridge side of the index range.
    Components are closed and hole-filled before labeling; per-component
    heights are measured against the boundary minimum of the smoothed field.
    Axis lengths come from a Gaussian fit to the relative heights, which is
    unbiased by the annular shape of the in-range region.
    """
    cell = grid.cell_size
    hs = smooth(grid.data, params.smooth_sigma_px)
    s = hessian(hs, cell).shape_index
    if params.polarity == "up":
        mask = (s > -BUMP_INDEX_HI) & (s <= -BUMP_INDEX_LO)
    else:
        mask = (s >= BUMP_INDEX_LO) & (s < BUMP_INDEX_HI)
        hs = -hs
    n = params.close_iterations
    mask = _morph(_morph(mask, np.logical_or, n), np.logical_and, n)
    labels, _, boxes = _label(_fill_holes(mask))
    dropped = dict.fromkeys(("min_pixels", "volume", "flat", "fit", "thin"), 0)
    bumps = []
    to_world = grid.transform.pixel_to_world
    for k, (r0, r1, c0, c1) in enumerate(boxes, 1):
        # the component lies inside its box, so the box is all the work reads
        comp = labels[r0:r1, c0:c1] == k
        npx = int(comp.sum())
        if npx < params.min_pixels:
            dropped["min_pixels"] += 1
            continue
        boundary = comp & ~_morph(comp, np.logical_and)
        hbox = hs[r0:r1, c0:c1]
        base = hbox[boundary].min()
        rel = hbox[comp] - base
        volume = float(rel.sum() * cell * cell)
        if volume < params.min_volume_m3:
            dropped["volume"] += 1
            continue
        vv, uu = np.nonzero(comp)
        vv += r0
        uu += c0
        w = np.maximum(rel, 0.0)
        peak = w.max()
        if peak <= 0:
            dropped["flat"] += 1
            continue
        sel = w >= FIT_FLOOR * peak
        x, y = to_world(uu[sel], vv[sel])
        fit = _fit_gaussian(x, y, w[sel]) or _pca_moments(x, y, w[sel])
        if fit is None:
            dropped["fit"] += 1
            continue
        center, d1, d2, orientation = fit
        if d2 < params.min_minor_axis_m:
            # a sharp ridge leaves a long sliver of in-range pixels; a real
            # bump cannot be thinner than the smoothing scale
            dropped["thin"] += 1
            continue
        bumps.append(HeightBump(
            id=-1, pixels=np.column_stack([uu, vv]),
            center=(float(center[0]), float(center[1])),
            volume=volume, d1=float(d1), d2=float(d2),
            orientation=float(orientation)))
    log.debug("%d bump components, %d kept; dropped %d min_pixels, %d volume, %d flat, "
              "%d fit, %d thin", len(boxes), len(bumps), *dropped.values())
    bumps.sort(key=lambda b: -b.volume)
    for i, b in enumerate(bumps):
        b.id = i
    return bumps
