"""Discontinuity scan: reference normalization, pixel scoring, segment extraction.

The two illumination captures are divided by flat-cloth reference images and
combined by root-sum-square.  Classifier scores over the combined image give
a wrinkle mask; line segments are extracted with a score-weighted Hough
transform, greedy non-maximum suppression in (rho, theta), a total-least-
squares line refit, and projection of supporting pixels into gap-split runs,
one segment per run clipped to the image.  Runs are not split by length
here: the planner splits long wrinkles at twice the iron's length.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from .classify import SvmModel, dense_scores
from .gridio import GrayImage, LabelMask, WorldTransform, LABEL_WRINKLE

EPS_REF = 1.0 / 255.0

# Finest accepted Hough resolutions.  The accumulator has 2*diag/rho_res + 1
# rows of 180/theta_res cells: at these bounds 12801 x 720 float64 cells
# (74 MB) on a 1280x960 image.  Finer bins only split the votes of one line,
# whose final rho and theta come from the total-least-squares refit anyway.
MIN_RHO_RES_PX = 0.25
MIN_THETA_RES_DEG = 0.25
# Extra radius, beyond the gating distance, within which the supporting
# pixels of an extracted line are retired from later lines.
CONSUME_PAD_PX = 2.0
# Votes per np.bincount of the Hough accumulator: a block of theta columns
# over all mask pixels, whose temporaries take about 8 MiB each.
_HOUGH_BLOCK_CELLS = 1 << 20


@dataclass
class NormalizedImage:
    """The root-sum-square combination of the per-light normalized images."""

    combined: np.ndarray
    valid: np.ndarray         # False where a reference pixel fell below EPS_REF


@dataclass
class Discontinuity:
    """Candidate wrinkle: a line segment plus its supporting classified pixels."""

    id: int
    endpoints: tuple[tuple[float, float], tuple[float, float]]   # world meters
    pixels: np.ndarray          # (N, 2) supporting (u, v)
    scores: np.ndarray          # (N,)
    length: float               # meters
    direction: float            # radians in [0, pi)
    rho: float = 0.0            # fitted line params, pixel units
    theta: float = 0.0

    @property
    def midpoint(self) -> tuple[float, float]:
        (x0, y0), (x1, y1) = self.endpoints
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass
class HoughParams:
    rho_res_px: float = 1.0
    theta_res_deg: float = 1.0
    min_votes: float = 10.0
    gating_px: float = 2.0
    gap_px: float = 5.0
    min_len_px: float = 15.0
    nms_rho_px: float = 5.0
    nms_theta_deg: float = 5.0

    def __post_init__(self):
        if not MIN_RHO_RES_PX <= self.rho_res_px < math.inf:
            raise ValueError(f"rho_res_px must be finite and >= {MIN_RHO_RES_PX:g}, "
                             f"got {self.rho_res_px}")
        if not MIN_THETA_RES_DEG <= self.theta_res_deg <= 180.0:
            raise ValueError(f"theta_res_deg must be in [{MIN_THETA_RES_DEG:g}, 180], "
                             f"got {self.theta_res_deg}")
        for name in ("min_votes", "gating_px", "gap_px", "min_len_px",
                     "nms_rho_px", "nms_theta_deg"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def normalize(i1: GrayImage, i2: GrayImage, ref1: GrayImage,
              ref2: GrayImage) -> NormalizedImage:
    """I'_k = I_k / ref_k with floor EPS_REF; combined = sqrt(I'_1^2 + I'_2^2)."""
    shapes = {img.data.shape for img in (i1, i2, ref1, ref2)}
    if len(shapes) != 1:
        raise ValueError(f"image dimensions differ: {sorted(shapes)}")
    r1 = np.asarray(ref1.data, np.float64)
    r2 = np.asarray(ref2.data, np.float64)
    valid = (r1 >= EPS_REF) & (r2 >= EPS_REF)
    n1 = np.where(valid, np.asarray(i1.data) / np.maximum(r1, EPS_REF), 0.0)
    n2 = np.where(valid, np.asarray(i2.data) / np.maximum(r2, EPS_REF), 0.0)
    return NormalizedImage(np.sqrt(n1 * n1 + n2 * n2), valid)


def score_map(nimg: NormalizedImage, model: SvmModel, threshold: float,
              threads: int = 1) -> tuple[LabelMask, np.ndarray]:
    """Per-pixel classifier scores over the combined image and the mask S >= threshold.

    Every pixel is scored from its dense descriptor (classify.dense_scores,
    on up to `threads` worker threads); pixels with an invalid reference
    score 0.
    """
    h, w = nimg.combined.shape
    scores = dense_scores(nimg.combined, model, threads)
    scores[~nimg.valid] = 0.0
    lab = np.where((scores >= threshold) & nimg.valid, LABEL_WRINKLE, 0)
    return LabelMask(w, h, data=lab), scores


def _window(extent: float, step: float, limit: int) -> int:
    """Cells within which a distance below `extent` can fall, one cell of
    margin for rounding; `limit` when that reaches it (or extent is inf/nan)."""
    n = extent / step
    return int(n) + 1 if n < limit else limit


def _hough_votes(uu, vv, wts, thetas, diag: int, rho_res: float) -> np.ndarray:
    """Score-weighted Hough accumulator, (2*diag+1, len(thetas)): pixel i
    votes wts[i] into row rint((u cos t + v sin t) / rho_res) + diag of each
    theta column.

    One np.bincount per block of about _HOUGH_BLOCK_CELLS votes, a block of
    theta columns taken over all pixels, so each cell adds its votes in
    pixel order, as np.add.at does; chunks of pixels would not keep it."""
    nrho, ntheta = 2 * diag + 1, len(thetas)
    cos_t, sin_t = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    acc = np.empty((nrho, ntheta))
    step = max(1, _HOUGH_BLOCK_CELLS // max(len(uu), 1))
    for t0 in range(0, ntheta, step):
        t1 = min(t0 + step, ntheta)
        # theta-major bin indices rbin * nt + column: each column's votes
        # follow each other in pixel order
        rbin = np.rint((uu * cos_t[t0:t1] + vv * sin_t[t0:t1])
                       / rho_res).astype(np.int64) + diag
        nt = t1 - t0
        idx = rbin * nt + np.arange(nt)[:, None]
        acc[:, t0:t1] = np.bincount(idx.ravel(), np.tile(wts, nt),
                                    nrho * nt).reshape(nrho, nt)
    return acc


def _greedy_nms(acc: np.ndarray, thetas: np.ndarray, diag: int, p: HoughParams):
    """Vote-ordered greedy suppression; returns kept (rho, theta) line params.

    Each kept line marks the accumulator cells it suppresses in a boolean
    raster, so a later candidate costs one lookup.  The suppression test is
    evaluated exactly, on a window around the kept cell and around its mirror
    across the theta wrap (where rho flips sign): a superset of the cells for
    which it can hold.
    """
    cand = np.argwhere(acc >= p.min_votes)
    if len(cand) == 0:
        return []
    votes = acc[cand[:, 0], cand[:, 1]]
    order = np.lexsort((cand[:, 1], cand[:, 0], -votes))
    nms_t = math.radians(p.nms_theta_deg)
    nrho, ntheta = acc.shape
    wr = _window(p.nms_rho_px, p.rho_res_px, nrho)
    wt = _window(nms_t, math.pi / ntheta, ntheta)
    all_cols = np.arange(ntheta)
    suppressed = np.zeros(acc.shape, bool)
    kept = []
    for ri, ti in cand[order].tolist():
        if suppressed[ri, ti]:
            continue
        rho = (ri - diag) * p.rho_res_px
        theta = thetas[ti]
        kept.append((rho, theta))
        # rows and columns may repeat: a repeated one gets the same values
        near = np.arange(-wr, wr + 1)
        rows = np.concatenate([ri + near, 2 * diag - ri + near])
        rows = rows[(rows >= 0) & (rows < nrho)]
        cols = (all_cols if 2 * wt + 1 >= ntheta
                else (ti + np.arange(-wt, wt + 1)) % ntheta)
        rho_c = ((rows - diag) * p.rho_res_px)[:, None]
        dth = np.abs(thetas[cols][None, :] - theta)
        # theta wraps mod pi; rho flips sign across the wrap
        drho = np.where(dth <= math.pi / 2, np.abs(rho_c - rho), np.abs(rho_c + rho))
        dth = np.minimum(dth, math.pi - dth)
        suppressed[np.ix_(rows, cols)] |= (drho < p.nms_rho_px) & (dth < nms_t)
    return kept


def _refit_line(uu, vv, wts, sel):
    """Weighted total-least-squares line through the selected pixels."""
    su, sv, sw = uu[sel], vv[sel], wts[sel]
    wsum = sw.sum()
    mu = np.array([(sw * su).sum(), (sw * sv).sum()]) / wsum
    duu, dvv = su - mu[0], sv - mu[1]
    cov = np.array([[(sw * duu * duu).sum(), (sw * duu * dvv).sum()],
                    [(sw * duu * dvv).sum(), (sw * dvv * dvv).sum()]]) / wsum
    _, evec = np.linalg.eigh(cov)
    direction = evec[:, 1]
    nrm = np.array([-direction[1], direction[0]])
    # normalize so theta lies in [0, pi) and rho = mu . n(theta)
    if nrm[1] < 0 or (nrm[1] == 0 and nrm[0] < 0):
        nrm = -nrm
    rho = float(mu @ nrm)
    return rho, math.atan2(nrm[1], nrm[0]) % math.pi, nrm


def _split_runs(ts: np.ndarray, gap: float):
    cut = np.nonzero(np.diff(ts) > gap)[0]
    return np.concatenate([[0], cut + 1]), np.concatenate([cut, [len(ts) - 1]])


def _clip_span(rho, nrm, d, t0, t1, w, h):
    """Clip the parametric span [t0, t1] of the line to the image rectangle.

    Projection feet of edge pixels can fall up to the gating distance outside
    the pixel grid; segment endpoints must stay on it.
    """
    p = rho * nrm
    for axis, limit in ((0, w - 1.0), (1, h - 1.0)):
        if abs(d[axis]) < 1e-12:
            if not (0.0 <= p[axis] <= limit):
                return None
            continue
        ta = (0.0 - p[axis]) / d[axis]
        tb = (limit - p[axis]) / d[axis]
        t0 = max(t0, min(ta, tb))
        t1 = min(t1, max(ta, tb))
    return (t0, t1) if t0 < t1 else None


def extract_segments(mask, scores, params: HoughParams | None = None,
                     transform: WorldTransform | None = None) -> list[Discontinuity]:
    """Extract line-segment discontinuities from a wrinkle mask.

    `mask` is a LabelMask (wrinkle label) or boolean array; `scores` the
    array of per-pixel classifier scores used as Hough vote weights.
    Endpoints are reported in world meters via `transform` (identity cell by
    default).
    """
    p = params or HoughParams()
    t = transform or WorldTransform(1.0)
    m = np.asarray(mask.data == LABEL_WRINKLE if isinstance(mask, LabelMask) else mask,
                   bool)
    s = np.asarray(scores, np.float64)
    h, w = m.shape
    vv, uu = np.nonzero(m)
    if len(uu) == 0:
        return []
    wts = s[vv, uu]
    pix = np.column_stack([uu, vv])
    uu, vv = uu.astype(np.float64), vv.astype(np.float64)

    ntheta = max(1, int(round(180.0 / p.theta_res_deg)))
    thetas = np.arange(ntheta) * math.pi / ntheta
    diag = int(math.ceil(math.hypot(w, h) / p.rho_res_px))
    acc = _hough_votes(uu, vv, wts, thetas, diag, p.rho_res_px)

    consumed = np.zeros(len(uu), bool)
    segs: list[Discontinuity] = []
    for rho0, theta0 in _greedy_nms(acc, thetas, diag, p):
        nrm = np.array([math.cos(theta0), math.sin(theta0)])
        rho_f, theta_f = rho0, theta0
        sel = (~consumed) & (np.abs(uu * nrm[0] + vv * nrm[1] - rho_f) <= p.gating_px)
        # two refit passes tighten lines quantized by the accumulator
        for _ in range(2):
            if not sel.any():
                break
            rho_f, theta_f, nrm = _refit_line(uu, vv, wts, sel)
            sel = (~consumed) & (np.abs(uu * nrm[0] + vv * nrm[1] - rho_f) <= p.gating_px)
        if not sel.any():
            continue
        d = np.array([-nrm[1], nrm[0]])
        proj = uu[sel] * d[0] + vv[sel] * d[1]
        order = np.argsort(proj, kind="stable")
        ts_ = proj[order]
        sel_idx = np.nonzero(sel)[0][order]
        for lo, hi in zip(*_split_runs(ts_, p.gap_px)):
            span = _clip_span(rho_f, nrm, d, ts_[lo], ts_[hi], w, h)
            if span is None:
                continue
            a, b = span
            if b - a < p.min_len_px:
                continue
            idx = sel_idx[(ts_ >= a) & (ts_ <= b)]      # the run's pixels inside the image
            px0 = np.clip(rho_f * nrm + a * d, 0.0, [w - 1.0, h - 1.0])
            px1 = np.clip(rho_f * nrm + b * d, 0.0, [w - 1.0, h - 1.0])
            p0 = t.pixel_to_world(px0[0], px0[1])
            p1 = t.pixel_to_world(px1[0], px1[1])
            segs.append(Discontinuity(
                id=len(segs), endpoints=(p0, p1),
                pixels=pix[idx],
                scores=wts[idx],
                length=float(math.hypot(p1[0] - p0[0], p1[1] - p0[1])),
                direction=float(math.atan2(d[1], d[0]) % math.pi),
                rho=rho_f, theta=theta_f))
        consumed |= np.abs(uu * nrm[0] + vv * nrm[1] - rho_f) <= p.gating_px + CONSUME_PAD_PX
    return segs
