"""Discontinuity scan: reference normalization, pixel scoring, segment extraction.

The two illumination captures are divided by flat-cloth reference images and
combined by root-sum-square.  Classifier scores over the combined image give
a wrinkle mask; line segments are extracted with a score-weighted Hough
transform, greedy non-maximum suppression in (rho, theta), a total-least-
squares line refit, and projection of supporting pixels into gap-split runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from .classify import SvmModel, dense_scores
from .gridio import FloatGrid, GrayImage, LabelMask, WorldTransform, LABEL_WRINKLE

EPS_REF = 1.0 / 255.0


@dataclass
class NormalizedImage:
    """Per-light normalized images and their root-sum-square combination."""

    i1: np.ndarray
    i2: np.ndarray
    combined: np.ndarray
    valid: np.ndarray         # False where a reference pixel fell below EPS_REF

    @property
    def shape(self):
        return self.combined.shape


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
    max_len_px: float = math.inf
    nms_rho_px: float = 5.0
    nms_theta_deg: float = 5.0
    consume_pad_px: float = 2.0   # extra radius when retiring supporting pixels


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
    return NormalizedImage(n1, n2, np.sqrt(n1 * n1 + n2 * n2), valid)


def score_map(nimg: NormalizedImage, model: SvmModel, threshold: float = 0.5,
              cell_size: float = 1.0, origin=(0.0, 0.0)) -> tuple[LabelMask, FloatGrid]:
    """Per-pixel classifier scores over the combined image and the mask S >= threshold.

    Every pixel is scored from its dense descriptor (classify.dense_scores);
    pixels with an invalid reference score 0.
    """
    img = nimg.combined
    h, w = img.shape
    scores = dense_scores(img, model)
    scores[~nimg.valid] = 0.0
    lab = np.where((scores >= threshold) & nimg.valid, LABEL_WRINKLE, 0)
    return (LabelMask(w, h, data=lab),
            FloatGrid(w, h, cell_size, tuple(origin), data=scores))


def _window(extent: float, step: float, limit: int) -> int:
    """Cells within which a distance below `extent` can fall, one cell of
    margin for rounding; `limit` when that reaches it (or extent is inf/nan)."""
    n = extent / step
    return int(n) + 1 if n < limit else limit


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
        near = np.arange(-wr, wr + 1)
        rows = np.unique(np.concatenate([ri + near, 2 * diag - ri + near]))
        rows = rows[(rows >= 0) & (rows < nrho)]
        cols = (all_cols if 2 * wt + 1 >= ntheta
                else np.unique((ti + np.arange(-wt, wt + 1)) % ntheta))
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

    `mask` is a LabelMask (wrinkle label) or boolean array; `scores` a
    FloatGrid or array of per-pixel classifier scores used as Hough vote
    weights.  Endpoints are reported in world meters via `transform`
    (identity cell by default).
    """
    p = params or HoughParams()
    t = transform or WorldTransform(1.0)
    m = np.asarray(mask.data == LABEL_WRINKLE if isinstance(mask, LabelMask) else mask,
                   bool)
    s = np.asarray(getattr(scores, "data", scores), np.float64)
    h, w = m.shape
    vv, uu = np.nonzero(m)
    if len(uu) == 0:
        return []
    wts = s[vv, uu]
    uu = uu.astype(np.float64)
    vv = vv.astype(np.float64)

    ntheta = max(1, int(round(180.0 / p.theta_res_deg)))
    thetas = np.arange(ntheta) * math.pi / ntheta
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(math.ceil(math.hypot(w, h) / p.rho_res_px))
    acc = np.zeros((2 * diag + 1, ntheta))
    theta_idx = np.arange(ntheta)
    for lo in range(0, len(uu), 8192):     # bounded working set, order preserved
        cu, cv = uu[lo:lo + 8192], vv[lo:lo + 8192]
        rbin = np.rint((cu[:, None] * cos_t + cv[:, None] * sin_t)
                       / p.rho_res_px).astype(np.int64) + diag
        np.add.at(acc, (rbin, np.broadcast_to(theta_idx, rbin.shape)),
                  wts[lo:lo + 8192, None])

    consumed = np.zeros(len(uu), bool)
    segs: list[Discontinuity] = []
    for rho0, theta0 in _greedy_nms(acc, thetas, diag, p):
        nrm = np.array([math.cos(theta0), math.sin(theta0)])
        rho_f, theta_f = rho0, theta0
        sel = (~consumed) & (np.abs(uu * nrm[0] + vv * nrm[1] - rho_f) <= p.gating_px)
        # one refit pass tightens lines quantized by the accumulator
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
            run_len = span[1] - span[0]
            if run_len < p.min_len_px:
                continue
            # guard cap only; proper splitting happens in the planner
            n_pieces = 1 if run_len <= p.max_len_px else int(math.ceil(run_len / p.max_len_px))
            bounds = np.linspace(span[0], span[1], n_pieces + 1)
            for a, b in zip(bounds[:-1], bounds[1:]):
                inside = (ts_ >= a) & (ts_ <= b)
                idx = sel_idx[inside]
                px0 = np.clip(rho_f * nrm + a * d, 0.0, [w - 1.0, h - 1.0])
                px1 = np.clip(rho_f * nrm + b * d, 0.0, [w - 1.0, h - 1.0])
                p0 = t.pixel_to_world(px0[0], px0[1])
                p1 = t.pixel_to_world(px1[0], px1[1])
                segs.append(Discontinuity(
                    id=len(segs), endpoints=(p0, p1),
                    pixels=np.column_stack([uu[idx], vv[idx]]).astype(np.int64),
                    scores=s[vv[idx].astype(np.int64), uu[idx].astype(np.int64)],
                    length=float(math.hypot(p1[0] - p0[0], p1[1] - p0[1])),
                    direction=float(math.atan2(d[1], d[0]) % math.pi),
                    rho=rho_f, theta=theta_f))
        consumed |= np.abs(uu * nrm[0] + vv * nrm[1] - rho_f) <= p.gating_px + p.consume_pad_px
    return segs
