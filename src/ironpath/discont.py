"""Discontinuity scan: reference normalization, pixel scoring, segment extraction.

The two illumination captures are divided by flat-cloth reference images and
combined by root-sum-square.  Classifier scores over the combined image give
a wrinkle mask; line segments are extracted with a score-weighted Hough
transform, greedy non-maximum suppression in (rho, theta), two closed-form
total-least-squares line refits, and projection of supporting pixels into
gap-split runs, one segment per run clipped to the image.  A line is (rho,
theta) throughout, with unit normal (cos theta, sin theta).  Runs are not
split by length here: the planner splits long wrinkles at twice the iron's
length.

Segment extraction runs on the calling thread, and per candidate and per
line it is bound by numpy call overhead, so both loops are built to make few
calls.  Suppression evaluates its exact test from tables built once per
call: per theta column, the side of the theta wrap and the theta test over
every column and over the window of columns where it can hold.  Candidates
are settled in blocks, each against a raster of the cells earlier blocks
suppress and then against itself; a block's kept stencils enter the raster
in one assignment.  The kept lines then take pixels in vote order; the
pixels not yet taken are compacted after each extracted line, so a line
that finds none, most of them, costs a few calls on a short array, and the
loop ends when no pixel is left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import logging
import math
import numpy as np

from .classify import SvmModel, dense_scores
from .gridio import LabelMask, WorldTransform, LABEL_WRINKLE

log = logging.getLogger(__name__)

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
# over all mask pixels, whose temporaries take about 0.5 MiB each.
_HOUGH_BLOCK_CELLS = 1 << 16
# Candidates per block of _greedy_nms: each block settles its unsuppressed
# candidates against each other in one (n, n) table lookup.
_NMS_BLOCK = 64
# Stencil cells per raster assignment of _greedy_nms, which bounds its
# temporaries when the NMS windows span the whole accumulator.
_NMS_STENCIL_CELLS = 1 << 18


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

    @property
    def midpoint(self) -> tuple[float, float]:
        (x0, y0), (x1, y1) = self.endpoints
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass
class HoughParams:
    rho_res_px: float = field(default=1.0, metadata={"key": "hough_rho_px"})
    theta_res_deg: float = field(default=1.0, metadata={"key": "hough_theta_deg"})
    min_votes: float = field(default=10.0, metadata={"key": "hough_min_votes"})
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


def normalize(i1: np.ndarray, i2: np.ndarray, ref1: np.ndarray,
              ref2: np.ndarray) -> NormalizedImage:
    """I'_k = I_k / ref_k where both references reach EPS_REF (`valid`: the
    pixels that score_map may mark and training samples), else 0;
    combined = sqrt(I'_1^2 + I'_2^2).

    The four images are (h, w) intensity arrays of one shape."""
    shapes = {np.shape(img) for img in (i1, i2, ref1, ref2)}
    if len(shapes) != 1:
        raise ValueError(f"image dimensions differ: {sorted(shapes)}")
    r1 = np.asarray(ref1, np.float64)
    r2 = np.asarray(ref2, np.float64)
    valid = (r1 >= EPS_REF) & (r2 >= EPS_REF)
    n1 = np.divide(i1, r1, out=np.zeros(valid.shape), where=valid)
    n2 = np.divide(i2, r2, out=np.zeros(valid.shape), where=valid)
    return NormalizedImage(np.sqrt(n1 * n1 + n2 * n2), valid)


def score_map(nimg: NormalizedImage, model: SvmModel, threshold: float,
              map_fn=map) -> tuple[LabelMask, np.ndarray]:
    """Per-pixel classifier scores over the combined image and the mask S >= threshold.

    Every pixel is scored from its dense descriptor (classify.dense_scores,
    whose bands map_fn runs: the builtin map or an executor's); pixels with
    an invalid reference score 0.
    """
    scores = dense_scores(nimg.combined, model, map_fn)
    scores[~nimg.valid] = 0.0
    lab = np.where((scores >= threshold) & nimg.valid, np.uint8(LABEL_WRINKLE), np.uint8(0))
    return LabelMask(lab), scores


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

    A candidate is kept unless an earlier kept cell suppresses it.  With
    R = (np.arange(nrho) - diag) * rho_res_px, kept cell (ri, ti) suppresses
    cell (r, c) when min(dth, pi - dth) < nms_t for dth = |theta_c - theta_i|,
    and |R[r] - R[ri]| < nms_rho_px if dth <= pi/2, else |R[r] + R[ri]|
    (theta wraps mod pi; rho flips sign across the wrap).  The theta half of
    the test is a table per theta column, both over every column and over
    the window of columns where it can hold; as -R[ri] == R[2*diag - ri]
    exactly, the rho half is the direct test around the mirror row.

    Candidates go in vote order, in blocks of the next _NMS_BLOCK that a
    boolean raster does not already suppress.  The raster holds every cell
    the kept cells of earlier blocks suppress, padded by the rho window so
    that no stencil leaves it.  A block is settled against itself by one
    pairwise test and a pass in vote order, and the stencils of its kept
    cells are ORed into the raster in one assignment.
    """
    cand = np.argwhere(acc >= p.min_votes)
    # argwhere lists cells by row, then column: a stable sort keeps that
    # order among tied votes
    cand = cand[np.argsort(-acc[cand[:, 0], cand[:, 1]], kind="stable")]
    nrho, ntheta = acc.shape
    nms_t = math.radians(p.nms_theta_deg)
    wr = _window(p.nms_rho_px, p.rho_res_px, nrho)
    wt = _window(nms_t, math.pi / ntheta, ntheta)
    # theta tables [ti, c], one plane per side: the test holds and
    # dth <= pi/2 (direct side), or it holds and dth > pi/2 (mirror side)
    dth = np.abs(thetas[None, :] - thetas[:, None])
    near = np.minimum(dth, math.pi - dth) < nms_t
    sides = np.stack([near & (dth <= math.pi / 2), near & ~(dth <= math.pi / 2)])
    # the same over wcols[ti], the columns where the test can hold
    cols = np.arange(ntheta)
    wcols = (np.broadcast_to(cols, (ntheta, ntheta)) if 2 * wt + 1 >= ntheta
             else (cols[:, None] + np.arange(-wt, wt + 1)) % ntheta)
    sides_w = np.take_along_axis(sides, wcols[None], 2)
    # R of padded row i is rho[i]; a cell's raster index is its padded row
    # times ntheta plus its column
    rho = (np.arange(-wr, nrho + wr) - diag) * p.rho_res_px
    span = np.arange(-wr, wr + 1)
    suppressed = np.zeros((nrho + 2 * wr) * ntheta, bool)
    cand_at = (cand[:, 0] + wr) * ntheta + cand[:, 1]
    per_assign = max(1, _NMS_STENCIL_CELLS // (2 * len(span) * wcols.shape[1]))
    kept_r, kept_t = [], []
    pos = 0
    while pos < len(cand):
        # the next block: up to _NMS_BLOCK live candidates among the next
        # 8 blocks' worth, most of which the raster suppresses late on
        ahead = cand_at[pos:pos + 8 * _NMS_BLOCK]
        live = np.flatnonzero(~suppressed[ahead])[:_NMS_BLOCK]
        if len(live) == 0:
            pos += len(ahead)
            continue
        ri, ti = cand[pos + live].T
        pos += int(live[-1]) + 1
        # hits[i, j]: candidate i suppresses candidate j
        r = rho[ri + wr]
        pair = ti[:, None], ti[None, :]
        hits = ((sides[0][pair] & (np.abs(r[None, :] - r[:, None]) < p.nms_rho_px))
                | (sides[1][pair] & (np.abs(r[None, :] + r[:, None]) < p.nms_rho_px)))
        keep = np.zeros(len(ri), bool)
        dead = np.zeros(len(ri), bool)
        for j in range(len(ri)):
            if not dead[j]:
                keep[j] = True
                dead |= hits[j]
        ri, ti = ri[keep], ti[keep]
        kept_r += r[keep].tolist()
        kept_t += thetas[ti].tolist()
        for k0 in range(0, len(ri), per_assign):
            # stencils [side, cell, row, window column]: the rows around the
            # kept cell on the direct side, around its mirror row on the other
            kr, kt = ri[k0:k0 + per_assign], ti[k0:k0 + per_assign]
            centre = np.stack([kr, 2 * diag - kr]) + wr
            rows = centre[:, :, None] + span
            on = ((np.abs(rho[rows] - rho[centre][:, :, None]) < p.nms_rho_px)[..., None]
                  & sides_w[:, kt, None, :])
            suppressed[(rows[..., None] * ntheta + wcols[kt, None, :])[on]] = True
    return list(zip(kept_r, kept_t))


def _refit_line(uu, vv, wts, sel):
    """Weighted total-least-squares line through the selected pixels, (rho,
    theta): theta in [0, pi) is the minor axis of their weighted covariance
    C, theta = atan2(-2 C_uv, C_vv - C_uu) / 2 mod pi, and rho is their
    weighted mean . (cos theta, sin theta)."""
    su, sv, sw = uu[sel], vv[sel], wts[sel]
    wsum = sw.sum()
    mu_u, mu_v = (sw * su).sum() / wsum, (sw * sv).sum() / wsum
    du, dv = su - mu_u, sv - mu_v
    c_uu, c_uv, c_vv = (sw * du * du).sum(), (sw * du * dv).sum(), (sw * dv * dv).sum()
    theta = 0.5 * math.atan2(-2.0 * c_uv, c_vv - c_uu) % math.pi
    return float(mu_u * math.cos(theta) + mu_v * math.sin(theta)), theta


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


def extract_segments(mask: LabelMask, scores: np.ndarray, params: HoughParams,
                     transform: WorldTransform) -> list[Discontinuity]:
    """Extract line-segment discontinuities from the wrinkle pixels of `mask`.

    `scores` is the array of per-pixel classifier scores used as Hough vote
    weights.  Endpoints are reported in world meters via `transform`.  Logs
    one DEBUG line of counts: the accumulator cells at or above min_votes,
    the lines NMS kept, the lines refit (whose gating band held a free
    pixel) and the segments.
    """
    h, w = mask.data.shape
    vv, uu = np.nonzero(mask.data == LABEL_WRINKLE)
    wts = np.asarray(scores, np.float64)[vv, uu]
    pix = np.column_stack([uu, vv])
    uu, vv = uu.astype(np.float64), vv.astype(np.float64)

    ntheta = max(1, int(round(180.0 / params.theta_res_deg)))
    thetas = np.arange(ntheta) * math.pi / ntheta
    diag = int(math.ceil(math.hypot(w, h) / params.rho_res_px))
    acc = _hough_votes(uu, vv, wts, thetas, diag, params.rho_res_px)
    lines = _greedy_nms(acc, thetas, diag, params)

    # the pixels no extracted line has taken yet: their indices, coordinates
    # and weights, compacted after each line
    free, fu, fv, fw = np.arange(len(uu)), uu, vv, wts
    segs: list[Discontinuity] = []
    refit = 0
    for rho, theta in lines:
        if len(free) == 0:
            break
        # gate the free pixels by the Hough line, then by each of two refits
        # to the pixels the line before gated: the refits tighten lines
        # quantized by the accumulator
        for fit in range(3):
            if fit:
                rho, theta = _refit_line(fu, fv, fw, sel)
            dist = np.abs(fu * math.cos(theta) + fv * math.sin(theta) - rho)
            sel = dist <= params.gating_px
            if not sel.any():
                break
        refit += fit > 0            # the Hough line's band held a free pixel
        if not sel.any():
            continue
        nrm = np.array([math.cos(theta), math.sin(theta)])
        d = np.array([-nrm[1], nrm[0]])
        proj = fu[sel] * d[0] + fv[sel] * d[1]
        order = np.argsort(proj, kind="stable")
        ts_ = proj[order]
        sel_idx = free[np.nonzero(sel)[0][order]]
        for lo, hi in zip(*_split_runs(ts_, params.gap_px)):
            span = _clip_span(rho, nrm, d, ts_[lo], ts_[hi], w, h)
            if span is None:
                continue
            a, b = span
            if b - a < params.min_len_px:
                continue
            idx = sel_idx[(ts_ >= a) & (ts_ <= b)]      # the run's pixels inside the image
            ends = np.clip(rho * nrm + np.outer(span, d), 0.0, [w - 1.0, h - 1.0])
            p0, p1 = (transform.pixel_to_world(*px) for px in ends)
            segs.append(Discontinuity(
                id=len(segs), endpoints=(p0, p1),
                pixels=pix[idx],
                scores=wts[idx],
                length=float(math.hypot(p1[0] - p0[0], p1[1] - p0[1])),
                direction=(theta + math.pi / 2) % math.pi))
        left = dist > params.gating_px + CONSUME_PAD_PX
        free, fu, fv, fw = free[left], fu[left], fv[left], fw[left]
    log.debug("%d cells at or above min_votes, %d lines kept, %d refit, %d segments",
              np.count_nonzero(acc >= params.min_votes), len(lines), refit, len(segs))
    return segs
