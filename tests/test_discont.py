import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CELL, corpus_scene, scene_products, segment_line
from ironpath import discont
from ironpath.discont import (CONSUME_PAD_PX, EPS_REF, Discontinuity, HoughParams,
                              _clip_span, _greedy_nms, _hough_votes, _refit_line,
                              _split_runs, _window, extract_segments, normalize,
                              score_map)
from ironpath.classify import descriptors_at, score_margins
from ironpath.gridio import LABEL_WRINKLE, LabelMask, WorldTransform


def segments(mask, scores, params=HoughParams(), transform=WorldTransform(1.0)):
    """extract_segments of a boolean wrinkle mask, by default in pixel units."""
    return extract_segments(LabelMask(mask.astype(np.uint8)), scores, params, transform)


def band_mask(w, h, p0, p1, hw_px):
    uu, vv = np.meshgrid(np.arange(w), np.arange(h))
    a = np.asarray(p0, float)
    b = np.asarray(p1, float)
    ab = b - a
    L2 = (ab**2).sum()
    t = np.clip(((uu - a[0]) * ab[0] + (vv - a[1]) * ab[1]) / L2, 0, 1)
    d = np.hypot(uu - (a[0] + t * ab[0]), vv - (a[1] + t * ab[1]))
    return d <= hw_px


class TestNormalize:
    def test_capture_equals_reference_gives_uniform_sqrt2(self):
        rng = np.random.default_rng(0)
        ref = rng.uniform(0.3, 0.9, (24, 32))
        out = normalize(ref, ref, ref, ref)
        assert np.all(np.abs(out.combined - math.sqrt(2.0)) < 1e-6)
        assert out.valid.all()

    def test_plain_division(self):
        i1 = np.full((8, 8), 0.25)
        r1 = np.full((8, 8), 0.5)
        other = np.full((8, 8), 0.5)
        out = normalize(i1, other, r1, other)
        assert np.allclose(out.combined, math.hypot(0.5, 1.0), atol=1e-15)

    def test_three_four_five(self):
        ones = np.ones((8, 8))
        out = normalize(np.full((8, 8), 0.6), np.full((8, 8), 0.8),
                        ones, ones)
        assert np.allclose(out.combined, 1.0, atol=1e-12)

    def test_homogeneity_under_joint_scaling(self):
        rng = np.random.default_rng(1)
        i1 = rng.uniform(0.2, 0.8, (16, 16))
        i2 = rng.uniform(0.2, 0.8, (16, 16))
        r1 = rng.uniform(0.4, 0.9, (16, 16))
        r2 = rng.uniform(0.4, 0.9, (16, 16))
        a = normalize(i1, i2, r1, r2)
        b = normalize(i1 / 2, i2 / 2, r1 / 2, r2 / 2)
        assert np.array_equal(a.combined, b.combined)

    def test_low_reference_flags_invalid(self):
        r1 = np.full((8, 8), 0.5)
        r1[2, 3] = EPS_REF / 2
        out = normalize(np.full((8, 8), 0.4), np.full((8, 8), 0.4),
                        r1, np.full((8, 8), 0.5))
        assert not out.valid[2, 3]
        assert out.valid.sum() == 63
        assert out.combined[2, 3] == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            normalize(np.ones((8, 8)), np.ones((8, 9)),
                      np.ones((8, 8)), np.ones((8, 8)))


class TestScoreMap:
    def test_thresholds(self, trained_model):
        spec = corpus_scene(3100)
        _, nimg, _ = scene_products(spec)
        mask0, scores = score_map(nimg, trained_model, threshold=0.0)
        assert np.all((mask0.data == LABEL_WRINKLE) == nimg.valid)
        mask1, _ = score_map(nimg, trained_model, threshold=1.0)
        assert not (mask1.data == LABEL_WRINKLE).any()
        assert scores.min() >= 0.0 and scores.max() < 1.0

    def test_matches_per_pixel_descriptors_on_noisy_scene(self, trained_model):
        spec = corpus_scene(3300)
        assert spec.noise.height_sigma > 0 and spec.noise.image_sigma > 0
        _, nimg, _ = scene_products(spec)
        nimg.valid[5, 7] = False
        mask, scores = score_map(nimg, trained_model, threshold=0.5)
        h, w = nimg.combined.shape
        vv, uu = np.mgrid[0:h, 0:w]
        ref = score_margins(trained_model, descriptors_at(nimg.combined, uu.ravel(),
                                                          vv.ravel())).reshape(h, w)
        ref[~nimg.valid] = 0.0
        assert np.abs(scores - ref).max() <= 1e-12
        ref_mask = (ref >= 0.5) & nimg.valid
        assert np.array_equal(mask.data == LABEL_WRINKLE, ref_mask)
        assert 0 < ref_mask.sum() < ref_mask.size

    def test_ridge_scene_recall(self, trained_model):
        spec = corpus_scene(3200)
        _, nimg, labels = scene_products(spec)
        mask, _ = score_map(nimg, trained_model, threshold=0.5)
        wk = np.asarray(labels.data) == LABEL_WRINKLE
        marked = np.asarray(mask.data) == LABEL_WRINKLE
        recall = (wk & marked).sum() / wk.sum()
        assert recall >= 0.80


class TestExtractSegments:
    def test_empty_mask(self):
        assert segments(np.zeros((32, 32), bool), np.ones((32, 32))) == []

    def test_single_ideal_ridge(self):
        w, h = 200, 150
        p0, p1 = (40.0, 100.0), (138.0, 41.0)
        mask = band_mask(w, h, p0, p1, 1.5)
        segs = segments(mask, np.ones((h, w)))
        assert len(segs) == 1
        s = segs[0]
        ends = np.array(s.endpoints)
        err = max(min(np.hypot(*(e - np.array(p0))), np.hypot(*(e - np.array(p1))))
                  for e in ends)
        assert err <= 2.0
        true_dir = math.atan2(p1[1] - p0[1], p1[0] - p0[0]) % math.pi
        dang = abs((s.direction - true_dir + math.pi / 2) % math.pi - math.pi / 2)
        assert math.degrees(dang) <= 2.0
        assert s.length >= 15.0

    def test_supporting_pixels_within_gating(self):
        w, h = 200, 150
        mask = band_mask(w, h, (30, 40), (170, 110), 1.5)
        for s in segments(mask, np.ones((h, w))):
            rho, theta = segment_line(s)
            n = np.array([math.cos(theta), math.sin(theta)])
            d = np.abs(s.pixels @ n - rho)
            assert d.max() <= 2.0 + 1e-9

    def test_parallel_ridges_suppressed(self):
        w, h = 320, 240
        mask = (band_mask(w, h, (60, 100), (220, 100), 1.5)
                | band_mask(w, h, (60, 103), (220, 103), 1.5))
        assert len(segments(mask, np.ones((h, w)))) == 1

    def test_distinct_lines_respect_nms_radius(self):
        w, h = 320, 240
        mask = (band_mask(w, h, (40, 60), (280, 60), 1.5)
                | band_mask(w, h, (40, 180), (280, 185), 1.5)
                | band_mask(w, h, (160, 30), (165, 210), 1.5))
        lines = [segment_line(s) for s in segments(mask, np.ones((h, w)))]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                (rho_i, th_i), (rho_j, th_j) = lines[i], lines[j]
                if th_i == th_j and abs(rho_i - rho_j) < 1e-6:
                    continue            # two runs of one line
                dth = abs(th_i - th_j)
                drho = abs(rho_i - rho_j) if dth <= math.pi / 2 else abs(rho_i + rho_j)
                dth = min(dth, math.pi - dth)
                assert not (drho < 5.0 and math.degrees(dth) < 5.0)

    def test_collinear_runs_split_on_gap(self):
        w, h = 320, 240
        mask = (band_mask(w, h, (40, 120), (140, 120), 1.5)
                | band_mask(w, h, (180, 120), (280, 120), 1.5))
        segs = segments(mask, np.ones((h, w)))
        assert len(segs) == 2
        (rho0, th0), (rho1, th1) = map(segment_line, segs)
        assert th0 == th1 and rho0 == pytest.approx(rho1, abs=1e-9)

    def test_world_transform_applied(self):
        w, h = 200, 150
        mask = band_mask(w, h, (40, 75), (160, 75), 1.5)
        t = WorldTransform(CELL, (0.5, 0.25))
        segs = segments(mask, np.ones((h, w)), transform=t)
        assert len(segs) == 1
        (x0, y0), (x1, y1) = segs[0].endpoints
        assert min(x0, x1) == pytest.approx(0.5 + 40 * CELL, abs=2 * CELL)
        assert y0 == pytest.approx(0.25 + 75 * CELL, abs=2 * CELL)
        assert segs[0].length == pytest.approx(120 * CELL, abs=4 * CELL)

    def test_translation_equivariance(self):
        w, h = 260, 200
        segs_a = segments(band_mask(w, h, (40, 60), (180, 130), 1.5), np.ones((h, w)))
        segs_b = segments(band_mask(w, h, (52, 81), (192, 151), 1.5), np.ones((h, w)))
        assert len(segs_a) == len(segs_b) == 1
        for ea, eb in zip(segs_a[0].endpoints, segs_b[0].endpoints):
            assert eb[0] - ea[0] == pytest.approx(12.0, abs=0.75)
            assert eb[1] - ea[1] == pytest.approx(21.0, abs=0.75)

    def test_score_weighting_prefers_confident_line(self):
        # two crossing bands; the higher-scored one must win the first peak
        w, h = 200, 200
        m1 = band_mask(w, h, (30, 100), (170, 100), 1.5)
        m2 = band_mask(w, h, (100, 30), (100, 170), 1.5)
        scores = np.where(m2, 0.9, 0.2)
        segs = segments(m1 | m2, scores)
        assert len(segs) >= 2
        _, theta = segment_line(segs[0])
        assert abs(math.degrees(theta)) < 1e-6   # vertical band: theta 0


def add_at_votes(uu, vv, wts, thetas, diag, rho_res):
    """Reference Hough accumulator: np.add.at, pixel by pixel in order."""
    acc = np.zeros((2 * diag + 1, len(thetas)))
    rbin = np.rint((uu[:, None] * np.cos(thetas) + vv[:, None] * np.sin(thetas))
                   / rho_res).astype(np.int64) + diag
    np.add.at(acc, (rbin, np.broadcast_to(np.arange(len(thetas)), rbin.shape)),
              wts[:, None])
    return acc


class TestHoughVotes:
    # more than 8192 pixels in the largest mask, and blocks of one theta
    # column up to all of them (1 << 20 takes every column of every case)
    @pytest.mark.parametrize("block_cells", [1 << 20, discont._HOUGH_BLOCK_CELLS, 1000, 1])
    @pytest.mark.parametrize("shape, fill, rho_res, theta_res", [
        ((1, 1), 1.0, 1.0, 1.0), ((30, 41), 0.3, 0.7, 2.5), ((90, 120), 0.05, 1.0, 1.0),
        ((150, 200), 0.35, 0.25, 7.0)], ids=str)
    def test_bit_identical_to_add_at(self, monkeypatch, block_cells, shape, fill,
                                     rho_res, theta_res):
        monkeypatch.setattr(discont, "_HOUGH_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(shape[0] + shape[1])
        vv, uu = np.nonzero(rng.random(shape) < fill)
        wts = rng.uniform(0.5, 1.0, len(uu))
        uu, vv = uu.astype(np.float64), vv.astype(np.float64)
        ntheta = max(1, int(round(180.0 / theta_res)))
        thetas = np.arange(ntheta) * math.pi / ntheta
        diag = int(math.ceil(math.hypot(shape[1], shape[0]) / rho_res))
        acc = _hough_votes(uu, vv, wts, thetas, diag, rho_res)
        assert np.array_equal(acc, add_at_votes(uu, vv, wts, thetas, diag, rho_res))
        assert acc.sum() > 0


def pairwise_nms(acc, thetas, diag, p):
    """Reference greedy NMS: each candidate against every kept line."""
    cand = np.argwhere(acc >= p.min_votes)
    if len(cand) == 0:
        return []
    votes = acc[cand[:, 0], cand[:, 1]]
    order = np.lexsort((cand[:, 1], cand[:, 0], -votes))
    nms_t = math.radians(p.nms_theta_deg)
    kept = []
    for ci in order:
        rho = (cand[ci, 0] - diag) * p.rho_res_px
        theta = thetas[cand[ci, 1]]
        ok = True
        for rho_k, theta_k in kept:
            dth = abs(theta - theta_k)
            drho = abs(rho - rho_k) if dth <= math.pi / 2 else abs(rho + rho_k)
            dth = min(dth, math.pi - dth)
            if drho < p.nms_rho_px and dth < nms_t:
                ok = False
                break
        if ok:
            kept.append((rho, theta))
    return kept


@st.composite
def sparse_accumulators(draw):
    """Sparse accumulators with tied votes, lines bunched near theta 0 and
    pi and near rho 0, and non-default resolutions and NMS radii."""
    p = HoughParams(
        rho_res_px=draw(st.sampled_from([0.5, 0.7, 1.0, 1.5, 3.0])),
        theta_res_deg=draw(st.sampled_from([0.5, 1.0, 2.5, 7.0, 30.0, 90.0])),
        nms_rho_px=draw(st.floats(0.0, 25.0)),
        nms_theta_deg=draw(st.floats(0.0, 120.0)))
    ntheta = max(1, int(round(180.0 / p.theta_res_deg)))
    diag = draw(st.integers(1, 40))
    acc = np.zeros((2 * diag + 1, ntheta))
    row = st.one_of(st.integers(0, 2 * diag), st.integers(diag - 3, diag + 3))
    col = st.one_of(st.integers(0, ntheta - 1), st.sampled_from([0, 1, ntheta - 1, ntheta - 2]))
    for r, c, v in draw(st.lists(st.tuples(row, col, st.sampled_from([9.0, 10.0, 10.0, 12.5, 30.0])),
                                 max_size=60)):
        acc[min(r, 2 * diag), c % ntheta] = v
    return acc, np.arange(ntheta) * math.pi / ntheta, diag, p


class TestGreedyNms:
    @settings(max_examples=300, deadline=None)
    @given(sparse_accumulators())
    def test_raster_matches_pairwise_reference(self, case):
        acc, thetas, diag, p = case
        assert _greedy_nms(acc, thetas, diag, p) == pairwise_nms(acc, thetas, diag, p)


def accumulator(mask, scores, p):
    """The Hough accumulator extract_segments builds, with its thetas and diag."""
    vv, uu = np.nonzero(mask)
    ntheta = max(1, int(round(180.0 / p.theta_res_deg)))
    thetas = np.arange(ntheta) * math.pi / ntheta
    h, w = mask.shape
    diag = int(math.ceil(math.hypot(w, h) / p.rho_res_px))
    acc = _hough_votes(uu.astype(np.float64), vv.astype(np.float64), scores[vv, uu],
                       thetas, diag, p.rho_res_px)
    return acc, thetas, diag


def dense_accumulator(seed, diag, theta_res, p):
    """Thousands of candidates: votes on a coarse grid of levels (many ties),
    about 40 % of the cells at or above p.min_votes."""
    ntheta = max(1, int(round(180.0 / theta_res)))
    rng = np.random.default_rng(seed)
    acc = rng.integers(0, 40, (2 * diag + 1, ntheta)) * 0.5
    return acc, np.arange(ntheta) * math.pi / ntheta, diag, p


DENSE_CASES = {
    "default": (0, 30, 1.0, HoughParams(min_votes=12.0)),
    "coarse": (1, 45, 2.5, HoughParams(rho_res_px=0.7, min_votes=12.0, nms_rho_px=3.0,
                                       nms_theta_deg=12.0)),
    # theta windows that span every column, rho windows of a few rows
    "all-columns": (2, 80, 7.0, HoughParams(rho_res_px=2.5, min_votes=12.0, nms_rho_px=9.0,
                                            nms_theta_deg=120.0)),
    "narrow": (3, 30, 2.5, HoughParams(min_votes=15.0, nms_rho_px=1.5, nms_theta_deg=4.0)),
}
BLOCKS = (1, 7, discont._NMS_BLOCK)


class TestGreedyNmsBlocks:
    """Candidates that span many blocks, against the pairwise reference."""

    @pytest.mark.parametrize("case", sorted(DENSE_CASES))
    def test_dense_accumulators(self, monkeypatch, case):
        seed, diag, theta_res, p = DENSE_CASES[case]
        acc, thetas, diag, p = dense_accumulator(seed, diag, theta_res, p)
        assert (acc >= p.min_votes).sum() >= 1000
        want = pairwise_nms(acc, thetas, diag, p)
        assert len(want) > 40
        for block in BLOCKS:
            monkeypatch.setattr(discont, "_NMS_BLOCK", block)
            assert _greedy_nms(acc, thetas, diag, p) == want, block

    def test_cluttered_scene(self, monkeypatch, trained_model):
        # the score mask of a noisy corpus scene: ridges plus scattered
        # false positives, thousands of cells at min_votes
        _, nimg, _ = scene_products(corpus_scene(3300))
        mask, scores = score_map(nimg, trained_model, threshold=0.5)
        p = HoughParams()
        acc, thetas, diag = accumulator(mask.data == LABEL_WRINKLE, scores, p)
        assert (acc >= p.min_votes).sum() >= 2000
        want = pairwise_nms(acc, thetas, diag, p)
        assert len(want) > 2 * discont._NMS_BLOCK
        for block in BLOCKS:
            monkeypatch.setattr(discont, "_NMS_BLOCK", block)
            assert _greedy_nms(acc, thetas, diag, p) == want, block


def raster_nms(acc: np.ndarray, thetas: np.ndarray, diag: int, p: HoughParams):
    """Reference NMS: a suppression raster updated one kept cell at a time."""
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


def reference_segments(mask, scores, params=None, transform=None):
    """Reference extract_segments: raster_nms, then every kept line gated
    against every pixel, with a consumed flag per pixel."""
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
    segs = []
    for rho0, theta0 in raster_nms(acc, thetas, diag, p):
        nrm = np.array([math.cos(theta0), math.sin(theta0)])
        rho_f = rho0
        sel = (~consumed) & (np.abs(uu * nrm[0] + vv * nrm[1] - rho_f) <= p.gating_px)
        # two refit passes tighten lines quantized by the accumulator
        for _ in range(2):
            if not sel.any():
                break
            rho_f, theta = _refit_line(uu, vv, wts, sel)
            nrm = np.array([math.cos(theta), math.sin(theta)])
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
                direction=(theta + math.pi / 2) % math.pi))
        consumed |= np.abs(uu * nrm[0] + vv * nrm[1] - rho_f) <= p.gating_px + CONSUME_PAD_PX
    return segs


@st.composite
def band_scenes(draw):
    """Band masks with scattered pixels, weights from two levels (tied votes),
    and non-default Hough parameters."""
    w, h = draw(st.integers(12, 40)), draw(st.integers(12, 40))
    mask = np.zeros((h, w), bool)
    for _ in range(draw(st.integers(1, 3))):
        u0, v0 = draw(st.integers(-4, w + 4)), draw(st.integers(-4, h + 4))
        u1, v1 = draw(st.integers(-4, w + 4)), draw(st.integers(-4, h + 4))
        if (u0, v0) != (u1, v1):
            mask |= band_mask(w, h, (u0, v0), (u1, v1), draw(st.sampled_from([0.5, 1.0, 2.0])))
    for u, v in draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                              max_size=25)):
        mask[v, u] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = np.where(mask, rng.choice([0.5, 1.0], mask.shape), 0.0)
    p = HoughParams(
        rho_res_px=draw(st.sampled_from([1.0, 0.7, 2.5])),
        theta_res_deg=draw(st.sampled_from([1.0, 2.5, 7.0, 45.0])),
        min_votes=draw(st.sampled_from([4.0, 2.0, 8.0])),
        gating_px=draw(st.sampled_from([2.0, 1.0, 0.0, math.inf])),
        gap_px=draw(st.sampled_from([2.0, 0.0, 5.0])),
        min_len_px=draw(st.sampled_from([4.0, 0.0, 10.0])),
        nms_rho_px=draw(st.sampled_from([5.0, 0.0, 2.5, 100.0])),
        # 200 degrees: the theta window spans every column
        nms_theta_deg=draw(st.sampled_from([5.0, 0.0, 30.0, 200.0])))
    transform = WorldTransform(draw(st.sampled_from([1.0, CELL])), (0.5, -0.25))
    return mask, scores, p, transform


def assert_same_segments(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.id == b.id
        assert a.endpoints == b.endpoints
        assert a.pixels.dtype == b.pixels.dtype and np.array_equal(a.pixels, b.pixels)
        assert a.scores.dtype == b.scores.dtype and np.array_equal(a.scores, b.scores)
        assert (a.length, a.direction) == (b.length, b.direction)


class TestExtractSegmentsReference:
    @settings(max_examples=150, deadline=None)
    @given(band_scenes())
    def test_matches_reference_loop(self, case):
        mask, scores, p, transform = case
        assert_same_segments(segments(mask, scores, p, transform),
                             reference_segments(mask, scores, p, transform))

    def test_cluttered_scene(self, trained_model):
        _, nimg, _ = scene_products(corpus_scene(3300))
        mask, scores = score_map(nimg, trained_model, threshold=0.5)
        t = WorldTransform(CELL)
        segs = extract_segments(mask, scores, HoughParams(), t)
        assert len(segs) >= 3
        assert_same_segments(segs, reference_segments(mask, scores, transform=t))


@st.composite
def weighted_clouds(draw):
    """Pixel clouds stretched along a random axis, positive weights, and a
    selection of at least three of the pixels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 80))
    axis = draw(st.floats(0.0, math.pi))
    major = draw(st.floats(2.0, 400.0))
    minor = major * draw(st.floats(0.0, 0.3))
    t, s = rng.normal(size=(2, n)) * [[major], [minor]]
    centre = rng.uniform(0.0, 1000.0, 2)
    uu = centre[0] + t * math.cos(axis) - s * math.sin(axis)
    vv = centre[1] + t * math.sin(axis) + s * math.cos(axis)
    wts = rng.uniform(0.05, 3.0, n)
    sel = rng.random(n) < 0.8
    sel[rng.choice(n, 3, replace=False)] = True
    return uu, vv, wts, sel


class TestRefitLine:
    @settings(max_examples=200, deadline=None)
    @given(weighted_clouds())
    def test_minor_axis_of_weighted_covariance(self, cloud):
        uu, vv, wts, sel = cloud
        pts, w = np.column_stack([uu, vv])[sel], wts[sel]
        mean = np.average(pts, axis=0, weights=w)
        evals, evec = np.linalg.eigh(np.cov(pts.T, aweights=w, bias=True))
        # a clear eigenvalue gap, so that the minor axis is well defined
        assume(evals[1] - evals[0] >= 0.5 * evals[1] > 0)
        rho, theta = _refit_line(uu, vv, wts, sel)
        assert 0.0 <= theta < math.pi
        dth = (theta - math.atan2(evec[1, 0], evec[0, 0])) % math.pi
        assert min(dth, math.pi - dth) <= 1e-9
        nrm = np.array([math.cos(theta), math.sin(theta)])
        assert abs(rho - mean @ nrm) <= 1e-9 * (1.0 + np.abs(mean).sum())

    @pytest.mark.parametrize("uu, vv, line", [
        ([5.0], [7.0], (5.0, 0.0)),                           # one pixel
        ([0.0, 1.0, 2.0, 3.0], [7.0] * 4, (7.0, math.pi / 2)),   # a horizontal run
        ([3.0] * 4, [0.0, 1.0, 2.0, 3.0], (3.0, 0.0))],       # a vertical run
        ids=["one-pixel", "horizontal", "vertical"])
    def test_degenerate_clouds(self, uu, vv, line):
        uu, vv = np.array(uu), np.array(vv)
        assert _refit_line(uu, vv, np.ones(len(uu)), np.ones(len(uu), bool)) == line

    def test_zero_weight_is_a_nan_line_that_gates_no_pixel(self):
        uu, vv = np.array([3.0, 4.0, 9.0]), np.array([1.0, 2.0, 2.0])
        with np.errstate(invalid="ignore"):
            rho, theta = _refit_line(uu, vv, np.zeros(3), np.ones(3, bool))
        assert math.isnan(rho) and math.isnan(theta)
        # not even an infinite gating distance takes a pixel
        assert not np.any(np.abs(uu * math.cos(theta) + vv * math.sin(theta) - rho) <= math.inf)
