import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CELL, corpus_scene, scene_products
from ironpath import discont
from ironpath.discont import (EPS_REF, HoughParams, _greedy_nms, _hough_votes,
                              extract_segments, normalize, score_map)
from ironpath.classify import descriptors_at, score_margins
from ironpath.gridio import GrayImage, LABEL_WRINKLE, WorldTransform


def gray(arr):
    arr = np.asarray(arr, float)
    return GrayImage(arr.shape[1], arr.shape[0], data=arr)


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
        out = normalize(gray(ref), gray(ref), gray(ref), gray(ref))
        assert np.all(np.abs(out.combined - math.sqrt(2.0)) < 1e-6)
        assert out.valid.all()

    def test_plain_division(self):
        i1 = gray(np.full((8, 8), 0.25))
        r1 = gray(np.full((8, 8), 0.5))
        other = gray(np.full((8, 8), 0.5))
        out = normalize(i1, other, r1, other)
        assert np.allclose(out.combined, math.hypot(0.5, 1.0), atol=1e-15)

    def test_three_four_five(self):
        ones = gray(np.ones((8, 8)))
        out = normalize(gray(np.full((8, 8), 0.6)), gray(np.full((8, 8), 0.8)),
                        ones, ones)
        assert np.allclose(out.combined, 1.0, atol=1e-12)

    def test_homogeneity_under_joint_scaling(self):
        rng = np.random.default_rng(1)
        i1 = rng.uniform(0.2, 0.8, (16, 16))
        i2 = rng.uniform(0.2, 0.8, (16, 16))
        r1 = rng.uniform(0.4, 0.9, (16, 16))
        r2 = rng.uniform(0.4, 0.9, (16, 16))
        a = normalize(gray(i1), gray(i2), gray(r1), gray(r2))
        b = normalize(gray(i1 / 2), gray(i2 / 2), gray(r1 / 2), gray(r2 / 2))
        assert np.array_equal(a.combined, b.combined)

    def test_low_reference_flags_invalid(self):
        r1 = np.full((8, 8), 0.5)
        r1[2, 3] = EPS_REF / 2
        out = normalize(gray(np.full((8, 8), 0.4)), gray(np.full((8, 8), 0.4)),
                        gray(r1), gray(np.full((8, 8), 0.5)))
        assert not out.valid[2, 3]
        assert out.valid.sum() == 63
        assert out.combined[2, 3] == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            normalize(gray(np.ones((8, 8))), gray(np.ones((8, 9))),
                      gray(np.ones((8, 8))), gray(np.ones((8, 8))))


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
        assert extract_segments(np.zeros((32, 32), bool), np.ones((32, 32))) == []

    def test_single_ideal_ridge(self):
        w, h = 200, 150
        p0, p1 = (40.0, 100.0), (138.0, 41.0)
        mask = band_mask(w, h, p0, p1, 1.5)
        segs = extract_segments(mask, np.ones((h, w)))
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
        for s in extract_segments(mask, np.ones((h, w))):
            n = np.array([math.cos(s.theta), math.sin(s.theta)])
            d = np.abs(s.pixels @ n - s.rho)
            assert d.max() <= 2.0 + 1e-9

    def test_parallel_ridges_suppressed(self):
        w, h = 320, 240
        mask = (band_mask(w, h, (60, 100), (220, 100), 1.5)
                | band_mask(w, h, (60, 103), (220, 103), 1.5))
        assert len(extract_segments(mask, np.ones((h, w)))) == 1

    def test_distinct_lines_respect_nms_radius(self):
        w, h = 320, 240
        mask = (band_mask(w, h, (40, 60), (280, 60), 1.5)
                | band_mask(w, h, (40, 180), (280, 185), 1.5)
                | band_mask(w, h, (160, 30), (165, 210), 1.5))
        segs = extract_segments(mask, np.ones((h, w)))
        lines = {(round(s.rho, 6), round(s.theta, 6)) for s in segs}
        lines = sorted(lines)
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                dth = abs(lines[i][1] - lines[j][1])
                drho = (abs(lines[i][0] - lines[j][0]) if dth <= math.pi / 2
                        else abs(lines[i][0] + lines[j][0]))
                dth = min(dth, math.pi - dth)
                assert not (drho < 5.0 and math.degrees(dth) < 5.0)

    def test_collinear_runs_split_on_gap(self):
        w, h = 320, 240
        mask = (band_mask(w, h, (40, 120), (140, 120), 1.5)
                | band_mask(w, h, (180, 120), (280, 120), 1.5))
        segs = extract_segments(mask, np.ones((h, w)))
        assert len(segs) == 2
        assert segs[0].theta == segs[1].theta

    def test_world_transform_applied(self):
        w, h = 200, 150
        mask = band_mask(w, h, (40, 75), (160, 75), 1.5)
        t = WorldTransform(CELL, (0.5, 0.25))
        segs = extract_segments(mask, np.ones((h, w)), transform=t)
        assert len(segs) == 1
        (x0, y0), (x1, y1) = segs[0].endpoints
        assert min(x0, x1) == pytest.approx(0.5 + 40 * CELL, abs=2 * CELL)
        assert y0 == pytest.approx(0.25 + 75 * CELL, abs=2 * CELL)
        assert segs[0].length == pytest.approx(120 * CELL, abs=4 * CELL)

    def test_translation_equivariance(self):
        w, h = 260, 200
        segs_a = extract_segments(band_mask(w, h, (40, 60), (180, 130), 1.5),
                                  np.ones((h, w)))
        segs_b = extract_segments(band_mask(w, h, (52, 81), (192, 151), 1.5),
                                  np.ones((h, w)))
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
        segs = extract_segments(m1 | m2, scores)
        assert len(segs) >= 2
        first = segs[0]
        assert abs(math.degrees(first.theta)) < 1e-6   # vertical band: theta 0


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
    # column up to all of them
    @pytest.mark.parametrize("block_cells", [discont._HOUGH_BLOCK_CELLS, 1000, 1])
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
