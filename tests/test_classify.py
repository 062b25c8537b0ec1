import numpy as np
import pytest

from ironpath import classify
from ironpath.classify import (SvmModel, TrainHyper, TrainingSet,
                               build_training_set, descriptor_at,
                               descriptors_at, load_model, save_model,
                               score_pixel, train, train_arrays)
from ironpath.gridio import LabelMask


def mirror(i, n):
    """Patch sample index i folded into 0..n-1 at the image borders."""
    if i < 0:
        return -i
    return 2 * n - 1 - i if i >= n else i


def brute_force_descriptors(img):
    """Reference descriptor of every pixel, patch sample by patch sample.

    Central-difference gradients (edge pixel repeated), magnitude split
    linearly between the two nearest of 8 orientation bins, weight
    exp(-(du^2 + dv^2) / 128), 4x4 cells of 4x4 samples, contrast floor,
    L2 norm, clamp at 0.2, renormalization.  Returns (h, w, 128).
    """
    h, w = img.shape
    ip = np.pad(img, 1, mode="symmetric")
    gx = (ip[1:-1, 2:] - ip[1:-1, :-2]) / 2.0
    gy = (ip[2:, 1:-1] - ip[:-2, 1:-1]) / 2.0
    mag = np.hypot(gx, gy)
    pos = (np.arctan2(gy, gx) + np.pi) / (2.0 * np.pi) * 8 - 0.5
    vv, uu = np.mgrid[0:h, 0:w]
    hist = np.zeros((h, w, 4, 4, 8))
    for dv in range(-8, 8):
        for du in range(-8, 8):
            py = np.vectorize(mirror)(vv + dv, h)
            px = np.vectorize(mirror)(uu + du, w)
            m = mag[py, px] * np.exp(-(du * du + dv * dv) / 128.0)
            b = np.floor(pos[py, px])
            f = pos[py, px] - b
            cell = hist[:, :, (dv + 8) // 4, (du + 8) // 4]
            b0 = b.astype(int) % 8
            np.add.at(cell, (vv, uu, b0), m * (1.0 - f))
            np.add.at(cell, (vv, uu, (b0 + 1) % 8), m * f)
    d = hist.reshape(h, w, 128)
    norm = np.sqrt((d * d).sum(axis=2, keepdims=True))
    d = np.where(norm > 0.01, d / np.where(norm > 0.01, norm, 1.0), 0.0)
    d = np.minimum(d, 0.2)
    norm = np.sqrt((d * d).sum(axis=2, keepdims=True))
    return np.where(norm > 0, d / np.where(norm > 0, norm, 1.0), 0.0)


def step_edge(w=48, h=48, col=24, lo=0.2, hi=0.8):
    img = np.full((h, w), lo)
    img[:, col:] = hi
    return img


class TestDescriptor:
    def test_constant_image_zero_descriptor(self):
        d = descriptor_at(np.full((32, 32), 0.6), 16, 16)
        assert np.linalg.norm(d) == 0.0

    def test_norm_is_zero_or_one(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (40, 40))
        d = descriptors_at(img, np.arange(5, 35), np.arange(5, 35))
        norms = np.linalg.norm(d, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_step_edge_mass_in_horizontal_bins(self):
        d = descriptor_at(step_edge(), 24, 24)
        per_bin = d.reshape(16, 8).sum(axis=0)
        # gradients point along +x, straddling the two bins around angle 0
        assert per_bin[3] + per_bin[4] >= 0.95 * per_bin.sum()

    def test_additive_shift_invariance(self):
        img = step_edge()
        d1 = descriptor_at(img, 24, 20)
        d2 = descriptor_at(np.clip(img + 0.1, 0, 1), 24, 20)
        assert np.array_equal(d1, d2)

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(9)
        patch = rng.uniform(0, 1, (20, 20))
        img = np.full((64, 64), 0.5)
        img[10:30, 10:30] = patch
        moved = np.full((64, 64), 0.5)
        moved[14:34, 17:37] = patch
        d1 = descriptor_at(img, 20, 20)
        d2 = descriptor_at(moved, 27, 24)
        assert np.allclose(d1, d2, atol=1e-12)

    def test_every_pixel_matches_brute_force(self):
        # 19 rows: one full band of rows and a partial one
        rng = np.random.default_rng(12)
        img = rng.uniform(0, 1, (19, 40))
        img[:, 12:] = 0.4                 # flat: zero descriptors from column 21 on
        ref = brute_force_descriptors(img)
        vv, uu = np.mgrid[0:19, 0:40]
        d = descriptors_at(img, uu.ravel(), vv.ravel()).reshape(19, 40, 128)
        assert np.abs(d - ref).max() <= 1e-12
        assert (np.linalg.norm(ref, axis=2) == 0).any()

    def test_independent_of_requested_subset(self):
        rng = np.random.default_rng(13)
        img = rng.uniform(0, 1, (45, 31))
        vv, uu = np.mgrid[0:45, 0:31]
        full = descriptors_at(img, uu.ravel(), vv.ravel())
        for _ in range(4):
            pick = rng.choice(full.shape[0], size=int(rng.integers(1, 60)))
            sub = descriptors_at(img, uu.ravel()[pick], vv.ravel()[pick])
            assert np.array_equal(sub, full[pick])
        assert descriptors_at(img, [], []).shape == (0, 128)

    def test_single_matches_batch(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(0, 1, (40, 50))
        batch = descriptors_at(img, [3, 12, 47], [5, 20, 39])
        for i, (u, v) in enumerate([(3, 5), (12, 20), (47, 39)]):
            assert np.array_equal(descriptor_at(img, u, v), batch[i])


class TestTrainingSet:
    def _mask_with_wrinkles(self, n=100, w=60, h=60):
        lab = np.zeros((h, w), np.uint8)
        lab.ravel()[:n] = 1
        return LabelMask(w, h, data=lab)

    def test_counts(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (60, 60))
        ts = build_training_set(img, self._mask_with_wrinkles(100), 3, seed=5)
        assert len(ts.positives) == 100
        assert len(ts.negatives) == 300

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (60, 60))
        mask = self._mask_with_wrinkles(50)
        a = build_training_set(img, mask, 3, seed=7)
        b = build_training_set(img, mask, 3, seed=7)
        assert np.array_equal(a.negatives, b.negatives)
        c = build_training_set(img, mask, 3, seed=8)
        assert not np.array_equal(a.negatives, c.negatives)

    def test_negatives_avoid_wrinkle_pixels(self):
        # wrinkle pixels carry a unique intensity spike; a negative sampled
        # there would reproduce the positive descriptor exactly
        w = h = 40
        lab = np.zeros((h, w), np.uint8)
        lab[10, 10] = 1
        img = np.zeros((h, w))
        img[10, 10] = 1.0
        ts = build_training_set(img, LabelMask(w, h, data=lab), 200, seed=3)
        assert len(ts.positives) == 1
        assert not any(np.array_equal(n, ts.positives[0]) for n in ts.negatives)

    def test_empty_positive_set_rejected(self):
        img = np.zeros((40, 40))
        lab = LabelMask(40, 40, data=np.zeros(1600, np.uint8))
        with pytest.raises(ValueError, match="no wrinkle"):
            build_training_set(img, lab, 3)


def separable_set(n=60, seed=0):
    rng = np.random.default_rng(seed)
    mu_p = np.zeros(128)
    mu_p[:4] = 0.5
    mu_n = np.zeros(128)
    mu_n[4:8] = 0.5
    pos = np.abs(mu_p + rng.normal(0, 0.02, (n, 128)))
    neg = np.abs(mu_n + rng.normal(0, 0.02, (n, 128)))
    return TrainingSet(pos, neg)


class TestTrain:
    def test_separable_reaches_full_accuracy(self):
        ts = separable_set()
        model = train(ts, TrainHyper(epochs=30))
        X = np.vstack([ts.positives, ts.negatives])
        y = np.concatenate([np.ones(60), -np.ones(60)])
        assert classify.accuracy(model, X, y) == 1.0
        assert score_pixel(model, ts.positives[0]) > 0.5

    def test_duplicated_set_with_halved_epochs_identical(self):
        ts = separable_set(seed=3)
        X = np.vstack([ts.positives, ts.negatives])
        y = np.concatenate([np.ones(60), -np.ones(60)])
        m1 = train_arrays(X, y, TrainHyper(epochs=8, seed=11))
        m2 = train_arrays(np.vstack([X, X]), np.concatenate([y, y]),
                          TrainHyper(epochs=4, seed=11))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_degenerate_tie_no_crash(self):
        x = np.zeros((1, 128))
        x[0, 0] = 1.0
        ts = TrainingSet(x, x.copy())
        model = train(ts, TrainHyper(epochs=5))
        X = np.vstack([x, x])
        y = np.array([1.0, -1.0])
        assert classify.accuracy(model, X, y) == 0.5

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            train(TrainingSet(np.zeros((0, 128)), np.zeros((3, 128))))

    def test_calibration_improves_probabilities(self):
        ts = separable_set(seed=5)
        model = train(ts, TrainHyper(epochs=30, calibrate=True))
        assert model.slope != 1.0 or model.offset != 0.0
        assert score_pixel(model, ts.positives[0]) > 0.5
        assert score_pixel(model, ts.negatives[0]) < 0.5


class TestScore:
    def test_zero_margin_is_half(self):
        model = SvmModel(np.zeros(128), 0.0, TrainHyper())
        assert score_pixel(model, np.zeros(128)) == 0.5

    def test_monotone_in_margin(self):
        w = np.zeros(128)
        w[0] = 1.0
        model = SvmModel(w, 0.0, TrainHyper())
        xs = [np.eye(128)[0] * v for v in (-5, -1, 0, 1, 5, 30)]
        scores = [score_pixel(model, x) for x in xs]
        assert all(a < b for a, b in zip(scores, scores[1:]))
        assert scores[-1] > 0.999999
        assert 0.0 < scores[0] < 1.0


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        ts = separable_set(seed=6)
        model = train(ts, TrainHyper(reg_lambda=3e-4, epochs=7, seed=99,
                                     calibrate=True))
        p = tmp_path / "model.svmw"
        save_model(model, p)
        back = load_model(p)
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias
        assert back.slope == model.slope and back.offset == model.offset
        assert back.hyper == model.hyper
        x = ts.positives[3]
        assert score_pixel(back, x) == score_pixel(model, x)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "junk.svmw"
        p.write_bytes(b"SVMX 128\n" + b"\x00" * 8)
        with pytest.raises(Exception):
            load_model(p)
