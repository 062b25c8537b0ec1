import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ironpath
from ironpath import classify
from ironpath.classify import (NBINS, PATCH, SvmModel, TrainHyper, TrainingSet,
                               build_training_set, descriptors_at, load_model,
                               save_model, score_margins, train, train_arrays)
from ironpath.gridio import GridFormatError, LabelMask


def reversed_map(fn, items):
    """map that runs the tasks last to first and returns the results in item
    order."""
    return [fn(item) for item in list(items)[::-1]][::-1]


def other_maps():
    """Maps that run tasks in another order or on worker threads: reversed_map,
    then the maps of pools of 1, 2 and 3 threads."""
    yield reversed_map
    for threads in (1, 2, 3):
        with ThreadPoolExecutor(threads) as pool:
            yield pool.map


def mirror(i, n):
    """Patch sample index i folded into 0..n-1 at the image borders.

    Past the bottom/right end the edge pixel is repeated (n-1+k copies n-k);
    before the top/left end it is not (-k copies k), and that reflection
    repeats with period 2(n-1), also where the bottom/right mirror lands
    before the top/left end on images under half a patch."""
    if i >= n:
        i = 2 * n - 1 - i
    if n == 1:
        return 0
    i = abs(i) % (2 * n - 2)
    return min(i, 2 * n - 2 - i)


def brute_force_descriptors(img):
    """Reference descriptor of every pixel, patch sample by patch sample.

    Central-difference gradients (edge pixel repeated), magnitude split
    linearly between the two nearest of 8 orientation bins, 4x4 cells of 4x4
    samples summed with equal weights, each cell then weighted by the mean of
    g(d) = exp(-d^2 / 128) over its 4 row offsets times its mean over its 4
    column offsets, contrast floor, L2 norm, clamp at 0.2, renormalization.
    Returns (h, w, 128).
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
            m = mag[py, px]
            b = np.floor(pos[py, px])
            f = pos[py, px] - b
            cell = hist[:, :, (dv + 8) // 4, (du + 8) // 4]
            b0 = b.astype(int) % 8
            np.add.at(cell, (vv, uu, b0), m * (1.0 - f))
            np.add.at(cell, (vv, uu, (b0 + 1) % 8), m * f)
    g = np.exp(-np.arange(-8, 8) ** 2 / 128.0).reshape(4, 4).mean(axis=1)
    hist *= np.outer(g, g)[:, :, None]
    d = hist.reshape(h, w, 128)
    norm = np.sqrt((d * d).sum(axis=2, keepdims=True))
    d = np.where(norm > 0.01, d / np.where(norm > 0.01, norm, 1.0), 0.0)
    d = np.minimum(d, 0.2)
    norm = np.sqrt((d * d).sum(axis=2, keepdims=True))
    return np.where(norm > 0, d / np.where(norm > 0, norm, 1.0), 0.0)


def descriptor_at(img, u, v):
    return descriptors_at(img, [u], [v])[0]


def accuracy(model, X, y):
    """Share of rows whose score is on their label's side of 0.5."""
    return float(np.mean((score_margins(model, X) >= 0.5) == (y > 0)))


def step_edge(w=48, h=48, col=24, lo=0.2, hi=0.8):
    img = np.full((h, w), lo)
    img[:, col:] = hi
    return img


@st.composite
def raw_descriptors(draw):
    """Raw float32 descriptors as _normalize takes them, (128, rows, cols):
    bins >= 0, dense or a few spikes (heavily clamped), each pixel at its own
    scale, many of them near or below the contrast floor."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = np.abs(rng.normal(size=(128, rows, cols)))
    if draw(st.booleans()):
        d *= rng.random((128, rows, cols)) < draw(st.sampled_from([0.01, 0.05, 0.3]))
    lo = draw(st.floats(-5.0, 2.0))
    d *= 10.0 ** rng.uniform(lo, lo + 3.0, (rows, cols))
    return d.astype(np.float32)


def two_step_normalize(d):
    """The float64 reference: d/|d|, clamp at 0.2, renormalize; the zero
    descriptor where |d| does not exceed the contrast floor."""
    x = d.astype(np.float64)
    norm = np.sqrt(np.sum(x * x, axis=0))
    x = np.minimum(x / np.where(norm > classify.MIN_PATCH_NORM, norm, np.inf), 0.2)
    return x / np.maximum(np.sqrt(np.sum(x * x, axis=0)), np.finfo(np.float64).tiny), norm


def normalize(d):
    """Normalized descriptors c/|c| of raw ones, as descriptors_at writes them."""
    c = d.copy()
    return c / classify._clamp(c)


class TestNormalize:
    @settings(max_examples=300, deadline=None)
    @given(raw_descriptors())
    def test_one_ratio_matches_two_step_oracle(self, d):
        ref, norm = two_step_normalize(d)
        got = normalize(d)
        assert got.dtype == np.float64
        # pixels whose norm is within float32 rounding of the floor may fall
        # on either side of it
        sure = np.abs(norm / classify.MIN_PATCH_NORM - 1.0) > 1e-5
        assert np.abs(got - ref)[:, sure].max(initial=0.0) <= 1e-6
        assert (got[:, sure & (norm <= classify.MIN_PATCH_NORM)] == 0.0).all()
        got_norm = np.sqrt(np.sum(got.astype(np.float64) ** 2, axis=0))
        assert ((got_norm == 0.0) | (np.abs(got_norm - 1.0) <= 1e-6)).all()
        # a lone pixel, as descriptor_at builds it, equals the same pixel of a batch
        for i, j in np.ndindex(d.shape[1:]):
            lone = normalize(d[:, i:i + 1, j:j + 1])
            assert np.array_equal(lone[:, 0, 0], got[:, i, j])


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
        # the engine runs in float32 and every component is at most 1: two
        # float32 ulps of 1 hold the rounding of both passes and both
        # normalizations (about 0.6 ulp here)
        assert np.abs(d - ref).max() <= 2 * np.finfo(np.float32).eps
        assert (np.linalg.norm(ref, axis=2) == 0).any()
        # under half a patch, the padding reflects more than once
        for h, w in [(1, 1), (3, 5), (7, 17), (17, 2)]:
            img = rng.uniform(0, 1, (h, w))
            vv, uu = np.mgrid[0:h, 0:w]
            d = descriptors_at(img, uu.ravel(), vv.ravel()).reshape(h, w, 128)
            assert np.abs(d - brute_force_descriptors(img)).max() <= 2 * np.finfo(np.float32).eps

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

    def test_peak_follows_one_band_not_the_image(self):
        # 2000 pixels of a 480x640 image: building the whole image's planes
        # and cell columns first peaked at 116.5 MiB; one band's float32
        # column boxes are 1.6 MiB at this width
        rng = np.random.default_rng(23)
        img = rng.uniform(0, 1, (480, 640))
        uu, vv = rng.integers(0, 640, 2000), rng.integers(0, 480, 2000)
        tracemalloc.start()
        try:
            descriptors_at(img, uu, vv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_equal_to_dense_engine(self):
        # with a one-hot weight vector, the dense score of a pixel is the
        # sigmoid of one of its descriptor bins, exactly
        rng = np.random.default_rng(14)
        img = rng.uniform(0, 1, (70, 90))
        img[40:, 50:] = 0.3
        vv, uu = np.mgrid[0:70, 0:90]
        d = descriptors_at(img, uu.ravel(), vv.ravel())
        for k in (0, 37, 127):
            model = SvmModel(np.eye(128)[k], 0.0, TrainHyper())
            with ThreadPoolExecutor(2) as pool:
                dense = classify.dense_scores(img, model, pool.map)
            assert np.array_equal(dense.ravel(), classify._sigmoid(d[:, k]))

    def test_rows_destination(self):
        rng = np.random.default_rng(12)
        img = rng.uniform(0, 1, (70, 50))
        uu, vv = rng.integers(0, 50, 30), rng.integers(0, 70, 30)
        rows = rng.permutation(40)[:30]
        out = np.full((40, 128), -1.0)
        assert descriptors_at(img, uu, vv, out, rows) is out
        assert np.array_equal(out[rows], descriptors_at(img, uu, vv))
        assert (np.delete(out, rows, axis=0) == -1.0).all()

    def test_single_matches_batch(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(0, 1, (40, 50))
        batch = descriptors_at(img, [3, 12, 47], [5, 20, 39])
        for i, (u, v) in enumerate([(3, 5), (12, 20), (47, 39)]):
            assert np.array_equal(descriptor_at(img, u, v), batch[i])

    @pytest.mark.parametrize("u, v", [(50, 0), (-1, 0), (55, 3), (0, -1), (0, 40)])
    def test_pixel_outside_image_rejected(self, u, v):
        # after pixels inside the image, so the error names the first outside
        img = np.random.default_rng(10).uniform(0, 1, (40, 50))
        with pytest.raises(ValueError, match=rf"\({u}, {v}\) is outside the 50x40"):
            descriptors_at(img, [3, 49, u, 60], [5, 39, v, 70])


def valid_scene(img, mask, seed):
    """A build_training_set scene whose every pixel may be drawn."""
    return img, mask, seed, np.ones(img.shape, bool)


class TestTrainingSet:
    def _mask_with_wrinkles(self, n=100, w=60, h=60):
        lab = np.zeros((h, w), np.uint8)
        lab.ravel()[:n] = 1
        return LabelMask(lab)

    def test_counts(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (60, 60))
        ts = build_training_set([valid_scene(img, self._mask_with_wrinkles(100), 5)], 3)
        assert len(ts.positives) == 100
        assert len(ts.negatives) == 300

    def test_float32_rows_of_descriptors_at(self):
        # each row is descriptors_at's float64 c/|c| rounded once to float32
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (60, 60))
        mask = self._mask_with_wrinkles(100)
        ts = build_training_set([valid_scene(img, mask, 5)], 3)
        uu, vv, _ = classify.sample_pixels(mask, 3, 5, np.ones(img.shape, bool))
        assert ts.X.dtype == np.float32
        assert np.array_equal(ts.X, descriptors_at(img, uu, vv,
                                                   np.empty((len(uu), 128), np.float32)))

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (60, 60))
        mask = self._mask_with_wrinkles(50)
        a = build_training_set([valid_scene(img, mask, 7)], 3)
        b = build_training_set([valid_scene(img, mask, 7)], 3)
        assert np.array_equal(a.negatives, b.negatives)
        c = build_training_set([valid_scene(img, mask, 8)], 3)
        assert not np.array_equal(a.negatives, c.negatives)

    def test_negatives_avoid_wrinkle_pixels(self):
        # wrinkle pixels carry a unique intensity spike; a negative sampled
        # there would reproduce the positive descriptor exactly
        w = h = 40
        lab = np.zeros((h, w), np.uint8)
        lab[10, 10] = 1
        img = np.zeros((h, w))
        img[10, 10] = 1.0
        ts = build_training_set([valid_scene(img, LabelMask(lab), 3)], 200)
        assert len(ts.positives) == 1
        assert not any(np.array_equal(n, ts.positives[0]) for n in ts.negatives)

    def test_empty_positive_set_rejected(self):
        img = np.zeros((40, 40))
        lab = LabelMask(np.zeros((40, 40), np.uint8))
        with pytest.raises(ValueError, match="no wrinkle"):
            build_training_set([valid_scene(img, lab, 0)], 3)

    def test_corpus_rows_in_scene_order(self):
        # one matrix: the positives of every scene, then the negatives
        rng = np.random.default_rng(2)
        scenes = [valid_scene(rng.uniform(0, 1, (50, 60 + 7 * i)),
                              self._mask_with_wrinkles(40 + 9 * i, 60 + 7 * i, 50), 11 + i)
                  for i in range(3)]
        ts = build_training_set(scenes, 2)
        singles = [build_training_set([scene], 2) for scene in scenes]
        assert np.array_equal(ts.positives, np.vstack([t.positives for t in singles]))
        assert np.array_equal(ts.negatives, np.vstack([t.negatives for t in singles]))
        assert ts.n_pos == 40 + 49 + 58 and len(ts.X) == 3 * ts.n_pos
        # one scene per task: the same rows in any task order and on any
        # number of threads
        for map_fn in other_maps():
            other = build_training_set(scenes, 2, map_fn)
            assert np.array_equal(other.X, ts.X) and other.n_pos == ts.n_pos

    def test_first_failing_scene_raised_when_a_later_one_fails_first(self, monkeypatch):
        later_failed = threading.Event()
        scenes = [valid_scene(np.zeros((30, 30)), self._mask_with_wrinkles(20, 30, 30), i)
                  for i in range(2)]

        def descriptors_at(img, *_):
            if img is scenes[0][0]:
                later_failed.wait(10)
                raise ValueError("scene 0")
            later_failed.set()
            raise ValueError("scene 1")
        monkeypatch.setattr(classify, "descriptors_at", descriptors_at)
        with ThreadPoolExecutor(2) as pool, pytest.raises(ValueError, match="scene 0"):
            build_training_set(scenes, 2, pool.map)
        assert later_failed.is_set()

    def test_valid_mask_leaves_pixels_out(self):
        lab = np.zeros((30, 40), np.uint8)
        lab[5:8, 3:30] = 1
        valid = np.ones((30, 40), bool)
        valid[:, :10] = False
        uu, vv, n_pos = classify.sample_pixels(LabelMask(lab), 2, 4, valid)
        assert n_pos == 3 * 20 and len(uu) == 3 * n_pos
        assert valid[vv, uu].all()
        assert (lab[vv[:n_pos], uu[:n_pos]] == 1).all()
        assert (lab[vv[n_pos:], uu[n_pos:]] == 0).all()


def separable_set(n=60, seed=0):
    rng = np.random.default_rng(seed)
    mu_p = np.zeros(128)
    mu_p[:4] = 0.5
    mu_n = np.zeros(128)
    mu_n[4:8] = 0.5
    pos = np.abs(mu_p + rng.normal(0, 0.02, (n, 128)))
    neg = np.abs(mu_n + rng.normal(0, 0.02, (n, 128)))
    return TrainingSet(np.vstack([pos, neg]), n)


def overlapping_set(n, seed=0):
    """(X, y): two overlapping classes of descriptor-like rows."""
    rng = np.random.default_rng(seed)
    mu = np.zeros(128)
    mu[:4] = 0.5
    even = np.arange(n)[:, None] % 2 == 0
    X = np.abs(rng.normal(0, 0.2, (n, 128)) + np.where(even, mu, mu[::-1]))
    return X, np.where(even[:, 0], 1.0, -1.0)


def objective(wb, X, y, lam):
    """The training objective and its gradient at wb = (w, b), computed
    plainly: lambda/2 |w|^2 + mean smoothed hinge of y (X w + b)."""
    h = classify.HUBER_H
    w, b = wb[:-1], wb[-1]
    z = 1.0 - y * (X @ w + b)
    quad = (z > 0) & (z < h)
    lin = z >= h
    loss = np.where(lin, z - h / 2, np.where(quad, z * z / (2 * h), 0.0))
    dz = np.where(lin, 1.0, np.where(quad, z / h, 0.0)) * -y / len(y)
    grad = np.append(lam * w + dz @ X, dz.sum())
    return 0.5 * lam * (w @ w) + loss.mean(), grad


@st.composite
def svm_cases(draw):
    """(X, y, hyper): random, descriptor-like, quantized (exact dot
    products) and all-identical (tied) sets, one-class-heavy or not."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["normal", "descriptor", "quantized", "tie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        X = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 30.0])), (n, 128))
    elif kind == "descriptor":
        X = np.abs(rng.normal(size=(n, 128)))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X[rng.random(n) < 0.1] = 0.0
    elif kind == "quantized":
        X = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, 128), p=[0.9, 0.04, 0.03, 0.03])
    else:
        X = np.tile(rng.normal(size=128), (n, 1))
    p_pos = draw(st.sampled_from([0.0, 0.02, 0.5, 0.98, 1.0]))
    y = np.where(rng.random(n) < p_pos, 1.0, -1.0)
    # a set of about 128 to 300 rows is nearly separable, and the Gram matrix
    # of its band rows is rank-deficient: there the solver takes up to a few
    # hundred steps, each exchanging a few rows on and off the band
    return X, y, TrainHyper(reg_lambda=10.0 ** draw(st.floats(-5.0, -2.0)))


def models_on_blas_threads(tmp_path, X, y, counts):
    """The model files train_arrays writes for (X, y) in a fresh process on
    each of the given OPENBLAS_NUM_THREADS counts."""
    np.save(tmp_path / "X.npy", X)
    np.save(tmp_path / "y.npy", y)
    code = ("import sys, numpy as np; from ironpath import classify; "
            "X, y = np.load(sys.argv[1]), np.load(sys.argv[2]); "
            "classify.save_model(classify.train_arrays(X, y, classify.TrainHyper()), "
            "sys.argv[3])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ironpath.__file__)))
    models = []
    for threads in counts:
        out = tmp_path / f"model{threads}.svmw"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "X.npy"),
                        str(tmp_path / "y.npy"), str(out)],
                       env=env, check=True, timeout=120)
        models.append(out.read_bytes())
    return models


def ordered_training_set(dtype):
    """A TrainingSet of 16000 overlapping rows of the given dtype."""
    X, y = overlapping_set(16000, seed=5)
    order = np.argsort(-y, kind="stable")
    return TrainingSet(X[order].astype(dtype), int((y > 0).sum()))


def train_peak(ts):
    """The tracemalloc peak of train on ts, in bytes."""
    tracemalloc.start()
    try:
        train(ts, TrainHyper())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolverOracle:
    """train_arrays against the optimality conditions and a general-purpose
    optimizer on the same objective."""

    @settings(max_examples=60, deadline=None)
    @given(svm_cases())
    def test_stationary_and_not_above_lbfgs(self, case):
        optimize = pytest.importorskip("scipy.optimize")
        X, y, hyper = case
        lam = hyper.reg_lambda
        model = train_arrays(X, y, hyper)
        f, grad = objective(np.append(model.weights, model.bias), X, y, lam)
        f0, grad0 = objective(np.zeros(129), X, y, lam)
        # relative to the zero model's gradient, which rounds to about
        # 1e-16 |X| where the zero model is the minimizer
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(grad0) + 1e-14 * np.abs(X).max()
        ref = optimize.minimize(objective, np.zeros(129), args=(X, y, lam), jac=True,
                                method="L-BFGS-B",
                                options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-10})
        # within rounding of the objective's scale, that of the zero model
        assert f <= ref.fun + 1e-12 * f0

    def test_random_labels_converge_with_default_hyper(self):
        # 200 rows of 128 dimensions with random labels are nearly separable:
        # the solver needs far more than a dozen steps to meet its tolerance
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 128))
        y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        model = train_arrays(X, y, TrainHyper())
        lam = TrainHyper().reg_lambda
        _, grad = objective(np.append(model.weights, model.bias), X, y, lam)
        _, grad0 = objective(np.zeros(129), X, y, lam)
        assert np.linalg.norm(grad) <= 1e-12 * np.linalg.norm(grad0)

    def test_rounding_level_gradient_converges(self):
        # identical rows, half of each label in shuffled order: the zero model
        # is the minimizer, and its gradient is the rounding of c @ X alone
        rng = np.random.default_rng(3)
        X = np.tile(rng.normal(size=128), (100, 1))
        y = rng.permutation(np.repeat([1.0, -1.0], 50))
        assert np.any(y @ X != 0.0)
        model = train_arrays(X, y, TrainHyper())
        assert not model.weights.any() and model.bias == 0.0

    @pytest.mark.parametrize("lam, why", [(1e-30, "no step lowers the objective"),
                                          (1e-200, "overflow"), (5e-324, "overflow")])
    def test_tiny_lambda_raises(self, lam, why):
        # on a nearly separable set the Newton step of a tiny lambda lowers
        # nothing or overflows: no model comes back
        X, y = overlapping_set(300, seed=3)
        with pytest.raises(ArithmeticError, match=f"at Newton step 0: {why}.*lambda={lam}"):
            train_arrays(X, y, TrainHyper(reg_lambda=lam))

    def test_step_guard_raises(self, monkeypatch):
        monkeypatch.setattr(classify, "_MAX_NEWTON_STEPS", 2)
        X, y = overlapping_set(300, seed=3)
        with pytest.raises(ArithmeticError, match="did not converge in 2 Newton steps"):
            train_arrays(X, y, TrainHyper())

    def test_nonpositive_lambda_rejected(self):
        for lam in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="reg_lambda"):
                TrainHyper(reg_lambda=lam)

    def test_model_independent_of_blas_threads(self, tmp_path):
        # the Gram chunks of this set are large enough for BLAS to split
        # them between threads; np.linalg.solve and X @ w would then round
        # differently
        X, y = overlapping_set(6000, seed=4)
        models = models_on_blas_threads(tmp_path, X, y, ("1", "2"))
        assert models[0] == models[1]

    @pytest.mark.parametrize("n", [4678, 12403])
    def test_float32_model_independent_of_blas_threads(self, tmp_path, n):
        # float32 Gram chunks go to BLAS ssyrk; these are row counts at which
        # X @ d was seen to round differently on 1 and 2 BLAS threads
        X, y = overlapping_set(n, seed=4)
        models = models_on_blas_threads(tmp_path, X.astype(np.float32), y, ("1", "2", "3"))
        assert models[0] == models[1] == models[2]

    def test_train_allocates_less_than_half_the_matrix(self):
        ts = ordered_training_set(np.float64)
        assert train_peak(ts) < ts.X.nbytes / 2

    def test_float32_train_allocates_less_than_half_the_matrix(self):
        # the gradient and the outputs sum a float32 X in float64 without a
        # float64 copy of it (c @ X made one: 2.2 times the matrix)
        ts = ordered_training_set(np.float32)
        assert train_peak(ts) < ts.X.nbytes / 2


class TestTrain:
    def test_separable_reaches_full_accuracy(self):
        ts = separable_set()
        model = train(ts, TrainHyper())
        X = np.vstack([ts.positives, ts.negatives])
        y = np.concatenate([np.ones(60), -np.ones(60)])
        assert accuracy(model, X, y) == 1.0
        assert score_margins(model, ts.positives[:1])[0] > 0.5

    def test_tiled_set_same_model(self):
        # the mean loss of a set repeated in place is that of the set
        X, y = overlapping_set(300, seed=3)
        m1 = train_arrays(X, y, TrainHyper())
        m2 = train_arrays(np.vstack([X, X]), np.concatenate([y, y]), TrainHyper())
        scale = np.linalg.norm(m1.weights) + abs(m1.bias)
        assert np.abs(m1.weights - m2.weights).max() <= 1e-12 * scale
        assert abs(m1.bias - m2.bias) <= 1e-12 * scale

    def test_degenerate_tie_no_crash(self):
        x = np.zeros((1, 128))
        x[0, 0] = 1.0
        ts = TrainingSet(np.vstack([x, x]), 1)
        model = train(ts, TrainHyper())
        X = np.vstack([x, x])
        y = np.array([1.0, -1.0])
        assert accuracy(model, X, y) == 0.5

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            train(TrainingSet(np.zeros((3, 128)), 0), TrainHyper())


def whole_image_planes(img):
    """Reference orientation planes of the whole image, padded by half a
    patch: gradients over a symmetric 1-px pad, each plane a sum of two
    np.where selections, then a reflect pad of 8 before and a symmetric pad
    of 7 after along each image axis.  (NBINS, h+15, w+15)."""
    ip = np.pad(img, 1, mode="symmetric")
    gx = (ip[1:-1, 2:] - ip[1:-1, :-2]) * 0.5
    gy = (ip[2:, 1:-1] - ip[:-2, 1:-1]) * 0.5
    mag = np.hypot(gx, gy)
    frac_bin = (np.arctan2(gy, gx) + np.pi) / (2.0 * np.pi) * NBINS - 0.5
    b0 = np.floor(frac_bin).astype(np.int64)
    frac = frac_bin - b0
    bin0, bin1 = b0 % NBINS, (b0 + 1) % NBINS
    lo, hi = mag * (1.0 - frac), mag * frac
    planes = np.empty((NBINS,) + img.shape)
    for o in range(NBINS):
        planes[o] = np.where(bin0 == o, lo, 0.0) + np.where(bin1 == o, hi, 0.0)
    half = PATCH // 2
    planes = np.pad(planes, ((0, 0), (half, 0), (half, 0)), mode="reflect")
    return np.pad(planes, ((0, 0), (0, half - 1), (0, half - 1)), mode="symmetric")


class TestOrientationPlanes:
    # images under half a patch (reflected repeatedly), and partial bands
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8), (17, 9), (65, 129),
                                       (200, 7)], ids="{0[0]}x{0[1]}".format)
    def test_every_band_matches_whole_image(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1] + 7)
        img = rng.uniform(0, 1, shape)
        img[:, ::3] = 0.5                 # flat runs: zero gradients, bin 4 of angle 0
        ref = whole_image_planes(img).astype(np.float32)
        h = shape[0]
        for r0 in range(0, h, classify._BAND_ROWS):
            r1 = min(r0 + classify._BAND_ROWS, h)
            band = classify._orientation_planes(img, r0, r1 + PATCH - 1)
            assert np.array_equal(band, ref[:, r0:r1 + PATCH - 1])
        assert np.array_equal(classify._orientation_planes(img, 0, h + PATCH - 1), ref)

    def test_dense_scores_peak_below_whole_image_planes(self):
        # one whole-image set of padded planes at 960x1280: about 77 MiB
        h, w = 960, 1280
        img = np.random.default_rng(21).uniform(0, 1, (h, w))
        model = SvmModel(np.random.default_rng(22).normal(size=128), 0.1, TrainHyper())
        tracemalloc.start()
        try:
            out = classify.dense_scores(img, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < NBINS * (h + PATCH - 1) * (w + PATCH - 1) * 8


class TestDenseScores:
    # sizes that are no multiple of a band (64 rows) or a tile (32 x 64)
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (17, 9), (65, 129),
                                       (97, 301), (200, 7)], ids="{0[0]}x{0[1]}".format)
    def test_independent_of_thread_count(self, shape):
        # and of the order in which the bands run
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        img = rng.uniform(0, 1, shape)
        model = SvmModel(rng.normal(size=128), 0.1, TrainHyper())
        one = classify.dense_scores(img, model)
        assert one.shape == shape
        for map_fn in other_maps():
            assert np.array_equal(classify.dense_scores(img, model, map_fn), one)

    def test_independent_of_blas_threads(self, tmp_path):
        # the dot product is an einsum, not a BLAS call that may split the
        # sum between threads
        code = ("import sys, numpy as np; from ironpath import classify; "
                "rng = np.random.default_rng(41); img = rng.uniform(0, 1, (130, 301)); "
                "model = classify.SvmModel(rng.normal(size=128), 0.1, classify.TrainHyper()); "
                "np.save(sys.argv[1], classify.dense_scores(img, model))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ironpath.__file__)))
        scores = []
        for threads in ("1", "2"):
            out = tmp_path / f"scores{threads}.npy"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True,
                           timeout=120)
            scores.append(out.read_bytes())
        assert scores[0] == scores[1]

    def test_float32_engine_float64_scores(self):
        # the engine runs in float32 up to the clamped descriptor c; the
        # division by |c|, the dot product and the sigmoid run in float64 on
        # any number of threads
        rng = np.random.default_rng(31)
        img = rng.uniform(0, 1, (70, 90))
        vv, uu = np.mgrid[0:70, 0:90]
        d = descriptors_at(img, uu.ravel(), vv.ravel())
        assert d.dtype == np.float64
        model = SvmModel(rng.normal(size=128), 0.1, TrainHyper())
        one = classify.dense_scores(img, model)
        assert one.dtype == np.float64
        assert np.abs(one.ravel() - score_margins(model, d)).max() <= 1e-12
        for map_fn in other_maps():
            assert np.array_equal(classify.dense_scores(img, model, map_fn), one)

    # a partial last tile row (h not a multiple of 32), the lone last column
    # that joins the tile before it (w = 65, 129), one column, one row
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 140), st.integers(0, 2**32 - 1))
    @example(45, 65, 0)
    @example(97, 129, 1)
    @example(70, 1, 2)
    @example(1, 129, 3)
    @example(1, 1, 4)
    def test_matches_scored_descriptors_of_every_pixel(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0, 1, (h, w))
        img[:, :w // 3] = 0.4             # flat: zero descriptors, |c| = inf
        model = SvmModel(rng.normal(size=128), rng.normal(), TrainHyper())
        vv, uu = np.mgrid[0:h, 0:w]
        ref = score_margins(model, descriptors_at(img, uu.ravel(), vv.ravel())).reshape(h, w)
        with ThreadPoolExecutor(2) as pool:
            for map_fn in (map, pool.map):
                assert np.abs(classify.dense_scores(img, model, map_fn) - ref).max() <= 1e-12


class TestScore:
    def test_zero_margin_is_half(self):
        model = SvmModel(np.zeros(128), 0.0, TrainHyper())
        assert score_margins(model, np.zeros((1, 128)))[0] == 0.5

    def test_monotone_in_margin(self):
        w = np.zeros(128)
        w[0] = 1.0
        model = SvmModel(w, 0.0, TrainHyper())
        xs = [np.eye(128)[0] * v for v in (-5, -1, 0, 1, 5, 30)]
        scores = list(score_margins(model, np.array(xs)))
        assert all(a < b for a, b in zip(scores, scores[1:]))
        assert scores[-1] > 0.999999
        assert 0.0 < scores[0] < 1.0


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        ts = separable_set(seed=6)
        model = train(ts, TrainHyper(reg_lambda=3e-4))
        p = tmp_path / "model.svmw"
        save_model(model, p)
        back = load_model(p)
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias
        assert back.hyper == model.hyper
        assert np.array_equal(score_margins(back, ts.X), score_margins(model, ts.X))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "junk.svmw"
        p.write_bytes(b"SVMX 128\n" + b"\x00" * 8)
        with pytest.raises(Exception):
            load_model(p)

    @pytest.mark.parametrize("header", [b"SVMW 128 0.0\n", b"SVMW 128 inf\n"])
    def test_out_of_range_hyperparameters_rejected(self, tmp_path, header):
        p = tmp_path / "bad.svmw"
        p.write_bytes(header + b"\x00" * (129 * 8))
        with pytest.raises(GridFormatError, match="bad SVMW header"):
            load_model(p)

    @pytest.mark.parametrize("flag", [b"5", b"-1", b"01", b"true"])
    def test_calibrate_flag_other_than_0_or_1_rejected(self, tmp_path, flag):
        # the header has no calibration flag any more; a trailing token after
        # lambda is refused rather than ignored
        p = tmp_path / "flag.svmw"
        p.write_bytes(b"SVMW 128 0.0001 " + flag + b"\n" + b"\x00" * (129 * 8))
        with pytest.raises(GridFormatError, match="bad SVMW header"):
            load_model(p)

    def test_wrong_weight_count_rejected(self, tmp_path):
        model = SvmModel(np.ones(64), 0.5, TrainHyper())
        p = tmp_path / "short.svmw"
        save_model(model, p)
        with pytest.raises(GridFormatError, match="64 weights, expected 128"):
            load_model(p)

    @pytest.mark.parametrize("n_bytes", [128 * 8, 129 * 8 + 1], ids=["short", "long"])
    def test_payload_of_wrong_length_rejected(self, tmp_path, n_bytes):
        p = tmp_path / "len.svmw"
        p.write_bytes(b"SVMW 128 0.0001\n" + b"\x00" * n_bytes)
        with pytest.raises(GridFormatError, match=f"payload {n_bytes} bytes, expected 1032"):
            load_model(p)

    @pytest.mark.parametrize("index", [0, 127, 128])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, index, value):
        # weights, then bias
        payload = np.zeros(129)
        payload[index] = value
        p = tmp_path / "nan.svmw"
        p.write_bytes(b"SVMW 128 0.0001\n" + payload.astype("<f8").tobytes())
        with pytest.raises(GridFormatError, match="non-finite value in payload"):
            load_model(p)
