"""Pixel-level wrinkle classifier: orientation-histogram descriptors + linear SVM.

The descriptor is a fixed-scale, fixed-orientation variant of the classic
128-dimensional gradient histogram: a 16x16 patch split into 4x4 spatial
cells with 8 orientation bins each, Gaussian-weighted gradient magnitudes,
L2-normalized, clamped at 0.2 and renormalized.  Gradient magnitude is split
linearly between the two nearest orientation bins.

Descriptors are computed densely, as a separable linear filter (the dense-SIFT
construction): each raw bin is a Gaussian-weighted box sum over one of 8
soft-binned orientation planes, taken as a horizontal pass and a vertical
pass.  When pixels are sampled (descriptors_at), the horizontal pass covers
the whole image and the vertical pass runs at the requested pixels only.
When every pixel is scored (dense_scores), the image is split into bands of
_BAND_ROWS rows, scored on worker threads: each band takes its own
horizontal pass over its rows and the PATCH-1 halo rows below them, then the
vertical pass, normalization, SVM dot product and sigmoid run on tiles of
_TILE_ROWS x _TILE_COLS pixels whose descriptors fit in cache.  Both paths
run the same arithmetic per pixel, and the band and tile grid does not
depend on the thread count, so neither do the scores.

Training is Pegasos-style stochastic subgradient descent on the hinge loss.
The example visited at step t is chosen by a counter hash of (seed, t), so
training is deterministic and independent of platform.  The solver takes
the margin dot products of the steps between two hinge violations in one
matrix-vector product, and its model is bit for bit the one of the plain
per-step loop (see train_arrays).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .gridio import GridFormatError, LabelMask, LABEL_WRINKLE
from .synth import _splitmix64

DESCRIPTOR_SIZE = 128
PATCH = 16
CELL_W = 4
NBINS = 8
# patches whose raw weighted gradient mass falls below this stay at the zero
# descriptor instead of being normalized into amplified noise (the usual
# low-contrast floor); keeps descriptor norms in {0, 1}
MIN_PATCH_NORM = 0.01

NCELLS = PATCH // CELL_W           # cells per patch side
_BAND_ROWS = 64                    # rows per band of dense_scores: one thread's work
_TILE_ROWS = 16                    # a tile of dense_scores' vertical pass onward,
_TILE_COLS = 64                    # sized so its descriptors (1 MiB) stay in cache
_CHUNK_PX = 4096                   # pixels per chunk of descriptors_at (bounds memory)
_BLOCK_STEPS = 1024                # Pegasos steps per gathered block of examples
_WINDOW_STEPS = 32                 # Pegasos margins per matrix-vector product

# patch offsets -8..7 from the center pixel along each axis, and the 1-D
# Gaussian g(d) = exp(-d^2 / (2 * 8^2)); the patch weight is g(du) * g(dv)
_OFFS = np.arange(-PATCH // 2, PATCH // 2)
_GAUSS_W = np.exp(-_OFFS**2 / (2.0 * (PATCH / 2.0) ** 2))


def _image_array(img) -> np.ndarray:
    return np.asarray(getattr(img, "data", img), np.float64)


def _gradient_bins(img: np.ndarray):
    """Central-difference gradients (edge pixel repeated at borders), soft-binned angle."""
    ip = np.pad(img, 1, mode="symmetric")
    gx = (ip[1:-1, 2:] - ip[1:-1, :-2]) * 0.5
    gy = (ip[2:, 1:-1] - ip[:-2, 1:-1]) * 0.5
    mag = np.hypot(gx, gy)
    frac_bin = (np.arctan2(gy, gx) + np.pi) / (2.0 * np.pi) * NBINS - 0.5
    b0 = np.floor(frac_bin).astype(np.int64)
    frac = frac_bin - b0
    return mag, b0 % NBINS, (b0 + 1) % NBINS, frac


def _pad_patch(planes: np.ndarray) -> np.ndarray:
    """Pad the two image axes so every patch offset lands inside.

    Index -i mirrors to i and index size-1+i to size-i, so the top/left edge
    pixel is not repeated but the bottom/right one is, unlike the symmetric
    padding of _gradient_bins.  Kept because padding symmetrically on every
    side lowered wrinkle precision and held-out accuracy on the scan
    benchmark (see CHANGES.md)."""
    half = PATCH // 2
    planes = np.pad(planes, ((0, 0), (half, 0), (half, 0)), mode="reflect")
    return np.pad(planes, ((0, 0), (0, half - 1), (0, half - 1)), mode="symmetric")


def _cell_sums(taps: list[np.ndarray]) -> np.ndarray:
    """Per cell, the g-weighted sum of its CELL_W taps: (NCELLS, *tap shape).

    taps[j] is the source shifted to patch offset j - PATCH/2 along one axis;
    cell c sums offsets j = c*CELL_W .. c*CELL_W+CELL_W-1 in that order.
    """
    out = np.empty((NCELLS,) + taps[0].shape)
    scratch = np.empty(taps[0].shape)
    for j, tap in enumerate(taps):
        if j % CELL_W == 0:
            np.multiply(tap, _GAUSS_W[j], out=out[j // CELL_W])
        else:
            out[j // CELL_W] += np.multiply(tap, _GAUSS_W[j], out=scratch)
    return out


def _orientation_planes(a: np.ndarray) -> np.ndarray:
    """Orientation planes, padded by half a patch: (NBINS, h+PATCH-1, w+PATCH-1).

    Gradient magnitude is split between the two nearest of NBINS orientation
    planes.
    """
    h, w = a.shape
    mag, bin0, bin1, frac = _gradient_bins(a)
    lo, hi = mag * (1.0 - frac), mag * frac
    planes = np.empty((NBINS, h, w))
    for o in range(NBINS):
        planes[o] = np.where(bin0 == o, lo, 0.0) + np.where(bin1 == o, hi, 0.0)
    return _pad_patch(planes)


def _cell_columns(planes: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Horizontal pass over padded rows r0..r1-1 of the orientation planes:
    (NCELLS*NBINS, r1-r0, w), plane index cx*NBINS+o.

    Each cell column cx sums its CELL_W column offsets du weighted by g(du).
    The pass is row-local, so any range of rows gives the same values there.
    """
    w = planes.shape[2] - (PATCH - 1)
    rows = planes[:, r0:r1]
    cols = _cell_sums([rows[:, :, j:j + w] for j in range(PATCH)])
    return cols.reshape(NCELLS * NBINS, r1 - r0, w)


def _sum_squares(d: np.ndarray) -> np.ndarray:
    """Per pixel, the sum over bins (axis 0) of d^2, in bin order.

    Reducing along the outer axis adds whole bin planes in order; the bins
    of a lone pixel are contiguous, and np.add.reduce would sum them
    pairwise, so that case accumulates."""
    sq = np.square(d)
    if sq[0].size == 1:
        return np.add.accumulate(sq, axis=0)[-1]
    return np.add.reduce(sq, axis=0)


def _normalize(d: np.ndarray) -> np.ndarray:
    """Contrast floor, L2 norm, clamp at 0.2 and renormalization of raw
    descriptors d (bins on axis 0), in place."""
    norm = np.sqrt(_sum_squares(d))
    nz = norm > MIN_PATCH_NORM
    d /= np.where(nz, norm, np.inf)             # below the floor: the zero descriptor
    np.minimum(d, 0.2, out=d)
    d /= np.where(nz, np.sqrt(_sum_squares(d)), np.inf)
    return d


def descriptors_at(img, uu, vv) -> np.ndarray:
    """Descriptors for pixel coordinates (uu[i], vv[i]); shape (N, 128).

    The vertical pass runs at the requested pixels only, with the same
    arithmetic as a tile of dense_scores, so each descriptor is the one the
    dense engine computes for its pixel, whichever pixels are requested.
    """
    a = _image_array(img)
    cols = _cell_columns(_orientation_planes(a), 0, a.shape[0] + PATCH - 1)
    uu = np.asarray(uu, np.int64)
    vv = np.asarray(vv, np.int64)
    desc = np.empty((len(uu), DESCRIPTOR_SIZE))
    for lo in range(0, len(uu), _CHUNK_PX):      # bounds the gathered taps
        cu, cv = uu[lo:lo + _CHUNK_PX], vv[lo:lo + _CHUNK_PX]
        # vertical pass: cell row cy sums its row offsets dv weighted by g(dv),
        # giving raw bin (cy*NCELLS+cx)*NBINS+o
        d = _cell_sums([cols[:, cv + j, cu] for j in range(PATCH)])
        desc[lo:lo + len(cu)] = _normalize(d.reshape(DESCRIPTOR_SIZE, len(cu))).T
    return desc


def descriptor_at(img, u: int, v: int) -> np.ndarray:
    """Single-pixel descriptor (identical to the batch path)."""
    return descriptors_at(img, [u], [v])[0]


@dataclass
class TrainingSet:
    positives: np.ndarray                 # (P, 128)
    negatives: np.ndarray                 # (N, 128)
    provenance: list[str] = None

    def __post_init__(self):
        if self.provenance is None:
            self.provenance = []


def build_training_set(img, mask: LabelMask, negatives_per_positive: int = 3,
                       seed: int = 0, provenance: str = "") -> TrainingSet:
    """Positives at every wrinkle-labeled pixel; seeded-uniform negatives elsewhere."""
    lab = np.asarray(mask.data)
    pv, pu = np.nonzero(lab == LABEL_WRINKLE)
    if len(pu) == 0:
        raise ValueError("mask contains no wrinkle pixels")
    cv, cu = np.nonzero(lab != LABEL_WRINKLE)
    want = min(negatives_per_positive * len(pu), len(cu))
    rng = np.random.Generator(np.random.Philox(key=seed))
    pick = rng.choice(len(cu), size=want, replace=False)
    pick.sort()
    desc = descriptors_at(img, np.concatenate([pu, cu[pick]]),
                          np.concatenate([pv, cv[pick]]))
    return TrainingSet(desc[:len(pu)], desc[len(pu):],
                       [provenance] if provenance else [])


def merge_training_sets(sets: list[TrainingSet]) -> TrainingSet:
    return TrainingSet(np.vstack([s.positives for s in sets]),
                       np.vstack([s.negatives for s in sets]),
                       sum((s.provenance for s in sets), []))


@dataclass
class TrainHyper:
    reg_lambda: float = 1e-4
    epochs: int = 20
    seed: int = 7
    calibrate: bool = False


@dataclass
class SvmModel:
    weights: np.ndarray       # (128,)
    bias: float
    hyper: TrainHyper
    slope: float = 1.0        # sigmoid calibration
    offset: float = 0.0

    def margins(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias


def _sample_indices(seed: int, t0: int, t1: int, n: int) -> np.ndarray:
    """Example index for steps t0..t1-1: hash(seed, t) mod n.

    Taking the hash modulo the set size means a training set duplicated
    in-place (X tiled) visits the same underlying examples in the same order
    when the epoch count is halved.
    """
    t = np.arange(t0, t1, dtype=np.uint64) ^ np.uint64(seed & ((1 << 64) - 1))
    return (_splitmix64(t) % np.uint64(n)).astype(np.int64)


def train_arrays(X: np.ndarray, y: np.ndarray, hyper: TrainHyper) -> SvmModel:
    """Pegasos on (X, y) with y in {-1, +1}; bias unregularized.

    Step t visits example i = hash(seed, t) mod n with eta = 1/(lambda t):
    the margin y_i (scale w.x_i + b) is taken, scale shrinks by
    1 - eta lambda (folded into w before it underflows), and on a hinge
    violation (margin < 1) w += (eta y_i / scale) x_i and b += eta y_i.

    w changes only on violations and folds, so the dot products w.x_i of
    the steps up to the next change are taken in one matrix-vector product
    over a window of steps, and the steps run as scalar Python.  A batched
    dot product may round differently from the single one, so a margin
    within rounding of 1 is recomputed with w @ x_i: every hinge decision,
    and with it every bit of the model, is that of the plain per-step loop.
    """
    n, dim = X.shape
    lam = hyper.reg_lambda
    if not lam > 0:
        raise ValueError(f"reg_lambda must be > 0, got {lam}")
    T = hyper.epochs * n
    w = np.zeros(dim)
    scale = 1.0
    b = 0.0
    # Any order of summing dim products lies within dim * 2^-53 * |w| |x| of
    # the exact dot product, so a batched and a single one differ by at most
    # twice that.  rel covers it with room for the roundings of
    # scale * d + b and of the bounds xmax >= |x_i| and wmax >= |w|; margins
    # within band of 1 are recomputed, band being at least an ulp of 1.
    rel = 4.0 * (dim + 4) * 2.0**-53
    xmax = float(np.sqrt(np.einsum("ij,ij->i", X, X).max(initial=0.0)))
    wmax = 0.0
    for t0 in range(1, T + 1, _BLOCK_STEPS):
        t1 = min(t0 + _BLOCK_STEPS, T + 1)
        idx = _sample_indices(hyper.seed, t0, t1, n)
        Xb, yb = X[idx], y[idx]
        eta = 1.0 / (lam * np.arange(t0, t1, dtype=np.float64))
        shrink = (1.0 - eta * lam).tolist()
        step = (eta * yb).tolist()
        ys = yb.tolist()
        k = 0
        while k < t1 - t0:
            band = rel * (scale * wmax * xmax + abs(b)) + 2.0**-52
            if not band < math.inf:              # non-finite: check every step
                band = math.inf
            upper = 1.0 + band
            end = min(k + _WINDOW_STEPS, t1 - t0)
            for j, d in enumerate(Xb[k:end].dot(w).tolist(), k):
                margin = ys[j] * (scale * d + b)
                if margin < upper:
                    break
                scale *= shrink[j]
                if scale < 1e-9:
                    break
            else:
                k = end
                continue
            # step j may violate the hinge, or its shrink needs a fold
            if margin < upper:
                if margin >= 1.0 - band:
                    margin = ys[j] * (scale * (w @ X[idx[j]]) + b)
                scale *= shrink[j]
            if scale < 1e-9:                     # fold the scalar in before underflow
                w *= scale
                wmax *= abs(scale) * (1.0 + rel)
                scale = 1.0
            if margin < 1.0:
                coef = step[j] / scale
                w += coef * Xb[j]
                b += step[j]
                wmax = (wmax + abs(coef) * xmax) * (1.0 + rel)
            k = j + 1
    w *= scale
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise FloatingPointError(
            f"training diverged (lambda={lam}, epochs={hyper.epochs})")
    model = SvmModel(w, b, hyper)
    if hyper.calibrate:
        slope, offset = _fit_sigmoid(model.margins(X), y)
        model = replace(model, slope=slope, offset=offset)
    return model


def train(ts: TrainingSet, hyper: TrainHyper | None = None) -> SvmModel:
    hyper = hyper or TrainHyper()
    if len(ts.positives) == 0 or len(ts.negatives) == 0:
        raise ValueError("both classes must be non-empty")
    X = np.vstack([ts.positives, ts.negatives])
    y = np.concatenate([np.ones(len(ts.positives)), -np.ones(len(ts.negatives))])
    return train_arrays(X, y, hyper)


def _fit_sigmoid(margins: np.ndarray, y: np.ndarray, iters: int = 25):
    """Newton fit of P(y=1|m) = sigmoid(a*m + c) by logistic loss."""
    t = (y + 1.0) / 2.0
    a, c = 1.0, 0.0
    for _ in range(iters):
        z = np.clip(a * margins + c, -35.0, 35.0)
        p = 1.0 / (1.0 + np.exp(-z))
        g = np.array([((p - t) * margins).sum(), (p - t).sum()])
        r = p * (1.0 - p) + 1e-12
        H = np.array([[(r * margins**2).sum(), (r * margins).sum()],
                      [(r * margins).sum(), r.sum()]])
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        a, c = a - step[0], c - step[1]
    return float(a), float(c)


def score_pixel(model: SvmModel, descriptor: np.ndarray) -> float:
    """S = sigmoid(slope * (w.x + b) + offset), strictly inside (0, 1)."""
    m = float(np.dot(model.weights, descriptor)) + model.bias
    return 1.0 / (1.0 + math.exp(-(model.slope * m + model.offset)))


def _sigmoid(model: SvmModel, margins: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(model.slope * margins + model.offset)))


def score_margins(model: SvmModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(model, X @ model.weights + model.bias)


def _score_band(planes: np.ndarray, model: SvmModel, out: np.ndarray,
                 r0: int, r1: int) -> None:
    """Scores of rows r0..r1-1 into out[r0:r1]: the horizontal pass over the
    band and its PATCH-1 halo rows, then the vertical pass, normalization,
    SVM dot product and sigmoid tile by tile."""
    cols = _cell_columns(planes, r0, r1 + PATCH - 1)
    w = out.shape[1]
    # the last column tile takes a lone last column: a 1x1 tile would send
    # the dot product to a kernel that rounds differently from the others
    col_edges = list(range(0, max(w - 1, 1), _TILE_COLS)) + [w]
    for t0 in range(0, r1 - r0, _TILE_ROWS):
        t1 = min(t0 + _TILE_ROWS, r1 - r0)
        for c0, c1 in zip(col_edges, col_edges[1:]):
            # the vertical pass of descriptors_at, over one tile
            d = _cell_sums([cols[:, t0 + j:t1 + j, c0:c1] for j in range(PATCH)])
            d = _normalize(d.reshape(DESCRIPTOR_SIZE, t1 - t0, c1 - c0))
            out[r0 + t0:r0 + t1, c0:c1] = _sigmoid(
                model, np.tensordot(model.weights, d, axes=1) + model.bias)


def dense_scores(img, model: SvmModel, threads: int = 1) -> np.ndarray:
    """Classifier score S of every pixel of img, shape (h, w).

    Bands of _BAND_ROWS rows are scored on up to `threads` worker threads,
    each band into its own rows of the result.  The band and tile grid does
    not depend on `threads`, so neither does any score.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    a = _image_array(img)
    h = a.shape[0]
    planes = _orientation_planes(a)
    out = np.empty(a.shape)
    bands = [(r0, min(r0 + _BAND_ROWS, h)) for r0 in range(0, h, _BAND_ROWS)]
    with ThreadPoolExecutor(max(1, min(threads, len(bands)))) as pool:
        for done in [pool.submit(_score_band, planes, model, out, r0, r1)
                     for r0, r1 in bands]:
            done.result()
    return out


def accuracy(model: SvmModel, X: np.ndarray, y: np.ndarray,
             threshold: float = 0.5) -> float:
    s = score_margins(model, X)
    return float(np.mean((s >= threshold) == (y > 0)))


# --- model file: "SVMW <n> <lambda> <epochs> <seed> <calibrate>" header,
# then (n + 3) little-endian float64: weights, bias, slope, offset. ---

def save_model(model: SvmModel, path) -> None:
    h = model.hyper
    header = (f"SVMW {len(model.weights)} {h.reg_lambda!r} {h.epochs} "
              f"{h.seed} {int(h.calibrate)}\n")
    payload = np.concatenate([model.weights,
                              [model.bias, model.slope, model.offset]])
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def load_model(path) -> SvmModel:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace")
        parts = header.split()
        if len(parts) != 6 or parts[0] != "SVMW":
            raise GridFormatError(f"{path}: bad SVMW header {header!r}")
        try:
            n = int(parts[1])
            hyper = TrainHyper(float(parts[2]), int(parts[3]), int(parts[4]),
                               bool(int(parts[5])))
        except ValueError as e:
            raise GridFormatError(f"{path}: bad SVMW header {header!r}") from e
        if n != DESCRIPTOR_SIZE:
            raise GridFormatError(f"{path}: {n} weights, expected {DESCRIPTOR_SIZE}")
        payload = f.read()
    if len(payload) != (n + 3) * 8:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, "
                              f"expected {(n + 3) * 8}")
    vals = np.frombuffer(payload, dtype="<f8")
    return SvmModel(vals[:n].copy(), float(vals[n]), hyper,
                    float(vals[n + 1]), float(vals[n + 2]))
