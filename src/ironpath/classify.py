"""Pixel-level wrinkle classifier: orientation-histogram descriptors + linear SVM.

The descriptor is a fixed-scale, fixed-orientation variant of the classic
128-dimensional gradient histogram: a 16x16 patch split into 4x4 spatial
cells with 8 orientation bins each, Gaussian-weighted gradient magnitudes,
L2-normalized, clamped at 0.2 and renormalized.  Gradient magnitude is split
linearly between the two nearest orientation bins.

Descriptors are computed densely, as a separable linear filter (the dense-SIFT
construction): each raw bin is a Gaussian-weighted box sum over one of 8
soft-binned orientation planes, taken as a horizontal pass over the whole
image and a vertical pass: over one band of rows at a time when every pixel
is scored (dense_scores), at the requested pixels only when pixels are
sampled (descriptors_at).  Both run the same arithmetic per pixel.

Training is Pegasos-style stochastic subgradient descent on the hinge loss.
The example visited at step t is chosen by a counter hash of (seed, t), so
training is deterministic and independent of platform.
"""

from __future__ import annotations

import math
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
_BAND_ROWS = 16                    # rows per band of dense_scores (bounds memory)
_CHUNK_PX = 4096                   # pixels per chunk of descriptors_at (bounds memory)

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


def _cell_columns(a: np.ndarray) -> np.ndarray:
    """Horizontal pass: (NCELLS*NBINS, h+PATCH-1, w), plane index cx*NBINS+o.

    Gradient magnitude is split between the two nearest of NBINS orientation
    planes, the planes are padded by half a patch, and each cell column cx
    sums its CELL_W column offsets du weighted by g(du).
    """
    h, w = a.shape
    mag, bin0, bin1, frac = _gradient_bins(a)
    lo, hi = mag * (1.0 - frac), mag * frac
    planes = np.empty((NBINS, h, w))
    for o in range(NBINS):
        planes[o] = np.where(bin0 == o, lo, 0.0) + np.where(bin1 == o, hi, 0.0)
    planes = _pad_patch(planes)
    cols = _cell_sums([planes[:, :, j:j + w] for j in range(PATCH)])
    return cols.reshape(NCELLS * NBINS, planes.shape[1], w)


def _sum_squares(d: np.ndarray) -> np.ndarray:
    """Per pixel, the sum over bins (axis 0) of d^2, in bin order."""
    total = np.square(d[0])
    sq = np.empty_like(total)
    for k in range(1, len(d)):
        total += np.square(d[k], out=sq)
    return total


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
    arithmetic as a band of dense_scores, so each descriptor is the one the
    dense engine computes for its pixel, whichever pixels are requested.
    """
    cols = _cell_columns(_image_array(img))
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
    """Pegasos on (X, y) with y in {-1, +1}; bias unregularized."""
    n, dim = X.shape
    lam = hyper.reg_lambda
    T = hyper.epochs * n
    idx = _sample_indices(hyper.seed, 1, T + 1, n)
    w = np.zeros(dim)
    scale = 1.0
    b = 0.0
    for t in range(1, T + 1):
        i = idx[t - 1]
        eta = 1.0 / (lam * t)
        margin = y[i] * (scale * (w @ X[i]) + b)
        scale *= 1.0 - eta * lam
        if scale < 1e-9:                     # fold the scalar in before underflow
            w *= scale
            scale = 1.0
        if margin < 1.0:
            w += (eta * y[i] / scale) * X[i]
            b += eta * y[i]
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


def dense_scores(img, model: SvmModel) -> np.ndarray:
    """Classifier score S of every pixel of img, shape (h, w)."""
    a = _image_array(img)
    h, w = a.shape
    cols = _cell_columns(a)
    out = np.empty(a.shape)
    for r0 in range(0, h, _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, h)
        # the vertical pass of descriptors_at, over a band of rows
        d = _cell_sums([cols[:, r0 + j:r1 + j] for j in range(PATCH)])
        d = _normalize(d.reshape(DESCRIPTOR_SIZE, r1 - r0, w))
        out[r0:r1] = _sigmoid(model, np.tensordot(model.weights, d, axes=1) + model.bias)
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
        payload = f.read()
    if len(payload) != (n + 3) * 8:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, "
                              f"expected {(n + 3) * 8}")
    vals = np.frombuffer(payload, dtype="<f8")
    return SvmModel(vals[:n].copy(), float(vals[n]), hyper,
                    float(vals[n + 1]), float(vals[n + 2]))
