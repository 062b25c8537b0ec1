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

Training minimizes the primal linear-SVM objective
lambda/2 |w|^2 + mean l(y (w.x + b)) with the Huber-smoothed hinge l
(Chapelle 2007, "Training a support vector machine in the primal"): zero
for margins m >= 1, (1-m)^2 / 2h on the band 1-h < m < 1, and 1-m-h/2 below
it.  The bias is not regularized.  Newton steps (Keerthi & DeCoste 2005)
with a backtracking line search run until the gradient has fallen by a
factor 1e12: about a dozen steps on scan corpora, a few hundred on small
nearly separable sets.  The solver draws nothing at random, and none of its
sums depends on the BLAS thread count, so the model depends on the training
matrix alone (see train_arrays).  A pixel's score is sigmoid(w.x + b), and
the model file holds lambda, the weights and the bias.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gridio import GridFormatError, LabelMask, LABEL_WRINKLE

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
_GRAM_ROWS = 1024                  # band rows per gathered chunk of a Newton system
HUBER_H = 0.5                      # width of the smoothed hinge's quadratic band
_GRAD_TOL = 1e-12                  # converged: gradient norm below this share of the first
_MAX_NEWTON_STEPS = 3000           # a guard: nearly separable sets of ~128-300 rows take
                                   # a few hundred steps, scan corpora 11-14
_MAX_HALVINGS = 60                 # line search: halvings before the step is given up

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


def _cell_sums(taps: Iterator[np.ndarray]) -> np.ndarray:
    """Per cell, the g-weighted sum of its CELL_W taps: (NCELLS, *tap shape).

    The j-th tap is the source shifted to patch offset j - PATCH/2 along one
    axis; cell c sums offsets j = c*CELL_W .. c*CELL_W+CELL_W-1 in that
    order.  Taps are consumed one at a time, so a gathered tap is freed
    before the next one is taken.
    """
    for j, tap in enumerate(taps):
        if j == 0:
            out = np.empty((NCELLS,) + tap.shape)
            scratch = np.empty(tap.shape)
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
    cols = _cell_sums(rows[:, :, j:j + w] for j in range(PATCH))
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
    for lo in range(0, len(uu), _CHUNK_PX):      # bounds each gathered tap
        cu, cv = uu[lo:lo + _CHUNK_PX], vv[lo:lo + _CHUNK_PX]
        # vertical pass: cell row cy sums its row offsets dv weighted by g(dv),
        # giving raw bin (cy*NCELLS+cx)*NBINS+o
        d = _cell_sums(cols[:, cv + j, cu] for j in range(PATCH))
        desc[lo:lo + len(cu)] = _normalize(d.reshape(DESCRIPTOR_SIZE, len(cu))).T
    return desc


def descriptor_at(img, u: int, v: int) -> np.ndarray:
    """Single-pixel descriptor (identical to the batch path)."""
    return descriptors_at(img, [u], [v])[0]


@dataclass
class TrainingSet:
    """Training examples as the rows of one matrix: the positives, then the
    negatives."""
    X: np.ndarray                         # (P + N, 128)
    n_pos: int                            # P

    @property
    def positives(self) -> np.ndarray:
        return self.X[:self.n_pos]

    @property
    def negatives(self) -> np.ndarray:
        return self.X[self.n_pos:]


def sample_pixels(mask: LabelMask, negatives_per_positive: int, seed: int,
                  valid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """The pixels one scene gives a training or held-out set: (uu, vv, P).

    Every wrinkle pixel (P of them), then min(negatives_per_positive * P, C)
    of the C other pixels, drawn uniformly without replacement by a Philox
    generator keyed by `seed`; each group in raster order.  With `valid`,
    pixels where it is false are left out of both groups.
    """
    wrinkle = np.asarray(mask.data) == LABEL_WRINKLE
    other = ~wrinkle
    if valid is not None:
        wrinkle &= valid
        other &= valid
    pv, pu = np.nonzero(wrinkle)
    cv, cu = np.nonzero(other)
    rng = np.random.Generator(np.random.Philox(key=seed))
    pick = rng.choice(len(cu), size=min(negatives_per_positive * len(pu), len(cu)),
                      replace=False)
    pick.sort()
    return np.concatenate([pu, cu[pick]]), np.concatenate([pv, cv[pick]]), len(pu)


def build_training_set(scenes: list[tuple[np.ndarray, LabelMask, int]],
                       negatives_per_positive: int = 3) -> TrainingSet:
    """The training set of a corpus of (img, mask, seed) scenes.

    Every scene's pixels are drawn first (sample_pixels), so that the matrix
    is allocated once at its final size; then each scene's descriptors are
    written into place: the positives of all scenes in scene order, then
    their negatives.
    """
    picks = [sample_pixels(mask, negatives_per_positive, seed) for _, mask, seed in scenes]
    if any(n_pos == 0 for _, _, n_pos in picks):
        raise ValueError("mask contains no wrinkle pixels")
    n_pos = sum(k for _, _, k in picks)
    X = np.empty((sum(len(uu) for uu, _, _ in picks), DESCRIPTOR_SIZE))
    pos, neg = 0, n_pos
    for (img, _, _), (uu, vv, k) in zip(scenes, picks):
        d = descriptors_at(img, uu, vv)
        X[pos:pos + k] = d[:k]
        X[neg:neg + len(d) - k] = d[k:]
        pos, neg = pos + k, neg + len(d) - k
    return TrainingSet(X, n_pos)


@dataclass
class TrainHyper:
    reg_lambda: float = 1e-4

    def __post_init__(self):
        if not (math.isfinite(self.reg_lambda) and self.reg_lambda > 0):
            raise ValueError(f"reg_lambda must be finite and > 0, got {self.reg_lambda}")


@dataclass
class SvmModel:
    weights: np.ndarray       # (128,)
    bias: float
    hyper: TrainHyper


def _smoothed_hinge(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smoothed hinge at margins m, and its derivative: -1 below the
    band, -(1-m)/h on it, 0 from m = 1 on."""
    z = np.maximum(1.0 - m, 0.0)
    zb = np.minimum(z, HUBER_H)
    return zb * zb / (2.0 * HUBER_H) + (z - zb), zb / -HUBER_H


def _cholesky_solve(A: np.ndarray, rhs: np.ndarray, floor: float) -> np.ndarray:
    """x with A x = rhs, A symmetric positive definite (its lower triangle
    is read), by a Cholesky factorization.

    The factorization runs column by column, each column's update one einsum
    over the columns before it, and the substitutions are elementwise numpy
    steps: LAPACK's blocked kernels round differently on different BLAS
    thread counts.  A pivot that is not positive is replaced by `floor`.
    """
    L = np.tril(A)
    k = len(rhs)
    for j in range(k):
        L[j:, j] -= np.einsum("ik,k->i", L[j:, :j], L[j, :j])
        L[j, j] = math.sqrt(L[j, j] if L[j, j] > 0 else floor)
        L[j + 1:, j] /= L[j, j]
    x = rhs.copy()
    for j in range(k):                    # L z = rhs
        x[j] /= L[j, j]
        x[j + 1:] -= L[j + 1:, j] * x[j]
    for j in reversed(range(k)):          # L^T x = z
        x[j] /= L[j, j]
        x[:j] -= L[j, :j] * x[j]
    return x


def train_arrays(X: np.ndarray, y: np.ndarray, hyper: TrainHyper) -> SvmModel:
    """Minimizer of lambda/2 |w|^2 + mean l(y (X w + b)) for y in {-1, +1},
    l the smoothed hinge (see the module docstring), by Newton steps.

    The Hessian is lambda I on w plus 1/(n h) times the Gram matrix of the
    examples on the band, with the bias as the last row and column of the
    system; it is summed over chunks of _GRAM_ROWS band rows, so no copy of
    X is made.  Without band examples the bias pivot is lambda.

    A backtracking line search halves each step until the objective falls
    by the Armijo rule, or until the objective's slope along the step is not
    positive: the objective is convex, so such a step lands within a factor
    2 of the minimum along the line, and the sign of the slope stays
    reliable where rounding hides the fall of the objective.  The solver
    stops when the gradient norm falls below _GRAD_TOL times the first one,
    when no halving is accepted, or after _MAX_NEWTON_STEPS steps.

    The model does not depend on the BLAS thread count: the gradient's
    c @ X and the Gram matrices of the chunks come out bit-identical on any
    number of threads, X @ w and LAPACK's solvers do not, so the outputs
    X w are an einsum and the system is solved by _cholesky_solve.
    """
    n, dim = X.shape
    lam = hyper.reg_lambda
    w, b = np.zeros(dim), 0.0
    out = np.zeros(n)                     # X w + b
    g0 = None
    for _ in range(_MAX_NEWTON_STEPS):
        m = y * out
        loss, slope = _smoothed_hinge(m)
        c = slope * y                     # d loss_i / d out_i
        g = np.append(lam * w + (c @ X) / n, c.sum() / n)
        gnorm = math.sqrt(np.sum(g * g))
        g0 = gnorm if g0 is None else g0
        if gnorm <= _GRAD_TOL * g0:
            break
        band = np.flatnonzero((m > 1.0 - HUBER_H) & (m < 1.0))
        A = np.zeros((dim + 1, dim + 1))
        for lo in range(0, len(band), _GRAM_ROWS):
            Xc = X[band[lo:lo + _GRAM_ROWS]]
            A[:dim, :dim] += Xc.T @ Xc
            A[dim, :dim] += Xc.sum(axis=0)
        A[dim, dim] = len(band)
        A /= n * HUBER_H
        A[range(dim), range(dim)] += lam
        d = -_cholesky_solve(A, g, lam)
        dw, db = d[:dim], d[dim]
        dout = np.einsum("ij,j->i", X, dw) + db
        ww, wd, dd = np.sum(w * w), np.sum(w * dw), np.sum(dw * dw)
        f, gd = 0.5 * lam * ww + np.sum(loss) / n, np.sum(g * d)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            loss, slope = _smoothed_hinge(y * (out + t * dout))
            if (0.5 * lam * (ww + t * (2.0 * wd + t * dd)) + np.sum(loss) / n
                    <= f + 1e-4 * t * gd                                  # Armijo
                    or lam * (wd + t * dd) + np.sum(slope * y * dout) / n <= 0.0):
                break
            t *= 0.5
        else:
            break                         # no step along d lowers the objective
        w += t * dw
        b += t * db
        out += t * dout
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise FloatingPointError(f"training diverged (lambda={lam})")
    return SvmModel(w, float(b), hyper)


def train(ts: TrainingSet, hyper: TrainHyper | None = None) -> SvmModel:
    """The SVM of a training set, trained on its matrix without a copy."""
    hyper = hyper or TrainHyper()
    if len(ts.positives) == 0 or len(ts.negatives) == 0:
        raise ValueError("both classes must be non-empty")
    y = np.ones(len(ts.X))
    y[ts.n_pos:] = -1.0
    return train_arrays(ts.X, y, hyper)


def score_pixel(model: SvmModel, descriptor: np.ndarray) -> float:
    """S = sigmoid(w.x + b), strictly inside (0, 1)."""
    m = float(np.dot(model.weights, descriptor)) + model.bias
    return 1.0 / (1.0 + math.exp(-m))


def _sigmoid(margins: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-margins))


def score_margins(model: SvmModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(X @ model.weights + model.bias)


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
            d = _cell_sums(cols[:, t0 + j:t1 + j, c0:c1] for j in range(PATCH))
            d = _normalize(d.reshape(DESCRIPTOR_SIZE, t1 - t0, c1 - c0))
            out[r0 + t0:r0 + t1, c0:c1] = _sigmoid(
                np.tensordot(model.weights, d, axes=1) + model.bias)


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


# --- model file: "SVMW <n> <lambda>" header, then (n + 1) little-endian
# float64: weights, bias. ---

def save_model(model: SvmModel, path) -> None:
    header = f"SVMW {len(model.weights)} {model.hyper.reg_lambda!r}\n"
    payload = np.append(model.weights, model.bias)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def load_model(path) -> SvmModel:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace")
        parts = header.split()
        if len(parts) != 3 or parts[0] != "SVMW":
            raise GridFormatError(f"{path}: bad SVMW header {header!r}")
        try:
            n = int(parts[1])
            hyper = TrainHyper(float(parts[2]))
        except ValueError as e:
            raise GridFormatError(f"{path}: bad SVMW header {header!r}") from e
        if n != DESCRIPTOR_SIZE:
            raise GridFormatError(f"{path}: {n} weights, expected {DESCRIPTOR_SIZE}")
        payload = f.read()
    if len(payload) != (n + 1) * 8:
        raise GridFormatError(f"{path}: payload {len(payload)} bytes, "
                              f"expected {(n + 1) * 8}")
    vals = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(vals)):
        raise GridFormatError(f"{path}: non-finite value in payload")
    return SvmModel(vals[:n].copy(), float(vals[n]), hyper)
