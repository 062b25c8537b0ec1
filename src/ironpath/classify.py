"""Pixel-level wrinkle classifier: orientation-histogram descriptors + linear SVM.

The descriptor is a fixed-scale, fixed-orientation variant of the classic
128-dimensional gradient histogram: a 16x16 patch split into 4x4 spatial
cells with 8 orientation bins each, Gaussian-weighted gradient magnitudes,
L2-normalized, clamped at 0.2 and renormalized.  Gradient magnitude is split
linearly between the two nearest orientation bins.

Descriptors are computed densely, as a separable linear filter (the dense-SIFT
construction): each raw bin is a Gaussian-weighted box sum over one of 8
soft-binned orientation planes, taken as a horizontal pass and a vertical
pass.  The planes are padded by half a patch, and each padded row depends on
at most three image rows, so any band of rows can be built on its own.  The
image is split into bands of _BAND_ROWS rows; each band builds the planes of
its rows and the PATCH-1 halo rows below them and takes the horizontal pass
over them (_band_columns).  When pixels are sampled (descriptors_at), only
the bands that hold requested pixels are built, and the vertical pass runs at
those pixels.  When every pixel is scored (dense_scores), the bands are
scored on worker threads, and the vertical pass, normalization, SVM dot
product and sigmoid run on tiles of _TILE_ROWS x _TILE_COLS pixels whose
descriptors (1 MiB) fit in cache.  No thread holds more than one band's
planes.  Both paths run the same arithmetic per pixel, and the band and tile
grid does not depend on the thread count, so neither do the scores.  A
training set is built one scene per task on worker threads, each writing
its descriptors_at rows straight into the one training matrix, so the
matrix does not depend on the thread count either.

The engine, from the planes to the normalized descriptor, runs in single
precision (_DTYPE, as in VLFeat's dense SIFT): the gradients and bin weights
are taken in float64 and rounded once as they are written into the planes.
The SVM dot product, the sigmoid and the training matrix stay in float64:
each tile's descriptors are cast up before the dot product, and descriptors_at
returns float64 rows whose values are exact float32 numbers.

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
from collections.abc import Callable, Iterator
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
_DTYPE = np.float32                # the descriptor engine's precision
_BAND_ROWS = 64                    # rows per band: one thread's work in dense_scores
_TILE_ROWS = 32                    # a tile of dense_scores' vertical pass onward,
_TILE_COLS = 64                    # sized so its descriptors (1 MiB) stay in cache
_CHUNK_PX = 4096                   # pixels per chunk of descriptors_at (bounds memory)
_GRAM_ROWS = 1024                  # band rows per gathered chunk of a Newton system
HUBER_H = 0.5                      # width of the smoothed hinge's quadratic band
_GRAD_TOL = 1e-12                  # converged: gradient norm below this share of the first
_MAX_NEWTON_STEPS = 3000           # a guard: nearly separable sets of ~128-300 rows take
                                   # a few hundred steps, scan corpora 11-14
_MAX_HALVINGS = 60                 # line search: halvings before the step is given up

# patch offsets -8..7 from the center pixel along each axis, and the 1-D
# Gaussian g(d) = exp(-d^2 / (2 * 8^2)) rounded to the engine's precision;
# the patch weight is g(du) * g(dv)
_OFFS = np.arange(-PATCH // 2, PATCH // 2)
_GAUSS_W = np.exp(-_OFFS**2 / (2.0 * (PATCH / 2.0) ** 2)).astype(_DTYPE)


def _pad_index(n: int) -> np.ndarray:
    """For each of the n+PATCH-1 padded positions along an image axis, the
    pixel it copies: index -i mirrors to i and index n-1+i to n-i.

    So the top/left edge pixel is not repeated but the bottom/right one is,
    unlike the clamped neighbours of the gradients.  Kept because padding
    symmetrically on every side lowered wrinkle precision and held-out
    accuracy on the scan benchmark (see CHANGES.md).  Images under half a
    patch are reflected repeatedly, as np.pad does."""
    half = PATCH // 2
    return np.pad(np.pad(np.arange(n), (half, 0), "reflect"), (0, half - 1), "symmetric")


def _orientation_planes(a: np.ndarray, p0: int, p1: int) -> np.ndarray:
    """Padded rows p0..p1-1 of the orientation planes: (NBINS, p1-p0, w+PATCH-1),
    of dtype _DTYPE.

    Central-difference gradients (edge pixel repeated at borders) are taken
    at the pixels the padded positions copy (_pad_index), and each gradient
    magnitude is split linearly between the two nearest of NBINS orientation
    planes, scattered into an array of zeros.  All of it is float64 until
    the scatter, which rounds each value once.
    """
    h, w = a.shape
    rows = _pad_index(h)[p0:p1, None]
    cols = _pad_index(w)
    gx = (a[rows, np.minimum(cols + 1, w - 1)] - a[rows, np.maximum(cols - 1, 0)]) * 0.5
    gy = (a[np.minimum(rows + 1, h - 1), cols] - a[np.maximum(rows - 1, 0), cols]) * 0.5
    mag = np.hypot(gx, gy).ravel()
    frac_bin = ((np.arctan2(gy, gx) + np.pi) / (2.0 * np.pi) * NBINS - 0.5).ravel()
    b0 = np.floor(frac_bin).astype(np.int64)
    frac = frac_bin - b0
    # the two bins differ and both weights are >= +0, so each position is
    # written once and every other bin keeps its +0
    planes = np.zeros((NBINS, p1 - p0, len(cols)), _DTYPE)
    flat, at = planes.reshape(-1), np.arange(len(mag))
    flat[b0 % NBINS * len(mag) + at] = mag * (1.0 - frac)
    flat[(b0 + 1) % NBINS * len(mag) + at] = mag * frac
    return planes


def _cell_sums(taps: Iterator[np.ndarray]) -> np.ndarray:
    """Per cell, the g-weighted sum of its CELL_W taps: (NCELLS, *tap shape).

    The j-th tap is the source shifted to patch offset j - PATCH/2 along one
    axis; cell c sums offsets j = c*CELL_W .. c*CELL_W+CELL_W-1 in that
    order.  Taps are consumed one at a time, so a gathered tap is freed
    before the next one is taken.
    """
    for j, tap in enumerate(taps):
        if j == 0:
            out = np.empty((NCELLS,) + tap.shape, tap.dtype)
            scratch = np.empty(tap.shape, tap.dtype)
        if j % CELL_W == 0:
            np.multiply(tap, _GAUSS_W[j], out=out[j // CELL_W])
        else:
            out[j // CELL_W] += np.multiply(tap, _GAUSS_W[j], out=scratch)
    return out


def _band_columns(a: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Horizontal pass over the orientation planes of image rows r0..r1-1
    and their PATCH-1 halo rows: (NCELLS*NBINS, r1-r0+PATCH-1, w), plane
    index cx*NBINS+o.

    Each cell column cx sums its CELL_W column offsets du weighted by g(du).
    The pass is row-local, so any band gives the same values on its rows.
    """
    planes = _orientation_planes(a, r0, r1 + PATCH - 1)
    _, n, wp = planes.shape
    w = wp - (PATCH - 1)
    cols = _cell_sums(planes[:, :, j:j + w] for j in range(PATCH))
    return cols.reshape(NCELLS * NBINS, n, w)


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


def descriptors_at(img, uu, vv, out: np.ndarray | None = None,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """Descriptors for pixel coordinates (uu[i], vv[i]); shape (N, 128),
    float64 holding float32 values.  With `out`, descriptor i is written
    into row rows[i] of it (rows defaults to 0..N-1), and out is returned.

    Only the bands of _BAND_ROWS rows that hold requested pixels are built
    (_band_columns), one at a time, so memory follows one band and the
    pixels, not the image.  The vertical pass runs at the requested pixels
    only, with the same arithmetic as a tile of dense_scores, so each
    descriptor is the one the dense engine computes for its pixel, whichever
    pixels are requested.
    """
    a = np.asarray(img, np.float64)
    uu = np.asarray(uu, np.int64)
    vv = np.asarray(vv, np.int64)
    if out is None:
        out = np.empty((len(uu), DESCRIPTOR_SIZE))
    rows = np.arange(len(uu)) if rows is None else np.asarray(rows, np.int64)
    band = vv // _BAND_ROWS
    order = np.argsort(band, kind="stable")
    bands, starts = np.unique(band[order], return_index=True)
    for b, lo, hi in zip(bands.tolist(), starts, [*starts[1:], len(order)]):
        r0 = b * _BAND_ROWS
        cols = _band_columns(a, r0, min(r0 + _BAND_ROWS, a.shape[0]))
        for c0 in range(lo, hi, _CHUNK_PX):      # bounds each gathered tap
            at = order[c0:min(c0 + _CHUNK_PX, hi)]
            cu, cv = uu[at], vv[at] - r0
            # vertical pass: cell row cy sums its row offsets dv weighted by
            # g(dv), giving raw bin (cy*NCELLS+cx)*NBINS+o
            d = _cell_sums(cols[:, cv + j, cu] for j in range(PATCH))
            out[rows[at]] = _normalize(d.reshape(DESCRIPTOR_SIZE, len(at))).T
        del cols                # freed before the next band's columns are built
    return out


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


def build_training_set(
        scenes: list[tuple[np.ndarray | Callable[[], np.ndarray], LabelMask, int]],
        negatives_per_positive: int = 3, threads: int = 1) -> TrainingSet:
    """The training set of a corpus of (img, mask, seed) scenes, where img is
    the scene's image or a function of no arguments that returns it.

    Every scene's pixels are drawn first (sample_pixels), so that the matrix
    is allocated once at its final size and a scene without wrinkle pixels
    fails before any image is used.  Then each scene is one task on up to
    `threads` worker threads (thread_map): it calls its image function, so
    only the running tasks' images are held, and writes its descriptors
    straight into its rows of the matrix.  The rows are the positives of all
    scenes in scene order, then their negatives, on any number of threads.
    """
    picks = [sample_pixels(mask, negatives_per_positive, seed) for _, mask, seed in scenes]
    if any(n_pos == 0 for _, _, n_pos in picks):
        raise ValueError("mask contains no wrinkle pixels")
    n_pos = sum(k for _, _, k in picks)
    X = np.empty((sum(len(uu) for uu, _, _ in picks), DESCRIPTOR_SIZE))
    tasks, pos, neg = [], 0, n_pos
    for (img, _, _), (uu, vv, k) in zip(scenes, picks):
        n_neg = len(uu) - k
        tasks.append((img, uu, vv, np.r_[pos:pos + k, neg:neg + n_neg]))
        pos, neg = pos + k, neg + n_neg

    def fill(task):
        img, uu, vv, rows = task
        descriptors_at(img() if callable(img) else img, uu, vv, X, rows)
    thread_map(fill, tasks, threads)
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
    or to the rounding level of its sum: eps times the mean |loss slope|
    times the norm of the columns' largest |X| (where the zero model is the
    minimizer, the first gradient is rounding alone and cannot fall further).
    It raises ArithmeticError when it stops short of that: when no halving
    is accepted, after _MAX_NEWTON_STEPS steps, or on an overflow or an
    invalid operation (a tiny lambda gives a step too large to represent).

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
    # eps times the norm of the columns' largest |X|; times the mean |c|, it is
    # the rounding level of the gradient's sum
    ulp_x = np.finfo(np.float64).eps * math.sqrt(
        np.sum(np.maximum(X.max(axis=0), -X.min(axis=0)) ** 2))

    def overflow(kind: str, _flag: int):
        raise FloatingPointError(f"training failed at Newton step {step}: {kind} "
                                 f"(lambda={lam})")

    with np.errstate(over="call", invalid="call", divide="call", call=overflow):
        for step in range(_MAX_NEWTON_STEPS):
            m = y * out
            loss, slope = _smoothed_hinge(m)
            c = slope * y                 # d loss_i / d out_i
            g = np.append(lam * w + (c @ X) / n, c.sum() / n)
            gnorm = math.sqrt(np.sum(g * g))
            g0 = gnorm if g0 is None else g0
            if gnorm <= max(_GRAD_TOL * g0, np.mean(np.abs(c)) * ulp_x):
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
                        <= f + 1e-4 * t * gd                              # Armijo
                        or lam * (wd + t * dd) + np.sum(slope * y * dout) / n <= 0.0):
                    break
                t *= 0.5
            else:
                raise ArithmeticError(
                    f"training stopped at Newton step {step}: no step lowers the "
                    f"objective, gradient at {gnorm / g0:.3g} of its first norm "
                    f"(lambda={lam})")
            w += t * dw
            b += t * db
            out += t * dout
        else:
            raise ArithmeticError(
                f"training did not converge in {_MAX_NEWTON_STEPS} Newton steps: "
                f"gradient at {gnorm / g0:.3g} of its first norm (lambda={lam})")
    return SvmModel(w, float(b), hyper)


def train(ts: TrainingSet, hyper: TrainHyper | None = None) -> SvmModel:
    """The SVM of a training set, trained on its matrix without a copy."""
    hyper = hyper or TrainHyper()
    if len(ts.positives) == 0 or len(ts.negatives) == 0:
        raise ValueError("both classes must be non-empty")
    y = np.ones(len(ts.X))
    y[ts.n_pos:] = -1.0
    return train_arrays(ts.X, y, hyper)


def _sigmoid(margins: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-margins))


def score_margins(model: SvmModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(X @ model.weights + model.bias)


def _score_band(a: np.ndarray, model: SvmModel, out: np.ndarray,
                r0: int, r1: int) -> None:
    """Scores of rows r0..r1-1 of image a into out[r0:r1]: the orientation
    planes and the horizontal pass over the band and its PATCH-1 halo rows,
    then the vertical pass, normalization, SVM dot product and sigmoid tile
    by tile.  Each tile's descriptors are cast to float64 for the dot
    product."""
    cols = _band_columns(a, r0, r1)
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
                np.tensordot(model.weights, d.astype(np.float64), axes=1) + model.bias)


def thread_map(fn, items: list, threads: int) -> list:
    """[fn(item) for item in items], run on up to `threads` worker threads.

    The results are in item order.  When calls fail, the error of the first
    failing item in item order is raised, whichever thread finished first.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    with ThreadPoolExecutor(max(1, min(threads, len(items)))) as pool:
        return list(pool.map(fn, items))


def dense_scores(img, model: SvmModel, threads: int = 1) -> np.ndarray:
    """Classifier score S of every pixel of img, shape (h, w).

    Bands of _BAND_ROWS rows are scored on up to `threads` worker threads,
    each band into its own rows of the result.  The band and tile grid does
    not depend on `threads`, so neither does any score.
    """
    a = np.asarray(img, np.float64)
    h = a.shape[0]
    out = np.empty(a.shape)
    bands = [(r0, min(r0 + _BAND_ROWS, h)) for r0 in range(0, h, _BAND_ROWS)]
    thread_map(lambda band: _score_band(a, model, out, *band), bands, threads)
    return out


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
