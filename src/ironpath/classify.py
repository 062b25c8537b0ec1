"""Pixel-level wrinkle classifier: orientation-histogram descriptors + linear SVM.

The descriptor is a fixed-scale, fixed-orientation variant of the classic
128-dimensional gradient histogram: a 16x16 patch split into 4x4 spatial
cells with 8 orientation bins each, L2-normalized, clamped at 0.2 and
renormalized: c/|c| for c = min(d, 0.2 |d|), as the raw bins d are >= 0
(_clamp).  Gradient magnitude is split linearly between the two nearest bins.

Descriptors are computed densely with flat windows (VLFeat's dense SIFT,
Vedaldi & Fulkerson 2010): a cell's raw bin is the equal-weight sum of its
CELL_W x CELL_W pixels on one of 8 soft-binned orientation planes, times the
cell's Gaussian weight (_CELL_WEIGHT).  So a 4-column box and then a 4-row
box per plane serve all 16 cells, and the 128 raw bins at a pixel are 16
shifted reads of the 8 box planes.  The planes are padded by half a patch,
and each padded row depends on at most three image rows, so any band of rows
can be built on its own.  The image is split into bands of _BAND_ROWS rows;
each band builds the planes of its rows and the PATCH-1 halo rows below them
and takes the horizontal and then the vertical boxes over them
(_band_boxes).  When pixels are sampled (descriptors_at), only the bands that
hold requested pixels are built, and each reads its boxes at the requested
pixels.  When every pixel is scored (dense_scores), each band is one task,
and the cell weights, clamp, SVM dot product and sigmoid run on tiles of
_TILE_ROWS x _TILE_COLS pixels, whose descriptors (1 MiB) fit in cache: the
16 cells of a tile are one strided view of the band's boxes, weighted in one
call.  No task holds more than one band's planes.  Both paths run the same
arithmetic per pixel, and the band and tile grid does not depend on how the
tasks are run, so neither do the scores.  A training set is built one scene
per task, each writing its descriptors_at rows straight into the one
training matrix, so neither does the matrix.  The module starts no threads:
dense_scores and build_training_set run their tasks through the map
function that the caller passes, the builtin map by default or the map of an
executor that the caller owns.

The engine runs in single precision up to the clamped descriptor c and
|c|^2 (_DTYPE, as in VLFeat's dense SIFT): gradients and bin weights are
rounded once as they are written into the planes.  The rest is float64, one
division per pixel: a score is (w.c)/|c| + b, the dot product an einsum that
sums float32 tiles of c in float64, and descriptors_at returns rows c/|c|.
A training set stores those rows rounded once to _DTYPE, which halves its
matrix, the largest array of `train`; held-out evaluation keeps them float64.

Training minimizes the primal linear-SVM objective
lambda/2 |w|^2 + mean l(y (w.x + b)) with the Huber-smoothed hinge l
(Chapelle 2007, "Training a support vector machine in the primal"): zero
for margins m >= 1, (1-m)^2 / 2h on the band 1-h < m < 1, and 1-m-h/2 below
it.  The bias is not regularized.  Newton steps (Keerthi & DeCoste 2005)
with a backtracking line search run until the gradient has fallen by a
factor 1e12: about a dozen steps on scan corpora, a few hundred on small
nearly separable sets.  The solver takes the matrix in its own dtype: the
gradient and the outputs are summed in float64, and only the Gram matrix,
which sets the step direction but not the minimizer, is summed in the
matrix's dtype.  The solver draws nothing at random, and none of its sums
depends on the BLAS thread count, so the model depends on the training
matrix alone (see train_arrays).  A pixel's score is sigmoid(w.x + b), and
the model file (SVMW) holds lambda, the weights and the bias: this module
knows what its header means, and gridio frames, reads and writes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gridio

PATCH = 16
CELL_W = 4
NBINS = 8
NCELLS = PATCH // CELL_W           # cells per patch side
DESCRIPTOR_SIZE = NCELLS * NCELLS * NBINS
# patches whose raw weighted gradient mass falls below this stay at the zero
# descriptor instead of being normalized into amplified noise (the usual
# low-contrast floor); keeps descriptor norms in {0, 1}
MIN_PATCH_NORM = 0.01

_DTYPE = np.float32                # the descriptor engine's precision
_BAND_ROWS = 64                    # rows per band: one task of dense_scores
_TILE_ROWS = 32                    # a tile of dense_scores' vertical boxes onward,
_TILE_COLS = 64                    # sized so its descriptors (1 MiB) stay in cache
_CHUNK_PX = 512                    # pixels per chunk of descriptors_at (bounds memory)
_GRAM_ROWS = 1024                  # band rows per gathered chunk of a Newton system
HUBER_H = 0.5                      # width of the smoothed hinge's quadratic band
_GRAD_TOL = 1e-12                  # converged: gradient norm below this share of the first
_MAX_NEWTON_STEPS = 3000           # a guard: nearly separable sets of ~128-300 rows take
                                   # a few hundred steps, scan corpora 11-14
_MAX_HALVINGS = 60                 # line search: halvings before the step is given up

# patch offsets -8..7 from the center pixel along each axis, and the 1-D
# Gaussian g(d) = exp(-d^2 / (2 * 8^2)) rounded to the engine's precision
_OFFS = np.arange(-PATCH // 2, PATCH // 2)
_GAUSS_W = np.exp(-_OFFS**2 / (2.0 * (PATCH / 2.0) ** 2)).astype(_DTYPE)
# cell (cy, cx)'s weight: the mean of g over the cell row's CELL_W offsets
# times its mean over the cell column's, rounded once to the engine's precision
_CELL_G = _GAUSS_W.reshape(NCELLS, CELL_W).mean(axis=1, dtype=np.float64)
_CELL_WEIGHT = np.outer(_CELL_G, _CELL_G).astype(_DTYPE)
# a cell's first row (column) offset within the padded patch window
_CELL_OFFS = CELL_W * np.arange(NCELLS)


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
    mag = np.sqrt(gx * gx + gy * gy).ravel()
    frac_bin = ((np.arctan2(gy, gx) + np.pi) / (2.0 * np.pi) * NBINS - 0.5).ravel()
    b0 = np.floor(frac_bin).astype(np.int64)
    frac = frac_bin - b0
    # the two bins differ and both weights are >= +0, so each position is
    # written once and every other bin keeps its +0; & (NBINS-1) is the
    # bin modulo NBINS (a power of two) without an integer division
    planes = np.zeros((NBINS, p1 - p0, len(cols)), _DTYPE)
    flat, at = planes.reshape(-1), np.arange(len(mag))
    flat[(b0 & (NBINS - 1)) * len(mag) + at] = mag * (1.0 - frac)
    flat[((b0 + 1) & (NBINS - 1)) * len(mag) + at] = mag * frac
    return planes


def _box(x: np.ndarray, axis: int) -> np.ndarray:
    """Sums of CELL_W consecutive entries of x along `axis`, which comes out
    CELL_W-1 shorter, added as a tree of pairs: for CELL_W = 4, entry i is
    (x[i] + x[i+1]) + (x[i+2] + x[i+3]).

    CELL_W is a power of two.  Each sum is elementwise, so a window gives the
    same value whichever slice of x it is taken from."""
    y = np.moveaxis(x, axis, 0)
    step = 1
    while step < CELL_W:
        y = y[:-step] + y[step:]
        step *= 2
    return np.moveaxis(y, 0, axis)


def _band_boxes(a: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """CELL_W x CELL_W box sums (the 4-column boxes, then the 4-row boxes) over
    the orientation planes of image rows r0..r1-1 and their PATCH-1 halo rows:
    (NBINS, r1-r0+PATCH-CELL_W, w+PATCH-CELL_W).  Cell (cy, cx) of the patch
    at pixel (v, u) is entry (v-r0+cy*CELL_W, u+cx*CELL_W); each sum is
    elementwise, so any band gives the same values on its rows."""
    return _box(_box(_orientation_planes(a, r0, r1 + PATCH - 1), axis=2), axis=1)


def _sum_squares(d: np.ndarray) -> np.ndarray:
    """Per pixel, the sum over bins (axis 0) of d^2, in bin order.

    The einsum adds whole bin planes in order; the bins of a lone pixel are
    contiguous, and a reduction would sum them pairwise, so that case
    accumulates."""
    if d[0].size == 1:
        return np.add.accumulate(np.square(d), axis=0)[-1]
    return np.einsum("k...,k...->...", d, d)


def _clamp(d: np.ndarray) -> np.ndarray:
    """Clamps raw descriptors d (bins on axis 0) in place to c = min(d, 0.2 |d|)
    and returns |c| per pixel in float64, or inf where |d| does not exceed
    the contrast floor (so that c/|c| is the zero descriptor there)."""
    norm = np.sqrt(_sum_squares(d))
    np.minimum(d, 0.2 * norm, out=d)
    return np.where(norm > MIN_PATCH_NORM, np.sqrt(_sum_squares(d), dtype=np.float64), np.inf)


def descriptors_at(img, uu, vv, out: np.ndarray | None = None,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """Descriptors for pixel coordinates (uu[i], vv[i]); shape (N, 128),
    float64.  With `out`, descriptor i is written into row rows[i] of it
    (rows defaults to 0..N-1), rounded once to out's dtype, and out is
    returned.  Raises ValueError on the first pixel outside the image.

    Only the bands of _BAND_ROWS rows that hold requested pixels are built
    (_band_boxes), one at a time, so memory follows one band and the
    pixels, not the image.  Each band takes the 16 cells of each requested
    pixel from its boxes, then weights and clamps them: the same float32
    operations as a tile of dense_scores, so c and |c| are the ones the
    dense engine computes for the pixel, whichever pixels are requested.
    """
    a = np.asarray(img, np.float64)
    uu = np.asarray(uu, np.int64)
    vv = np.asarray(vv, np.int64)
    outside = np.flatnonzero((uu < 0) | (uu >= a.shape[1]) | (vv < 0) | (vv >= a.shape[0]))
    if len(outside):
        i = outside[0]
        raise ValueError(f"pixel (u, v) = ({uu[i]}, {vv[i]}) is outside the "
                         f"{a.shape[1]}x{a.shape[0]} (width x height) image")
    if out is None:
        out = np.empty((len(uu), DESCRIPTOR_SIZE))
    rows = np.arange(len(uu)) if rows is None else np.asarray(rows, np.int64)
    band = vv // _BAND_ROWS
    order = np.argsort(band, kind="stable")
    bands, starts = np.unique(band[order], return_index=True)
    for b, lo, hi in zip(bands.tolist(), starts, [*starts[1:], len(order)]):
        r0 = b * _BAND_ROWS
        boxes = _band_boxes(a, r0, min(r0 + _BAND_ROWS, a.shape[0]))
        _, bh, bw = boxes.shape
        # flat index in boxes of raw bin (cy*NCELLS+cx)*NBINS+o at band pixel (0, 0)
        first = (np.arange(NBINS) * bh + _CELL_OFFS[:, None, None]) * bw + _CELL_OFFS[:, None]
        for c0 in range(lo, hi, _CHUNK_PX):      # bounds each gathered chunk
            at = order[c0:min(c0 + _CHUNK_PX, hi)]
            d = np.take(boxes, first.reshape(-1, 1) + ((vv[at] - r0) * bw + uu[at]))
            d *= np.repeat(_CELL_WEIGHT, NBINS)[:, None]
            out[rows[at]] = (d / _clamp(d)).T
        del boxes               # freed before the next band's boxes are built
    return out


@dataclass
class TrainingSet:
    """Training examples as the rows of one matrix: the positives, then the
    negatives.  build_training_set stores them as _DTYPE; train takes any
    floating dtype."""
    X: np.ndarray                         # (P + N, 128)
    n_pos: int                            # P

    @property
    def positives(self) -> np.ndarray:
        return self.X[:self.n_pos]

    @property
    def negatives(self) -> np.ndarray:
        return self.X[self.n_pos:]


def sample_pixels(mask: gridio.LabelMask, negatives_per_positive: int, seed: int,
                  valid: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The pixels one scene gives a training or held-out set: (uu, vv, P).

    Of the pixels where `valid` is true, every wrinkle pixel (P of them),
    then min(negatives_per_positive * P, C) of the C other pixels, drawn
    uniformly without replacement by a Philox generator keyed by `seed`;
    each group in raster order.
    """
    wrinkle = np.asarray(mask.data) == gridio.LABEL_WRINKLE
    pv, pu = np.nonzero(wrinkle & valid)
    cv, cu = np.nonzero(~wrinkle & valid)
    rng = np.random.Generator(np.random.Philox(key=seed))
    pick = rng.choice(len(cu), size=min(negatives_per_positive * len(pu), len(cu)),
                      replace=False)
    pick.sort()
    return np.concatenate([pu, cu[pick]]), np.concatenate([pv, cv[pick]]), len(pu)


def build_training_set(scenes: list[tuple], negatives_per_positive: int,
                       map_fn=map) -> TrainingSet:
    """The training set of a corpus of (img, mask, seed, valid) scenes: each
    scene's image, its labels, the seed of its draw and where its pixels may
    be drawn (sample_pixels).

    Every scene's pixels are drawn first, so that the matrix is allocated
    once at its final size and a scene without wrinkle pixels fails before
    any descriptor is built.  Then each scene is one task, run by map_fn
    (the builtin map or an executor's map), which writes its descriptors
    straight into its rows of the matrix, each rounded once from
    descriptors_at's float64 c/|c| to _DTYPE.  The rows are the positives
    of all scenes in scene order, then their negatives, in whatever order
    and on whatever threads the tasks run.  When tasks fail, the error of
    the first failing scene in scene order is raised, as map and
    Executor.map both do.
    """
    picks = [sample_pixels(mask, negatives_per_positive, seed, valid)
             for _, mask, seed, valid in scenes]
    if any(n_pos == 0 for _, _, n_pos in picks):
        raise ValueError("mask contains no wrinkle pixels")
    n_pos = sum(k for _, _, k in picks)
    X = np.empty((sum(len(uu) for uu, _, _ in picks), DESCRIPTOR_SIZE), _DTYPE)
    tasks, pos, neg = [], 0, n_pos
    for (img, *_), (uu, vv, k) in zip(scenes, picks):
        n_neg = len(uu) - k
        tasks.append((img, uu, vv, X, np.r_[pos:pos + k, neg:neg + n_neg]))
        pos, neg = pos + k, neg + n_neg
    list(map_fn(lambda task: descriptors_at(*task), tasks))
    return TrainingSet(X, n_pos)


@dataclass
class TrainHyper:
    reg_lambda: float = field(default=1e-4, metadata={"key": "svm_lambda"})

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

    X is used in its own dtype (float32 or float64) and never copied whole.
    The gradient c X and the outputs X d are einsums that sum in float64,
    as do the loss, the line search and the system; the Gram chunks
    Xc^T Xc (BLAS syrk) and their column sums stay in X's dtype and are
    added into the float64 system.  They only set the step direction: the
    minimizer is where the float64 gradient vanishes.

    The model does not depend on the BLAS thread count: the einsums make no
    BLAS call, and the Gram chunks come out bit-identical on any number of
    threads (tests check both dtypes), while X @ d and LAPACK's solvers do
    not, so the system is solved by _cholesky_solve.
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
            g = np.append(lam * w + np.einsum("i,ij->j", c, X, dtype=np.float64) / n,
                          c.sum() / n)
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
            dout = np.einsum("ij,j->i", X, dw, dtype=np.float64) + db
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


def train(ts: TrainingSet, hyper: TrainHyper) -> SvmModel:
    """The SVM of a training set, trained on its matrix without a copy."""
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
    """Scores of rows r0..r1-1 of image a into out[r0:r1]: the band's boxes
    (_band_boxes), then the cell weights, clamp, SVM dot product and sigmoid
    tile by tile.  A tile's raw bins are one multiply of a strided view of
    the boxes, laid out bins first (order="C", so the reshape is free); the
    dot product sums each float32 tile in float64 and divides by |c|."""
    boxes = _band_boxes(a, r0, r1)
    s0, s1, s2 = boxes.strides
    w = out.shape[1]
    # cells[cy, cx, o, v, u]: cell (cy, cx) of bin o of the patch at band pixel (v, u)
    cells = np.lib.stride_tricks.as_strided(boxes, (NCELLS, NCELLS, NBINS, r1 - r0, w), (
        CELL_W * s1, CELL_W * s2, s0, s1, s2), writeable=False)
    # the last column tile takes a lone last column: a 1x1 tile would send
    # the dot product to a kernel that rounds differently from the others
    col_edges = list(range(0, max(w - 1, 1), _TILE_COLS)) + [w]
    for t0 in range(0, r1 - r0, _TILE_ROWS):
        t1 = min(t0 + _TILE_ROWS, r1 - r0)
        for c0, c1 in zip(col_edges, col_edges[1:]):
            d = np.multiply(cells[..., t0:t1, c0:c1], _CELL_WEIGHT[:, :, None, None, None],
                            order="C").reshape(DESCRIPTOR_SIZE, t1 - t0, c1 - c0)
            norm = _clamp(d)
            out[r0 + t0:r0 + t1, c0:c1] = _sigmoid(
                np.einsum("k,kij->ij", model.weights, d, dtype=np.float64) / norm + model.bias)


def dense_scores(img, model: SvmModel, map_fn=map) -> np.ndarray:
    """Classifier score S of every pixel of img, shape (h, w).

    Each band of _BAND_ROWS rows is one task, run by map_fn (the builtin
    map or an executor's map), and writes its own rows of the result.  The
    band and tile grid does not depend on where or in what order the tasks
    run, so neither does any score.
    """
    a = np.asarray(img, np.float64)
    h = a.shape[0]
    out = np.empty(a.shape)
    bands = [(r0, min(r0 + _BAND_ROWS, h)) for r0 in range(0, h, _BAND_ROWS)]
    list(map_fn(lambda band: _score_band(a, model, out, *band), bands))
    return out


# --- model file: an "SVMW <n> <lambda>" header line, read as FGRID's, then
# (n + 1) little-endian float64: weights, bias.  gridio frames it. ---

def save_model(model: SvmModel, path) -> None:
    header = f"SVMW {len(model.weights)} {model.hyper.reg_lambda!r}\n"
    gridio.write_atomic(path, header.encode("ascii")
                        + np.append(model.weights, model.bias).astype("<f8").tobytes())


def load_model(path) -> SvmModel:
    with open(path, "rb") as f:
        n, hyper = gridio.read_header(f, path, "SVMW", gridio.header_count,
                                     lambda s: TrainHyper(gridio.header_float(s)))
        if n != DESCRIPTOR_SIZE:
            raise gridio.GridFormatError(f"{path}: {n} weights, expected {DESCRIPTOR_SIZE}")
        vals = gridio.read_payload(f, path, "<f8", (n + 1,))
    return SvmModel(vals[:n].copy(), float(vals[n]), hyper)
