"""Seeded scene recipes for the benchmark, rendered to the files the CLI reads.

Every scene is a pure function of the run's seed and the scene's index.  The
layouts are fixed (LAYOUT_SEED for the scan scenes, criterion 5's scene seeds
for the corpus); the run's seed shifts the scan layouts and draws the sensor
noise, which `ironpath.synth` keys on the spec's own seed.  The recipes live
here, not in the test suite, so that editing a test never changes the
benchmark's inputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from ironpath import gridio, synth

# --- cluttered scan scenes: the depth-stream resolution of the reference scene
SCAN_W, SCAN_H, SCAN_CELL = 640, 480, 0.0016
# (sigma_major, peak height) in meters; every bump has sigma_minor = sigma_major / 2
BUMP_SIZES = ((0.035, 0.016), (0.042, 0.019), (0.050, 0.022))
# clear ridges: one static press (< 0.7 x 0.20 m iron), one slide, and one
# long enough (> 2 x 0.20 m) that the planner splits it
CLEAR_LENGTHS_M = (0.10, 0.22, 0.45)
RIDGE_HALF_WIDTH_M = 0.003
RIDGE_HEIGHT_M = 0.0025
BORDER_M = 0.03
LAYOUT_SEED = 0
JITTER_M = 0.01
NOISE = synth.NoiseSpec(0.0002, 0.005)    # the training corpus's noise level

# --- training corpus: criterion 5's recipe (stratified ridge directions)
CORPUS_W, CORPUS_H, CORPUS_CELL = 240, 180, 0.002
CORPUS_TRAIN, CORPUS_EVAL = 10, 5


def _segment_points(a, b, n=64):
    t = np.linspace(0.0, 1.0, n)[:, None]
    return np.asarray(a)[None, :] * (1.0 - t) + np.asarray(b)[None, :] * t


def _clear_of_bumps(pts, bumps) -> bool:
    """Every point at least 3 sigma_major from every bump center (criterion 7)."""
    return all(np.hypot(*(pts - b.center).T).min() >= 3.0 * b.sigma_major for b in bumps)


def scan_scene(seed: int, index: int, noisy: bool) -> synth.SceneSpec:
    """A 640x480 scene with three bumps, a ridge across each bump along its
    major axis (as in criterion 7) and three ridges clear of every bump.

    A ridge is clear when every point of it lies at least 3 sigma_major from
    every bump center.  The layout of scene `index` is drawn once from
    LAYOUT_SEED; the run's seed shifts the whole layout by up to JITTER_M in
    x and y (which also moves it against the pixel grid) and seeds the sensor
    noise.  With layouts drawn afresh per seed, whether a clear ridge is found
    hangs on where the other lines happen to cross it, and three scenes per
    run gave ridge_recall an interquartile spread of 25 % of its median.
    """
    bumps, ridges = _place_scan_objects(np.random.default_rng((LAYOUT_SEED, index)))
    shift = np.random.default_rng((seed, index)).uniform(-JITTER_M, JITTER_M, 2)
    bumps = [dataclasses.replace(b, center=tuple(np.asarray(b.center) + shift)) for b in bumps]
    wrinkles = [synth.WrinkleSpec([tuple(np.asarray(p) + shift) for p in ends],
                                  RIDGE_HALF_WIDTH_M, RIDGE_HEIGHT_M)
                for ends in ridges]
    return synth.SceneSpec(
        SCAN_W, SCAN_H, SCAN_CELL, bumps=bumps, wrinkles=wrinkles,
        noise=NOISE if noisy else synth.NoiseSpec(0.0, 0.0),
        seed=seed * 1000 + index)


def _place_scan_objects(r):
    """Rejection-sample bump centers, then clear ridge placements."""
    ext = (SCAN_W * SCAN_CELL, SCAN_H * SCAN_CELL)
    turn = r.uniform(0.0, math.pi)
    bumps = []
    for k, (smaj, peak) in enumerate(BUMP_SIZES):
        while True:
            c = np.array([r.uniform(0.12, ext[0] - 0.12), r.uniform(0.12, ext[1] - 0.12)])
            if all(np.hypot(*(c - b.center)) >= 0.24 for b in bumps):
                break
        bumps.append(synth.BumpSpec(tuple(c), smaj, smaj / 2.0,
                                    (turn + k * math.pi / 3) % math.pi, peak))
    ridges = []
    for b in bumps:
        axis = np.array([math.cos(b.orientation), math.sin(b.orientation)])
        c = np.asarray(b.center)
        ridges.append((tuple(c - axis * b.sigma_major), tuple(c + axis * b.sigma_major)))
    n_on_bump = len(ridges)
    turn = r.uniform(0.0, math.pi)
    for k, length in enumerate(CLEAR_LENGTHS_M):
        theta = turn + k * math.pi / 3
        half = np.array([math.cos(theta), math.sin(theta)]) * length / 2.0
        lo = np.abs(half) + BORDER_M + JITTER_M
        while True:
            c = np.array([r.uniform(lo[0], ext[0] - lo[0]), r.uniform(lo[1], ext[1] - lo[1])])
            pts = _segment_points(c - half, c + half)
            apart = all(_min_distance(pts, _segment_points(*ends)) >= 0.05
                        for ends in ridges[n_on_bump:])
            if apart and _clear_of_bumps(pts, bumps):
                break
        ridges.append((tuple(c - half), tuple(c + half)))
    return bumps, ridges


def _min_distance(p, q):
    return float(np.hypot(p[:, None, 0] - q[None, :, 0], p[:, None, 1] - q[None, :, 1]).min())


def corpus_scene(scene_seed: int, noise_seed: int, strat_idx: int | None = None,
                 strat_total: int = CORPUS_TRAIN) -> synth.SceneSpec:
    """Criterion 5's training/evaluation scene: 1-2 bumps, 3 ridges, mild noise.

    `scene_seed` draws the layout and `noise_seed` the sensor noise.  With
    strat_idx, ridge directions are stratified across the corpus and two of
    every five scenes are noise-free and carry three bumps, so flat background
    and clean bump shading appear among the negatives.
    """
    r = np.random.default_rng(scene_seed)
    quiet = strat_idx is not None and strat_idx % 5 >= 3
    noise = synth.NoiseSpec(0.0, 0.0) if quiet else NOISE
    ext = (CORPUS_W * CORPUS_CELL, CORPUS_H * CORPUS_CELL)
    bumps = []
    smaj_hi = 0.060 if quiet else 0.050
    for _ in range(3 if quiet else int(r.integers(1, 3))):
        smaj = r.uniform(0.030, smaj_hi)
        bumps.append(synth.BumpSpec(
            center=(r.uniform(0.12, ext[0] - 0.12), r.uniform(0.10, ext[1] - 0.10)),
            sigma_major=smaj, sigma_minor=smaj / r.uniform(1.7, 2.5),
            orientation=r.uniform(0, np.pi), peak_height=r.uniform(0.012, 0.022)))
    wrinkles = []
    max_len = min(0.28, min(ext) - 2 * BORDER_M - 0.02)
    for j in range(3):
        length = r.uniform(0.08, max_len)
        if strat_idx is None:
            theta = r.uniform(0, np.pi)
        else:
            theta = (strat_idx * 3 + j) / (strat_total * 3) * np.pi + r.uniform(-0.05, 0.05)
        dx, dy = np.cos(theta) * length / 2, np.sin(theta) * length / 2
        cx = r.uniform(BORDER_M + abs(dx), ext[0] - BORDER_M - abs(dx))
        cy = r.uniform(BORDER_M + abs(dy), ext[1] - BORDER_M - abs(dy))
        wrinkles.append(synth.WrinkleSpec(
            polyline=[(cx - dx, cy - dy), (cx + dx, cy + dy)],
            ridge_half_width=0.003, ridge_height=r.uniform(0.0018, 0.0030)))
    return synth.SceneSpec(CORPUS_W, CORPUS_H, CORPUS_CELL, bumps=bumps,
                           wrinkles=wrinkles, noise=noise, seed=noise_seed)


def corpus_specs(seed: int):
    """Criterion 5's training corpus and held-out scenes, with the seed's noise.

    The layouts are criterion 5's (scene seeds 1000-1009 and 2000-2004); the
    run's seed draws the sensor noise.  With a corpus drawn afresh per seed,
    each seed trained a different model, and the first scan scene's detect
    took between 3.6 s and 6.7 s depending on it.
    """
    train = [corpus_scene(1000 + i, 100 * seed + i, strat_idx=i) for i in range(CORPUS_TRAIN)]
    held = [corpus_scene(2000 + i, 100 * seed + 50 + i) for i in range(CORPUS_EVAL)]
    return train, held


def ridge_truth(spec: synth.SceneSpec) -> dict:
    """Planted ridges of a straight-ridge spec, each flagged clear or not."""
    return {"ridges": [
        {"endpoints_m": [list(wk.polyline[0]), list(wk.polyline[-1])],
         "clear": _clear_of_bumps(_segment_points(wk.polyline[0], wk.polyline[-1]),
                                  spec.bumps)}
        for wk in spec.wrinkles]}


def write_scene(spec: synth.SceneSpec, outdir: str) -> str:
    """Render a spec to the six files `ironpath detect`/`train` read, plus
    `truth.json` with the planted ridges for the oracle."""
    os.makedirs(outdir, exist_ok=True)
    height = synth.generate_height(spec)
    gridio.write_grid(height, os.path.join(outdir, "height.fgrid"))
    for k in (1, 2):
        gridio.write_gray(synth.render_illumination(height, spec, k),
                          os.path.join(outdir, f"light{k}.pgm"))
        gridio.write_gray(synth.render_reference(spec, k), os.path.join(outdir, f"ref{k}.pgm"))
    gridio.write_labels(synth.ground_truth(spec), os.path.join(outdir, "labels.pgm"))
    with open(os.path.join(outdir, "truth.json"), "w", encoding="utf-8") as f:
        json.dump(ridge_truth(spec), f, sort_keys=True)
    return outdir
