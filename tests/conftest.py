"""Shared scene builders and the session-scoped trained classifier."""

import math

import numpy as np
import pytest

from ironpath import classify, discont, synth
from ironpath.cli import PipelineConfig

CELL = 0.002
TRAIN_SEEDS = tuple(range(1000, 1010))
EVAL_SEEDS = tuple(range(2000, 2005))


def corpus_scene(seed, strat_idx=None, strat_total=10, width=240, height=180):
    """Random training/eval scene: 1-2 bumps, 3 ridges, mild noise.

    When strat_idx is given, ridge orientations are stratified across the
    corpus so every direction is represented in training, and two of every
    five scenes are rendered noise-free so that flat background (zero
    descriptors) and clean bump shading appear in the negative sets.
    """
    r = np.random.default_rng(seed)
    quiet = strat_idx is not None and strat_idx % 5 >= 3
    noise = synth.NoiseSpec(0.0, 0.0) if quiet else synth.NoiseSpec(0.0002, 0.005)
    extent = (width * CELL, height * CELL)
    bumps = []
    # quiet scenes are bump-heavy so clean bump shading (the classic false
    # positive for the classifier) is well represented among the negatives
    n_bumps = 3 if quiet else int(r.integers(1, 3))
    smaj_hi = 0.060 if quiet else 0.050
    for _ in range(n_bumps):
        smaj = r.uniform(0.030, smaj_hi)
        bumps.append(synth.BumpSpec(
            center=(r.uniform(0.12, extent[0] - 0.12), r.uniform(0.10, extent[1] - 0.10)),
            sigma_major=smaj, sigma_minor=smaj / r.uniform(1.7, 2.5),
            orientation=r.uniform(0, np.pi), peak_height=r.uniform(0.012, 0.022)))
    wrinkles = []
    margin = 0.03
    max_len = min(0.28, min(extent) - 2 * margin - 0.02)
    for j in range(3):
        length = r.uniform(0.08, max_len)
        if strat_idx is None:
            theta = r.uniform(0, np.pi)
        else:
            theta = (strat_idx * 3 + j) / (strat_total * 3) * np.pi + r.uniform(-0.05, 0.05)
        dx, dy = np.cos(theta) * length / 2, np.sin(theta) * length / 2
        cx = r.uniform(margin + abs(dx), extent[0] - margin - abs(dx))
        cy = r.uniform(margin + abs(dy), extent[1] - margin - abs(dy))
        wrinkles.append(synth.WrinkleSpec(
            polyline=[(cx - dx, cy - dy), (cx + dx, cy + dy)],
            ridge_half_width=0.003, ridge_height=r.uniform(0.0018, 0.0030)))
    return synth.SceneSpec(width, height, CELL, bumps=bumps, wrinkles=wrinkles,
                           noise=noise, seed=seed)


def scene_products(spec):
    """Height grid, normalized image and ground-truth labels for a spec."""
    height = synth.generate_height(spec)
    i1 = synth.render_illumination(height, spec, 1)
    i2 = synth.render_illumination(height, spec, 2)
    r1 = synth.render_reference(spec, 1)
    r2 = synth.render_reference(spec, 2)
    nimg = discont.normalize(i1, i2, r1, r2)
    return height, nimg, synth.ground_truth(spec)


def single_bump_scene(seed, width=320, height=240):
    """One anisotropic bump with known parameters, mild height noise."""
    r = np.random.default_rng(seed)
    extent = (width * CELL, height * CELL)
    smaj = r.uniform(0.032, 0.055)
    bump = synth.BumpSpec(
        center=(extent[0] / 2 + r.uniform(-0.05, 0.05),
                extent[1] / 2 + r.uniform(-0.04, 0.04)),
        sigma_major=smaj, sigma_minor=smaj / r.uniform(1.7, 2.6),
        orientation=r.uniform(0, np.pi), peak_height=r.uniform(0.012, 0.025))
    spec = synth.SceneSpec(width, height, CELL, bumps=[bump],
                           noise=synth.NoiseSpec(0.0002, 0.0), seed=seed)
    return spec, bump


def segment_line(s):
    """(rho, theta) of the line through a segment, from its endpoints and
    direction: theta in [0, pi) is the angle of the line's normal n and rho
    = p . n for a point p on it; pixel units for a unit WorldTransform."""
    theta = (s.direction + math.pi / 2) % math.pi
    return float(np.dot(s.endpoints[0], (math.cos(theta), math.sin(theta)))), theta


def build_training_arrays(specs, cfg=None):
    cfg = cfg or PipelineConfig()
    scenes = []
    for idx, spec in enumerate(specs):
        _, nimg, labels = scene_products(spec)
        scenes.append((nimg.combined, labels, 1000 * idx, nimg.valid))
    return classify.build_training_set(scenes, cfg.negatives_per_positive)


@pytest.fixture(scope="session")
def trained_model():
    specs = [corpus_scene(s, strat_idx=i, strat_total=len(TRAIN_SEEDS))
             for i, s in enumerate(TRAIN_SEEDS)]
    ts = build_training_arrays(specs)
    return classify.train(ts, classify.TrainHyper())
