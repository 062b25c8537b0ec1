import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CELL, single_bump_scene
from ironpath import curvature, synth
from ironpath.curvature import (BumpParams, detect_bumps, hessian, shape_index,
                                smooth)
from ironpath.gridio import FloatGrid


def quadratic_grid(a, b, c, n=41, cell=1.0):
    """z = 0.5*(a x^2 + b y^2) + c x y sampled with x, y in world units."""
    x = (np.arange(n) - n // 2) * cell
    X, Y = np.meshgrid(x, x)
    return FloatGrid(0.5 * (a * X**2 + b * Y**2) + c * X * Y, cell)


def hessian_of(grid):
    return hessian(grid.data, grid.cell_size)


class TestSmooth:
    def test_sigma_zero_is_identity(self):
        z = np.arange(48, dtype=float).reshape(6, 8)
        assert smooth(z, 0.0) is z

    def test_constant_unchanged(self):
        assert np.allclose(smooth(np.full((12, 16), 3.5), 2.5), 3.5, atol=1e-12)

    def test_impulse_center_matches_kernel_oracle(self):
        n = 33
        data = np.zeros((n, n))
        data[n // 2, n // 2] = 1.0
        out = smooth(data, 2.0)
        # discrete truncated kernel: radius int(3*2 + 0.5), normalized to sum 1
        r = int(3.0 * 2.0 + 0.5)
        k = np.exp(-np.arange(-r, r + 1) ** 2 / 8.0)
        k /= k.sum()
        assert out[n // 2, n // 2] == pytest.approx(k[r] ** 2, abs=1e-7)
        assert abs(out[n // 2, n // 2] - 1.0 / (2 * math.pi * 4.0)) < 1e-3

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            smooth(np.zeros((6, 8)), -1.0)


class TestHessian:
    def test_isotropic_paraboloid(self):
        f = hessian_of(quadratic_grid(1.0, 1.0, 0.0))
        interior = (slice(2, -2), slice(2, -2))
        assert np.allclose(f.lambda1[interior], 1.0, atol=1e-6)
        assert np.allclose(f.lambda2[interior], 1.0, atol=1e-6)

    def test_anisotropic_paraboloid(self):
        f = hessian_of(quadratic_grid(2.0, 1.0, 0.0))
        interior = (slice(2, -2), slice(2, -2))
        assert np.allclose(f.lambda1[interior], 2.0, atol=1e-6)
        assert np.allclose(f.lambda2[interior], 1.0, atol=1e-6)

    def test_saddle_xy(self):
        # z = x y has Hessian [[0, 1], [1, 0]] with eigenvalues +-1
        f = hessian_of(quadratic_grid(0.0, 0.0, 1.0))
        interior = (slice(2, -2), slice(2, -2))
        assert np.allclose(f.lambda1[interior], 1.0, atol=1e-6)
        assert np.allclose(f.lambda2[interior], -1.0, atol=1e-6)

    def test_world_unit_scaling(self):
        # same surface sampled at another cell size gives the same eigenvalues
        f = hessian_of(quadratic_grid(1.5, 0.5, 0.2, cell=0.002))
        interior = (slice(2, -2), slice(2, -2))
        lam = 1.0 + math.sqrt(0.25 + 0.04)
        assert np.allclose(f.lambda1[interior], lam, atol=1e-6)

    def test_sorted_eigenvalues(self):
        rng = np.random.default_rng(2)
        g = FloatGrid(rng.normal(size=(16, 16)), CELL)
        f = hessian_of(g)
        assert np.all(f.lambda1 >= f.lambda2)

    @pytest.mark.parametrize("a, b, expected, in_bump_range", [
        (1.0, -1.0, 0.0, True), (1.0, 0.0, 0.5, True), (2.0, 1.0, 0.79517, False),
        (1.0, 1.0, 1.0, False), (-1.0, -1.0, -1.0, False), (0.0, 0.0, math.nan, False)])
    def test_shape_index_of_quadratic_surfaces(self, a, b, expected, in_bump_range):
        # the grid rule detect_bumps thresholds, not the scalar shape_index
        s = hessian_of(quadratic_grid(a, b, 0.0)).shape_index[2:-2, 2:-2]
        if math.isnan(expected):
            assert np.isnan(s).all()
        else:
            assert np.allclose(s, expected, rtol=0.0, atol=5e-6)
        inside = (curvature.BUMP_INDEX_LO <= s) & (s < curvature.BUMP_INDEX_HI)
        assert inside.all() == inside.any() == in_bump_range


def hessian_reference(grid, eps_umbilic_rel):
    """hessian's arithmetic as plain expressions, each step a new array."""
    z = np.asarray(grid.data, np.float64)
    cell = grid.cell_size
    zp = np.pad(z, 1, mode="symmetric")
    fxx = (zp[1:-1, 2:] - 2.0 * z + zp[1:-1, :-2]) / cell**2
    fyy = (zp[2:, 1:-1] - 2.0 * z + zp[:-2, 1:-1]) / cell**2
    fxy = (zp[2:, 2:] - zp[2:, :-2] - zp[:-2, 2:] + zp[:-2, :-2]) / (4.0 * cell**2)
    tr = fxx + fyy
    disc = np.sqrt((fxx - fyy) ** 2 + 4.0 * fxy**2)
    l1 = 0.5 * (tr + disc)
    l2 = 0.5 * (tr - disc)
    eps = eps_umbilic_rel * max(np.abs(l1).max(), np.abs(l2).max())
    den = l1 - l2
    s = np.full(l1.shape, np.nan)
    defined = den >= eps if eps > 0 else den > 0
    s[defined] = (2.0 / np.pi) * np.arctan(tr[defined] / den[defined])
    umbilic = ~defined & (np.abs(tr) > 0)
    s[umbilic] = np.sign(tr[umbilic])
    return l1, l2, s


def random_grid(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(3, 90, size=2)
    scale = 10.0 ** rng.uniform(-6, 1)
    return FloatGrid(scale * rng.normal(size=(h, w)), CELL)


class TestHessianBits:
    """hessian works in buffers it owns; every value keeps the bits of the
    plain expressions."""

    @pytest.mark.parametrize("eps_umbilic_rel", [1e-9, 0.0, 1e-3])
    @pytest.mark.parametrize("grid", [
        *(random_grid(seed) for seed in range(5)),
        FloatGrid(np.full((30, 40), 0.25), CELL),
        quadratic_grid(1.0, 1.0, 0.0, cell=CELL),
        quadratic_grid(-2.5, -2.5, 0.0, n=17, cell=0.5),
        quadratic_grid(1e-7, 1e-7, 0.0, n=9)],
        ids=[*(f"random{seed}" for seed in range(5)), "flat", "umbilic-positive",
             "umbilic-negative", "umbilic-faint"])
    def test_equal_to_plain_expressions(self, monkeypatch, grid, eps_umbilic_rel):
        # the module constant is the tolerance; the other values take every
        # grid through the eps == 0 branch and a wide umbilic band
        monkeypatch.setattr(curvature, "EPS_UMBILIC_REL", eps_umbilic_rel)
        f = hessian(grid.data, grid.cell_size)
        for got, want in zip((f.lambda1, f.lambda2, f.shape_index),
                             hessian_reference(grid, eps_umbilic_rel)):
            assert np.array_equal(got, want, equal_nan=True)


class TestShapeIndex:
    def test_symmetric_saddle_is_zero(self):
        assert shape_index(1.0, -1.0) == 0.0

    def test_ridge_is_half(self):
        assert shape_index(1.0, 0.0) == 0.5

    def test_dome_like_pair_is_outside_bump_range(self):
        s = shape_index(2.0, 1.0)
        assert s == pytest.approx(2.0 / math.pi * math.atan(3.0))
        assert s == pytest.approx(0.7952, abs=5e-4)
        assert not (curvature.BUMP_INDEX_LO <= s < curvature.BUMP_INDEX_HI)

    def test_scale_invariance_exact(self):
        for l1, l2 in [(1.0, -1.0), (1.0, 0.0), (2.0, 1.0)]:
            s = shape_index(l1, l2)
            for c in (0.1, 10.0):
                assert shape_index(c * l1, c * l2) == s

    def test_scale_invariance_generic(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            l2, l1 = np.sort(rng.uniform(-3, 3, 2))
            s = shape_index(l1, l2)
            for c in (0.1, 10.0, 1e6):
                assert shape_index(c * l1, c * l2) == pytest.approx(s, abs=1e-12)

    def test_umbilic_limit(self):
        assert shape_index(1.0, 1.0) == 1.0
        assert shape_index(-1.0, -1.0) == -1.0
        assert math.isnan(shape_index(0.0, 0.0))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            shape_index(0.0, 1.0)


class TestDetectBumps:
    def test_flat_grid_empty(self):
        g = FloatGrid(np.zeros((48, 64)), CELL)
        assert detect_bumps(g, BumpParams()) == []

    def test_single_bump_recovery(self):
        spec = synth.SceneSpec(320, 240, CELL, bumps=[
            synth.BumpSpec((0.32, 0.24), 0.040, 0.020, 0.5, 0.020)])
        bumps = detect_bumps(synth.generate_height(spec), BumpParams())
        assert len(bumps) == 1
        b = bumps[0]
        assert math.hypot(b.center[0] - 0.32, b.center[1] - 0.24) <= CELL
        assert abs(b.d1 / 0.040 - 1.0) <= 0.15
        assert abs(b.d2 / 0.020 - 1.0) <= 0.15
        ang = abs((b.orientation - 0.5 + math.pi / 2) % math.pi - math.pi / 2)
        assert math.degrees(ang) <= 5.0

    def test_two_bumps_volume_order(self):
        b1 = synth.BumpSpec((0.20, 0.24), 0.040, 0.020, 0.3, 0.020)
        b2 = synth.BumpSpec((0.45, 0.24), 0.030, 0.018, 1.2, 0.015)
        spec = synth.SceneSpec(320, 240, CELL, bumps=[b1, b2])
        bumps = detect_bumps(synth.generate_height(spec), BumpParams())
        assert len(bumps) == 2
        # analytic volumes 2*pi*peak*smaj*smin: b1 > b2
        assert bumps[0].volume > bumps[1].volume
        assert math.hypot(bumps[0].center[0] - 0.20, bumps[0].center[1] - 0.24) <= CELL
        assert math.hypot(bumps[1].center[0] - 0.45, bumps[1].center[1] - 0.24) <= CELL
        assert bumps[0].id == 0 and bumps[1].id == 1

    def test_translation_equivariance(self):
        shift_px = 14
        base = synth.SceneSpec(200, 160, CELL, bumps=[
            synth.BumpSpec((0.16, 0.16), 0.035, 0.018, 0.8, 0.018)])
        moved = synth.SceneSpec(200, 160, CELL, bumps=[
            synth.BumpSpec((0.16 + shift_px * CELL, 0.16), 0.035, 0.018, 0.8, 0.018)])
        c0 = detect_bumps(synth.generate_height(base), BumpParams())[0].center
        c1 = detect_bumps(synth.generate_height(moved), BumpParams())[0].center
        assert c1[0] - c0[0] == pytest.approx(shift_px * CELL, abs=0.25 * CELL)
        assert c1[1] - c0[1] == pytest.approx(0.0, abs=0.25 * CELL)

    def test_min_volume_threshold(self):
        spec = synth.SceneSpec(200, 160, CELL, bumps=[
            synth.BumpSpec((0.2, 0.16), 0.035, 0.018, 0.8, 0.018)])
        g = synth.generate_height(spec)
        assert detect_bumps(g, BumpParams(min_volume_m3=1.0)) == []

    @pytest.mark.parametrize("spec, params, counts", [
        # the smaller bump's volume (3.0e-5 m^3) is under the bound, the larger's
        # (6.7e-5 m^3) is not
        (synth.SceneSpec(320, 240, CELL, bumps=[
            synth.BumpSpec((0.20, 0.24), 0.040, 0.020, 0.3, 0.020),
            synth.BumpSpec((0.45, 0.24), 0.030, 0.018, 1.2, 0.015)]),
         BumpParams(min_volume_m3=5e-5), "2 bump components, 1 kept; dropped 0 min_pixels, "
                                         "1 volume, 0 flat, 0 fit, 0 thin"),
        (synth.SceneSpec(320, 240, CELL, wrinkles=[
            synth.WrinkleSpec([(0.14, 0.08), (0.40, 0.14)], 0.003, 0.0025)]),
         BumpParams(), "65 bump components, 0 kept; dropped 64 min_pixels, 0 volume, "
                       "0 flat, 0 fit, 1 thin")], ids=["low-volume", "ridge"])
    def test_drops_counted_by_reason(self, caplog, spec, params, counts):
        with caplog.at_level(logging.DEBUG, logger="ironpath.curvature"):
            detect_bumps(synth.generate_height(spec), params)
        assert [r.getMessage() for r in caplog.records] == [counts]

    def test_polarity_flag(self):
        spec = synth.SceneSpec(200, 160, CELL, bumps=[
            synth.BumpSpec((0.2, 0.16), 0.035, 0.018, 0.8, 0.018)])
        g = synth.generate_height(spec)
        dent = FloatGrid(-g.data, CELL)
        found = detect_bumps(dent, BumpParams(polarity="down"))
        assert len(found) == 1
        assert math.hypot(found[0].center[0] - 0.2, found[0].center[1] - 0.16) <= CELL
        with pytest.raises(ValueError):
            detect_bumps(g, BumpParams(polarity="sideways"))

    def test_sharp_ridge_is_not_a_bump(self):
        # long enough that the in-range sliver along the ridge would pass the
        # volume threshold; the minor-axis floor must reject it
        spec = synth.SceneSpec(320, 240, CELL, wrinkles=[
            synth.WrinkleSpec([(0.14, 0.08), (0.40, 0.14)], 0.003, 0.0025)])
        assert detect_bumps(synth.generate_height(spec), BumpParams()) == []

    def test_noisy_seeded_scenes(self):
        hits = 0
        for seed in range(40, 46):
            spec, b = single_bump_scene(seed)
            bumps = detect_bumps(synth.generate_height(spec), BumpParams())
            if len(bumps) != 1:
                continue
            d = bumps[0]
            ok = (math.hypot(d.center[0] - b.center[0], d.center[1] - b.center[1]) <= CELL
                  and abs(d.d1 / b.sigma_major - 1) <= 0.15
                  and abs(d.d2 / b.sigma_minor - 1) <= 0.15)
            hits += ok
        assert hits >= 5


# --- equivalence with scipy.ndimage, the reference these operations follow ---

S8 = np.ones((3, 3), bool)


@pytest.fixture(scope="module")
def ndimage():
    return pytest.importorskip("scipy.ndimage")


@st.composite
def masks(draw):
    """Random masks from 1x1 to 60x60 at any fill density."""
    h = draw(st.integers(1, 60))
    w = draw(st.integers(1, 60))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((h, w)) < density


def scipy_reference_bumps(ndimage, grid, p):
    """detect_bumps built on scipy.ndimage, each component over the whole image."""
    cell = grid.cell_size
    hs = ndimage.gaussian_filter(np.asarray(grid.data, np.float64), p.smooth_sigma_px,
                                 mode="reflect", truncate=3.0)
    if p.polarity == "down":
        hs = -hs
    s = hessian(-hs, cell).shape_index
    mask = (s >= curvature.BUMP_INDEX_LO) & (s < curvature.BUMP_INDEX_HI)
    if p.close_iterations > 0:
        mask = ndimage.binary_closing(mask, structure=S8, iterations=p.close_iterations,
                                      border_value=0)
    labels, ncomp = ndimage.label(ndimage.binary_fill_holes(mask), structure=S8)
    out = []
    for k in range(1, ncomp + 1):
        comp = labels == k
        if comp.sum() < p.min_pixels:
            continue
        boundary = comp & ~ndimage.binary_erosion(comp, structure=S8, border_value=0)
        rel = hs - hs[boundary].min()
        volume = float(rel[comp].sum() * cell * cell)
        if volume < p.min_volume_m3:
            continue
        vv, uu = np.nonzero(comp)
        w = np.maximum(rel[vv, uu], 0.0)
        if w.max() <= 0:
            continue
        sel = w >= curvature.FIT_FLOOR * w.max()
        x = grid.origin[0] + uu[sel] * cell
        y = grid.origin[1] + vv[sel] * cell
        fit = curvature._fit_gaussian(x, y, w[sel]) or curvature._pca_moments(x, y, w[sel])
        if fit is None or fit[2] < p.min_minor_axis_m:
            continue
        out.append((np.column_stack([uu, vv]), volume, fit))
    out.sort(key=lambda b: -b[1])
    return out


def many_bump_grid(seed=0, n=150, width=240, height=180):
    """Random anisotropic Gaussian bumps, some centred just outside the grid."""
    r = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width] * CELL
    z = np.zeros((height, width))
    for _ in range(n):
        cx = r.uniform(-0.01, width * CELL + 0.01)
        cy = r.uniform(-0.01, height * CELL + 0.01)
        s1 = r.uniform(0.004, 0.02)
        s2 = s1 / r.uniform(1.0, 3.0)
        th = r.uniform(0, np.pi)
        u = (x - cx) * np.cos(th) + (y - cy) * np.sin(th)
        v = -(x - cx) * np.sin(th) + (y - cy) * np.cos(th)
        z += r.uniform(0.002, 0.01) * np.exp(-0.5 * (u * u / s1**2 + v * v / s2**2))
    return FloatGrid(z, CELL)


class TestScipyEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(masks())
    def test_label(self, ndimage, m):
        ref, n_ref = ndimage.label(m, structure=S8)
        labels, n, boxes = curvature._label(m)
        assert n == n_ref
        assert np.array_equal(labels, ref)
        objects = ndimage.find_objects(ref)
        assert [tuple(b) for b in boxes] == [
            (r.start, r.stop, c.start, c.stop) for r, c in objects]

    @settings(max_examples=150, deadline=None)
    @given(masks())
    def test_fill_holes(self, ndimage, m):
        assert np.array_equal(curvature._fill_holes(m), ndimage.binary_fill_holes(m))
        assert (curvature._label(~m, diagonal=False)[1]
                == ndimage.label(~m)[1])

    @settings(max_examples=150, deadline=None)
    @given(masks(), st.integers(1, 3))
    def test_closing(self, ndimage, m, iterations):
        ours = curvature._morph(curvature._morph(m, np.logical_or, iterations),
                                np.logical_and, iterations)
        ref = ndimage.binary_closing(m, structure=S8, iterations=iterations, border_value=0)
        assert np.array_equal(ours, ref)
        assert ndimage.label(ours, structure=S8)[1] == ndimage.label(ref, structure=S8)[1]

    @settings(max_examples=150, deadline=None)
    @given(masks())
    def test_erosion(self, ndimage, m):
        ours = curvature._morph(m, np.logical_and)
        ref = ndimage.binary_erosion(m, structure=S8, border_value=0)
        assert np.array_equal(ours, ref)
        assert ndimage.label(ours, structure=S8)[1] == ndimage.label(ref, structure=S8)[1]

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (37, 11), (480, 640)])
    @pytest.mark.parametrize("sigma", [1.3, 2.0, 10.0])
    def test_gaussian(self, ndimage, shape, sigma):
        z = np.random.default_rng(sum(shape)).normal(0.0, 0.01, shape)
        ref = ndimage.gaussian_filter(z, sigma, mode="reflect", truncate=3.0)
        assert np.array_equal(smooth(z, sigma), ref)

    @pytest.mark.parametrize("close_iterations, polarity", [
        pytest.param(n, polarity, id=f"{n}" if polarity == "up" else f"{n}-{polarity}")
        for polarity in ("up", "down") for n in (0, 2)])
    def test_detect_bumps_many_components(self, ndimage, close_iterations, polarity):
        up = many_bump_grid()
        # a "down" scan of the negated heights finds the bumps an "up" one does
        g = up if polarity == "up" else FloatGrid(-up.data, CELL)
        p = BumpParams(min_pixels=1, min_volume_m3=0.0, close_iterations=close_iterations,
                       polarity=polarity)
        if close_iterations == 0:
            # the scene exercises what the bounding-box loop must get right
            s = hessian(-smooth(up.data, p.smooth_sigma_px), CELL).shape_index
            labels, n, boxes = curvature._label(curvature._fill_holes(
                (s >= curvature.BUMP_INDEX_LO) & (s < curvature.BUMP_INDEX_HI)))
            assert n >= 50
            for edge in (labels[0], labels[-1], labels[:, 0], labels[:, -1]):
                assert edge.any()
            r0, r1, c0, c1 = boxes.T
            overlap = ((r0[:, None] < r1[None]) & (r0[None] < r1[:, None])
                       & (c0[:, None] < c1[None]) & (c0[None] < c1[:, None]))
            assert np.triu(overlap, 1).any()
        ref = scipy_reference_bumps(ndimage, g, p)
        found = detect_bumps(g, p)
        assert len(found) == len(ref) >= 10
        for b, (pixels, volume, (center, d1, d2, orientation)) in zip(found, ref):
            assert np.array_equal(b.pixels, pixels)
            assert b.volume == volume
            assert b.center == (center[0], center[1])
            assert (b.d1, b.d2, b.orientation) == (d1, d2, orientation)

