import math

import numpy as np
import pytest

from ironpath import synth
from ironpath.gridio import LABEL_BACKGROUND, LABEL_BUMP, LABEL_WRINKLE
from ironpath.synth import (BumpSpec, LightSpec, NoiseSpec, SceneSpec,
                            WrinkleSpec, generate_height, ground_truth,
                            load_scene, render_illumination, render_reference)

CELL = 0.002


def vertical_lights():
    return (LightSpec((0.0, 0.0, 1.0)), LightSpec((0.0, 0.0, 1.0)))


class TestGenerateHeight:
    def test_empty_scene_is_zero(self):
        spec = SceneSpec(32, 24, CELL)
        assert not generate_height(spec).data.any()

    def test_bump_peak_at_center(self):
        # center exactly on pixel (20, 15)
        spec = SceneSpec(64, 48, CELL, bumps=[
            BumpSpec((20 * CELL, 15 * CELL), 0.03, 0.015, 0.7, 0.02)])
        h = generate_height(spec).data
        assert abs(h.max() - 0.02) < 1e-6
        assert np.unravel_index(h.argmax(), h.shape) == (15, 20)

    def test_ridge_profile_vanishes_at_half_width(self):
        hw = 2 * CELL   # band edge lands exactly on a pixel row
        spec = SceneSpec(64, 48, CELL, wrinkles=[
            WrinkleSpec([(0.01, 20 * CELL), (0.11, 20 * CELL)], hw, 0.002)])
        h = generate_height(spec).data
        assert abs(h[22, 30]) <= 1e-12          # distance exactly hw
        assert h[21, 30] > 0                    # inside the band
        assert h[20, 30] == pytest.approx(0.002, abs=1e-9)   # apex

    def test_height_noise_deterministic(self):
        spec = SceneSpec(32, 24, CELL, noise=NoiseSpec(0.001, 0.0), seed=42)
        a = generate_height(spec).data
        b = generate_height(spec).data
        assert np.array_equal(a, b)
        spec2 = SceneSpec(32, 24, CELL, noise=NoiseSpec(0.001, 0.0), seed=43)
        assert not np.array_equal(a, generate_height(spec2).data)

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="sigma"):
            generate_height(SceneSpec(32, 24, CELL, bumps=[
                BumpSpec((0.01, 0.01), 0.01, 0.02, 0.0, 0.01)]))
        with pytest.raises(ValueError, match="half_width"):
            generate_height(SceneSpec(32, 24, CELL, wrinkles=[
                WrinkleSpec([(0, 0), (0.1, 0)], 0.0, 0.002)]))
        with pytest.raises(ValueError, match="unit-norm"):
            SceneSpec(32, 24, CELL, lights=(
                LightSpec((0, 0, 2.0)), LightSpec((0, 0, 1.0)))).validate()
        with pytest.raises(ValueError, match="positive z"):
            SceneSpec(32, 24, CELL, lights=(
                LightSpec((0, 0, -1.0)), LightSpec((0, 0, 1.0)))).validate()


class TestRenderIllumination:
    def test_flat_vertical_light(self):
        spec = SceneSpec(32, 24, CELL, albedo=0.8, lights=vertical_lights())
        img = render_illumination(generate_height(spec), spec, 1)
        assert np.all(img == 0.8)

    def test_flat_light_at_60_degrees(self):
        d = (math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3))
        spec = SceneSpec(32, 24, CELL, albedo=1.0,
                         lights=(LightSpec(d), LightSpec(d)))
        img = render_illumination(generate_height(spec), spec, 1)
        assert np.allclose(img, 0.5, atol=1e-12)

    def test_slope_facing_away_from_grazing_light_clamps_to_zero(self):
        # plane z = -x: normal (1, 0, 1)/sqrt(2); light from +x at 60 deg
        w, h = 48, 32
        u = np.arange(w) * CELL
        z = np.tile(-u, (h, 1))
        from ironpath.gridio import FloatGrid
        grid = FloatGrid(z, CELL)
        d = np.array([-math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)])
        n = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        assert n @ d <= 0    # oracle: the lit side faces away
        spec = SceneSpec(w, h, CELL, albedo=1.0,
                         lights=(LightSpec(tuple(d)), LightSpec((0, 0, 1))))
        img = render_illumination(grid, spec, 1)
        assert np.all(img[:, 2:-2] == 0.0)

    def test_flat_scene_renders_uniform_both_lights(self):
        spec = SceneSpec(32, 24, CELL)
        flat = generate_height(spec)
        for k in (1, 2):
            img = render_illumination(flat, spec, k)
            assert np.ptp(img) == 0.0

    def test_image_noise_deterministic_and_clamped(self):
        spec = SceneSpec(32, 24, CELL, noise=NoiseSpec(0.0, 0.05), seed=9)
        flat = generate_height(spec)
        a = render_illumination(flat, spec, 1)
        assert np.array_equal(a, render_illumination(flat, spec, 1))
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert not np.array_equal(a, render_illumination(flat, spec, 2))

    def test_bad_light_index(self):
        spec = SceneSpec(32, 24, CELL)
        with pytest.raises(ValueError):
            render_illumination(generate_height(spec), spec, 3)

    def test_per_pixel_albedo(self):
        a = np.linspace(0.2, 0.9, 32 * 24).reshape(24, 32)
        spec = SceneSpec(32, 24, CELL, albedo=a, lights=vertical_lights())
        img = render_illumination(generate_height(spec), spec, 1)
        assert np.allclose(img, a, atol=1e-15)
        bad = SceneSpec(32, 24, CELL, albedo=np.ones((5, 5)))
        with pytest.raises(ValueError, match="albedo"):
            bad.validate()

    def test_reference_is_noise_free_flat_render(self):
        spec = SceneSpec(32, 24, CELL, albedo=0.7, noise=NoiseSpec(0.01, 0.02),
                         seed=5)
        ref = render_reference(spec, 1)
        assert np.ptp(ref) == 0.0


class TestGroundTruth:
    def test_empty_scene_all_background(self):
        mask = ground_truth(SceneSpec(32, 24, CELL)).data
        assert np.all(mask == LABEL_BACKGROUND)

    def test_ridge_band_area(self):
        hw = 0.003
        length = 0.20
        spec = SceneSpec(200, 150, CELL, wrinkles=[
            WrinkleSpec([(0.08, 0.15), (0.08 + length, 0.15)], hw, 0.002)])
        n = int((ground_truth(spec).data == LABEL_WRINKLE).sum())
        # stadium area: band plus half-disc caps
        area = 2 * hw * length + math.pi * hw**2
        expected = area / CELL**2
        assert abs(n - expected) / expected < 0.05

    def test_wrinkle_wins_tie_over_bump(self):
        center = (0.06, 0.05)
        spec = SceneSpec(64, 48, CELL,
                         bumps=[BumpSpec(center, 0.03, 0.02, 0.0, 0.02)],
                         wrinkles=[WrinkleSpec([(0.01, 0.05), (0.12, 0.05)],
                                               0.003, 0.002)])
        mask = ground_truth(spec).data
        assert mask[25, 30] == LABEL_WRINKLE    # on the ridge through the bump
        assert (mask == LABEL_BUMP).any()

    def test_bump_region_is_10pct_level_set(self):
        b = BumpSpec((0.064, 0.048), 0.02, 0.01, 0.0, 0.02)
        spec = SceneSpec(64, 48, CELL, bumps=[b])
        mask = ground_truth(spec).data
        # analytic ellipse area of the 10% level set
        k = math.sqrt(2 * math.log(10.0))
        area = math.pi * (k * b.sigma_major) * (k * b.sigma_minor) / CELL**2
        n = int((mask == LABEL_BUMP).sum())
        assert abs(n - area) / area < 0.05


class TestSceneFile:
    def test_load_scene(self, tmp_path):
        p = tmp_path / "scene.txt"
        p.write_text(
            "# demo scene\n"
            "width 64\nheight 48\ncell_size 0.002\nseed 7\nalbedo 0.75\n"
            "light 1 0 1 1.0\n"
            "light 0 1 2 0.9\n"
            "height_noise 0.0001\nimage_noise 0.004\n"
            "bump 0.06 0.05 0.03 0.015 0.4 0.018\n"
            "wrinkle 0.003 0.002 0.01 0.02 0.10 0.06\n")
        spec = load_scene(p)
        assert (spec.width, spec.height, spec.seed) == (64, 48, 7)
        assert spec.albedo == 0.75
        assert len(spec.bumps) == 1 and len(spec.wrinkles) == 1
        for li in spec.lights:
            assert abs(np.linalg.norm(li.direction) - 1.0) < 1e-12
        assert spec.lights[1].intensity == 0.9
        assert spec.wrinkles[0].polyline == [(0.01, 0.02), (0.10, 0.06)]

    def test_left_out_keys_take_the_spec_defaults(self, tmp_path):
        p = tmp_path / "scene.txt"
        p.write_text("width 64\nheight 48\ncell_size 0.002\n")
        assert load_scene(p) == SceneSpec(64, 48, 0.002)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("width 64\nheight 48\ncell_size 0.002\nwibble 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_scene(p)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "noheight.txt"
        p.write_text("width 64\ncell_size 0.002\n")
        with pytest.raises(ValueError, match="height"):
            load_scene(p)


class TestCounterNoise:
    def test_pure_function_of_seed_stream_index(self):
        a = synth.unit_normals(1, 2, 100)
        assert np.array_equal(a, synth.unit_normals(1, 2, 100))
        assert np.array_equal(a[:50], synth.unit_normals(1, 2, 50))
        assert not np.array_equal(a, synth.unit_normals(1, 3, 100))

    def test_roughly_standard_normal(self):
        z = synth.unit_normals(123, 1, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
