import math

import numpy as np
import pytest

from ironpath.curvature import HeightBump
from ironpath.mixture import MixtureComponent, build_mixture, clearance, proximity


def bump(center=(0.3, 0.2), d1=0.04, d2=0.02, orientation=0.0, bump_id=0):
    return HeightBump(id=bump_id, pixels=np.zeros((1, 2), int), center=center,
                      volume=1e-4, d1=d1, d2=d2, orientation=orientation)


class TestBuildMixture:
    def test_empty(self):
        assert len(build_mixture([])) == 0

    def test_axis_aligned_covariance(self):
        mix = build_mixture([bump()])
        assert np.allclose(mix[0].cov, np.diag([1.6e-3, 4e-4]), atol=1e-12)

    def test_quarter_turn_swaps_diagonal(self):
        mix = build_mixture([bump(orientation=math.pi / 2)])
        assert np.allclose(mix[0].cov, np.diag([4e-4, 1.6e-3]), atol=1e-12)

    def test_rotation_oracle(self):
        theta = 0.73
        mix = build_mixture([bump(orientation=theta)])
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        expected = R @ np.diag([0.04**2, 0.02**2]) @ R.T
        assert np.allclose(mix[0].cov, expected, atol=1e-15)

    def test_degenerate_bump_rejected(self, caplog):
        with caplog.at_level("WARNING"):
            mix = build_mixture([bump(d2=0.0), bump(bump_id=1)])
        assert len(mix) == 1
        assert "not SPD" in caplog.text


class TestComponentProximity:
    def test_peak_one_at_center(self):
        mix = build_mixture([bump()])
        assert proximity(mix[0], np.array([[0.3, 0.2]]))[0] == 1.0

    def test_one_sigma_along_major_axis(self):
        mix = build_mixture([bump()])
        assert proximity(mix[0], np.array([[0.3 + 0.04, 0.2]]))[0] == pytest.approx(
            math.exp(-0.5), abs=1e-12)

    def test_monotone_decay_along_rays(self):
        mix = build_mixture([bump(orientation=0.4)])
        for ang in np.linspace(0, 2 * math.pi, 7):
            d = np.array([math.cos(ang), math.sin(ang)])
            pts = np.array([0.3, 0.2]) + np.linspace(0, 0.2, 30)[:, None] * d
            vals = proximity(mix[0], pts)
            assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestClearance:
    def test_empty_mixture_is_one(self):
        assert clearance([], ((0, 0), (1, 1))) == 1.0

    def test_segment_through_center_is_low(self):
        mix = build_mixture([bump()])
        q = clearance(mix, ((0.3 - 0.04, 0.2), (0.3 + 0.04, 0.2)))
        assert q < 0.5

    def test_product_of_constant_proximities(self):
        # degenerate segment: every sample sits at the same point, placed at
        # Mahalanobis radii giving proximities exactly 0.3 and 0.5
        r_a = math.sqrt(-2.0 * math.log(0.3))
        r_b = math.sqrt(-2.0 * math.log(0.5))
        pt = (0.0, 0.0)
        comp_a = MixtureComponent(np.array([r_a, 0.0]), np.eye(2))
        comp_b = MixtureComponent(np.array([0.0, r_b]), np.eye(2))
        mix = [comp_a, comp_b]
        q = clearance(mix, (pt, pt))
        assert q == pytest.approx(0.7 * 0.5, abs=1e-12)

    def test_bounds_and_component_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            comps = [MixtureComponent(rng.uniform(-1, 1, 2),
                                      np.diag(rng.uniform(0.01, 0.2, 2) ** 2))
                     for _ in range(rng.integers(1, 5))]
            seg = (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            q_all = clearance(comps, seg)
            assert 0.0 <= q_all <= 1.0
            q_fewer = clearance(comps[:-1], seg)
            assert q_all <= q_fewer + 1e-15

    def test_component_order_invariance(self):
        rng = np.random.default_rng(6)
        comps = [MixtureComponent(rng.uniform(0, 1, 2),
                                  np.diag(rng.uniform(0.01, 0.1, 2) ** 2))
                 for _ in range(4)]
        seg = ((0.1, 0.1), (0.9, 0.8))
        q1 = clearance(comps, seg)
        q2 = clearance(comps[::-1], seg)
        assert q1 == pytest.approx(q2, abs=1e-15)

    def test_rigid_transform_invariance(self):
        theta, tx, ty = 0.9, 1.5, -0.7
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        comps = [MixtureComponent(np.array([0.3, 0.2]), np.diag([1.6e-3, 4e-4]))]
        seg = (np.array([0.1, 0.1]), np.array([0.5, 0.4]))
        q0 = clearance(comps, seg)
        moved = [MixtureComponent(R @ c0.mean + [tx, ty], R @ c0.cov @ R.T)
                 for c0 in comps]
        q1 = clearance(moved, (R @ seg[0] + [tx, ty], R @ seg[1] + [tx, ty]))
        assert abs(q1 - q0) < 1e-9
