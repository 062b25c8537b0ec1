import math

import numpy as np
import pytest

from ironpath.discont import Discontinuity
from ironpath.fusion import confidence, fuse
from ironpath.mixture import MixtureComponent


def disc(endpoints=((0.0, 0.0), (0.1, 0.0)), scores=(0.9,), disc_id=0):
    scores = np.asarray(scores, float)
    pixels = np.zeros((len(scores), 2), np.int64)
    (x0, y0), (x1, y1) = endpoints
    return Discontinuity(id=disc_id, endpoints=endpoints, pixels=pixels,
                         scores=scores, length=math.hypot(x1 - x0, y1 - y0),
                         direction=math.atan2(y1 - y0, x1 - x0) % math.pi)


def component(mean, sigma=0.04):
    return MixtureComponent(np.asarray(mean, float), np.eye(2) * sigma**2)


class TestConfidence:
    def test_mean_of_two(self):
        assert confidence(disc(scores=(0.6, 0.8))) == pytest.approx(0.7, abs=1e-15)

    def test_constant_scores(self):
        assert confidence(disc(scores=(0.42,) * 7)) == pytest.approx(0.42, abs=1e-15)

    def test_open_interval(self):
        rng = np.random.default_rng(2)
        r = confidence(disc(scores=rng.uniform(0.01, 0.99, 50)))
        assert 0.0 < r < 1.0

    def test_no_support_rejected(self):
        with pytest.raises(ValueError):
            confidence(disc(scores=()))


class TestFuse:
    def test_empty_mixture_p_equals_r(self):
        out = fuse([disc(scores=(0.9,))], [], p_min=0.3)
        assert out[0].q == 1.0
        assert out[0].p == pytest.approx(0.9, abs=1e-15)
        assert out[0].accepted

    def test_through_bump_rejected(self):
        # segment spanning 2 sigma through an isotropic bump center
        sigma = 0.04
        mix = [component((0.3, 0.2), sigma)]
        d = disc(endpoints=((0.3 - sigma, 0.2), (0.3 + sigma, 0.2)),
                 scores=(0.9,) * 5)
        out = fuse([d], mix, p_min=0.3)
        assert out[0].q <= 0.2
        assert out[0].p <= 0.18
        assert not out[0].accepted

    def test_invariant_p_product(self):
        rng = np.random.default_rng(3)
        mix = [component(rng.uniform(0, 0.5, 2)) for _ in range(3)]
        ds = [disc(endpoints=(tuple(rng.uniform(0, 0.5, 2)),
                              tuple(rng.uniform(0, 0.5, 2))),
                   scores=rng.uniform(0.1, 0.9, 4), disc_id=i)
              for i in range(6)]
        for f in fuse(ds, mix, p_min=0.3):
            assert f.p == pytest.approx(f.q * f.r, abs=1e-12)
            assert f.accepted == (f.p >= 0.3)

    def test_sorted_descending_ties_by_id(self):
        ds = [disc(scores=(0.5,), disc_id=2), disc(scores=(0.5,), disc_id=0),
              disc(scores=(0.7,), disc_id=1)]
        out = fuse(ds, [], p_min=0.3)
        assert [f.discontinuity.id for f in out] == [1, 0, 2]

    def test_order_independent_of_input_order(self):
        rng = np.random.default_rng(4)
        ds = [disc(scores=(s,), disc_id=i)
              for i, s in enumerate(rng.uniform(0.2, 0.9, 8))]
        a = fuse(list(ds), [], p_min=0.3)
        b = fuse(ds[::-1], [], p_min=0.3)
        assert [f.discontinuity.id for f in a] == [f.discontinuity.id for f in b]

    def test_removing_component_never_decreases_p(self):
        rng = np.random.default_rng(5)
        comps = [component(rng.uniform(0, 0.4, 2)) for _ in range(4)]
        d = disc(endpoints=((0.05, 0.05), (0.35, 0.3)), scores=(0.8,) * 3)
        p_full = fuse([d], comps, p_min=0.3)[0].p
        for k in range(4):
            reduced = comps[:k] + comps[k + 1:]
            assert fuse([d], reduced, p_min=0.3)[0].p >= p_full - 1e-15
