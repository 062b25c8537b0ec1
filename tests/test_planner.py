import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ironpath.discont import Discontinuity
from ironpath.fusion import FusedWrinkle
from ironpath.gridio import FloatGrid
from ironpath.planner import (SLIDING, STATIC, IronSpec, emit_waypoints,
                              order_actions, plan_ironing, select_motion,
                              split_wrinkle)

IRON = IronSpec(long_axis=0.20, short_axis=0.10, press_depth=0.01,
                lift_height=0.05)


def wrinkle(p0, p1, p=1.0, wid=0, scores=(0.9,)):
    p0, p1 = tuple(p0), tuple(p1)
    length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    d = Discontinuity(id=wid, endpoints=(p0, p1),
                      pixels=np.zeros((len(scores), 2), np.int64),
                      scores=np.asarray(scores, float), length=length,
                      direction=math.atan2(p1[1] - p0[1], p1[0] - p0[0]) % math.pi)
    return FusedWrinkle(d, 1.0, p, p, True)


def tilted_surface(w, h, cell, origin=(0.0, 0.0)):
    """A w x h grid whose height at pixel (u, v) is 1e-4 u + 2e-4 v, a plane
    that bilinear sampling gives exactly."""
    vv, uu = np.mgrid[0:h, 0:w]
    return FloatGrid(1e-4 * uu + 2e-4 * vv, cell, origin)


def check_sliding_waypoints(surface, p0, p1):
    """plan_ironing with waypoints on one wrinkle from pixel p0 to pixel p1,
    slid in one stroke: each waypoint's z is the plane's height under it,
    lifted or pressed."""
    t = surface.transform
    w = wrinkle(t.pixel_to_world(*p0), t.pixel_to_world(*p1))
    length = w.discontinuity.length
    iron = IronSpec(long_axis=length, short_axis=length / 2)
    _, wps = plan_ironing([w], iron, home=t.pixel_to_world(0, 0), surface=surface)
    assert [p.kind for p in wps[0]] == ["approach", "press", "slide", "retract"]
    offset = {"approach": iron.lift_height, "press": -iron.press_depth,
              "slide": -iron.press_depth, "retract": iron.lift_height}
    for p in wps[0]:
        u, v = t.world_to_pixel(p.x, p.y)
        assert p.z == pytest.approx(1e-4 * u + 2e-4 * v + offset[p.kind], abs=1e-9)


class TestSplit:
    def test_short_unsplit(self):
        assert len(split_wrinkle(wrinkle((0, 0), (0.10, 0)), IRON)) == 1

    def test_half_meter_splits_in_two(self):
        pieces = split_wrinkle(wrinkle((0, 0), (0.50, 0)), IRON)
        assert len(pieces) == 2
        lens = [p.discontinuity.length for p in pieces]
        assert lens == pytest.approx([0.25, 0.25], abs=1e-12)
        ends = [p.discontinuity.endpoints for p in pieces]
        assert ends[0][1] == pytest.approx((0.25, 0.0), abs=1e-12)
        assert ends[1][0] == pytest.approx((0.25, 0.0), abs=1e-12)
        for p in pieces:
            assert (p.q, p.r, p.p) == (1.0, 1.0, 1.0)

    def test_exactly_twice_long_axis_unsplit(self):
        assert len(split_wrinkle(wrinkle((0, 0), (0.40, 0)), IRON)) == 1

    def test_pieces_collinear(self):
        pieces = split_wrinkle(wrinkle((0.1, 0.2), (0.9, 0.7)), IRON)
        assert len(pieces) == 3
        d0 = pieces[0].discontinuity.direction
        for p in pieces:
            assert p.discontinuity.direction == pytest.approx(d0, abs=1e-12)


class TestSelectMotion:
    def test_short_is_static(self):
        assert select_motion(wrinkle((0, 0), (0.10, 0)), IRON) == STATIC

    def test_boundary_is_sliding(self):
        # 0.14 == 0.7 * 0.20: "less than" is strict
        assert select_motion(wrinkle((0, 0), (0.14, 0)), IRON) == SLIDING

    def test_long_is_sliding(self):
        assert select_motion(wrinkle((0, 0), (0.30, 0)), IRON) == SLIDING


def greedy_oracle(ws, iron, home):
    """Plain-loop reimplementation of the stated greedy ordering rule."""
    def entries(w):
        d = w.discontinuity
        if d.length < 0.7 * iron.long_axis:
            return [(d.midpoint, d.midpoint)]
        return [(d.endpoints[0], d.endpoints[1]),
                (d.endpoints[1], d.endpoints[0])]

    left = list(range(len(ws)))
    pos = home
    visits = []
    while left:
        if not visits:
            pool = [min(left, key=lambda j: (-ws[j].p, ws[j].discontinuity.id, j))]
        else:
            pool = left
        best = None
        for i in pool:
            for e, (start, end) in enumerate(entries(ws[i])):
                key = (math.hypot(start[0] - pos[0], start[1] - pos[1]),
                       ws[i].discontinuity.id, e)
                if best is None or key < best[0]:
                    best = (key, i, start, end)
        _, i, start, end = best
        visits.append((ws[i].discontinuity.id, start, end))
        pos = end
        left.remove(i)
    return visits


def random_instance(rng, n=None):
    n = n if n is not None else int(rng.integers(1, 11))
    ws = []
    for i in range(n):
        c = rng.uniform(0.1, 0.9, 2)
        theta = rng.uniform(0, math.pi)
        half = rng.uniform(0.02, 0.18)
        d = np.array([math.cos(theta), math.sin(theta)]) * half
        ws.append(wrinkle(c - d, c + d, p=float(rng.uniform(0.3, 1.0)), wid=i))
    return ws


class TestOrderActions:
    def test_single_wrinkle_travel(self):
        w = wrinkle((0.3, 0.4), (0.5, 0.4))
        plan = order_actions([w], IRON, home=(0.0, 0.0))
        assert len(plan.actions) == 1
        a = plan.actions[0]
        assert a.travel_leg == pytest.approx(math.hypot(0.3, 0.4), abs=1e-12)
        assert a.start == (0.3, 0.4)      # endpoint nearer home
        assert plan.total_travel == pytest.approx(a.travel_leg + 0.2, abs=1e-12)

    def test_three_collinear_segments(self):
        ws = [wrinkle((0.0, 0.0), (1.0, 0.0), wid=1),
              wrinkle((2.0, 0.0), (3.0, 0.0), wid=2),
              wrinkle((4.0, 0.0), (5.0, 0.0), wid=3)]
        plan = order_actions(ws, IRON, home=(0.0, 0.0))
        assert [a.wrinkle_id for a in plan.actions] == [1, 2, 3]
        inter = plan.total_travel - sum(a.slide_len for a in plan.actions)
        assert inter == pytest.approx(2.0, abs=1e-12)

    def test_first_by_probability_then_nearest(self):
        ws = [wrinkle((0.1, 0.1), (0.3, 0.1), p=0.5, wid=0),
              wrinkle((0.9, 0.9), (0.7, 0.9), p=0.9, wid=1)]
        plan = order_actions(ws, IRON, home=(0.0, 0.0))
        assert plan.actions[0].wrinkle_id == 1   # highest p wins despite distance
        assert plan.actions[0].start == (0.7, 0.9)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            ws = random_instance(rng)
            home = tuple(rng.uniform(0, 1, 2))
            plan = order_actions(ws, IRON, home=home)
            expected = greedy_oracle(ws, IRON, home)
            got = [(a.wrinkle_id, a.start, a.end) for a in plan.actions]
            assert len(got) == len(expected)
            for (gi, gs, ge), (ei, es, ee) in zip(got, expected):
                assert gi == ei
                assert gs == pytest.approx(es, abs=1e-12)
                assert ge == pytest.approx(ee, abs=1e-12)

    def test_align_angle_matches_direction(self):
        rng = np.random.default_rng(7)
        ws = random_instance(rng, 5)
        for a in order_actions(ws, IRON, home=(0.0, 0.0)).actions:
            w = next(x for x in ws if x.discontinuity.id == a.wrinkle_id)
            assert a.align_angle == pytest.approx(w.discontinuity.direction, abs=1e-12)

    def test_greedy_beats_mean_random(self):
        rng = np.random.default_rng(99)
        wins = 0
        for _ in range(10):
            ws = random_instance(rng, 6)
            home = (0.0, 0.0)
            greedy = order_actions(ws, IRON, home=home).total_travel
            travels = []
            for _ in range(100):
                order = rng.permutation(len(ws))
                pos = np.array(home)
                tot = 0.0
                for i in order:
                    d = ws[i].discontinuity
                    if select_motion(ws[i], IRON) == STATIC:
                        cands = [(d.midpoint, d.midpoint)]
                    else:
                        cands = [(d.endpoints[0], d.endpoints[1]),
                                 (d.endpoints[1], d.endpoints[0])]
                    start, end = min(cands, key=lambda se: math.hypot(
                        se[0][0] - pos[0], se[0][1] - pos[1]))
                    tot += math.hypot(start[0] - pos[0], start[1] - pos[1])
                    tot += 0.0 if start == end else d.length
                    pos = np.array(end)
                travels.append(tot)
            wins += greedy <= np.mean(travels)
        assert wins >= 9

    def test_empty_plan(self):
        plan = order_actions([], IRON, home=(0.0, 0.0))
        assert plan.actions == [] and plan.total_travel == 0.0


class TestWaypoints:
    def flat_surface(self, z=0.0):
        return FloatGrid(np.full((48, 64), z), 0.02)

    def test_static_z_sequence(self):
        w = wrinkle((0.3, 0.4), (0.35, 0.4))     # static: 0.05 < 0.14
        plan = order_actions([w], IRON, home=(0, 0))
        wps = emit_waypoints(plan, IRON, self.flat_surface())[0]
        assert [p.kind for p in wps] == ["approach", "press", "retract"]
        assert [p.z for p in wps] == pytest.approx([0.05, -0.01, 0.05], abs=1e-12)
        mid = w.discontinuity.midpoint
        assert (wps[0].x, wps[0].y) == pytest.approx(mid, abs=1e-12)

    def test_sliding_follows_surface(self):
        surf = FloatGrid(np.tile(np.linspace(0.0, 0.005, 64), (48, 1)), 0.02)
        w = wrinkle((0.2, 0.4), (0.6, 0.4))
        plan = order_actions([w], IRON, home=(0, 0))
        wps = emit_waypoints(plan, IRON, surf)[0]
        assert [p.kind for p in wps] == ["approach", "press", "slide", "retract"]
        # z tracks local surface height minus press depth at both ends
        def height_at(x):
            return float(np.interp(x / 0.02, np.arange(64), surf.data[0]))
        assert wps[1].z == pytest.approx(height_at(wps[1].x) - 0.01, abs=1e-9)
        assert wps[2].z == pytest.approx(height_at(wps[2].x) - 0.01, abs=1e-9)

    def test_force_is_spring_model(self):
        w = wrinkle((0.3, 0.4), (0.5, 0.4))
        plan = order_actions([w], IRON, home=(0.0, 0.0))
        assert plan.actions[0].force == pytest.approx(
            IRON.foam_stiffness * IRON.press_depth, abs=1e-12)

    def test_totals_match_waypoint_recomputation(self):
        rng = np.random.default_rng(21)
        ws = [wrinkle(rng.uniform(0.2, 1.0, 2), rng.uniform(0.2, 1.0, 2), wid=i)
              for i in range(5)]
        home = (0.1, 0.1)
        plan = order_actions(ws, IRON, home=home)
        surf = FloatGrid(np.zeros((80, 80)), 0.02)
        flat = [p for wps in emit_waypoints(plan, IRON, surf) for p in wps]
        path = [home] + [(p.x, p.y) for p in flat]
        total = sum(math.hypot(b[0] - a[0], b[1] - a[1])
                    for a, b in zip(path[:-1], path[1:]))
        assert total == pytest.approx(plan.total_travel, abs=1e-9)
        assert flat[-1].t == pytest.approx(plan.total_time, abs=1e-9)

    def test_out_of_bounds_raises(self):
        w = wrinkle((5.0, 5.0), (5.2, 5.0))
        plan = order_actions([w], IRON, home=(0.0, 0.0))
        with pytest.raises(ValueError, match="outside"):
            emit_waypoints(plan, IRON, self.flat_surface())


class TestPlanIroning:
    def test_covers_accepted_exactly_once_and_skips_rejected(self):
        ws = [wrinkle((0.0, 0.0), (0.5, 0.0), wid=0),     # splits into 2
              wrinkle((0.0, 0.3), (0.1, 0.3), wid=1)]
        rejected = wrinkle((0.0, 0.6), (0.1, 0.6), wid=2)
        rejected.accepted = False
        plan, wps = plan_ironing(ws + [rejected], IRON, home=(0, 0))
        assert wps is None
        ids = sorted(a.wrinkle_id for a in plan.actions)
        assert ids == [0, 0, 1]
        assert all(a.wrinkle_id != 2 for a in plan.actions)

    def test_iron_spec_validation(self):
        with pytest.raises(ValueError):
            IronSpec(long_axis=0.1, short_axis=0.2)
        with pytest.raises(ValueError):
            IronSpec(press_depth=0.1, foam_thickness=0.06)
        with pytest.raises(ValueError):
            IronSpec(lift_height=0.0)

    def test_wrinkle_ending_on_the_last_column(self):
        # the endpoint at pixel 319 maps back to 319 * 0.0016 / 0.0016 =
        # 319.00000000000006, a rounding error past the grid
        check_sliding_waypoints(tilted_surface(320, 200, 0.0016), (200, 150), (319, 154.5))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 400), st.integers(3, 400), st.floats(5e-4, 1e-2),
           st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.booleans(), st.booleans())
    def test_border_to_border_wrinkle_on_any_grid(self, w, h, cell, ox, oy, a, b,
                                                  across, reverse):
        # a wrinkle from the left to the right edge (across) or from the top
        # to the bottom edge, its endpoints world points of edge pixels
        if across:
            ends = [(0, a * (h - 1)), (w - 1, b * (h - 1))]
        else:
            ends = [(a * (w - 1), 0), (b * (w - 1), h - 1)]
        if reverse:
            ends.reverse()
        check_sliding_waypoints(tilted_surface(w, h, cell, (ox, oy)), *ends)
