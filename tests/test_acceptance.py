"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted, so a plain `pytest` run is authoritative.
"""

import math
import time

import numpy as np

from conftest import (CELL, EVAL_SEEDS, TRAIN_SEEDS, corpus_scene, segment_line,
                      single_bump_scene)
from ironpath import classify, curvature, synth
from ironpath.cli import (PipelineConfig, build_corpus_training_set,
                          dump_report, evaluate_scenes, read_scene, run_detection)
from ironpath.curvature import BUMP_INDEX_HI, BUMP_INDEX_LO, hessian, shape_index
from ironpath.discont import HoughParams, extract_segments, normalize
from ironpath.gridio import FloatGrid, WorldTransform
from ironpath.planner import (STATIC, SLIDING, IronSpec, order_actions,
                              select_motion, split_wrinkle)
from test_planner import greedy_oracle, random_instance, wrinkle


def report_line(n, ok, text):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_hessian_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    n = 41
    x = (np.arange(n) - n // 2).astype(float)
    X, Y = np.meshgrid(x, x)
    interior = (slice(2, -2), slice(2, -2))
    for _ in range(20):
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        grid = FloatGrid(0.5 * (a * X**2 + b * Y**2) + c * X * Y, 1.0)
        f = hessian(grid.data, grid.cell_size)
        ev = np.linalg.eigvalsh(np.array([[a, c], [c, b]]))
        worst = max(worst,
                    np.abs(f.lambda1[interior] - ev[1]).max(),
                    np.abs(f.lambda2[interior] - ev[0]).max())
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 1.0
    report_line(1, ok, f"hessian vs analytic: max err {worst:.2e} "
                       f"(tol 1e-6), runtime {dt:.2f}s (< 1s)")


def test_criterion_2_shape_index_rule():
    in_range = lambda s: BUMP_INDEX_LO <= s < BUMP_INDEX_HI
    checks = [
        shape_index(1.0, -1.0) == 0.0 and in_range(0.0),
        shape_index(1.0, 0.0) == 0.5 and in_range(0.5),
        abs(shape_index(2.0, 1.0) - 0.795) < 1e-3 and not in_range(shape_index(2.0, 1.0)),
    ]
    for l1, l2 in [(1.0, -1.0), (1.0, 0.0), (2.0, 1.0)]:
        s = shape_index(l1, l2)
        checks.append(all(shape_index(c * l1, c * l2) == s for c in (0.1, 10.0)))
    ok = all(checks)
    report_line(2, ok, f"bump interval membership and exact scale invariance "
                       f"({sum(checks)}/{len(checks)} checks)")


def test_criterion_3_bump_recovery():
    hits = 0
    for seed in range(300, 320):
        spec, b = single_bump_scene(seed)
        bumps = curvature.detect_bumps(synth.generate_height(spec), curvature.BumpParams())
        if len(bumps) != 1:
            continue
        d = bumps[0]
        ang = abs((d.orientation - b.orientation + math.pi / 2) % math.pi - math.pi / 2)
        hits += (math.hypot(d.center[0] - b.center[0], d.center[1] - b.center[1]) <= CELL
                 and abs(d.d1 / b.sigma_major - 1.0) <= 0.15
                 and abs(d.d2 / b.sigma_minor - 1.0) <= 0.15
                 and math.degrees(ang) <= 5.0)
    ok = hits >= 19
    report_line(3, ok, f"single-bump recovery {hits}/20 within tolerances (need >= 19)")


def test_criterion_4_normalization_identities():
    rng = np.random.default_rng(21)
    ref1 = rng.uniform(0.25, 0.95, (40, 50))
    ref2 = rng.uniform(0.25, 0.95, (40, 50))
    out = normalize(ref1, ref2, ref1, ref2)
    identity_ok = bool(np.all(np.abs(out.combined - math.sqrt(2.0)) < 1e-6))
    i1 = rng.uniform(0.1, 0.9, (40, 50))
    i2 = rng.uniform(0.1, 0.9, (40, 50))
    a = normalize(i1, i2, ref1, ref2)
    b = normalize(i1 / 2, i2 / 2, ref1 / 2, ref2 / 2)
    homogeneity_ok = bool(np.array_equal(a.combined, b.combined)
                          and np.array_equal(a.valid, b.valid))
    ok = identity_ok and homogeneity_ok
    report_line(4, ok, f"flat capture => uniform sqrt(2): {identity_ok}; "
                       f"joint-scaling homogeneity: {homogeneity_ok}")


def test_criterion_5_classifier_corpus(tmp_path):
    from test_cli import write_scene_dir
    t0 = time.perf_counter()
    cfg = PipelineConfig()
    train_dir = tmp_path / "train"
    eval_dir = tmp_path / "eval"
    for i, seed in enumerate(TRAIN_SEEDS):
        write_scene_dir(train_dir, f"scene{i:02d}",
                        corpus_scene(seed, strat_idx=i, strat_total=len(TRAIN_SEEDS)))
    for i, seed in enumerate(EVAL_SEEDS):
        write_scene_dir(eval_dir, f"scene{i:02d}", corpus_scene(seed))
    ts = build_corpus_training_set(str(train_dir), cfg)
    model = classify.train(ts, cfg.train)
    dirs = sorted(str(p) for p in eval_dir.iterdir())
    acc, rec = evaluate_scenes([read_scene(d) for d in dirs], model, cfg)
    dt = time.perf_counter() - t0
    ok = acc >= 0.85 and rec >= 0.80 and dt < 60.0
    report_line(5, ok, f"10-scene training: held-out accuracy {acc:.3f} (>= 0.85), "
                       f"wrinkle recall {rec:.3f} (>= 0.80), runtime {dt:.1f}s (< 60s)")


def test_criterion_6_segment_extraction():
    rng = np.random.default_rng(606)
    w, h = 320, 240
    hits = 0
    nms_ok = True
    for _ in range(20):
        length = rng.uniform(30, 200)
        theta = rng.uniform(0, math.pi)
        dx, dy = math.cos(theta) * length / 2, math.sin(theta) * length / 2
        cx = rng.uniform(12 + abs(dx), w - 12 - abs(dx))
        cy = rng.uniform(12 + abs(dy), h - 12 - abs(dy))
        p0 = np.array([cx - dx, cy - dy])
        p1 = np.array([cx + dx, cy + dy])
        spec = synth.SceneSpec(w, h, CELL, wrinkles=[synth.WrinkleSpec(
            [tuple(p0 * CELL), tuple(p1 * CELL)], 1.5 * CELL, 0.002)])
        segs = extract_segments(synth.ground_truth(spec), np.ones((h, w)), HoughParams(),
                                WorldTransform(1.0))
        lines = [segment_line(s) for s in segs]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                (rho_i, th_i), (rho_j, th_j) = lines[i], lines[j]
                if th_i == th_j and abs(rho_i - rho_j) < 1e-6:
                    continue            # two runs of one line
                dth = abs(th_i - th_j)
                drho = abs(rho_i - rho_j) if dth <= math.pi / 2 else abs(rho_i + rho_j)
                dth = min(dth, math.pi - dth)
                if drho < 5.0 and math.degrees(dth) < 5.0:
                    nms_ok = False
        if len(segs) != 1:
            continue
        s = segs[0]
        ends = np.asarray(s.endpoints)
        err = max(min(np.hypot(*(e - p0)), np.hypot(*(e - p1))) for e in ends)
        dang = abs((s.direction - theta + math.pi / 2) % math.pi - math.pi / 2)
        hits += err <= 2.0 and math.degrees(dang) <= 2.0
    ok = hits >= 18 and nms_ok
    report_line(6, ok, f"single-ridge extraction {hits}/20 within 2px/2deg "
                       f"(need >= 18); NMS separation holds: {nms_ok}")


def fusion_scene(seed):
    """One bump, one ridge through its center, one ridge >= 3 sigma clear."""
    r = np.random.default_rng(seed)
    w, h = 240, 180
    smaj = r.uniform(0.035, 0.050)
    theta_b = r.uniform(0, math.pi)
    # bump in the left part, clear ridge on the right
    bc = (r.uniform(0.11, 0.16), r.uniform(0.14, 0.22))
    bump = synth.BumpSpec(bc, smaj, smaj / 2.0, theta_b, r.uniform(0.015, 0.022))
    axis = np.array([math.cos(theta_b), math.sin(theta_b)])
    on_a = np.asarray(bc) - axis * smaj
    on_b = np.asarray(bc) + axis * smaj
    theta_c = r.uniform(0, math.pi)
    half = r.uniform(0.05, 0.08)
    cdir = np.array([math.cos(theta_c), math.sin(theta_c)])
    cc = np.array([r.uniform(0.33, 0.40), r.uniform(0.12, 0.24)])
    clear_a, clear_b = cc - cdir * half, cc + cdir * half
    spec = synth.SceneSpec(
        w, h, CELL, bumps=[bump],
        wrinkles=[synth.WrinkleSpec([tuple(on_a), tuple(on_b)], 0.003, 0.0025),
                  synth.WrinkleSpec([tuple(clear_a), tuple(clear_b)], 0.003, 0.0025)],
        noise=synth.NoiseSpec(0.0002, 0.005), seed=seed)
    # the clear ridge must really be clear: every segment point >= 3 sigma out
    t = np.linspace(0, 1, 64)[:, None]
    pts = clear_a[None, :] * (1 - t) + clear_b[None, :] * t
    assert np.hypot(*(pts - np.asarray(bc)).T).min() >= 3.0 * smaj
    return spec, np.asarray(bc), (clear_a, clear_b)


def _seg_near(wk, target_mid, tol):
    mid = np.array([(wk["endpoints_m"][0][0] + wk["endpoints_m"][1][0]) / 2,
                    (wk["endpoints_m"][0][1] + wk["endpoints_m"][1][1]) / 2])
    return float(np.hypot(*(mid - target_mid))) <= tol


def test_criterion_7_fusion_behavior(trained_model):
    cfg = PipelineConfig()
    hits = 0
    for seed in range(700, 720):
        spec, bc, (ca, cb) = fusion_scene(seed)
        height = synth.generate_height(spec)
        rep = run_detection(
            height,
            synth.render_illumination(height, spec, 1),
            synth.render_illumination(height, spec, 2),
            synth.render_reference(spec, 1), synth.render_reference(spec, 2),
            trained_model, cfg)
        accepted = [wk for wk in rep["wrinkles"] if wk["accepted"]]
        clear_mid = (ca + cb) / 2
        clear_found = any(_seg_near(wk, clear_mid, 0.03) for wk in accepted)
        on_bump_accepted = any(_seg_near(wk, bc, 2.0 * 0.05) for wk in accepted)
        hits += clear_found and not on_bump_accepted
    ok = hits >= 19
    report_line(7, ok, f"clear ridge accepted / on-bump ridge rejected at "
                       f"p_min=0.3 in {hits}/20 scenes (need >= 19)")


def test_criterion_8_planner_rules():
    iron = IronSpec(long_axis=0.20, short_axis=0.10)
    table_ok = (
        select_motion(wrinkle((0, 0), (0.10, 0)), iron) == STATIC
        and select_motion(wrinkle((0, 0), (0.14, 0)), iron) == SLIDING
        and select_motion(wrinkle((0, 0), (0.30, 0)), iron) == SLIDING
        and len(split_wrinkle(wrinkle((0, 0), (0.10, 0)), iron)) == 1
        and [p.discontinuity.length for p in
             split_wrinkle(wrinkle((0, 0), (0.50, 0)), iron)] == [0.25, 0.25]
        and len(split_wrinkle(wrinkle((0, 0), (0.40, 0)), iron)) == 1)

    rng = np.random.default_rng(808)
    oracle_ok = True
    for _ in range(1000):
        ws = random_instance(rng)
        home = tuple(rng.uniform(0, 1, 2))
        got = [(a.wrinkle_id, a.start, a.end)
               for a in order_actions(ws, iron, home=home).actions]
        exp = greedy_oracle(ws, iron, home)
        if len(got) != len(exp) or any(
                g[0] != e[0] or np.hypot(g[1][0] - e[1][0], g[1][1] - e[1][1]) > 1e-12
                or np.hypot(g[2][0] - e[2][0], g[2][1] - e[2][1]) > 1e-12
                for g, e in zip(got, exp)):
            oracle_ok = False
            break

    wins = 0
    for inst in range(100):
        r = np.random.default_rng(9000 + inst)
        ws = random_instance(r, 6)
        greedy = order_actions(ws, iron, home=(0.0, 0.0)).total_travel
        travels = []
        for _ in range(100):
            order = r.permutation(len(ws))
            pos = np.zeros(2)
            tot = 0.0
            for i in order:
                d = ws[i].discontinuity
                if select_motion(ws[i], iron) == STATIC:
                    cands = [(d.midpoint, d.midpoint)]
                else:
                    cands = [(d.endpoints[0], d.endpoints[1]),
                             (d.endpoints[1], d.endpoints[0])]
                start, end = min(cands, key=lambda se: math.hypot(
                    se[0][0] - pos[0], se[0][1] - pos[1]))
                tot += math.hypot(start[0] - pos[0], start[1] - pos[1])
                tot += 0.0 if start == end else d.length
                pos = np.asarray(end)
            travels.append(tot)
        wins += greedy <= np.mean(travels)
    ok = table_ok and oracle_ok and wins >= 95
    report_line(8, ok, f"rule table: {table_ok}; greedy == oracle on 1000 "
                       f"instances: {oracle_ok}; greedy <= mean random on "
                       f"{wins}/100 instances (need >= 95)")


def reference_scene():
    """Two bumps and one clear ridge at the depth-stream resolution."""
    cell = 0.0016
    ridge = synth.WrinkleSpec([(0.62, 0.22), (0.80, 0.34)], 0.0032, 0.0025)
    return synth.SceneSpec(
        640, 480, cell,
        bumps=[synth.BumpSpec((0.28, 0.30), 0.040, 0.020, 0.6, 0.020),
               synth.BumpSpec((0.55, 0.58), 0.035, 0.019, 2.2, 0.016)],
        wrinkles=[ridge]), ridge


def test_criterion_9_end_to_end(trained_model):
    spec, ridge = reference_scene()
    cfg = PipelineConfig()
    height = synth.generate_height(spec)
    imgs = (synth.render_illumination(height, spec, 1),
            synth.render_illumination(height, spec, 2),
            synth.render_reference(spec, 1), synth.render_reference(spec, 2))
    t0 = time.perf_counter()
    rep1 = run_detection(height, *imgs, trained_model, cfg)
    dt = time.perf_counter() - t0
    rep2 = run_detection(height, *imgs, trained_model, cfg)
    identical = dump_report(rep1) == dump_report(rep2)

    accepted = [wk for wk in rep1["wrinkles"] if wk["accepted"]]
    actions = rep1["plan"]["actions"]
    shape_ok = (len(rep1["bumps"]) == 2 and len(accepted) == 1
                and len(actions) == 1)
    (rx0, ry0), (rx1, ry1) = ridge.polyline
    ridge_dir = math.atan2(ry1 - ry0, rx1 - rx0) % math.pi
    if actions:
        dang = abs((actions[0]["align_angle_rad"] - ridge_dir + math.pi / 2)
                   % math.pi - math.pi / 2)
        angle_ok = math.degrees(dang) <= 2.0
    else:
        angle_ok = False
    ok = shape_ok and angle_ok and identical and dt < 10.0
    report_line(9, ok, f"reference scene: bumps={len(rep1['bumps'])}/2, "
                       f"accepted={len(accepted)}/1, actions={len(actions)}/1, "
                       f"align within 2deg: {angle_ok}, byte-identical rerun: "
                       f"{identical}, detect runtime {dt:.1f}s (< 10s)")
