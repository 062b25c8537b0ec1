"""Quick tests of the benchmark's oracle: it must score what it claims to."""

import math

import numpy as np
import pytest

import oracle

TRUTH = {"ridges": [
    {"endpoints_m": [[0.10, 0.10], [0.30, 0.10]], "clear": True},
    {"endpoints_m": [[0.50, 0.20], [0.50, 0.45]], "clear": True},
    {"endpoints_m": [[0.70, 0.60], [0.76, 0.66]], "clear": False},
]}


def wrinkle(ends, accepted=True, wid=0, q=1.0, r=0.9):
    return {"id": wid, "endpoints_m": ends, "accepted": accepted, "q": q, "r": r, "p": q * r,
            "length_m": math.dist(*ends)}


def report(wrinkles, actions=(), p_min=0.3, long_axis=0.20):
    return {"config": {"p_min": p_min, "iron_long_axis_m": long_axis},
            "wrinkles": list(wrinkles), "plan": {"actions": list(actions)}}


def scores(rep):
    c = oracle.ridge_counts(rep, TRUTH)
    return oracle.ratio(c["found"], c["clear"]), oracle.ratio(c["true_m"], c["accepted_m"])


def test_perfect_report_scores_one():
    rep = report([wrinkle(r["endpoints_m"], wid=i)
                  for i, r in enumerate(TRUTH["ridges"]) if r["clear"]])
    assert scores(rep) == (1.0, 1.0)


def test_reversed_endpoints_still_match():
    rep = report([wrinkle(r["endpoints_m"][::-1]) for r in TRUTH["ridges"] if r["clear"]])
    assert scores(rep) == (1.0, 1.0)


def test_empty_report_scores_zero():
    assert scores(report([])) == (0.0, 0.0)


def test_rejected_wrinkles_do_not_count():
    rep = report([wrinkle(r["endpoints_m"], accepted=False) for r in TRUTH["ridges"]])
    assert scores(rep) == (0.0, 0.0)


@pytest.mark.parametrize("shift, hit", [(oracle.MATCH_END_M * 0.9, True),
                                        (oracle.MATCH_END_M * 1.1, False)])
def test_ridge_moved_past_tolerance_is_a_miss(shift, hit):
    (x0, y0), (x1, y1) = TRUTH["ridges"][0]["endpoints_m"]
    rep = report([wrinkle([[x0, y0 + shift], [x1, y1 + shift]])])
    recall, precision = scores(rep)
    assert (recall, precision) == ((0.5, 1.0) if hit else (0.0, 0.0))


def test_turned_wrinkle_is_a_miss():
    (x0, y0), (x1, y1) = TRUTH["ridges"][1]["endpoints_m"]
    turn = math.radians(oracle.MATCH_DEG * 1.5)
    c, s = math.cos(turn), math.sin(turn)
    mx, my = (x0 + x1) / 2, (y0 + y1) / 2
    ends = [[mx + c * (x - mx) - s * (y - my), my + s * (x - mx) + c * (y - my)]
            for x, y in ((x0, y0), (x1, y1))]
    assert scores(report([wrinkle(ends)])) == (0.0, 0.0)


def test_on_bump_ridge_lowers_precision_by_its_length():
    rep = report([wrinkle(r["endpoints_m"], wid=i) for i, r in enumerate(TRUTH["ridges"])])
    lengths = [math.dist(*r["endpoints_m"]) for r in TRUTH["ridges"]]
    assert scores(rep) == (1.0, pytest.approx(sum(lengths[:2]) / sum(lengths)))


def test_mask_scores():
    truth = np.zeros((4, 5), bool)
    truth[1, 1:4] = True
    assert oracle.f1(oracle.mask_counts(truth, truth)) == 1.0
    assert oracle.iou(oracle.mask_counts(truth, truth)) == 1.0
    assert oracle.f1(oracle.mask_counts(~truth, truth)) == 0.0
    half = truth.copy()
    half[1, 3] = False
    assert oracle.iou(oracle.mask_counts(half, truth)) == pytest.approx(2 / 3)
    assert oracle.iou(oracle.mask_counts(half, truth, ignore=truth & ~half)) == 1.0


def test_strict_json_refuses_nan():
    assert oracle.strict_json('{"a": [1.5, "inf"]}') == {"a": [1.5, "inf"]}
    with pytest.raises(ValueError):
        oracle.strict_json('{"a": NaN}')


def test_wrinkle_errors():
    good = wrinkle([[0, 0], [0.1, 0]], q=0.5, r=0.7)
    assert oracle.wrinkle_errors(report([good])) == []
    assert oracle.wrinkle_errors(report([dict(good, p=0.36)]))
    assert oracle.wrinkle_errors(report([dict(good, accepted=False)]))


def action(kind, wid, start, end):
    slide = 0.0 if kind == "static" else math.dist(start, end)
    return {"kind": kind, "wrinkle_id": wid, "start_m": start, "end_m": end,
            "slide_len_m": slide}


def test_plan_errors():
    long_ = wrinkle([[0.0, 0.0], [0.5, 0.0]], wid=1)        # 2 pieces of 0.25 m
    short = wrinkle([[0.0, 0.3], [0.1, 0.3]], wid=2)        # one static press
    actions = [action("sliding", 1, [0.0, 0.0], [0.25, 0.0]),
               action("sliding", 1, [0.25, 0.0], [0.5, 0.0]),
               action("static", 2, [0.05, 0.3], [0.05, 0.3])]
    assert oracle.plan_errors(report([long_, short], actions)) == []
    assert oracle.plan_errors(report([long_, short], actions[1:]))
    assert oracle.plan_errors(report([long_, short], actions[:2] + [
        action("sliding", 2, [0.0, 0.3], [0.1, 0.3])]))
    assert oracle.plan_errors(report([long_, dict(short, accepted=False)], actions))


def test_svm_objective_of_zero_model_is_one():
    X = np.eye(3)
    y = np.array([1.0, -1.0, 1.0])
    assert oracle.svm_objective(np.zeros(3), 0.0, X, y, 1e-4) == 1.0
    assert oracle.svm_objective(np.array([1.0, -1.0, 1.0]), 0.0, X, y, 1e-4) < 1.0
