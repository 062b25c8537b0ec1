"""Checks of the program's outputs made apart from the program.

The oracle compares a detection report with the planted truth of the scene
(`truth.json` from `scenes.write_scene` and the `synth.ground_truth` label
image), and checks properties every report and model must have.  Nothing
here calls the pipeline stages it judges.
"""

from __future__ import annotations

import json
import math

import numpy as np

# A wrinkle matches a planted ridge when both its ends lie within MATCH_END_M
# of the ridge's ends and its direction within MATCH_DEG of the ridge's.  An
# iron stroke covers half the iron's 0.20 m long axis beyond each of its ends,
# so an end found within 5 cm still irons the whole ridge with room to spare.
# (At 3 cm, sensor noise alone moved found ends across the tolerance.)
MATCH_END_M = 0.05
MATCH_DEG = 5.0


def strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def _direction(ends) -> float:
    (x0, y0), (x1, y1) = ends
    return math.atan2(y1 - y0, x1 - x0) % math.pi


def matches(wrinkle_ends, ridge_ends) -> bool:
    """Endpoint distance (best pairing) and direction agree within tolerance."""
    w = np.asarray(wrinkle_ends, float)
    r = np.asarray(ridge_ends, float)
    end_err = min(max(np.hypot(*(w[0] - r[0])), np.hypot(*(w[1] - r[1]))),
                  max(np.hypot(*(w[0] - r[1])), np.hypot(*(w[1] - r[0]))))
    dang = abs((_direction(w) - _direction(r) + math.pi / 2) % math.pi - math.pi / 2)
    return end_err <= MATCH_END_M and math.degrees(dang) <= MATCH_DEG


def ridge_counts(report: dict, truth: dict) -> dict:
    """Tallies behind ridge_recall and wrinkle_precision for one scene.

    recall: clear ridges matched by an accepted wrinkle, over clear ridges.
    precision: accepted wrinkle length matching a clear ridge, over all
    accepted wrinkle length.  Length, not count, because an ironing stroke
    costs time in proportion to it; counted, the short fragments that sensor
    noise makes swung precision by 9 % of its median between seeds.
    """
    clear = [r["endpoints_m"] for r in truth["ridges"] if r["clear"]]
    accepted = [w for w in report["wrinkles"] if w["accepted"]]
    return {
        "clear": len(clear),
        "found": sum(any(matches(w["endpoints_m"], r) for w in accepted) for r in clear),
        "accepted_m": sum(w["length_m"] for w in accepted),
        "true_m": sum(w["length_m"] for w in accepted
                      if any(matches(w["endpoints_m"], r) for r in clear)),
    }


def ratio(num: int, den: int) -> float:
    """num/den, and 0 for an empty denominator (nothing found scores 0)."""
    return num / den if den else 0.0


def mask_counts(pred: np.ndarray, truth: np.ndarray, ignore: np.ndarray | None = None) -> dict:
    """True-positive, predicted and true pixel counts, outside `ignore`."""
    keep = ~ignore if ignore is not None else np.ones(truth.shape, bool)
    p, t = pred & keep, truth & keep
    return {"tp": int(np.count_nonzero(p & t)), "pred": int(np.count_nonzero(p)),
            "true": int(np.count_nonzero(t))}


def f1(c: dict) -> float:
    return ratio(2 * c["tp"], c["pred"] + c["true"])


def iou(c: dict) -> float:
    return ratio(c["tp"], c["pred"] + c["true"] - c["tp"])


def wrinkle_errors(report: dict) -> list[str]:
    """Every wrinkle has p == q*r and is accepted exactly when p >= p_min."""
    p_min = report["config"]["p_min"]
    errs = []
    for w in report["wrinkles"]:
        if w["p"] != w["q"] * w["r"]:
            errs.append(f"wrinkle {w['id']}: p {w['p']!r} != q*r {w['q'] * w['r']!r}")
        if w["accepted"] != (w["p"] >= p_min):
            errs.append(f"wrinkle {w['id']}: accepted={w['accepted']} with p={w['p']!r}")
    return errs


def plan_errors(report: dict) -> list[str]:
    """Each accepted wrinkle of length L is ironed in n = ceil(L / 2a) equal
    pieces (n = 1 when L <= 2a, a the iron's long axis); a piece is static
    exactly when it is shorter than 0.7 a; rejected wrinkles are not ironed."""
    a = report["config"]["iron_long_axis_m"]
    actions = report["plan"]["actions"]
    errs = []
    accepted = {w["id"]: w for w in report["wrinkles"] if w["accepted"]}
    for wid in {act["wrinkle_id"] for act in actions} - set(accepted):
        errs.append(f"plan irons wrinkle {wid}, which is not accepted")
    for wid, w in accepted.items():
        length = w["length_m"]
        n = 1 if length <= 2 * a else math.ceil(length / (2 * a))
        piece = length / n
        mine = [act for act in actions if act["wrinkle_id"] == wid]
        if len(mine) != n:
            errs.append(f"wrinkle {wid}: {len(mine)} pieces, expected {n}")
        for act in mine:
            static = act["kind"] == "static"
            if static != (piece < 0.7 * a):
                errs.append(f"wrinkle {wid}: {act['kind']} piece of {piece:.4f} m")
            if static and act["start_m"] != act["end_m"]:
                errs.append(f"wrinkle {wid}: static piece moves")
            if not static and not (math.isclose(act["slide_len_m"], piece, rel_tol=1e-9)
                                   and act["slide_len_m"] <= 2 * a * (1 + 1e-12)):
                errs.append(f"wrinkle {wid}: slide of {act['slide_len_m']!r} m, "
                            f"piece {piece!r} m, limit {2 * a} m")
    return errs


def svm_objective(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray,
                  reg_lambda: float) -> float:
    """Pegasos' primal objective: lambda/2 |w|^2 + mean hinge loss."""
    hinge = np.maximum(0.0, 1.0 - y * (X @ weights + bias))
    return 0.5 * reg_lambda * float(weights @ weights) + float(hinge.mean())
