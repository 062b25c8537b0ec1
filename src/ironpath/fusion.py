"""Fuse clearance and classifier confidence into ranked permanent wrinkles.

A discontinuity's probability of being a permanent wrinkle is the product of
its bump clearance Q and its mean supporting-pixel score R; candidates are
accepted when the product reaches p_min and returned sorted by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discont import Discontinuity
from .mixture import MixtureComponent, clearance


@dataclass
class FusedWrinkle:
    discontinuity: Discontinuity
    q: float                  # clearance from bumps, [0, 1]
    r: float                  # mean supporting score
    p: float                  # q * r
    accepted: bool


def confidence(d: Discontinuity) -> float:
    """R = mean classifier score over the supporting pixels."""
    if len(d.scores) == 0:
        raise ValueError(f"discontinuity {d.id} has no supporting pixels")
    return float(np.mean(d.scores))


def fuse_one(d: Discontinuity, q: float, r: float, p_min: float) -> FusedWrinkle:
    """The fusion rule: p = q * r, accepted when p reaches p_min."""
    p = q * r
    return FusedWrinkle(d, q, r, p, p >= p_min)


def fuse(ds: list[Discontinuity], mix: list[MixtureComponent],
         p_min: float) -> list[FusedWrinkle]:
    """Score every discontinuity; sort by p descending, ties broken by id."""
    fused = [fuse_one(d, clearance(mix, d.endpoints), confidence(d), p_min) for d in ds]
    fused.sort(key=lambda f: (-f.p, f.discontinuity.id))
    return fused
