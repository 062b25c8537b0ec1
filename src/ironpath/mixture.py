"""Bump-clearance model: per-bump Gaussians and the clearance score Q.

Each detected bump contributes an unnormalized (peak 1) Gaussian around its
center.  The clearance of a candidate wrinkle segment is the mean, over
equally spaced sample points, of the product over bumps of
(1 - proximity); an empty mixture gives clearance 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .curvature import HeightBump

log = logging.getLogger(__name__)


@dataclass
class MixtureComponent:
    mean: np.ndarray          # (2,) world meters
    cov: np.ndarray           # (2, 2) SPD, m^2
    prec: np.ndarray = field(init=False)      # inverse of cov

    def __post_init__(self):
        self.mean = np.asarray(self.mean, float)
        self.cov = np.asarray(self.cov, float)
        self.prec = np.linalg.inv(self.cov)


@dataclass
class BumpMixture:
    components: list[MixtureComponent] = field(default_factory=list)


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def build_mixture(bumps: list[HeightBump]) -> BumpMixture:
    """One component per bump: cov = R(orientation) diag(d1^2, d2^2) R^T.

    Bumps whose covariance is not SPD (d2 == 0, or non-finite axes) are
    rejected with a diagnostic.
    """
    comps = []
    for b in bumps:
        R = _rotation(b.orientation)
        cov = R @ np.diag([b.d1**2, b.d2**2]) @ R.T
        ev = np.linalg.eigvalsh(cov)
        if not np.all(np.isfinite(cov)) or ev.min() <= 0:
            log.warning("bump %d rejected: covariance not SPD (d1=%g d2=%g)",
                        b.id, b.d1, b.d2)
            continue
        comps.append(MixtureComponent(np.asarray(b.center), cov))
    return BumpMixture(comps)


def proximity(c: MixtureComponent, pts: np.ndarray) -> np.ndarray:
    """exp(-0.5 * (p-mu)^T Sigma^-1 (p-mu)) for each row p of `pts`: 1 at the
    bump center, ->0 far away."""
    d = pts - c.mean
    return np.exp(-0.5 * np.einsum("ni,ij,nj->n", d, c.prec, d))


def clearance(mix: BumpMixture, endpoints, samples: int = 16) -> float:
    """Q for a segment given as ((x0, y0), (x1, y1)) world endpoints.

    Mean over `samples` equally spaced points (endpoints included) of
    prod_j (1 - proximity_j).  Empty mixture => 1.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if not mix.components:
        return 1.0
    p0 = np.asarray(endpoints[0], float)
    p1 = np.asarray(endpoints[1], float)
    t = np.linspace(0.0, 1.0, samples)[:, None]
    pts = p0[None, :] * (1.0 - t) + p1[None, :] * t
    keep = np.ones(samples)
    for c in mix.components:
        keep *= 1.0 - proximity(c, pts)
    return float(keep.mean())
