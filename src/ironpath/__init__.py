"""Wrinkle detection and ironing path planning toolkit.

Detects smooth height bumps from a height map (curvature scan), surface
discontinuities from two-light illumination images (discontinuity scan),
fuses both into ranked permanent wrinkles, and emits an ordered ironing plan.
A deterministic synthetic scene generator provides ground truth.
"""

from .gridio import FloatGrid, GrayImage, LabelMask, WorldTransform
from .synth import SceneSpec, BumpSpec, WrinkleSpec, generate_height, ground_truth
from .curvature import HeightBump, detect_bumps
from .mixture import BumpMixture, build_mixture, clearance
from .classify import SvmModel, train
from .discont import Discontinuity, normalize, score_map, extract_segments
from .fusion import FusedWrinkle, fuse
from .planner import IronSpec, IroningPlan, plan_ironing

__version__ = "0.1.0"

__all__ = [
    "FloatGrid", "GrayImage", "LabelMask", "WorldTransform",
    "SceneSpec", "BumpSpec", "WrinkleSpec", "generate_height", "ground_truth",
    "HeightBump", "detect_bumps",
    "BumpMixture", "build_mixture", "clearance",
    "SvmModel", "train",
    "Discontinuity", "normalize", "score_map", "extract_segments",
    "FusedWrinkle", "fuse",
    "IronSpec", "IroningPlan", "plan_ironing",
    "__version__",
]
