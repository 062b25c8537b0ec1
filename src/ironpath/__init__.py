"""Wrinkle detection and ironing path planning toolkit.

Detects smooth height bumps from a height map (curvature scan), surface
discontinuities from two-light illumination images (discontinuity scan),
fuses both into ranked permanent wrinkles, and emits an ordered ironing plan.
A deterministic synthetic scene generator provides ground truth.
"""
