"""Deterministic synthetic scene generator and Lambertian renderer.

Produces height maps with planted smooth bumps and sharp ridge wrinkles, the
two-light illumination images, flat-cloth reference images, and ground-truth
label masks.  Everything is a pure function of the scene spec: noise comes
from a counter-based hash keyed on (seed, stream, pixel index), so output is
bit-identical regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gridio import (FloatGrid, LabelMask, WorldTransform, LABEL_BACKGROUND, LABEL_WRINKLE,
                     LABEL_BUMP)

_MASK64 = (1 << 64) - 1


@dataclass
class BumpSpec:
    center: tuple[float, float]          # world meters
    sigma_major: float                   # meters
    sigma_minor: float
    orientation: float                   # radians, major axis direction
    peak_height: float                   # meters


@dataclass
class WrinkleSpec:
    polyline: list[tuple[float, float]]  # world meters, >= 2 points
    ridge_half_width: float              # meters
    ridge_height: float


@dataclass
class LightSpec:
    direction: tuple[float, float, float]  # unit vector, z > 0
    intensity: float = 1.0


@dataclass
class NoiseSpec:
    height_sigma: float = 0.0            # meters
    image_sigma: float = 0.0             # intensity units


def _default_lights():
    # Asymmetric elevations on purpose: equal elevations make the
    # root-sum-square combination cancel ridge contrast near 45 degrees.
    return (LightSpec((math.sin(1.0), 0.0, math.cos(1.0)), 1.0),
            LightSpec((0.0, math.sin(0.7), math.cos(0.7)), 1.0))


@dataclass
class SceneSpec:
    width: int
    height: int
    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)
    bumps: list[BumpSpec] = field(default_factory=list)
    wrinkles: list[WrinkleSpec] = field(default_factory=list)
    albedo: float | np.ndarray = 0.8       # scalar or per-pixel (height, width)
    lights: tuple[LightSpec, LightSpec] = field(default_factory=_default_lights)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def validate(self) -> None:
        if self.width < 3 or self.height < 3:
            raise ValueError("scene must be at least 3x3 pixels")
        WorldTransform(self.cell_size, self.origin)     # the frame check
        if isinstance(self.albedo, np.ndarray) and self.albedo.shape != (self.height, self.width):
            raise ValueError(f"per-pixel albedo must be (height, width), "
                             f"got {self.albedo.shape}")
        if not np.all(np.isfinite(self.albedo) & (np.asarray(self.albedo) >= 0)):
            raise ValueError("albedo must be finite and >= 0")
        for name in ("height_sigma", "image_sigma"):
            sigma = getattr(self.noise, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"noise {name} must be finite and >= 0, got {sigma}")
        for b in self.bumps:
            _check_finite("bump", *b.center, b.sigma_major, b.sigma_minor, b.orientation,
                          b.peak_height)
            if not (b.sigma_major >= b.sigma_minor > 0):
                raise ValueError(f"bump sigmas must satisfy major >= minor > 0, got "
                                 f"{b.sigma_major}/{b.sigma_minor}")
        for wk in self.wrinkles:
            _check_finite("wrinkle", wk.ridge_half_width, wk.ridge_height,
                          *(c for point in wk.polyline for c in point))
            if not (wk.ridge_half_width > 0):
                raise ValueError("ridge_half_width must be > 0")
            if len(wk.polyline) < 2:
                raise ValueError("wrinkle polyline needs at least 2 points")
        if len(self.lights) != 2:
            raise ValueError("exactly two lights required")
        for li in self.lights:
            _check_finite("light", *li.direction, li.intensity)
            d = np.asarray(li.direction, float)
            if abs(np.linalg.norm(d) - 1.0) > 1e-6:
                raise ValueError(f"light direction must be unit-norm, got {li.direction}")
            if d[2] <= 0:
                raise ValueError("light direction must have positive z component")


def _check_finite(what: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} values must be finite, got {values}")


# --- counter-based noise ---

def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def unit_normals(seed: int, stream: int, n: int) -> np.ndarray:
    """n standard normals, a pure function of (seed, stream, index)."""
    key = (seed ^ (stream * 0xD1B54A32D192ED03)) & _MASK64
    idx = np.arange(n, dtype=np.uint64) ^ np.uint64(key)
    h1 = _splitmix64(idx)
    h2 = _splitmix64(h1 ^ np.uint64(0x9E3779B97F4A7C15))
    u1 = ((h1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53   # (0, 1]
    u2 = (h2 >> np.uint64(11)).astype(np.float64) * 2.0**-53           # [0, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _world_coords(spec: SceneSpec):
    t = WorldTransform(spec.cell_size, spec.origin)
    return np.meshgrid(*t.pixel_to_world(np.arange(spec.width), np.arange(spec.height)))


def _bump_field(b: BumpSpec, X, Y) -> np.ndarray:
    dx, dy = X - b.center[0], Y - b.center[1]
    ct, st = math.cos(b.orientation), math.sin(b.orientation)
    xm = ct * dx + st * dy
    ym = -st * dx + ct * dy
    return np.exp(-0.5 * ((xm / b.sigma_major) ** 2 + (ym / b.sigma_minor) ** 2))


def _polyline_distance(wk: WrinkleSpec, X, Y) -> np.ndarray:
    d = np.full(X.shape, np.inf)
    for a, b in zip(wk.polyline[:-1], wk.polyline[1:]):
        ax, ay = a
        bx, by = b
        abx, aby = bx - ax, by - ay
        L2 = abx * abx + aby * aby
        if L2 == 0.0:
            d = np.minimum(d, np.hypot(X - ax, Y - ay))
            continue
        t = np.clip(((X - ax) * abx + (Y - ay) * aby) / L2, 0.0, 1.0)
        d = np.minimum(d, np.hypot(X - (ax + t * abx), Y - (ay + t * aby)))
    return d


def generate_height(spec: SceneSpec) -> FloatGrid:
    """Height = sum of bump Gaussians + sum of cos^2 ridge profiles + noise."""
    spec.validate()
    X, Y = _world_coords(spec)
    z = np.zeros((spec.height, spec.width))
    for b in spec.bumps:
        z += b.peak_height * _bump_field(b, X, Y)
    for wk in spec.wrinkles:
        d = _polyline_distance(wk, X, Y)
        inside = d <= wk.ridge_half_width
        prof = np.cos(np.pi * d[inside] / (2.0 * wk.ridge_half_width)) ** 2
        z[inside] += wk.ridge_height * prof
    if spec.noise.height_sigma > 0:
        z += spec.noise.height_sigma * unit_normals(spec.seed, 1, z.size).reshape(z.shape)
    return FloatGrid(z, spec.cell_size, spec.origin)


def surface_normals(height: np.ndarray, cell_size: float) -> np.ndarray:
    """Unit normals from central-difference gradients, symmetric boundaries
    (the edge sample repeats)."""
    zp = np.pad(height, 1, mode="symmetric")
    gx = (zp[1:-1, 2:] - zp[1:-1, :-2]) / (2.0 * cell_size)
    gy = (zp[2:, 1:-1] - zp[:-2, 1:-1]) / (2.0 * cell_size)
    inv = 1.0 / np.sqrt(gx * gx + gy * gy + 1.0)
    return np.stack([-gx * inv, -gy * inv, inv], axis=-1)


def _light_vector(spec: SceneSpec, light_index: int) -> np.ndarray:
    """s = direction * intensity of light 1 or 2."""
    if light_index not in (1, 2):
        raise ValueError(f"light_index must be 1 or 2, got {light_index}")
    li = spec.lights[light_index - 1]
    return np.asarray(li.direction, float) * li.intensity


def render_illumination(height: FloatGrid, spec: SceneSpec, light_index: int) -> np.ndarray:
    """Lambertian render I = clamp(albedo * max(0, n.s), 0, 1) + noise, as an
    (h, w) array.

    light_index is 1 or 2.  Noise streams differ per light so the two images
    are independent; output is re-clamped to keep intensities in [0, 1].
    """
    s = _light_vector(spec, light_index)
    n = surface_normals(np.asarray(height.data, np.float64), height.cell_size)
    img = np.clip(spec.albedo * np.maximum(n @ s, 0.0), 0.0, 1.0)
    if spec.noise.image_sigma > 0:
        img += spec.noise.image_sigma * unit_normals(
            spec.seed, 10 + light_index, img.size).reshape(img.shape)
        img = np.clip(img, 0.0, 1.0)
    return img


def render_reference(spec: SceneSpec, light_index: int) -> np.ndarray:
    """Flat-cloth calibration capture: the scene rendered with zero height and
    no noise, as an (h, w) array.  The flat normal is (0, 0, 1), so n.s is the
    light's z component."""
    s_z = _light_vector(spec, light_index)[2]
    return np.clip(np.broadcast_to(spec.albedo * max(s_z, 0.0), (spec.height, spec.width)),
                   0.0, 1.0)


def ground_truth(spec: SceneSpec) -> LabelMask:
    """Wrinkle within ridge_half_width of a polyline; bump where any Gaussian
    exceeds 10% of its peak; wrinkle wins ties."""
    spec.validate()
    X, Y = _world_coords(spec)
    lab = np.full((spec.height, spec.width), LABEL_BACKGROUND, np.uint8)
    for b in spec.bumps:
        lab[_bump_field(b, X, Y) > 0.1] = LABEL_BUMP
    for wk in spec.wrinkles:
        lab[_polyline_distance(wk, X, Y) <= wk.ridge_half_width] = LABEL_WRINKLE
    return LabelMask(lab)


# --- scene file parsing ---

_SCALARS = {
    "width": int, "height": int, "cell_size": float, "seed": int,
    "albedo": float, "height_noise": float, "image_noise": float,
    "origin_x": float, "origin_y": float,
}


def load_scene(path) -> SceneSpec:
    """Parse the plain-text scene file (see README for the format)."""
    # the defaults of the SceneSpec and NoiseSpec fields the scalars set
    vals = {"origin_x": SceneSpec.origin[0], "origin_y": SceneSpec.origin[1],
            "seed": SceneSpec.seed, "albedo": SceneSpec.albedo,
            "height_noise": NoiseSpec.height_sigma, "image_noise": NoiseSpec.image_sigma}
    bumps: list[BumpSpec] = []
    wrinkles: list[WrinkleSpec] = []
    lights: list[LightSpec] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *args = line.split()
            try:
                if key in _SCALARS:
                    if len(args) != 1:
                        raise ValueError("expected one value")
                    vals[key] = _SCALARS[key](args[0])
                elif key == "light":
                    x, y, z, inten = map(float, args)
                    d = np.array([x, y, z])
                    nrm = np.linalg.norm(d)
                    if nrm == 0:
                        raise ValueError("zero light direction")
                    lights.append(LightSpec(tuple(d / nrm), inten))
                elif key == "bump":
                    cx, cy, smaj, smin, orient, peak = map(float, args)
                    bumps.append(BumpSpec((cx, cy), smaj, smin, orient, peak))
                elif key == "wrinkle":
                    nums = list(map(float, args))
                    if len(nums) < 6 or len(nums) % 2 != 0:
                        raise ValueError("expected half_width height x1 y1 x2 y2 ...")
                    pts = list(zip(nums[2::2], nums[3::2]))
                    wrinkles.append(WrinkleSpec(pts, nums[0], nums[1]))
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
    for req in ("width", "height", "cell_size"):
        if req not in vals:
            raise ValueError(f"{path}: missing required key {req!r}")
    spec = SceneSpec(
        width=vals["width"], height=vals["height"], cell_size=vals["cell_size"],
        origin=(vals["origin_x"], vals["origin_y"]),
        bumps=bumps, wrinkles=wrinkles, albedo=vals["albedo"],
        lights=tuple(lights) if lights else _default_lights(),
        noise=NoiseSpec(vals["height_noise"], vals["image_noise"]),
        seed=vals["seed"])
    spec.validate()
    return spec
