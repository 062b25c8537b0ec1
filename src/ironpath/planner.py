"""Turn accepted wrinkles into an executable ironing plan.

Long wrinkles are split to at most twice the iron's long axis, short ones get
a static press and the rest a sliding stroke, actions are ordered greedily by
nearest endpoint starting from the highest-probability wrinkle, and waypoints
are generated against the surface height with a fixed press depth into the
foam underlay (force = stiffness * depth in the spring model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .fusion import FusedWrinkle
from .gridio import FloatGrid

STATIC = "static"
SLIDING = "sliding"
# how far, in pixels, _surface_z accepts a point past the grid's edge
EDGE_TOL_PX = 1e-9


@dataclass
class IronSpec:
    long_axis: float = field(default=0.20, metadata={"key": "iron_long_axis_m"})  # V-head axis
    short_axis: float = field(default=0.10, metadata={"key": "iron_short_axis_m"})
    press_depth: float = field(default=0.01, metadata={"key": "press_depth_m"})  # below the cloth
    # reporting only
    foam_stiffness: float = field(default=1200.0, metadata={"key": "foam_stiffness_n_per_m"})
    foam_thickness: float = field(default=0.06, metadata={"key": "foam_thickness_m"})
    lift_height: float = field(default=0.05, metadata={"key": "lift_height_m"})
    travel_speed: float = field(default=0.20, metadata={"key": "travel_speed_m_per_s"})
    slide_speed: float = field(default=0.10, metadata={"key": "slide_speed_m_per_s"})

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and > 0, got {getattr(self, f.name)}")
        if not self.long_axis > self.short_axis:
            raise ValueError("require long_axis > short_axis")
        if not self.press_depth < self.foam_thickness:
            raise ValueError("require press_depth < foam_thickness")


@dataclass
class IronAction:
    kind: str                        # STATIC or SLIDING
    wrinkle_id: int
    align_angle: float               # radians, iron head along the wrinkle axis
    start: tuple[float, float]       # world meters; start == end for static
    end: tuple[float, float]
    travel_leg: float                # meters from the previous position
    slide_len: float                 # meters, 0 for static
    duration: float                  # seconds, estimate
    force: float                     # newtons, foam_stiffness * press_depth


@dataclass
class Waypoint:
    t: float
    x: float
    y: float
    z: float
    angle: float
    kind: str                        # approach | press | slide | retract


@dataclass
class IroningPlan:
    actions: list[IronAction]
    total_travel: float              # meters of xy path from home, slides included
    total_time: float                # seconds


def split_wrinkle(w: FusedWrinkle, iron: IronSpec) -> list[FusedWrinkle]:
    """Break a wrinkle longer than twice the iron into equal collinear pieces.

    The bound is inclusive: length exactly 2 * long_axis stays unsplit.
    Pieces inherit (q, r, p), the acceptance flag and the wrinkle's pixels
    and scores; each has its own endpoints and length.
    """
    d = w.discontinuity
    limit = 2.0 * iron.long_axis
    if d.length <= limit:
        return [w]
    n = math.ceil(d.length / limit)
    p0 = np.asarray(d.endpoints[0], float)
    axis = (np.asarray(d.endpoints[1], float) - p0) / d.length
    pieces = []
    for i in range(n):
        a = p0 + axis * (d.length * i / n)
        b = p0 + axis * (d.length * (i + 1) / n)
        piece = replace(d, endpoints=(tuple(a), tuple(b)), length=d.length / n)
        pieces.append(replace(w, discontinuity=piece))
    return pieces


def select_motion(w: FusedWrinkle, iron: IronSpec) -> str:
    """Static press iff the wrinkle is shorter than 70% of the iron's long axis."""
    return STATIC if w.discontinuity.length < 0.7 * iron.long_axis else SLIDING


def _entry_points(w: FusedWrinkle, iron: IronSpec):
    """Candidate entry points: both endpoints for sliding, midpoint for static."""
    d = w.discontinuity
    if select_motion(w, iron) == STATIC:
        mid = d.midpoint
        return [(mid, mid)]
    return [(d.endpoints[0], d.endpoints[1]), (d.endpoints[1], d.endpoints[0])]


def order_actions(ws: list[FusedWrinkle], iron: IronSpec,
                  home: tuple[float, float]) -> IroningPlan:
    """Greedy nearest-endpoint ordering starting from the highest-p wrinkle.

    The first wrinkle is entered at the point nearer home; afterwards the
    iron repeatedly moves to the closest entry point of an unvisited wrinkle.
    Ties break by wrinkle id, then entry index.
    """
    remaining = sorted(range(len(ws)), key=lambda i: (-ws[i].p, ws[i].discontinuity.id, i))
    entries = [_entry_points(w, iron) for w in ws]
    actions: list[IronAction] = []
    pos = np.asarray(home, float)
    total_travel = 0.0
    total_time = 0.0
    while remaining:
        pool = remaining if actions else remaining[:1]
        i, e = min(((i, e) for i in pool for e in range(len(entries[i]))), key=lambda ie: (
            math.hypot(*(np.asarray(entries[ie[0]][ie[1]][0]) - pos)),
            ws[ie[0]].discontinuity.id, ie[1]))
        w = ws[i]
        start, end = entries[i][e]
        kind = select_motion(w, iron)
        travel = float(math.hypot(start[0] - pos[0], start[1] - pos[1]))
        slide = 0.0 if kind == STATIC else w.discontinuity.length
        duration = (travel / iron.travel_speed + slide / iron.slide_speed
                    + 2.0 * (iron.lift_height + iron.press_depth) / iron.travel_speed)
        actions.append(IronAction(
            kind=kind, wrinkle_id=w.discontinuity.id,
            align_angle=w.discontinuity.direction % math.pi,
            start=tuple(start), end=tuple(end),
            travel_leg=travel, slide_len=slide, duration=duration,
            force=iron.foam_stiffness * iron.press_depth))
        total_travel += travel + slide
        total_time += duration
        pos = np.asarray(end, float)
        remaining.remove(i)
    return IroningPlan(actions, total_travel, total_time)


def _surface_z(surface: FloatGrid, x: float, y: float) -> float:
    """Bilinear height sample; raises when (x, y) leaves the grid by more
    than EDGE_TOL_PX.  A point within it is clamped onto the grid: the world
    point of an edge pixel maps back a rounding error past it."""
    u, v = surface.transform.world_to_pixel(x, y)
    d = surface.data
    h, w = d.shape
    tol = EDGE_TOL_PX
    if not (-tol <= u <= w - 1 + tol and -tol <= v <= h - 1 + tol):
        raise ValueError(f"point ({x:.4f}, {y:.4f}) outside the surface grid")
    u, v = min(max(u, 0.0), w - 1), min(max(v, 0.0), h - 1)
    u0, v0 = int(math.floor(u)), int(math.floor(v))
    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
    fu, fv = u - u0, v - v0
    top = (1 - fu) * d[v0, u0] + fu * d[v0, u1]
    bot = (1 - fu) * d[v1, u0] + fu * d[v1, u1]
    return float((1 - fv) * top + fv * bot)


def emit_waypoints(plan: IroningPlan, iron: IronSpec,
                   surface: FloatGrid) -> list[list[Waypoint]]:
    """Approach / press / (slide) / retract waypoints per action.

    z follows the local surface height: press waypoints sit press_depth below
    it, approach and retract waypoints lift_height above it.  Waypoint times
    accumulate with travel and vertical moves at travel_speed and slides at
    slide_speed, matching the plan's duration estimates.
    """
    out = []
    t = 0.0
    vert = (iron.lift_height + iron.press_depth) / iron.travel_speed
    for a in plan.actions:
        zs = _surface_z(surface, *a.start)
        ze = _surface_z(surface, *a.end)
        t += a.travel_leg / iron.travel_speed
        wps = [Waypoint(t, a.start[0], a.start[1], zs + iron.lift_height,
                        a.align_angle, "approach")]
        t += vert
        wps.append(Waypoint(t, a.start[0], a.start[1], zs - iron.press_depth,
                            a.align_angle, "press"))
        if a.kind == SLIDING:
            t += a.slide_len / iron.slide_speed
            wps.append(Waypoint(t, a.end[0], a.end[1], ze - iron.press_depth,
                                a.align_angle, "slide"))
        t += vert
        wps.append(Waypoint(t, a.end[0], a.end[1], ze + iron.lift_height,
                            a.align_angle, "retract"))
        out.append(wps)
    return out


def plan_ironing(fused: list[FusedWrinkle], iron: IronSpec, home: tuple[float, float],
                 surface: Optional[FloatGrid] = None):
    """Split accepted wrinkles, order greedily, and (optionally) emit waypoints."""
    accepted = [f for f in fused if f.accepted]
    pieces = []
    for f in accepted:
        pieces.extend(split_wrinkle(f, iron))
    # pieces keep their parent wrinkle id; actions reference it
    plan = order_actions(pieces, iron, home)
    waypoints = emit_waypoints(plan, iron, surface) if surface is not None else None
    return plan, waypoints
