"""Static SVG overlay of a detection's mixture, fused wrinkles and plan.

Layers: height-map heat image (embedded PNG), bump ellipses at 1 and 2 sigma,
wrinkle segments colored by fused probability, and plan arrows with order
labels.  The SVG is drawn from these pipeline objects alone (cli reads them
from a report), so visualization can never influence detection results.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib

import numpy as np

from .fusion import FusedWrinkle
from .gridio import FloatGrid
from .planner import STATIC


def _png_rgb(rgb: np.ndarray) -> bytes:
    """Minimal RGB8 PNG encoder (no dependencies)."""
    h, w, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[row].tobytes() for row in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 9)) + chunk(b"IEND", b""))


def _heat_rgb(z: np.ndarray) -> np.ndarray:
    """Blue-to-red ramp over the height range."""
    lo, hi = float(z.min()), float(z.max())
    t = np.zeros_like(z, np.float64) if hi <= lo else (z - lo) / (hi - lo)
    r = np.clip(1.5 - np.abs(4.0 * t - 3.0), 0, 1)
    g = np.clip(1.5 - np.abs(4.0 * t - 2.0), 0, 1)
    b = np.clip(1.5 - np.abs(4.0 * t - 1.0), 0, 1)
    return (np.stack([r, g, b], axis=-1) * 255.0).astype(np.uint8)


def _p_color(p: float) -> str:
    """Red (p=0) to green (p=1)."""
    p = min(max(p, 0.0), 1.0)
    return f"#{int(255 * (1 - p)):02x}{int(255 * p):02x}30"


def render_overlay(mixture: list, wrinkles: list[FusedWrinkle], actions: list,
                   height: FloatGrid) -> str:
    """Build the SVG document text for the mixture's (mean, cov) components,
    the fused wrinkles and the plan's (kind, start, end) actions."""
    h, w = height.data.shape
    cell = height.cell_size
    px = height.transform.world_to_pixel
    png = base64.b64encode(_png_rgb(_heat_rgb(np.asarray(height.data)))).decode("ascii")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="white"/></marker></defs>',
        f'<image x="0" y="0" width="{w}" height="{h}" '
        f'href="data:image/png;base64,{png}"/>',
    ]
    for mean, cov in mixture:
        mx, my = px(*mean)
        ev, evec = np.linalg.eigh(np.asarray(cov))
        a = math.sqrt(max(ev[1], 0.0)) / cell
        b = math.sqrt(max(ev[0], 0.0)) / cell
        ang = math.degrees(math.atan2(evec[1, 1], evec[0, 1]))
        for k, op in ((1, 0.9), (2, 0.45)):
            parts.append(
                f'<ellipse cx="0" cy="0" rx="{k * a:.2f}" ry="{k * b:.2f}" '
                f'fill="none" stroke="#00c8ff" stroke-opacity="{op}" '
                f'stroke-width="1.2" '
                f'transform="translate({mx:.2f} {my:.2f}) rotate({ang:.2f})"/>')
    for wk in wrinkles:
        (x0, y0), (x1, y1) = wk.discontinuity.endpoints
        u0, v0 = px(x0, y0)
        u1, v1 = px(x1, y1)
        dash = '' if wk.accepted else ' stroke-dasharray="4 3"'
        parts.append(
            f'<line x1="{u0:.2f}" y1="{v0:.2f}" x2="{u1:.2f}" y2="{v1:.2f}" '
            f'stroke="{_p_color(wk.p)}" stroke-width="2"{dash}/>')
    for i, (kind, start, end) in enumerate(actions):
        u0, v0 = px(*start)
        u1, v1 = px(*end)
        if kind == STATIC:
            parts.append(f'<circle cx="{u0:.2f}" cy="{v0:.2f}" r="3" '
                         f'fill="none" stroke="white" stroke-width="1.5"/>')
        else:
            parts.append(f'<line x1="{u0:.2f}" y1="{v0:.2f}" x2="{u1:.2f}" '
                         f'y2="{v1:.2f}" stroke="white" stroke-width="1.5" '
                         f'marker-end="url(#arrow)"/>')
        parts.append(f'<text x="{u0 + 4:.2f}" y="{v0 - 4:.2f}" fill="white" '
                     f'font-size="10">{i + 1}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
