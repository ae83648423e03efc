"""Deterministic SVG and ASCII rendering of tilings.

Rectangle tilings render as colored polylines over a lattice grid; interval
tilings render as a one-row strip with one color per tile. Colors come from a
seeded generator, so output bytes depend only on the input and the render spec.
"""

from __future__ import annotations

import colorsys
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import PreconditionError
from .types import IntervalTiling, RectangleTiling, Tiles

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class RenderSpec:
    target: str = "svg"  # "svg" | "ascii"
    cell_size: int = 24
    seed: int = 0
    max_points: int = 200  # interval strips longer than this are truncated

    def __post_init__(self):
        if self.target not in ("svg", "ascii"):
            raise PreconditionError("target must be 'svg' or 'ascii'")
        for name, least in (("cell_size", 2), ("max_points", 1)):
            if getattr(self, name) < least:
                raise PreconditionError(f"{name} must be >= {least}, got {getattr(self, name)}")


def _palette(indices: Iterable[int], seed: int) -> dict[int, str]:
    """The colour of each given tile or path index: hues a golden ratio
    apart, from a seeded start, so a colour depends on its index alone."""
    h0 = random.Random(seed).random()
    colors = {}
    for i in indices:
        r, g, b = colorsys.hls_to_rgb((h0 + i * _GOLDEN) % 1.0, 0.45, 0.8)
        colors[i] = f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"
    return colors


def _shown_points(tiles: Tiles, shown: int) -> Iterator[tuple[int, int]]:
    """(point, tile index) for each point in [0, shown), in tile order,
    read from the CSR arrays without building a tile."""
    at = np.flatnonzero((tiles.values >= 0) & (tiles.values < shown))
    owners = np.searchsorted(tiles.offsets, at, side="right") - 1
    return zip(tiles.values[at].tolist(), owners.tolist())


def render_rectangle_svg(rect: RectangleTiling, spec: RenderSpec) -> str:
    if not rect.paths:
        raise PreconditionError("nothing to render: no paths")
    s = spec.cell_size
    pad = s
    w_px = (rect.width - 1) * s + 2 * pad
    h_px = (rect.height - 1) * s + 2 * pad
    colors = _palette(range(len(rect.paths)), spec.seed)

    def px(x: int, y: int) -> tuple[float, float]:
        return pad + x * s, pad + (rect.height - 1 - y) * s

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<rect width="{w_px}" height="{h_px}" fill="white"/>',
    ]
    for x in range(rect.width):
        x0, y0 = px(x, 0)
        x1, y1 = px(x, rect.height - 1)
        out.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#dddddd" stroke-width="1"/>'
        )
    for y in range(rect.height):
        x0, y0 = px(0, y)
        x1, y1 = px(rect.width - 1, y)
        out.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#dddddd" stroke-width="1"/>'
        )
    for i, path in enumerate(rect.paths):
        pts = " ".join(f"{px(x, y)[0]},{px(x, y)[1]}" for x, y in path.points)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{colors[i]}" stroke-width="3"/>'
        )
        for x, y in path.points:
            cx, cy = px(x, y)
            out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{colors[i]}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_interval_svg(tiling: IntervalTiling, spec: RenderSpec) -> str:
    if not tiling.tiles:
        raise PreconditionError("nothing to render: no tiles")
    s = spec.cell_size
    shown = min(tiling.length, spec.max_points)
    truncated = shown < tiling.length
    owner = dict(_shown_points(tiling.tiles, shown))  # the last tile over a point wins
    colors = _palette(set(owner.values()), spec.seed)
    w_px = shown * s + (s if truncated else 0)
    h_px = s
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">'
    ]
    for p in range(shown):
        fill = colors[owner[p]] if p in owner else "#ffffff"
        out.append(
            f'<rect x="{p * s}" y="0" width="{s}" height="{s}" fill="{fill}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
    if truncated:
        out.append(
            f'<text x="{shown * s + s // 4}" y="{int(s * 0.7)}" font-size="{int(s * 0.6)}">'
            f"… +{tiling.length - shown}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_rectangle_ascii(rect: RectangleTiling) -> str:
    if not rect.paths:
        raise PreconditionError("nothing to render: no paths")
    grid = [["." for _ in range(rect.width)] for _ in range(rect.height)]
    for i, path in enumerate(rect.paths):
        ch = _LETTERS[i % len(_LETTERS)]
        for x, y in path.points:
            if 0 <= x < rect.width and 0 <= y < rect.height:
                grid[y][x] = ch if grid[y][x] == "." else "#"
    rows = ["".join(grid[y]) for y in range(rect.height - 1, -1, -1)]
    return "\n".join(rows) + "\n"


def render_interval_ascii(tiling: IntervalTiling, max_points: int = 200) -> str:
    if not tiling.tiles:
        raise PreconditionError("nothing to render: no tiles")
    shown = min(tiling.length, max_points)
    line = ["."] * shown
    for p, i in _shown_points(tiling.tiles, shown):
        line[p] = _LETTERS[i % len(_LETTERS)] if line[p] == "." else "#"
    suffix = f"…(+{tiling.length - shown})" if shown < tiling.length else ""
    return "".join(line) + suffix + "\n"
