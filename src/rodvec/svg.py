"""Deterministic SVG rendering of figure scenes.

Orthographic projection along the scene's view axis (overridable); arcs are
emitted as sampled path elements so tangency and right angles survive the
projection.  Output bytes depend only on the scene, so identical inputs give
identical files.
"""

import math

from rodvec.core import UnitVector, Vec3
from rodvec.geometry import Arc, FigureScene, Label, Segment, plane_basis

__all__ = ["render_scene", "write_scene"]

_ARC_SAMPLES = 48
_CANVAS = 480.0
_MARGIN = 40.0


def _escape(text: str) -> str:
    """text with &, > and < as XML entities, as xml.sax.saxutils.escape
    writes them; that module would load urllib, http and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _arc_points(arc: Arc) -> list[Vec3]:
    u, v = plane_basis(arc.axis)
    rel = arc.start - arc.center
    a = rel.dot(u)
    b = rel.dot(v)
    along = rel.dot(arc.axis)
    phi0 = math.atan2(b, a)
    r = math.hypot(a, b)
    pts = []
    for i in range(_ARC_SAMPLES + 1):
        phi = phi0 + arc.sweep * i / _ARC_SAMPLES
        pts.append(
            arc.center
            + u * (r * math.cos(phi))
            + v * (r * math.sin(phi))
            + arc.axis * along
        )
    return pts


def _project(p: Vec3, u: Vec3, v: Vec3) -> tuple[float, float]:
    return p.dot(u), p.dot(v)


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.4f}"


def render_scene(scene: FigureScene, view_axis: UnitVector | None = None) -> str:
    """Render a scene to a standalone SVG 1.1 document (UTF-8 text)."""
    axis = view_axis if view_axis is not None else scene.view_axis
    u, v = plane_basis(axis)

    flat_segments: list[tuple[str, tuple[float, float], tuple[float, float]]] = []
    flat_arcs: list[tuple[str, list[tuple[float, float]]]] = []
    flat_labels: list[tuple[str, tuple[float, float]]] = []
    xs: list[float] = []
    ys: list[float] = []

    def keep(pt: tuple[float, float]) -> tuple[float, float]:
        xs.append(pt[0])
        ys.append(pt[1])
        return pt

    for prim in scene.primitives:
        if isinstance(prim, Segment):
            flat_segments.append(
                (prim.role, keep(_project(prim.start, u, v)), keep(_project(prim.end, u, v)))
            )
        elif isinstance(prim, Arc):
            flat_arcs.append(
                (prim.role, [keep(_project(p, u, v)) for p in _arc_points(prim)])
            )
        elif isinstance(prim, Label):
            flat_labels.append((prim.text, keep(_project(prim.position, u, v))))

    if not xs:
        xs = [0.0]
        ys = [0.0]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    scale = (_CANVAS - 2.0 * _MARGIN) / span
    x0 = min(xs)
    y1 = max(ys)

    def to_px(pt: tuple[float, float]) -> tuple[float, float]:
        # y grows downward in SVG
        return (_MARGIN + (pt[0] - x0) * scale, _MARGIN + (y1 - pt[1]) * scale)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_CANVAS)}" height="{_fmt(_CANVAS)}" '
        f'viewBox="0 0 {_fmt(_CANVAS)} {_fmt(_CANVAS)}">',
        f'<desc>{_escape(scene.kind)}</desc>',
        '<g fill="none" stroke="#1a1a1a" stroke-width="1.5">',
    ]
    for role, pts in flat_arcs:
        d = "M " + " L ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in pts))
        lines.append(f'<path class="arc {_escape(role)}" d="{d}"/>')
    for role, p0, p1 in flat_segments:
        kind = "ray" if role == "bisector" else "segment"
        if kind == "ray":
            # extend past the through-point so it reads as a ray
            p1 = (p0[0] + 1.15 * (p1[0] - p0[0]), p0[1] + 1.15 * (p1[1] - p0[1]))
        a = to_px(p0)
        b = to_px(p1)
        lines.append(
            f'<line class="{kind} {_escape(role)}" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
        )
    lines.append("</g>")
    lines.append('<g font-family="sans-serif" font-size="14" fill="#1a1a1a">')
    for text, pt in flat_labels:
        px, py = to_px(pt)
        lines.append(
            f'<text class="label" x="{_fmt(px + 6.0)}" y="{_fmt(py - 6.0)}">{_escape(text)}</text>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_scene(scene: FigureScene, path: str, view_axis: UnitVector | None = None) -> None:
    data = render_scene(scene, view_axis)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
