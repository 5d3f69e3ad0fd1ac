"""Schematic SVG drawings: concentric shells for prime levels, BFS shells
otherwise.  Output is plain SVG 1.1 with straight chords; byte-identical for
identical inputs."""

from __future__ import annotations

import math

from .arith import canonical
from .errors import Unsupported
from .maps import FareyMap
from .metrics import distances_from, first_circuit, is_prime_level, poles, second_circuit

_SCALE = 110.0
_EXTENT = 3.6


def _fmt(x: float) -> str:
    out = f"{x:.2f}"
    return "0.00" if out == "-0.00" else out


def _polar(radius: float, angle: float) -> tuple[float, float]:
    # angle measured counterclockwise from 12 o'clock; y grows downward in SVG
    return radius * math.sin(angle), -radius * math.cos(angle)


def layout_positions(fmap: FareyMap) -> dict[int, tuple[float, float]]:
    """Vertex id -> planar position: 1/0 at the origin, the distance-1
    circuit on radius 1, the distance-2 walk on radius 2 (first visit fixes
    the slot), remaining poles outside; composite levels fall back to BFS
    shells from 1/0."""
    n = fmap.level
    if n < 3:
        raise Unsupported(f"no layout below level 3, got {n}")
    positions: dict[int, tuple[float, float]] = {}
    north = fmap.vertex_id(canonical(1, 0, n))
    positions[north] = (0.0, 0.0)
    if is_prime_level(n):
        ring1 = first_circuit(n).vertices
        for j, v in enumerate(ring1):
            positions[fmap.vertex_id(v)] = _polar(1.0, 2 * math.pi * j / len(ring1))
        walk = second_circuit(n).vertices
        for j, v in enumerate(walk):
            vid = fmap.vertex_id(v)
            if vid not in positions:
                positions[vid] = _polar(2.0, 2 * math.pi * j / len(walk))
        outer = poles(n)[1:]
        for j, v in enumerate(outer):
            positions[fmap.vertex_id(v)] = _polar(3.0, 2 * math.pi * j / len(outer))
        return positions
    # BFS shells
    dist = distances_from(fmap, north)
    for d in range(1, max(dist) + 1):
        shell = sorted(i for i, x in enumerate(dist) if x == d)
        for j, vid in enumerate(shell):
            positions[vid] = _polar(float(d), 2 * math.pi * j / len(shell))
    return positions


def _point(pos) -> tuple[str, str]:
    x, y = pos
    return _fmt(_SCALE * x + _SCALE * _EXTENT), _fmt(_SCALE * y + _SCALE * _EXTENT)


def render_map(fmap: FareyMap, sector_face_ids=None) -> str:
    """SVG document for the map, or for a shaded face subset when given."""
    positions = layout_positions(fmap)
    size = _fmt(2 * _SCALE * _EXTENT)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    centre = _fmt(_SCALE * _EXTENT)
    if is_prime_level(fmap.level):
        for radius, dash in ((1.0, ""), (2.0, ""), (3.0, ' stroke-dasharray="6,4"')):
            lines.append(
                f'<circle cx="{centre}" cy="{centre}" r="{_fmt(_SCALE * radius)}" '
                f'fill="none" stroke="#cccccc" stroke-width="1"{dash}/>'
            )

    if sector_face_ids is None:
        shown_vertices = sorted(positions)
        src, tgt = fmap.edge_columns()
        edges = zip(src.tolist(), tgt.tolist())
        shaded = []
    else:
        face_ids = sorted(sector_face_ids)
        shaded = [fmap.face_vertex_ids(fid) for fid in face_ids]
        shown = {i for tri in shaded for i in tri}
        shown_vertices = sorted(shown)
        edges = sorted(
            {
                tuple(sorted((a, b)))
                for tri in shaded
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))
            }
        )

    # Each vertex's coordinates are formatted once; an edge line is the
    # head of its first endpoint joined to the tail of its second.
    points = {vid: _point(pos) for vid, pos in positions.items()}
    line_head = {vid: f'<line x1="{x}" y1="{y}" ' for vid, (x, y) in points.items()}
    line_tail = {vid: f'x2="{x}" y2="{y}" stroke="#5577aa" stroke-width="0.8"/>'
                 for vid, (x, y) in points.items()}
    for tri in shaded:
        pts = " ".join(",".join(points[i]) for i in tri)
        lines.append(f'<polygon points="{pts}" fill="#dce9f9" stroke="none"/>')
    lines += [line_head[i] + line_tail[j] for i, j in edges]
    for vid in shown_vertices:
        x, y = points[vid]
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#203050"/>')
        lines.append(
            f'<text x="{x}" y="{y}" dx="5" dy="-4" font-size="11" '
            f'font-family="monospace" fill="#000000">{fmap.vertices[vid]}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
