"""Schematic SVG drawings: concentric shells for prime levels, BFS shells
otherwise.  Output is plain SVG 1.1 with straight chords; byte-identical for
identical inputs."""

from __future__ import annotations

import math

import numpy as np

from .errors import Unsupported
from .maps import FareyMap, gather_rows
from .metrics import bfs_distances, decomposition_ids, is_prime_level
from .sector import Sector

_SCALE = 110.0
_EXTENT = 3.6


def _fmt(x: float) -> str:
    out = f"{x:.2f}"
    return "0.00" if out == "-0.00" else out


def _polar(radius: float, angle: float) -> tuple[float, float]:
    # angle measured counterclockwise from 12 o'clock; y grows downward in SVG
    return radius * math.sin(angle), -radius * math.cos(angle)


def layout_positions(fmap: FareyMap) -> dict[int, tuple[float, float]]:
    """Vertex id -> planar position: 1/0 (vertex id 0) at the origin, the
    distance-1 circuit on radius 1, the distance-2 walk on radius 2 (first
    visit fixes the slot), remaining poles outside; composite levels fall
    back to BFS shells from 1/0."""
    n = fmap.level
    if n < 3:
        raise Unsupported(f"no layout below level 3, got {n}")
    positions: dict[int, tuple[float, float]] = {0: (0.0, 0.0)}
    if is_prime_level(n):
        _, ring, walk, outer = (ids.tolist() for ids in decomposition_ids(fmap))
        for j, vid in enumerate(ring):
            positions[vid] = _polar(1.0, 2 * math.pi * j / len(ring))
        for j, vid in enumerate(walk):
            if vid not in positions:
                positions[vid] = _polar(2.0, 2 * math.pi * j / len(walk))
        for j, vid in enumerate(outer):
            positions[vid] = _polar(3.0, 2 * math.pi * j / len(outer))
        return positions
    # BFS shells
    dist = bfs_distances(fmap, [0])[0]
    for d in range(1, int(dist.max()) + 1):
        shell = np.flatnonzero(dist == d).tolist()
        for j, vid in enumerate(shell):
            positions[vid] = _polar(float(d), 2 * math.pi * j / len(shell))
    return positions


def _point(pos) -> tuple[str, str]:
    x, y = pos
    return _fmt(_SCALE * x + _SCALE * _EXTENT), _fmt(_SCALE * y + _SCALE * _EXTENT)


def render_map(fmap: FareyMap, sector_face_ids=None) -> str:
    """SVG document for the map, or for a shaded face subset when given, read
    as the face ids of a Sector (an unknown or repeated id raises UnknownVertex)."""
    positions = layout_positions(fmap)
    size = _fmt(2 * _SCALE * _EXTENT)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n',
        f'<rect width="{size}" height="{size}" fill="white"/>\n',
    ]
    centre = _fmt(_SCALE * _EXTENT)
    if is_prime_level(fmap.level):
        for radius, dash in ((1.0, ""), (2.0, ""), (3.0, ' stroke-dasharray="6,4"')):
            parts.append(
                f'<circle cx="{centre}" cy="{centre}" r="{_fmt(_SCALE * radius)}" '
                f'fill="none" stroke="#cccccc" stroke-width="1"{dash}/>\n'
            )

    # Each vertex's coordinates are formatted once, by vertex id; an edge
    # line is the head of its first endpoint joined to the tail of its second.
    points = [_point(positions[vid]) for vid in range(fmap.vertex_count)]
    line_head = np.array([f'<line x1="{x}" y1="{y}" ' for x, y in points], dtype=object)
    line_tail = np.array([f'x2="{x}" y2="{y}" stroke="#5577aa" stroke-width="0.8"/>\n'
                          for x, y in points], dtype=object)
    if sector_face_ids is None:
        shown_vertices = range(fmap.vertex_count)
        parts += gather_rows(np.stack((line_head, line_tail)), np.column_stack(fmap.edge_columns()))
    else:
        shaded = [fmap.face_vertex_ids(fid) for fid in Sector(fmap, sector_face_ids).face_ids]
        shown_vertices = sorted({i for tri in shaded for i in tri})
        edges = sorted(
            {
                tuple(sorted((a, b)))
                for tri in shaded
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))
            }
        )
        for tri in shaded:
            pts = " ".join(",".join(points[i]) for i in tri)
            parts.append(f'<polygon points="{pts}" fill="#dce9f9" stroke="none"/>\n')
        parts += [line_head[i] + line_tail[j] for i, j in edges]
    labels = fmap.vertex_labels()
    for vid in shown_vertices:
        x, y = points[vid]
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#203050"/>\n')
        parts.append(
            f'<text x="{x}" y="{y}" dx="5" dy="-4" font-size="11" '
            f'font-family="monospace" fill="#000000">{labels[vid]}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
