"""Schematic SVG drawings: concentric shells for prime levels, BFS shells
otherwise.  Output is plain SVG 1.1 with straight chords; byte-identical for
identical inputs.  The layout is two float columns, the pieces per vertex
are object arrays built from them, and no Python loop runs over the vertices."""

from __future__ import annotations

import math

import numpy as np

from .errors import BrokenInvariant, Unsupported
from .maps import FareyMap, gather_rows
from .metrics import bfs_distances, decomposition_ids, is_prime_level
from .sector import Sector

_SCALE = 110.0
_EXTENT = 3.6


def layout_positions(fmap: FareyMap) -> tuple[np.ndarray, np.ndarray]:
    """The float columns (x, y) of the planar positions, by vertex id: 1/0
    (id 0) at the origin and shell k on radius k.  The prime shells are the
    distance-1 circuit, the distance-2 walk (first visit fixes the slot, of
    as many as the walk has visits) and the other poles; other levels use
    the BFS shells from 1/0, each in id order.  Slot j of L on radius r is
    (r sin a, -r cos a), a = 2*pi*j/L (clockwise from 12 o'clock, as SVG's y
    grows downward), with math's sin and cos, whose floats do not vary with
    numpy's SIMD kernels.  A vertex left unplaced raises BrokenInvariant."""
    n = fmap.level
    if n < 3:
        raise Unsupported(f"no layout below level 3, got {n}")
    if is_prime_level(n):
        _, ring, walk, outer = decomposition_ids(fmap)
        seen, first = np.unique(walk, return_index=True)
        shells = [(ring, np.arange(ring.size), ring.size), (seen, first, walk.size),
                  (outer, np.arange(outer.size), outer.size)]
    else:
        dist = bfs_distances(fmap, [0])[0]
        shells = [np.flatnonzero(dist == d) for d in range(1, dist.max() + 1)]
        shells = [(ids, np.arange(ids.size), ids.size) for ids in shells]
    ids, slot, count = zip(*shells)
    sizes = [shell.size for shell in ids]
    ids = np.concatenate(ids)
    radius = np.repeat(np.arange(1.0, len(shells) + 1), sizes)
    slot = np.concatenate(slot)
    count = np.repeat(count, sizes)
    angle = (2 * math.pi * slot / count).tolist()
    x, y = np.full((2, fmap.vertex_count), np.nan)
    x[0] = y[0] = 0.0
    x[ids] = radius * np.fromiter(map(math.sin, angle), float, len(angle))
    y[ids] = -radius * np.fromiter(map(math.cos, angle), float, len(angle))
    if np.isnan(x).any():
        raise BrokenInvariant(f"vertex {np.isnan(x).argmax()} has no place in M3({n})'s layout")
    return x, y


def render_map(fmap: FareyMap, sector_face_ids=None) -> str:
    """SVG document for the map, or for a shaded face subset when given, read
    as the face ids of a Sector (an unknown or repeated id raises UnknownVertex)."""
    x, y = layout_positions(fmap)
    size = f"{2 * _SCALE * _EXTENT:.2f}"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n',
        f'<rect width="{size}" height="{size}" fill="white"/>\n',
    ]
    centre = f"{_SCALE * _EXTENT:.2f}"
    if is_prime_level(fmap.level):
        for radius, dash in ((1.0, ""), (2.0, ""), (3.0, ' stroke-dasharray="6,4"')):
            parts.append(
                f'<circle cx="{centre}" cy="{centre}" r="{_SCALE * radius:.2f}" '
                f'fill="none" stroke="#cccccc" stroke-width="1"{dash}/>\n'
            )

    # Each vertex's coordinates are formatted once, by vertex id, and one mask
    # writes -0.00 as 0.00 (the drawing's only sign rule); an edge line is
    # the head of its first endpoint joined to the tail of its second.
    coords = (_SCALE * np.stack((x, y)) + _SCALE * _EXTENT).ravel().tolist()
    text = np.fromiter(map("{:.2f}".format, coords), dtype=object, count=len(coords))
    text[text == "-0.00"] = "0.00"
    xs, ys = text.reshape(2, -1)
    lines = np.stack(('<line x1="' + xs + '" y1="' + ys + '" ',
                      'x2="' + xs + '" y2="' + ys + '" stroke="#5577aa" stroke-width="0.8"/>\n'))
    if sector_face_ids is None:
        shown = slice(None)
        parts += gather_rows(lines, fmap.edge_columns())
    else:
        shaded = fmap.face_vertex_rows().take(list(Sector(fmap, sector_face_ids).face_ids), axis=0)
        shown = np.unique(shaded)
        edges = np.unique(np.sort(shaded[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1), axis=0)
        point = xs + "," + ys
        parts += gather_rows(np.stack(('<polygon points="' + point + " ", point + " ",
                                       point + '" fill="#dce9f9" stroke="none"/>\n')), shaded)
        parts += gather_rows(lines, edges)
    # a vertex's circle and label: its x, y, x, y and label between six constant pieces
    marks = np.empty((fmap.vertex_count, 11), dtype=object)
    marks[:, ::2] = np.array(['<circle cx="', '" cy="', '" r="3" fill="#203050"/>\n<text x="',
                              '" y="', '" dx="5" dy="-4" font-size="11" font-family="monospace" '
                              'fill="#000000">', "</text>\n"], dtype=object)
    marks[:, 1::2] = np.stack((xs, ys, xs, ys, np.array(fmap.vertex_labels(), dtype=object)), 1)
    parts += marks[shown].ravel().tolist()
    parts.append("</svg>\n")
    return "".join(parts)
