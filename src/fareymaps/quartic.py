"""Klein's 14-sided polygon derived from the level-7 Farey map.

Outside the distance-2 walk of M3(7) sit 21 faces: the seven triangles of the
star of 2/0 and seven quadrilaterals (pairs of faces glued along a diagonal)
with a corner at 3/0.  Cutting the surface open along the seven seams
"2/0 -- x/3 -- 3/0" (a Farey edge followed by a segment through a
quadrilateral) unfolds this outer region into a ring of 14 chambers: reading
the 21-slot walk cyclically, every denominator-3 slot is a pinch point where
a seam meets the walk, and between consecutive pinches lies either a single
triangle (one walk edge, corner instance of 2/0) or a cut-open quadrilateral
region (two walk edges around a denominator-2 slot, corner instance of 3/0).
The polygon side through a pinch x/3 carries the labels
(2/0, x/3, y/2, 3/0), where y/2 is the quadrilateral corner on a fixed side
of the oriented seam; paired sides carry equal label sequences read in
opposite directions, which reproduces Klein's identifications
1-6, 3-8, 5-10, 7-12, 9-14, 11-2, 13-4.

The 14-gon is a `gluing.Polygon` of 42 vertex ids, three slots per side,
paired and glued as the 198-gon is; `side_pairing` and `quotient_genus_of_gon`
number its sides from 1, as Klein does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .arith import (
    ExtRational,
    FareyFraction,
    IntMatrix,
    in_principal_congruence,
    mobius_exact,
)
from .errors import BrokenInvariant, NoMatch, WrongLevel
from .gluing import Polygon, SidePairing
from .maps import FareyMap
from .metrics import decomposition_ids

LEVEL = 7


def _require_level(fmap: FareyMap) -> None:
    if fmap.level != LEVEL:
        raise WrongLevel(f"expected a level-7 map, got level {fmap.level}")


@dataclass(frozen=True)
class RingRegion:
    """One chamber of the outer ring: a triangle at 2/0 or a quadrilateral
    at 3/0 (two faces sharing a diagonal), with its corners in cyclic order."""

    kind: str  # "triangle" | "quad"
    corners: tuple[FareyFraction, ...]
    face_ids: tuple[int, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(str(v) for v in self.corners)


@dataclass(frozen=True)
class Side:
    """One side of the 14-gon.

    labels is always ordered (2/0, x/3, y/2, 3/0); anticlockwise tells whether
    walking the polygon anticlockwise reads the sequence in that direction or
    reversed.
    """

    index: int
    labels: tuple[FareyFraction, FareyFraction, FareyFraction, FareyFraction]

    anticlockwise: bool

    def label_strings(self) -> tuple[str, str, str, str]:
        return tuple(str(v) for v in self.labels)


@dataclass(frozen=True)
class FourteenGon(Polygon):
    """Klein's 14-gon on M3(7); side k + 1 is the path of slots 3k .. 3k + 3."""

    side_slots = 3

    @property
    def sides(self) -> tuple[Side, ...]:
        """Sides 1..14 in polygon order.  A side whose path starts at 2/0
        runs anticlockwise; its labels read the path from the 2/0 end."""
        vs, labels = self.fmap.vertices, self.fmap.vertex_labels()
        out = []
        for k, path in enumerate(self.side_paths()):
            anticlockwise = labels[path[0]] == "2/0"
            path = path if anticlockwise else path[::-1]
            out.append(Side(k + 1, tuple(vs[i] for i in path), anticlockwise))
        return tuple(out)

    def side(self, index: int) -> Side:
        """Side `index`, numbered 1..14 as Klein numbers them; a bool reads as 0 or 1."""
        try:
            index = operator.index(index)
        except TypeError:
            raise NoMatch(f"side {index!r} is not an integer") from None
        if not 1 <= index <= len(self):
            raise NoMatch(f"side {index} not in 1..{len(self)}")
        return self.sides[index - 1]


def _quad_at(fmap: FareyMap, third: int, u: int, pole3: int):
    """The quadrilateral with denominator-3 corner `third` and the walk slot
    u after it as one denominator-2 corner, and its fourth corner the pole
    3/0, all vertex ids; the other den-2 corner, w, is the common neighbour
    of `third` and u with denominator 2.  Returns (inner face id, outer face
    id, ccw-later den-2 corner, ccw-earlier den-2 corner), the corners as
    vertex ids."""
    targets = fmap.dart_targets()
    dens = fmap.vertex_columns()[1].tolist()
    labels = fmap.vertex_labels()
    around, beside = targets[third].tolist(), set(targets[u].tolist())
    others = [v for v in around if dens[v] == 2 and v in beside]
    if dens[u] != 2 or u not in around or len(others) != 1:
        raise BrokenInvariant(f"no quadrilateral at {labels[third]}")
    w = others[0]
    rot = targets[pole3].tolist()
    for r, nxt in zip(rot, rot[1:] + rot[:1]):
        if {r, nxt} == {u, w}:
            return (fmap.face_id_by_vertices([third, u, w]),
                    fmap.face_id_by_vertices([u, pole3, w]), nxt, r)
    raise BrokenInvariant(f"{labels[u]}, {labels[w]} not consecutive around {labels[pole3]}")


def _chambers(fmap: FareyMap) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """The chambers of `outer_ring` as (kind, corner ids, face ids)."""
    _require_level(fmap)
    walk = decomposition_ids(fmap)[2].tolist()
    dens = fmap.vertex_columns()[1].tolist()
    pole2, pole3 = fmap.vertex_ids([2, 3], [0, 0]).tolist()
    pinches = [i for i, v in enumerate(walk) if dens[v] == 3]
    regions = []
    for a, b in zip(pinches, pinches[1:] + [pinches[0] + len(walk)]):
        gap = b - a
        start, end = walk[a], walk[b % len(walk)]
        if gap == 1:
            face_id = fmap.face_id_by_vertices([start, pole2, end])
            regions.append(("triangle", (start, pole2, end), (face_id,)))
        elif gap == 2:
            inner, outer, later, earlier = _quad_at(fmap, start, walk[(a + 1) % len(walk)], pole3)
            regions.append(("quad", (start, later, pole3, earlier), (inner, outer)))
        else:
            raise BrokenInvariant(f"pinches {gap} slots apart, expected one or two")
    if len(regions) != 14 or any(r[0] == regions[i - 1][0] for i, r in enumerate(regions)):
        raise BrokenInvariant("the ring is not 14 alternating chambers")
    return regions


def outer_ring(fmap: FareyMap) -> tuple[RingRegion, ...]:
    """The 14 chambers of the ring beyond the distance-2 walk, in cyclic order.

    Each quadrilateral is listed at the chamber whose leading seam cuts it.
    The walk is read as vertex ids; the corners are the map's vertices.
    """
    vs = fmap.vertices
    return tuple(RingRegion(kind, tuple(vs[i] for i in c), f) for kind, c, f in _chambers(fmap))


def fourteen_gon(fmap: FareyMap) -> FourteenGon:
    """The 14-gon, read off the outer ring: one side per chamber, numbered
    so that side 1 is the anticlockwise side labelled (2/0, 5/3, 3/2, 3/0).

    Side k passes through the pinch x/3 where chamber k starts.  Every x/3
    starts exactly one quadrilateral chamber, whose corner after x/3 is the
    side's y/2 label.  The side's path runs anticlockwise from 2/0 exactly
    when chamber k is that quadrilateral, and from 3/0 otherwise.
    """
    chambers = _chambers(fmap)
    pole2, pole3, five3, three2 = fmap.vertex_ids([2, 3, 5, 3], [0, 0, 3, 2]).tolist()
    later = {corners[0]: corners[1] for kind, corners, _ in chambers if kind == "quad"}
    if len(later) != 7:
        raise BrokenInvariant("the seven quadrilaterals do not start at seven distinct x/3")
    paths = [(pole2, x, later[x], pole3) if kind == "quad" else (pole3, later[x], x, pole2)
             for kind, (x, *_), _ in chambers]
    if (pole2, five3, three2, pole3) not in paths:
        raise BrokenInvariant("no anticlockwise side labelled (2/0, 5/3, 3/2, 3/0)")
    anchor = paths.index((pole2, five3, three2, pole3))
    # the chambers alternate, so each path ends where the next one starts
    return FourteenGon(fmap, tuple(v for k in range(14) for v in paths[(anchor + k) % 14][:3]))


def side_pairing(gon: FourteenGon) -> SidePairing:
    """The polygon's `pairing()`, with Klein's numbering of the sides from 1."""
    return SidePairing(tuple((i + 1, j + 1) for i, j in gon.pairing().pairs))


def quotient_genus_of_gon(gon: FourteenGon, pairing: SidePairing) -> int:
    """The polygon's `genus()` for a pairing of sides numbered from 1."""
    return gon.genus(SidePairing(tuple((i - 1, j - 1) for i, j in pairing.pairs)))


# -- Klein's explicit edge-pairing matrix -----------------------------------

KLEIN_PAIRING_MATRIX = IntMatrix(113, -35, 42, -13)
# Klein's identifications 1-6, 3-8, 5-10, 7-12, 9-14, 11-2, 13-4, each pair
# sorted: the pairs side_pairing must find on the 14-gon
KLEIN_PAIRS = frozenset({(1, 6), (2, 11), (3, 8), (4, 13), (5, 10), (7, 12), (9, 14)})
KLEIN_EDGE1 = tuple(ExtRational.parse(s) for s in ("2/7", "1/3", "3/7"))
KLEIN_EDGE6_RECORDED = tuple(ExtRational.parse(s) for s in ("18/7", "8/3", "19/7"))


def _segment_det(q1: ExtRational, q2: ExtRational) -> int:
    return q1.num * q2.den - q2.num * q1.den


@dataclass(frozen=True)
class KleinMatrixReport:
    """Exact check of Klein's matrix that pairs edge 1 with edge 6."""

    matrix: IntMatrix
    in_gamma7: bool
    edge1: tuple[ExtRational, ...]
    images: tuple[ExtRational, ...]
    recorded_edge6: tuple[ExtRational, ...]
    endpoints_match_recorded: bool
    segment_dets_before: tuple[int, int]
    segment_dets_after: tuple[int, int]

    def to_text(self) -> str:
        lines = [
            f"matrix {self.matrix}",
            f"in Gamma(7): {self.in_gamma7}",
            "edge 1 -> image:",
        ]
        for q, img in zip(self.edge1, self.images):
            lines.append(f"  {q} -> {img}")
        lines.append(
            f"segment determinants before: {self.segment_dets_before}"
            " (Farey edge, non-Farey segment)"
        )
        lines.append(f"segment determinants after:  {self.segment_dets_after}")
        lines.append(
            f"edge 6 as Klein recorded it: ({', '.join(map(str, self.recorded_edge6))})"
        )
        if self.endpoints_match_recorded:
            lines.append("computed image matches the recorded edge 6")
        else:
            diffs = ", ".join(
                f"{q} -> {img} (recorded {rec})"
                for q, img, rec in zip(self.edge1, self.images, self.recorded_edge6)
                if img != rec
            )
            lines.append(f"NOTE: computed image differs from the recorded edge 6: {diffs}")
        return "\n".join(lines)


def klein_matrix_report() -> KleinMatrixReport:
    m = KLEIN_PAIRING_MATRIX
    images = tuple(mobius_exact(m, q) for q in KLEIN_EDGE1)
    return KleinMatrixReport(
        matrix=m,
        in_gamma7=in_principal_congruence(m, 7),
        edge1=KLEIN_EDGE1,
        images=images,
        recorded_edge6=KLEIN_EDGE6_RECORDED,
        endpoints_match_recorded=images == KLEIN_EDGE6_RECORDED,
        segment_dets_before=(
            _segment_det(KLEIN_EDGE1[0], KLEIN_EDGE1[1]),
            _segment_det(KLEIN_EDGE1[1], KLEIN_EDGE1[2]),
        ),
        segment_dets_after=(
            _segment_det(images[0], images[1]),
            _segment_det(images[1], images[2]),
        ),
    )
