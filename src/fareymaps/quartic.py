"""Klein's 14-sided polygon on the level-7 Farey map, laid out by arithmetic.

The 14-gon is the closed walk of the six-slot seed (2/0, 1/3, 5/2, 3/0, 1/2,
2/3) and its translates under t -> t + k, k = 0..6: 42 slots on edges of
M3(7), three per side.  Translate k holds two sides, (2/0, x/3, y/2, 3/0)
read from 2/0 and then (3/0, w/2, x'/3, 2/0) up to the next translate's 2/0.
Every side's labels (2/0, x/3, y/2, 3/0) have 2x - 3y = 1 (mod 7), and each
label sequence appears twice, once read each way: those are the paired
sides, Klein's identifications 1-6, 3-8, 5-10, 7-12, 9-14, 11-2, 13-4.
Side 1, (2/0, 5/3, 3/2, 3/0), opens translate 6.

The same slots give the ring of 14 chambers beyond the distance-2 walk,
whose 21 faces are the seven triangles at 2/0 and seven quadrilaterals (two
faces glued along a diagonal) at 3/0: per translate, the quadrilateral
(x/3, y/2, 3/0, w/2), with faces {x/3, y/2, w/2} and {y/2, 3/0, w/2}, then
the triangle (x'/3, 2/0, x''/3), where x''/3 is the next translate's x/3.

The 14-gon is a `gluing.Polygon` of 42 vertex ids, three slots per side,
laid out from SEED, paired and glued as the 198-gon is; `side_pairing` and
`quotient_genus_of_gon` number its sides from 1, as Klein does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .arith import ExtRational, FareyFraction, IntMatrix, in_principal_congruence, mobius_exact
from .errors import NoMatch, WrongLevel
from .gluing import Polygon, SidePairing
from .maps import FareyMap

LEVEL = 7
# Sides 3 and 4 of the 14-gon, from 2/0 to the next translate's 2/0: the
# seed whose translates t -> t + k, k = 0..6, close the 42-slot walk
SEED = ((2, 0), (1, 3), (5, 2), (3, 0), (1, 2), (2, 3))


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
        """Sides 1..14 in polygon order."""
        return tuple(map(self._side, range(1, len(self) + 1), self.side_paths()))

    def side(self, index: int) -> Side:
        """Side `index`, numbered 1..14 as Klein numbers them; a bool reads as 0 or 1."""
        try:
            index = operator.index(index)
        except TypeError:
            raise NoMatch(f"side {index!r} is not an integer") from None
        if not 1 <= index <= len(self):
            raise NoMatch(f"side {index} not in 1..{len(self)}")
        s, ids = self.side_slots, self.ids + self.ids[:1]
        return self._side(index, ids[s * (index - 1):s * index + 1])

    def _side(self, index: int, path: tuple[int, ...]) -> Side:
        """Side `index` from its path.  A side whose path starts at 2/0 runs
        anticlockwise; its labels read the path from the 2/0 end."""
        vs, labels = self.fmap.vertices, self.fmap.vertex_labels()
        anticlockwise = labels[path[0]] == "2/0"
        path = path if anticlockwise else path[::-1]
        return Side(index, tuple(vs[i] for i in path), anticlockwise)


def outer_ring(fmap: FareyMap) -> tuple[RingRegion, ...]:
    """The 14 chambers of the ring beyond the distance-2 walk, in cyclic order.

    Translate k of the seed, (2/0, x/3, y/2, 3/0, w/2, x'/3), gives the
    quadrilateral (x/3, y/2, 3/0, w/2) with faces {x, y, w} and {y, 3/0, w},
    then the triangle (x'/3, 2/0, x''/3), x''/3 the next translate's x/3.
    The corners are the map's vertices.
    """
    _require_level(fmap)
    ids = FourteenGon.from_seed(fmap, *zip(*SEED)).ids
    vs, face = fmap.vertices, fmap.face_id_by_vertices
    regions = []
    for k in range(0, len(ids), 6):
        pole2, x, y, pole3, w, last = ids[k:k + 6]
        after = ids[(k + 7) % len(ids)]
        regions += [RingRegion("quad", tuple(vs[i] for i in (x, y, pole3, w)),
                               (face([x, y, w]), face([y, pole3, w]))),
                    RingRegion("triangle", (vs[last], vs[pole2], vs[after]),
                               (face([last, pole2, after]),))]
    return tuple(regions)


def fourteen_gon(fmap: FareyMap) -> FourteenGon:
    """The 14-gon: the seed's 42 slots rotated by six, so that side 1, the
    anticlockwise side (2/0, 5/3, 3/2, 3/0), is the first side of translate 6."""
    _require_level(fmap)
    ids = FourteenGon.from_seed(fmap, *zip(*SEED)).ids
    return FourteenGon(fmap, ids[-6:] + ids[:-6])


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
