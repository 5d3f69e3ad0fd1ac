"""The level-11 construction: sector, 198-gon boundary, orientable pairing.

The rotation t -> t + 1 splits the faces of M3(n) into free orbits of size
n (20 orbits at n = 11).  A sector is an edge-connected choice of one face
per orbit containing the central triangle {1/0, 0/1, 1/1}; its n translates
tile the map.  Unfolding the translates around the centre glues consecutive
copies along a short radial path through 1/0 and leaves a closed boundary
walk; for the reference sector of M3(11), on 22 particular vertex labels, it
has 198 slots, every directed edge appears once in each direction, and the
resulting orientable identification yields a genus-26 surface.

The map supplies its level n, the number of copies, and every table used
here: `face_orbits()` and `face_translation()` for the tiles, the face
corners `face_vertex_rows()` for the restriction and the boundary walk,
`face_neighbours()` for the growth and the walk, `vertex_translation()` for
the fold, the vertex columns of the copies and `vertex_labels()`; no dart
permutation or face dart is read.  A `BoundaryWalk` is a
`gluing.Polygon` of vertex ids, one slot per side, laid out, paired and glued
as the 14-gon is, so the walk, the pairing and the genus build no FareyFraction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .arith import FareyFraction
from .errors import (
    BrokenInvariant,
    DisconnectedBoundary,
    NoSector,
    UnknownVertex,
    UnpairedEdge,
    WrongLevel,
)
from .gluing import Polygon, SidePairing
from .maps import FareyMap

LEVEL = 11

# The 22 vertex labels of the reference sector, in boundary circuit order;
# its boundary table is pinned verbatim by the golden tests.
REFERENCE_SECTOR_LABELS = (
    "1/0", "0/1", "1/5", "1/4", "1/3", "2/5", "1/2", "5/0", "6/2", "7/4",
    "3/5", "6/3", "4/0", "2/3", "6/4", "3/0", "3/4", "4/2", "4/5", "2/0",
    "6/5", "1/1",
)

# The face id of the central triangle {1/0, 0/1, 1/1} at every level, by the
# dart layout: 1/0 is vertex 0, so its n darts 0..n-1 each lead a face and
# get face ids 0..n-1, and dart 1 runs to 1/1 with 0/1 the face's third corner.
CENTRAL_FACE_ID = 1


def reference_sector_vertices() -> frozenset[FareyFraction]:
    return frozenset(FareyFraction.parse(s, LEVEL) for s in REFERENCE_SECTOR_LABELS)


def _require_level(fmap: FareyMap) -> None:
    if fmap.level != LEVEL:
        raise WrongLevel(f"expected a level-11 map, got level {fmap.level}")


class Sector:
    """A fundamental region for t -> t + 1 on the faces of M3(n), 20 at n = 11."""

    def __init__(self, fmap: FareyMap, face_ids):
        self.fmap = fmap
        try:
            ids = [operator.index(fid) for fid in face_ids]  # a bool reads as 0 or 1
        except TypeError:
            raise UnknownVertex(f"face ids {face_ids} are not all integers") from None
        self.face_ids = tuple(sorted(set(ids)))
        if len(self.face_ids) < len(ids) or not all(0 <= fid < fmap.face_count for fid in ids):
            raise UnknownVertex(f"face ids {ids} are not distinct ids in 0..{fmap.face_count - 1}")

    def __len__(self) -> int:
        return len(self.face_ids)


def _restricted_faces(fmap: FareyMap, restrict) -> int:
    """Bitmask of the faces with all three vertices in `restrict`: one gather."""
    kept = np.zeros(fmap.vertex_count, dtype=bool)
    kept[[fmap.vertex_id(v) for v in restrict]] = True
    inside = kept[fmap.face_vertex_rows()].all(axis=1)
    return int.from_bytes(np.packbits(inside, bitorder="little").tobytes(), "little")


def _sectors(fmap: FareyMap, restrict):
    """Every sector under a vertex restriction, once each, as face-id sets.

    Grows an edge-connected face set from the central triangle, one face per
    translation orbit.  Each step takes the least frontier face, first
    included and then banned, so the two branches never share a face set.
    With `restrict`, only faces whose three vertices lie in the given set
    are considered.

    The translation orbits are one bitmask each, read off the map's
    `face_orbits()` in one pass, and a non-free orbit raises
    `BrokenInvariant`.  The walk runs on bitmasks over face ids.  A state is
    (chosen, size, open_, frontier): the chosen faces and their number, the
    faces still selectable (allowed, not banned, orbit unused) and the open
    faces next to a chosen one, so the least frontier face is its lowest set
    bit.  Including it drops its whole orbit from `open_` and adds its three
    `face_neighbours()` bits to the frontier; banning it drops its bit.
    States wait on an explicit stack, the include branch on top, which is
    the depth-first order without Python recursion.  A ban that leaves its
    orbit with no open face is not pushed: every face set below it misses
    that orbit, so no sector is lost and the order is kept.
    """
    _require_level(fmap)
    neighbours = fmap.face_neighbours().tolist()
    orbit_of = fmap.face_orbits().tolist()
    orbit_masks = [0] * fmap.face_count  # at the least face of each orbit
    for fid, least in enumerate(orbit_of):
        orbit_masks[least] |= 1 << fid
    for fid in sorted(set(orbit_of)):
        if orbit_masks[fid].bit_count() != fmap.level:
            raise BrokenInvariant(f"the translation orbit of face {fid} is not free")
    orbit_count = fmap.face_count // fmap.level

    allowed = (1 << fmap.face_count) - 1
    if restrict is not None:
        allowed = _restricted_faces(fmap, restrict)
        if not allowed >> CENTRAL_FACE_ID & 1:
            raise NoSector("restriction excludes the central triangle")

    def adjacent(fid: int) -> int:
        a, b, c = neighbours[fid]
        return 1 << a | 1 << b | 1 << c

    open_ = allowed & ~orbit_masks[orbit_of[CENTRAL_FACE_ID]]
    stack = [(1 << CENTRAL_FACE_ID, 1, open_, adjacent(CENTRAL_FACE_ID) & open_)]
    while stack:
        chosen, size, open_, frontier = stack.pop()
        if size == orbit_count:
            yield frozenset(fid for fid in range(chosen.bit_length()) if chosen >> fid & 1)
            continue
        if not frontier:
            continue
        low = frontier & -frontier
        pivot = low.bit_length() - 1
        orbit = orbit_masks[orbit_of[pivot]]
        if open_ & orbit & ~low:
            stack.append((chosen, size, open_ & ~low, frontier & ~low))
        rest = open_ & ~orbit
        stack.append((chosen | low, size + 1, rest, (frontier | adjacent(pivot)) & rest))


def sector_search(fmap: FareyMap, restrict=None) -> Sector:
    """The first sector of the enumeration that `count_sectors` counts.

    With `restrict`, only faces whose three vertices lie in the given set
    are used; `NoSector` when no sector remains.  A branch that includes a
    face fails only when no sector holds that face with the faces already
    chosen, so banning it loses nothing: this is also the first sector of a
    depth-first search over the frontier in ascending face order.
    """
    for face_ids in _sectors(fmap, restrict):
        return Sector(fmap, face_ids)
    raise NoSector("no complete sector under the given restriction")


def count_sectors(fmap: FareyMap, restrict) -> int:
    """Number of distinct sectors under a vertex restriction: the length of
    the enumeration `sector_search` takes its first sector from."""
    return sum(1 for _ in _sectors(fmap, restrict))


def tile_by_translates(sector: Sector) -> list[frozenset[int]]:
    """The n translated copies of the sector on M3(n), as face-id sets."""
    translate = sector.fmap.face_translation().tolist()
    tiles = []
    current = set(sector.face_ids)
    for _ in range(sector.fmap.level):
        tiles.append(frozenset(current))
        current = {translate[fid] for fid in current}
    return tiles


@dataclass(frozen=True)
class BoundaryWalk(Polygon):
    """Closed walk around the unfolded union of the n sector copies on
    M3(n), one slot per side: side i is the edge from slot i to slot i + 1."""

    @property
    def row_length(self) -> int:
        """The fresh slots contributed by each sector copy."""
        return len(self.ids) // self.fmap.level

    def rows(self) -> list[list[str]]:
        """Row k lists the slots of sector copy k plus the shared end slot."""
        vs, r = self.labels(), self.row_length
        vs += vs[:1]
        return [vs[k * r:(k + 1) * r + 1] for k in range(self.fmap.level)]


def _boundary_cycle(fmap: FareyMap, face_ids) -> list[int]:
    """Vertex ids of the closed boundary walk of a face set, region on the left.

    A state is an inside face and one of its corners w.  When the face
    across the edge that ends at w lies outside, that edge is on the
    boundary: emit w and move to the previous corner of the same face.
    Otherwise continue at w in the face across, which turns around w.
    """
    inside = set(face_ids)
    neighbours = fmap.face_neighbours().tolist()
    rows = fmap.face_vertex_rows().tolist()
    edges = [(f, k) for f in inside for k in range(3) if neighbours[f][k - 1] not in inside]
    if not edges:
        raise DisconnectedBoundary("face set has no boundary")
    fid, k = start = edges[0]
    cycle = []
    while True:
        g = neighbours[fid][k - 1]
        if g in inside:
            k = rows[g].index(rows[fid][k])
            fid = g
        else:
            cycle.append(rows[fid][k])
            k = (k - 1) % 3
        if (fid, k) == start:
            break
    if len(cycle) < len(edges):
        raise DisconnectedBoundary(
            f"boundary splits into more than one cycle ({len(edges) - len(cycle)} edges left over)"
        )
    return cycle


def boundary_walk(sector: Sector) -> BoundaryWalk:
    """Unfold the n copies and walk their common boundary.

    The sector's own boundary is rooted at 1/0; consecutive copies glue
    along the maximal radial path fixed by s_j + 1 = s_-j, read off the
    map's vertex translation.  The remaining arc of the boundary is the seed
    of `Polygon.from_seed`: copy k contributes it translated by t -> t + k,
    and the walk must close on edges of the map, else BrokenInvariant.
    """
    fmap = sector.fmap
    slots = _boundary_cycle(fmap, sector.face_ids)
    north = 0  # 1/0 leads the vertex order
    hits = [i for i, v in enumerate(slots) if v == north]
    if len(hits) != 1:
        raise DisconnectedBoundary(f"1/0 appears {len(hits)} times on the sector boundary")
    k = hits[0]
    slots = slots[k:] + slots[:k]
    length = len(slots)

    shift = fmap.vertex_translation().tolist()
    radius = 0
    while radius + 1 < length // 2 and shift[slots[radius + 1]] == slots[-(radius + 1)]:
        radius += 1
    # fresh slots per copy; the next copy starts at the translate of slots[radius]
    free = slots[radius:length - radius]
    nums, dens = fmap.vertex_columns()
    return BoundaryWalk.from_seed(fmap, nums[free], dens[free])


def normalize_walk(walk: BoundaryWalk, first_label: str, second_label: str) -> BoundaryWalk:
    """Rotate so the walk opens with the directed edge first -> second.

    Every directed edge occurs at most once on the walk, so this fixes the
    starting slot unambiguously for table comparison.
    """
    labels = walk.fmap.vertex_labels()
    hits = [i for i, (u, w) in enumerate(walk.side_paths())
            if labels[u] == first_label and labels[w] == second_label]
    if len(hits) != 1:
        raise UnpairedEdge(f"directed edge {first_label}->{second_label} occurs {len(hits)} times")
    return replace(walk, ids=walk.ids[hits[0]:] + walk.ids[:hits[0]])


def pair_boundary(walk: BoundaryWalk) -> SidePairing:
    """Slot pair (i, j): edge i runs v->u where edge j runs u->v."""
    return walk.pairing()


def quotient_genus(walk: BoundaryWalk, pairing: SidePairing) -> int:
    """The genus of the walk, its slots the corners of one disc."""
    return walk.genus(pairing)
