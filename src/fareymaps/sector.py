"""The level-11 construction: sector, 198-gon boundary, orientable pairing.

The rotation t -> t + 1 splits the 220 faces of M3(11) into 20 free orbits
of size 11.  A sector is an edge-connected choice of one face per orbit
containing the central triangle {1/0, 0/1, 1/1}; its eleven translates tile
the map.  Unfolding the translates around the centre glues consecutive
copies along a short radial path through 1/0 and leaves a closed boundary
walk; for the reference sector supported on 22 particular vertex labels that walk
has 198 slots, every directed edge appears once in each direction, and the
resulting orientable identification yields a genus-26 surface.

The map supplies every table this module uses: `face_translation()` for
the orbits and the tiles, `face_neighbours()` for the edge-connected growth
and the boundary walk, `vertex_translation()` for the translated copies of
the boundary, and `vertex_labels()` for the labels.  Nothing here touches
darts.  The pipeline runs on vertex ids: a `BoundaryWalk` holds the walk as
ids, and its vertices and labels are views read off the map, so the walk,
the pairing and the genus build no FareyFraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import FareyFraction
from .errors import (
    BrokenInvariant,
    DisconnectedBoundary,
    NoSector,
    UnknownVertex,
    UnpairedEdge,
    WrongLevel,
)
from .gluing import SidePairing, polygon_genus, reversed_pairs
from .maps import FareyMap

LEVEL = 11

# The 22 vertex labels of the reference sector, in boundary circuit order;
# its boundary table is pinned verbatim by the golden tests.
REFERENCE_SECTOR_LABELS = (
    "1/0", "0/1", "1/5", "1/4", "1/3", "2/5", "1/2", "5/0", "6/2", "7/4",
    "3/5", "6/3", "4/0", "2/3", "6/4", "3/0", "3/4", "4/2", "4/5", "2/0",
    "6/5", "1/1",
)


def reference_sector_vertices() -> frozenset[FareyFraction]:
    return frozenset(FareyFraction.parse(s, LEVEL) for s in REFERENCE_SECTOR_LABELS)


def _require_level(fmap: FareyMap) -> None:
    if fmap.level != LEVEL:
        raise WrongLevel(f"expected a level-11 map, got level {fmap.level}")


def _anchor_id(fmap: FareyMap) -> int:
    """Face id of the central triangle {1/0, 0/1, 1/1}."""
    return fmap.face_id_by_vertices(fmap.vertex_ids([1, 0, 1], [0, 1, 1]).tolist())


class Sector:
    """A 20-face fundamental region for t -> t + 1 on the faces of M3(11)."""

    def __init__(self, fmap: FareyMap, face_ids):
        self.fmap = fmap
        self.face_ids = tuple(sorted(face_ids))
        if self.face_ids and not 0 <= self.face_ids[0] <= self.face_ids[-1] < fmap.face_count:
            raise UnknownVertex(f"face ids {self.face_ids} not all in 0..{fmap.face_count - 1}")

    def __len__(self) -> int:
        return len(self.face_ids)


def _sectors(fmap: FareyMap, restrict):
    """Every sector under a vertex restriction, once each, as face-id sets.

    Grows an edge-connected face set from the central triangle, one face per
    translation orbit.  Each step takes the least frontier face, first
    included and then banned, so the two branches never share a face set.
    With `restrict`, only faces whose three vertices lie in the given set
    are considered.

    The translation orbits are read off `face_translation()` on each call,
    and a non-free orbit raises `BrokenInvariant`.  The walk runs on
    bitmasks over face ids.  A state is (chosen, size, open_, frontier): the
    chosen faces and their number, the faces still selectable (allowed, not
    banned, orbit unused) and the open faces next to a chosen one, so the
    least frontier face is its lowest set bit.  Including it drops its whole
    orbit from `open_` and adds its three `face_neighbours()` bits to the
    frontier; banning it drops its bit.  States wait on an explicit stack,
    the include branch on top, which is the depth-first order without
    Python recursion.  A ban that leaves its orbit with no open face is not
    pushed: every face set below it misses that orbit, so no sector is lost
    and the order is kept.
    """
    _require_level(fmap)
    neighbours = fmap.face_neighbours().tolist()
    translate = fmap.face_translation().tolist()
    orbit_of = [-1] * fmap.face_count
    orbit_masks: list[int] = []
    for fid in range(fmap.face_count):
        if orbit_of[fid] >= 0:
            continue
        mask = 0
        cur = fid
        for _ in range(LEVEL):
            orbit_of[cur] = len(orbit_masks)
            mask |= 1 << cur
            cur = translate[cur]
        if cur != fid or mask.bit_count() != LEVEL:
            raise BrokenInvariant(f"the translation orbit of face {fid} is not free")
        orbit_masks.append(mask)

    anchor = _anchor_id(fmap)
    allowed = (1 << fmap.face_count) - 1
    if restrict is not None:
        allowed_ids = {fmap.vertex_id(v) for v in restrict}
        allowed = sum(
            1 << fid
            for fid, row in enumerate(fmap.face_vertex_rows())
            if allowed_ids.issuperset(row)
        )
        if not allowed >> anchor & 1:
            raise NoSector("restriction excludes the central triangle")

    def adjacent(fid: int) -> int:
        a, b, c = neighbours[fid]
        return 1 << a | 1 << b | 1 << c

    open_ = allowed & ~orbit_masks[orbit_of[anchor]]
    stack = [(1 << anchor, 1, open_, adjacent(anchor) & open_)]
    while stack:
        chosen, size, open_, frontier = stack.pop()
        if size == len(orbit_masks):
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
    """The eleven translated copies of the sector, as face-id sets."""
    translate = sector.fmap.face_translation().tolist()
    tiles = []
    current = set(sector.face_ids)
    for _ in range(LEVEL):
        tiles.append(frozenset(current))
        current = {translate[fid] for fid in current}
    return tiles


@dataclass(frozen=True)
class BoundaryWalk:
    """Closed walk around the unfolded union of the eleven sector copies,
    as vertex ids of its map; the vertices and labels are read off the map."""

    ids: tuple[int, ...]
    row_length: int  # fresh slots contributed by each sector copy
    fmap: FareyMap

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def vertices(self) -> tuple[FareyFraction, ...]:
        vs = self.fmap.vertices
        return tuple(vs[i] for i in self.ids)

    def labels(self) -> list[str]:
        labels = self.fmap.vertex_labels()
        return [labels[i] for i in self.ids]

    def edge_ids(self) -> list[tuple[int, int]]:
        """Edge i of the walk, from slot i to slot i + 1 (the last edge
        closing the walk), as a pair of vertex ids."""
        ids = self.ids
        return list(zip(ids, ids[1:] + ids[:1]))

    def edges(self) -> list[tuple[FareyFraction, FareyFraction]]:
        vs = self.fmap.vertices
        return [(vs[u], vs[w]) for u, w in self.edge_ids()]

    def rows(self) -> list[list[str]]:
        """Row k lists the slots of sector copy k plus the shared end slot."""
        vs = self.labels()
        out = []
        for k in range(LEVEL):
            row = vs[k * self.row_length:(k + 1) * self.row_length]
            row.append(vs[((k + 1) * self.row_length) % len(vs)])
            out.append(row)
        return out

    def rotated(self, shift: int) -> "BoundaryWalk":
        ids = self.ids
        shifted = ids[shift % len(ids):] + ids[:shift % len(ids)]
        return BoundaryWalk(shifted, self.row_length, self.fmap)


def _boundary_cycle(fmap: FareyMap, face_ids) -> list[int]:
    """Vertex ids of the closed boundary walk of a face set, region on the left.

    A state is an inside face and one of its corners w.  When the face
    across the edge that ends at w lies outside, that edge is on the
    boundary: emit w and move to the previous corner of the same face.
    Otherwise continue at w in the face across, which turns around w.
    """
    inside = set(face_ids)
    neighbours = fmap.face_neighbours().tolist()
    rows = fmap.face_vertex_rows()
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
    """Unfold the eleven copies and walk their common boundary.

    The sector's own boundary is rooted at 1/0; consecutive copies glue
    along the maximal radial path fixed by s_j + 1 = s_-j, and each copy
    contributes the remaining arc of its boundary, translated.  Both the
    fold and the copies read the map's vertex translation.
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
    walk = []
    copy = free
    for _ in range(LEVEL):
        walk += copy
        copy = [shift[v] for v in copy]
    return BoundaryWalk(tuple(walk), len(free), fmap)


def normalize_walk(walk: BoundaryWalk, first_label: str, second_label: str) -> BoundaryWalk:
    """Rotate so the walk opens with the directed edge first -> second.

    Every directed edge occurs at most once on the walk, so this fixes the
    starting slot unambiguously for table comparison.
    """
    labels = walk.fmap.vertex_labels()
    candidates = [
        i
        for i, (u, w) in enumerate(walk.edge_ids())
        if labels[u] == first_label and labels[w] == second_label
    ]
    if len(candidates) != 1:
        raise UnpairedEdge(
            f"directed edge {first_label}->{second_label} occurs {len(candidates)} times"
        )
    return walk.rotated(candidates[0])


def pair_boundary(walk: BoundaryWalk) -> SidePairing:
    """Match every directed boundary edge with its unique reversal: slot
    pair (i, j) means edge i runs v->u where edge j runs u->v."""
    return SidePairing(reversed_pairs(walk.edge_ids(), walk.fmap.vertex_labels().__getitem__))


def quotient_genus(walk: BoundaryWalk, pairing: SidePairing) -> int:
    """Genus of the surface obtained by gluing the paired boundary edges.

    The boundary slots are the polygon corners; the vertices, edges and
    faces of the tiling off the boundary make up the rest of the Euler
    characteristic.
    """
    fmap = walk.fmap
    interior_vertices = fmap.vertex_count - len(set(walk.ids))
    interior_edges = fmap.edge_count - len(pairing.pairs)
    inner_chi = interior_vertices - interior_edges + fmap.face_count
    return polygon_genus(walk.ids, pairing.pairs, inner_chi)
