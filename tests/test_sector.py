import gc
import itertools
import random
import time
import weakref
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareymaps import sector as sector_module
from fareymaps.arith import canonical, is_adjacent, vertex_columns
from fareymaps.errors import (
    DisconnectedBoundary,
    NoSector,
    UnknownVertex,
    UnpairedEdge,
    WrongLevel,
)
from fareymaps.gluing import polygon_genus, reversed_pairs
from fareymaps.maps import FareyMap, build_map
from fareymaps.sector import (
    BoundaryWalk,
    REFERENCE_SECTOR_LABELS,
    Sector,
    boundary_walk,
    count_sectors,
    normalize_walk,
    pair_boundary,
    reference_sector_vertices,
    quotient_genus,
    sector_search,
    tile_by_translates,
)

GOLDEN_TABLE = [
    row.split()
    for row in [
        "1/5 1/4 1/3 2/5 1/2 5/0 6/2 7/4 3/5 6/3 4/0 2/3 6/4 3/0 3/4 4/2 4/5 2/0 6/5",
        "6/5 5/4 4/3 7/5 3/2 5/0 8/2 0/4 8/5 9/3 4/0 5/3 10/4 3/0 7/4 6/2 9/5 2/0 0/5",
        "0/5 9/4 7/3 1/5 5/2 5/0 10/2 4/4 2/5 1/3 4/0 8/3 3/4 3/0 0/4 8/2 3/5 2/0 5/5",
        "5/5 2/4 10/3 6/5 7/2 5/0 1/2 8/4 7/5 4/3 4/0 0/3 7/4 3/0 4/4 10/2 8/5 2/0 10/5",
        "10/5 6/4 2/3 0/5 9/2 5/0 3/2 1/4 1/5 7/3 4/0 3/3 0/4 3/0 8/4 1/2 2/5 2/0 4/5",
        "4/5 10/4 5/3 5/5 0/2 5/0 5/2 5/4 6/5 10/3 4/0 6/3 4/4 3/0 1/4 3/2 7/5 2/0 9/5",
        "9/5 3/4 8/3 10/5 2/2 5/0 7/2 9/4 0/5 2/3 4/0 9/3 8/4 3/0 5/4 5/2 1/5 2/0 3/5",
        "3/5 7/4 0/3 4/5 4/2 5/0 9/2 2/4 5/5 5/3 4/0 1/3 1/4 3/0 9/4 7/2 6/5 2/0 8/5",
        "8/5 0/4 3/3 9/5 6/2 5/0 0/2 6/4 10/5 8/3 4/0 4/3 5/4 3/0 2/4 9/2 0/5 2/0 2/5",
        "2/5 4/4 6/3 3/5 8/2 5/0 2/2 10/4 4/5 0/3 4/0 7/3 9/4 3/0 6/4 0/2 5/5 2/0 7/5",
        "7/5 8/4 9/3 8/5 10/2 5/0 4/2 3/4 9/5 3/3 4/0 10/3 2/4 3/0 10/4 2/2 10/5 2/0 1/5",
    ]
]


def v11(s):
    return canonical(*map(int, s.split("/")), 11)


@pytest.fixture(scope="module")
def m11():
    return build_map(11)


def anchor_id(fmap):
    """Face id of the central triangle {1/0, 0/1, 1/1}."""
    return fmap.face_id_by_vertices([v11("1/0"), v11("0/1"), v11("1/1")])


def translate(v, k=1):
    """The image of the vertex v = a/c under t -> t + k: (a + k c)/c."""
    return canonical(v.num + k * v.den, v.den, v.level)


def walk_vertices(walk):
    """The slots of a boundary walk as FareyFractions."""
    return tuple(walk.fmap.vertices[i] for i in walk.ids)


def vertex_support(sector):
    """The vertices of the sector's faces."""
    fmap = sector.fmap
    return frozenset(fmap.vertices[i] for fid in sector.face_ids for i in fmap.face_vertex_ids(fid))


@pytest.fixture(scope="module")
def reference_sector(m11):
    return sector_search(m11, restrict=reference_sector_vertices())


@pytest.fixture(scope="module")
def reference_walk(reference_sector):
    return boundary_walk(reference_sector)


def test_wrong_level():
    with pytest.raises(WrongLevel):
        sector_search(build_map(7))


def test_restricted_search_finds_reference_sector(reference_sector, m11):
    assert len(reference_sector) == 20
    assert anchor_id(m11) in reference_sector.face_ids
    assert vertex_support(reference_sector) == reference_sector_vertices()


def test_restricted_sector_is_unique(m11):
    assert count_sectors(m11, reference_sector_vertices()) == 1


def test_translates_partition_faces(reference_sector, m11):
    tiles = tile_by_translates(reference_sector)
    assert len(tiles) == 11
    assert all(len(t) == 20 for t in tiles)
    union = set().union(*tiles)
    assert len(union) == m11.face_count == 220
    for i, t in enumerate(tiles):
        for u in tiles[i + 1:]:
            assert not (t & u)


def test_eight_faces_touch_first_circuit(reference_sector, m11):
    touch = {v11("0/1"), v11("1/1")}
    anchor = anchor_id(m11)
    hits = [
        fid
        for fid in reference_sector.face_ids
        if fid != anchor
        and any(m11.vertices[i] in touch for i in m11.face_vertex_ids(fid))
    ]
    assert len(hits) == 8


def test_unrestricted_search_gives_valid_sector(m11):
    sector = sector_search(m11)
    assert len(sector) == 20
    tiles = tile_by_translates(sector)
    assert len(set().union(*tiles)) == 220
    touch = {v11("0/1"), v11("1/1")}
    anchor = anchor_id(m11)
    hits = [
        fid
        for fid in sector.face_ids
        if fid != anchor
        and any(m11.vertices[i] in touch for i in m11.face_vertex_ids(fid))
    ]
    assert len(hits) == 8


def test_boundary_walk_length_and_rows(reference_walk):
    assert len(reference_walk) == 198
    assert reference_walk.row_length == 18
    rows = reference_walk.rows()
    assert len(rows) == 11 and all(len(r) == 19 for r in rows)
    # row structure: row k equals row 1 translated by k - 1
    for k, row in enumerate(rows):
        expect = [str(translate(v11(s), k)) for s in rows[0]]
        assert row == expect
    # the last label of each row opens the next row
    for k in range(11):
        assert rows[k][-1] == rows[(k + 1) % 11][0]


def test_boundary_walk_matches_golden_table(reference_walk):
    walk = normalize_walk(reference_walk, GOLDEN_TABLE[0][0], GOLDEN_TABLE[0][1])
    assert walk.rows() == GOLDEN_TABLE


def test_boundary_edges_adjacent(reference_walk):
    vs = reference_walk.fmap.vertices
    for u, w in reference_walk.edge_ids():
        assert is_adjacent(vs[u], vs[w])


def test_pole_multiplicities_on_boundary(reference_walk):
    labels = reference_walk.labels()
    for pole in ("2/0", "3/0", "4/0", "5/0"):
        assert labels.count(pole) == 11
    assert "1/0" not in labels


def test_translation_covariance_of_boundary(reference_walk):
    vs = walk_vertices(reference_walk)
    shifted = tuple(translate(v) for v in vs)
    assert shifted == vs[18:] + vs[:18]


def test_pairing_count_and_involution(reference_walk):
    pairing = pair_boundary(reference_walk)
    assert len(pairing.pairs) == 99
    seen = set()
    for i, j in pairing.pairs:
        assert pairing.partner(i) == j and pairing.partner(j) == i
        seen.update((i, j))
    assert seen == set(range(198))


def test_pairing_examples_from_rows(reference_walk):
    walk = normalize_walk(reference_walk, GOLDEN_TABLE[0][0], GOLDEN_TABLE[0][1])
    pairing = pair_boundary(walk)
    labels = walk.labels()

    def directed_slot(row, col):
        slot = row * 18 + col
        return slot

    # row 1 slot 0: 1/5 -> 1/4 pairs with the row-5 edge 1/4 -> 1/5
    assert labels[0] == "1/5" and labels[1] == "1/4"
    partner = pairing.partner(0)
    assert 4 * 18 <= partner < 5 * 18
    assert labels[partner] == "1/4" and labels[(partner + 1) % 198] == "1/5"
    # row 1 slot 1: 1/4 -> 1/3 pairs with the row-8 edge 1/3 -> 1/4
    partner = pairing.partner(1)
    assert 7 * 18 <= partner < 8 * 18
    assert labels[partner] == "1/3" and labels[(partner + 1) % 198] == "1/4"


def test_quotient_genus_26(reference_walk):
    assert quotient_genus(reference_walk, pair_boundary(reference_walk)) == 26


def translate_face(fmap, fid):
    """Face id of the image of face fid under t -> t + 1."""
    vs = fmap.vertices
    return fmap.face_id_by_vertices([translate(vs[i]) for i in fmap.face_vertex_ids(fid)])


def test_disconnected_sector_reported(reference_sector, m11):
    anchor = anchor_id(m11)
    shifted = [
        fid if fid == anchor else translate_face(m11, fid)
        for fid in reference_sector.face_ids
    ]
    bad = Sector(m11, shifted)
    with pytest.raises(DisconnectedBoundary):
        boundary_walk(bad)


def test_sector_reads_distinct_face_ids_as_ints(m11):
    for face_ids in ([3, 3], [1, True]):
        with pytest.raises(UnknownVertex):
            Sector(m11, face_ids)
    sector = Sector(m11, (np.int64(5), True, 3))
    assert sector.face_ids == (1, 3, 5) and all(type(f) is int for f in sector.face_ids)
    assert len(Sector(m11, [])) == 0


def test_pinched_face_pair_reported(m11):
    # the two faces share the vertex 1/0 and no edge
    pair = [
        m11.face_id_by_vertices([v11("1/0"), v11("0/1"), v11("10/1")]),
        m11.face_id_by_vertices([v11("1/0"), v11("2/1"), v11("1/1")]),
    ]
    with pytest.raises(DisconnectedBoundary):
        boundary_walk(Sector(m11, pair))


def test_tiles_are_translates(reference_sector, m11):
    tiles = tile_by_translates(reference_sector)
    for tile, image in zip(tiles, tiles[1:] + tiles[:1]):
        assert {translate_face(m11, fid) for fid in tile} == image


def test_no_sector_when_restriction_too_small(m11):
    tiny = frozenset(v11(s) for s in ("1/0", "0/1", "1/1", "1/2"))
    with pytest.raises(NoSector):
        sector_search(m11, restrict=tiny)


def face_structure(fmap):
    """Translation orbit label and edge-neighbour faces of every face, and
    the anchor face, from vertex lookups and shared corners."""
    translate = [translate_face(fmap, fid) for fid in range(fmap.face_count)]
    orbit_of = {}
    for fid in range(fmap.face_count):
        cur = fid
        while cur not in orbit_of:
            orbit_of[cur] = fid
            cur = translate[cur]
    # two faces are edge-neighbours when they share two corners
    rows = fmap.face_vertex_rows()
    faces_at = {}
    for fid, row in enumerate(rows):
        for v in row:
            faces_at.setdefault(v, set()).add(fid)
    adjacent = [
        {g for k in range(3) for g in faces_at[row[k]] & faces_at[row[k - 1]]} - {fid}
        for fid, row in enumerate(rows)
    ]
    return orbit_of, adjacent, anchor_id(fmap)


def allowed_faces(fmap, restrict):
    return [
        fid for fid, face in enumerate(fmap.faces())
        if restrict is None or all(v in restrict for v in face)
    ]


def dfs_sector(fmap, restrict=None):
    """Reference search: depth-first over the frontier in ascending face
    order, first complete face set, or None.  It re-explores every ordering
    of a face set, so it is only run where a sector exists."""
    orbit_of, adjacent, anchor = face_structure(fmap)
    orbit_count = len(set(orbit_of.values()))
    allowed = set(allowed_faces(fmap, restrict))
    chosen = [anchor]
    used = {orbit_of[anchor]}

    def extend():
        if len(chosen) == orbit_count:
            return True
        frontier = sorted(
            {
                g
                for fid in chosen
                for g in adjacent[fid]
                if orbit_of[g] not in used and g in allowed
            }
        )
        for g in frontier:
            chosen.append(g)
            used.add(orbit_of[g])
            if extend():
                return True
            used.remove(orbit_of[g])
            chosen.pop()
        return False

    return tuple(sorted(chosen)) if extend() else None


def brute_force_sectors(fmap, restrict):
    """Every sector under the restriction: each choice of one allowed face
    per orbit that contains the anchor and is edge-connected."""
    orbit_of, adjacent, anchor = face_structure(fmap)
    by_orbit = {}
    for fid in allowed_faces(fmap, restrict):
        by_orbit.setdefault(orbit_of[fid], []).append(fid)
    if len(by_orbit) < len(set(orbit_of.values())):
        return set()
    found = set()
    for choice in itertools.product(*by_orbit.values()):
        faces = set(choice)
        if anchor not in faces:
            continue
        reached, stack = {anchor}, [anchor]
        while stack:
            for g in adjacent[stack.pop()] & faces - reached:
                reached.add(g)
                stack.append(g)
        if reached == faces:
            found.add(tuple(sorted(faces)))
    return found


def test_search_matches_depth_first_reference(m11):
    reference = reference_sector_vertices()
    assert sector_search(m11, restrict=reference).face_ids == dfs_sector(m11, reference)
    assert sector_search(m11).face_ids == dfs_sector(m11)
    # feasible restrictions: the reference support plus 1 to 5 other vertices;
    # with 0/3 and 7/1 added, a face banned by the search touches a face
    # chosen after the ban
    rng = random.Random(0)
    others = sorted(set(m11.vertices) - reference, key=str)
    restrictions = [reference | {v11("0/3"), v11("7/1")}] + [
        reference | set(rng.sample(others, rng.randint(1, 5))) for _ in range(12)
    ]
    found = set()
    counts = []
    for restrict in restrictions:
        face_ids = sector_search(m11, restrict=restrict).face_ids
        assert face_ids == dfs_sector(m11, restrict)
        every = brute_force_sectors(m11, restrict)
        assert face_ids in every
        assert count_sectors(m11, restrict) == len(every)
        found.add(face_ids)
        counts.append(len(every))
    # not every restriction returns the reference sector or has one sector
    assert len(found) > 1 and counts[0] == 12


def test_no_sector_without_a_reference_label(m11):
    reference = reference_sector_vertices()
    start = time.perf_counter()
    for label in REFERENCE_SECTOR_LABELS:
        if label in ("1/0", "0/1", "1/1"):
            continue
        restrict = reference - {v11(label)}
        with pytest.raises(NoSector):
            sector_search(m11, restrict=restrict)
        assert count_sectors(m11, restrict) == 0, label
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"19 infeasible searches took {elapsed:.2f}s (budget 2s)"


# the level-11 labels outside the reference support, in string order
OTHER_LABELS = sorted(
    {f"{a}/{c}" for a, c in zip(*vertex_columns(11).tolist())} - set(REFERENCE_SECTOR_LABELS)
)


@settings(max_examples=20, deadline=timedelta(seconds=5))
@given(extra=st.lists(st.sampled_from(OTHER_LABELS), min_size=1, max_size=5, unique=True))
def test_search_and_count_match_references_on_seeded_restrictions(m11, extra):
    # the reference support keeps a sector feasible, so the depth-first
    # reference terminates
    restrict = reference_sector_vertices() | {v11(s) for s in extra}
    assert sector_search(m11, restrict=restrict).face_ids == dfs_sector(m11, restrict)
    assert count_sectors(m11, restrict) == len(brute_force_sectors(m11, restrict))


def test_face_structure_is_built_once_per_map(monkeypatch):
    # each build makes a new array: count the distinct arrays the two
    # tables return, holding them so that no id is reused
    returned = {"face_neighbours": [], "face_translation": []}
    for name, seen in returned.items():
        table = getattr(FareyMap, name)

        def counted(self, table=table, seen=seen):
            seen.append(table(self))
            return seen[-1]

        monkeypatch.setattr(FareyMap, name, counted)

    def builds():
        return {name: len({id(t) for t in seen}) for name, seen in returned.items()}

    m = build_map(11)
    reference = reference_sector_vertices()
    sector = sector_search(m, restrict=reference)
    assert builds() == {"face_neighbours": 1, "face_translation": 1}
    sector_search(m)
    assert count_sectors(m, reference) == 1
    assert len(tile_by_translates(sector)) == 11
    boundary_walk(sector)
    assert builds() == {"face_neighbours": 1, "face_translation": 1}


def test_face_structure_cache_does_not_keep_the_map_alive():
    m = build_map(11)
    sector_search(m)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


# -- the object path: the walk, the pairing and the genus as they ran on
# FareyFractions before the pipeline moved to vertex ids, kept as the oracle

def reference_boundary_walk(sector):
    """(vertices, row_length) of the boundary walk, built from FareyFractions
    and translated with canonical."""
    fmap = sector.fmap
    cycle = sector_module._boundary_cycle(fmap, sector.face_ids)
    slots = [fmap.vertices[w] for w in cycle]
    north = canonical(1, 0, 11)
    hits = [i for i, v in enumerate(slots) if v == north]
    assert len(hits) == 1
    k = hits[0]
    slots = slots[k:] + slots[:k]
    length = len(slots)
    radius = 0
    while radius + 1 < length // 2 and translate(slots[radius + 1]) == slots[-(radius + 1)]:
        radius += 1
    free = slots[radius:length - radius]
    return tuple(translate(v, k) for k in range(11) for v in free), len(free)


def reference_pair_boundary(vertices):
    return reversed_pairs([(v, vertices[(i + 1) % len(vertices)]) for i, v in enumerate(vertices)])


def reference_quotient_genus(fmap, vertices, pairs):
    interior_vertices = fmap.vertex_count - len(set(vertices))
    interior_edges = fmap.edge_count - len(pairs)
    inner_chi = interior_vertices - interior_edges + fmap.face_count
    return polygon_genus(vertices, pairs, inner_chi)


@pytest.mark.parametrize("restricted", [True, False], ids=["reference", "free"])
def test_id_pipeline_equals_the_fraction_reference(m11, restricted):
    sector = sector_search(m11, restrict=reference_sector_vertices() if restricted else None)
    walk = boundary_walk(sector)
    vertices, row_length = reference_boundary_walk(sector)
    assert (len(walk), walk.row_length) == (len(vertices), row_length) == (198, 18)
    assert walk_vertices(walk) == vertices
    assert walk.labels() == [str(v) for v in vertices]
    edges = zip(vertices, vertices[1:] + vertices[:1])
    assert walk.edge_ids() == [(m11.vertex_id(u), m11.vertex_id(w)) for u, w in edges]
    pairing = pair_boundary(walk)
    assert pairing.pairs == reference_pair_boundary(vertices)
    genus = quotient_genus(walk, pairing)
    assert genus == reference_quotient_genus(m11, vertices, pairing.pairs) == 26
    # normalize_walk rotates to the given directed edge, as on the labels
    labels = walk.labels()
    for k in (0, 7, 197):
        turned = normalize_walk(walk, labels[k], labels[(k + 1) % 198])
        assert turned.labels() == labels[k:] + labels[:k]
        assert walk_vertices(turned) == vertices[k:] + vertices[:k]


def test_the_198_walk_builds_no_fraction(built_fractions):
    # the sector search, the walk, the pairing and the genus run on vertex
    # ids and read the labels off the map: they build no FareyFraction
    built = built_fractions
    m = build_map(11)
    restrict = reference_sector_vertices()
    assert sorted(built) == sorted(str(v) for v in restrict)  # the 22 reference labels
    built.clear()

    def chain():
        walk = normalize_walk(boundary_walk(sector_search(m, restrict)), "1/5", "1/4")
        pairing = pair_boundary(walk)
        assert quotient_genus(walk, pairing) == 26
        assert walk.rows() == GOLDEN_TABLE and len(walk.labels()) == 198
        return walk

    chain()
    assert built == [] and "vertices" not in m._tables
    assert len(m.vertices) == len(built) == 60  # built on request


def test_walk_errors_name_labels(reference_walk):
    with pytest.raises(UnpairedEdge, match="directed edge 1/5->1/0 occurs 0 times"):
        normalize_walk(reference_walk, "1/5", "1/0")
    # walks that run an edge twice in one direction, or never back
    walk = normalize_walk(reference_walk, "1/5", "1/4")
    doubled = BoundaryWalk(walk.ids[:2] * 2, 2, walk.fmap)
    with pytest.raises(UnpairedEdge, match=r"directed key \('1/5', '1/4'\) occurs twice"):
        pair_boundary(doubled)
    open_ = BoundaryWalk(walk.ids[:3], 3, walk.fmap)
    with pytest.raises(UnpairedEdge, match=r"no reversed occurrence of \('1/5', '1/4'\)"):
        pair_boundary(open_)
