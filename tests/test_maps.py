import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import time
import tracemalloc
from itertools import combinations_with_replacement, permutations
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from fareymaps import maps
from fareymaps.arith import (
    FareyFraction,
    ModMatrix,
    canonical,
    is_adjacent,
    mobius_mod,
    vertex_columns,
)
from fareymaps.errors import (
    BrokenInvariant,
    FareyMapError,
    MalformedMap,
    ResourceLimit,
    UnknownVertex,
    Unsupported,
)
from fareymaps.invariants import check_map
from fareymaps.maps import (
    DEFAULT_LEVEL_BOUND,
    build_map,
    from_json,
    gather_rows,
    genus,
    map_to_dict,
    mu,
    same_combinatorics,
    to_dot,
    to_json,
)
from fareymaps.metrics import bfs_distance, diameter
from fareymaps.render import render_map

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json"


def brute_psl_order(n):
    """Count matrices with det = 1 mod n, identified with their negatives."""
    seen = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1:
                        neg = ((-a) % n, (-b) % n, (-c) % n, (-d) % n)
                        seen.add(min((a, b, c, d), neg))
    return len(seen)


def test_mu_examples():
    assert mu(5) == 60
    assert mu(7) == 168
    assert mu(11) == 660


def test_mu_against_brute_enumeration():
    for n in range(3, 14):
        assert mu(n) == brute_psl_order(n), n


def test_mu_unsupported():
    with pytest.raises(Unsupported):
        mu(2)


def test_mu_and_genus_read_the_level_as_an_index():
    assert mu(np.int64(7)) == 168 and type(mu(np.int64(7))) is int
    assert genus(np.int64(7)) == 3 and type(genus(np.int64(7))) is int
    for count in (mu, genus):
        for level in (7.0, "7", None):
            with pytest.raises(Unsupported, match="needs an integer level"):
                count(level)


def test_genus_examples():
    assert genus(7) == 3
    assert genus(11) == 26
    assert genus(5) == 0


def test_build_map_counts():
    for n, v, e, f in [(5, 12, 30, 20), (7, 24, 84, 56), (11, 60, 330, 220)]:
        m = build_map(n)
        assert (m.vertex_count, m.edge_count, m.face_count) == (v, e, f)
        assert m.dart_count == mu(n)


def test_build_map_bounds():
    with pytest.raises(Unsupported):
        build_map(2)
    with pytest.raises(ResourceLimit):
        build_map(103)


def test_permutation_structure():
    for n in range(3, 14):
        m = build_map(n)
        idx = np.arange(m.dart_count)
        # alpha: fixed-point-free involution
        assert np.array_equal(m.alpha[m.alpha], idx)
        assert not np.any(m.alpha == idx)
        # sigma has order exactly n
        sigma = maps.rotated(idx, n)
        power = idx
        for k in range(1, n):
            power = sigma[power]
            assert np.any(power != idx), (n, k)
        assert np.array_equal(sigma[power], idx)
        # face operator: all orbits of size 3
        phi = sigma[m.alpha]
        assert np.array_equal(phi[phi[phi]], idx)
        assert not np.any(phi == idx)
        assert not np.any(phi[phi] == idx)
        assert m.face_count * 3 == m.dart_count


def edge_pairs(m):
    """The edges of m as (src, tgt) id pairs, read off its edge rows."""
    return [tuple(e) for e in m.edge_columns().tolist()]


def neighbours_of(m, v):
    """The neighbours of the vertex v in rotation order, read off the dart targets."""
    return [m.vertices[i] for i in m.dart_targets()[m.vertex_id(v)].tolist()]


def test_edges_match_adjacency_oracle():
    for n in range(3, 14):
        m = build_map(n)
        vs = m.vertices
        from_darts = {frozenset(e) for e in edge_pairs(m)}
        from_oracle = {
            frozenset((i, j))
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
            if is_adjacent(vs[i], vs[j])
        }
        assert from_darts == from_oracle, n


def test_vertex_stabilizer_of_north_is_translation_group():
    for n in (5, 7):
        north = canonical(1, 0, n)
        t = ModMatrix.translation(n)
        powers = {ModMatrix.identity(n)}
        cur = t
        while cur not in powers:
            powers.add(cur)
            cur = cur * t
        assert len(powers) == n
        stabilizer = set()
        seen = set()
        gens = [t, ModMatrix.edge_reversal(n)]
        frontier = [ModMatrix.identity(n)]
        while frontier:
            g = frontier.pop()
            if g in seen:
                continue
            seen.add(g)
            if mobius_mod(g, north) == north:
                stabilizer.add(g)
            frontier.extend(g * h for h in gens)
        assert len(seen) == mu(n)
        assert stabilizer == powers


def test_neighbors_examples():
    m7 = build_map(7)
    got = neighbours_of(m7, canonical(1, 0, 7))
    assert list(map(str, got)) == [f"{k}/1" for k in range(7)]

    m5 = build_map(5)
    around = neighbours_of(m5, canonical(0, 1, 5))
    assert len(around) == 5
    assert canonical(1, 0, 5) in around

    m11 = build_map(11)
    v = canonical(2, 0, 11)
    got = set(neighbours_of(m11, v))
    expect = {u for u in m11.vertices if u != v and is_adjacent(u, v)}
    assert len(got) == 11
    assert got == expect

    with pytest.raises(UnknownVertex):
        m7.vertex_id(canonical(1, 0, 5))


def test_faces_examples():
    m7 = build_map(7)
    assert m7.has_face([canonical(1, 0, 7), canonical(0, 1, 7), canonical(1, 1, 7)])
    assert m7.has_face([canonical(6, 3, 7), canonical(2, 0, 7), canonical(1, 3, 7)])
    m11 = build_map(11)
    assert m11.has_face([canonical(1, 0, 11), canonical(0, 1, 11), canonical(1, 1, 11)])


def test_has_face_matches_adjacency_triple_oracle():
    # every vertex triple, repeated vertices included: a face is exactly a
    # triple of three distinct, pairwise adjacent vertices
    for n in range(3, 10):
        m = build_map(n)
        faces = 0
        for a, b, c in combinations_with_replacement(m.vertices, 3):
            want = (len({a, b, c}) == 3 and is_adjacent(a, b)
                    and is_adjacent(b, c) and is_adjacent(a, c))
            assert m.has_face([a, b, c]) == want, (n, a, b, c)
            faces += want
        assert faces == m.face_count


def test_face_lookup_edge_cases():
    m7 = build_map(7)
    north, zero = canonical(1, 0, 7), canonical(0, 1, 7)
    assert not m7.has_face([north, zero])
    # a face's corners with one repeated, or too few: not exactly three vertices
    a, b, c = m7.face_vertex_ids(0)
    for vs in ([a, b, c, c], [a, b, c, a, b], [a], []):
        assert not m7.has_face(vs)
        with pytest.raises(UnknownVertex):
            m7.face_id_by_vertices(vs)
    assert not m7.has_face([north, zero, canonical(1, 1, 5)])  # other level
    with pytest.raises(UnknownVertex):
        m7.face_id_by_vertices([north, north, zero])
    for fid in range(m7.face_count):
        assert m7.face_id_by_vertices(m7.face_vertex_ids(fid)) == fid
        a, b, c = m7.face_vertex_ids(fid)
        assert m7.face_id_by_vertices([c, a, b]) == fid


@pytest.mark.parametrize("n", list(range(3, 41)) + [53, 64, 101])
def test_face_id_by_vertices_matches_the_face_index(n):
    # the face index, built from the face darts, names the face of every
    # dart, and the lookup reads its entry for a dart of the face; every
    # face of levels 3..40 is found with its corners in any order
    m = build_map(n)
    index, darts = m._face_index(), m.face_darts()
    if n < 41:
        faces = range(m.face_count)
    else:
        faces = np.random.default_rng(n).choice(m.face_count, 500, replace=False).tolist()
    for fid in faces:
        want = {index.item(d) for d in darts[fid].tolist()}
        assert want == {fid}, (n, fid)
        row = m.face_vertex_ids(fid)
        for order in permutations(row):
            found = m.face_id_by_vertices(order)
            assert type(found) is int and found == fid, (n, fid, order)


# every reader of a derived table, all through the one memo of maps.py
MEMO_READERS = ("vertices", "dart_targets", "edge_columns", "vertex_labels", "face_darts",
                "face_vertex_rows", "_face_index", "face_neighbours",
                "vertex_translation", "face_translation", "face_orbits")


def read_table(m, name):
    table = getattr(m, name)
    return table if name == "vertices" else table()


@pytest.mark.parametrize("name", MEMO_READERS)
def test_derived_table_is_built_once_and_read_only(name):
    # build_map, the battery, the point queries and the exports never read
    # the face of a dart; a memoised reader builds its table once, read-only
    m = build_map(53)
    north, pole, zero, one = (canonical(a, c, 53) for a, c in ((1, 0), (2, 0), (0, 1), (1, 1)))
    assert all(ok for _, ok in check_map(m))
    assert m.has_face([north, zero, one]) and not m.has_face([north, pole, zero])
    assert bfs_distance(m, north, pole) == 3 and diameter(m) == 3
    m.faces(), to_json(m), to_dot(m), render_map(m)
    assert "_face_index" not in m._tables
    table = read_table(m, name)
    assert m._tables[name] is table and read_table(m, name) is table
    if isinstance(table, np.ndarray):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[-1]
    fresh = read_table(build_map(53), name)
    assert type(table) is type(fresh) and np.array_equal(table, fresh)


@pytest.mark.parametrize("n", [7, 53, 101])
def test_vertex_queries_build_no_face_darts(n):
    # the readers of the verify op's second map answer off alpha and the
    # vertex columns: has_face reads a face dart off alpha, and the face
    # darts and the face index wait for a reader of faces
    m = build_map(n)
    north, pole, zero, one = (canonical(a, c, n) for a, c in ((1, 0), (2, 0), (0, 1), (1, 1)))
    assert m.vertex_id(north) == 0
    assert bfs_distance(m, north, pole) == 3 and diameter(m) == 3
    assert m.has_face([north, zero, one]) and not m.has_face([north, pole, zero])
    assert m.dart_targets().shape == (m.vertex_count, n)
    assert "face_darts" not in m._tables and "_face_index" not in m._tables


def test_face_lookup_builds_only_the_face_darts_and_the_face_index():
    # the face index is the one face-id rule: has_face builds no table, a
    # lookup builds the face darts and the index, and the memo holds no
    # table that is not one of MEMO_READERS
    m = build_map(11)
    central = m.vertex_ids([1, 0, 1], [0, 1, 1]).tolist()
    assert m.has_face(central) and m._tables == {}
    m.face_id_by_vertices(central)
    assert set(m._tables) == {"face_darts", "_face_index"}
    for name in MEMO_READERS:
        read_table(m, name)
    assert set(m._tables) == set(MEMO_READERS)


@pytest.mark.parametrize("first", ["face_id_by_vertices", "face_vertex_rows"])
def test_face_readers_build_the_face_darts_once(monkeypatch, first):
    # face_darts() walks the row blocks of build_map once, on the first
    # read of a face; later lookups and face tables reuse it
    m = build_map(53)
    walks = []
    row_blocks = maps.row_blocks
    monkeypatch.setattr(maps, "row_blocks", lambda n, v: walks.append(n) or row_blocks(n, v))
    central = m.vertex_ids([1, 0, 1], [0, 1, 1]).tolist()
    if first == "face_vertex_rows":
        m.face_vertex_rows()
    fid = m.face_id_by_vertices(central)
    assert walks == [53] and "face_darts" in m._tables and "_face_index" in m._tables
    assert m.face_id_by_vertices(central[::-1]) == fid
    assert m.face_vertex_rows() is m.face_vertex_rows()
    assert sorted(m.face_vertex_ids(fid)) == sorted(central)
    assert walks == [53]


@pytest.mark.parametrize("n", [7, 101])
@pytest.mark.parametrize("looked_up", [False, True], ids=["fresh", "looked_up"])
@pytest.mark.parametrize("copy_map", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_map_round_trips_through_pickle_and_deepcopy(n, looked_up, copy_map):
    # the derived tables stay behind and the copy builds them again on
    # first read
    m = build_map(n)
    central = m.vertex_ids([1, 0, 1], [0, 1, 1]).tolist()
    if looked_up:
        m.face_id_by_vertices(central)
    twin = copy_map(m)
    assert twin._tables == {} and twin.alpha is not m.alpha
    assert not any(a.flags.writeable for a in (twin.alpha, twin._columns, twin._vertex_grid))
    assert np.array_equal(twin.alpha, m.alpha)
    assert twin.face_id_by_vertices(central) == m.face_id_by_vertices(central)
    assert to_json(twin) == to_json(m)
    assert check_map(twin) == check_map(m)


def test_derived_tuple_table_is_stored_without_being_walked():
    # only an ndarray table is set read-only: a tuple of labels is kept as
    # it is, and the memo reads none of its items
    class Unwalked(tuple):
        def __iter__(self):
            raise AssertionError("the memo walked a tuple table")

    labels = Unwalked(("1/0", "2/0", "0/1"))

    def table(m):
        return labels

    m = build_map(7)
    read = maps._derived(table)
    assert read(m) is labels and m._tables["table"] is labels and read(m) is labels


def reference_edge_columns(m):
    """edge_columns() as int64 keys over every dart, the form it had before
    it read the target block: the E x 2 rows (src, tgt)."""
    v = m.vertex_count
    src = np.arange(m.dart_count) // m.level
    tgt = m.dart_targets().ravel().astype(np.int64)
    keep = src < tgt
    key = np.sort(src[keep] * v + tgt[keep])
    return np.stack((key // v, key % v), axis=1)


@pytest.mark.parametrize("n", (3, 4, 7, 12, 31, 53, 64, 101))
def test_edge_columns_are_int32_and_match_the_dart_keys(n):
    m = build_map(n)
    edges = m.edge_columns()
    assert type(edges) is np.ndarray and edges.shape == (m.edge_count, 2)
    assert edges.dtype == np.int32 and not edges.flags.writeable
    assert np.array_equal(edges, reference_edge_columns(m)), n


def reference_faces(m):
    """Faces from the public sigma (maps.rotated) and alpha alone: walk
    phi = sigma o alpha from each orbit's least dart, and rotate the least
    corner to the front.  Returns the vertex-id rows, in leader order."""
    n = m.level
    sigma, alpha = maps.rotated(np.arange(m.dart_count), n).tolist(), m.alpha.tolist()
    rows = []
    for d0 in range(m.dart_count):
        d1 = sigma[alpha[d0]]
        d2 = sigma[alpha[d1]]
        if d0 < d1 and d0 < d2:
            ids = [d0 // n, d1 // n, d2 // n]
            k = ids.index(min(ids))
            rows.append(ids[k:] + ids[:k])
    return rows


def test_face_rows_match_orbit_walk_reference():
    for n in list(range(3, 32)) + [64]:
        m = build_map(n)
        rows = reference_faces(m)
        assert m.face_vertex_rows().tolist() == rows, n
        vs = m.vertices
        labelled = [tuple(vs[i] for i in row) for row in rows]
        assert m.faces() == labelled, n
        for fid, row in enumerate(rows):
            assert m.face_vertex_ids(fid) == tuple(row), (n, fid)


@pytest.mark.parametrize("n", [53, 101])
def test_faces_are_a_new_list_of_plain_tuples_of_the_face_rows(n):
    m = build_map(n)
    vs = m.vertices
    expected = [tuple(vs[i] for i in row) for row in m.face_vertex_rows().tolist()]
    faces = m.faces()
    assert type(faces) is list and len(faces) == m.face_count
    assert all(type(face) is tuple and len(face) == 3 for face in faces)
    assert faces == expected
    # a caller's list: writing into it leaves the next call as it was
    again = m.faces()
    assert again is not faces
    faces[0], faces[-1] = faces[-1], faces[0]
    faces.append(faces[0])
    assert m.faces() == again == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_faces_start_no_collection_and_keep_the_gc_state(enabled):
    # the F tuples are built with cyclic GC paused; unpaused, level 53
    # starts 35 collections inside one call
    m = build_map(53)
    m.vertices, m.face_vertex_rows()
    gc.collect()
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was = gc.isenabled()
    gc.callbacks.append(record)
    try:
        if not enabled:
            gc.disable()
        faces = m.faces()
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(record)
        if was:
            gc.enable()
    assert started == [] and len(faces) == m.face_count


@pytest.mark.parametrize("n", list(range(3, 32)) + [53, 64, 101])
def test_face_tables_match_shared_corner_and_translate_oracles(n):
    m = build_map(n)
    neighbours, translation = m.face_neighbours(), m.face_translation()
    assert neighbours.shape == (m.face_count, 3) and translation.shape == (m.face_count,)
    # cached on the map and read-only
    assert m.face_neighbours() is neighbours and m.face_translation() is translation
    for table in (neighbours, translation):
        with pytest.raises(ValueError):
            table[0] = 0
    rows = m.face_vertex_rows().tolist()
    faces_at = [set() for _ in range(m.vertex_count)]
    for fid, row in enumerate(rows):
        for v in row:
            faces_at[v].add(fid)
    vs = m.vertices
    # every face below level 101; there, 1,000 faces spread over the ids
    sample = range(m.face_count) if n < 101 else range(0, m.face_count, m.face_count // 1000)
    for fid in sample:
        row = rows[fid]
        # the face across corner k -> k + 1 is the other face holding both corners
        across = [(faces_at[row[k]] & faces_at[row[(k + 1) % 3]]) - {fid} for k in range(3)]
        assert across == [{g} for g in neighbours[fid].tolist()], (n, fid)
        shifted = [canonical(vs[i].num + vs[i].den, vs[i].den, n) for i in row]
        image = m.face_id_by_vertices(shifted)
        assert int(translation[fid]) == image, (n, fid)


def reference_face_translation(m):
    """face_translation() as it was computed before its closed form: one
    dart_between per vertex for the image of the dart (v, 0)."""
    n = m.level
    nums, dens = m.vertex_columns()
    shift = m.vertex_ids(nums + dens, dens).tolist()
    targets = m.dart_targets()[:, 0].tolist()
    first = np.array([m.dart_between(shift[v], shift[w]) for v, w in enumerate(targets)])
    v, t = np.divmod(m.face_darts()[:, 0], n)
    image = first[v] // n * n + (first[v] + t) % n
    return m._face_index()[image]


@pytest.mark.parametrize("n", range(3, 102))
def test_face_translation_equals_the_dart_between_reference(n):
    m = build_map(n)
    translation = m.face_translation()
    assert translation.dtype == np.int32
    assert np.array_equal(translation, reference_face_translation(m))


def reference_face_orbits(m):
    """face_orbits() as a walk along face_translation(): each face not yet
    seen, in id order, is the least face of its cycle."""
    step = m.face_translation().tolist()
    least = [-1] * m.face_count
    for fid in range(m.face_count):
        face = fid
        while least[face] < 0:
            least[face] = fid
            face = step[face]
    return least


@pytest.mark.parametrize("n", list(range(3, 41)) + [53, 64, 101])
def test_face_orbits_equal_the_translation_walk(n):
    m = build_map(n)
    orbits = m.face_orbits()
    assert orbits.dtype == np.int32 and orbits.shape == (m.face_count,)
    assert orbits.tolist() == reference_face_orbits(m)
    if n == 11:
        least, sizes = np.unique(orbits, return_counts=True)
        assert len(least) == 20 and set(sizes.tolist()) == {11}


@pytest.mark.parametrize("n", range(4, 101, 2))
def test_no_face_leader_has_denominator_half_the_level(n):
    # face_translation() takes (a + c, c) = (a_w, c_w) on the face leaders,
    # which fails only at the vertices with c = n/2
    m = build_map(n)
    dens = m.vertex_columns()[1]
    leaders = np.array([row[0] for row in m.face_vertex_rows()])
    assert (dens == n // 2).any()
    assert not (dens[leaders] == n // 2).any()


def test_dart_between():
    # n = 3 has every pair of vertices adjacent; even n has the tie 2c = n
    for n in list(range(3, 14)) + [30]:
        m = build_map(n)
        for d in range(m.dart_count):
            assert m.dart_between(d // n, int(m.alpha[d]) // n) == d, (n, d)
        vcount = m.vertex_count
        far = [w for w in range(1, vcount) if not is_adjacent(m.vertices[0], m.vertices[w])]
        assert bool(far) == (n > 3), n
        bad = [(0, 0), (0, vcount), (vcount, 0), (-1, 0), (0, -1)] + [(0, w) for w in far]
        for u, w in bad:
            with pytest.raises(UnknownVertex):
                m.dart_between(u, w)


def test_rotation_order_is_the_bezout_column_sequence():
    # the darts out of a/c are (a, b + t*a; c, d + t*c) for t = 0..n-1, so
    # the neighbours in rotation order are g(t/1) for any g = (a b; c d)
    for n in list(range(3, 14)) + [30]:
        m = build_map(n)
        for v in m.vertices:
            a, c = v.num, v.den
            b, d = next((b, d) for b in range(n) for d in range(n) if (a * d - b * c) % n == 1)
            g = ModMatrix.of(a, b, c, d, n)
            want = [mobius_mod(g, canonical(t, 1, n)) for t in range(n)]
            got = neighbours_of(m, v)
            k = got.index(want[0])
            assert got[k:] + got[:k] == want, (n, v)


def test_faces_are_mediant_triangles():
    for n in (5, 7, 11):
        m = build_map(n)
        for a, b, c in m.faces():
            assert is_adjacent(a, b) and is_adjacent(b, c) and is_adjacent(a, c)
            # some choice of sign representatives makes one vertex the mediant
            found = False
            for x, y, z in [(a, b, c), (b, c, a), (c, a, b)]:
                for sx in (1, -1):
                    for sz in (1, -1):
                        num = (sx * x.num + sz * z.num) % n
                        den = (sx * x.den + sz * z.den) % n
                        if canonical(num, den, n) == y:
                            found = True
            assert found, face


def test_euler_characteristic():
    assert build_map(5).euler_characteristic() == 2
    assert build_map(7).euler_characteristic() == -4
    assert build_map(11).euler_characteristic() == -50
    for n in range(3, 14):
        assert build_map(n).euler_characteristic() == 2 - 2 * genus(n)


def all_group_elements(n):
    out = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1:
                        out.add(ModMatrix.of(a, b, c, d, n))
    return sorted(out, key=lambda m: (m.a, m.b, m.c, m.d))


def test_regularity_every_group_element_is_map_automorphism():
    for n in (5, 7):
        m = build_map(n)
        for g in all_group_elements(n):
            for v in m.vertices:
                image = [mobius_mod(g, u) for u in neighbours_of(m, v)]
                target = neighbours_of(m, mobius_mod(g, v))
                # cyclic sequences agree up to rotation (orientation preserved)
                k = target.index(image[0])
                assert target[k:] + target[:k] == image, (n, g, v)


def test_json_roundtrip():
    for n in (5, 7):
        m = build_map(n)
        data = from_json(to_json(m))
        assert same_combinatorics(m, data)
        raw = json.loads(to_json(m))
        assert raw["level"] == n
        assert len(raw["vertices"]) == m.vertex_count
        assert len(raw["edges"]) == m.edge_count
        assert len(raw["faces"]) == m.face_count


def test_same_combinatorics_rejects_another_level_and_a_relabelled_vertex():
    m7 = build_map(7)
    data = from_json(to_json(m7))
    assert not same_combinatorics(m7, from_json(to_json(build_map(5))))
    assert not same_combinatorics(build_map(5), data)
    relabelled = ("1/7",) + tuple(v for v in data.vertices if v != "1/0")
    assert len(relabelled) == m7.vertex_count
    assert not same_combinatorics(m7, dataclasses.replace(data, vertices=relabelled))


@pytest.mark.parametrize("text", [
    "nope",
    '{"level": 7}',
    "[]",
    '{"level": 7, "vertices": ["1/0"], "edges": [["1/0"]], "faces": []}',
    '{"level": "x", "vertices": [], "edges": [], "faces": []}',
], ids=["not-json", "missing-fields", "not-an-object", "one-label-edge", "non-integer-level"])
def test_from_json_rejects_malformed_text(text):
    with pytest.raises(FareyMapError):
        from_json(text)


@pytest.mark.parametrize("fields", [
    '"level": 7.9, "vertices": ["1/0"]',
    '"level": true, "vertices": ["1/0"]',
    '"level": 7, "vertices": "1/0"',
    '"level": 7, "vertices": ["1/0", "0/1", "1/0"]',
    '"level": 7, "vertices": ["1/0", "0/1", "1/1"], "edges": [{"1/0": 0, "0/1": 0}]',
    '"level": 7, "vertices": ["1/0", "0/1", "1/1"], "edges": [["1/0", "1/0"]]',
    '"level": 7, "vertices": ["1/0", "0/1", "1/1"], "faces": [{"1/0": 0, "0/1": 0, "1/1": 0}]',
    '"level": 7, "vertices": ["1/0", "0/1", "1/1"], "faces": [["1/0", "1/0", "0/1"]]',
    '"level": 7, "vertices": ["1/0", "0/1", "1/1"], "edges": {}',
], ids=["fractional-level", "boolean-level", "vertices-as-string", "repeated-vertex",
        "edge-as-object", "loop-edge", "face-as-object", "repeated-face-label",
        "edges-as-object"])
def test_from_json_rejects_ill_typed_fields(fields):
    # json.loads keeps the last of repeated keys, so a case may override the
    # empty edges and faces given first
    with pytest.raises(MalformedMap):
        from_json('{"edges": [], "faces": [], ' + fields + "}")


def test_from_json_rejects_unknown_labels():
    with pytest.raises(UnknownVertex):
        from_json('{"level": 7, "vertices": ["1/0"], "edges": [["1/0", "2/0"]], "faces": []}')


def test_exports_match_reference_sorts():
    # the parent's way of ordering edges and faces: sort the Python tuples of
    # the public alpha, and sort the label lists of the face rows
    for n in list(range(3, 32)) + [64]:
        m = build_map(n)
        src = np.arange(m.alpha.shape[0]) // m.level
        tgt = m.alpha // m.level
        keep = src < tgt
        assert edge_pairs(m) == sorted(zip(src[keep].tolist(), tgt[keep].tolist())), n
        labels = [str(v) for v in m.vertices]
        faces = sorted([labels[i] for i in row] for row in m.face_vertex_rows())
        assert map_to_dict(m)["faces"] == faces, n
        assert to_json(m) == json.dumps(map_to_dict(m)), n


def test_exports_are_deterministic():
    assert to_json(build_map(7)) == to_json(build_map(7))
    dot = to_dot(build_map(5))
    assert dot == to_dot(build_map(5))
    assert dot.startswith("graph farey_5 {")
    assert '"1/0" -- "0/1"' in dot or '"0/1" -- "1/0"' in dot


def test_exports_match_golden_digests():
    # the SHA-256 sums the benchmark recorded for each export (read only)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["export"]
    # every level of the export ladder, both render layouts, every prime
    # layout (its distance-2 ring comes from the circuit's integer slots)
    # and the largest arrays
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
              89, 97, 101)
    for n in sorted({3, 4, 6, 12, 32, 36, 40, 45, 48, 64, *primes}):
        m = build_map(n)
        for key, text in (("json", to_json(m)), ("dot", to_dot(m)), ("svg", render_map(m))):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == golden[str(n)][key], (n, key)


def test_gather_rows_picks_by_column_and_rejects_ids_outside_the_columns():
    # one flat take at ids[r, j] + j*V: an id past V would read the next
    # column and a negative one the column before, so both raise
    columns = np.array([["a0", "a1", "a2"], ["b0", "b1", "b2"]], dtype=object)
    assert gather_rows(columns, np.array([[0, 2], [2, 1], [1, 0]])) == [
        "a0", "b2", "a2", "b1", "a1", "b0"]
    assert gather_rows(columns, np.empty((0, 2), dtype=np.int32)) == []
    for ids in ([[3, 0]], [[0, 3]], [[1, 1], [2, 4]], [[-1, 0]], [[0, -1]]):
        with pytest.raises(IndexError):
            gather_rows(columns, np.array(ids, dtype=np.int32))


def test_face_rows_never_share_their_first_two_corners():
    # a face row starts at its least corner, so its first two corners are a
    # dart, and a dart lies on one face: the JSON face order sorts on them
    # alone (test_exports_match_reference_sorts checks it against sorted())
    for n in range(3, DEFAULT_LEVEL_BOUND + 1):
        m = build_map(n)
        rows = m.face_vertex_rows().astype(np.int64)
        assert np.unique(rows[:, 0] * m.vertex_count + rows[:, 1]).size == m.face_count, n


@pytest.mark.parametrize("export", [to_json, to_dot, render_map])
def test_export_peak_memory_is_a_small_multiple_of_its_output(export):
    # an export holds its pieces as references to per-vertex strings and
    # joins them once; a second copy of the text would push the peak past 4x
    m = build_map(53)
    m.edge_columns()
    m.vertex_labels()
    tracemalloc.start()
    try:
        text = export(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text), (export.__name__, peak / len(text))


def test_vertex_order_matches_printed_lists():
    m7 = build_map(7)
    assert [str(v) for v in m7.vertices[:5]] == ["1/0", "2/0", "3/0", "0/1", "1/1"]
    m5 = build_map(5)
    assert [str(v) for v in m5.vertices] == [
        "1/0", "2/0", "0/1", "1/1", "2/1", "3/1", "4/1",
        "0/2", "1/2", "2/2", "3/2", "4/2",
    ]


def test_build_speed_at_default_bound():
    start = time.perf_counter()
    m = build_map(101)
    elapsed = time.perf_counter() - start
    assert m.dart_count == mu(101) == 515100
    assert elapsed < 1.0, f"build_map(101) took {elapsed:.2f}s"


def reference_vertex_pairs(n):
    """The canonical (num, den) vertex pairs in (den, num) order, by the
    scalar loop over every candidate a/c: the enumeration the vertex kernel
    replaced."""
    out = []
    for c in range(n // 2 + 1):
        for a in range(n):
            if c == 0:
                canonical_pair = 1 <= a <= n // 2
            else:
                canonical_pair = 2 * c < n or 2 * a <= n
            if canonical_pair and gcd(gcd(a, c), n) == 1:
                out.append((a, c))
    return out


def reference_euclid(a, c, n):
    """Some (b0, d0) with a*d0 - c*b0 = 1 mod n, by the scalar extended Euclid."""
    old_r, r = a, c
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    ginv = pow(old_r % n, -1, n)
    return -old_y * ginv % n, old_x * ginv % n


def reference_build(n):
    """The dart layout from int64 dart-length columns (np.repeat / np.tile),
    the scalar enumeration and the scalar Euclid: the construction the
    block kernel replaced."""
    pairs = reference_vertex_pairs(n)
    vcount = len(pairs)
    av, cv = np.array(pairs, dtype=np.int64).T
    b0, d0 = np.array([reference_euclid(a, c, n) for a, c in pairs], dtype=np.int64).T
    vertex_table = np.full((n, n), -1, dtype=np.int64)
    vertex_sign = np.zeros((n, n), dtype=np.int64)
    for sign in (1, -1):
        vertex_table[sign * av % n, sign * cv % n] = np.arange(vcount)
        vertex_sign[sign * av % n, sign * cv % n] = sign
    t = np.tile(np.arange(n, dtype=np.int64), vcount)
    A = np.repeat(av, n)
    C = np.repeat(cv, n)
    B = (np.repeat(b0, n) + t * A) % n
    D = (np.repeat(d0, n) + t * C) % n
    idx = np.arange(vcount * n, dtype=np.int64)
    sigma = idx - t + (t + 1) % n
    w = vertex_table[B, D]
    alpha = w * n + vertex_sign[B, D] * (C * b0[w] - A * d0[w]) % n
    phi = sigma[alpha]
    reps = np.minimum(np.minimum(idx, phi), phi[phi])
    leaders = idx[reps == idx]
    face_darts = np.stack((leaders, phi[leaders], phi[phi[leaders]]), axis=1)
    face_of_dart = np.empty(vcount * n, dtype=np.int64)
    face_of_dart[face_darts] = np.arange(leaders.shape[0])[:, None]
    return pairs, sigma, alpha, face_darts, face_of_dart


def test_vertex_kernel_matches_scalar_enumeration():
    assert reference_vertex_pairs(2) == [(1, 0), (0, 1), (1, 1)]
    for n in range(2, DEFAULT_LEVEL_BOUND + 1):
        columns = vertex_columns(n)
        assert columns.dtype == np.int32 and columns.shape[0] == 2
        assert list(zip(*columns.tolist())) == reference_vertex_pairs(n), n


def test_bezout_kernel_matches_scalar_euclid():
    for n in range(3, DEFAULT_LEVEL_BOUND + 1):
        nums, dens = vertex_columns(n)
        bezout = maps._bezout_columns(nums, dens, n)
        assert bezout.dtype == np.int32 and bezout.shape == (2, nums.shape[0])
        want = [reference_euclid(a, c, n) for a, c in zip(nums.tolist(), dens.tolist())]
        assert list(zip(*bezout.tolist())) == want, n
        b0, d0 = bezout.astype(np.int64)
        assert ((nums * d0 - dens * b0) % n == 1).all(), n
    # any non-negative residue pair with gcd(a, c, n) = 1, in any order
    for n in (12, 30, 97):
        a, c = np.array([(a, c) for a in range(n) for c in range(n)
                         if gcd(gcd(a, c), n) == 1], dtype=np.int32).T
        bezout = maps._bezout_columns(a, c, n)
        assert list(zip(*bezout.tolist())) == [
            reference_euclid(x, y, n) for x, y in zip(a.tolist(), c.tolist())]


@pytest.mark.parametrize("n", range(3, DEFAULT_LEVEL_BOUND + 1))
def test_dart_layout_matches_reference_build(n):
    # The golden digests do not pin dart ids, face ids or face order (the
    # JSON export sorts its faces); this does, at every level.
    pairs, sigma, alpha, face_darts, face_of_dart = reference_build(n)
    m = build_map(n)
    assert [(v.num, v.den) for v in m.vertices] == pairs
    assert np.array_equal(maps.rotated(np.arange(m.dart_count), n), sigma)
    assert np.array_equal(m.alpha, alpha)
    assert np.array_equal(m.dart_targets(), (alpha // n).reshape(-1, n))
    assert np.array_equal(m.face_darts(), face_darts)
    assert np.array_equal(m._face_index(), face_of_dart)
    assert np.array_equal(m.face_vertex_rows(), face_darts // n)


# the bound on build_map's traced peak beyond the bytes a built level-101
# map holds: one block's temporaries plus the per-level tables
# (at ee580d2 build_map peaked 4.6 MB above the map, with face-dart
# temporaries over every face)
PEAK_ABOVE_MAP = 2_750_000


def traced_build(n):
    """build_map(n) under tracemalloc: (held, peak, own, dart count).  `held`
    is what is traced once the map is built and `peak` the traced peak.
    `own` is what deleting the map releases, less its per-vertex tables: its
    dart arrays and Python objects.  `held` also counts memory the build leaves in the
    interpreter's free lists (1.8-4.7 KB on a process's first build, less
    once earlier code has filled them), which `own` does not."""
    tracemalloc.start()
    try:
        m = build_map(n)
        held, peak = tracemalloc.get_traced_memory()
        tables, darts = m._columns.nbytes + m._vertex_grid.nbytes, m.dart_count
        del m
        own = held - tracemalloc.get_traced_memory()[0] - tables
    finally:
        tracemalloc.stop()
    return held, peak, own, darts


def test_build_map_memory():
    # The map holds alpha, int32: 4 bytes per dart beyond its per-vertex
    # tables; the face darts and the face of each dart are built on first
    # read.  build_map fills alpha a block of dart rows at a time, so its
    # peak stays within one block's temporaries of what it keeps.
    held, peak, own, darts = traced_build(DEFAULT_LEVEL_BOUND)
    assert peak <= held + PEAK_ABOVE_MAP, (peak - held, held)
    # beyond the per-vertex tables, only the Python objects and the array
    # headers (about 1.2 KB) are not dart data
    assert own <= 4 * darts + 4096, own / darts


def test_build_map_memory_counts_a_kept_dart_array(monkeypatch):
    # the bound above sees a map that keeps one more int32 array over its darts
    init = maps.FareyMap.__init__

    def keep_one_more(self, level, columns, vertex_grid, alpha):
        init(self, level, columns, vertex_grid, alpha)
        self.extra = alpha.copy()

    monkeypatch.setattr(maps.FareyMap, "__init__", keep_one_more)
    own, darts = traced_build(DEFAULT_LEVEL_BOUND)[2:]
    assert own > 4 * darts + 4096 and own // darts == 8, own / darts


def test_check_map_memory():
    # the battery holds one block of temporaries and a bool mask over the
    # darts at a time: its rotation check runs maps.rotated on each block's
    # dart ids, and a dart-length int32 sigma beside them would exceed 4
    # bytes per dart
    tracemalloc.start()
    try:
        m = build_map(DEFAULT_LEVEL_BOUND)
        m.face_darts()  # a table of the map, which it keeps after the battery
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert all(ok for _, ok in check_map(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= held + 4 * m.dart_count, (peak - held, held)


def test_dart_arrays_are_read_only():
    m = build_map(11)
    before = to_json(m)
    arrays = (m.alpha, m.dart_targets(), m._face_index(), m.face_darts(),
              m._columns, m._vertex_grid, *m.vertex_columns(), m.edge_columns(),
              m.face_vertex_rows(), m.face_neighbours(), m.vertex_translation(),
              m.face_translation())
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = array[1]
    assert to_json(m) == before
    # rebinding an attribute is still possible: the battery tests use it
    m.alpha = m.alpha.copy()
    m.alpha[0] = m.alpha[1]
    assert not dict(check_map(m))["alpha is a fixed-point-free involution"]


@pytest.mark.parametrize("block", [1, 300])
def test_dart_blocks_match_one_block(monkeypatch, block):
    # build_map and the battery give the same arrays and results whatever
    # the block size; every level up to 40 is one block by default
    levels = range(3, 32)
    want = {n: build_map(n) for n in levels}
    assert all(len(maps.row_blocks(n, m.vertex_count)) == 1 for n, m in want.items())
    monkeypatch.setattr(maps, "_BLOCK_DARTS", block)
    assert len(maps.row_blocks(31, want[31].vertex_count)) > 1
    for n in levels:
        m = build_map(n)
        assert np.array_equal(m.alpha, want[n].alpha), n
        assert np.array_equal(m.face_darts(), want[n].face_darts()), n
        assert np.array_equal(m.dart_targets(), want[n].dart_targets()), n
        assert np.array_equal(m._face_index(), want[n]._face_index()), n
        assert check_map(m) == check_map(want[n]), n


@pytest.mark.parametrize("n", [41, 53, 64, 101])
def test_multi_block_levels_match_one_block(monkeypatch, n):
    # the levels above 40 take several blocks by default; forced into one,
    # build_map and the battery give the same arrays and results
    m = build_map(n)
    assert len(maps.row_blocks(n, m.vertex_count)) > 1
    monkeypatch.setattr(maps, "_BLOCK_DARTS", 1 << 20)
    assert len(maps.row_blocks(n, m.vertex_count)) == 1
    one = build_map(n)
    assert np.array_equal(m.alpha, one.alpha)
    assert np.array_equal(m.face_darts(), one.face_darts())
    assert check_map(m) == check_map(one)


def test_build_map_raises_on_broken_construction(monkeypatch):
    # one vertex short of mu/n
    monkeypatch.setattr(maps, "vertex_columns", lambda n: vertex_columns(n)[:, 1:])
    with pytest.raises(BrokenInvariant, match="vertices at level 7"):
        build_map(7)
    monkeypatch.undo()
    # a Bezout column (0, 0) makes the dart (v, 0) end at 0/0, not a vertex
    monkeypatch.setattr(maps, "_bezout_columns",
                        lambda nums, dens, n: np.zeros((2, nums.shape[0]), dtype=np.int32))
    with pytest.raises(BrokenInvariant, match="not a vertex"):
        build_map(7)
    monkeypatch.undo()
    # face_darts() counts the face leaders against mu/3 block by block: the
    # first block left out leaves too few (the last vertices lead no face),
    # and a block run twice too many
    monkeypatch.setattr(maps, "_BLOCK_DARTS", 300)
    row_blocks = maps.row_blocks
    monkeypatch.setattr(maps, "row_blocks", lambda n, v: row_blocks(n, v)[1:])
    with pytest.raises(BrokenInvariant, match="face leaders at level 31, not mu/3 = 4960"):
        build_map(31).face_darts()
    monkeypatch.setattr(maps, "row_blocks", lambda n, v: row_blocks(n, v) + row_blocks(n, v)[:1])
    with pytest.raises(BrokenInvariant, match="more than mu/3 = 4960 face leaders at level 31"):
        build_map(31).face_darts()


@pytest.mark.parametrize("n", (3, 12, 53, 101))
def test_build_map_arrays_are_int32(n):
    # the kernels mix int32 arrays with Python ints; under NumPy 1.x value
    # casting a mixed expression that upcasts would show here
    m = build_map(n)
    arrays = (*m.vertex_columns(), m._columns, m.alpha, m.dart_targets(),
              m._face_index(), m.face_darts(), m.face_vertex_rows())
    assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * len(arrays)
    assert not any(a.flags.writeable for a in arrays)


def test_build_map_reads_the_level_as_an_index():
    m, want = build_map(np.int64(7)), build_map(7)
    assert type(m.level) is int and m.level == 7
    for name in ("_columns", "_vertex_grid", "alpha"):
        assert np.array_equal(getattr(m, name), getattr(want, name)), name
    assert np.array_equal(m.face_darts(), want.face_darts())
    assert np.array_equal(m.dart_targets(), want.dart_targets())
    assert np.array_equal(m._face_index(), want._face_index())
    assert m.dart_targets().dtype == np.int32
    assert to_json(m) == to_json(want)
    for level in (7.0, "7", None):
        with pytest.raises(Unsupported):
            build_map(level)
    assert issubclass(Unsupported, FareyMapError)


def test_vertex_ids_match_vertex_id():
    for n in (3, 4, 7, 12, 31):
        m = build_map(n)
        nums = np.array([v.num for v in m.vertices])
        dens = np.array([v.den for v in m.vertices])
        assert m.vertex_ids(nums, dens).tolist() == list(range(m.vertex_count))
        assert [m.vertex_id(v) for v in m.vertices] == list(range(m.vertex_count))
        assert all(type(m.vertex_id(v)) is int for v in m.vertices)
        # the other sign representative, unreduced, names the same vertex
        assert m.vertex_ids(-nums - n, -dens).tolist() == list(range(m.vertex_count))
        assert m.vertex_ids(nums.reshape(1, -1), dens.reshape(1, -1)).shape == (1, m.vertex_count)
    with pytest.raises(UnknownVertex):
        build_map(12).vertex_ids([2, 1], [0, 2])  # 2/0 has gcd 2 with 12


@pytest.mark.parametrize("nums, dens", [([0.5], [1]), (1.0, 0), (["1"], ["0"]), ([None], [1]),
                                        ([1], [np.float64(0)])], ids=repr)
def test_vertex_ids_reject_non_integer_input(nums, dens):
    # as _read_id does for one scalar id
    with pytest.raises(UnknownVertex):
        build_map(7).vertex_ids(nums, dens)


@pytest.mark.parametrize("nums, dens, shape", [([], [], (0,)), ([], 3, (0,)),
                                               (np.empty((2, 0), dtype=int), [], (2, 0))],
                         ids=repr)
def test_vertex_ids_of_empty_input_are_empty(nums, dens, shape):
    # [] reads as float64, but names no vertex: as bfs_distances(m, []) and
    # farey_fractions take empty input
    ids = build_map(7).vertex_ids(nums, dens)
    assert ids.dtype == np.int32 and ids.shape == shape
    with pytest.raises(UnknownVertex):
        build_map(7).vertex_ids([], [0.5])


SCALAR_ID_READERS = {
    "dart_between_source": lambda m, x: m.dart_between(x, 1),
    "dart_between_target": lambda m, x: m.dart_between(0, x),
    "face_vertex_ids": lambda m, x: m.face_vertex_ids(x),
    "face_id_by_vertices": lambda m, x: m.face_id_by_vertices([x, 1, 2]),
}


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(1.0), "1", None, [1]], ids=repr)
@pytest.mark.parametrize("reader", SCALAR_ID_READERS)
def test_malformed_scalar_ids_raise_unknown_vertex(reader, bad):
    with pytest.raises(UnknownVertex):
        SCALAR_ID_READERS[reader](build_map(7), bad)


def test_bool_and_numpy_ids_read_as_integers():
    m = build_map(7)
    w = int(m.dart_targets()[1, 0])
    assert m.dart_between(True, w) == m.dart_between(1, w)
    assert m.face_vertex_ids(np.int32(3)) == m.face_vertex_ids(3)
    assert m.face_vertex_ids(False) == m.face_vertex_ids(0)
    assert m.vertex_ids([True, False], True).tolist() == m.vertex_ids([1, 0], 1).tolist()
    u, w = m.face_vertex_ids(0)[:2]
    assert m.dart_between(np.int64(u), np.int16(w)) == m.dart_between(u, w)
    assert type(m.dart_between(np.int64(u), w)) is int


def test_vertex_columns_are_the_vertex_pairs():
    for n in (3, 4, 7, 12, 31, 101):
        m = build_map(n)
        nums, dens = m.vertex_columns()
        assert [nums.tolist(), dens.tolist()] == vertex_columns(n).tolist()
        for column in (nums, dens):
            with pytest.raises(ValueError):
                column[0] = 1
        assert m.vertex_count == nums.shape[0]


@pytest.mark.parametrize("n", list(range(3, 32)) + [53, 64, 101])
def test_vertex_labels_and_translation_match_the_fractions(n):
    # the id tables the paper pipelines read, against the FareyFraction path
    m = build_map(n)
    labels = m.vertex_labels()
    assert type(labels) is tuple and labels is m.vertex_labels()
    assert labels == tuple(str(v) for v in m.vertices)
    shift = m.vertex_translation()
    assert shift.dtype == np.int32 and shift is m.vertex_translation()
    assert shift.tolist() == [m.vertex_id(canonical(v.num + v.den, v.den, n)) for v in m.vertices]


def test_vertices_are_built_once_on_first_read():
    m = build_map(12)
    vs = m.vertices
    assert vs is m.vertices
    assert vs == tuple(FareyFraction(a, c, 12) for a, c in zip(*vertex_columns(12).tolist()))


def test_vertices_are_a_tuple_the_map_keeps():
    # a caller cannot write into the map's vertex list
    m = build_map(7)
    faces = m.faces()
    with pytest.raises(TypeError):
        m.vertices[0] = m.vertices[1]
    assert type(m.vertices) is tuple
    assert m.faces() == faces and str(faces[0][0]) == "1/0"


def test_verify_calls_build_no_vertex_fraction(built_fractions):
    # build_map, the battery and the point queries of `verify` work on
    # vertex ids and int columns; the query fractions are built beforehand
    built = built_fractions
    north, pole, zero, one = (canonical(a, c, 53) for a, c in ((1, 0), (2, 0), (0, 1), (1, 1)))
    assert built == ["1/0", "2/0", "0/1", "1/1"]
    built.clear()
    m = build_map(53)
    assert all(ok for _, ok in check_map(m))
    assert m.has_face([north, zero, one]) and not m.has_face([north, pole, zero])
    assert bfs_distance(m, north, pole) == 3
    assert diameter(m) == 3
    assert built == []
    assert len(m.vertices) == m.vertex_count  # built on request
    assert len(built) == m.vertex_count
