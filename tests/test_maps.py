import hashlib
import json
import time
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from fareymaps.arith import FareyFraction, ModMatrix, canonical, is_adjacent, mobius_mod
from fareymaps.errors import FareyMapError, MalformedMap, ResourceLimit, UnknownVertex, Unsupported
from fareymaps.maps import (
    build_map,
    from_json,
    genus,
    map_to_dict,
    mu,
    same_combinatorics,
    to_dot,
    to_json,
)
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
        power = idx
        for k in range(1, n):
            power = m.sigma[power]
            assert np.any(power != idx), (n, k)
        assert np.array_equal(m.sigma[power], idx)
        # face operator: all orbits of size 3
        phi = m.sigma[m.alpha]
        assert np.array_equal(phi[phi[phi]], idx)
        assert not np.any(phi == idx)
        assert not np.any(phi[phi] == idx)
        assert m.face_count * 3 == m.dart_count


def test_edges_match_adjacency_oracle():
    for n in range(3, 14):
        m = build_map(n)
        vs = m.vertices
        from_darts = {frozenset((i, j)) for i, j in m.edge_id_pairs()}
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
    got = m7.neighbors(canonical(1, 0, 7))
    assert list(map(str, got)) == [f"{k}/1" for k in range(7)]

    m5 = build_map(5)
    around = m5.neighbors(canonical(0, 1, 5))
    assert len(around) == 5
    assert canonical(1, 0, 5) in around

    m11 = build_map(11)
    v = canonical(2, 0, 11)
    got = set(m11.neighbors(v))
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
    assert not m7.has_face([north, zero, canonical(1, 1, 5)])  # other level
    with pytest.raises(UnknownVertex):
        m7.face_id_by_vertices([north, north, zero])
    for fid in range(m7.face_count):
        assert m7.face_id_by_vertices(m7.face_vertex_ids(fid)) == fid
        a, b, c = m7.face_vertex_ids(fid)
        assert m7.face_id_by_vertices([c, a, b]) == fid


def reference_faces(m):
    """Faces from the public sigma and alpha alone: walk phi = sigma o alpha
    from each orbit's least dart, and rotate the least corner to the front.
    Returns the vertex-id rows, in leader order."""
    n = m.level
    sigma, alpha = m.sigma.tolist(), m.alpha.tolist()
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
        assert m.face_vertex_rows() == rows, n
        vs = m.vertices
        labelled = [tuple(vs[i] for i in row) for row in rows]
        assert m.faces() == labelled, n
        for fid, row in enumerate(rows):
            assert m.face_vertex_ids(fid) == tuple(row), (n, fid)


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
    rows = m.face_vertex_rows()
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
        image = m.face_id_by_vertices([vs[i].translated(1) for i in row])
        assert int(translation[fid]) == image, (n, fid)


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
            got = list(m.neighbors(v))
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
                image = [mobius_mod(g, u) for u in m.neighbors(v)]
                target = list(m.neighbors(mobius_mod(g, v)))
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
        assert m.edge_id_pairs() == sorted(zip(src[keep].tolist(), tgt[keep].tolist())), n
        labels = [str(v) for v in m.vertices]
        faces = sorted([labels[i] for i in row] for row in m.face_vertex_rows())
        assert map_to_dict(m)["faces"] == faces, n
        assert to_json(m) == json.dumps(map_to_dict(m)), n


def test_edge_id_pairs_returns_a_new_list_each_call():
    m = build_map(7)
    first, second = m.edge_id_pairs(), m.edge_id_pairs()
    assert first == second
    assert first is not second


def test_exports_are_deterministic():
    assert to_json(build_map(7)) == to_json(build_map(7))
    dot = to_dot(build_map(5))
    assert dot == to_dot(build_map(5))
    assert dot.startswith("graph farey_5 {")
    assert '"1/0" -- "0/1"' in dot or '"0/1" -- "1/0"' in dot


def test_exports_match_golden_digests():
    # the SHA-256 sums the benchmark recorded for each export (read only)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["export"]
    # every level of the export ladder, both render layouts and the largest arrays
    for n in (3, 4, 5, 6, 7, 12, 13, 31, 32, 36, 40, 41, 45, 48, 53, 64, 101):
        m = build_map(n)
        for key, text in (("json", to_json(m)), ("dot", to_dot(m)), ("svg", render_map(m))):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == golden[str(n)][key], (n, key)


@pytest.mark.parametrize("export", [to_json, to_dot, render_map])
def test_export_peak_memory_is_a_small_multiple_of_its_output(export):
    # an export holds its pieces as references to per-vertex strings and
    # joins them once; a second copy of the text would push the peak past 4x
    m = build_map(53)
    m.edge_columns()
    m._label_table()
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
