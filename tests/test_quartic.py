import pytest

from fareymaps.arith import ExtRational, FareyFraction, canonical, is_adjacent
from fareymaps import quartic
from fareymaps.errors import BrokenInvariant, WrongLevel
from fareymaps.maps import build_map
from fareymaps.metrics import second_circuit_seed
from fareymaps.quartic import (
    RingRegion,
    fourteen_gon,
    klein_matrix_report,
    outer_ring,
    quotient_genus_of_gon,
    side_pairing,
)

KLEIN_PAIRS = {(1, 6), (3, 8), (5, 10), (7, 12), (9, 14), (11, 2), (13, 4)}


@pytest.fixture(scope="module")
def m7():
    return build_map(7)


def v7(s):
    return canonical(*map(int, s.split("/")), 7)


def test_wrong_level(m7):
    with pytest.raises(WrongLevel):
        outer_ring(build_map(5))
    with pytest.raises(WrongLevel):
        fourteen_gon(build_map(11))


def test_outer_ring_structure(m7):
    ring = outer_ring(m7)
    assert len(ring) == 14
    kinds = [r.kind for r in ring]
    assert kinds.count("triangle") == 7 and kinds.count("quad") == 7
    assert sum(len(r.face_ids) for r in ring) == 21
    # all 21 faces distinct, and they are exactly the faces avoiding both
    # the north star and the denominator-1 circuit
    seen = {fid for r in ring for fid in r.face_ids}
    assert len(seen) == 21
    expect = {
        fid
        for fid, f in enumerate(m7.faces())
        if all(v.den not in (0, 1) or v.num in (2, 3) for v in f)
        and not any(v.den == 1 for v in f)
        and v7("1/0") not in f
    }
    assert seen == expect


def test_outer_ring_contains_printed_regions(m7):
    ring = outer_ring(m7)
    tri_corner_sets = [frozenset(r.corners) for r in ring if r.kind == "triangle"]
    quad_cycles = [r.labels() for r in ring if r.kind == "quad"]
    assert frozenset(map(v7, ("6/3", "2/0", "1/3"))) in tri_corner_sets
    assert ("1/3", "5/2", "3/0", "1/2") in quad_cycles
    # the other six of each come from t -> t + k
    for k in range(7):
        tri = frozenset(
            canonical(a + k * c, c, 7) for a, c in [(6, 3), (2, 0), (1, 3)]
        )
        assert tri in tri_corner_sets
        quad = {canonical(a + k * c, c, 7) for a, c in [(1, 3), (5, 2), (3, 0), (1, 2)]}
        assert quad in [frozenset(r.corners) for r in ring if r.kind == "quad"]


def test_quads_are_two_faces_sharing_diagonal(m7):
    faces = m7.faces()
    for r in outer_ring(m7):
        if r.kind != "quad":
            continue
        f1, f2 = (set(faces[fid]) for fid in r.face_ids)
        diagonal = f1 & f2
        assert len(diagonal) == 2
        assert all(v.den == 2 for v in diagonal)
        assert is_adjacent(*sorted(diagonal))


def test_quad_at_reports_a_missing_corner(m7):
    # _quad_at reads vertex ids: 1/3 is followed on the walk by 5/2, and
    # 1/2 is the other den-2 corner
    vid = m7.vertex_id
    pole3 = vid(v7("3/0"))
    inner, outer, later, earlier = quartic._quad_at(m7, vid(v7("1/3")), vid(v7("5/2")), pole3)
    assert (later, earlier) == (vid(v7("5/2")), vid(v7("1/2")))
    assert {inner, outer} == {m7.face_id_by_vertices(map(v7, ("1/3", "5/2", "1/2"))),
                              m7.face_id_by_vertices(map(v7, ("5/2", "3/0", "1/2")))}
    # a slot of denominator 1, a den-2 neighbour with no den-2 common
    # neighbour, and a den-2 slot that is no neighbour of the pinch
    for slot in ("1/1", "0/2", "2/2"):
        with pytest.raises(BrokenInvariant, match="no quadrilateral at 1/3"):
            quartic._quad_at(m7, vid(v7("1/3")), vid(v7(slot)), pole3)


# -- the object path: the outer ring as it ran on FareyFractions and
# neighbors() tuples before it moved to vertex ids, kept as the oracle

def reference_quad_at(fmap, third, u):
    pole3 = canonical(3, 0, 7)
    around, beside = fmap.neighbors(third), set(fmap.neighbors(u))
    others = [v for v in around if v.den == 2 and v in beside]
    assert u.den == 2 and u in around and len(others) == 1
    w = others[0]
    rot = fmap.neighbors(pole3)
    for r, nxt in zip(rot, rot[1:] + rot[:1]):
        if {r, nxt} == {u, w}:
            return (fmap.face_id_by_vertices([third, u, w]),
                    fmap.face_id_by_vertices([u, pole3, w]), nxt, r)
    raise AssertionError(f"{u}, {w} not consecutive around {pole3}")


def reference_outer_ring(fmap):
    walk = [v.translated(k) for k in range(7) for v in second_circuit_seed(7)]
    pole2, pole3 = canonical(2, 0, 7), canonical(3, 0, 7)
    pinches = [i for i, v in enumerate(walk) if v.den == 3]
    regions = []
    for a, b in zip(pinches, pinches[1:] + [pinches[0] + len(walk)]):
        start, end = walk[a], walk[b % len(walk)]
        if b - a == 1:
            face_id = fmap.face_id_by_vertices([start, pole2, end])
            regions.append(RingRegion("triangle", (start, pole2, end), (face_id,)))
        else:
            u = walk[(a + 1) % len(walk)]
            inner, outer, later, earlier = reference_quad_at(fmap, start, u)
            regions.append(RingRegion("quad", (start, later, pole3, earlier), (inner, outer)))
    return tuple(regions)


def test_outer_ring_equals_the_fraction_reference(m7):
    ring = outer_ring(m7)
    reference = reference_outer_ring(m7)
    assert ring == reference
    assert [r.corners for r in ring] == [r.corners for r in reference]
    assert [r.face_ids for r in ring] == [r.face_ids for r in reference]
    assert all(type(v) is FareyFraction for r in ring for v in r.corners)


def test_fourteen_gon_side_one(m7):
    gon = fourteen_gon(m7)
    side1 = gon.side(1)
    assert side1.label_strings() == ("2/0", "5/3", "3/2", "3/0")
    assert side1.anticlockwise
    side6 = gon.side(6)
    assert side6.label_strings() == ("2/0", "5/3", "3/2", "3/0")
    assert not side6.anticlockwise


# all 14 sides: (x/3, y/2) of the labels (2/0, x/3, y/2, 3/0), anticlockwise
FOURTEEN_GON_SIDES = [
    ("5/3", "3/2", True), ("6/3", "6/2", False), ("1/3", "5/2", True),
    ("2/3", "1/2", False), ("4/3", "0/2", True), ("5/3", "3/2", False),
    ("0/3", "2/2", True), ("1/3", "5/2", False), ("3/3", "4/2", True),
    ("4/3", "0/2", False), ("6/3", "6/2", True), ("0/3", "2/2", False),
    ("2/3", "1/2", True), ("3/3", "4/2", False),
]


def test_fourteen_gon_all_sides(m7):
    gon = fourteen_gon(m7)
    assert [s.index for s in gon.sides] == list(range(1, 15))
    got = [(s.label_strings(), s.anticlockwise) for s in gon.sides]
    assert got == [(("2/0", x, y, "3/0"), acw) for x, y, acw in FOURTEEN_GON_SIDES]


def test_fourteen_gon_label_counts(m7):
    gon = fourteen_gon(m7)
    corners = gon.corner_labels()
    assert corners.count("2/0") == 7 and corners.count("3/0") == 7
    assert all(corners[i] != corners[(i + 1) % 14] for i in range(14))
    thirds = [s.label_strings()[1] for s in gon.sides]
    halves = [s.label_strings()[2] for s in gon.sides]
    for x in range(7):
        assert thirds.count(f"{x}/3") == 2
        assert halves.count(f"{x}/2") == 2


def test_sides_are_farey_edge_plus_non_farey_segment(m7):
    # from 2/0 to x/3 is an edge of the map; from x/3 to 3/0 is not
    pole2, pole3 = v7("2/0"), v7("3/0")
    for s in fourteen_gon(m7).sides:
        third = s.labels[1]
        assert is_adjacent(pole2, third)
        assert not is_adjacent(third, pole3)
        det = (2 * third.den - third.num * 0) % 7
        assert det == 6  # the Farey segment has determinant -1 mod 7
        det2 = (third.num * 0 - 3 * third.den) % 7
        assert det2 not in (1, 6)


def test_side_pairing_matches_klein(m7):
    gon = fourteen_gon(m7)
    pairing = side_pairing(gon)
    assert {tuple(sorted(p)) for p in pairing.pairs} == {
        tuple(sorted(p)) for p in KLEIN_PAIRS
    }
    for i in range(1, 15):
        j = pairing.partner(i)
        assert i != j
        assert pairing.partner(j) == i
        assert (j - i) % 14 == 5 or (i - j) % 14 == 5


def test_quotient_genus_three(m7):
    gon = fourteen_gon(m7)
    g = quotient_genus_of_gon(gon, side_pairing(gon))
    assert g == 3


def test_klein_matrix_report():
    report = klein_matrix_report()
    assert report.in_gamma7
    assert [str(q) for q in report.images] == ["19/7", "8/3", "94/35"]
    assert str(report.images[1]) == "8/3"
    assert report.segment_dets_before == (-1, -2)
    assert report.segment_dets_after == (1, -2)
    assert not report.endpoints_match_recorded  # 3/7 -> 94/35, not 18/7
    text = report.to_text()
    assert "94/35" in text and "NOTE" in text


def test_klein_matrix_report_images_consistent_mod_seven():
    # the exact images reduce, mod 7, to the same vertices as the sources
    report = klein_matrix_report()
    for q, img in zip(report.edge1, report.images):
        assert canonical(q.num, q.den, 7) == canonical(img.num, img.den, 7)
