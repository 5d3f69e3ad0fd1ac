import dataclasses

import pytest

from fareymaps.errors import NoMatch, UnpairedEdge
from fareymaps.gluing import Polygon, polygon_genus, reversed_pairs
from fareymaps.maps import build_map
from fareymaps import gluing, sector
from fareymaps.quartic import SidePairing, fourteen_gon, quotient_genus_of_gon, side_pairing


def test_reversed_pairs_matches_each_key_with_its_reversal():
    keys = [("a", "b"), ("b", "c"), ("b", "a"), ("c", "b")]
    assert reversed_pairs(keys) == ((0, 2), (1, 3))


def test_reversed_pairs_rejects_duplicate_key():
    with pytest.raises(UnpairedEdge, match="twice"):
        reversed_pairs([("a", "b"), ("a", "b"), ("b", "a")])


def test_reversed_pairs_rejects_missing_partner():
    with pytest.raises(UnpairedEdge, match="no reversed"):
        reversed_pairs([("a", "b"), ("b", "c"), ("c", "b")])


def test_reversed_pairs_rejects_self_pair():
    with pytest.raises(UnpairedEdge, match="itself"):
        reversed_pairs([("a", "b", "a")])


def test_polygon_genus_small_surfaces():
    # a 2-gon folded shut is a sphere; the square a b a^-1 b^-1 is a torus
    assert polygon_genus(["p", "q"], [(0, 1)]) == 0
    assert polygon_genus(["v"] * 4, [(0, 2), (1, 3)]) == 1


def test_polygon_genus_rejects_mixed_labels():
    with pytest.raises(NoMatch, match="different labels"):
        polygon_genus(["v", "v", "v", "w"], [(0, 2), (1, 3)])


def test_polygon_genus_rejects_unpaired_side():
    with pytest.raises(NoMatch, match="exactly once"):
        polygon_genus(["v"] * 4, [(0, 2)])
    with pytest.raises(NoMatch, match="exactly once"):
        polygon_genus(["v"] * 4, [(0, 2), (1, 2)])


def test_polygon_genus_rejects_odd_euler_characteristic():
    with pytest.raises(NoMatch, match="odd"):
        polygon_genus(["p", "q"], [(0, 1)], inner_chi=0)


def test_partner_of():
    assert [SidePairing(((0, 2), (1, 3))).partner(k) for k in range(4)] == [2, 3, 0, 1]
    with pytest.raises(NoMatch):
        SidePairing(((0, 2),)).partner(1)


def test_one_side_pairing_type_for_both_polygons():
    assert SidePairing is gluing.SidePairing
    assert not hasattr(sector, "PairingTable")
    walk = sector.boundary_walk(
        sector.sector_search(build_map(11), restrict=sector.reference_sector_vertices())
    )
    pairing = sector.pair_boundary(walk)
    assert type(pairing) is SidePairing
    assert pairing.partner(pairing.pairs[0][1]) == pairing.pairs[0][0]


def test_side_pairing_rejects_a_flipped_side():
    # side 1 read backwards, slots 3..0, runs the path of side 6 a second time
    gon = fourteen_gon(build_map(7))
    with pytest.raises(NoMatch, match=r"\('3/0', '3/2', '5/3', '2/0'\) occurs twice"):
        side_pairing(dataclasses.replace(gon, ids=gon.ids[3::-1] + gon.ids[4:]))


def test_quotient_genus_of_gon_rejects_a_mismatched_pairing():
    gon = fourteen_gon(build_map(7))
    pairs = side_pairing(gon).pairs
    # swap partners between the first two pairs: the glued corners clash
    (a, b), (c, d) = pairs[:2]
    wrong = SidePairing(((a, d), (b, c)) + pairs[2:])
    with pytest.raises(NoMatch, match="different labels"):
        quotient_genus_of_gon(gon, wrong)


def test_one_polygon_type_for_both_polygons():
    # the 14-gon and the 198-gon are Polygons, three slots and one slot per side
    gon = fourteen_gon(build_map(7))
    walk = sector.boundary_walk(
        sector.sector_search(build_map(11), restrict=sector.reference_sector_vertices())
    )
    assert isinstance(gon, Polygon) and isinstance(walk, Polygon)
    assert (len(gon.ids), gon.side_slots, len(gon)) == (42, 3, 14)
    assert (len(walk.ids), walk.side_slots, len(walk)) == (198, 1, 198)
    assert [len(path) for path in gon.side_paths()] == [4] * 14
    assert gon.side_paths()[-1][-1] == gon.ids[0]
    assert walk.side_paths()[-1] == (walk.ids[-1], walk.ids[0])


def test_gon_pairing_equals_reversed_pairs_on_the_label_keys():
    # the keys side_pairing built before the Polygon: each side's labels,
    # reversed when the side runs clockwise
    gon = fourteen_gon(build_map(7))
    keys = [s.labels if s.anticlockwise else s.labels[::-1] for s in gon.sides]
    assert gon.pairing().pairs == reversed_pairs(keys)
    assert side_pairing(gon).pairs == tuple((i + 1, j + 1) for i, j in reversed_pairs(keys))
