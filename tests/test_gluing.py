import dataclasses

import pytest

from fareymaps.errors import NoMatch, UnpairedEdge
from fareymaps.gluing import polygon_genus, reversed_pairs
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
    gon = fourteen_gon(build_map(7))
    flipped = dataclasses.replace(gon.sides[0], anticlockwise=not gon.sides[0].anticlockwise)
    with pytest.raises(NoMatch):
        side_pairing(dataclasses.replace(gon, sides=(flipped,) + gon.sides[1:]))


def test_quotient_genus_of_gon_rejects_a_mismatched_pairing():
    gon = fourteen_gon(build_map(7))
    pairs = side_pairing(gon).pairs
    # swap partners between the first two pairs: the glued corners clash
    (a, b), (c, d) = pairs[:2]
    wrong = SidePairing(((a, d), (b, c)) + pairs[2:])
    with pytest.raises(NoMatch, match="different labels"):
        quotient_genus_of_gon(gon, wrong)
