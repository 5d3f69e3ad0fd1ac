import dataclasses
import inspect
import random

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
    # chi is odd only for the empty polygon: no corner, no pair, one disc
    with pytest.raises(NoMatch, match="odd Euler characteristic 1"):
        polygon_genus([], [])


# -- the references: the union-find genus count and the set-and-sort matcher
# that the corner cycles and the walk in position order replaced

def reference_polygon_genus(corners, pairs):
    """Union-find over the corners: corner i meets corner j + 1 and corner
    i + 1 meets corner j for each pair; the errors in the same order."""
    total = len(corners)
    if sorted(k for pair in pairs for k in pair) != list(range(total)):
        raise NoMatch("a side pairing must pair every side exactly once")
    parent = list(range(total))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find((j + 1) % total)
        parent[find((i + 1) % total)] = find(j)
    if any(corners[k] != corners[find(k)] for k in range(total)):
        raise NoMatch("glued corners carry different labels")
    chi = len({find(k) for k in range(total)}) - len(pairs) + 1
    if chi % 2:
        raise NoMatch(f"odd Euler characteristic {chi}")
    return (2 - chi) // 2


def reference_reversed_pairs(keys):
    where = {}
    for i, key in enumerate(keys):
        if key in where:
            raise UnpairedEdge(f"directed key {key} occurs twice")
        where[key] = i
    pairs = set()
    for key, i in where.items():
        j = where.get(key[::-1])
        if j is None:
            raise UnpairedEdge(f"no reversed occurrence of {key}")
        if i == j:
            raise UnpairedEdge(f"{key} pairs with itself")
        pairs.add((min(i, j), max(i, j)))
    return tuple(sorted(pairs))


def outcome(kernel, *args):
    """The kernel's value, or the type and message of its FareyMapError."""
    try:
        return kernel(*args)
    except (NoMatch, UnpairedEdge) as exc:
        return type(exc), str(exc)


def random_gluing(rng):
    """A random pairing of 2..60 sides, each pair in a random order, with
    corner labels that agree on the glued corners; then, one time in two,
    a pair left out, a side repeated, or one corner relabelled."""
    total = 2 * rng.randint(1, 30)
    sides = list(range(total))
    rng.shuffle(sides)
    pairs = [tuple(rng.sample(sides[k:k + 2], 2)) for k in range(0, total, 2)]
    corners = list(range(total))
    for _ in range(total):  # label each corner by the least corner glued to it
        for i, j in pairs:
            for a, b in ((i, (j + 1) % total), (j, (i + 1) % total)):
                corners[a] = corners[b] = min(corners[a], corners[b])
    flaw = rng.choice(["none", "none", "none", "missing", "repeated", "label"])
    if flaw == "missing":
        pairs.pop(rng.randrange(len(pairs)))
    elif flaw == "repeated":
        k = rng.randrange(len(pairs))
        pairs[k] = (pairs[k][0], rng.choice(sides))
    elif flaw == "label":
        corners[rng.randrange(total)] = -1
    return corners, pairs


def test_polygon_genus_equals_the_union_find_on_random_gluings():
    rng = random.Random(30)
    seen = set()
    for _ in range(600):
        corners, pairs = random_gluing(rng)
        want = outcome(reference_polygon_genus, corners, pairs)
        assert outcome(polygon_genus, corners, pairs) == want, (corners, pairs)
        seen.add(want if isinstance(want, tuple) else "genus")
    # every outcome occurs: a genus, and each of the first two errors
    assert {"genus", (NoMatch, "a side pairing must pair every side exactly once"),
            (NoMatch, "glued corners carry different labels")} <= seen


def random_keys(rng):
    """Directed keys of 2..4 letters over 'abc', no palindrome, each with its
    reversal, shuffled; then, one time in two, a key repeated, a reversal
    dropped or a palindrome added."""
    keys, size = set(), 2 * rng.randint(1, 20)
    while len(keys) < size:
        key = tuple(rng.choice("abc") for _ in range(rng.randint(2, 4)))
        if key != key[::-1]:
            keys |= {key, key[::-1]}
    keys = sorted(keys)
    rng.shuffle(keys)
    flaw = rng.choice(["none", "none", "none", "repeated", "missing", "palindrome"])
    if flaw == "repeated":
        keys.insert(rng.randrange(len(keys) + 1), rng.choice(keys))
    elif flaw == "missing":
        keys.pop(rng.randrange(len(keys)))
    elif flaw == "palindrome":
        keys.insert(rng.randrange(len(keys) + 1), rng.choice([("a", "b", "a"), ("c", "c")]))
    return keys


def test_reversed_pairs_equals_the_set_and_sort_on_random_keys():
    rng = random.Random(30)
    kinds = set()
    for _ in range(600):
        keys = random_keys(rng)
        want = outcome(reference_reversed_pairs, keys)
        assert outcome(reversed_pairs, keys) == want, keys
        errors = [w for w in ("twice", "no reversed", "itself") if want and want[0] is UnpairedEdge
                  and w in want[1]]
        kinds.add(errors[0] if errors else "pairs")
    assert kinds == {"pairs", "twice", "no reversed", "itself"}


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


def test_from_seed_takes_the_seed_alone():
    # a polygon is its map and its slots, so the seed is all it is made from
    assert list(inspect.signature(Polygon.from_seed).parameters) == ["fmap", "nums", "dens"]


def test_gon_pairing_equals_reversed_pairs_on_the_label_keys():
    # the keys side_pairing built before the Polygon: each side's labels,
    # reversed when the side runs clockwise
    gon = fourteen_gon(build_map(7))
    keys = [s.labels if s.anticlockwise else s.labels[::-1] for s in gon.sides]
    assert gon.pairing().pairs == reversed_pairs(keys)
    assert side_pairing(gon).pairs == tuple((i + 1, j + 1) for i, j in reversed_pairs(keys))
