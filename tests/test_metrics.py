import hashlib
import random

import networkx as nx
import numpy as np
import pytest

from fareymaps.arith import canonical, distinct_prime_factors, is_adjacent
from fareymaps.cli import main
from fareymaps.errors import (
    BrokenInvariant,
    EqualVertices,
    LevelMismatch,
    NotPrime,
    ResourceLimit,
    UnknownVertex,
)
from fareymaps.maps import build_map
from fareymaps import metrics
from fareymaps.metrics import (
    Circuit,
    bfs_distance,
    bfs_distances,
    check_slots,
    decompose,
    decomposition_ids,
    diameter,
    distance_classes,
    distance_formula,
    is_prime_level,
    second_circuit_slots,
)

# The 21-term distance-2 circuit of M3(7), as printed.
SECOND_CIRCUIT_7 = (
    "1/3, 1/2, 2/3, 4/3, 3/2, 5/3, 0/3, 5/2, 1/3, 3/3, 0/2, "
    "4/3, 6/3, 2/2, 0/3, 2/3, 4/2, 3/3, 5/3, 6/2, 6/3"
).split(", ")


def all_poles(p):
    """The poles a/0, a = 1..(p-1)/2, as `fareymap circuits` lists them."""
    parts = decompose(p)
    return (parts.north, *parts.poles)


def test_distance_formula_examples():
    n = lambda s: canonical(*map(int, s.split("/")), 7)
    assert distance_formula(n("1/0"), n("4/1"), 7) == 1
    assert distance_formula(n("1/0"), n("2/0"), 7) == 3
    assert distance_formula(n("1/0"), n("1/3"), 7) == 2


def test_distance_formula_errors():
    with pytest.raises(NotPrime):
        distance_formula(canonical(1, 0, 6), canonical(0, 1, 6), 6)
    with pytest.raises(NotPrime):
        decompose(9)
    with pytest.raises(EqualVertices):
        distance_formula(canonical(1, 0, 7), canonical(1, 0, 7), 7)


def test_bfs_examples():
    m7 = build_map(7)
    assert bfs_distance(m7, canonical(1, 0, 7), canonical(1, 0, 7)) == 0
    assert bfs_distance(m7, canonical(1, 0, 7), canonical(3, 0, 7)) == 3
    m5 = build_map(5)
    assert bfs_distance(m5, canonical(1, 0, 5), canonical(2, 0, 5)) == 3
    with pytest.raises(UnknownVertex):
        bfs_distance(m5, canonical(1, 0, 5), canonical(3, 0, 7))
    for n in (3, 6, 101):
        m = build_map(n)
        for v in (m.vertices[0], m.vertices[-1]):
            assert bfs_distance(m, v, v) == 0
        foreign = canonical(1, 0, n + 1)
        with pytest.raises(UnknownVertex):
            bfs_distance(m, m.vertices[0], foreign)
        with pytest.raises(UnknownVertex):
            bfs_distance(m, foreign, m.vertices[0])
    # a skeleton whose every dart is a loop leaves the goal unreachable
    loops = np.repeat(np.arange(m5.vertex_count), 5).reshape(-1, 5)
    m5.dart_targets = lambda: loops
    with pytest.raises(BrokenInvariant, match="unreachable"):
        bfs_distance(m5, canonical(1, 0, 5), canonical(2, 0, 5))


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12, 5, 7, 11])
def test_bfs_distance_equals_networkx_on_all_pairs(n):
    m = build_map(n)
    vs = m.vertices
    for u, lengths in nx.all_pairs_shortest_path_length(edge_graph(m)):
        got = [bfs_distance(m, vs[u], vs[w]) for w in range(m.vertex_count)]
        assert got == [lengths[w] for w in range(m.vertex_count)], (n, u)
        assert all(type(d) is int for d in got)


@pytest.mark.parametrize("n", [53, 64, 101])
def test_bfs_distance_equals_the_kernel_on_seeded_pairs(n):
    m = build_map(n)
    vs = m.vertices
    rng = random.Random(n)
    sources = rng.sample(range(m.vertex_count), 8)
    rows = bfs_distances(m, sources)
    for s, row in zip(sources, rows.tolist()):
        for w in rng.sample(range(m.vertex_count), 40):
            assert bfs_distance(m, vs[s], vs[w]) == row[w], (n, s, w)
    # some pair of poles a/0 is 3 apart, at the prime levels and at 64
    pole_ids = [i for i, v in enumerate(vs) if v.den == 0]
    rows = bfs_distances(m, pole_ids)
    far = [(i, j) for r, i in enumerate(pole_ids) for j in pole_ids if rows[r, j] == 3]
    assert far
    for i, j in far:
        assert bfs_distance(m, vs[i], vs[j]) == 3, (n, i, j)


def test_formula_equals_bfs_exhaustive():
    for p in (5, 7, 11, 13):
        m = build_map(p)
        vs = m.vertices
        for i, f in enumerate(vs):
            for g in vs[i + 1:]:
                assert distance_formula(f, g, p) == bfs_distance(m, f, g), (p, f, g)


def all_pairs_diameter(m):
    """Reference: BFS from every vertex, no use of vertex-transitivity."""
    return max(int(bfs_distances(m, [v])[0].max()) for v in range(m.vertex_count))


def test_diameter():
    # Diameter 3 at every level 5..22 except 6: M3(6) has a single pole
    # class, so no distance-3 pair exists and the diameter drops to 2
    # (verified against the edge set projected from integer Farey edges).
    # The same holds at n = 4, and M3(3) is a complete graph.
    for n in range(3, 23):
        m = build_map(n)
        want = {3: 1, 4: 2, 6: 2}.get(n, 3)
        assert diameter(m) == all_pairs_diameter(m) == want, n


def test_first_circuit():
    assert decompose(7).sphere1.labels() == [f"{k}/1" for k in range(7)]
    assert len(decompose(5).sphere1) == 5
    assert decompose(11).sphere1.labels() == [f"{k}/1" for k in range(11)]


def test_seed_sequences():
    # the seed is the first p - 4 slots of the distance-2 walk
    assert decompose(7).sphere2.labels()[:3] == ["1/3", "1/2", "2/3"]
    assert decompose(11).sphere2.labels()[:7] == [
        "1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5",
    ]
    assert decompose(5).sphere2.labels()[:1] == ["1/2"]


def test_second_circuit_seven_verbatim():
    assert decompose(7).sphere2.labels() == SECOND_CIRCUIT_7


def test_second_circuit_five_degenerate_seed():
    # |seed| = 1, so the circuit is pure seam; same concatenation code path
    assert decompose(5).sphere2.labels() == ["1/2", "3/2", "0/2", "2/2", "4/2"]


def test_second_circuit_lengths_and_distance():
    for p in (5, 7, 11, 13):
        circuit = decompose(p).sphere2
        assert len(circuit) == p * (p - 4)
        north = canonical(1, 0, p)
        for v in circuit.vertices:
            assert distance_formula(north, v, p) == 2
        assert len(all_poles(p)) == (p - 1) // 2
        # support is exactly the vertices with denominator not in {0, +-1}
        m = build_map(p)
        expect = {v for v in m.vertices if v.den not in (0, 1, p - 1)}
        assert circuit.support() == expect


PRIMES_5_TO_101 = [p for p in range(5, 102) if all(p % q for q in range(2, p))]

# SHA-256 of `fareymap circuits p --json`, recorded before the circuit rows
# replaced the per-slot translates.
CIRCUITS_JSON_SHA256 = {
    5: "27ac4d824851a7bdedf32f56fb6e5d7fe42607d40e0590d73eeab9bde016c1ed",
    7: "579fea5c244ffd9df8f1a7112108a61ea55458ac50f8179d84a57c54f14934a6",
    11: "e3f232e5ffbeb4799bbe5905e103819f0d464052e54db8cdcba216154dfb6495",
    61: "9c240ab28a106b2a4b4da7c9dd312d4759bc7bdd22a9e247e3b5fb35bd581823",
}


def test_is_prime_level():
    assert [n for n in range(102) if is_prime_level(n)] == PRIMES_5_TO_101
    with pytest.raises(NotPrime, match="need a prime >= 5, got 3"):
        decompose(3)


def test_is_prime_level_agrees_with_trial_division():
    for n in range(10**4 + 1):
        assert is_prime_level(n) == (n >= 5 and distinct_prime_factors(n) == [n]), n


def test_is_prime_level_is_a_strong_test_up_to_its_bound():
    # 3215031751 = 151 * 751 * 28351 passes the strong test to bases 2, 3, 5, 7
    assert not is_prime_level(3215031751)
    assert is_prime_level(2**61 - 1)
    bound = 3_317_044_064_679_887_385_961_981
    assert not is_prime_level(bound - 2)  # the largest odd level it reads
    with pytest.raises(ResourceLimit, match=f"level {bound} above bound {bound}"):
        is_prime_level(bound)


def test_distance_formula_at_a_large_prime(capsys):
    p = 2**61 - 1
    assert distance_formula(canonical(1, 0, p), canonical(2, 0, p), p) == 3
    assert main(["distance", "1000000000000000003", "1/0", "2/0"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(["distance", str(10**25 + 1), "1/0", "2/0"]) == 2
    assert "above bound" in capsys.readouterr().err


def reference_seed(p):
    """The (num, den) pairs of the seed 1/((p-1)/2), ..., 1/2, 2/3, ...,
    ((p-3)/2)/((p-1)/2)."""
    half = (p - 1) // 2
    return [(1, k) for k in range(half, 1, -1)] + [(m - 1, m) for m in range(3, half + 1)]


def reference_slots(p):
    """The slots as the list comprehension they were first written as."""
    seed = reference_seed(p)
    nums = [(a + k * c) % p for k in range(p) for a, c in seed]
    return nums, [c for _, c in seed] * p


@pytest.mark.parametrize("p", PRIMES_5_TO_101)
def test_second_circuit_slots_equal_the_reference(p):
    nums, dens = second_circuit_slots(p)
    assert isinstance(nums, np.ndarray) and isinstance(dens, np.ndarray)
    assert nums.dtype.kind == dens.dtype.kind == "i"
    assert (nums.tolist(), dens.tolist()) == reference_slots(p)


@pytest.mark.parametrize("p", PRIMES_5_TO_101)
def test_second_circuit_is_the_seed_translates(p):
    oracle = tuple(canonical(a + k * c, c, p) for k in range(p) for a, c in reference_seed(p))
    assert decompose(p).sphere2.vertices == oracle


def test_circuits_json_unchanged(capsys):
    for p, digest in CIRCUITS_JSON_SHA256.items():
        assert main(["circuits", str(p), "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, p


def test_circuit_rejects_a_broken_slot():
    vs = decompose(7).sphere2.vertices
    north = canonical(1, 0, 7)
    # 1/0 is adjacent only to denominator +-1, so it breaks the slot into it
    # (the one out of it at position 0); positions 3, 6, ... sit on the seams
    # between translates, and position 0 on the seam that closes the walk.
    for i in range(len(vs)):
        broken = vs[:i] + (north,) + vs[i + 1:]
        with pytest.raises(ValueError, match=f"circuit broken at slot {max(i - 1, 0)}:"):
            Circuit(broken, 7)
    # an open path: only the closing slot 2/1 -> 0/1 is not an edge
    path = tuple(canonical(k, 1, 7) for k in range(3))
    with pytest.raises(ValueError, match="circuit broken at slot 2: 2/1"):
        Circuit(path, 7)


def test_circuit_rejects_mixed_levels():
    f7, g7, f5 = canonical(0, 1, 7), canonical(1, 1, 7), canonical(0, 1, 5)
    with pytest.raises(LevelMismatch):
        Circuit((f7, g7), 5)
    with pytest.raises(LevelMismatch):
        Circuit((f7, f5, g7), 7)
    with pytest.raises(LevelMismatch):
        Circuit((f7, g7, f5), 7)
    # slots are checked in order: a broken slot 0 is reported before slot 1's level
    with pytest.raises(ValueError, match="slot 0"):
        Circuit((f7, canonical(3, 1, 7), f5), 7)


@pytest.mark.parametrize("p", [7, 11])
def test_one_slot_check_for_circuit_and_decomposition_ids(monkeypatch, p):
    # the kernel behind Circuit, decompose and decomposition_ids: with 1/0
    # written into slot i, the slots into and out of it break, and all three
    # report the first of them with one message
    nums, dens = second_circuit_slots(p)
    m = build_map(p)
    slots = {}
    monkeypatch.setattr(metrics, "second_circuit_slots", lambda q: slots[q])
    for i in range(nums.shape[0]):
        broken = nums.copy(), dens.copy()
        broken[0][i], broken[1][i] = 1, 0
        slots[p] = broken
        vertices = tuple(canonical(a, c, p) for a, c in zip(*(x.tolist() for x in broken)))
        messages = set()
        for build in (lambda: Circuit(vertices, p), lambda: decompose(p),
                      lambda: decomposition_ids(m)):
            with pytest.raises(BrokenInvariant) as info:
                build()
            messages.add(str(info.value))
        slot = max(i - 1, 0)
        assert messages == {f"circuit broken at slot {slot}: {vertices[slot]}"}


def test_check_slots_reads_levels_per_vertex_or_one_for_all():
    nums, dens = second_circuit_slots(7)
    assert check_slots(nums, dens, 7, 7) is None
    assert check_slots(nums, dens, np.full(nums.shape, 7), 7) is None
    levels = np.full(nums.shape, 7)
    levels[5] = 5
    # slot 4 ends at the vertex off level; its first end is on level
    with pytest.raises(LevelMismatch, match=f"^{nums[5]}/{dens[5]} not at level 7$"):
        check_slots(nums, dens, levels, 7)
    with pytest.raises(LevelMismatch, match=f"^{nums[0]}/{dens[0]} not at level 5$"):
        check_slots(nums, dens, 7, 5)
    assert check_slots([], [], [], 7) is None


def test_second_circuit_adjacent_including_seams():
    for p in (5, 7, 11, 13):
        vs = decompose(p).sphere2.vertices
        for i, v in enumerate(vs):
            assert is_adjacent(v, vs[(i + 1) % len(vs)])


def test_seam_determinant_identity():
    # with the block representatives used in the adjacency proof, the seam
    # determinant between consecutive translates is exactly -p + 1
    for p in (5, 7, 11, 13):
        for k in range(p - 1):
            last_num = (p - 3 + k * p - k) // 2
            first_num = (k * p - k + p + 1) // 2
            den = (p - 1) // 2
            assert last_num * den - first_num * den == -p + 1


def test_translation_covariance():
    for p in (5, 7, 11):
        vs = decompose(p).sphere2.vertices
        shifted = tuple(canonical(v.num + v.den, v.den, p) for v in vs)
        rot = p - 4
        assert shifted == vs[rot:] + vs[:rot]


def test_second_circuit_seven_multiplicities():
    labels = decompose(7).sphere2.labels()
    for v in labels:
        num, den = map(int, v.split("/"))
        if den == 3:
            assert labels.count(v) == 2, v
        else:
            assert den == 2 and labels.count(v) == 1, v


def test_poles_examples():
    assert [str(v) for v in all_poles(7)] == ["1/0", "2/0", "3/0"]
    assert [str(v) for v in all_poles(11)] == ["1/0", "2/0", "3/0", "4/0", "5/0"]
    assert [str(v) for v in all_poles(5)] == ["1/0", "2/0"]


def test_circuit_builders_share_the_map_level_bound(capsys):
    # the distance-2 walk alone holds p(p - 4) slots, so the circuits stop at
    # build_map's bound; the closed-form distance costs O(1) and has none
    for build in (second_circuit_slots, decompose):
        with pytest.raises(ResourceLimit, match="level 103 above bound 101"):
            build(103)
    with pytest.raises(ResourceLimit):
        decompose(100003)
    assert len(decompose(101).sphere2) == 101 * 97
    assert distance_formula(canonical(1, 0, 103), canonical(2, 0, 103), 103) == 3
    assert main(["circuits", "103"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: level 103 above bound 101\n")


def test_decompose_partitions_vertex_set():
    expected_sizes = {7: (1, 7, 14, 2), 5: (1, 5, 5, 1), 11: (1, 11, 44, 4)}
    for p, (a, b, c, d) in expected_sizes.items():
        dec = decompose(p)
        parts = [
            {dec.north},
            set(dec.sphere1.vertices),
            set(dec.sphere2.support()),
            set(dec.poles),
        ]
        assert tuple(len(s) for s in parts) == (a, b, c, d)
        union = set().union(*parts)
        assert len(union) == a + b + c + d
        assert union == set(build_map(p).vertices)


def test_bfs_distances_rejects_unknown_ids():
    m7 = build_map(7)
    # a float or a string id is not cast to the vertex it rounds to
    for start in (-1, m7.vertex_count, 99, 1.5, 1.0, "1"):
        with pytest.raises(UnknownVertex):
            bfs_distances(m7, [start])
    with pytest.raises(UnknownVertex):
        bfs_distances(m7, [0, -1])


def test_bfs_distances_reads_bools_and_integer_arrays():
    m7 = build_map(7)
    row = bfs_distances(m7, [1])
    for sources in ([True], np.array([1], dtype=np.uint8), (np.int64(1),)):
        assert np.array_equal(bfs_distances(m7, sources), row)
    assert bfs_distances(m7, []).shape == (0, m7.vertex_count)


def edge_graph(m):
    graph = nx.Graph()
    graph.add_nodes_from(range(m.vertex_count))
    graph.add_edges_from(zip(*(column.tolist() for column in m.edge_columns())))
    return graph


@pytest.mark.parametrize("n", range(3, 17))
def test_bfs_kernel_all_sources_equals_networkx(n):
    m = build_map(n)
    dist = bfs_distances(m, np.arange(m.vertex_count))
    assert dist.shape == (m.vertex_count, m.vertex_count)
    for u, lengths in nx.all_pairs_shortest_path_length(edge_graph(m)):
        assert dist[u].tolist() == [lengths[w] for w in range(m.vertex_count)]


@pytest.mark.parametrize("n", [64, 101])
def test_bfs_kernel_seeded_sources_equal_networkx(n):
    m = build_map(n)
    graph = edge_graph(m)
    sources = random.Random(n).sample(range(m.vertex_count), 4)
    dist = bfs_distances(m, sources)
    for row, u in enumerate(sources):
        lengths = nx.single_source_shortest_path_length(graph, u)
        assert dist[row].tolist() == [lengths[w] for w in range(m.vertex_count)]
    assert bfs_distances(m, [sources[0]])[0].tolist() == dist[0].tolist()


def test_distance_classes_equal_networkx_on_all_pairs():
    for p in (5, 7, 11, 13):
        m = build_map(p)
        nums, dens = m.vertex_columns()
        table = distance_classes(nums[:, None], dens[:, None], nums, dens, p)
        assert table.shape == (m.vertex_count, m.vertex_count)
        for u, lengths in nx.all_pairs_shortest_path_length(edge_graph(m)):
            assert table[u].tolist() == [lengths[w] or 3 for w in range(m.vertex_count)]


@pytest.mark.parametrize("p", [p for p in range(5, 102) if is_prime_level(p)])
def test_decomposition_ids_are_the_decomposition(p):
    m = build_map(p)
    parts = decompose(p)
    north, ring, walk, outer = decomposition_ids(m)
    assert north.tolist() == [m.vertex_id(parts.north)]
    assert ring.tolist() == [m.vertex_id(v) for v in parts.sphere1.vertices]
    assert walk.tolist() == [m.vertex_id(v) for v in parts.sphere2.vertices]
    assert outer.tolist() == [m.vertex_id(v) for v in parts.poles]


@pytest.mark.parametrize("p", PRIMES_5_TO_101)
def test_decompose_parts_are_the_map_vertices_at_the_ids(p):
    m = build_map(p)
    parts = decompose(p)
    north, ring, walk, outer = ([m.vertices[i] for i in part.tolist()]
                                for part in decomposition_ids(m))
    assert [parts.north] == north
    assert list(parts.sphere1.vertices) == ring
    assert list(parts.sphere2.vertices) == walk
    assert list(parts.poles) == outer


def test_decomposition_ids_need_a_prime_level():
    for n in (6, 9, 25):
        with pytest.raises(NotPrime):
            decomposition_ids(build_map(n))
