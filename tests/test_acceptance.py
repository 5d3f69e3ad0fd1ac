"""Acceptance suite: one test per criterion, one printed line per criterion.

Criterion 2 pins the diameter of every level in 5..13: 2 at level 6 and 3 at
the others.  At these levels a pole a/0 with a != +-1 lies at distance 3 from
1/0.  At level 6 the only units are +-1, so no such pole exists, and every
other vertex of M3(6) has a neighbour x/1, so it lies within distance 2 of
1/0.  Each pinned
value is also cross-checked against networkx's diameter of the graph whose
edges come from `is_adjacent`, an oracle that uses no dart arrays.
"""

import json
import random
import time
import xml.etree.ElementTree as ET

import networkx as nx
import pytest

from fareymaps.arith import ModMatrix, canonical, is_adjacent, mobius_mod
from fareymaps.maps import build_map, from_json, genus, mu, same_combinatorics, to_json
from fareymaps.metrics import (
    bfs_distance,
    decompose,
    diameter,
    distance_formula,
)
from fareymaps.quartic import (
    fourteen_gon,
    klein_matrix_report,
    quotient_genus_of_gon,
    side_pairing,
)
from fareymaps.render import render_map
from fareymaps.sector import (
    boundary_walk,
    normalize_walk,
    pair_boundary,
    reference_sector_vertices,
    quotient_genus,
    sector_search,
    tile_by_translates,
)

MAPS = {}


def get_map(n):
    if n not in MAPS:
        MAPS[n] = build_map(n)
    return MAPS[n]


def finish(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    for f in failures:
        print(f"  - {f}")
    if failures:
        pytest.fail(f"criterion {number}: " + "; ".join(failures))


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def brute_psl_order(n):
    seen = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1:
                        neg = ((-a) % n, (-b) % n, (-c) % n, (-d) % n)
                        seen.add(min((a, b, c, d), neg))
    return len(seen)


def test_criterion_1_counting_suite():
    failures = []
    start = time.perf_counter()
    check(failures, (mu(5), mu(7), mu(11)) == (60, 168, 660), "mu values")
    for n, vef in [(5, (12, 30, 20)), (7, (24, 84, 56)), (11, (60, 330, 220))]:
        m = get_map(n)
        check(failures, (m.vertex_count, m.edge_count, m.face_count) == vef,
              f"V/E/F at {n}")
    check(failures, (genus(5), genus(7), genus(11)) == (0, 3, 26), "genus values")
    for n in range(3, 14):
        check(failures, brute_psl_order(n) == mu(n), f"brute-force group order at {n}")
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 1.0, f"counting suite took {elapsed:.2f}s (budget 1s)")
    finish(1, "counting suite", failures)


def adjacency_graph(m):
    """The graph on m's vertices whose edges come from the determinant test."""
    vs = m.vertices
    graph = nx.Graph()
    graph.add_nodes_from(vs)
    graph.add_edges_from(
        (f, g) for i, f in enumerate(vs) for g in vs[i + 1:] if is_adjacent(f, g)
    )
    return graph


def test_criterion_2_distance_oracle_and_diameter():
    failures = []
    start = time.perf_counter()
    for p in (5, 7, 11, 13):
        m = get_map(p)
        vs = m.vertices
        agree = all(
            distance_formula(f, g, p) == bfs_distance(m, f, g)
            for i, f in enumerate(vs)
            for g in vs[i + 1:]
        )
        check(failures, agree, f"formula vs BFS at {p}")
    for n in range(5, 14):
        m = get_map(n)
        d = diameter(m)
        # at level 6 the only units are +-1, so no pole lies at distance 3
        want = 2 if n == 6 else 3
        check(failures, d == want, f"diameter at {n} is {d}, claimed {want}")
        oracle = nx.diameter(adjacency_graph(m))
        check(
            failures, d == oracle, f"diameter at {n} is {d}, is_adjacent oracle {oracle}"
        )
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 10.0, f"distance suite took {elapsed:.2f}s (budget 10s)")
    finish(2, "distance oracle equivalence and diameter", failures)


PRINTED_S2_7 = (
    "1/3, 1/2, 2/3, 4/3, 3/2, 5/3, 0/3, 5/2, 1/3, 3/3, 0/2, "
    "4/3, 6/3, 2/2, 0/3, 2/3, 4/2, 3/3, 5/3, 6/2, 6/3"
).split(", ")


def test_criterion_3_second_circuit_suite():
    failures = []
    check(failures, decompose(7).sphere2.labels() == PRINTED_S2_7, "printed S2 at 7")
    for p in (5, 7, 11, 13):
        parts = decompose(p)
        walk = parts.sphere2
        vs = walk.vertices
        check(failures, len(walk) == p * (p - 4), f"length at {p}")
        # the poles a/0, a = 1..(p-1)/2: 1/0 and the distance-3 poles
        check(failures, len((parts.north, *parts.poles)) == (p - 1) // 2, f"pole count at {p}")
        check(
            failures,
            all(is_adjacent(v, vs[(i + 1) % len(vs)]) for i, v in enumerate(vs)),
            f"consecutive adjacency at {p}",
        )
        north = canonical(1, 0, p)
        check(
            failures,
            all(distance_formula(north, v, p) == 2 for v in vs),
            f"distance 2 at {p}",
        )
        seed = p - 4  # the seed's length
        for k in range(p - 1):
            last = vs[k * seed + seed - 1]
            first = vs[(k + 1) * seed]
            # with the block representatives of the adjacency proof the seam
            # determinant is -p + 1, i.e. 1 mod p
            last_num = (p - 3 + k * p - k) // 2
            first_num = (k * p - k + p + 1) // 2
            den = (p - 1) // 2
            det = last_num * den - first_num * den
            check(failures, det % p == 1, f"seam determinant at {p}, block {k}")
            check(
                failures,
                canonical(last_num, den, p) == last
                and canonical(first_num, den, p) == first,
                f"seam block representatives at {p}, block {k}",
            )
    finish(3, "second circuit suite", failures)


ICOSA_VERTICES = [
    "1/0", "2/0", "0/1", "1/1", "2/1", "3/1", "4/1",
    "0/2", "1/2", "2/2", "3/2", "4/2",
]


def test_criterion_4_icosahedron():
    failures = []
    m = get_map(5)
    check(failures, [str(v) for v in m.vertices] == ICOSA_VERTICES, "vertex labels")
    check(failures, all(len(set(row)) == 5 for row in m.dart_targets().tolist()), "5-regular")
    check(failures, diameter(m) == 3, "diameter 3")
    check(failures, m.edge_count == 30 and m.vertex_count == 12, "12 vertices, 30 edges")
    check(failures, m.face_count == 20, "girth 3: 20 triangles present")

    # vertex-transitivity under the mod-5 matrix action
    north = canonical(1, 0, 5)
    t, s = ModMatrix.translation(5), ModMatrix.edge_reversal(5)
    orbit, frontier = {north}, [north]
    group_seen = {ModMatrix.identity(5)}
    matrices = [ModMatrix.identity(5)]
    while matrices:
        g = matrices.pop()
        for h in (g * t, g * s):
            if h not in group_seen:
                group_seen.add(h)
                matrices.append(h)
    for g in group_seen:
        orbit.add(mobius_mod(g, north))
    check(failures, orbit == set(m.vertices), "vertex-transitive")

    ours = nx.Graph()
    ours.add_nodes_from(str(v) for v in m.vertices)
    ours.add_edges_from(
        (str(m.vertices[i]), str(m.vertices[j])) for i, j in m.edge_columns().tolist()
    )
    check(
        failures,
        nx.is_isomorphic(ours, nx.icosahedral_graph()),
        "isomorphic to the icosahedron",
    )
    finish(4, "icosahedron at level 5", failures)


def test_criterion_5_klein_fourteen_gon():
    failures = []
    gon = fourteen_gon(get_map(7))
    check(
        failures,
        gon.side(1).label_strings() == ("2/0", "5/3", "3/2", "3/0"),
        "side 1 labels",
    )
    pairing = side_pairing(gon)
    expected = {(1, 6), (3, 8), (5, 10), (7, 12), (9, 14), (11, 2), (13, 4)}
    check(
        failures,
        {tuple(sorted(p)) for p in pairing.pairs}
        == {tuple(sorted(p)) for p in expected},
        "pairing table",
    )
    g = quotient_genus_of_gon(gon, pairing)
    check(failures, g == 3, f"quotient genus is {g}, want 3")
    finish(5, "Klein 14-gon", failures)


def test_criterion_6_klein_matrix_report():
    failures = []
    report = klein_matrix_report()
    check(failures, report.in_gamma7, "matrix lies in Gamma(7)")
    check(failures, str(report.images[1]) == "8/3", "image of 1/3")
    check(failures, report.segment_dets_before == (-1, -2), "segment determinants")
    check(
        failures,
        not report.endpoints_match_recorded
        and str(report.images[2]) == "94/35",
        "endpoint discrepancy flagged (3/7 -> 94/35, recorded 18/7)",
    )
    check(failures, "NOTE" in report.to_text(), "report surfaces the discrepancy")
    finish(6, "Klein pairing matrix report", failures)


ROW_1 = "1/5 1/4 1/3 2/5 1/2 5/0 6/2 7/4 3/5 6/3 4/0 2/3 6/4 3/0 3/4 4/2 4/5 2/0 6/5".split()


def test_criterion_7_level_eleven_pipeline():
    failures = []
    start = time.perf_counter()
    m = get_map(11)
    sec = sector_search(m, restrict=reference_sector_vertices())
    check(failures, len(sec) == 20, "sector found")
    tiles = tile_by_translates(sec)
    union = set().union(*tiles)
    check(
        failures,
        len(union) == 220 and sum(len(t) for t in tiles) == 220,
        "translates partition the 220 faces",
    )
    walk = boundary_walk(sec)
    check(failures, len(walk) == 198, f"boundary length {len(walk)}, want 198")
    walk = normalize_walk(walk, ROW_1[0], ROW_1[1])
    rows = walk.rows()
    check(failures, rows[0] == ROW_1, "row 1 verbatim")
    for k in range(11):
        expect = [
            str(canonical(int(s.split("/")[0]) + k * int(s.split("/")[1]),
                          int(s.split("/")[1]), 11))
            for s in ROW_1
        ]
        check(failures, rows[k] == expect, f"row {k + 1} = row 1 + {k}")
    pairing = pair_boundary(walk)
    check(failures, len(pairing.pairs) == 99, "99 orientable pairs")
    labels = walk.labels()
    p0 = pairing.partner(0)
    check(
        failures,
        labels[0] == "1/5"
        and labels[p0] == "1/4"
        and labels[(p0 + 1) % 198] == "1/5"
        and 4 * 18 <= p0 < 5 * 18,
        "(row 1: 1/5->1/4) pairs with (row 5: 1/4->1/5)",
    )
    p1 = pairing.partner(1)
    check(
        failures,
        labels[1] == "1/4"
        and labels[p1] == "1/3"
        and labels[(p1 + 1) % 198] == "1/4"
        and 7 * 18 <= p1 < 8 * 18,
        "(row 1: 1/4->1/3) pairs with (row 8: 1/3->1/4)",
    )
    g = quotient_genus(walk, pairing)
    check(failures, g == 26, f"quotient genus is {g}, want 26")
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 30.0, f"pipeline took {elapsed:.2f}s (budget 30s)")
    finish(7, "level-11 pipeline", failures)


def random_group_elements(n, count, seed):
    rng = random.Random(seed)
    t, s = ModMatrix.translation(n), ModMatrix.edge_reversal(n)
    out = []
    for _ in range(count):
        g = ModMatrix.identity(n)
        for _ in range(rng.randrange(5, 25)):
            g = g * (t if rng.random() < 0.6 else s)
        out.append(g)
    return out


def test_criterion_8_property_suite():
    failures = []
    for n in (5, 7):
        vs = get_map(n).vertices
        sym = all(
            is_adjacent(f, g) == is_adjacent(g, f) for f in vs for g in vs if f != g
        )
        check(failures, sym, f"adjacency symmetry at {n}")
    for n in (7, 11):
        m = get_map(n)
        pairs = [
            (m.vertices[i], m.vertices[j])
            for i in range(m.vertex_count)
            for j in range(i + 1, m.vertex_count)
        ]
        for g in random_group_elements(n, 50, seed=n * 1000 + 9):
            ok = all(
                is_adjacent(mobius_mod(g, f), mobius_mod(g, h)) == is_adjacent(f, h)
                for f, h in pairs
            )
            check(failures, ok, f"automorphism invariance at {n} for {g}")
            if not ok:
                break
    for n in (5, 7):
        m = get_map(n)
        check(
            failures,
            same_combinatorics(m, from_json(to_json(m))),
            f"JSON round trip at {n}",
        )
    svg = render_map(get_map(7))
    check(failures, svg == render_map(build_map(7)), "deterministic SVG bytes")
    check(failures, ET.fromstring(svg).tag.endswith("svg"), "well-formed SVG")
    finish(8, "property suite", failures)
