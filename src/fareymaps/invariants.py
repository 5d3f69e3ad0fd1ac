"""The per-level invariant battery: counts, Euler characteristic, the dart
permutations, the edge criterion and, at prime levels, the distance classes."""

from __future__ import annotations

import numpy as np

from . import metrics
from .arith import canonical, distinct_prime_factors, is_adjacent
from .maps import build_map, genus, mu


def run_invariant_suite(n: int) -> list[tuple[str, bool]]:
    """The per-level invariant battery behind `verify <n>`."""
    results = []
    m = build_map(n)
    order = mu(n)
    results.append(
        (
            "counts V=mu/n E=mu/2 F=mu/3",
            (m.vertex_count, m.edge_count, m.face_count)
            == (order // n, order // 2, order // 3),
        )
    )
    results.append(
        ("euler characteristic = 2 - 2g", m.euler_characteristic() == 2 - 2 * genus(n))
    )

    idx = np.arange(m.dart_count)
    ok = np.array_equal(m.alpha[m.alpha], idx) and not np.any(m.alpha == idx)
    results.append(("alpha is a fixed-point-free involution", ok))
    # sigma turns each vertex's block of n darts by one step: a product of n-cycles
    step = np.roll(idx.reshape(-1, n), -1, axis=1)
    results.append(("sigma has order n", np.array_equal(m.sigma.reshape(-1, n), step)))
    phi = m.sigma[m.alpha]
    results.append(
        (
            "face orbits all have size 3",
            np.array_equal(phi[phi[phi]], idx)
            and not np.any(phi == idx)
            and not np.any(phi[phi] == idx),
        )
    )

    if n <= 13:
        vs = m.vertices
        edges = {frozenset(e) for e in m.edge_id_pairs()}
        oracle = {
            frozenset((i, j))
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
            if is_adjacent(vs[i], vs[j])
        }
        results.append(("edge set matches the determinant criterion", edges == oracle))

    if n >= 5 and distinct_prime_factors(n) == [n]:
        if n <= 13:
            vs = m.vertices
            agree = all(
                metrics.distance_formula(f, g, n) == metrics.bfs_distance(m, f, g)
                for i, f in enumerate(vs)
                for g in vs[i + 1:]
            )
            results.append(("distance formula matches BFS on all pairs", agree))
            results.append(("diameter is 3", metrics.diameter(m) == 3))
        walk = metrics.second_circuit(n)
        north = canonical(1, 0, n)
        results.append(("second circuit has length p(p-4)", len(walk) == n * (n - 4)))
        results.append(
            (
                "second circuit stays at distance 2",
                all(metrics.distance_formula(north, v, n) == 2 for v in walk.vertices),
            )
        )
        parts = metrics.decompose(n)
        union = (
            {parts.north}
            | set(parts.sphere1.vertices)
            | set(parts.sphere2.support())
            | set(parts.poles)
        )
        sizes = (
            1 + len(parts.sphere1) + len(parts.sphere2.support()) + len(parts.poles)
        )
        results.append(
            ("distance classes partition the vertex set",
             union == set(m.vertices) and sizes == m.vertex_count)
        )
    return results
