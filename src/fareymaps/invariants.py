"""The per-level invariant battery: counts, Euler characteristic, the dart
permutations, the edge criterion and, at prime levels, the distance classes."""

from __future__ import annotations

import numpy as np

from . import metrics
from .arith import canonical, is_adjacent
from .maps import FareyMap, build_map, genus, mu


def run_invariant_suite(n: int) -> list[tuple[str, bool]]:
    """The per-level invariant battery behind `verify <n>`, on a new M3(n)."""
    return check_map(build_map(n))


def check_map(m: FareyMap) -> list[tuple[str, bool]]:
    """The invariant battery on a built map: (check name, passed) in order."""
    n = m.level
    results = []
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

    idx = np.arange(m.dart_count, dtype=m.alpha.dtype)
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

    if metrics.is_prime_level(n):
        if n <= 13:
            results.append(("distance formula matches BFS on all pairs", _formula_matches_bfs(m)))
            results.append(("diameter is 3", metrics.diameter(m) == 3))
        north = canonical(1, 0, n)
        parts = metrics.decompose(n)
        walk = parts.sphere2
        support = walk.support()
        results.append(("second circuit has length p(p-4)", len(walk) == n * (n - 4)))
        # Each walk vertex is checked once, not once per visit.
        results.append(
            (
                "second circuit stays at distance 2",
                all(metrics.distance_formula(north, v, n) == 2 for v in support),
            )
        )
        union = {parts.north} | set(parts.sphere1.vertices) | support | set(parts.poles)
        sizes = 1 + len(parts.sphere1) + len(support) + len(parts.poles)
        results.append(
            ("distance classes partition the vertex set",
             union == set(m.vertices) and sizes == m.vertex_count)
        )
    return results


def _formula_matches_bfs(m: FareyMap) -> bool:
    """The closed-form distance against the BFS distance on every vertex
    pair, with one BFS from each source vertex."""
    n = m.level
    vs = m.vertices
    for i, f in enumerate(vs):
        dist = metrics.distances_from(m, i)
        if any(metrics.distance_formula(f, vs[j], n) != dist[j] for j in range(i + 1, len(vs))):
            return False
    return True
