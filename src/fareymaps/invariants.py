"""The per-level invariant battery: counts, Euler characteristic, the dart
permutations, the edge criterion and, at prime levels, the distance classes.

Every check runs on integer vertex ids and the map's int columns; no
FareyFraction is built for a map vertex."""

from __future__ import annotations

import numpy as np

from . import metrics
from .maps import FareyMap, build_map, genus, mu, rotated, row_blocks


def run_invariant_suite(n: int) -> list[tuple[str, bool]]:
    """The per-level invariant battery behind `verify <n>`, on a new M3(n)."""
    return check_map(build_map(n))


def check_map(m: FareyMap) -> list[tuple[str, bool]]:
    """The invariant battery on a built map: (check name, passed) in order.  At
    primes up to 13 one all-pairs BFS table is checked against the closed-form
    distance classes, and its largest entry is the diameter."""
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

    # The dart checks run over blocks of whole vertex rows, and the face check
    # over blocks of face rows, so that their temporaries have the size of a
    # block.
    alpha = m.alpha
    rotation = involution = True
    for lo, hi in row_blocks(n, m.vertex_count):
        ids = np.arange(lo * n, hi * n, dtype=alpha.dtype)
        involution &= bool((alpha.take(alpha[lo * n:hi * n]) == ids).all()
                           and not (alpha[lo * n:hi * n] == ids).any())
        # sigma, the rotation the map is built and searched with, turns each
        # vertex's row of n darts by one step: a product of n-cycles
        turned, ids = rotated(ids, n).reshape(-1, n), ids.reshape(-1, n)
        rotation &= bool((turned[:, :-1] == ids[:, 1:]).all()
                         and (turned[:, -1] == ids[:, 0]).all())
    # Each stored face row (d, e, f) must be a phi-orbit, phi = sigma o alpha
    # read off sigma's closed form, and the rows must cover every dart once
    # (mu entries, every dart marked): then phi^3 is the identity and no dart
    # is fixed, so every face orbit has size 3.
    faces = m.face_darts()
    covered = np.zeros(m.dart_count, dtype=bool)
    orbits = faces.size == m.dart_count
    for lo, hi in row_blocks(3, faces.shape[0]):
        # one intp copy serves the gather and the scatter, which would each
        # cast the int32 rows again
        rows = faces[lo:hi].astype(np.intp)
        d, e, f = rows.T
        phi_d, phi_e, phi_f = rotated(alpha.take(rows), n).T
        orbits &= bool((phi_d == e).all() and (phi_e == f).all() and (phi_f == d).all())
        covered[rows.ravel()] = True
    orbits &= bool(covered.all())
    results.append(("alpha is a fixed-point-free involution", involution))
    results.append(("sigma has order n", rotation))
    results.append(("face orbits all have size 3", orbits))

    nums, dens = m.vertex_columns()
    if n <= 13:
        # V x V: entry (i, j) is the cross-determinant of vertices i and j
        det = (nums[:, None] * dens - nums * dens[:, None]) % n
        adjacent = np.zeros(det.shape, dtype=bool)
        src, tgt = m.edge_columns().T
        adjacent[src, tgt] = adjacent[tgt, src] = True
        results.append(("edge set matches the determinant criterion",
                        np.array_equal(adjacent, (det == 1) | (det == n - 1))))

    if metrics.is_prime_level(n):
        if n <= 13:
            dist = metrics.bfs_distances(m, np.arange(m.vertex_count))
            formula = metrics.distance_classes(nums[:, None], dens[:, None], nums, dens, n)
            np.fill_diagonal(formula, 0)
            results.append(("distance formula matches BFS on all pairs",
                            np.array_equal(dist, formula)))
            results.append(("diameter is 3", int(dist.max()) == 3))
        north, ring, walk, poles = metrics.decomposition_ids(m)
        seen = np.zeros(m.vertex_count, dtype=bool)
        seen[walk] = True
        support = np.flatnonzero(seen)
        results.append(("second circuit has length p(p-4)", walk.shape[0] == n * (n - 4)))
        # Each walk vertex is checked once, not once per visit; 1/0 is (1, 0).
        results.append(
            (
                "second circuit stays at distance 2",
                bool(np.all(metrics.distance_classes(1, 0, nums[support], dens[support], n) == 2)),
            )
        )
        # 1/0, the ring k/1, the walk and the poles a/0 other than 1/0 each
        # cover every vertex exactly once.
        ids = np.concatenate((north, ring, support, poles))
        results.append(
            ("distance classes partition the vertex set",
             bool(np.all(np.bincount(ids, minlength=m.vertex_count) == 1)))
        )
    return results
