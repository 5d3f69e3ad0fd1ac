"""The `verify` battery: which checks run at which level, that it agrees
with the object-based battery it replaced, and that the closed-form checks
can fail."""

import numpy as np
import pytest

from fareymaps import invariants, maps, metrics
from fareymaps.arith import canonical, is_adjacent
from fareymaps.errors import BrokenInvariant
from fareymaps.invariants import check_map, run_invariant_suite
from fareymaps.maps import build_map, genus, mu

# The check names, in battery order, grouped by the levels they run at.
EVERY_LEVEL = [
    "counts V=mu/n E=mu/2 F=mu/3",
    "euler characteristic = 2 - 2g",
    "alpha is a fixed-point-free involution",
    "sigma has order n",
    "face orbits all have size 3",
]
UP_TO_13 = ["edge set matches the determinant criterion"]
PRIMES_UP_TO_13 = ["distance formula matches BFS on all pairs", "diameter is 3"]
PRIMES = [
    "second circuit has length p(p-4)",
    "second circuit stays at distance 2",
    "distance classes partition the vertex set",
]
PRIME_LEVELS = {5, 7, 11, 13, 17, 19, 23, 29, 31, 53, 101}
LEVELS = [*range(3, 32), 53, 64, 101]


def expected_names(n):
    return (
        EVERY_LEVEL
        + (UP_TO_13 if n <= 13 else [])
        + (PRIMES_UP_TO_13 if n in PRIME_LEVELS and n <= 13 else [])
        + (PRIMES if n in PRIME_LEVELS else [])
    )


@pytest.mark.parametrize("n", LEVELS)
def test_battery_names_in_order_and_all_ok(n):
    results = run_invariant_suite(n)
    assert [name for name, _ in results] == expected_names(n)
    assert all(ok for _, ok in results), [name for name, ok in results if not ok]


@pytest.mark.parametrize("n", LEVELS)
def test_check_map_agrees_with_the_suite(n):
    assert check_map(build_map(n)) == run_invariant_suite(n)


def reference_check_map(m):
    """The battery as it was on FareyFraction objects: is_adjacent on every
    vertex pair, distance_formula per pair and per walk vertex, and the
    classes of metrics.decompose as sets of fractions."""
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
    # sigma by its own formula, not maps.rotated: d + 1, and the last dart
    # of each vertex row back to the row's first
    sigma = idx + 1
    sigma[n - 1::n] -= n
    step = np.roll(idx.reshape(-1, n), -1, axis=1)
    results.append(("sigma has order n", np.array_equal(sigma.reshape(-1, n), step)))
    phi = sigma[m.alpha]
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
        edges = {frozenset(e) for e in m.edge_columns().tolist()}
        oracle = {
            frozenset((i, j))
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
            if is_adjacent(vs[i], vs[j])
        }
        results.append(("edge set matches the determinant criterion", edges == oracle))

    if metrics.is_prime_level(n):
        if n <= 13:
            vs = m.vertices
            matches = all(
                metrics.distance_formula(f, vs[j], n) == metrics.bfs_distances(m, [i])[0][j]
                for i, f in enumerate(vs)
                for j in range(i + 1, len(vs))
            )
            results.append(("distance formula matches BFS on all pairs", matches))
            results.append(("diameter is 3", metrics.diameter(m) == 3))
        north = canonical(1, 0, n)
        parts = metrics.decompose(n)
        walk = parts.sphere2
        support = walk.support()
        results.append(("second circuit has length p(p-4)", len(walk) == n * (n - 4)))
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


@pytest.mark.parametrize("n", LEVELS)
def test_check_map_agrees_with_the_object_battery(n):
    got = check_map(build_map(n))
    assert got == reference_check_map(build_map(n))
    assert all(type(ok) is bool for _, ok in got)


def test_check_map_checks_the_map_it_is_given():
    m = build_map(11)
    alpha = m.alpha.copy()
    alpha[[0, 1]] = alpha[[1, 0]]  # two darts now reverse onto the wrong edges
    m.alpha = alpha
    results = dict(check_map(m))
    assert results["alpha is a fixed-point-free involution"] is False
    assert results["sigma has order n"]


@pytest.mark.parametrize("n, block", [(31, 300), (31, None), (101, None)],
                         ids=["300", "None", "101"])
def test_a_broken_alpha_in_the_last_block_fails(monkeypatch, n, block):
    # the dart checks run block by block; an entry of the last block counts
    # (one block at 31 by default, 300 darts a block, and 16 blocks at 101)
    if block is not None:
        monkeypatch.setattr(maps, "_BLOCK_DARTS", block)
    m = build_map(n)
    blocks = maps.row_blocks(n, m.vertex_count)
    assert (len(blocks) > 1) == ((n, block) != (31, None))
    assert blocks[-1][0] * n < m.dart_count - 2
    alpha = m.alpha.copy()
    alpha[-1] = alpha[-2]  # alpha is no longer a permutation, nor is phi
    m.alpha = alpha
    results = dict(check_map(m))
    assert results["alpha is a fixed-point-free involution"] is False
    assert results["face orbits all have size 3"] is False
    assert results["sigma has order n"]


@pytest.mark.parametrize("n, block", [(31, 300), (31, None), (101, None)])
@pytest.mark.parametrize("where", ["first", "last"])
def test_cross_swapped_edges_fail_only_the_orbit_check(monkeypatch, n, block, where):
    # a <-> alpha(b) and b <-> alpha(a): alpha stays a fixed-point-free
    # involution, but the faces at those edges break, so the orbit check is
    # not implied by the involution check
    if block is not None:
        monkeypatch.setattr(maps, "_BLOCK_DARTS", block)
    m = build_map(n)
    # 300 darts a block at 31, and 16 blocks at 101
    assert len(maps.row_blocks(n, m.vertex_count)) > 1 or n == 31 and block is None
    a = 0 if where == "first" else m.dart_count - 2
    b = a + 1
    alpha = m.alpha.copy()
    alpha[[a, b]] = alpha[[b, a]]
    alpha[alpha[[a, b]]] = [a, b]
    assert len({a, b, *alpha[[a, b]].tolist()}) == 4
    m.alpha = alpha
    results = dict(check_map(m))
    assert results["alpha is a fixed-point-free involution"] is True
    assert results["face orbits all have size 3"] is False
    assert results["sigma has order n"] is True


@pytest.mark.parametrize("n", [31, 101])
def test_a_rotation_that_does_not_wrap_fails(monkeypatch, n):
    # the rotation check reads the sigma the battery's face check reads,
    # maps.rotated: d + 1 with no wrap at a row's end is no product of
    # n-cycles, in any block (16 blocks at 101)
    monkeypatch.setattr(invariants, "rotated", lambda x, n: x + 1)
    results = dict(check_map(build_map(n)))
    assert results["sigma has order n"] is False
    assert results["face orbits all have size 3"] is False
    assert results["alpha is a fixed-point-free involution"] is True


def swap_within_a_row(rows):
    rows[-1, [1, 2]] = rows[-1, [2, 1]]  # the last face, traced backwards


def swap_across_rows(rows):
    rows[[0, -1], 1] = rows[[-1, 0], 1]  # the first and last faces trade a dart


def repeat_a_row(rows):
    rows[-1] = rows[-2]  # every row a phi-orbit, but the last face's darts lost


@pytest.mark.parametrize("n, block", [(31, 300), (31, None), (101, None)])
@pytest.mark.parametrize("broken", [swap_within_a_row, swap_across_rows, repeat_a_row])
def test_broken_face_rows_fail_only_the_orbit_check(monkeypatch, n, block, broken):
    # the orbit check reads the stored face rows through m.face_darts(): each
    # row must be a phi-orbit, and the rows must cover every dart once
    if block is not None:
        monkeypatch.setattr(maps, "_BLOCK_DARTS", block)
    m = build_map(n)
    rows = m.face_darts().copy()
    broken(rows)
    monkeypatch.setattr(m, "face_darts", lambda: rows)
    results = dict(check_map(m))
    assert results.pop("face orbits all have size 3") is False
    assert all(results.values()), results


def misclassifying(kernel):
    """distance_classes, except that the determinant class +-2 reads as 3."""

    def wrong(a, c, b, d, p):
        delta = (a * d - b * c) % p
        return np.where((delta == 2) | (delta == p - 2), 3, kernel(a, c, b, d, p))

    return wrong


def test_wrong_formula_fails_the_bfs_check(monkeypatch):
    monkeypatch.setattr(metrics, "distance_classes", misclassifying(metrics.distance_classes))
    results = dict(run_invariant_suite(7))
    assert results["distance formula matches BFS on all pairs"] is False
    assert results["diameter is 3"]


def test_wrong_formula_fails_the_second_circuit_check(monkeypatch):
    monkeypatch.setattr(metrics, "distance_classes", misclassifying(metrics.distance_classes))
    results = dict(run_invariant_suite(31))
    assert results["second circuit stays at distance 2"] is False
    assert results["second circuit has length p(p-4)"]
    assert results["distance classes partition the vertex set"]


def test_bfs_check_reads_the_map_it_is_given(monkeypatch):
    # the all-pairs oracle is a BFS over the map's own dart targets: sending
    # a dart of 1/0 to a neighbour of 2/0 instead must fail it
    m = build_map(7)
    targets = m.dart_targets().ravel().copy()
    targets[[0, 7]] = targets[[7, 0]]
    monkeypatch.setattr(m, "dart_targets", lambda: targets.reshape(-1, 7))
    results = dict(check_map(m))
    assert results["distance formula matches BFS on all pairs"] is False
    assert results["alpha is a fixed-point-free involution"]


@pytest.mark.parametrize("n", [5, 7, 11, 13])
def test_the_battery_searches_all_pairs_once(monkeypatch, n):
    # one all-pairs BFS table serves the distance-formula check and the
    # diameter check; no second search runs for the diameter
    calls = {"bfs_distances": 0, "diameter": 0}

    def counting(name):
        kernel = getattr(metrics, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return counted

    m = build_map(n)
    for name in calls:
        monkeypatch.setattr(invariants.metrics, name, counting(name))
    results = check_map(m)
    assert calls == {"bfs_distances": 1, "diameter": 0}
    assert [name for name, _ in results] == expected_names(n)
    assert all(ok for _, ok in results)


def test_broken_second_circuit_slot_raises(monkeypatch):
    # a slot whose cross-determinant with the next is not +-1 breaks the walk,
    # as it breaks a Circuit
    def broken_slots(p):
        nums, dens = second_circuit_slots(p)
        nums[3] = (nums[3] + 1) % p
        return nums, dens

    second_circuit_slots = metrics.second_circuit_slots
    monkeypatch.setattr(metrics, "second_circuit_slots", broken_slots)
    with pytest.raises(BrokenInvariant, match="circuit broken at slot"):
        run_invariant_suite(11)
