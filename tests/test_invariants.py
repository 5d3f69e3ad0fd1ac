"""The `verify` battery: which checks run at which level, and that the
closed-form checks can fail."""

import pytest

from fareymaps import metrics
from fareymaps.invariants import check_map, run_invariant_suite
from fareymaps.maps import build_map

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


def test_check_map_checks_the_map_it_is_given():
    m = build_map(11)
    alpha = m.alpha.copy()
    alpha[[0, 1]] = alpha[[1, 0]]  # two darts now reverse onto the wrong edges
    m.alpha = alpha
    results = dict(check_map(m))
    assert results["alpha is a fixed-point-free involution"] is False
    assert results["sigma has order n"]


def misclassifying(formula):
    """distance_formula, except that the determinant class +-2 reads as 3."""

    def wrong(f, g, p):
        delta = (f.num * g.den - g.num * f.den) % p
        return 3 if delta in (2, p - 2) else formula(f, g, p)

    return wrong


def test_wrong_formula_fails_the_bfs_check(monkeypatch):
    monkeypatch.setattr(metrics, "distance_formula", misclassifying(metrics.distance_formula))
    results = dict(run_invariant_suite(7))
    assert results["distance formula matches BFS on all pairs"] is False
    assert results["diameter is 3"]


def test_wrong_formula_fails_the_second_circuit_check(monkeypatch):
    monkeypatch.setattr(metrics, "distance_formula", misclassifying(metrics.distance_formula))
    results = dict(run_invariant_suite(31))
    assert results["second circuit stays at distance 2"] is False
    assert results["second circuit has length p(p-4)"]
    assert results["distance classes partition the vertex set"]
