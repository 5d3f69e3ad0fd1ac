import copy
import dataclasses
import pickle
import random
import re
from datetime import timedelta
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareymaps.arith import (
    ExtRational,
    FareyFraction,
    IntMatrix,
    ModMatrix,
    _is_canonical_pair,
    canonical,
    distinct_prime_factors,
    farey_fractions,
    in_principal_congruence,
    is_adjacent,
    mobius_exact,
    mobius_mod,
    seed_translates,
    vertex_columns,
)
from fareymaps.errors import (
    BrokenInvariant,
    FareyMapError,
    LevelMismatch,
    MalformedLabel,
    NotAVertex,
    NotUnimodular,
    Unsupported,
)
from fareymaps.maps import build_map, genus
from fareymaps.metrics import Circuit, decompose, distance_formula, is_prime_level


def brute_canonical(a, c, n):
    """Independent oracle: pick the representative of {(a,c), (-a,-c)} mod n
    with denominator in [0, n//2], numerator rule for poles and the even-n tie."""
    a %= n
    c %= n
    candidates = [(a, c), ((-a) % n, (-c) % n)]
    picked = []
    for x, y in candidates:
        if y == 0 and 1 <= x <= n // 2:
            picked.append((x, y))
        elif 1 <= y < n / 2:
            picked.append((x, y))
        elif n % 2 == 0 and y == n // 2 and x < n - x:
            picked.append((x, y))
    assert len(set(picked)) == 1, (a, c, n, picked)
    return picked[0]


def all_vertices(n):
    out = []
    for a in range(n):
        for c in range(n):
            if gcd(gcd(a, c), n) == 1:
                out.append(canonical(a, c, n))
    return sorted(set(out))


def test_canonical_examples():
    assert str(canonical(8, 3, 7)) == "1/3"
    assert str(canonical(3, 5, 7)) == "4/2"
    assert str(canonical(6, 4, 11)) == "6/4"
    assert str(canonical(9, 0, 11)) == "2/0"


def test_canonical_reads_its_arguments_as_indices():
    want = canonical(1, 2, 7)
    for args in ((1, 2, np.int64(7)), (np.int64(1), 2, 7), (1, np.int32(2), 7)):
        f = canonical(*args)
        assert f == want
        assert [type(x) for x in (f.num, f.den, f.level)] == [int, int, int], args
    for args in ((1, 2, 7.0), (1.0, 2, 7), (1, "2", 7), (1, 2, None)):
        with pytest.raises(Unsupported, match="canonical needs integers"):
            canonical(*args)


def test_canonical_matches_brute_oracle():
    for n in (5, 6, 7, 8, 11):
        for a in range(n):
            for c in range(n):
                if gcd(gcd(a, c), n) != 1:
                    with pytest.raises(NotAVertex):
                        canonical(a, c, n)
                    continue
                f = canonical(a, c, n)
                assert (f.num, f.den) == brute_canonical(a, c, n)


def test_canonical_idempotent_and_orbit_constant():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([5, 6, 7, 9, 11, 12])
        a, c = rng.randrange(5 * n), rng.randrange(5 * n)
        if gcd(gcd(a, c), n) != 1:
            continue
        f = canonical(a, c, n)
        assert canonical(f.num, f.den, n) == f
        assert canonical(-a, -c, n) == f
        assert canonical(a + 3 * n, c - 2 * n, n) == f


def outcome(f, *args):
    """f(*args), or the class of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def test_translated_equals_canonical_of_shifted_numerator():
    # the map's translation table skips canonical's sign search; applied k
    # times it must send every vertex a/c at n = 3..40 to canonical's
    # (a + k c)/c, and its n-th power is the identity
    for n in range(3, 41):
        m = build_map(n)
        shift = m.vertex_translation()
        image = np.arange(m.vertex_count)
        for k in range(n):
            want = [m.vertex_id(canonical(v.num + k * v.den, v.den, n)) for v in m.vertices]
            assert image.tolist() == want, (n, k)
            image = shift[image]
        assert image.tolist() == list(range(m.vertex_count)), n


def test_not_a_vertex():
    with pytest.raises(NotAVertex):
        canonical(0, 7, 7)
    with pytest.raises(NotAVertex):
        canonical(2, 4, 6)
    with pytest.raises(NotAVertex):
        FareyFraction(3, 5, 7)  # non-canonical fields rejected


def test_level_two_has_three_vertices():
    # PSL(2, Z_2) has order 6, so M3(2) would have 6 / 2 = 3 vertices; 1/1 is
    # its own negative mod 2 and keeps its label.
    assert vertex_columns(2).tolist() == [[1, 0, 1], [0, 1, 1]]
    one = canonical(1, 1, 2)
    assert (one.num, one.den) == (1, 1) and str(one) == "1/1"
    assert FareyFraction.parse(str(one), 2) == one == canonical(-1, -1, 2)


def test_parse_and_str_roundtrip():
    for n in (7, 11):
        for f in all_vertices(n):
            assert FareyFraction.parse(str(f), n) == f


def test_parse_bare_integer_reads_as_over_one():
    assert FareyFraction.parse("3", 7) == canonical(3, 1, 7)
    assert FareyFraction.parse("-1", 7) == canonical(6, 1, 7)
    assert ExtRational.parse("3") == ExtRational(3, 1)


@pytest.mark.parametrize("text", ["x/1", "1/", "1/0/2", "", "/", "1/x", "1.5"])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(MalformedLabel):
        FareyFraction.parse(text, 7)
    with pytest.raises(MalformedLabel):
        ExtRational.parse(text)


INTEGERS = st.integers(min_value=-10**9, max_value=10**9)


@settings(max_examples=400, deadline=timedelta(seconds=1))
@given(n=st.integers(min_value=2, max_value=101), a=INTEGERS, c=INTEGERS,
       shape=st.sampled_from(["", "/", "x/{c}", "{a}/", "{a}/{c}/{a}"]))
def test_parse_canonical_str_round_trip(n, a, c, shape):
    f = outcome(canonical, a, c, n)
    assert outcome(FareyFraction.parse, f"{a}/{c}", n) == f
    if isinstance(f, FareyFraction):
        assert FareyFraction.parse(str(f), n) == f
    assert outcome(FareyFraction.parse, str(a), n) == outcome(canonical, a, 1, n)
    with pytest.raises(MalformedLabel):
        FareyFraction.parse(shape.format(a=a, c=c), n)


def test_distinct_prime_factors():
    for n in range(1, 200):
        brute = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        assert distinct_prime_factors(n) == brute


def test_vertex_pairs_are_the_sorted_vertices():
    for n in range(2, 16):
        nums, dens = vertex_columns(n).tolist()
        assert [canonical(a, c, n) for a, c in zip(nums, dens)] == all_vertices(n)


def test_is_adjacent_examples():
    n7 = lambda s: FareyFraction.parse(s, 7)
    assert is_adjacent(n7("1/0"), n7("3/1"))
    assert not is_adjacent(n7("1/0"), n7("2/0"))
    assert is_adjacent(n7("1/3"), n7("5/2"))


def test_is_adjacent_symmetric_exhaustive():
    for n in (5, 7):
        vs = all_vertices(n)
        for f in vs:
            for g in vs:
                assert is_adjacent(f, g) == is_adjacent(g, f)


def test_level_mismatch():
    with pytest.raises(LevelMismatch):
        is_adjacent(canonical(1, 0, 5), canonical(1, 0, 7))
    with pytest.raises(LevelMismatch):
        mobius_mod(ModMatrix.identity(5), canonical(1, 0, 7))


def all_group_elements(n):
    out = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1:
                        out.add(ModMatrix.of(a, b, c, d, n))
    return sorted(out, key=lambda m: (m.a, m.b, m.c, m.d))


def test_mobius_mod_examples():
    t7 = ModMatrix.translation(7)
    assert str(mobius_mod(t7, canonical(1, 0, 7))) == "1/0"
    assert str(mobius_mod(t7, canonical(6, 3, 7))) == "2/3"
    f = canonical(4, 2, 7)
    assert mobius_mod(ModMatrix.identity(7), f) == f


def test_mobius_mod_bijective_and_preserves_adjacency():
    for n in (5, 7):
        vs = all_vertices(n)
        pairs = [(f, g) for f in vs for g in vs if f < g]
        for m in all_group_elements(n):
            image = [mobius_mod(m, v) for v in vs]
            assert len(set(image)) == len(vs)
            for f, g in pairs:
                assert is_adjacent(mobius_mod(m, f), mobius_mod(m, g)) == is_adjacent(f, g)


KLEIN_MATRIX = IntMatrix(113, -35, 42, -13)


def test_mobius_exact_examples():
    assert str(mobius_exact(KLEIN_MATRIX, ExtRational.of(1, 3))) == "8/3"
    assert str(mobius_exact(KLEIN_MATRIX, ExtRational.of(2, 7))) == "19/7"
    assert str(mobius_exact(IntMatrix.identity(), ExtRational.of(5, 3))) == "5/3"


def test_mobius_exact_infinity_handling():
    inf = ExtRational.infinity()
    t = IntMatrix(1, 1, 0, 1)
    assert mobius_exact(t, inf) == inf
    s = IntMatrix(0, -1, 1, 0)
    assert mobius_exact(s, inf) == ExtRational.of(0, 1)
    assert mobius_exact(s, ExtRational.of(0, 1)) == inf


def random_unimodular(rng, length=12):
    s = IntMatrix(0, -1, 1, 0)
    m = IntMatrix.identity()
    for _ in range(length):
        if rng.random() < 0.5:
            m = m * s
        else:
            m = m * IntMatrix(1, rng.choice([-2, -1, 1, 2]), 0, 1)
    return m


def test_mobius_exact_respects_composition():
    rng = random.Random(20260810)
    for _ in range(100):
        m1 = random_unimodular(rng)
        m2 = random_unimodular(rng)
        q = ExtRational.of(rng.randrange(-9, 10), rng.randrange(-9, 10) or 1)
        assert mobius_exact(m1 * m2, q) == mobius_exact(m1, mobius_exact(m2, q))


def test_reduction_compatibility():
    rng = random.Random(99)
    for n in (5, 7, 11):
        for _ in range(60):
            m = random_unimodular(rng)
            if m.det() != 1:
                m = m * IntMatrix(0, -1, 1, 0) * IntMatrix(0, -1, 1, 0)  # -I keeps det
            if m.det() != 1:
                continue
            a, c = rng.randrange(-20, 21), rng.randrange(-20, 21)
            if gcd(gcd(a, c), n) != 1 or (a == 0 and c == 0):
                continue
            g = gcd(a, c)
            a, c = a // g, c // g
            exact = mobius_exact(m, ExtRational.of(a, c))
            assert canonical(exact.num, exact.den, n) == mobius_mod(m.mod(n), canonical(a, c, n))


def test_in_principal_congruence():
    assert in_principal_congruence(KLEIN_MATRIX, 7)
    assert not in_principal_congruence(IntMatrix(1, 1, 0, 1), 7)
    for n in (2, 5, 7, 12):
        assert in_principal_congruence(IntMatrix.identity(), n)
    # -I is in every Gamma(n) projectively
    assert in_principal_congruence(IntMatrix(-1, 0, 0, -1), 7)


def test_mod_matrix_projective_identification():
    m = ModMatrix.of(1, 1, 0, 1, 7)
    assert ModMatrix.of(-1, -1, 0, -1, 7) == m
    s = ModMatrix.edge_reversal(7)
    assert s * s == ModMatrix.identity(7)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: ExtRational.parse("0/0"), MalformedLabel),
        (lambda: ExtRational.of(0, 0), MalformedLabel),
        (lambda: ExtRational(0, 0), MalformedLabel),
        (lambda: ExtRational(2, 4), BrokenInvariant),
        (lambda: ModMatrix(7, 0, 0, 1, 7), BrokenInvariant),
        (lambda: ModMatrix(2, 0, 0, 1, 7), BrokenInvariant),
        (lambda: ModMatrix(6, 0, 0, 6, 7), BrokenInvariant),
        (lambda: IntMatrix(2, 0, 0, 1).mod(7), NotUnimodular),
        (lambda: mobius_exact(IntMatrix(2, 0, 0, 1), ExtRational.of(1, 1)), NotUnimodular),
        (lambda: in_principal_congruence(IntMatrix(0, 1, 1, 0), 7), NotUnimodular),
        (lambda: Circuit((canonical(1, 0, 7), canonical(0, 2, 7)), 7), BrokenInvariant),
        (lambda: decompose(7.0), Unsupported),
        (lambda: decompose("7"), Unsupported),
        (lambda: is_prime_level(7.0), Unsupported),
        (lambda: distance_formula(canonical(1, 0, 7), canonical(2, 0, 7), 7.0), Unsupported),
    ],
    ids=[
        "ext-parse-0/0", "ext-of-0/0", "ext-0/0", "ext-unnormalised", "mod-unreduced",
        "mod-det", "mod-sign", "int-mod-det", "mobius-exact-det", "gamma-det", "circuit-slot",
        "decompose-float-level", "decompose-str-level", "prime-float-level",
        "distance-float-level",
    ],
)
def test_errors_are_in_the_package_hierarchy(make, error):
    with pytest.raises(FareyMapError) as info:
        make()
    assert type(info.value) is error
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ModMatrix.identity(7) * ModMatrix.identity(11), LevelMismatch, "levels 7 != 11"),
        (lambda: genus(2), Unsupported, r"genus\(n\) needs n >= 3, got 2"),
        (lambda: FareyFraction(0, 1, 1), Unsupported, "level must be >= 2, got 1"),
        (lambda: canonical(1, 0, 1), Unsupported, "level must be >= 2, got 1"),
        (lambda: ModMatrix(1, 0, 0, 1, 1), Unsupported, "level must be >= 2, got 1"),
    ],
    ids=["mod-product-levels", "genus-level-2", "fraction-level-1", "canonical-level-1",
         "mod-level-1"],
)
def test_level_guards_raise_package_errors(make, error, message):
    # the level checks that no other test reaches: each raises its own
    # FareyMapError before a later step could fail on the level
    with pytest.raises(FareyMapError, match=message) as info:
        make()
    assert type(info.value) is error


def test_seed_translates_are_the_translated_pairs():
    # slot k*s + i is seed pair i under t -> t + k; a pole stays where it is
    seed = [(2, 0), (1, 3), (5, 2), (0, 1)]
    for n in (5, 7, 12):
        nums, dens = seed_translates(*zip(*seed), n)
        assert nums.tolist() == [(a + k * c) % n for k in range(n) for a, c in seed]
        assert dens.tolist() == [c for _, c in seed] * n
    nums, dens = seed_translates([], [], 7)
    assert nums.shape == dens.shape == (0,)


def test_farey_fractions_check_as_farey_fraction_does():
    # one pair at a time, over every pair near the residues: the same
    # fraction, or the same error, as FareyFraction(a, c, n); the one
    # canonical-pair rule gives a bool on ints and the same values as a mask
    for n in range(2, 30):
        scalar = [[_is_canonical_pair(a, c, n) for c in range(n)] for a in range(n)]
        assert all(type(ok) is bool for row in scalar for ok in row)
        assert _is_canonical_pair(*np.indices((n, n)), n).tolist() == scalar
        for a in range(-1, n + 1):
            for c in range(-1, n + 1):
                try:
                    want = FareyFraction(a, c, n)
                except FareyMapError as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        farey_fractions([a], [c], n)
                    continue
                (got,) = farey_fractions(np.array([a]), np.array([c]), n)
                assert type(got) is FareyFraction
                assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
    with pytest.raises(Unsupported):
        farey_fractions([], [], 1)


@pytest.mark.parametrize("nums, dens", [
    ([1.5], [0]), (["1"], [0]), ([1], [0.0]), ([True], [0]), ([1], [False]),
])
def test_farey_fractions_read_only_integer_arrays(nums, dens):
    # floats, strings and bools are refused, as FareyFraction refuses them
    # as fields, and not read as the ints they convert to
    with pytest.raises(Unsupported):
        FareyFraction(nums[0], dens[0], 7)
    with pytest.raises(Unsupported, match="integer arrays"):
        farey_fractions(nums, dens, 7)
    assert farey_fractions([], [], 7) == []  # an empty list reads as float64


@pytest.mark.parametrize("make, fields", [
    (FareyFraction, (True, 0, 7)),
    (FareyFraction, (1, 0, 7.0)),
    (FareyFraction, (np.int64(1), 0, 7)),
    (ModMatrix, (1, 0, 0, 1, 7.0)),
    (ModMatrix.of, (1, 0, 0, 1, 7.5)),
    (IntMatrix, (1, 0, 0, 1.5)),
    (IntMatrix, ("1", 0, 0, 1)),
    (ExtRational, (1.0, 2)),
    (ExtRational, (1, True)),
    (ExtRational.of, (1.0, 2)),
])
def test_value_types_refuse_fields_that_are_not_ints(make, fields):
    # a field that is not exactly an int is refused, not converted; the
    # same values as ints build
    with pytest.raises(Unsupported, match="fields must be ints"):
        make(*fields)
    make(*map(int, fields))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 31, 60])
def test_farey_fractions_build_the_vertex_list(n):
    nums, dens = map(tuple, vertex_columns(n).tolist())
    assert farey_fractions(nums, dens, n) == [FareyFraction(a, c, n) for a, c in zip(nums, dens)]
    # the first bad pair raises, wherever it sits
    with pytest.raises(NotAVertex, match=f"{n}/1 not reduced mod {n}"):
        farey_fractions(nums + (n, 0), dens + (1, 0), n)
    assert farey_fractions([], [], n) == []


@pytest.mark.parametrize("n", [2, 7, 12, 101])
def test_farey_fraction_is_slotted_frozen_and_round_trips(n):
    # the unchecked builder's fractions are the constructor's: equal, equally
    # hashed, without a __dict__, frozen, and equal after a pickle or a copy
    nums, dens = vertex_columns(n).tolist()
    built = farey_fractions(nums, dens, n)
    for got, a, c in zip(built, nums, dens):
        want = FareyFraction(a, c, n)
        assert got == want and hash(got) == hash(want) and not hasattr(got, "__dict__")
        copies = [pickle.loads(pickle.dumps(got, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.deepcopy(got), copy.copy(got)]:
            assert type(twin) is FareyFraction
            assert (twin, hash(twin), repr(twin)) == (want, hash(want), repr(want))
    last = (nums[-1], dens[-1], n)
    for fraction in (built[-1], FareyFraction(*last)):
        assert (fraction.num, fraction.den, fraction.level) == last
        for name in ("num", "den", "level"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fraction, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fraction.num
        # a new name fails alike, set or deleted
        with pytest.raises(dataclasses.FrozenInstanceError):
            fraction.other = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fraction.other
        assert not hasattr(fraction, "other")


def test_farey_fraction_orders_only_against_fractions():
    f = FareyFraction(1, 0, 7)
    for other in (3, 1.5, "1/0", None, (1, 0, 7)):
        with pytest.raises(TypeError):
            f < other
        with pytest.raises(TypeError):
            other > f
        with pytest.raises(TypeError):
            sorted([f, other])
    with pytest.raises(LevelMismatch, match="levels 7 != 11"):
        f < FareyFraction(1, 0, 11)
    assert FareyFraction(3, 0, 7) < FareyFraction(0, 1, 7) and not f < f
