"""Exact arithmetic: Farey fractions mod n, matrices over Z_n and Z, Mobius maps.

A vertex of the level-n Farey map is a pair (a, c) of residues mod n with
gcd(a, c, n) = 1, identified with its negation (-a, -c).  The canonical
representative keeps the denominator in [0, n//2]: a pair with 1 <= c <= n//2
is stored as is (numerator in [0, n)), a pole a/0 keeps its numerator in
[1, n//2], and for even n the self-negating denominator n/2 takes the smaller
of the two numerators (at n = 2 the vertex 1/1 is its own negative, and
keeps its label).  This convention reproduces printed coordinates such
as 6/4 or 2/0 at level 11 verbatim.

All types here are immutable; values can be shared freely between threads.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat
from math import gcd

import numpy as np

from .errors import (
    BrokenInvariant, LevelMismatch, MalformedLabel, NotAVertex, NotUnimodular, Unsupported,
)


def distinct_prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; n is prime iff this is [n]."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def as_integer(value, what: str) -> int:
    """value as a Python int by operator.index (numpy ints pass), else Unsupported."""
    try:
        return operator.index(value)
    except TypeError:
        raise Unsupported(f"{what}, got {value!r}") from None


def _require_ints(owner: str, *fields) -> None:
    """Unsupported unless every field is exactly an int; a bool is not one."""
    for x in fields:  # not any() over a generator, which costs 0.3 us more a call
        if type(x) is not int:
            raise Unsupported(f"{owner} fields must be ints, got {fields!r}")


def _split_fraction(text: str) -> tuple[int, int]:
    """Integers (a, c) of the text "a/c"; a bare integer "a" reads as a/1."""
    a, sep, c = text.partition("/")
    try:
        return int(a), int(c) if sep else 1
    except ValueError:
        raise MalformedLabel(f"{text!r} is not a fraction a/c or an integer a") from None


def _is_canonical_pair(a, c, n: int):
    """Whether the residues a/c are the canonical one of a/c and -a/-c: a
    pole 1 <= a <= n/2, or 0 < 2c < n, or 2c = n and 2a <= n (-c == c mod n,
    so the numerator breaks the tie; a = n/2 is its own negative too, and a
    vertex only at n = 2, the label 1/1).  Ints give a bool, arrays a mask."""
    return ((c == 0) & (1 <= a) & (2 * a <= n)
            | (c > 0) & ((2 * c < n) | (2 * c == n) & (2 * a <= n)))


@dataclass(frozen=True, slots=True)
class FareyFraction:
    """Canonical vertex label a/c of the level-n Farey map; slotted, no __dict__."""

    num: int
    den: int
    level: int

    def __post_init__(self):
        _require_ints("FareyFraction", self.num, self.den, self.level)
        n = self.level
        if n < 2:
            raise Unsupported(f"level must be >= 2, got {n}")
        if not (0 <= self.num < n and 0 <= self.den < n):
            raise NotAVertex(f"{self.num}/{self.den} not reduced mod {n}")
        if gcd(gcd(self.num, self.den), n) != 1:
            raise NotAVertex(f"gcd({self.num}, {self.den}, {n}) != 1: not a vertex mod {n}")
        if not _is_canonical_pair(self.num, self.den, n):
            raise NotAVertex(f"{self.num}/{self.den} is not canonical mod {n}")

    @classmethod
    def parse(cls, text: str, level: int) -> "FareyFraction":
        return canonical(*_split_fraction(text), level)

    def key(self) -> tuple[int, int]:
        """Sort key; vertices are listed poles first, as (den, num)."""
        return (self.den, self.num)

    def __lt__(self, other: "FareyFraction") -> bool:
        if not isinstance(other, FareyFraction):
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} != {other.level}")
        return self.key() < other.key()

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to {name!r} of a frozen FareyFraction")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete {name!r} of a frozen FareyFraction")


# The frozen dataclass's own __setattr__ and __delattr__ call super() on the
# class that slots=True replaced: a TypeError for a name outside the fields on
# Python 3.10-3.12.  These refuse every name; pickles, copies (the dataclass's
# __setstate__) and farey_fractions fill the slots without them.
FareyFraction.__setattr__ = _refuse_set
FareyFraction.__delattr__ = _refuse_delete


def canonical(a: int, c: int, n: int) -> FareyFraction:
    """The canonical Farey fraction equal to a/c mod n.

    Raises NotAVertex (from the FareyFraction check) when
    gcd(a mod n, c mod n, n) != 1, and Unsupported unless a, c and n are
    integers.  The level is checked first, since reducing mod n needs n >= 2.
    """
    what = "canonical needs integers"
    a, c, n = as_integer(a, what), as_integer(c, what), as_integer(n, what)
    if n < 2:
        raise Unsupported(f"level must be >= 2, got {n}")
    a %= n
    c %= n
    if not _is_canonical_pair(a, c, n):
        a, c = (-a) % n, (-c) % n
    return FareyFraction(a, c, n)


def farey_fractions(nums, dens, n: int) -> list[FareyFraction]:
    """The FareyFractions nums[i]/dens[i] at level n, for int sequences of
    canonical pairs, in order.

    The checks of FareyFraction run once, on the arrays: ints only (else
    Unsupported), each pair reduced mod n, gcd(a, c, n) = 1 and canonical.
    The first pair that fails is built as FareyFraction(a, c, n), which
    raises its error.  Then map drives object.__new__ and the slot
    descriptors' __set__, so no bytecode runs per fraction; no other code
    skips the constructor.
    """
    n = as_integer(n, "farey_fractions needs an integer level")
    if n < 2:
        raise Unsupported(f"level must be >= 2, got {n}")
    a, c = np.asarray(nums), np.asarray(dens)
    if a.dtype.kind not in "iu" and a.size or c.dtype.kind not in "iu" and c.size:
        raise Unsupported(f"farey_fractions needs integer arrays, got {a.dtype} and {c.dtype}")
    a, c = a.astype(np.int64), c.astype(np.int64)
    ok = (0 <= a) & (a < n) & (0 <= c) & (c < n) & (np.gcd(np.gcd(a, c), n) == 1)
    ok &= _is_canonical_pair(a, c, n)
    if not ok.all():
        i = int(np.argmin(ok))
        FareyFraction(int(a[i]), int(c[i]), n)
        raise BrokenInvariant(f"{a[i]}/{c[i]} passes FareyFraction but not its array check")
    out = list(map(object.__new__, repeat(FareyFraction, a.shape[0])))
    for field, values in ((FareyFraction.num, a.tolist()), (FareyFraction.den, c.tolist()),
                          (FareyFraction.level, repeat(n))):
        deque(map(field.__set__, out, values), maxlen=0)
    return out


def vertex_columns(n: int) -> np.ndarray:
    """The canonical vertex pairs at level n as a 2 x V int32 array: row 0
    the numerators, row 1 the denominators, columns in (den, num) order.

    Row c of an (n//2 + 1) x n grid holds the candidates a/c.  The canonical
    pairs read off the row structure: the poles a/0 with 1 <= a <= n/2,
    every numerator for 0 < 2c < n and, for even n, the numerators 2a <= n
    at c = n/2.  One gcd mask keeps the pairs with gcd(a, c, n) = 1.
    """
    half = n // 2
    a = np.arange(n, dtype=np.int32)
    keep = np.gcd(np.gcd(a, n), a[:half + 1, None]) == 1
    keep[0, half + 1:] = False
    if n % 2 == 0:
        keep[half, half + 1:] = False
    return np.array(np.nonzero(keep)[::-1], dtype=np.int32)


def seed_translates(nums, dens, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n translates of a seed of pairs a/c under T: t -> t + 1, as two
    int columns.

    Slot k*s + i, for k = 0..n-1 and a seed of s pairs, is seed pair i moved
    by T^k: ((a + k c) mod n, c), one broadcast over k and the seed.  A seed
    pair with c = 0 or 0 < 2c < n stays canonical; nothing is checked.
    """
    a, c = np.asarray(nums), np.asarray(dens)
    return ((a + np.arange(n)[:, None] * c) % n).ravel(), np.tile(c, n)


def is_adjacent(f: FareyFraction, g: FareyFraction) -> bool:
    """True when f and g are joined by an edge: cross-determinant = +-1 mod n.

    The determinant is only defined up to sign, which +-1 absorbs, so any
    choice of sign representatives gives the same answer.
    """
    if f.level != g.level:
        raise LevelMismatch(f"levels {f.level} != {g.level}")
    n = f.level
    det = (f.num * g.den - g.num * f.den) % n
    return det == 1 % n or det == (-1) % n


@dataclass(frozen=True)
class ModMatrix:
    """An element of PSL(2, Z_n): residue matrix with det = 1, mod +-identity.

    The stored representative is the lexicographically smaller of the entry
    tuples (a, b, c, d) and (-a, -b, -c, -d) mod n.
    """

    a: int
    b: int
    c: int
    d: int
    level: int

    def __post_init__(self):
        _require_ints("ModMatrix", self.a, self.b, self.c, self.d, self.level)
        n = self.level
        if n < 2:
            raise Unsupported(f"level must be >= 2, got {n}")
        t = (self.a, self.b, self.c, self.d)
        if not all(0 <= x < n for x in t):
            raise BrokenInvariant(f"entries of {t} not reduced mod {n}")
        if (self.a * self.d - self.b * self.c) % n != 1 % n:
            raise BrokenInvariant(f"det of {t} is not 1 mod {n}")
        neg = tuple((-x) % n for x in t)
        if neg < t:
            raise BrokenInvariant(f"{t} is not the canonical sign representative")

    @classmethod
    def of(cls, a: int, b: int, c: int, d: int, n: int) -> "ModMatrix":
        t = (a % n, b % n, c % n, d % n)
        neg = tuple((-x) % n for x in t)
        return cls(*min(t, neg), n)

    @classmethod
    def identity(cls, n: int) -> "ModMatrix":
        return cls.of(1, 0, 0, 1, n)

    @classmethod
    def translation(cls, n: int) -> "ModMatrix":
        """T = (1 1; 0 1), the map t -> t + 1."""
        return cls.of(1, 1, 0, 1, n)

    @classmethod
    def edge_reversal(cls, n: int) -> "ModMatrix":
        """S = (0 -1; 1 0), the map t -> -1/t."""
        return cls.of(0, -1, 1, 0, n)

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} != {other.level}")
        p = IntMatrix(self.a, self.b, self.c, self.d) * IntMatrix(
            other.a, other.b, other.c, other.d)
        return ModMatrix.of(p.a, p.b, p.c, p.d, self.level)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def mobius_mod(m: ModMatrix, f: FareyFraction) -> FareyFraction:
    """Action of m on a vertex: a/c -> (m.a*a + m.b*c)/(m.c*a + m.d*c)."""
    if m.level != f.level:
        raise LevelMismatch(f"levels {m.level} != {f.level}")
    return canonical(m.a * f.num + m.b * f.den, m.c * f.num + m.d * f.den, m.level)


@dataclass(frozen=True)
class IntMatrix:
    """2x2 integer matrix; exact, arbitrary precision."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        _require_ints("IntMatrix", self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "IntMatrix":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def mod(self, n: int) -> ModMatrix:
        if self.det() % n != 1 % n:
            raise NotUnimodular(f"det {self.det()} is not 1 mod {n}")
        return ModMatrix.of(self.a, self.b, self.c, self.d, n)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


@dataclass(frozen=True)
class ExtRational:
    """Extended rational: num/den in lowest terms, den >= 0, with 1/0 = infinity."""

    num: int
    den: int

    def __post_init__(self):
        _require_ints("ExtRational", self.num, self.den)
        if self.num == 0 and self.den == 0:
            raise MalformedLabel("0/0 is not an extended rational")
        g = gcd(self.num, self.den)
        if g != 1 or self.den < 0 or (self.den == 0 and self.num != 1):
            raise BrokenInvariant(f"{self.num}/{self.den} is not normalized")

    @classmethod
    def of(cls, num: int, den: int) -> "ExtRational":
        _require_ints("ExtRational", num, den)
        if num == 0 and den == 0:
            raise MalformedLabel("0/0 is not an extended rational")
        g = gcd(num, den)
        num //= g
        den //= g
        if den < 0:
            num, den = -num, -den
        if den == 0:
            num = 1
        return cls(num, den)

    @classmethod
    def parse(cls, text: str) -> "ExtRational":
        return cls.of(*_split_fraction(text))

    @classmethod
    def infinity(cls) -> "ExtRational":
        return cls(1, 0)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def mobius_exact(m: IntMatrix, q: ExtRational) -> ExtRational:
    """Exact Mobius action of a unimodular integer matrix on Q u {infinity}."""
    if m.det() not in (1, -1):
        raise NotUnimodular(f"matrix determinant must be +-1, got {m.det()}")
    return ExtRational.of(m.a * q.num + m.b * q.den, m.c * q.num + m.d * q.den)


def in_principal_congruence(m: IntMatrix, n: int) -> bool:
    """True when m = +-identity mod n, i.e. m lies in the subgroup Gamma(n)."""
    if m.det() != 1:
        raise NotUnimodular(f"membership test needs det 1, got {m.det()}")
    t = (m.a % n, m.b % n, m.c % n, m.d % n)
    return t == (1 % n, 0, 0, 1 % n) or t == ((-1) % n, 0, 0, (-1) % n)
