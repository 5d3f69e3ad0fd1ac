"""Graph metric, distance classification, and the two circuits around 1/0.

For prime p >= 5 the vertices of M3(p) split by distance from the north pole
N = 1/0 into N itself, a circuit of the p vertices with denominator 1, a
closed walk through all vertices with denominator not in {0, +-1}, and the
remaining poles a/0 at distance 3.  The closed-form distance test is the
cross-determinant class; a BFS over the 1-skeleton serves as the independent
oracle and is the only metric offered at composite levels.  Both run as
array kernels on int columns and vertex ids: `distance_classes`,
`bfs_distances` from many sources at once, and `bfs_distance`, a layered
search from one vertex that stops at the other's neighbours.
The four parts have one source, checked int columns built from the walk's
slots (`second_circuit_slots`): `decomposition_ids` reads them as vertex
ids, and `decompose` as FareyFractions, each vertex built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import FareyFraction, farey_fractions, vertex_columns
from .errors import (
    BrokenInvariant, EqualVertices, LevelMismatch, NotPrime, ResourceLimit, UnknownVertex,
)
from .maps import DEFAULT_LEVEL_BOUND, FareyMap

# Miller-Rabin on the prime bases 2..41 is exact below this bound.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache
def is_prime_level(n: int) -> bool:
    """True when n is a prime >= 5: the levels with the closed-form distance,
    the two circuits around 1/0 and the quasi-icosahedral decomposition.

    The test is a deterministic Miller-Rabin on the prime bases 2..41 below
    n: with n - 1 = d 2^s, d odd, n passes base a when a^d = 1 or
    a^(d 2^i) = -1 mod n for some i < s.  It is exact for n < 3.3 * 10^24,
    and a larger n raises ResourceLimit.
    """
    if n >= _PRIME_TEST_BOUND:
        raise ResourceLimit(f"level {n} above bound {_PRIME_TEST_BOUND} of the primality test")
    if n < 5 or n % 2 == 0:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the lowest set bit of n - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or n - 1 in [pow(a, d << i, n) for i in range(s)]
               for a in _PRIME_BASES if a < n)


def _require_prime(p: int) -> None:
    if not is_prime_level(p):
        raise NotPrime(f"need a prime >= 5, got {p}")


def _successors(x: np.ndarray) -> np.ndarray:
    """Entry i is x[i + 1], and the last entry x[0]: np.roll(x, -1) without
    its fixed cost."""
    return np.concatenate((x[1:], x[:1]))


def check_slots(nums, dens, levels, n: int) -> None:
    """Check that the closed walk of the vertices nums[i]/dens[i] runs on
    edges of M3(n): slot i joins vertex i to vertex i + 1, the last slot
    closing the walk.

    The vertex levels are an array like nums, or one int for all.  The
    first faulty slot, in slot order, raises: LevelMismatch when one of its
    ends is not at level n (the first end first), else BrokenInvariant when
    its cross-determinant is not +-1 mod n.  One array expression checks
    every slot.
    """
    nums, dens = np.asarray(nums, dtype=np.int64), np.asarray(dens, dtype=np.int64)
    off = np.full(nums.shape, np.asarray(levels) != n)
    det = (nums * _successors(dens) - _successors(nums) * dens) % n
    faulty = np.flatnonzero((det != 1) & (det != n - 1) | off | _successors(off))
    if faulty.shape[0]:
        i = int(faulty[0])
        for v in (i, (i + 1) % nums.shape[0]):
            if off[v]:
                raise LevelMismatch(f"{nums[v]}/{dens[v]} not at level {n}")
        raise BrokenInvariant(f"circuit broken at slot {i}: {nums[i]}/{dens[i]}")


@dataclass(frozen=True)
class Circuit:
    """Closed vertex walk; consecutive entries (cyclically) are adjacent."""

    vertices: tuple[FareyFraction, ...]
    level: int

    def __post_init__(self):
        vs = self.vertices
        check_slots([v.num for v in vs], [v.den for v in vs], [v.level for v in vs], self.level)

    def __len__(self) -> int:
        return len(self.vertices)

    def support(self) -> frozenset[FareyFraction]:
        return frozenset(self.vertices)

    def labels(self) -> list[str]:
        return [str(v) for v in self.vertices]


@dataclass(frozen=True)
class Decomposition:
    """Vertices of M3(p) grouped by distance 0, 1, 2, 3 from the north pole."""

    north: FareyFraction
    sphere1: Circuit
    sphere2: Circuit
    poles: tuple[FareyFraction, ...]  # the distance-3 poles, north excluded


def distance_classes(a, c, b, d, p: int):
    """The closed-form distance from a/c to b/d in M3(p), elementwise: 1, 2
    or 3 by the class of the cross-determinant ad - bc mod p.

    The arguments are ints or broadcastable integer arrays; the result has
    their shape.  Equal vertices have determinant 0 and read 3, so callers
    exclude them.  Nothing is checked: p must be a prime >= 5.
    """
    delta = (a * d - b * c) % p
    return 2 + (delta == 0) - ((delta == 1) | (delta == p - 1))


def distance_formula(f: FareyFraction, g: FareyFraction, p: int) -> int:
    """Closed-form distance in M3(p): 1, 2 or 3 by the class of ad - bc mod p."""
    _require_prime(p)
    if f.level != p or g.level != p:
        raise LevelMismatch(f"vertices at level {f.level}/{g.level}, not {p}")
    if f == g:
        raise EqualVertices(f"distance classification needs distinct vertices, got {f}")
    return int(distance_classes(f.num, f.den, g.num, g.den, p))


def bfs_distance(fmap: FareyMap, f: FareyFraction, g: FareyFraction) -> int:
    """Shortest-path length between two vertices of the 1-skeleton.

    A breadth-first search from f by layers over the V x n block of dart
    targets: g's n neighbours are marked in a mask, and layer d + 1 is the
    unseen targets of layer d, one gather per layer, each vertex once.  The
    first layer d that meets the mask gives d + 1.  Raises BrokenInvariant if
    the layers run out before that.
    """
    start = fmap.vertex_id(f)
    goal = fmap.vertex_id(g)
    if start == goal:
        return 0
    vcount = fmap.vertex_count
    targets = fmap.dart_targets()
    near = np.zeros(vcount, dtype=bool)
    near[targets[goal]] = True
    seen = np.zeros(vcount, dtype=bool)
    seen[start] = True
    front = np.array([start])
    d = 0
    while front.shape[0]:
        if near.take(front).any():
            return d + 1
        layer = np.zeros(vcount, dtype=bool)
        layer[targets.take(front, axis=0)] = True
        np.greater(layer, seen, out=layer)
        seen |= layer
        front = np.flatnonzero(layer)
        d += 1
    raise BrokenInvariant("1-skeleton is connected; unreachable vertex")


def bfs_distances(fmap: FareyMap, sources) -> np.ndarray:
    """S x V array: entry (s, w) is the BFS distance from vertex id sources[s]
    to vertex id w, or -1 if w is unreachable.

    The search is breadth-first over all sources at once: the frontier is
    every (row, vertex) with entry d, read off as np.nonzero(dist == d); its
    neighbours are one gather on the V x n block of dart targets, and the
    unvisited ones get d + 1 in one assignment.  It stops when every entry
    is set or the frontier is empty.  Raises UnknownVertex for a source
    outside 0..V-1 or one that is not an integer (bools read as 0 or 1).
    """
    sources = np.asarray(sources).ravel()
    vcount = fmap.vertex_count
    if (sources.dtype.kind not in "biu" and sources.size
            or ((sources < 0) | (sources >= vcount)).any()):
        raise UnknownVertex(f"a source is not a vertex id of M3({fmap.level})")
    sources = sources.astype(np.intp)
    targets = fmap.dart_targets()
    dist = np.full((sources.shape[0], vcount), -1, dtype=np.int32)
    cells = dist.reshape(-1)  # entry (s, w) is cell s*V + w
    rows = np.arange(sources.shape[0])
    dist[rows, sources] = 0
    frontier = sources
    unset = cells.shape[0] - rows.shape[0]
    d = 0
    while rows.shape[0] and unset:
        d += 1
        reached = (rows * vcount)[:, None] + targets.take(frontier, axis=0)
        cells[reached[cells.take(reached) < 0]] = d
        rows, frontier = np.nonzero(dist == d)
        unset -= rows.shape[0]
    return dist


def diameter(fmap: FareyMap) -> int:
    """Max over all vertex pairs of the BFS distance: the eccentricity of any
    one vertex, here vertex id 0 (the pole 1/0), since PSL(2, Z_n) acts
    transitively on the vertices by map automorphisms."""
    return int(bfs_distances(fmap, [0]).max())


def second_circuit_slots(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerators and denominators of the p(p-4) slots of the distance-2
    walk of decompose(p), in walk order, as two int arrays.

    The seed is the walk of length p-4 from 1/((p-1)/2) down to 1/2 and on
    through 2/3, 3/4, ... to ((p-3)/2)/((p-1)/2).  Slot k(p-4) + i is seed
    vertex i, a/c, translated by k: (a + k c)/c with the numerator reduced
    mod p, one broadcast over k and the seed.  Every seed denominator c lies
    in 2..(p-1)/2, strictly between 0 and p/2, so each slot pair is
    canonical.  No FareyFraction is built and no slot is checked.  A level
    above build_map's bound raises ResourceLimit, else NotPrime unless p is a
    prime >= 5.
    """
    if p > DEFAULT_LEVEL_BOUND:
        raise ResourceLimit(f"level {p} above bound {DEFAULT_LEVEL_BOUND}")
    _require_prime(p)
    half = (p - 1) // 2
    seed = [(1, k) for k in range(half, 1, -1)] + [(m - 1, m) for m in range(3, half + 1)]
    a, c = np.array(seed).T
    nums = (a + np.arange(p)[:, None] * c) % p
    return nums.ravel(), np.tile(c, p)


def _layout_columns(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime layout of M3(p), the four parts of decomposition_ids, as one
    pair of int columns (nums, dens) of canonical pairs; _parts cuts them
    apart.  The ring and the walk each pass check_slots, as in a Circuit."""
    walk_nums, walk_dens = second_circuit_slots(p)
    ring = np.arange(p)
    ones = np.ones_like(ring)
    check_slots(ring, ones, p, p)
    check_slots(walk_nums, walk_dens, p, p)
    poles = ring[2:(p + 1) // 2]
    return (np.concatenate(([1], ring, walk_nums, poles)),
            np.concatenate(([0], ones, walk_dens, np.zeros_like(poles))))


def _parts(seq, p: int):
    """seq, laid out as the columns of _layout_columns(p), cut into its four
    parts: 1/0, the ring, the walk and the poles."""
    walk_end = 1 + p + p * (p - 4)
    return seq[:1], seq[1:p + 1], seq[p + 1:walk_end], seq[walk_end:]


def _checked_circuit(vertices, p: int) -> Circuit:
    """A Circuit on vertices whose slots check_slots has passed, set up as
    the dataclass sets it up, without checking them again in __post_init__."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "vertices", tuple(vertices))
    object.__setattr__(circuit, "level", p)
    return circuit


def decomposition_ids(fmap: FareyMap) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """decompose(p) as four int arrays of vertex ids of M3(p): 1/0, the ring
    k/1 (k = 0..p-1), the p(p-4) walk slots of second_circuit_slots(p) in
    order and with repeats, and the poles a/0 (a = 2..(p-1)/2).  The ring and
    the walk pass check_slots, as in a Circuit, else BrokenInvariant."""
    return _parts(fmap.vertex_ids(*_layout_columns(fmap.level)), fmap.level)


def decompose(p: int) -> Decomposition:
    """Quasi-icosahedral decomposition of the vertex set by distance from 1/0.

    The parts are those of decomposition_ids as FareyFractions: one
    farey_fractions call builds every vertex of M3(p) once, in vertex-id
    order, and the parts index into that list.
    """
    nums, dens = _layout_columns(p)
    columns = vertex_columns(p)
    vertices = farey_fractions(*columns, p)
    vertex_id = np.zeros((p, p), dtype=np.intp)
    vertex_id[tuple(columns)] = np.arange(len(vertices))
    north, ring, walk, poles = _parts([vertices[i] for i in vertex_id[nums, dens].tolist()], p)
    return Decomposition(north[0], _checked_circuit(ring, p), _checked_circuit(walk, p),
                         tuple(poles))
