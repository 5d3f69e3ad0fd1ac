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
`second_circuit_slots` gives the distance-2 walk as two int arrays and
`decomposition_ids` the four parts as vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import FareyFraction, canonical, distinct_prime_factors, farey_fractions
from .errors import BrokenInvariant, EqualVertices, LevelMismatch, NotPrime, UnknownVertex
from .maps import FareyMap


@lru_cache
def is_prime_level(n: int) -> bool:
    """True when n is a prime >= 5: the levels with the closed-form distance,
    the two circuits around 1/0 and the quasi-icosahedral decomposition."""
    return n >= 5 and distinct_prime_factors(n) == [n]


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
    outside 0..V-1.
    """
    sources = np.asarray(sources, dtype=np.intp).ravel()
    vcount = fmap.vertex_count
    if ((sources < 0) | (sources >= vcount)).any():
        raise UnknownVertex(f"a source is not a vertex id of M3({fmap.level})")
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


def first_circuit(p: int) -> Circuit:
    """The circuit 0/1, 1/1, ..., (p-1)/1 at distance 1 from 1/0."""
    _require_prime(p)
    return Circuit(tuple(canonical(k, 1, p) for k in range(p)), p)


def _seed_pairs(p: int) -> list[tuple[int, int]]:
    """The canonical (num, den) pairs of second_circuit_seed(p)."""
    _require_prime(p)
    half = (p - 1) // 2
    return [(1, k) for k in range(half, 1, -1)] + [(m - 1, m) for m in range(3, half + 1)]


def second_circuit_seed(p: int) -> tuple[FareyFraction, ...]:
    """The length p-4 seed: 1/((p-1)/2), ..., 1/2, 2/3, ..., ((p-3)/2)/((p-1)/2)."""
    return tuple(FareyFraction(a, c, p) for a, c in _seed_pairs(p))


def second_circuit_slots(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerators and denominators of the p(p-4) slots of
    second_circuit(p), in walk order, as two int arrays.

    Slot k(p-4) + i is seed vertex i, a/c, translated by k: (a + k c)/c with
    the numerator reduced mod p, one broadcast over k and the seed.  Every
    seed denominator c lies in 2..(p-1)/2, strictly between 0 and p/2, so
    each slot pair is canonical.  No FareyFraction is built.
    """
    a, c = np.array(_seed_pairs(p)).T
    nums = (a + np.arange(p)[:, None] * c) % p
    return nums.ravel(), np.tile(c, p)


def second_circuit(p: int) -> Circuit:
    """Concatenation of the p translates of the seed; the distance-2 circuit.

    The slots are second_circuit_slots(p).  Each denominator c in
    2..(p-1)/2 takes every numerator 0 <= a < p, so the fractions a/c are
    built once, as entry (c - 2)*p + a of one list, and the walk indexes
    into it.
    """
    nums, dens = second_circuit_slots(p)
    check_slots(nums, dens, p, p)
    grid = farey_fractions(np.tile(np.arange(p), (p - 3) // 2),
                           np.repeat(np.arange(2, (p + 1) // 2), p), p)
    walk = tuple(grid[i] for i in ((dens - 2) * p + nums).tolist())
    # the slots are checked: set the Circuit up as the dataclass does,
    # without checking them again in __post_init__
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "vertices", walk)
    object.__setattr__(circuit, "level", p)
    return circuit


def poles(p: int) -> tuple[FareyFraction, ...]:
    """All (p-1)/2 poles 1/0, 2/0, ..., ((p-1)/2)/0."""
    _require_prime(p)
    return tuple(canonical(a, 0, p) for a in range(1, (p - 1) // 2 + 1))


def decomposition_ids(fmap: FareyMap) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """decompose(p) as four int arrays of vertex ids of M3(p): 1/0, the ring
    k/1 (k = 0..p-1), the p(p-4) walk slots of second_circuit_slots(p) in
    order and with repeats, and the poles a/0 (a = 2..(p-1)/2).  The slots
    pass check_slots, as in a Circuit; else BrokenInvariant is raised."""
    p = fmap.level
    nums, dens = second_circuit_slots(p)
    check_slots(nums, dens, p, p)
    k = np.arange(p)
    return (fmap.vertex_ids([1], [0]), fmap.vertex_ids(k, 1), fmap.vertex_ids(nums, dens),
            fmap.vertex_ids(k[2:(p + 1) // 2], 0))


def decompose(p: int) -> Decomposition:
    """Quasi-icosahedral decomposition of the vertex set by distance from 1/0."""
    _require_prime(p)
    return Decomposition(
        north=canonical(1, 0, p),
        sphere1=first_circuit(p),
        sphere2=second_circuit(p),
        poles=poles(p)[1:],
    )
