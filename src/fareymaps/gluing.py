"""Gluing a polygon along reversed side pairs: the polygon, its pairing, its genus.

A `Polygon` is the closed walk of its boundary, as vertex ids of a map, with
s slots per side: side k is the path from slot k*s to slot (k + 1)*s, and
corner k is slot k*s.  A reversed pair (i, j) glues side i to side j read
backwards, so corner i meets corner j + 1 and corner i + 1 meets corner j;
every such gluing is orientable, and the glued corner classes are the cycles
of the permutation k -> partner(k) + 1.  Klein's 14-gon (s = 3) and the
198-gon (s = 1) are both Polygons: one constructor lays them out from a seed,
one matcher pairs their sides, one count their genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .arith import seed_translates
from .errors import NoMatch, UnpairedEdge
from .maps import FareyMap
from .metrics import check_slots


def reversed_pairs(keys, name=str) -> tuple[tuple[int, int], ...]:
    """Pair each directed key (a tuple) with the unique key equal to its
    reversal; returns the sorted pairs (i, j) of positions, i < j.  An error
    message shows each entry e of a key as name(e): a vertex id, say, by
    its label."""
    where: dict[tuple, int] = {}
    for i, key in enumerate(keys):
        if key in where:
            raise UnpairedEdge(f"directed key {tuple(map(name, key))} occurs twice")
        where[key] = i
    pairs = []
    for key, i in where.items():  # in position order, so the pairs come sorted
        j = where.get(key[::-1])
        if j is None:
            raise UnpairedEdge(f"no reversed occurrence of {tuple(map(name, key))}")
        if i == j:
            raise UnpairedEdge(f"{tuple(map(name, key))} pairs with itself")
        if i < j:
            pairs.append((i, j))
    return tuple(pairs)


@dataclass(frozen=True)
class SidePairing:
    """Reversed side pairs (i, j), each sorted, every side in exactly one."""

    pairs: tuple[tuple[int, int], ...]

    def partner(self, k: int) -> int:
        """The side paired with side k."""
        for i, j in self.pairs:
            if k == i:
                return j
            if k == j:
                return i
        raise NoMatch(f"side {k} not in pairing")


def polygon_genus(corners, pairs) -> int:
    """Genus of the closed surface obtained by gluing a polygon's paired sides.

    corners[k] labels corner k; glued corners must carry equal labels.  The
    pair (i, j) sends corner i to corner j + 1 and corner j to corner i + 1,
    so the glued corner classes are the cycles of k -> partner(k) + 1; with
    the one disc inside, chi = (cycles) - (side pairs) + 1.
    """
    total = len(corners)
    if sorted(k for pair in pairs for k in pair) != list(range(total)):
        raise NoMatch("a side pairing must pair every side exactly once")
    after = [0] * total
    for i, j in pairs:
        after[i], after[j] = (j + 1) % total, (i + 1) % total
    if any(corners[k] != corners[after[k]] for k in range(total)):
        raise NoMatch("glued corners carry different labels")
    cycles, seen = 0, [False] * total
    for k in range(total):
        if not seen[k]:
            cycles += 1
            while not seen[k]:
                seen[k], k = True, after[k]
    chi = cycles - len(pairs) + 1
    if chi % 2:
        raise NoMatch(f"odd Euler characteristic {chi}")
    return (2 - chi) // 2


@dataclass(frozen=True)
class Polygon:
    """A polygon on a map, its labels read off `vertex_labels()`; each kind
    of polygon fixes its slots per side, `side_slots`."""

    fmap: FareyMap
    ids: tuple[int, ...]
    side_slots: ClassVar[int] = 1

    @classmethod
    def from_seed(cls, fmap: FareyMap, nums, dens):
        """The polygon walking the seed arc nums[i]/dens[i] and its translates
        under t -> t + k, k = 0..n-1 (arith.seed_translates), each slot on an
        edge of the map (check_slots, else BrokenInvariant)."""
        n = fmap.level
        nums, dens = seed_translates(nums, dens, n)
        check_slots(nums, dens, n, n)
        return cls(fmap, tuple(fmap.vertex_ids(nums, dens).tolist()))

    def __len__(self) -> int:
        return len(self.ids) // self.side_slots  # the number of sides

    def labels(self) -> list[str]:
        labels = self.fmap.vertex_labels()
        return [labels[i] for i in self.ids]

    def side_paths(self) -> list[tuple[int, ...]]:
        """Side k as the vertex ids of slots k*s .. (k + 1)*s, the last closing the walk."""
        s, ids = self.side_slots, self.ids + self.ids[:1]
        return list(zip(*(ids[j::s] for j in range(s + 1))))

    def pairing(self) -> SidePairing:
        """Each side paired with the side whose path is its reversal."""
        return SidePairing(reversed_pairs(self.side_paths(), self.fmap.vertex_labels().__getitem__))

    def genus(self, pairing: SidePairing) -> int:
        """Genus of the surface glued from the polygon, one disc, along the pairing."""
        return polygon_genus(self.ids[::self.side_slots], pairing.pairs)
