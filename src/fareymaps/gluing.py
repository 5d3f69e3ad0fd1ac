"""Gluing a polygon along reversed side pairs: the matcher, the pairing, the genus.

Side k of an N-gon runs from corner k to corner k + 1 (mod N).  A reversed
pair (i, j) glues side i to side j read backwards, so corner i meets corner
j + 1 and corner i + 1 meets corner j; every such gluing is orientable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoMatch, UnpairedEdge


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
    pairs = set()
    for key, i in where.items():
        j = where.get(key[::-1])
        if j is None:
            raise UnpairedEdge(f"no reversed occurrence of {tuple(map(name, key))}")
        if i == j:
            raise UnpairedEdge(f"{tuple(map(name, key))} pairs with itself")
        pairs.add((min(i, j), max(i, j)))
    return tuple(sorted(pairs))


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


def polygon_genus(corners, pairs, inner_chi: int = 1) -> int:
    """Genus of the closed surface obtained by gluing a polygon's paired sides.

    corners[k] labels corner k; glued corners must carry equal labels.  The
    boundary contributes (corner classes) - (side pairs) to the Euler
    characteristic and everything off the boundary contributes inner_chi,
    which is 1 for a single open polygon.
    """
    total = len(corners)
    if sorted(k for pair in pairs for k in pair) != list(range(total)):
        raise NoMatch("a side pairing must pair every side exactly once")
    parent = list(range(total))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find((j + 1) % total)
        parent[find((i + 1) % total)] = find(j)

    roots = {find(k) for k in range(total)}
    if any(corners[k] != corners[find(k)] for k in range(total)):
        raise NoMatch("glued corners carry different labels")
    chi = len(roots) - len(pairs) + inner_chi
    if chi % 2:
        raise NoMatch(f"odd Euler characteristic {chi}")
    return (2 - chi) // 2
