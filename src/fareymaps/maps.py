"""The level-n Farey map as an explicit combinatorial map.

Darts are the elements of PSL(2, Z_n).  The dart of the matrix g = (a b; c d)
runs from the vertex a/c (first column) toward b/d (second column).  Right
multiplication by T = (1 1; 0 1) is the rotation sigma (counterclockwise
around the source vertex) and right multiplication by S = (0 -1; 1 0) is the
reversal alpha; faces are the orbits of sigma o alpha, i.e. right
multiplication by ST, which has order 3.  Any consistent convention gives an
isomorphic map; this one is fixed so that tests and exports are
deterministic.

Indexing: vertices are sorted by (den, num); the darts with source vertex v
occupy the block v*n .. v*n + n - 1, the dart (v, t) having second column
(b, d) = (b0 + t*a, d0 + t*c) for a fixed solution (b0, d0) of
a*d0 - c*b0 = 1 mod n, so that t = b*d0 - d*b0 mod n.  Under this indexing
sigma is simply (v, t) -> (v, t + 1 mod n), and the block of a vertex lists
its n neighbours in rotation order.  An n x n table gives the vertex id of
both sign representatives (a, c) and (-a, -c) of every vertex, so:
  - alpha sends (a, b; c, d) to (b, -a; d, -c), whose first column is the
    vertex w = table[b, d] times a sign s; it is the dart
    w*n + s*(c*b0[w] - a*d0[w]) mod n;
  - the dart from u = a/c to w = b/d exists iff e = a*d - c*b is +-1 mod n,
    and it is u*n + e*(b*d0[u] - d*b0[u]) mod n.

A built map is immutable; concurrent readers are safe.  The derived tables
(edge columns, labels, face neighbours, face translation) are filled in on
first use; a map always computes the same values for them, so a reader
racing another sees equal tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import FareyFraction, distinct_prime_factors, vertex_pairs
from .errors import (
    BrokenInvariant,
    FareyMapError,
    MalformedMap,
    NonIntegral,
    ResourceLimit,
    UnknownVertex,
    Unsupported,
)

DEFAULT_LEVEL_BOUND = 101


def mu(n: int) -> int:
    """Order of PSL(2, Z_n) = number of darts: n^3/2 * prod(1 - 1/p^2)."""
    if n < 3:
        raise Unsupported(f"mu(n) needs n >= 3, got {n}")
    value = Fraction(n**3, 2)
    for p in distinct_prime_factors(n):
        value *= 1 - Fraction(1, p * p)
    if value.denominator != 1:
        raise NonIntegral(f"mu({n}) = {value} is not an integer")
    return int(value)


def genus(n: int) -> int:
    """Genus of the level-n map: 1 + n^2/24 * (n - 6) * prod(1 - 1/p^2).

    That is 1 + mu(n) * (n - 6) / (12 n), from 2 - 2g = mu/n - mu/2 + mu/3.
    """
    if n < 3:
        raise Unsupported(f"genus(n) needs n >= 3, got {n}")
    value = 1 + Fraction(mu(n) * (n - 6), 12 * n)
    if value.denominator != 1:
        raise NonIntegral(f"genus({n}) = {value} is not an integer")
    return int(value)


def _bezout_column(a: int, c: int, n: int) -> tuple[int, int]:
    """Some (b0, d0) with a*d0 - c*b0 = 1 mod n; needs gcd(a, c, n) = 1."""
    # x*a + y*c = g over Z, then scale by the inverse of g mod n.
    old_r, r = a, c
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    g = old_r
    ginv = pow(g % n, -1, n)
    d0 = old_x * ginv % n
    b0 = -old_y * ginv % n
    return b0, d0


class FareyMap:
    """Immutable combinatorial map M3(n); build with build_map()."""

    def __init__(self, level: int, vertices, vertex_table, bezout, sigma, alpha,
                 face_of_dart, face_darts):
        self.level = level
        self.vertices: list[FareyFraction] = vertices
        self.sigma: np.ndarray = sigma
        self.alpha: np.ndarray = alpha
        self._vertex_table: list[list[int]] = vertex_table
        self._bezout: list[tuple[int, int]] = bezout
        self._dart_target: np.ndarray = alpha // level
        self._face_of_dart: np.ndarray = face_of_dart
        self._face_darts: np.ndarray = face_darts
        self._edge_columns: tuple[np.ndarray, np.ndarray] | None = None
        self._labels: list[str] | None = None
        self._face_neighbours: np.ndarray | None = None
        self._face_translation: np.ndarray | None = None

    # -- counts ---------------------------------------------------------

    @property
    def dart_count(self) -> int:
        return int(self.sigma.shape[0])

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return self.dart_count // 2

    @property
    def face_count(self) -> int:
        return int(self._face_darts.shape[0])

    # -- incidence ------------------------------------------------------

    def vertex_id(self, v: FareyFraction) -> int:
        if isinstance(v, FareyFraction) and v.level == self.level:
            return self._vertex_table[v.num][v.den]
        raise UnknownVertex(f"{v} is not a vertex of M3({self.level})")

    def dart_between(self, u: int, w: int) -> int:
        """The dart from vertex id u to vertex id w; M3(n) has no multi-edges."""
        n = self.level
        if 0 <= u < self.vertex_count and 0 <= w < self.vertex_count:
            f, g = self.vertices[u], self.vertices[w]
            det = (f.num * g.den - f.den * g.num) % n
            if det in (1, n - 1):
                b0, d0 = self._bezout[u]
                sign = 1 if det == 1 else -1
                return u * n + sign * (g.num * d0 - g.den * b0) % n
        raise UnknownVertex(f"no edge from vertex id {u} to vertex id {w}")

    def neighbor_ids(self, vid: int) -> list[int]:
        n = self.level
        return self._dart_target[vid * n:(vid + 1) * n].tolist()

    def neighbors(self, v: FareyFraction) -> tuple[FareyFraction, ...]:
        """The n neighbours of v as a cyclic sequence in sigma rotation order."""
        return tuple(self.vertices[i] for i in self.neighbor_ids(self.vertex_id(v)))

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge columns (src, tgt): every edge once with src < tgt,
        ordered by (src, tgt).  Computed once per map; read-only."""
        if self._edge_columns is None:
            v = self.vertex_count
            src = np.arange(self.dart_count) // self.level
            tgt = self._dart_target
            keep = src < tgt
            key = np.sort(src[keep] * v + tgt[keep])
            columns = (key // v, key % v)
            for column in columns:
                column.flags.writeable = False
            self._edge_columns = columns
        return self._edge_columns

    def edge_id_pairs(self) -> list[tuple[int, int]]:
        """Every edge once as (u, w) with u < w, ordered by (u, w); a new list."""
        src, tgt = self.edge_columns()
        return list(zip(src.tolist(), tgt.tolist()))

    def _label_table(self) -> list[str]:
        """str(v) of every vertex, by vertex id."""
        if self._labels is None:
            self._labels = [str(v) for v in self.vertices]
        return self._labels

    # -- faces ----------------------------------------------------------

    def face_vertex_ids(self, face_id: int) -> tuple[int, int, int]:
        if not 0 <= face_id < self.face_count:
            raise UnknownVertex(f"no face with id {face_id} in M3({self.level})")
        return tuple((self._face_darts[face_id] // self.level).tolist())

    def face_vertex_rows(self) -> list[list[int]]:
        """Row i lists the vertex ids of face i, least first, in rotation order."""
        return (self._face_darts // self.level).tolist()

    def face_neighbours(self) -> np.ndarray:
        """F x 3 array: entry k of row i is the face across the edge from
        corner k to corner k + 1 of face_vertex_rows()[i].  Computed once
        per map; read-only."""
        if self._face_neighbours is None:
            # dart k of a face runs from corner k to corner k + 1
            neighbours = self._face_of_dart[self.alpha[self._face_darts]]
            neighbours.flags.writeable = False
            self._face_neighbours = neighbours
        return self._face_neighbours

    def face_translation(self) -> np.ndarray:
        """Entry i is the face id of the image of face i under t -> t + 1.
        Computed once per map; read-only.

        Left multiplication by T commutes with sigma and alpha, so it sends
        the block of vertex v onto the block of v + 1 turned by a fixed step:
        the dart (v, t) goes to (v + 1, t + k_v), and k_v is read off the
        image of the dart (v, 0).
        """
        if self._face_translation is None:
            n = self.level
            shift = [self.vertex_id(v.translated(1)) for v in self.vertices]
            targets = self._dart_target[::n].tolist()  # the targets of the darts (v, 0)
            first = np.array([self.dart_between(shift[v], shift[w]) for v, w in enumerate(targets)])
            v, t = np.divmod(self._face_darts[:, 0], n)
            image = first[v] // n * n + (first[v] + t) % n
            translation = self._face_of_dart[image]
            translation.flags.writeable = False
            self._face_translation = translation
        return self._face_translation

    def _face_rows_by_label(self) -> np.ndarray:
        """The face vertex rows in the order of their label lists.

        Labels are distinct, so ranking each vertex by its label in string
        order and sorting the rows by their rank triples, read as one number
        in base V, gives the order of sorted() over the label lists.
        """
        v = self.vertex_count
        labels = self._label_table()
        rank = np.empty(v, dtype=np.int64)
        rank[sorted(range(v), key=labels.__getitem__)] = np.arange(v)
        rows = self._face_darts // self.level
        ranks = rank[rows]
        return rows[np.argsort((ranks[:, 0] * v + ranks[:, 1]) * v + ranks[:, 2])]

    def faces(self) -> list[tuple[FareyFraction, FareyFraction, FareyFraction]]:
        """Face i as the tuple of its three vertices, least (by (den, num))
        first, in the rotation order traced by the face operator."""
        vs = np.array(self.vertices, dtype=object)
        c0, c1, c2 = vs[self._face_darts // self.level].T.tolist()
        return list(zip(c0, c1, c2))

    def face_id_by_vertices(self, vs) -> int:
        """Face id of the face with the given vertex set; raises if absent.

        A face {a, b, c} lies on one side of the dart a -> b, and the face on
        the left of a dart d has third corner target(sigma(alpha(d))).  M3(n)
        has no two faces with the same vertex set.
        """
        ids = [self.vertex_id(v) if isinstance(v, FareyFraction) else v for v in vs]
        if len(set(ids)) == 3:
            a, b, c = ids
            d = self.dart_between(a, b)
            for dart in (d, int(self.alpha[d])):
                if self._dart_target[self.sigma[self.alpha[dart]]] == c:
                    return int(self._face_of_dart[dart])
        raise UnknownVertex(f"no face with vertices {sorted(set(ids))}")

    def has_face(self, vs) -> bool:
        try:
            self.face_id_by_vertices(vs)
            return True
        except UnknownVertex:
            return False

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count


def build_map(n: int) -> FareyMap:
    """Construct M3(n) with its dart permutations and faces."""
    if n < 3:
        raise Unsupported(f"build_map needs n >= 3, got {n}")
    if n > DEFAULT_LEVEL_BOUND:
        raise ResourceLimit(f"level {n} above bound {DEFAULT_LEVEL_BOUND}")

    pairs = vertex_pairs(n)
    vcount = len(pairs)
    order = mu(n)
    if vcount * n != order:
        raise BrokenInvariant(f"{vcount} vertices at level {n}, not mu/n = {order // n}")

    av, cv = np.array(pairs, dtype=np.int64).T
    bezout = [_bezout_column(a, c, n) for a, c in pairs]
    b0, d0 = np.array(bezout, dtype=np.int64).T

    # The two signs never collide: (a, c) = (-a, -c) forces gcd(a, c, n) > 1.
    vertex_table = np.full((n, n), -1, dtype=np.int64)
    vertex_sign = np.zeros((n, n), dtype=np.int64)
    for sign in (1, -1):
        vertex_table[sign * av % n, sign * cv % n] = np.arange(vcount)
        vertex_sign[sign * av % n, sign * cv % n] = sign

    t = np.tile(np.arange(n, dtype=np.int64), vcount)
    A = np.repeat(av, n)
    C = np.repeat(cv, n)
    B = (np.repeat(b0, n) + t * A) % n
    D = (np.repeat(d0, n) + t * C) % n

    idx = np.arange(order, dtype=np.int64)
    sigma = idx - t + (t + 1) % n

    # alpha: g -> g*S = (B, -A; D, -C), the dart from w = s*(B, D) to s*(-A, -C).
    w = vertex_table[B, D]
    if np.any(w < 0):
        raise BrokenInvariant(f"a dart column is not a vertex at level {n}; construction bug")
    s = vertex_sign[B, D]
    alpha = w * n + s * (C * b0[w] - A * d0[w]) % n
    del t, A, C, B, D, w, s  # free seven dart-length columns before the face arrays

    # Face i is row i: its darts in phi order from the least one.  A face has
    # three distinct corners and the darts of vertex v are v*n .. v*n + n - 1,
    # so the least dart leaves the least corner.
    phi = sigma[alpha]
    reps = np.minimum(np.minimum(idx, phi), phi[phi])
    leaders = idx[reps == idx]
    face_darts = np.stack((leaders, phi[leaders], phi[phi[leaders]]), axis=1)
    face_of_dart = np.empty(order, dtype=np.int64)
    face_of_dart[face_darts] = np.arange(leaders.shape[0], dtype=np.int64)[:, None]

    vertices = [FareyFraction(int(a), int(c), n) for a, c in pairs]
    return FareyMap(n, vertices, vertex_table.tolist(), bezout, sigma, alpha, face_of_dart,
                    face_darts)


# -- export / import -------------------------------------------------------

def gather_rows(columns: np.ndarray, ids: np.ndarray) -> list[str]:
    """The pieces columns[j, ids[r, j]], in row-major order of (r, j).

    `columns` is a k x V object array of per-vertex strings and `ids` an
    R x k array of vertex ids.  One numpy gather picks every piece, so no
    Python step runs per row, and the pieces are the column strings
    themselves, not copies.
    """
    return columns[np.arange(columns.shape[0]), ids].ravel().tolist()


def map_to_dict(fmap: FareyMap) -> dict:
    """The export as a dict: labels, edges by (src, tgt) id, faces sorted by labels."""
    verts = list(fmap._label_table())
    edges = [[verts[i], verts[j]] for i, j in fmap.edge_id_pairs()]
    faces = [[verts[a], verts[b], verts[c]] for a, b, c in fmap._face_rows_by_label().tolist()]
    return {"level": fmap.level, "vertices": verts, "edges": edges, "faces": faces}


def to_json(fmap: FareyMap) -> str:
    """json.dumps(map_to_dict(fmap)): per-vertex pieces put in edge and face
    order by gather_rows(), then one join.

    A label is always digits/digits, so '"' + label + '"' is its JSON string.
    """
    quoted = np.array(['"' + s + '"' for s in fmap._label_table()], dtype=object)
    head, middle, tail = "[" + quoted + ", ", quoted + ", ", quoted + "], "
    parts = [f'{{"level": {fmap.level}, "vertices": [{", ".join(quoted)}], "edges": [']
    parts += gather_rows(np.stack((head, tail)), np.column_stack(fmap.edge_columns()))
    parts[-1] = parts[-1][:-2]  # the last edge takes no separator
    parts.append('], "faces": [')
    parts += gather_rows(np.stack((head, middle, tail)), fmap._face_rows_by_label())
    parts[-1] = parts[-1][:-2] + "]}"
    return "".join(parts)


@dataclass(frozen=True)
class MapData:
    """Parsed form of the JSON export; enough to compare maps up to iso."""

    level: int
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]
    faces: frozenset[frozenset[str]]


def from_json(text: str) -> MapData:
    """Parse a JSON export; text that is not one raises MalformedMap.

    The level must be a JSON integer (not a float or a boolean), the
    vertices a list of distinct label strings, the edges a list of lists of
    two distinct labels and the faces a list of lists of three.
    """
    try:
        data = json.loads(text)
        level = data["level"]
        if not isinstance(level, int) or isinstance(level, bool):
            raise MalformedMap(f"level {level!r} is not an integer")
        vertices = data["vertices"]
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise MalformedMap("vertices are not a list of label strings")
        vertices = tuple(vertices)
        known = set(vertices)
        if len(known) != len(vertices):
            raise MalformedMap("a vertex label is repeated")
        edges = _label_sets(data["edges"], 2, "edge", known)
        faces = _label_sets(data["faces"], 3, "face", known)
    except FareyMapError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError.
        raise MalformedMap(f"not a map export: {exc!r}") from exc
    return MapData(level, vertices, edges, faces)


def _label_sets(items, size: int, what: str, known: set) -> frozenset[frozenset[str]]:
    """The label sets of a JSON list of lists of `size` distinct labels."""
    if not isinstance(items, list):
        raise MalformedMap(f"{what}s are not a list")
    out = set()
    for item in items:
        if not isinstance(item, list) or len(item) != size or len(set(item)) != size:
            raise MalformedMap(f"{what} {item!r} is not a list of {size} distinct labels")
        if any(u not in known for u in item):
            raise UnknownVertex(f"{what} {item} uses unknown vertices")
        out.add(frozenset(item))
    return frozenset(out)


def same_combinatorics(fmap: FareyMap, data: MapData) -> bool:
    """Label-preserving comparison: equal V/E/F and identical adjacency."""
    if data.level != fmap.level or len(data.vertices) != fmap.vertex_count:
        return False
    verts = fmap._label_table()
    if sorted(verts) != sorted(data.vertices):
        return False
    edges = {frozenset((verts[i], verts[j])) for i, j in fmap.edge_id_pairs()}
    faces = {frozenset((verts[a], verts[b], verts[c])) for a, b, c in fmap.face_vertex_rows()}
    return edges == data.edges and faces == data.faces


def to_dot(fmap: FareyMap) -> str:
    quoted = np.array(['"' + s + '"' for s in fmap._label_table()], dtype=object)
    parts = [f"graph farey_{fmap.level} {{\n"]
    parts += ("  " + quoted + ";\n").tolist()
    parts += gather_rows(np.stack(("  " + quoted + " -- ", quoted + ";\n")),
                         np.column_stack(fmap.edge_columns()))
    parts.append("}\n")
    return "".join(parts)
