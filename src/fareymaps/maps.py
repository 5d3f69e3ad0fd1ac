"""The level-n Farey map as an explicit combinatorial map.

Darts are the elements of PSL(2, Z_n).  The dart of the matrix g = (a b; c d)
runs from the vertex a/c (first column) toward b/d (second column).  Right
multiplication by T = (1 1; 0 1) is the rotation sigma (counterclockwise
around the source vertex) and right multiplication by S = (0 -1; 1 0) is the
reversal alpha; faces are the orbits of sigma o alpha, i.e. right
multiplication by ST, which has order 3.  Any consistent convention gives an
isomorphic map; this one is fixed so that tests and exports are
deterministic.

Indexing: vertices are sorted by (den, num), as arith.vertex_columns lists
them; the darts with source vertex v occupy the block v*n .. v*n + n - 1,
the dart (v, t) having second column (b, d) = (b0 + t*a, d0 + t*c) for a
fixed solution (b0, d0) of a*d0 - c*b0 = 1 mod n, so that
t = b*d0 - d*b0 mod n.  (b0, d0) comes from the extended Euclid on (a, c),
run on all vertices at once (_bezout_columns).  Under this indexing
sigma is simply (v, t) -> (v, t + 1 mod n), and the block of a vertex lists
its n neighbours in rotation order.  An n x n table gives the vertex id of
both sign representatives (a, c) and (-a, -c) of every vertex, so:
  - alpha sends (a, b; c, d) to (b, -a; d, -c), whose first column is the
    vertex w = table[b, d] times a sign s; it is the dart
    w*n + s*(c*b0[w] - a*d0[w]) mod n;
  - the dart from u = a/c to w = b/d exists iff e = a*d - c*b is +-1 mod n,
    and it is u*n + e*(b*d0[u] - d*b0[u]) mod n.

Storage: build_map builds one int32 dart array, alpha, 4 bytes per dart;
the F x 3 int32 face darts (F = mu/3, so one entry per dart again) come on
first read (face_darts()), and a map that answers only vertex queries never
builds them.  sigma and the dart targets are one line of closed form each:
sigma is rotated(d, n), which the face darts, the battery and the face
lookup all read, and the target of dart d is alpha[d] // n, the source of
the reversed dart.  The face of each dart is an index built from the face
darts, read only by face_neighbours() and face_translation(); a face id is
found without it, as the rank of the face's least dart among the sorted
face leaders, and has_face() reads that least dart off alpha alone.
build_map computes alpha as a V x n block, one row per vertex, from the
per-vertex columns, which come from the two numpy kernels above, so no
Python step runs per vertex or per dart; it works through row blocks of
about 2^15 darts (row_blocks), as face_darts() does, so beyond the array the
map keeps it holds the per-level tables and one block's temporaries: at
level 101 its tracemalloc peak is 1.9 MB above the 2.2 MB the map holds.  A
vertex is its id: the map keeps the int (num, den) columns of the vertices,
which the labels (vertex_labels()), dart_between and vertex_columns() read;
the FareyFraction tuple `vertices` is a derived table like the labels,
built by arith.farey_fractions.

A built map is immutable: every array it stores or hands out is read-only,
every sequence a tuple, and concurrent readers are safe.  Every derived
table (dart targets, edge columns, labels, vertices, the face darts and
leaders, the face corners, the face index, neighbours and orbits, vertex and
face translation) goes through one memo, _derived: built on first use, set
read-only if it is an array, and kept; pickle and copy leave them behind,
and the copy builds them again.  A map always computes the same values for
a table, so a reader racing another sees an equal table.  The edges are one
E x 2 array and the face corners one F x 3 array, the shapes the exports
gather from; only this module turns face darts into face corners.
"""

from __future__ import annotations

import gc
import json
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import gcd

import numpy as np

from .arith import (
    FareyFraction, as_integer, distinct_prime_factors, farey_fractions, vertex_columns,
)
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

# Darts per block of build_map, face_darts() and the battery: 2^15 int32
# entries are 128 KB, so one block's temporaries (about 1 MB with the intp
# index casts) fit a 2 MB L2 cache; every level up to 40 is one block.
_BLOCK_DARTS = 1 << 15


def mu(n: int) -> int:
    """Order of PSL(2, Z_n) = number of darts: n^3/2 * prod(1 - 1/p^2)."""
    n = as_integer(n, "mu(n) needs an integer level")
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
    n = as_integer(n, "genus(n) needs an integer level")
    if n < 3:
        raise Unsupported(f"genus(n) needs n >= 3, got {n}")
    value = 1 + Fraction(mu(n) * (n - 6), 12 * n)
    if value.denominator != 1:
        raise NonIntegral(f"genus({n}) = {value} is not an integer")
    return int(value)


def _bezout_columns(nums: np.ndarray, dens: np.ndarray, n: int) -> np.ndarray:
    """The 2 x V int32 rows (b0, d0) with a*d0 - c*b0 = 1 mod n for every
    column (a, c) = (nums[v], dens[v]) of non-negative residues with
    gcd(a, c, n) = 1.

    The extended Euclid runs on all columns at once, with the quotients of
    the scalar Euclid on (a, c), until every column has a zero remainder;
    it gives x*a + y*c = g = gcd(a, c), and (b0, d0) = g^-1 * (-y, x) mod n,
    the inverse read off one table of the units mod n.  The coefficients
    keep |x|, |y| <= n, and so does each quotient times a coefficient, so
    int32 holds every step; g^-1 * x stays below n^2, which int32 holds up
    to level 46,340.
    """
    # rows (r, -y, x) of the last two Euclid steps: x*a + y*c = r
    old, new = np.zeros((2, 3, nums.shape[0]), dtype=np.int32)
    old[0], old[2] = nums, 1
    new[0], new[1] = dens, -1
    # A finished column has one zero remainder, so its quotient is 0 (numpy
    # divides ints by zero as 0) and its two rows just trade places.
    with np.errstate(divide="ignore"):
        while (old[0] * new[0]).any():
            old -= old[0] // new[0] * new
            old, new = new, old
    inverse = np.array([pow(k, -1, n) if gcd(k, n) == 1 else 0 for k in range(n)],
                       dtype=np.int32)
    last = np.where(new[0] == 0, old, new)
    return last[1:] * inverse[last[0]] % n


def row_blocks(n: int, vcount: int) -> list[tuple[int, int]]:
    """The vertex row ranges (lo, hi), in order, that cover rows 0..vcount-1
    of a level-n dart block with about _BLOCK_DARTS = 2^15 darts each; the
    darts of rows lo..hi-1 are lo*n .. hi*n - 1.  Up to 2^15 darts are one
    block.  With n = 3 it blocks the F x 3 face darts the same way."""
    rows = max(1, _BLOCK_DARTS // n)
    return [(lo, min(lo + rows, vcount)) for lo in range(0, vcount, rows)]


def rotated(x, n: int):
    """sigma of the dart x, or of an int array of darts: (v, t) -> (v, t + 1
    mod n), that is x - x % n + (x + 1) % n.  It is written with // because
    numpy's % on int32 is several times slower.  This is the map's only
    sigma: no dart array of it is stored or built."""
    y = x + 1
    return y - (y // n - x // n) * n


def _derived(build):
    """The memo of FareyMap's derived tables: the first call builds the
    table, sets it read-only if it is an ndarray (a tuple table is kept as
    it is), and keeps it in the map's `_tables` under the reader's name;
    every later call returns the table that was stored first."""
    name = build.__name__

    @wraps(build)
    def read(self):
        if name not in self._tables:
            table = build(self)
            if isinstance(table, np.ndarray):
                table.flags.writeable = False
            self._tables.setdefault(name, table)
        return self._tables[name]
    return read


class FareyMap:
    """Immutable combinatorial map M3(n); build with build_map()."""

    def __init__(self, level: int, columns, vertex_grid, alpha):
        self.level = level
        for array in (columns, vertex_grid, alpha):
            array.flags.writeable = False
        self.alpha: np.ndarray = alpha
        # rows a, c, b0, d0 over the vertex ids: vertex v is a/c, and
        # a*d0 - c*b0 = 1 mod n
        self._columns: np.ndarray = columns
        self._vertex_grid: np.ndarray = vertex_grid
        self.vertex_count: int = columns.shape[1]
        self.dart_count: int = self.vertex_count * level
        self.edge_count: int = self.dart_count // 2
        self.face_count: int = self.dart_count // 3
        self._tables: dict[str, object] = {}  # filled in by _derived

    def __reduce__(self):
        """pickle and copy rebuild the map through __init__ from its stored
        arrays, so the copy's arrays are read-only too; the derived tables
        (the face leaders are a memoryview, which pickle refuses) are left
        behind and built again on first read."""
        return FareyMap, (self.level, self._columns, self._vertex_grid, self.alpha)

    # -- vertices -------------------------------------------------------

    @property
    @_derived
    def vertices(self) -> tuple[FareyFraction, ...]:
        """The vertices as FareyFractions, by vertex id, built by one
        arith.farey_fractions call on vertex_columns()."""
        return tuple(farey_fractions(*self.vertex_columns(), self.level))

    def vertex_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only int32 columns (nums, dens): vertex id v is
        nums[v]/dens[v], the rows of arith.vertex_columns(n)."""
        return self._columns[0], self._columns[1]

    # -- darts ----------------------------------------------------------

    @_derived
    def dart_targets(self) -> np.ndarray:
        """The V x n block of dart targets: row v lists the neighbour ids of
        vertex v in sigma rotation order.  The target of a dart is the
        source alpha[d] // n of the reversed dart."""
        return (self.alpha // self.level).reshape(-1, self.level)

    # -- incidence ------------------------------------------------------

    def _read_id(self, x, count: int, what: str) -> int:
        """The scalar id x as an int in 0..count - 1, a bool as 0 or 1; a
        non-integer or an id out of range raises UnknownVertex."""
        try:
            if 0 <= (i := operator.index(x)) < count:
                return i
        except TypeError:
            pass
        raise UnknownVertex(f"no {what} with id {x} in M3({self.level})")

    def vertex_id(self, v: FareyFraction) -> int:
        if isinstance(v, FareyFraction) and v.level == self.level:
            return self._vertex_grid.item(v.num, v.den)
        raise UnknownVertex(f"{v} is not a vertex of M3({self.level})")

    def vertex_ids(self, nums, dens) -> np.ndarray:
        """The vertex ids of the fractions nums[i]/dens[i] mod n, either sign
        representative, in one array shaped like nums; no FareyFraction is
        built.  Raises UnknownVertex if one of them is not a vertex, or if
        nums or dens is not an array of integers (bools read as 0 or 1); an
        empty array, which [] gives as float64, names no vertex and gives an
        empty int32 array."""
        n = self.level
        nums, dens = np.asarray(nums), np.asarray(dens)
        if (nums.dtype.kind not in "biu" and nums.size
                or dens.dtype.kind not in "biu" and dens.size):
            raise UnknownVertex(
                f"vertex_ids needs integer arrays, got {nums.dtype} and {dens.dtype}")
        if not (nums.size and dens.size):
            return np.empty(np.broadcast_shapes(nums.shape, dens.shape), dtype=np.int32)
        ids = self._vertex_grid[nums % n, dens % n]
        if (ids < 0).any():
            raise UnknownVertex(f"a fraction is not a vertex of M3({n})")
        return ids

    def dart_between(self, u: int, w: int) -> int:
        """The dart from vertex id u to vertex id w; M3(n) has no multi-edges."""
        return self._dart(self._read_id(u, self.vertex_count, "vertex"),
                          self._read_id(w, self.vertex_count, "vertex"))

    def _dart(self, u: int, w: int) -> int:
        """dart_between on ids already read by _read_id."""
        n = self.level
        a, c, b0, d0 = self._columns[:, u].tolist()
        b, d = self._columns[:2, w].tolist()
        det = (a * d - c * b) % n
        if det in (1, n - 1):
            sign = 1 if det == 1 else -1
            return u * n + sign * (b * d0 - d * b0) % n
        raise UnknownVertex(f"no edge from vertex id {u} to vertex id {w}")

    @_derived
    def edge_columns(self) -> np.ndarray:
        """The E x 2 int32 edges: row e is (src, tgt), every edge once with
        src < tgt, the rows ordered by (src, tgt).

        They are read off the V x n target block as the sorted keys
        src*V + tgt of its entries above their row id; V <= n^2/2, so the
        keys fit int32 up to level 304."""
        v = self.vertex_count
        targets = self.dart_targets()
        vid = np.arange(v, dtype=np.int32)
        key = (targets + (vid * v)[:, None])[targets > vid[:, None]]
        key.sort()
        src = key // v
        return np.column_stack((src, key - src * v))

    @_derived
    def vertex_labels(self) -> tuple[str, ...]:
        """The label str(v) of every vertex, "a/c", by vertex id; no
        FareyFraction is built."""
        nums, dens = self.vertex_columns()
        return tuple(map("{}/{}".format, nums.tolist(), dens.tolist()))

    # -- faces ----------------------------------------------------------

    @_derived
    def face_darts(self) -> np.ndarray:
        """The read-only F x 3 int32 face darts: row i lists the darts of
        face i in phi order, its least dart first, and the rows are sorted.

        They are built from alpha on first read, over the row blocks of
        build_map.  The face of dart (v, t) has the corners v, target(v, t)
        and target(v, t - 1) (phi^2 = alpha sigma^-1), all distinct; the
        darts of vertex v are v*n .. v*n + n - 1, so the dart leads its face
        iff v is its least corner.  The leaders come in dart order, block by
        block, and are counted against mu/3."""
        n, order = self.level, self.dart_count
        vid = np.arange(self.vertex_count, dtype=np.int32)
        alpha_rows = self.alpha.reshape(-1, n)
        face_darts = np.empty((order // 3, 3), dtype=np.int32)
        faces = 0  # face rows filled so far
        for lo, hi in row_blocks(n, self.vertex_count):
            block = alpha_rows[lo:hi]
            # Column t of a row rolled one column is column t - 1: a
            # concatenate, as np.roll's Python steps add about 8 us a call.
            above = block // n > vid[lo:hi, None]
            leaders = np.flatnonzero(above & np.concatenate((above[:, -1:], above[:, :-1]), axis=1))
            face = face_darts[faces:faces + leaders.shape[0]]
            faces += leaders.shape[0]
            if faces > face_darts.shape[0]:
                raise BrokenInvariant(f"more than mu/3 = {order // 3} face leaders at level {n}")
            face[:, 0] = leaders + lo * n
            # phi(d) = sigma(alpha(d)), and phi^2(d) = alpha(sigma^-1(d)) is
            # the alpha of the dart before d in its row: a row roll of the block
            face[:, 1] = rotated(block.take(leaders), n)
            face[:, 2] = np.concatenate((block[:, -1:], block[:, :-1]), axis=1).take(leaders)
        if faces != face_darts.shape[0]:
            raise BrokenInvariant(f"{faces} face leaders at level {n}, not mu/3 = {order // 3}")
        return face_darts

    @_derived
    def _face_leaders(self) -> memoryview:
        """The sorted face leaders, column 0 of the face darts; its items
        are Python ints, so a bisect over it builds no numpy scalar per
        probe."""
        return memoryview(self.face_darts()[:, 0])

    def face_vertex_ids(self, face_id: int) -> tuple[int, int, int]:
        face_id = self._read_id(face_id, self.face_count, "face")
        return tuple(self.face_vertex_rows()[face_id].tolist())

    @_derived
    def face_vertex_rows(self) -> np.ndarray:
        """The F x 3 int32 face corners: row i lists the vertex ids of face
        i, least first, in rotation order (the sources of its face darts)."""
        return self.face_darts() // self.level

    @_derived
    def _face_index(self) -> np.ndarray:
        """The face id of every dart: face i holds the darts of row i of the
        face darts."""
        index = np.empty(self.dart_count, dtype=np.int32)
        index[self.face_darts()] = np.arange(self.face_count, dtype=np.int32)[:, None]
        return index

    @_derived
    def face_neighbours(self) -> np.ndarray:
        """F x 3 array: entry k of row i is the face across the edge from
        corner k to corner k + 1 of face_vertex_rows()[i]."""
        # dart k of a face runs from corner k to corner k + 1
        return self._face_index()[self.alpha[self.face_darts()]]

    @_derived
    def vertex_translation(self) -> np.ndarray:
        """Entry v is the vertex id of the image of vertex v under
        t -> t + 1, which sends a/c to (a + c)/c."""
        a, c = self.vertex_columns()
        return self.vertex_ids(a + c, c)

    @_derived
    def face_translation(self) -> np.ndarray:
        """Entry i is the face id of the image of face i under t -> t + 1.

        Left multiplication by T commutes with sigma and alpha: it sends the
        dart (v, t), the matrix (a b0 + t*a; c d0 + t*c), to the dart
        (w, t + k_v), where (a + c, c) = (a_w, c_w) mod n and
        k_v = (b0 + d0)*d0_w - d0*b0_w mod n, below 2n^2 before the mod, for
        every face leader v: the sign of (a_w, c_w) flips only at c = n/2.
        """
        n = self.level
        b0, d0 = self._columns[2:]
        w = self.vertex_translation()
        b0w, d0w = self._columns[2:, w]
        # c = n/2 corners are pairwise non-adjacent and sort last, so none leads a face
        k = ((b0 + d0) * d0w - d0 * b0w) % n
        v, t = np.divmod(self.face_darts()[:, 0], n)
        image = w[v] * n + (t + k[v]) % n
        return self._face_index()[image]

    @_derived
    def face_orbits(self) -> np.ndarray:
        """Entry i is the least face id in the orbit of face i under t -> t + 1,
        int32: T^n = 1, so ceil(log2 n) doublings over face_translation()."""
        least, step = np.arange(self.face_count, dtype=np.int32), self.face_translation()
        for _ in range((self.level - 1).bit_length()):
            least = np.minimum(least, least[step])
            step = step[step]
        return least

    def _face_rows_by_label(self) -> np.ndarray:
        """The face vertex rows in the order of their label lists.

        Labels are distinct, so ranking each vertex by its label in string
        order and sorting the rows by the ranks of their first two corners,
        read as one number in base V, gives the order of sorted() over the
        label lists: those corners are a dart (a row starts at its least
        corner), which lies on one face, so no two rows tie.
        """
        v = self.vertex_count
        labels = self.vertex_labels()
        rank = np.empty(v, dtype=np.int64)
        rank[sorted(range(v), key=labels.__getitem__)] = np.arange(v)
        rows = self.face_vertex_rows()
        return rows.take(np.argsort(rank[rows[:, 0]] * v + rank[rows[:, 1]]), axis=0)

    def faces(self) -> list[tuple[FareyFraction, FareyFraction, FareyFraction]]:
        """Face i as the tuple of its three vertices, least (by (den, num))
        first, in the rotation order traced by the face operator.  A new
        list on each call.

        The F tuples are built with cyclic GC paused and its previous state
        restored, as stdlib timeit does: they hold only immutable fractions
        and form no cycles, so refcounting frees them, and the pause saves
        the gen-0 pass that every 700 allocations would start (35 at level
        53) and the older-generation passes those cascade into.  As with
        timeit, a gc.disable() from another thread during the build is
        undone when it ends."""
        vs = np.fromiter(self.vertices, dtype=object, count=self.vertex_count)
        c0, c1, c2 = vs.take(self.face_vertex_rows().T).tolist()
        enabled = gc.isenabled()
        gc.disable()
        try:
            return list(zip(c0, c1, c2))
        finally:
            if enabled:
                gc.enable()

    def face_id_by_vertices(self, vs) -> int:
        """Face id of the face with the given three vertices; raises UnknownVertex if absent.

        The face id is the rank of the face's least dart among the sorted
        face leaders."""
        return bisect_left(self._face_leaders(), self._least_face_dart(vs))

    def has_face(self, vs) -> bool:
        """Whether the three vertices bound a face, read off alpha alone:
        unlike face_id_by_vertices, it builds no face table."""
        try:
            self._least_face_dart(vs)
            return True
        except UnknownVertex:
            return False

    def _least_face_dart(self, vs) -> int:
        """The least dart of the face with the given three vertices; raises
        UnknownVertex if absent.

        A face {a, b, c} lies on one side of the dart a -> b, and the face on
        the left of a dart d has third corner target(sigma(alpha(d))), read
        off alpha with the closed forms of sigma and target(x) = alpha(x) // n.
        M3(n) has no two faces with the same vertex set.  The face's darts
        are d, phi(d) and phi^2(d), one from each corner; vertex v owns the
        darts v*n .. v*n + n - 1, so the least of them leaves the least
        corner and leads the face.
        """
        ids = [self.vertex_id(v) if isinstance(v, FareyFraction)
               else self._read_id(v, self.vertex_count, "vertex") for v in vs]
        if len(ids) == 3 and len(set(ids)) == 3:
            n = self.level
            a, b, c = ids
            d = self._dart(a, b)
            alpha = self.alpha.item
            for dart in (d, alpha(d)):
                second = rotated(alpha(dart), n)
                third = alpha(second)
                if third // n == c:
                    return min(dart, second, rotated(third, n))
        raise UnknownVertex(f"no face with vertices {sorted(set(ids))}")

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count


def build_map(n: int) -> FareyMap:
    """Construct M3(n): its vertex columns and alpha; the faces are built on
    first read (FareyMap.face_darts).

    The level is read with arith.as_integer: numpy integers are stored as a
    Python int, and anything else, 7.0 or "7" say, raises Unsupported.
    """
    n = as_integer(n, "build_map needs an integer level")
    if n < 3:
        raise Unsupported(f"build_map needs n >= 3, got {n}")
    if n > DEFAULT_LEVEL_BOUND:
        raise ResourceLimit(f"level {n} above bound {DEFAULT_LEVEL_BOUND}")

    pairs = vertex_columns(n)
    vcount = pairs.shape[1]
    order = mu(n)
    if vcount * n != order:
        raise BrokenInvariant(f"{vcount} vertices at level {n}, not mu/n = {order // n}")

    # Rows a, c, b0, d0 over the vertex ids, and the same rows negated.
    columns = np.concatenate((pairs, _bezout_columns(*pairs, n)))
    av, cv, b0, d0 = columns
    signed = np.stack((columns, -columns % n))
    vid = np.arange(vcount, dtype=np.int32)

    # Three tables over the cells b*m + d, 0 <= b, d < m = 2n: the vertex id w
    # with (b, d) = s*(a_w, c_w) mod n, and s*(b0_w, d0_w) mod n.  Each entry
    # sits at the four cells congruent to it mod n, so an unreduced column
    # (b, d) in [0, 2n)^2 indexes them directly.  The two signs never
    # collide: (a, c) = (-a, -c) forces gcd(a, c, n) > 1.
    m = 2 * n
    cells = (signed[:, 0] * m + signed[:, 1])[..., None] + np.array(
        [0, n, n * m, n * m + n], dtype=np.int32)
    vertex_cell = np.full(m * m, -1, dtype=np.int32)
    vertex_cell[cells] = vid[:, None]
    b0_cell = np.empty(m * m, dtype=np.int32)
    b0_cell[cells] = signed[:, 2, :, None]
    d0_cell = np.empty(m * m, dtype=np.int32)
    d0_cell[cells] = signed[:, 3, :, None]
    vertex_grid = vertex_cell.reshape(m, m)[:n, :n].copy()

    # The darts as a V x n block: dart (v, t) is row v, column t, filled a
    # block of rows at a time.  Its second column (b, d) = (b0 + t*a,
    # d0 + t*c) mod n is read, unreduced, off the table of products k*t mod
    # n: cell (b0 + t*a)*m + d0 + t*c.
    t = np.arange(n, dtype=np.int32)
    times = t[:, None] * t % n
    times_m = times * m
    base = b0 * m + d0
    alpha = np.empty(order, dtype=np.int32)
    alpha_rows = alpha.reshape(vcount, n)
    for lo, hi in row_blocks(n, vcount):
        rows = slice(lo, hi)
        cell = times_m[av[rows]] + times[cv[rows]] + base[rows, None]

        # alpha: g -> g*S = (b, -a; d, -c), the dart from w = s*(b, d) to
        # s*(-a, -c), which is w*n + s*(c*b0_w - a*d0_w) mod n.
        target = vertex_cell.take(cell)
        if (target < 0).any():
            raise BrokenInvariant(
                f"a dart column is not a vertex at level {n}; construction bug")
        step = cv[rows, None] * b0_cell.take(cell) - av[rows, None] * d0_cell.take(cell)
        # mod n: numpy's % is several times slower on negative ints
        alpha_rows[rows] = target * n + step - step // n * n
    return FareyMap(n, columns, vertex_grid, alpha)


# -- export / import -------------------------------------------------------

def gather_rows(columns: np.ndarray, ids: np.ndarray) -> list[str]:
    """The pieces columns[j, ids[r, j]], in row-major order of (r, j).

    `columns` is a k x V object array of per-vertex strings and `ids` an
    R x k array of vertex ids.  One flat take on the raveled columns, at
    ids[r, j] + j*V, picks every piece, so no Python step runs per row, and
    the pieces are the column strings themselves, not copies.  An id outside
    0..V-1 raises IndexError, as it would read another column.
    """
    k, v = columns.shape
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"a vertex id in gather_rows is outside 0..{v - 1}")
    return columns.ravel().take(ids + np.arange(0, k * v, v)).ravel().tolist()


def map_to_dict(fmap: FareyMap) -> dict:
    """The export as a dict: labels, edges by (src, tgt) id, faces sorted by labels."""
    verts = list(fmap.vertex_labels())
    edges = [[verts[i], verts[j]] for i, j in fmap.edge_columns().tolist()]
    faces = [[verts[a], verts[b], verts[c]] for a, b, c in fmap._face_rows_by_label().tolist()]
    return {"level": fmap.level, "vertices": verts, "edges": edges, "faces": faces}


def to_json(fmap: FareyMap) -> str:
    """json.dumps(map_to_dict(fmap)): per-vertex pieces put in edge and face
    order by gather_rows(), then one join.

    A label is always digits/digits, so '"' + label + '"' is its JSON string.
    """
    quoted = np.array(['"' + s + '"' for s in fmap.vertex_labels()], dtype=object)
    head, middle, tail = "[" + quoted + ", ", quoted + ", ", quoted + "], "
    parts = [f'{{"level": {fmap.level}, "vertices": [{", ".join(quoted)}], "edges": [']
    parts += gather_rows(np.stack((head, tail)), fmap.edge_columns())
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
    verts = fmap.vertex_labels()
    if sorted(verts) != sorted(data.vertices):
        return False
    edges = {frozenset((verts[i], verts[j])) for i, j in fmap.edge_columns().tolist()}
    faces = {frozenset((verts[a], verts[b], verts[c]))
             for a, b, c in fmap.face_vertex_rows().tolist()}
    return edges == data.edges and faces == data.faces


def to_dot(fmap: FareyMap) -> str:
    quoted = np.array(['"' + s + '"' for s in fmap.vertex_labels()], dtype=object)
    parts = [f"graph farey_{fmap.level} {{\n"]
    parts += ("  " + quoted + ";\n").tolist()
    parts += gather_rows(np.stack(("  " + quoted + " -- ", quoted + ";\n")), fmap.edge_columns())
    parts.append("}\n")
    return "".join(parts)
