"""The benchmark's workloads: seeded inputs, the op each one runs, and checks.

The library receives only generated inputs, level integers and vertex label
strings.  Every op starts from a level number, as a CLI invocation does, and
no object is carried from one op to the next.  An op makes all of its
library calls through `call(name, fn, *args)`, so the same body runs
untraced or traced; its outputs are checked after the op clock stops.

A run is a sequence of passes.  A pass runs each input class of the
workload once (a level of its ladder, or a prime for `paper`), in an order
drawn from the seed; the queries at each level are drawn from the seed too.
Every pass thus has the same spread of sizes, which keeps percentiles
comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cache
from math import gcd
from pathlib import Path
from typing import Callable

from fareymaps import (
    FareyFraction,
    bfs_distance,
    boundary_walk,
    build_map,
    count_sectors,
    decompose,
    diameter,
    distance_formula,
    fourteen_gon,
    is_adjacent,
    klein_matrix_report,
    normalize_walk,
    pair_boundary,
    quotient_genus,
    quotient_genus_of_gon,
    reference_sector_vertices,
    render_map,
    sector_search,
    side_pairing,
    tile_by_translates,
    to_dot,
    to_json,
)
from fareymaps.cli import run_invariant_suite

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@cache
def golden() -> dict:
    """Expected outputs recorded by make_golden.py."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# Every public call the benchmark times, as <module>.<function>.  The first
# face lookup on a fresh map builds the map's face index, so it is timed
# apart from the later lookups.
CALLS = (
    "arith.parse",
    "maps.build_map",
    "maps.faces",
    "maps.to_json",
    "maps.to_dot",
    "maps.has_face.first",
    "maps.has_face",
    "render.render_map",
    "metrics.distance_formula",
    "metrics.bfs_distance",
    "metrics.diameter",
    "metrics.decompose",
    "quartic.fourteen_gon",
    "quartic.side_pairing",
    "quartic.quotient_genus_of_gon",
    "quartic.klein_matrix_report",
    "sector.reference_sector_vertices",
    "sector.sector_search",
    "sector.boundary_walk",
    "sector.normalize_walk",
    "sector.pair_boundary",
    "sector.quotient_genus",
    "sector.tile_by_translates",
    "sector.count_sectors",
    "cli.run_invariant_suite",
)
MODULES = ("arith", "maps", "metrics", "quartic", "sector", "render", "cli")

# Per-op counts, with their units.
COUNTS = {
    "maps.darts_built": "darts/op",
    "maps.json_bytes": "B/op",
    "maps.dot_bytes": "B/op",
    "render.svg_bytes": "B/op",
    "metrics.queries": "count/op",
    "sector.sectors_counted": "count/op",
    "cli.checks_run": "count/op",
}


# -- level arithmetic, independent of the library ----------------------------

def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def darts(n: int) -> int:
    """|PSL(2, Z_n)| = n^3/2 * prod(1 - 1/p^2), the dart count of M3(n)."""
    num, den = n**3, 2
    for p in _prime_factors(n):
        num, den = num * (p * p - 1), den * p * p
    return num // den


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _shuffled(levels, rng: random.Random) -> list[int]:
    return rng.sample(levels, len(levels))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- vertex labels, independent of the library -------------------------------
# A vertex is a pair (a, c) of residues with gcd(a, c, n) = 1, up to sign.

def _vertex(rng, n):
    while True:
        a, c = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(a, c), n) == 1:
            return a, c


def _same(u, v, n) -> bool:
    return ((u[0] - v[0]) % n, (u[1] - v[1]) % n) == (0, 0) or (
        (u[0] + v[0]) % n, (u[1] + v[1]) % n) == (0, 0)


def _adjacent(u, v, n) -> bool:
    return (u[0] * v[1] - v[0] * u[1]) % n in (1, n - 1)


def _face(rng, n):
    """The image of the face {1/0, 0/1, 1/1} under a random g in SL(2, Z_n)."""
    a, c = _vertex(rng, n)
    # x*a + y*c = g over Z with g a unit mod n, then (b, d) = (-y, x) / g.
    old_r, r, old_x, x, old_y, y = a, c, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    ginv = pow(old_r % n, -1, n)
    t = rng.randrange(n)
    b, d = (-old_y * ginv + t * a) % n, (old_x * ginv + t * c) % n
    return [(a, c), (b, d), ((a + b) % n, (c + d) % n)]


def _label(rng, v, n) -> str:
    """Either sign representative, so parsing has to canonicalise."""
    a, c = v if rng.random() < 0.5 else ((-v[0]) % n, (-v[1]) % n)
    return f"{a}/{c}"


# -- export: build, faces, JSON, DOT and SVG at levels 32..53 ---------------

# Primes and composites, each op 0.06-0.5 s.  A pass takes about 1.7 s, so a
# 30 s run holds about a hundred ops; level 101 alone takes about 6 s.
EXPORT_LEVELS = (32, 36, 40, 41, 45, 48, 53)


@dataclass(frozen=True)
class ExportInput:
    level: int


def export_pass(seed: int, index: int) -> list[ExportInput]:
    return [ExportInput(n) for n in _shuffled(EXPORT_LEVELS, _rng("export", seed, index))]


def export_op(call, inp: ExportInput):
    m = call("maps.build_map", build_map, inp.level)
    faces = call("maps.faces", m.faces)
    return {
        "vef": (m.vertex_count, m.edge_count, m.face_count),
        "darts": m.dart_count,
        "faces": len(faces),
        "json": call("maps.to_json", to_json, m),
        "dot": call("maps.to_dot", to_dot, m),
        "svg": call("render.render_map", render_map, m),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def export_check(inp: ExportInput, out) -> list[str]:
    n = inp.level
    expected = golden()["export"][str(n)]
    mu = darts(n)
    problems = []
    if out["vef"] != (mu // n, mu // 2, mu // 3) or list(out["vef"]) != expected["vef"]:
        problems.append(f"V/E/F {out['vef']} at level {n}")
    if out["faces"] != mu // 3:
        problems.append(f"faces() gave {out['faces']} faces at level {n}")
    for key in ("json", "dot", "svg"):
        if sha256(out[key]) != expected[key]:
            problems.append(f"{key} digest differs at level {n}")
    return problems


def export_counts(inp, out) -> dict:
    return {
        "maps.darts_built": out["darts"],
        "maps.json_bytes": len(out["json"]),
        "maps.dot_bytes": len(out["dot"]),
        "render.svg_bytes": len(out["svg"]),
    }


# -- verify: invariant battery plus point queries over the whole range -------

DIAMETER_MAX = 22
DISTANCE_QUERIES = 6
FACE_QUERIES = 6  # half real faces, half not
# The whole range: the tiny levels, the O(V^2) battery branch up to 13, the
# diameter levels, and larger primes and composites up to 101.  A pass takes
# about 2.2 s, so a 30 s run holds over a hundred ops.
VERIFY_LEVELS = (3, 6, 7, 12, 13, 17, 22, 31, 53, 64, 101)


@dataclass(frozen=True)
class VerifyInput:
    level: int
    pairs: tuple[tuple[str, str], ...]
    triples: tuple[tuple[str, str, str], ...]
    faces: tuple[bool, ...]  # whether each triple was drawn as a real face


def _distance_pair(rng, n, kind):
    poles = [(a, 0) for a in range(1, n // 2 + 1) if gcd(a, n) == 1]
    if kind == "edge":
        return _face(rng, n)[:2]
    if kind == "poles" and len(poles) >= 2:
        return rng.sample(poles, 2)
    u = _vertex(rng, n)
    while True:
        v = _vertex(rng, n)
        if not _same(u, v, n):
            return [u, v]


def _non_face(rng, n):
    u, v, _ = _face(rng, n)
    for _ in range(100):
        x = _vertex(rng, n)
        if not (_adjacent(u, x, n) and _adjacent(v, x, n)):
            return [u, v, x]
    return [u, v, u]  # every triple is a face of M3(3); repeat a vertex instead


def verify_pass(seed: int, index: int) -> list[VerifyInput]:
    rng = _rng("verify", seed, index)
    out = []
    for n in _shuffled(VERIFY_LEVELS, rng):
        kinds = ("random", "edge", "poles")
        pairs = [_distance_pair(rng, n, kinds[k % 3]) for k in range(DISTANCE_QUERIES)]
        real = [k % 2 == 0 for k in range(FACE_QUERIES)]
        rng.shuffle(real)
        triples = [_face(rng, n) if r else _non_face(rng, n) for r in real]
        for t in triples:
            rng.shuffle(t)
        out.append(VerifyInput(
            n,
            tuple(tuple(_label(rng, v, n) for v in p) for p in pairs),
            tuple(tuple(_label(rng, v, n) for v in t) for t in triples),
            tuple(real),
        ))
    return out


def verify_op(call, inp: VerifyInput):
    n = inp.level
    parse = FareyFraction.parse
    suite = call("cli.run_invariant_suite", run_invariant_suite, n)
    m = call("maps.build_map", build_map, n)
    distances = []
    for s1, s2 in inp.pairs:
        f, g = call("arith.parse", parse, s1, n), call("arith.parse", parse, s2, n)
        formula = (call("metrics.distance_formula", distance_formula, f, g, n)
                   if is_prime(n) and n >= 5 else None)
        distances.append((f, g, formula, call("metrics.bfs_distance", bfs_distance, m, f, g)))
    faces = []
    for k, labels in enumerate(inp.triples):
        vs = [call("arith.parse", parse, s, n) for s in labels]
        name = "maps.has_face" if k else "maps.has_face.first"
        faces.append((vs, call(name, m.has_face, vs)))
    diam = call("metrics.diameter", diameter, m) if n <= DIAMETER_MAX else None
    return {"suite": suite, "darts": m.dart_count, "distances": distances,
            "faces": faces, "diameter": diam}


def verify_check(inp: VerifyInput, out) -> list[str]:
    n = inp.level
    problems = [f"check '{name}' failed at level {n}" for name, ok in out["suite"] if not ok]
    if len(out["suite"]) != golden()["verify_checks"][str(n)]:
        problems.append(f"{len(out['suite'])} battery checks at level {n}")
    # Measured diameters: 1 at n = 3, 2 at n = 4 and 6, 3 elsewhere.
    bound = golden()["diameter"].get(str(n), 3)
    for f, g, formula, bfs in out["distances"]:
        if formula is not None and formula != bfs:
            problems.append(f"formula {formula} != BFS {bfs} for {f}, {g} at level {n}")
        if not 1 <= bfs <= bound or (bfs == 1) != is_adjacent(f, g):
            problems.append(f"BFS distance {bfs} for {f}, {g} at level {n}")
    for (vs, found), real in zip(out["faces"], inp.faces):
        f, g, h = vs
        oracle = is_adjacent(f, g) and is_adjacent(g, h) and is_adjacent(f, h)
        if not found == real == oracle:
            problems.append(f"has_face {found}, drawn {real}, oracle {oracle} "
                            f"for {f}, {g}, {h} at level {n}")
    if n <= DIAMETER_MAX and out["diameter"] != golden()["diameter"][str(n)]:
        problems.append(f"diameter {out['diameter']} at level {n}")
    return problems


def verify_counts(inp, out) -> dict:
    return {
        "maps.darts_built": out["darts"],
        "metrics.queries": len(out["distances"]),
        "cli.checks_run": len(out["suite"]),
    }


# -- paper: Klein's 14-gon at level 7 and the 198-gon at level 11 -------------

ANCHOR = ("1/0", "0/1", "1/1")  # the central triangle
WALK_START = ("1/5", "1/4")  # the directed edge the paper's table opens with
KLEIN_PAIRS = ((1, 6), (2, 11), (3, 8), (4, 13), (5, 10), (7, 12), (9, 14))
KLEIN_MATRIX = (113, -35, 42, -13)
DECOMPOSE_PRIMES = tuple(p for p in range(5, 62) if is_prime(p))


@dataclass(frozen=True)
class PaperInput:
    prime: int  # for decompose


def paper_pass(seed: int, index: int) -> list[PaperInput]:
    return [PaperInput(p) for p in _shuffled(DECOMPOSE_PRIMES, _rng("paper", seed, index))]


def paper_op(call, inp: PaperInput):
    parse = FareyFraction.parse
    m7 = call("maps.build_map", build_map, 7)
    anchor7 = [call("arith.parse", parse, s, 7) for s in ANCHOR]
    has7 = call("maps.has_face.first", m7.has_face, anchor7)
    gon = call("quartic.fourteen_gon", fourteen_gon, m7)
    pairing7 = call("quartic.side_pairing", side_pairing, gon)
    genus7 = call("quartic.quotient_genus_of_gon", quotient_genus_of_gon, gon, pairing7)
    report = call("quartic.klein_matrix_report", klein_matrix_report)

    m11 = call("maps.build_map", build_map, 11)
    anchor11 = [call("arith.parse", parse, s, 11) for s in ANCHOR]
    has11 = call("maps.has_face.first", m11.has_face, anchor11)
    restrict = call("sector.reference_sector_vertices", reference_sector_vertices)
    reference = call("sector.sector_search", sector_search, m11, restrict)
    free = call("sector.sector_search", sector_search, m11)
    walk = call("sector.boundary_walk", boundary_walk, reference)
    walk = call("sector.normalize_walk", normalize_walk, walk, *WALK_START)
    pairing11 = call("sector.pair_boundary", pair_boundary, walk)
    genus11 = call("sector.quotient_genus", quotient_genus, walk, pairing11)
    tiles = call("sector.tile_by_translates", tile_by_translates, reference)
    count = call("sector.count_sectors", count_sectors, m11, restrict)
    parts = call("metrics.decompose", decompose, inp.prime)
    return {
        "has_anchor": (has7, has11), "darts": m7.dart_count + m11.dart_count,
        "gon": gon, "pairs7": pairing7.pairs, "genus7": genus7, "report": report,
        "faces11": m11.face_count, "reference": reference, "free": free, "walk": walk,
        "pairs11": pairing11.pairs, "genus11": genus11, "tiles": tiles, "count": count,
        "decomposition": parts,
    }


def gon_digest(gon) -> str:
    return sha256(json.dumps([[s.index, s.label_strings(), s.anticlockwise] for s in gon.sides]))


def walk_digest(walk) -> str:
    return sha256(" ".join(walk.labels()))


def paper_check(inp: PaperInput, out) -> list[str]:
    expected = golden()["paper"]
    report = out["report"]
    m = report.matrix
    walk = out["walk"]
    tiles = out["tiles"]
    expect = {
        "central triangle is a face at 7 and 11": out["has_anchor"] == (True, True),
        "14-gon sides": gon_digest(out["gon"]) == expected["gon_sha256"],
        "pairs 1-6 ... 13-4": out["pairs7"] == KLEIN_PAIRS,
        "14-gon quotient genus 3": out["genus7"] == 3,
        "Klein's matrix in Gamma(7)": (m.a, m.b, m.c, m.d) == KLEIN_MATRIX and report.in_gamma7,
        "reference sector of 20 faces": len(out["reference"]) == len(out["free"]) == 20,
        "198-slot walk, 11 rows of 18 fresh slots": (
            len(walk) == 198 and walk.row_length == 18 and len(walk.rows()) == 11),
        "walk labels": walk_digest(walk) == expected["walk_sha256"],
        "99 boundary pairs": len(out["pairs11"]) == 99,
        "quotient genus 26": out["genus11"] == 26,
        "11 translates tile the 220 faces": (
            len(tiles) == 11 and all(len(t) == 20 for t in tiles)
            and len(set().union(*tiles)) == out["faces11"] == 220),
        "count_sectors": out["count"] == expected["count_sectors"],
    }
    problems = [name for name, ok in expect.items() if not ok]
    p, parts = inp.prime, out["decomposition"]
    sizes = (1, len(parts.sphere1), len(parts.sphere2.support()), len(parts.poles))
    if sum(sizes) != (p * p - 1) // 2 or len(parts.sphere2) != p * (p - 4):
        problems.append(f"decompose({p}) sizes {sizes}")
    return problems


def paper_counts(inp, out) -> dict:
    return {"maps.darts_built": out["darts"], "sector.sectors_counted": out["count"]}


# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    make_pass: Callable  # (seed, pass index) -> op inputs
    op: Callable  # (call, input) -> outputs
    check: Callable  # (input, outputs) -> list of problems
    counts: Callable  # (input, outputs) -> per-op counts
    levels: Callable  # input -> the levels whose maps the op builds
    tail: int  # the tail percentile; a run holds ten ops beyond it


WORKLOADS = {
    "export": Workload(export_pass, export_op, export_check, export_counts,
                       lambda inp: (inp.level,), 75),
    "paper": Workload(paper_pass, paper_op, paper_check, paper_counts,
                      lambda inp: (7, 11), 95),
    "verify": Workload(verify_pass, verify_op, verify_check, verify_counts,
                       lambda inp: (inp.level,), 75),
}
