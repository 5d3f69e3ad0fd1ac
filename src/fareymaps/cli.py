"""Command-line front end.

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors
(including domain errors caused by the arguments).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import maps, metrics, quartic, sector
from .arith import FareyFraction
from .errors import FareyMapError
from .invariants import run_invariant_suite
from .maps import build_map, genus, mu
from .render import render_map


def _info(args) -> int:
    n = args.level
    m = build_map(n)
    print(
        f"mu={mu(n)} V={m.vertex_count} E={m.edge_count} F={m.face_count} g={genus(n)}"
    )
    return 0


def _map(args) -> int:
    m = build_map(args.level)
    if args.format == "json":
        print(maps.to_json(m))
    else:
        print(maps.to_dot(m), end="")
    return 0


def _distance(args) -> int:
    p = args.level
    f = FareyFraction.parse(args.f1, p)
    g = FareyFraction.parse(args.f2, p)
    if args.oracle:
        print(metrics.bfs_distance(build_map(p), f, g))
    else:
        print(metrics.distance_formula(f, g, p))
    return 0


def _circuits(args) -> int:
    p = args.level
    parts = metrics.decompose(p)
    s1, s2 = parts.sphere1.labels(), parts.sphere2.labels()
    poles = [str(v) for v in (parts.north, *parts.poles)]
    if args.json:
        print(json.dumps({"p": p, "S1": s1, "S2": s2, "poles": poles}))
    else:
        print("S1:", ", ".join(s1))
        print("S2:", ", ".join(s2))
        print("poles:", ", ".join(poles))
    return 0


def _klein7(args) -> int:
    m = build_map(quartic.LEVEL)
    gon = quartic.fourteen_gon(m)
    pairing = quartic.side_pairing(gon)
    if args.verify:
        print("side pairing of the 14-gon:")
        for s in gon.sides:
            direction = "anticlockwise" if s.anticlockwise else "clockwise"
            print(
                f"  side {s.index:2d} ({direction:13s}) "
                f"{', '.join(s.label_strings())} <-> side {pairing.partner(s.index)}"
            )
        print("pairs:", " ".join(f"{i}-{j}" for i, j in pairing.pairs))
        g = quartic.quotient_genus_of_gon(gon, pairing)
        print(f"quotient genus: {g}")
        print()
        print(quartic.klein_matrix_report().to_text())
        ok = (
            gon.side(1).label_strings() == ("2/0", "5/3", "3/2", "3/0")
            and set(pairing.pairs) == quartic.KLEIN_PAIRS
            and g == 3
        )
        print("verification:", "ok" if ok else "FAILED")
        return 0 if ok else 1
    print(
        json.dumps(
            {
                "sides": [
                    {
                        "index": s.index,
                        "labels": list(s.label_strings()),
                        "anticlockwise": s.anticlockwise,
                    }
                    for s in gon.sides
                ],
                "pairs": [list(p) for p in pairing.pairs],
            }
        )
    )
    return 0


def _sector11(args) -> int:
    m = build_map(sector.LEVEL)
    restrict = sector.reference_sector_vertices() if args.match_paper else None
    found = sector.sector_search(m, restrict=restrict)
    walk = sector.boundary_walk(found)
    pairing = sector.pair_boundary(walk)
    if args.table:
        for row in walk.rows():
            print(" ".join(f"{s:>5s}" for s in row))
    if args.pairs:
        labels = walk.labels()
        total = len(labels)
        for i, j in pairing.pairs:
            print(f"{i:3d} <-> {j:3d}  {labels[i]}->{labels[(i + 1) % total]}")
    if args.genus:
        print(sector.quotient_genus(walk, pairing))
    if not (args.table or args.pairs or args.genus):
        print(
            json.dumps(
                {
                    "level": sector.LEVEL,
                    "walk": walk.labels(),
                    "pairs": [list(p) for p in pairing.pairs],
                }
            )
        )
    return 0


def _render(args) -> int:
    m = build_map(args.level)
    face_ids = None
    if args.sector:
        face_ids = sector.sector_search(
            m, restrict=sector.reference_sector_vertices()
        ).face_ids
    svg = render_map(m, sector_face_ids=face_ids)
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        raise FareyMapError(f"cannot write {args.output}: {exc.strerror}") from None
    print(f"wrote {args.output}")
    return 0


def _verify(args) -> int:
    results = run_invariant_suite(args.level)
    failed = False
    for name, ok in results:
        print(("ok   " if ok else "FAIL ") + name)
        failed = failed or not ok
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fareymap",
        description="Level-n Farey maps: counts, distances, circuits, "
        "Klein's 14-gon, and the level-11 198-gon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="mu, V/E/F and genus of the level-n map")
    p.add_argument("level", type=int)
    p.set_defaults(func=_info)

    p = sub.add_parser("map", help="export the map")
    p.add_argument("level", type=int)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_map)

    p = sub.add_parser("distance", help="distance between two vertices")
    p.add_argument("level", type=int)
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--oracle", action="store_true", help="use BFS instead of the formula")
    p.set_defaults(func=_distance)

    p = sub.add_parser("circuits", help="the two circuits and the poles")
    p.add_argument("level", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_circuits)

    p = sub.add_parser("klein7", help="the 14-gon of the level-7 map")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_klein7)

    p = sub.add_parser("sector11", help="the level-11 sector and 198-gon")
    p.add_argument("--match-paper", action="store_true", dest="match_paper",
                   help="restrict the sector search to the 22 reference labels")
    p.add_argument("--table", action="store_true")
    p.add_argument("--pairs", action="store_true")
    p.add_argument("--genus", action="store_true")
    p.set_defaults(func=_sector11)

    p = sub.add_parser("render", help="schematic SVG drawing")
    p.add_argument("level", type=int)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sector", action="store_true",
                   help="draw the level-11 sector instead of the whole map")
    p.set_defaults(func=_render)

    p = sub.add_parser("verify", help="run the invariant suite for a level")
    p.add_argument("level", type=int)
    p.set_defaults(func=_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FareyMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
