"""Record golden.json, the expected outputs that the benchmark checks.

    python3 benchmarks/make_golden.py

It stores, per level 3..101, the V/E/F counts and the SHA-256 digests of the
JSON, DOT and SVG exports and the number of invariant-battery checks; the
measured diameters up to the level where the verify workload runs
`diameter`; and the level-11 walk digest, the 14-gon digest and the
`count_sectors` value of the paper pipeline.  The committed table was
recorded at commit 728c91d.  Regenerate it only for an intended change of
output, and say so, since the benchmark counts any difference as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from fareymaps import (  # noqa: E402
    boundary_walk,
    build_map,
    count_sectors,
    diameter,
    fourteen_gon,
    normalize_walk,
    reference_sector_vertices,
    render_map,
    sector_search,
    to_dot,
    to_json,
)
from fareymaps.cli import run_invariant_suite  # noqa: E402

LEVELS = range(3, 102)


def record() -> dict:
    export, checks = {}, {}
    for n in LEVELS:
        m = build_map(n)
        export[str(n)] = {
            "vef": [m.vertex_count, m.edge_count, m.face_count],
            "json": workloads.sha256(to_json(m)),
            "dot": workloads.sha256(to_dot(m)),
            "svg": workloads.sha256(render_map(m)),
        }
        suite = run_invariant_suite(n)
        failed = [name for name, ok in suite if not ok]
        if failed:
            raise SystemExit(f"level {n}: battery checks failed: {failed}")
        checks[str(n)] = len(suite)
        print(f"level {n} recorded", file=sys.stderr, flush=True)
    diameters = {str(n): diameter(build_map(n))
                 for n in range(3, workloads.DIAMETER_MAX + 1)}
    m11 = build_map(11)
    restrict = reference_sector_vertices()
    walk = normalize_walk(boundary_walk(sector_search(m11, restrict=restrict)),
                          *workloads.WALK_START)
    paper = {
        "gon_sha256": workloads.gon_digest(fourteen_gon(build_map(7))),
        "walk_sha256": workloads.walk_digest(walk),
        "count_sectors": count_sectors(m11, restrict),
    }
    return {"export": export, "verify_checks": checks, "diameter": diameters,
            "paper": paper}


if __name__ == "__main__":
    workloads.GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
