import hashlib
import json
import math
import xml.etree.ElementTree as ET
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from fareymaps import render
from fareymaps.cli import main
from fareymaps.errors import BrokenInvariant, UnknownVertex
from fareymaps.maps import build_map
from fareymaps.metrics import decomposition_ids, is_prime_level
from fareymaps.render import layout_positions, render_map
from fareymaps.sector import Sector, reference_sector_vertices, sector_search

# the export digests the benchmark recorded (read only)
GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json"
GOLDEN_EXPORT = json.loads(GOLDEN.read_text(encoding="utf-8"))["export"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys):
    code, out, _ = run(capsys, "info", "7")
    assert code == 0
    assert out.strip() == "mu=168 V=24 E=84 F=56 g=3"


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "7", "1/0", "2/0")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "distance", "7", "1/0", "2/0", "--oracle")
    assert code == 0 and out.strip() == "3"
    # composite level: the formula is refused, the oracle still works
    code, _, err = run(capsys, "distance", "6", "1/0", "1/2")
    assert code == 2 and "error" in err
    code, out, _ = run(capsys, "distance", "6", "1/0", "1/2", "--oracle")
    assert code == 0 and out.strip() == "2"


def test_circuits(capsys):
    code, out, _ = run(capsys, "circuits", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 7
    assert data["S1"] == [f"{k}/1" for k in range(7)]
    assert len(data["S2"]) == 21
    assert data["poles"] == ["1/0", "2/0", "3/0"]
    code, out, _ = run(capsys, "circuits", "7")
    assert code == 0 and out.startswith("S1: 0/1, 1/1")
    # the slot checks of the prime layout hold at every prime, plain and --json
    for p in filter(is_prime_level, range(5, 102)):
        code, out, _ = run(capsys, "circuits", str(p))
        assert code == 0 and out.startswith("S1: 0/1, 1/1"), p
        code, out, _ = run(capsys, "circuits", str(p), "--json")
        data = json.loads(out)
        assert code == 0 and (data["p"], len(data["S1"]), len(data["S2"])) == (p, p, p * (p - 4))


def test_map_export(capsys):
    code, out, _ = run(capsys, "map", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 12 and len(data["edges"]) == 30
    code, out, _ = run(capsys, "map", "5", "--format", "dot")
    assert code == 0 and out.startswith("graph farey_5 {")


def test_klein7_verify(capsys):
    code, out, _ = run(capsys, "klein7", "--verify")
    assert code == 0
    assert "verification: ok" in out
    assert "1-6" in out and "94/35" in out
    code, out, _ = run(capsys, "klein7")
    data = json.loads(out)
    assert data["sides"][0]["labels"] == ["2/0", "5/3", "3/2", "3/0"]
    assert [1, 6] in data["pairs"]


def test_sector11_genus(capsys):
    code, out, _ = run(capsys, "sector11", "--match-paper", "--genus")
    assert code == 0 and out.strip() == "26"


def test_sector11_table(capsys):
    code, out, _ = run(capsys, "sector11", "--match-paper", "--table")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 11 and all(len(r) == 19 for r in rows)
    assert rows[0][:5] == ["1/5", "1/4", "1/3", "2/5", "1/2"]
    # the free sector's walk has the same shape
    code, out, _ = run(capsys, "sector11", "--table")
    assert code == 0
    assert [len(line.split()) for line in out.strip().splitlines()] == [19] * 11


def test_sector11_json(capsys):
    code, out, _ = run(capsys, "sector11", "--match-paper")
    data = json.loads(out)
    assert len(data["walk"]) == 198 and len(data["pairs"]) == 99
    # --pairs prints the pairs of the JSON view, here on the free sector
    pairs = json.loads(run(capsys, "sector11")[1])["pairs"]
    code, out, _ = run(capsys, "sector11", "--pairs")
    assert code == 0
    assert [[int(w) for w in line.split()[:3:2]] for line in out.strip().splitlines()] == pairs


def test_verify_subcommand(capsys):
    for level in range(3, 102):
        code, out, _ = run(capsys, "verify", str(level))
        assert code == 0, (level, out)
        assert "FAIL" not in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["distance", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_malformed_labels_are_usage_errors(capsys):
    for label in ("x/1", "1/", "1/0/2"):
        code, out, err = run(capsys, "distance", "7", label, "1/0")
        assert code == 2 and out == "" and label in err


def test_bare_integer_label_reads_as_over_one(capsys):
    code, out, _ = run(capsys, "distance", "7", "1", "1/0")
    assert code == 0 and out.strip() == "1"


def test_bad_level_is_usage_error(capsys):
    code, _, err = run(capsys, "info", "2")
    assert code == 2 and "error" in err


def test_render_deterministic_and_well_formed(tmp_path, capsys):
    m7 = build_map(7)
    svg = render_map(m7)
    assert svg == render_map(build_map(7))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert len(texts) == 24 and "1/0" in texts

    out = tmp_path / "m7.svg"
    code, _, _ = run(capsys, "render", "7", "-o", str(out))
    assert code == 0 and out.read_text(encoding="utf-8") == svg


def test_render_sector(tmp_path):
    m11 = build_map(11)
    sec = sector_search(m11, restrict=reference_sector_vertices())
    svg = render_map(m11, sector_face_ids=sec.face_ids)
    root = ET.fromstring(svg)
    polys = [el for el in root.iter() if el.tag.endswith("polygon")]
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert len(polys) == 20
    assert len(texts) == 22


@pytest.mark.parametrize(
    "restrict, digest",
    [
        (reference_sector_vertices(), "3d01b54468615e7147282c9cff506ddb0499989831488ba673c765f843ce8435"),
        (None, "7d95e1e52b24a51f0821fbc9b7db471cb9d8d34855dd2d45ebb8f3d11f69afd3"),
    ],
    ids=["reference", "free"],
)
def test_render_sector_digest(restrict, digest):
    # SHA-256 of the shaded sector drawings, pinned byte for byte
    m11 = build_map(11)
    sec = sector_search(m11, restrict=restrict)
    svg = render_map(m11, sector_face_ids=sec.face_ids)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest


# SHA-256 of the paper commands' stdout, pinned byte for byte: klein7 plain
# and --verify, and sector11 under all 16 sets of its four flags
PAPER_COMMAND_DIGESTS = [
    ("klein7", "4a34ff473f217bd0c7035d956c7c9dde2a7ab5fba100382bda8f3f7338fabb25"),
    ("klein7 --verify", "01f0e4afff8557cd5b363d6ab992190a35a5b7a474e294ff561fa8fce940e396"),
    ("sector11", "344cd20c270284790891dfda274b7bc8a425e228bf2e1587c0db3a71568324fb"),
    ("sector11 --genus", "20d2add851bf39edcc6b5e830930f962db7e19dffa2cab8610eed551eda6c302"),
    ("sector11 --pairs", "7f0438d4f091fd9ff67808b943bbe48f3e2a578cdee46c4eb71aa029db7a17d6"),
    ("sector11 --pairs --genus", "b4b6421f86a55eb840a1599b0c8d3cfea5b9c6c71a7896e1fac2ef770f0eec63"),
    ("sector11 --table", "91f78cdb46dcd7bf14fadc3570347ab4df10c7991ce0b919bd91bc59ae8221b4"),
    ("sector11 --table --genus", "3ab6b440c18b840981f3261fb11c85eeef695739efe9ba3be8e2844114d5d928"),
    ("sector11 --table --pairs", "e0bef9381a3dd8f343ac55f9395dc8b32af0c79ac8abd5397d71d99e21ea8029"),
    ("sector11 --table --pairs --genus", "a47eb00daefb5d5e5b3ccffc65cd49b5fc0c53be683694f20d6c6b32deffd922"),
    ("sector11 --match-paper", "d3e1d7199732950cfd31d1e1a2f86cb3b29b8f976c29776d805465df4dd81307"),
    ("sector11 --match-paper --genus", "20d2add851bf39edcc6b5e830930f962db7e19dffa2cab8610eed551eda6c302"),
    ("sector11 --match-paper --pairs", "70fa91b51df18aad9c93c3566e7452c3af124178138d83d1ae7f134602f06d20"),
    ("sector11 --match-paper --pairs --genus", "f7300146e334d5f0fcbfc48b1a6c74e63054f97cfac827ac1e889d23f8fccaf1"),
    ("sector11 --match-paper --table", "0b26454cdb3cc4a953b04d2913571a15a8d1faf1e799755b890462bd996a4d38"),
    ("sector11 --match-paper --table --genus", "54e8a5fe89fab7b94327ac8c919845f2b6ac3ca28a3fb541c8381ffaf1a6da7b"),
    ("sector11 --match-paper --table --pairs", "7faf0fc0e446399e07c6cf7c602ecb4dbbe1c7c8988a10e42b216427a74962ef"),
    ("sector11 --match-paper --table --pairs --genus", "5b8adeeac73f14e1cc86bb1372b2f542c8c6432605559c66483e47ef67b9ce8b"),
]


@pytest.mark.parametrize("argv, digest", PAPER_COMMAND_DIGESTS, ids=[a for a, _ in PAPER_COMMAND_DIGESTS])
def test_paper_command_output_digest(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("face_ids", [[-1], [220], [9999], [1.5], ["3"]])
def test_sector_face_ids_out_of_range_are_unknown(face_ids):
    # M3(11) has faces 0..219; a negative id is not read from the end, and
    # a float or a string is no face id
    m11 = build_map(11)
    with pytest.raises(UnknownVertex):
        Sector(m11, face_ids)
    with pytest.raises(UnknownVertex):
        render_map(m11, sector_face_ids=face_ids)


@pytest.mark.parametrize("face_ids", [[3, 3], [3, True, 1], [0, False]])
def test_sector_face_ids_must_be_distinct(face_ids):
    # a bool reads as the id 0 or 1, so [3, True, 1] repeats face 1
    m11 = build_map(11)
    with pytest.raises(UnknownVertex):
        Sector(m11, face_ids)
    with pytest.raises(UnknownVertex, match="not distinct"):
        render_map(m11, sector_face_ids=face_ids)


def test_render_composite_and_small(tmp_path):
    for n in (5, 6):
        svg = render_map(build_map(n))
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert len(texts) == 12


@pytest.mark.parametrize("n", range(3, 102))
def test_render_map_draws_every_level(n):
    # the prime layout and the BFS shells place every vertex, one label each,
    # and the drawing has its golden SHA-256, which pins every formatted
    # coordinate
    m = build_map(n)
    svg = render_map(m)
    assert svg.count("<text ") == m.vertex_count
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == GOLDEN_EXPORT[str(n)]["svg"]


def reference_layout(fmap):
    """The layout by the scalar rules, one math.sin and math.cos call per
    vertex: 1/0 at the origin; at a prime level the ring on radius 1, the
    walk on radius 2 at the slot of each vertex's first visit and the poles
    on radius 3; otherwise shell d of a plain BFS from 1/0 on radius d, in
    id order.  Slot j of L on radius r sits at angle a = 2*pi*j/L, at
    (r sin a, -r cos a)."""
    def polar(radius, angle):
        return radius * math.sin(angle), -radius * math.cos(angle)

    positions = {0: (0.0, 0.0)}
    if is_prime_level(fmap.level):
        _, ring, walk, outer = (ids.tolist() for ids in decomposition_ids(fmap))
        for j, vid in enumerate(ring):
            positions[vid] = polar(1.0, 2 * math.pi * j / len(ring))
        for j, vid in enumerate(walk):
            if vid not in positions:
                positions[vid] = polar(2.0, 2 * math.pi * j / len(walk))
        for j, vid in enumerate(outer):
            positions[vid] = polar(3.0, 2 * math.pi * j / len(outer))
        return positions
    targets = fmap.dart_targets().tolist()
    dist, queue = {0: 0}, deque([0])
    while queue:
        u = queue.popleft()
        for w in targets[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    for d in range(1, max(dist.values()) + 1):
        shell = sorted(v for v, dv in dist.items() if dv == d)
        for j, vid in enumerate(shell):
            positions[vid] = polar(float(d), 2 * math.pi * j / len(shell))
    return positions


@pytest.mark.parametrize("n", [5, 7, 11, 13, 6, 12, 30])
def test_layout_positions_equal_the_scalar_reference(n):
    # exact float equality: the columns hold the scalar rules' floats
    m = build_map(n)
    x, y = layout_positions(m)
    expected = reference_layout(m)
    assert sorted(expected) == list(range(m.vertex_count))
    assert x.shape == y.shape == (m.vertex_count,)
    assert np.isfinite(x).all() and np.isfinite(y).all()
    assert (x[0], y[0]) == (0.0, 0.0)
    assert list(zip(x.tolist(), y.tolist())) == [expected[v] for v in range(m.vertex_count)]


@pytest.mark.parametrize("n, layer", [(7, "decomposition_ids"), (6, "bfs_distances")])
def test_layout_positions_refuse_an_unplaced_vertex(monkeypatch, n, layer):
    # drop the last pole, or mark the last vertex unreached
    real = getattr(render, layer)

    def losing(fmap, *args):
        out = real(fmap, *args)
        if layer == "decomposition_ids":
            return (*out[:3], out[3][:-1])
        out[0, -1] = -1
        return out

    monkeypatch.setattr(render, layer, losing)
    with pytest.raises(BrokenInvariant, match="no place"):
        layout_positions(build_map(n))


def test_render_builds_no_vertex_list():
    # the labels are read off the map, so a fresh map keeps its
    # FareyFraction vertex list unbuilt
    m = build_map(53)
    render_map(m)
    assert "vertex_labels" in m._tables and "vertices" not in m._tables


def test_render_sector_usage_error(capsys, tmp_path):
    # the search's own level guard refuses the map; nothing is written
    target = tmp_path / "x.svg"
    code, out, err = run(capsys, "render", "7", "-o", str(target), "--sector")
    assert (code, out, err) == (2, "", "error: expected a level-11 map, got level 7\n")
    assert not target.exists()


def test_render_sector_command(capsys, tmp_path):
    # the CLI writes the reference sector's drawing, pinned byte for byte
    target = tmp_path / "sector.svg"
    code, out, err = run(capsys, "render", "11", "--sector", "-o", str(target))
    assert (code, out, err) == (0, f"wrote {target}\n", "")
    m11 = build_map(11)
    svg = target.read_text(encoding="utf-8")
    assert svg == render_map(m11, sector_face_ids=sector_search(m11, reference_sector_vertices()).face_ids)
    digest = "3d01b54468615e7147282c9cff506ddb0499989831488ba673c765f843ce8435"
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_render_to_missing_directory_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run(capsys, "render", "5", "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()
