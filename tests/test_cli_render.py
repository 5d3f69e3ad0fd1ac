import hashlib
import json
import xml.etree.ElementTree as ET

import pytest

from fareymaps.cli import main
from fareymaps.errors import UnknownVertex
from fareymaps.maps import build_map
from fareymaps.render import render_map
from fareymaps.sector import Sector, reference_sector_vertices, sector_search


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


def test_sector11_json(capsys):
    code, out, _ = run(capsys, "sector11", "--match-paper")
    data = json.loads(out)
    assert len(data["walk"]) == 198 and len(data["pairs"]) == 99


def test_verify_subcommand(capsys):
    for level in [*range(3, 32), 101]:
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


def test_render_builds_no_vertex_list():
    # the labels are read off the map, so a fresh map keeps its
    # FareyFraction vertex list unbuilt
    m = build_map(53)
    render_map(m)
    assert "vertex_labels" in m._tables and "vertices" not in m._tables


def test_render_sector_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "render", "7", "-o", str(tmp_path / "x.svg"), "--sector")
    assert code == 2 and "error" in err


def test_render_to_missing_directory_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run(capsys, "render", "5", "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()
