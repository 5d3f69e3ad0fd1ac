"""Static guards over the package source: no `assert` (which `python -O`
strips), no module reaching into another module's private names, and no
module outside the map construction and its invariant battery reading the
dart permutations or naming the face darts, no module but metrics reading
the distance-2 walk's slots, no module but gluing naming the polygon
matcher or genus count, no
id pipeline (the polygon type of `gluing` among them) reading a map's
FareyFraction vertex list, no array set read-only outside the map's
constructor and the memo of its derived tables, and no FareyFraction made
without its constructor outside arith.farey_fractions.  sigma is the closed form
maps.rotated, so no module reads a sigma attribute.  sector reads its pinned
LEVEL only in the search's guard and the paper's reference labels.  The
README's quick start must run, and the map and walk readers it names must
exist."""

import ast
import re
from pathlib import Path

import fareymaps

MODULES = sorted(Path(fareymaps.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def sibling_aliases(tree):
    """Local names bound to sibling modules by `from . import x`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"arith", "maps", "metrics", "sector", "cli"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_names_from_sibling_modules():
    found = []
    for path in MODULES:
        tree = parse(path)
        siblings = sibling_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("fareymaps")
            ):
                found += [
                    f"{path.name}:{node.lineno} imports {a.name}"
                    for a in node.names
                    if is_private(a.name)
                ]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and is_private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    assert found == []


def test_dart_permutations_read_only_by_maps_and_invariants():
    # every other module works with vertices, faces and the map's face tables;
    # sigma is maps.rotated, not an array any module reads
    found = [
        f"{path.name}:{node.lineno} reads .{node.attr}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and (
            node.attr == "sigma"
            or node.attr == "alpha" and path.name not in ("maps.py", "invariants.py"))
    ]
    assert found == []


def test_face_darts_named_only_by_maps_and_invariants():
    # maps turns the face darts into the face corners face_vertex_rows(),
    # which every other module reads; the battery checks the face darts
    found = [
        f"{path.name}:{node.lineno} names {name}"
        for path in MODULES
        if path.name not in ("maps.py", "invariants.py")
        for node in ast.walk(parse(path))
        for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None)]
        if name in ("face_darts", "_face_darts")
    ]
    assert found == []


def test_second_circuit_slots_read_only_by_metrics():
    # the prime layout has one owner: other modules read metrics.decomposition_ids
    found = [
        f"{path.name}:{node.lineno} reads second_circuit_slots"
        for path in MODULES
        if path.name != "metrics.py"
        for node in ast.walk(parse(path))
        if (isinstance(node, ast.Name) and node.id == "second_circuit_slots")
        or (isinstance(node, ast.Attribute) and node.attr == "second_circuit_slots")
        or (isinstance(node, ast.alias) and node.name == "second_circuit_slots")
    ]
    assert found == []


def test_fourteen_gon_is_laid_out_by_arithmetic():
    # both polygons are laid out from a seed by gluing.Polygon.from_seed
    # (arith.seed_translates, as the prime layout does, then check_slots);
    # quartic reads no dart table or distance-2 walk of the map
    names = {path.stem: {getattr(node, "id", None) or getattr(node, "attr", None)
                         or getattr(node, "name", None) for node in ast.walk(parse(path))}
             for path in MODULES}
    assert not names["quartic"] & {"dart_targets", "decomposition_ids", "_quad_at", "_chambers"}
    assert {stem for stem, found in names.items() if "seed_translates" in found} == {
        "arith", "metrics", "gluing"}
    for stem in ("quartic", "sector"):
        assert not names[stem] & {"seed_translates", "check_slots"}, stem
        assert "from_seed" in names[stem], stem


def level_readers(tree):
    """The names of the functions that read the module-level name LEVEL,
    "" for a read at module level."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Name) and node.id == "LEVEL" and isinstance(node.ctx, ast.Load):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_sector_reads_the_paper_level_only_in_its_guard_and_data():
    # the sector, its tiles and its walk take their level from the map;
    # 11 pins only the search's guard and the paper's reference labels
    sector = next(path for path in MODULES if path.name == "sector.py")
    assert level_readers(parse(sector)) == {"_require_level", "reference_sector_vertices"}


def test_gluing_kernels_read_only_through_the_polygon():
    # the 14-gon and the 198-gon pair and glue through gluing.Polygon, so
    # no other module names the matcher or the genus count
    found = [
        f"{path.name}:{node.lineno} names {name}"
        for path in MODULES
        if path.name != "gluing.py"
        for node in ast.walk(parse(path))
        for name in [getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None)]
        if name in ("reversed_pairs", "polygon_genus")
    ]
    assert found == []


def test_id_pipelines_read_no_vertex_list():
    # the battery, the drawing, the level-11 walk and the polygon type run on
    # vertex ids and read labels off the map, so none of them builds m.vertices
    found = [
        f"{path.name}:{node.lineno} reads .vertices"
        for path in MODULES
        if path.name in ("gluing.py", "invariants.py", "render.py", "sector.py")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "vertices"
    ]
    assert found == []


def writeable_assignments(tree):
    """The dotted names of the classes and functions around each assignment
    to `<array>.flags.writeable`, "" at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Assign):
            found.extend(scope for target in node.targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Attribute) and sub.attr == "writeable"
                         and isinstance(sub.value, ast.Attribute) and sub.value.attr == "flags")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_arrays_are_frozen_only_by_the_map_and_its_memo():
    # every derived table of a map goes through the memo maps._derived, so
    # only the stored arrays and the memo set an array read-only
    allowed = {"maps.py": {"FareyMap.__init__", "_derived.read"}}
    scopes = {path.name: writeable_assignments(parse(path)) for path in MODULES}
    found = [f"{name}: {scope or 'module level'}" for name, names in scopes.items()
             for scope in names if scope not in allowed.get(name, ())]
    assert found == []
    assert set(scopes["maps.py"]) == allowed["maps.py"]


def unchecked_fraction_builders(tree, module):
    """The dotted names of the functions that name FareyFraction, or sit in
    its class, and make or fill an object past its constructor: a __new__, a
    slot descriptor's __set__ or an __setattr__."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    inner = list(ast.walk(child))
                    names = ".FareyFraction." in name or any(
                        isinstance(n, ast.Name) and n.id == "FareyFraction" for n in inner)
                    if names and any(isinstance(n, ast.Attribute)
                                     and n.attr in ("__new__", "__set__", "__setattr__")
                                     for n in inner):
                        found.append(name)
                visit(child, name)
            else:
                visit(child, scope)

    visit(tree, module)
    return found


def test_fractions_skip_their_constructor_only_in_farey_fractions():
    # the fractions' checks run on the arrays in one place, so the unchecked
    # builder stays there; metrics' checked Circuit names no FareyFraction
    found = [name for path in MODULES for name in unchecked_fraction_builders(parse(path), path.stem)]
    assert found == ["arith.farey_fractions"]


def test_readme_quick_start_runs_and_names_live_readers(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # each print's trailing comment is its output, or a prefix of it up to "..."
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments)
    for got, want in zip(printed, comments):
        head, dots, _ = want.partition("...")
        assert got.startswith(head) if dots else got == want, (got, want)
    # every backticked m.<name> and walk.<name> outside the code blocks
    readers = {"m": namespace["m11"], "walk": namespace["walk"]}
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    named = {(owner, name) for span in re.findall(r"`([^`]+)`", prose)
             for owner, name in re.findall(r"\b(m|walk)\.([A-Za-z_]\w*)", span)}
    assert named, "no m.<name> or walk.<name> found"
    assert sorted(f"{o}.{n}" for o, n in named if not hasattr(readers[o], n)) == []
