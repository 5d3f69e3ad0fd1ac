"""Static guards over the package source: no `assert` (which `python -O`
strips), no module reaching into another module's private names, and no
module outside the map construction and its invariant battery reading the
dart permutations, and no module but metrics reading the distance-2 walk's
slots."""

import ast
from pathlib import Path

import fareymaps

MODULES = sorted(Path(fareymaps.__file__).parent.glob("*.py"))


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
    # every other module works with vertices, faces and the map's face tables
    found = [
        f"{path.name}:{node.lineno} reads .{node.attr}"
        for path in MODULES
        if path.name not in ("maps.py", "invariants.py")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr in ("alpha", "sigma")
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
