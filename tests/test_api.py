"""Every public name has a caller: each name in the `__all__` of an `rrauth`
module is read (an `ast.Name`, or the attribute of an `ast.Attribute`, in
load context) somewhere in `src/rrauth` or `benchmarks/`, outside the
top-level definition that binds it. A name only tests read is not API."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rrauth"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def reads(tree: ast.Module):
    """(name read, top-level definition it sits in or None) for every load
    of a name or an attribute in the module."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, owner


def unread_exports(modules, sources) -> dict[str, list[str]]:
    """The exported names of each module (a path among `sources`) that no
    source reads outside their own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    seen = {(name, path, owner) for path, tree in trees.items() for name, owner in reads(tree)}
    return {path.stem: [name for name in exports(trees[path])
                        if not any(n == name and (p, o) != (path, name) for n, p, o in seen)]
            for path in modules}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_export_is_read(module):
    path = PACKAGE / f"{module}.py"
    assert unread_exports([path], SOURCES) == {module: []}


def test_a_name_read_only_in_its_own_definition_is_flagged(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('__all__ = ["used", "recursive", "unused"]\n'
                    "def used():\n    return 1\n"
                    "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
                    "def unused():\n    return used()\n", encoding="utf-8")
    assert unread_exports([path], [path]) == {"m": ["recursive", "unused"]}
