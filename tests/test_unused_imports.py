"""No module imports a name it never uses.

A module-level import binds a name; the module must reference that name
somewhere, or list it in ``__all__`` (a re-export).  This stands in for
a linter's unused-import check over src/ and tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | exported]


def test_unused_imports_are_caught():
    tree = ast.parse("import os, sys\nfrom a.b import c, d as e\n__all__ = ['d']\nsys.x\n")
    assert unused_imports(tree) == ["os", "c", "e"]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 20
    found = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}
