"""Every module-level name of src/ is read by the program or its checks.

The public surface is what the CLI, the ``verify`` suites and their
oracles use: a module-level def, class or constant of src/ must be read
somewhere in src/ outside its own body, in the benchmark harness under
perfbench/, or in ``tests/test_acceptance.py``.  A name that only the
unit tests read is code kept alive by its own tests.

A read is an AST name or attribute; ``__all__`` strings, docstrings and
comments do not count, and neither does an import on its own.  This
stands in for a dead-code lint over src/, and is weaker than one: a name
read only by other dead code passes, and so does a module-level name
that happens to equal an attribute read anywhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dyerlashof"


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The module-level defs, classes and assigned names of tree, each
    with its defining node; dunder names are left out."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        found[sub.id] = node
    return {name: node for name, node in found.items() if not name.startswith("__")}


def reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names and attributes tree reads, outside the subtree skip."""
    inside = set() if skip is None else {id(sub) for sub in ast.walk(skip)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unread(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The module.name definitions of modules (name -> source) that no
    module reads outside the definition itself and no reader reads."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = set().union(*(reads(ast.parse(source)) for source in readers))
    found = []
    for module, tree in trees.items():
        others = outside.union(*(reads(t) for m, t in trees.items() if m != module))
        for name, node in definitions(tree).items():
            if name not in others and name not in reads(tree, node):
                found.append(f"{module}.{name}")
    return found


def test_unread_definitions_are_caught():
    modules = {
        "a": (
            '__all__ = ["dead", "CONST"]\n'
            "CONST = 3\n"
            "LIMIT = 4\n"
            "def used(x):\n"
            "    return x + LIMIT\n"
            "def dead(x):\n"
            '    """used(x) in a docstring is prose."""\n'
            "    return dead(x - 1) if x else CONST\n"
            "class Gone:\n"
            "    pass\n"
        ),
        "b": "from .a import Gone, used\nprint(used(1))\n",
    }
    readers = ["from dyerlashof import a\na.CONST\n"]
    assert unread(modules, readers) == ["a.dead", "a.Gone"]


def _surface():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    return modules, readers


def test_every_definition_is_read():
    modules, readers = _surface()
    assert len(modules) > 8 and len(readers) > 5
    assert unread(modules, readers) == []


def test_a_planted_unused_def_fails():
    modules, readers = _surface()
    modules["sequences"] += "\n\ndef planted(s):\n    return s.twice\n"
    assert unread(modules, readers) == ["sequences.planted"]
