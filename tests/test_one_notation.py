"""Upper notation lives only at the CLI's input.

Every sum the package returns has lower-notation keys, every engine,
the coproduct included, reads lower notation only, and ``OpSeq`` is the
one sequence type.  The parser hands ``coprod`` an upper input's entries
as written, and the CLI converts them once.  So only ``sequences``, which
defines the two converters, and ``cli``, which reads upper input, name
them; no module converts a result with ``.to_lower()``; and the retired
upper-notation class and its guard are named nowhere.  This stands in
for a lint rule over src/.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyerlashof"
UPPER_NAMES = {"lower_to_upper", "upper_to_lower"}
UPPER_MODULES = {"sequences", "cli"}
RETIRED_NAMES = ("UpperSeq", "require_lower")


def notation_uses(source: str) -> list[str]:
    """The converter names source refers to, and ``.to_lower(`` for each
    call of a to_lower method; docstrings and comments are not read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in UPPER_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in UPPER_NAMES:
            found.append(node.attr)
        elif isinstance(node, ast.alias) and node.name in UPPER_NAMES:
            found.append(node.name)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "to_lower"
        ):
            found.append(".to_lower(")
    return found


def test_notation_uses_are_caught():
    source = (
        '"""upper_to_lower in a docstring is only prose."""\n'
        "from .sequences import upper_to_lower\n"
        "from . import sequences\n"
        "def f(t, s):\n"
        "    # upper_to_lower in a comment is only prose\n"
        "    return t.to_lower(), sequences.lower_to_upper(s)\n"
    )
    assert sorted(notation_uses(source)) == [
        ".to_lower(",
        "lower_to_upper",
        "upper_to_lower",
    ]
    assert notation_uses("def f(t):\n    return t.lower\n") == []


def test_upper_notation_stays_in_its_modules():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert UPPER_MODULES <= set(modules)
    for name, source in modules.items():
        uses = notation_uses(source)
        assert ".to_lower(" not in uses, name
        if name not in UPPER_MODULES:
            assert uses == [], name
        for retired in RETIRED_NAMES:
            assert retired not in source, (name, retired)
