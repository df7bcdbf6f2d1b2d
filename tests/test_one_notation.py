"""Upper notation lives only at the CLI's input.

Every sum the package returns has lower-notation keys, and every engine,
the coproduct included, reads lower notation only; the CLI converts an
upper-notation ``E[...]`` input once.  So only the modules that define,
parse or convert it name ``UpperSeq`` or the two converters, and no
module converts a result with ``.to_lower()``.  This stands in for a
lint rule over src/.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyerlashof"
UPPER_NAMES = {"UpperSeq", "lower_to_upper", "upper_to_lower"}
UPPER_MODULES = {"sequences", "textio", "cli"}


def notation_uses(source: str) -> list[str]:
    """The upper-notation names source refers to, and ``.to_lower(``
    for each call of a to_lower method; docstrings and comments are not
    read."""
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
        '"""UpperSeq in a docstring is only prose."""\n'
        "from .sequences import UpperSeq\n"
        "from . import sequences\n"
        "def f(t, s):\n"
        "    # upper_to_lower in a comment is only prose\n"
        "    return t.to_lower(), sequences.lower_to_upper(s)\n"
    )
    assert sorted(notation_uses(source)) == [".to_lower(", "UpperSeq", "lower_to_upper"]
    assert notation_uses("def f(t):\n    return t.lower\n") == []


def test_upper_notation_stays_in_its_modules():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert UPPER_MODULES <= set(modules)
    for name, source in modules.items():
        uses = notation_uses(source)
        assert ".to_lower(" not in uses, name
        if name not in UPPER_MODULES:
            assert uses == [], name
