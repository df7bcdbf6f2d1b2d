"""The digit recursion for [h^J] d^m is written once, in the reader.

``invariants.coeff_memo(ctx)`` runs the recursion over the digit
products d^r, grouped by residue (``groups``), split off m (``split``)
and followed along the chi_min chain (``diagonal``).  Every other
module reads coefficients by calling the reader, its ``__wrapped__``
for an unstored read, its ``column`` for the unstored reads of one J
over many rows, or its ``entries`` for a sum of memoised reads of one
row, and never its parts.  So outside ``invariants`` no module reads
an attribute named ``split`` or ``diagonal`` or names ``groups`` or
``_digit_product``.  This stands in for a lint rule over src/.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyerlashof"
READER_ATTRS = {"split", "diagonal"}
READER_NAMES = {"groups", "_digit_product"}


def reader_part_uses(source: str) -> list[str]:
    """The reader's parts source refers to: ``.split`` and ``.diagonal``
    as attributes, ``groups`` and ``_digit_product`` by name, attribute
    or import; docstrings and comments are not read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in READER_ATTRS | READER_NAMES:
            found.append("." + node.attr)
        elif isinstance(node, ast.Name) and node.id in READER_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in READER_NAMES:
            found.append(node.name)
    return found


def test_reader_part_uses_are_caught():
    source = (
        '"""the reader\'s split and diagonal in a docstring are only prose."""\n'
        "from .invariants import _digit_product, coeff_memo\n"
        "def f(m, J, ctx):\n"
        "    # coeff.split(m) in a comment is only prose\n"
        "    coeff = coeff_memo(ctx)\n"
        "    high, (groups, _, _) = coeff.split(m)\n"
        "    return coeff.diagonal(m) + invariants._digit_product(m, ctx)\n"
    )
    assert sorted(reader_part_uses(source)) == [
        "._digit_product",
        ".diagonal",
        ".split",
        "_digit_product",
        "groups",
    ]
    plain = (
        "def f(m, J, ctx):\n"
        "    coeff = coeff_memo(ctx)\n"
        "    return coeff(m, J) + coeff.__wrapped__(m, J)\n"
    )
    assert reader_part_uses(plain) == []


def test_the_recursion_stays_in_the_reader():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert reader_part_uses(modules.pop("invariants"))
    for name, source in modules.items():
        assert reader_part_uses(source) == [], name
