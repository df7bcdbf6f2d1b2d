"""The packed exponent format stays inside the kernel.

Every Dickson product goes through ``kernels.poly_mul``, which takes and
returns exponent tuples; only ``_purekernel`` packs, multiplies packed
keys and unpacks.  So no other module names the packing helpers, and
``kernels`` exports the product and the name of its module alone.  This
stands in for a lint rule over src/.
"""

import ast
from pathlib import Path

from dyerlashof import kernels

SRC = Path(__file__).resolve().parent.parent / "src" / "dyerlashof"
PACKED = {"pack", "unpack", "mul_packed", "field_width"}
PACKED |= {"_" + name for name in PACKED}


def packed_uses(source: str) -> list[str]:
    """The packing helpers source refers to, by name, attribute or
    import; docstrings and comments are not read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in PACKED:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in PACKED:
            found.append(node.attr)
        elif isinstance(node, ast.alias) and node.name in PACKED:
            found.append(node.name)
    return found


def test_packed_uses_are_caught():
    source = (
        '"""pack and unpack in a docstring are only prose."""\n'
        "from ._purekernel import field_width\n"
        "from . import kernels\n"
        "def f(a, b, p):\n"
        "    # mul_packed in a comment is only prose\n"
        "    return kernels.mul_packed(a, b, p), _unpack(a)\n"
    )
    assert sorted(packed_uses(source)) == ["_unpack", "field_width", "mul_packed"]
    assert packed_uses("def f(a, b, p):\n    return kernels.poly_mul(a, b, p)\n") == []


def test_packed_format_stays_in_the_kernel():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert packed_uses(modules.pop("_purekernel"))
    for name, source in modules.items():
        assert packed_uses(source) == [], name


def test_kernels_exports_only_the_product():
    assert kernels.__all__ == ["IMPL_NAME", "poly_mul"]
