"""The admissibility rule is stated once, in ``sequences.first_defect``.

The classical engine and ``is_admissible`` find defects only by calling
it, and no other code in src/ compares adjacent entries with eps.  A
second statement of the rule, say one inlined into the rewrite loop for
speed, would have to change with every fix to the first.

The source check stands in for a lint rule over src/, and is weaker than
one: it flags only a comparison, inside a def, that indexes one sequence
at x[i] and x[i + c] with c = 1 (either way round) and reads a name or
attribute containing "eps".  A rule inlined through locals
(``a, b = twice[t], twice[t + 1]`` and then ``b - a + e < 0``), or
written in a lambda or at module level, passes it.  So the behaviour is
tested too: with ``first_defect`` swapped for a different rule, both
users answer by the swapped rule, whatever names an inlined copy uses.
"""

import ast
import inspect
from pathlib import Path

import pytest

from dyerlashof import opalgebra, sequences
from dyerlashof.arith import Context
from dyerlashof.opalgebra import OpPoly
from dyerlashof.sequences import OpSeq

SRC = Path(__file__).resolve().parent.parent / "src" / "dyerlashof"


def _index(node) -> tuple[str, int]:
    """An index as (base expression, offset): i + 1 is (i, 1)."""
    if isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant):
        if isinstance(node.op, ast.Add):
            return ast.dump(node.left), node.right.value
        if isinstance(node.op, ast.Sub):
            return ast.dump(node.left), -node.right.value
    return ast.dump(node), 0


def rule_statements(source: str) -> list[str]:
    """The functions of source with a comparison that reads two adjacent
    entries of one sequence, x[i] and x[i + 1], and an eps."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            indices = {}
            reads_eps = False
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and "eps" in sub.id:
                    reads_eps = True
                elif isinstance(sub, ast.Attribute) and "eps" in sub.attr:
                    reads_eps = True
                if isinstance(sub, ast.Subscript):
                    base, offset = _index(sub.slice)
                    indices.setdefault((ast.dump(sub.value), base), set()).add(offset)
            adjacent = any(
                offset + 1 in offsets for offsets in indices.values() for offset in offsets
            )
            if adjacent and reads_eps:
                found.append(func.name)
                break
    return found


def test_rule_statements_are_caught():
    source = (
        "def a(twice, eps, t):\n"
        "    return twice[t + 1] - twice[t] + eps[t] < 0\n"
        "def b(s, t):\n"
        "    if s.twice[t] > s.twice[t + 1] + s.eps[t]:\n"
        "        return t\n"
        "def c(twice, eps, t):\n"
        "    return twice[t - 1] <= twice[t] - eps[t - 1]\n"
        "def d(gcds, t):\n"
        "    return gcds[t + 1] // gcds[t]\n"
        "def e(twice, eps, t):\n"
        "    return twice[t + 1] < twice[t]\n"
    )
    assert rule_statements(source) == ["a", "b", "c"]


def test_engines_find_defects_through_first_defect():
    for func in (opalgebra.adem_straighten_classical, sequences.is_admissible):
        source = inspect.getsource(func)
        assert "first_defect(" in source, func.__name__
        assert rule_statements(source) == [], func.__name__


def test_rule_is_stated_once():
    statements = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in rule_statements(path.read_text())
    }
    assert statements == {("sequences", "first_defect")}


def _no_defect(twice, eps, start=0):
    return None


def _defect_at_first_pair(twice, eps, start=0):
    """A stricter rule: the first pair at or after start that is not
    strictly increasing, whatever its Bocksteins."""
    for t in range(start, len(twice) - 1):
        if twice[t] >= twice[t + 1]:
            return t
    return None


@pytest.mark.parametrize(
    "twice, eps", [((4, 2), (0, 0)), ((2, 2), (0, 0)), ((6, 2, 4), (0, 1, 0))]
)
def test_engines_answer_by_first_defect(monkeypatch, twice, eps):
    ctx = Context(3, len(twice))
    s = OpSeq(ctx, twice, eps)
    unchanged = OpPoly.from_seq(s)
    # with no defect anywhere, every sequence is admissible and is its own
    # straightening
    monkeypatch.setattr(opalgebra, "first_defect", _no_defect)
    monkeypatch.setattr(sequences, "first_defect", _no_defect)
    assert sequences.is_admissible(s)
    assert opalgebra.adem_straighten_classical(s) == unchanged
    # the stricter rule finds a defect in each input, (2, 2) included,
    # which the package's rule keeps
    monkeypatch.setattr(opalgebra, "first_defect", _defect_at_first_pair)
    monkeypatch.setattr(sequences, "first_defect", _defect_at_first_pair)
    assert not sequences.is_admissible(s)
    assert opalgebra.adem_straighten_classical(s) != unchanged
