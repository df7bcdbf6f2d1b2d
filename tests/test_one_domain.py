"""The domain of the invariant side is stated once, in
``sequences.integral_lower_need``: no Bockstein and only integral
entries.  It names the rule a sequence breaks, so the callers that word
their refusal by it do not test eps again.

The pairing, the dual basis, the paper's straightening, the
reference-vectors suite and the CLI's choice of engine all ask it, and
no other code in src/ tests a sequence's eps flags and the parity of its
entries together.  A second statement, say one inlined for speed, would
have to change with every change of the domain (a Bockstein-aware
invariant engine would widen it).

The source check stands in for a lint rule over src/, as
``test_one_rule.py``'s does: it flags a def holding an ``any``/``all``
call that reads an eps with no ``% 2`` in it, and another that takes
``% 2`` of something read from a ``twice``.  A statement through locals
with other names passes it, so the behaviour is tested too: with the
predicate swapped in one caller, that caller acts on the swapped verdict.
"""

import ast
from pathlib import Path

import pytest

from dyerlashof import cli, correspondence, verify
from dyerlashof.arith import Context, DomainError
from dyerlashof.opalgebra import OpPoly
from dyerlashof.sequences import OpSeq, integral_lower_need

SRC = Path(__file__).resolve().parent.parent / "src" / "dyerlashof"


def _reads(node, word: str) -> bool:
    return any(
        (isinstance(sub, ast.Name) and word in sub.id)
        or (isinstance(sub, ast.Attribute) and word in sub.attr)
        for sub in ast.walk(node)
    )


def _halves(node) -> bool:
    """Whether node takes something % 2."""
    return any(
        isinstance(sub, ast.BinOp)
        and isinstance(sub.op, ast.Mod)
        and isinstance(sub.right, ast.Constant)
        and sub.right.value == 2
        for sub in ast.walk(node)
    )


def domain_statements(source: str) -> list[str]:
    """The functions of source that test some eps flag and the parity of
    some doubled entry, each in an any() or all()."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        reads_eps = reads_parity = False
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("any", "all")
            ):
                continue
            if _halves(node):
                reads_parity |= _reads(node, "twice")
            else:
                reads_eps |= _reads(node, "eps")
        if reads_eps and reads_parity:
            found.append(func.name)
    return found


def test_domain_statements_are_caught():
    source = (
        "def a(s):\n"
        "    if any(s.eps) or any(t % 2 for t in s.twice):\n"
        "        raise ValueError\n"
        "def b(twice, eps):\n"
        "    return not any(eps) and all(t % 2 == 0 for t in twice)\n"
        "def c(s):\n"
        "    if any(s.eps):\n"
        "        return 1\n"
        "    return 0 if any(v % 2 for v in s.twice) else 2\n"
        # the p = 2 entry check and the coproduct's one-parity rule
        "def d(ctx, twice, eps):\n"
        "    if 1 in eps or any(t % 2 for t in twice):\n"
        "        raise ValueError\n"
        "def e(twice, eps):\n"
        "    return any((t - sum(eps[i + 1:])) % 2 for i, t in enumerate(twice))\n"
        "def f(twice, eps):\n"
        "    return ','.join(map(str, twice)) + ('b' if any(eps) else '')\n"
    )
    assert domain_statements(source) == ["a", "b", "c"]


def test_domain_is_stated_once():
    statements = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in domain_statements(path.read_text())
    }
    assert statements == {("sequences", "integral_lower_need")}


P3N2 = Context(3, 2)


@pytest.mark.parametrize(
    "twice, eps, need",
    [
        ((6, 2), (0, 0), None),
        ((0, 0), (0, 0), None),
        ((3, 2), (0, 0), "integral entries"),
        ((6, 2), (0, 1), "eps = 0"),
        ((3, 1), (1, 1), "eps = 0"),
    ],
)
def test_integral_lower_need(twice, eps, need):
    assert integral_lower_need(OpSeq(P3N2, twice, eps)) == need


def _outside(s):
    return "eps = 0"


@pytest.mark.parametrize(
    "need, pairs_to, straighten_error",
    [
        # an eps = 0 sequence outside the domain has half entries: it pairs to 0
        ("integral entries", 0, "needs integral entries"),
        ("eps = 0", "implemented for eps = 0 only", "needs eps = 0"),
    ],
)
def test_correspondence_asks_the_predicate(monkeypatch, need, pairs_to, straighten_error):
    J = OpSeq(P3N2, (6, 2), (0, 0))  # e[3,1]: <d1^2, Q_J> = 2
    adm = OpSeq(P3N2, (0, 4), (0, 0))
    assert correspondence.kronecker_pair((0, 2), J) == 2
    monkeypatch.setattr(correspondence, "integral_lower_need", lambda s: need)
    if pairs_to == 0:
        assert correspondence.kronecker_pair((0, 2), J) == 0
    else:
        with pytest.raises(DomainError, match=pairs_to):
            correspondence.kronecker_pair((0, 2), J)
    with pytest.raises(DomainError, match=straighten_error):
        correspondence.adem_via_invariants(J)
    with pytest.raises(DomainError, match="integral eps = 0 sequence"):
        correspondence.dickson_of_dual(adm)


def test_reference_vectors_ask_the_predicate(monkeypatch):
    # with a wrong second engine (Q[0,0], in no vector's degree), only the
    # vectors inside the domain fail
    def wrong(s):
        return OpPoly.from_seq(OpSeq(s.ctx, (0, 0), (0, 0)))

    monkeypatch.setattr(verify, "adem_via_invariants", wrong)
    cases, failures = verify.suite_reference_vectors(3)
    vectors = verify.reference_vector_cases(3)
    inside = [s for _, s, _ in vectors if not integral_lower_need(s)]
    assert 0 < len(inside) < cases
    assert len(failures) == len(inside)
    monkeypatch.setattr(verify, "integral_lower_need", _outside)
    assert verify.suite_reference_vectors(3) == (cases, [])


def test_cli_routes_by_the_predicate(monkeypatch, capsys):
    argv = ["adem", "--p", "3", "--n", "2"]
    # outside the domain, adem leaves the input to the paper's engine
    monkeypatch.setattr(cli, "integral_lower_need", _outside)
    monkeypatch.setattr(cli, "adem_straighten_classical", None)
    assert cli.main(argv + ["e[3,1]"]) == 0
    assert capsys.readouterr().out == "2*Q[0,2]\n"
    # inside it, adem rewrites, even a Bockstein input
    monkeypatch.undo()
    monkeypatch.setattr(cli, "integral_lower_need", lambda s: None)
    assert cli.main(argv + ["e[3,1/2;eps=01]"]) == 0
    assert capsys.readouterr().out == "Q[0,3/2;eps=01]\n"
