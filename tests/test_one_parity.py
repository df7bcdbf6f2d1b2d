"""A sequence's upper parity and its zero-by-excess rule are stated once,
in ``sequences``: ``upper_parity`` and ``is_zero_by_excess``.

``opalgebra.coproduct`` refuses non-integral upper entries by asking
``upper_parity``, and the CLI's ``coprod`` asks both predicates on one
straight path: the lower form of its input, refused unless its upper
entries are integers, then zero when some factor has 2 j_t - eps_t < 0,
else the coproduct.  A second statement, say a parity scan inlined for
speed, would have to change with every change of the rules (refusing
mixed parity where straightening starts will add callers).

The source check stands in for a lint rule over src/ outside
``sequences``, and is weaker than one.  It flags a def that takes a
parity (``% 2`` or ``& 1``) of something read from a ``twice`` or an
``eps``, or inside a comprehension over one; one that orders a ``twice``
against an ``eps`` (``<``, ``<=``, ``>``, ``>=``, or ``map`` of
``operator.lt`` and the like); and one that catches ``DomainError``
around ``upper_to_lower`` or ``OpSeq`` without raising again, zero by
excess as an exception path.  A rule stated through locals with other
names passes it, so the behaviour is tested too: with a predicate
swapped in one caller, that caller acts on the swapped verdict.
"""

import ast
from pathlib import Path

import pytest

from dyerlashof import cli, opalgebra
from dyerlashof.arith import Context, DomainError
from dyerlashof.opalgebra import coproduct
from dyerlashof.sequences import OpSeq

SRC = Path(__file__).resolve().parent.parent / "src" / "dyerlashof"
ORDERS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
ORDER_FUNCS = {"lt", "le", "gt", "ge"}
CONVERSIONS = {"upper_to_lower", "OpSeq"}


def _reads(node, word: str) -> bool:
    return any(
        (isinstance(sub, ast.Name) and word in sub.id)
        or (isinstance(sub, ast.Attribute) and word in sub.attr)
        for sub in ast.walk(node)
    )


def _sources(func):
    """Each node of func with what it reads from: itself, plus what the
    generators of a comprehension around it iterate over."""
    for node in ast.walk(func):
        yield node, [node]
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            iters = [gen.iter for gen in node.generators]
            for sub in ast.walk(node.elt):
                yield sub, [sub] + iters


def _is_parity(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.right, ast.Constant)
        and (
            (isinstance(node.op, ast.Mod) and node.right.value == 2)
            or (isinstance(node.op, ast.BitAnd) and node.right.value == 1)
        )
    )


def _is_order(node) -> bool:
    if isinstance(node, ast.Compare):
        return any(isinstance(op, ORDERS) for op in node.ops)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "map"
        and bool(node.args)
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in ORDER_FUNCS
    )


def _calls(node, names) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and (
            (isinstance(sub.func, ast.Name) and sub.func.id in names)
            or (isinstance(sub.func, ast.Attribute) and sub.func.attr in names)
        )
        for sub in ast.walk(node)
    )


def _excess_handler(node) -> bool:
    """A try that converts a sequence and swallows the DomainError."""
    return (
        isinstance(node, ast.Try)
        and any(_calls(stmt, CONVERSIONS) for stmt in node.body)
        and any(
            handler.type is not None
            and _reads(handler.type, "DomainError")
            and not any(isinstance(sub, ast.Raise) for sub in ast.walk(handler))
            for handler in node.handlers
        )
    )


def rule_statements(source: str) -> list[tuple[str, str]]:
    """(def name, rule) for each def of source that states the parity
    rule ("parity") or the zero-by-excess rule ("excess")."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        rules = set()
        for node, sources in _sources(func):
            reads_twice = any(_reads(s, "twice") for s in sources)
            reads_eps = any(_reads(s, "eps") for s in sources)
            if _is_parity(node) and (reads_twice or reads_eps):
                rules.add("parity")
            if _is_order(node) and reads_twice and reads_eps:
                rules.add("excess")
            if _excess_handler(node):
                rules.add("excess")
        found += [(func.name, rule) for rule in sorted(rules)]
    return found


# the statements the predicates replaced, as coproduct and cli._coprod had them
OLD_COPRODUCT = (
    "def coproduct(x):\n"
    "    for twice, eps in x.terms:\n"
    "        if any((t - sum(eps[i + 1 :])) % 2 for i, t in enumerate(twice)):\n"
    "            raise DomainError('coproduct needs integral upper entries')\n"
)
OLD_CLI_COPROD = (
    "def _coprod(args, ctx):\n"
    "    twice, eps, upper = textio.parse_any_sequence(args.expr, ctx)\n"
    "    if not upper:\n"
    "        x = OpSeq(ctx, twice, eps)\n"
    "    elif any(t % 2 for t in twice):\n"
    "        raise DomainError('coproduct needs integral upper entries')\n"
    "    else:\n"
    "        try:\n"
    "            x = OpSeq(ctx, upper_to_lower(ctx, twice, eps), eps)\n"
    "        except DomainError:\n"
    "            x = OpPoly(ctx)\n"
    "    return coproduct(x)\n"
)


def test_rule_statements_are_caught():
    source = OLD_COPRODUCT + OLD_CLI_COPROD + (
        "def a(twice, eps):\n"
        "    return min(map(sub, twice, eps)) < 0\n"
        "def b(s):\n"
        "    return any(map(lt, s.twice, s.eps))\n"
        "def c(twice, eps):\n"
        "    return any(t < e for t, e in zip(twice, eps))\n"
        "def d(s):\n"
        "    return {t & 1 for t in s.twice}\n"
        # the excess vector as a sort key, and parities of other things
        "def e(twice, eps):\n"
        "    return tuple(map(sub, twice, eps))\n"
        "def f(d, lo, legs):\n"
        "    return (d - lo) % 2, [sum(ep) % 2 for _, ep in legs]\n"
        "def g(argv):\n"
        "    try:\n"
        "        return run(argv)\n"
        "    except DomainError:\n"
        "        return 1\n"
        "def h(twice, eps):\n"
        "    try:\n"
        "        return upper_to_lower(ctx, twice, eps)\n"
        "    except DomainError as exc:\n"
        "        raise ValueError from exc\n"
    )
    assert rule_statements(source) == [
        ("coproduct", "parity"),
        ("_coprod", "excess"),
        ("_coprod", "parity"),
        ("a", "excess"),
        ("b", "excess"),
        ("c", "excess"),
        ("d", "parity"),
    ]


def _statements(extra: dict[str, str] | None = None) -> set:
    extra = extra or {}
    return {
        (path.stem, name, rule)
        for path in SRC.glob("*.py")
        for name, rule in rule_statements(path.read_text() + extra.get(path.stem, ""))
        if path.stem != "sequences"
    }


def test_rules_are_stated_only_in_sequences():
    assert _statements() == set()
    rules = rule_statements((SRC / "sequences.py").read_text())
    assert ("upper_parity", "parity") in rules
    assert ("is_zero_by_excess", "excess") in rules


@pytest.mark.parametrize(
    "module, planted, want",
    [
        ("opalgebra", OLD_COPRODUCT, {("opalgebra", "coproduct", "parity")}),
        (
            "cli",
            OLD_CLI_COPROD,
            {("cli", "_coprod", "parity"), ("cli", "_coprod", "excess")},
        ),
    ],
    ids=["coproduct", "cli._coprod"],
)
def test_a_planted_restatement_fails(module, planted, want):
    assert _statements({module: "\n\n" + planted}) == want


P3N2 = Context(3, 2)
COPROD = ["coprod", "--p", "3", "--n", "2"]


def test_coproduct_refuses_by_upper_parity(monkeypatch):
    mixed = OpSeq(P3N2, (6, 1), (0, 0))  # e[3,1/2]: upper entries 3 and 1/2
    whole = OpSeq(P3N2, (2, 2), (0, 0))
    with pytest.raises(DomainError, match="integral upper entries"):
        coproduct(mixed)
    assert not coproduct(whole).is_zero()
    monkeypatch.setattr(opalgebra, "upper_parity", lambda twice, eps: 0)
    coproduct(mixed)
    monkeypatch.setattr(opalgebra, "upper_parity", lambda twice, eps: None)
    with pytest.raises(DomainError, match="integral upper entries"):
        coproduct(whole)


def test_cli_refuses_by_upper_parity(monkeypatch, capsys):
    # E[1/2,1] has lower entry -3/2: refused before it could answer 0
    assert cli.main(COPROD + ["E[1/2,1]"]) == 1
    assert capsys.readouterr().err == "error: coproduct needs integral upper entries\n"
    monkeypatch.setattr(cli, "upper_parity", lambda twice, eps: 0)
    assert cli.main(COPROD + ["E[1/2,1]"]) == 0
    assert capsys.readouterr().out == "0\n"
    monkeypatch.setattr(cli, "upper_parity", lambda twice, eps: 1)
    assert cli.main(COPROD + ["e[1,1]"]) == 1
    assert capsys.readouterr().err == "error: coproduct needs integral upper entries\n"


def test_cli_answers_zero_by_excess(monkeypatch, capsys):
    # zero is answered before the coproduct's bound on its terms is taken
    big = "e[0,100,100,100;eps=1000]"
    assert cli.main(["coprod", "--p", "3", "--n", "4", big]) == 0
    assert capsys.readouterr().out == "0\n"
    monkeypatch.setattr(cli, "is_zero_by_excess", lambda twice, eps: True)
    assert cli.main(COPROD + ["e[1,1]"]) == 0
    assert capsys.readouterr().out == "0\n"
    # without the verdict, the negative lower entry reaches OpSeq
    monkeypatch.setattr(cli, "is_zero_by_excess", lambda twice, eps: False)
    assert cli.main(COPROD + ["E[1,1;eps=01]"]) == 1
    assert "entries must be >= 0" in capsys.readouterr().err


def test_cli_refuses_mixed_parity_before_zero(capsys):
    # e[0,1/2;eps=10] is zero by excess, but its upper entries mix
    assert cli.main(COPROD + ["e[0,1/2;eps=10]"]) == 1
    assert capsys.readouterr().err == "error: coproduct needs integral upper entries\n"
