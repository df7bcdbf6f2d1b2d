"""End-to-end tests for the command-line interface.

Everything goes through cli.main(argv) so exit codes and output are
checked exactly as a shell user would see them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyerlashof
from dyerlashof import cli, textio, verify
from dyerlashof.arith import Context, DomainError
from dyerlashof.cli import build_parser, main
from dyerlashof.correspondence import adem_via_invariants
from dyerlashof.opalgebra import OpPoly
from dyerlashof.textio import parse_sequence


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_line(out):
    """The document of one printed JSON line, which must be exactly what
    json.dumps with its default settings prints for it: a change of
    encoder settings that changed a byte would show here."""
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    return doc


def test_adem_text(capsys):
    rc, out, err = run_cli(capsys, "adem", "--p", "3", "--n", "2", "e[3,1]")
    assert rc == 0
    assert out == "2*Q[0,2]\n"
    assert err == ""


def test_adem_json(capsys):
    rc, out, _ = run_cli(
        capsys, "adem", "--p", "3", "--n", "2", "--format", "json", "e[3,1]"
    )
    assert rc == 0
    assert json_line(out) == {
        "p": 3,
        "n": 2,
        "command": "adem",
        "input": {"seq": ["3", "1"], "eps": [0, 0]},
        "result": [{"coeff": 2, "seq": ["0", "2"], "eps": [0, 0]}],
    }


def test_adem_classical_matches(capsys):
    # adem answers by Adem-relation rewriting; --check and a direct call
    # of the paper's engine give its answer too
    ctx = Context(3, 2)
    for expr in ("e[3,1]", "e[4,1]", "e[9,2]"):
        paper = textio.render_op_poly(adem_via_invariants(parse_sequence(expr, ctx)))
        for check in ((), ("--check",)):
            rc, out, err = run_cli(capsys, "adem", "--p", "3", "--n", "2", expr, *check)
            assert (rc, out, err) == (0, paper + "\n", "")
        rc, out, _ = run_cli(capsys, "adem-classical", "--p", "3", "--n", "2", expr)
        assert (rc, out) == (0, paper + "\n")


# inputs beyond oracle-equivalence's entries <= 8, where both engines run
# in well under a second; e[57,54,54,51,51] at p = 3, n = 5 (r = 5,356)
# also agrees, but takes the paper's engine about 3 s per call, so a
# smaller input of its shape stands in for it
CHECK_CASES = [
    (2, 3, "e[400,200,10]"),
    (2, 2, "e[5000,10]"),
    (3, 4, "e[40,33,30,25]"),
    (3, 5, "e[30,27,27,24,24]"),
]


@pytest.mark.parametrize("p, n, expr", CHECK_CASES)
def test_adem_check_agrees_with_the_paper(capsys, p, n, expr):
    paper = adem_via_invariants(parse_sequence(expr, Context(p, n)))
    assert paper  # a nonzero answer, so agreeing says something
    argv = ["adem", "--p", str(p), "--n", str(n), expr, "--check"]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (0, textio.render_op_poly(paper) + "\n", "")
    rc, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (rc, err) == (0, "")
    doc = json_line(out)
    assert doc["result"] == textio.op_poly_to_json(paper)
    assert doc["checked"] is True


def test_checked_only_with_check(capsys):
    argv = ["adem", "--p", "3", "--n", "2", "e[3,1]", "--format", "json"]
    rc, out, _ = run_cli(capsys, *argv)
    plain = json_line(out)
    assert rc == 0 and "checked" not in plain
    rc, out, _ = run_cli(capsys, *argv, "--check")
    assert rc == 0 and json_line(out) == plain | {"checked": True}
    # --check belongs to adem alone
    for command in ("adem-classical", "dual"):
        with pytest.raises(SystemExit) as e:
            main([command, "--p", "3", "--n", "2", "e[3,1]", "--check"])
        assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", [(), ("--format", "json")])
def test_check_disagreement_exits_1(capsys, monkeypatch, fmt):
    # a paper's engine that answers 0 disagrees with 2*Q[0,2]
    monkeypatch.setattr(cli, "adem_via_invariants", lambda s: OpPoly(s.ctx))
    argv = ["adem", "--p", "3", "--n", "2", "e[3,1]", *fmt]
    assert run_cli(capsys, *argv)[0] == 0
    rc, out, err = run_cli(capsys, *argv, "--check")
    assert (rc, out) == (1, "")
    assert err == (
        "error: --check: Adem-relation rewriting and the invariant-theoretic "
        "algorithm disagree\n"
    )


@pytest.mark.parametrize(
    "expr, message",
    [
        ("e[3,1/2;eps=01]", "invariant-theoretic straightening needs eps = 0"),
        ("e[3,1;eps=10]", "invariant-theoretic straightening needs eps = 0"),
        ("e[3/2,1]", "invariant-theoretic straightening needs integral entries"),
    ],
)
def test_adem_refuses_outside_the_paper_domain(capsys, expr, message):
    # rewriting's Bockstein answers are not yet trusted, so adem keeps the
    # paper's engine's refusal, byte for byte, with or without --check
    for extra in ((), ("--check",), ("--format", "json"), ("--check", "--format", "json")):
        rc, out, err = run_cli(capsys, "adem", "--p", "3", "--n", "2", expr, *extra)
        assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "expr, want", [("e[8,36,54,51,48]", "5*Q[8,36,40,46,49]"), ("e[15,37,34,8,23]", "0")]
)
def test_adem_answers_at_p7(capsys, expr, want):
    # The paper's engine runs out of memory on both (about 3 GB on the
    # first, 0.7 GB on the second), so these values come from Adem-relation
    # rewriting alone.  No --check here: nothing bounds the paper's
    # engine's memory yet.
    rc, out, err = run_cli(capsys, "adem", "--p", "7", "--n", "5", expr)
    assert (rc, out, err) == (0, want + "\n", "")


def test_adem_classical_zero(capsys):
    rc, out, _ = run_cli(capsys, "adem-classical", "--p", "3", "--n", "2", "e[1,0]")
    assert rc == 0
    assert out == "0\n"


def test_dual(capsys):
    rc, out, _ = run_cli(capsys, "dual", "--p", "2", "--n", "2", "d1^3")
    assert rc == 0
    assert out == "(Q[0,3])* + (Q[2,2])*\n"


def test_invert_dual(capsys):
    rc, out, _ = run_cli(capsys, "invert-dual", "--p", "2", "--n", "2", "Q[0,3]")
    assert rc == 0
    assert out == "d0^2 + d1^3\n"


def test_expand(capsys):
    rc, out, _ = run_cli(capsys, "expand", "--p", "3", "--n", "2", "d1^2")
    assert rc == 0
    assert out == "h1^6 + 2*h1^3*h2 + h2^2\n"


def test_basis(capsys):
    rc, out, _ = run_cli(capsys, "basis", "--p", "2", "--n", "2", "6")
    assert rc == 0
    assert out == "Q[0,3]\nQ[2,2]\n"
    rc, out, _ = run_cli(capsys, "basis", "--p", "2", "--n", "2", "1")
    assert rc == 0
    assert out == "0\n"


def test_solve_degree(capsys):
    rc, out, _ = run_cli(capsys, "solve-degree", "--p", "2", "--n", "2", "6")
    assert rc == 0
    assert out == "d1^3\nd0^2\n"


def test_pair(capsys):
    rc, out, _ = run_cli(capsys, "pair", "--p", "3", "--n", "2", "d1^2", "e[3,1]")
    assert rc == 0
    assert out == "2\n"


def test_coprod(capsys):
    rc, out, _ = run_cli(capsys, "coprod", "--p", "3", "--n", "1", "E[1]")
    assert rc == 0
    assert out == "Q[0] (x) Q[1] + Q[1] (x) Q[0]\n"
    rc, out, _ = run_cli(capsys, "coprod", "--p", "3", "--n", "1", "Qu[1;eps=1]")
    assert rc == 0
    assert out == "Q[0] (x) Q[1;eps=1] + Q[1;eps=1] (x) Q[0]\n"


def test_verify_reference_vectors(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--p", "3", "reference-vectors")
    assert rc == 0
    assert out == "reference-vectors: 20 cases, ok\n"


def test_verify_oracle_equivalence(capsys):
    rc, out, _ = run_cli(
        capsys,
        "verify",
        "--p",
        "2",
        "--n",
        "2",
        "oracle-equivalence",
        "--max-entry",
        "4",
    )
    assert rc == 0
    assert out.startswith("oracle-equivalence:")
    assert out.rstrip().endswith("ok")


def test_verify_oracle_equivalence_names_each_disagreement(capsys, monkeypatch):
    # an engine that answers 0 disagrees wherever the answer is not 0,
    # and the suite names those inputs in order
    monkeypatch.setattr(verify, "adem_straighten_classical", lambda x: OpPoly(x.ctx))
    argv = ["verify", "oracle-equivalence", "--p", "2", "--n", "2", "--max-entry", "1"]
    out = (
        "FAIL: (0, 0): invariants Q[0,0] / classical 0\n"
        "FAIL: (0, 2): invariants Q[0,1] / classical 0\n"
        "FAIL: (2, 2): invariants Q[1,1] / classical 0\n"
        "oracle-equivalence: 4 cases, 3 FAILED\n"
    )
    assert run_cli(capsys, *argv) == (1, out, "")


def test_verify_json(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--format", "json", "reference-vectors"
    )
    assert rc == 0
    doc = json_line(out)
    assert doc["command"] == "verify"
    assert doc["result"] == {"cases": 20, "failures": []}


def test_verify_failures_then_status(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_suite", lambda *args: (3, ["x y", "z"]))
    argv = ["verify", "roundtrip", "--p", "2", "--n", "2"]
    out = "FAIL: x y\nFAIL: z\nroundtrip: 3 cases, 2 FAILED\n"
    assert run_cli(capsys, *argv) == (1, out, "")
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 1
    assert json_line(out) == {
        "p": 2, "n": 2, "command": "verify", "input": {"suite": "roundtrip"},
        "result": {"cases": 3, "failures": ["x y", "z"]},
    }


def test_parse_error_exit_code(capsys):
    rc, out, err = run_cli(capsys, "adem", "--p", "3", "--n", "2", "e[3,1")
    assert rc == 1
    assert out == ""
    assert err == "error: expected ']', got '' (byte 5)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["adem", "--p", "2", "--n", "1", "e[\u00b2]"],  # superscript two
        ["expand", "--p", "2", "--n", "1", "d0^\u00b2"],
        ["adem", "--p", "2", "--n", "1", "e[\u0661]"],  # Arabic-Indic one
        ["adem", "--p", "2", "--n", "1", "e[" + "1" * 5000 + "]"],
        # numbers that read fine but bound nothing
        ["verify", "oracle-equivalence", "--p", "2", "--n", "2", "--max-entry", "-1"],
        ["verify", "roundtrip", "--p", "2", "--n", "2", "--max-degree", "-3"],
    ],
)
def test_number_reader_accepts_ascii_digits_only(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_missing_n_exit_code(capsys):
    rc, _, err = run_cli(capsys, "adem", "--p", "3", "e[3,1]")
    assert rc == 1
    assert err.startswith("error:")


def test_bad_context_exit_code(capsys):
    rc, _, err = run_cli(capsys, "adem", "--p", "6", "--n", "2", "e[3,1]")
    assert rc == 1
    assert "error:" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command", "--p", "3"])
    assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["adem", "--n", "2", "e[3,1]"])  # --p is required
    assert e.value.code == 2
    capsys.readouterr()


# argv, text output, JSON output (both byte for byte, without the newline)
FORMAT_CASES = [
    (
        ["adem", "--p", "3", "--n", "2", "e[3,1]"],
        "2*Q[0,2]",
        '{"p": 3, "n": 2, "command": "adem", "input": {"seq": ["3", "1"], '
        '"eps": [0, 0]}, "result": [{"coeff": 2, "seq": ["0", "2"], "eps": [0, 0]}]}',
    ),
    (
        ["adem-classical", "--p", "3", "--n", "2", "e[3,1]"],
        "2*Q[0,2]",
        '{"p": 3, "n": 2, "command": "adem-classical", "input": {"seq": ["3", "1"], '
        '"eps": [0, 0]}, "result": [{"coeff": 2, "seq": ["0", "2"], "eps": [0, 0]}]}',
    ),
    (
        ["dual", "--p", "2", "--n", "2", "d1^3"],
        "(Q[0,3])* + (Q[2,2])*",
        '{"p": 2, "n": 2, "command": "dual", "input": {"m": [0, 3]}, "result": '
        '[{"coeff": 1, "seq": ["0", "3"], "eps": [0, 0]}, '
        '{"coeff": 1, "seq": ["2", "2"], "eps": [0, 0]}]}',
    ),
    (
        ["invert-dual", "--p", "2", "--n", "2", "Q[0,3]"],
        "d0^2 + d1^3",
        '{"p": 2, "n": 2, "command": "invert-dual", "input": {"seq": ["0", "3"], '
        '"eps": [0, 0]}, "result": [{"coeff": 1, "m": [2, 0]}, {"coeff": 1, "m": [0, 3]}]}',
    ),
    (
        ["expand", "--p", "3", "--n", "2", "d1^2"],
        "h1^6 + 2*h1^3*h2 + h2^2",
        '{"p": 3, "n": 2, "command": "expand", "input": {"m": [0, 2]}, "result": '
        '[{"coeff": 1, "exps": [6, 0]}, {"coeff": 2, "exps": [3, 1]}, '
        '{"coeff": 1, "exps": [0, 2]}]}',
    ),
    (
        ["basis", "--p", "2", "--n", "2", "6"],
        "Q[0,3]\nQ[2,2]",
        '{"p": 2, "n": 2, "command": "basis", "input": {"degree": 6}, "result": '
        '[{"seq": ["0", "3"], "eps": [0, 0]}, {"seq": ["2", "2"], "eps": [0, 0]}]}',
    ),
    (
        ["basis", "--p", "2", "--n", "2", "1"],
        "0",
        '{"p": 2, "n": 2, "command": "basis", "input": {"degree": 1}, "result": []}',
    ),
    (
        ["solve-degree", "--p", "2", "--n", "2", "6"],
        "d1^3\nd0^2",
        '{"p": 2, "n": 2, "command": "solve-degree", "input": {"degree": 6}, '
        '"result": [{"m": [0, 3]}, {"m": [2, 0]}]}',
    ),
    (
        ["solve-degree", "--p", "3", "--n", "2", "7"],
        "0",
        '{"p": 3, "n": 2, "command": "solve-degree", "input": {"degree": 7}, '
        '"result": []}',
    ),
    (
        ["pair", "--p", "3", "--n", "2", "d1^2", "e[3,1]"],
        "2",
        '{"p": 3, "n": 2, "command": "pair", "input": {"m": [0, 2], '
        '"seq": ["3", "1"], "eps": [0, 0]}, "result": {"value": 2}}',
    ),
    (
        ["coprod", "--p", "3", "--n", "1", "Qu[1;eps=1]"],
        "Q[0] (x) Q[1;eps=1] + Q[1;eps=1] (x) Q[0]",
        '{"p": 3, "n": 1, "command": "coprod", "input": {"seq": ["1"], "eps": [1], '
        '"notation": "upper"}, "result": [{"coeff": 1, "legs": [{"seq": ["0"], '
        '"eps": [0]}, {"seq": ["1"], "eps": [1]}]}, {"coeff": 1, "legs": '
        '[{"seq": ["1"], "eps": [1]}, {"seq": ["0"], "eps": [0]}]}]}',
    ),
    # zero: the lower form of an upper input has a negative entry
    (
        ["coprod", "--p", "3", "--n", "2", "Qu[1,4]"],
        "0",
        '{"p": 3, "n": 2, "command": "coprod", "input": {"seq": ["1", "4"], '
        '"eps": [0, 0], "notation": "upper"}, "result": []}',
    ),
    (
        ["coprod", "--p", "3", "--n", "1", "e[1]"],
        "Q[0] (x) Q[1] + Q[1] (x) Q[0]",
        '{"p": 3, "n": 1, "command": "coprod", "input": {"seq": ["1"], "eps": [0]}, '
        '"result": [{"coeff": 1, "legs": [{"seq": ["0"], "eps": [0]}, {"seq": ["1"], '
        '"eps": [0]}]}, {"coeff": 1, "legs": [{"seq": ["1"], "eps": [0]}, '
        '{"seq": ["0"], "eps": [0]}]}]}',
    ),
]
FORMAT_IDS = [" ".join(argv) for argv, _, _ in FORMAT_CASES]

TEXT_RENDERERS = [name for name in textio.__all__ if name.startswith("render_")]
TEXT_RENDERERS.append("render_dickson_monomial")
JSON_CONVERTERS = [name for name in textio.__all__ if name.endswith("_to_json")]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refuse


@pytest.mark.parametrize("argv,text,doc", FORMAT_CASES, ids=FORMAT_IDS)
def test_json_output_pinned(capsys, argv, text, doc):
    rc, out, err = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    assert out == doc + "\n"
    assert err == ""
    json_line(out)


@pytest.mark.parametrize("argv,text,doc", FORMAT_CASES, ids=FORMAT_IDS)
def test_only_requested_format_is_built(capsys, monkeypatch, argv, text, doc):
    with monkeypatch.context() as mp:
        for name in TEXT_RENDERERS:
            mp.setattr(textio, name, _refuse(name))
        assert run_cli(capsys, *argv, "--format", "json") == (0, doc + "\n", "")
    with monkeypatch.context() as mp:
        for name in JSON_CONVERTERS:
            mp.setattr(textio, name, _refuse(name))
        mp.setattr(cli, "_mono_json", _refuse("_mono_json"))
        assert run_cli(capsys, *argv) == (0, text + "\n", "")


# argv and the text stdout of every command, byte for byte: empty results,
# coefficients > 1, unit monomials and Bockstein legs.  An output that
# starts with `error: ` is instead the stderr of a refused input (exit 1).
TEXT_CASES = [
    (["adem", "--p", "3", "--n", "2", "e[3,1]"], "2*Q[0,2]\n"),
    (["adem", "--p", "3", "--n", "2", "e[2,1]"], "0\n"),
    (["adem", "--p", "2", "--n", "3", "e[4,2,1]"], "0\n"),
    (["adem", "--p", "5", "--n", "2", "e[5,1]"], "2*Q[0,2]\n"),
    (["adem-classical", "--p", "3", "--n", "2", "e[1,0]"], "0\n"),
    (
        ["adem-classical", "--p", "3", "--n", "2", "e[3,1/2;eps=01]"],
        "Q[0,3/2;eps=01]\n",
    ),
    (
        ["adem-classical", "--p", "3", "--n", "2", "e[4,1/2;eps=01]"],
        "Q[1/2,3/2;eps=10]\n",
    ),
    (
        ["adem-classical", "--p", "3", "--n", "2", "e[5/2,3/2;eps=01]"],
        "2*Q[1/2,2;eps=10] + Q[1,2;eps=01]\n",
    ),
    (["dual", "--p", "2", "--n", "2", "d1^3"], "(Q[0,3])* + (Q[2,2])*\n"),
    (["dual", "--p", "3", "--n", "2", "d0^2*d1^4"], "(Q[2,6])* + (Q[5,5])*\n"),
    (["dual", "--p", "2", "--n", "2", "1"], "(Q[0,0])*\n"),
    (["dual", "--p", "3", "--n", "2", "d1^5"], "(Q[0,5])* + 2*(Q[3,4])*\n"),
    (["invert-dual", "--p", "2", "--n", "2", "Q[0,0]"], "1\n"),
    (["invert-dual", "--p", "3", "--n", "2", "Q[1,3]"], "d0*d1^2\n"),
    (["invert-dual", "--p", "2", "--n", "3", "Q[1,2,3]"], "d0*d1*d2\n"),
    (["invert-dual", "--p", "3", "--n", "2", "Q[0,4]"], "2*d0^3 + d1^4\n"),
    (["expand", "--p", "3", "--n", "2", "1"], "1\n"),
    (["expand", "--p", "3", "--n", "2", "d1^2"], "h1^6 + 2*h1^3*h2 + h2^2\n"),
    (
        ["expand", "--p", "5", "--n", "2", "d0*d1^2"],
        "h1^11*h2 + 2*h1^6*h2^2 + h1*h2^3\n",
    ),
    (
        ["expand", "--p", "2", "--n", "3", "d0*d2"],
        "h1^5*h2*h3 + h1*h2^3*h3 + h1*h2*h3^2\n",
    ),
    # the largest exponent a product may have is 2^64 - 1
    (
        ["expand", "--p", "2", "--n", "1", "d0^18446744073709551615"],
        "h1^18446744073709551615\n",
    ),
    (
        ["expand", "--p", "2", "--n", "1", "d0^18446744073709551616"],
        "error: exponent 18446744073709551616 of a product is not below 2^64\n",
    ),
    # a level of the expansion that would multiply more than
    # EXPAND_PAIRS_CAP term pairs is refused before it is built
    (
        ["expand", "--p", "3", "--n", "2", "d0^1594322*d1^1594322"],
        "error: expanding d^(1594322, 1594322) would multiply 531441 term "
        "pairs at one level, above the cap 200000\n",
    ),
    (
        ["expand", "--p", "3", "--n", "2", "d1^18446744073709551616"],
        "error: expanding d^(0, 18446744073709551616) would multiply 419904 "
        "term pairs at one level, above the cap 200000\n",
    ),
    (["basis", "--p", "2", "--n", "2", "6"], "Q[0,3]\nQ[2,2]\n"),
    (["basis", "--p", "2", "--n", "2", "1"], "0\n"),
    (["basis", "--p", "3", "--n", "2", "0"], "Q[0,0]\n"),
    (["solve-degree", "--p", "2", "--n", "2", "6"], "d1^3\nd0^2\n"),
    (["solve-degree", "--p", "3", "--n", "2", "7"], "0\n"),
    (["solve-degree", "--p", "2", "--n", "2", "0"], "1\n"),
    (["pair", "--p", "3", "--n", "2", "d1^2", "e[3,1]"], "2\n"),
    (["pair", "--p", "2", "--n", "2", "d1", "e[1,1]"], "0\n"),
    (
        ["coprod", "--p", "3", "--n", "1", "Qu[1;eps=1]"],
        "Q[0] (x) Q[1;eps=1] + Q[1;eps=1] (x) Q[0]\n",
    ),
    (
        ["coprod", "--p", "3", "--n", "2", "E[2,1;eps=01]"],
        "Q[0,0] (x) Q[1/2,1;eps=01] + Q[1/2,1;eps=01] (x) Q[0,0]\n",
    ),
    (
        ["coprod", "--p", "5", "--n", "2", "e[1,1]"],
        "Q[0,0] (x) Q[1,1] + Q[0,1] (x) Q[1,0] + Q[1,0] (x) Q[0,1] + "
        "Q[1,1] (x) Q[0,0]\n",
    ),
    (["coprod", "--p", "3", "--n", "1", "e[0;eps=1]"], "0\n"),
    # a leg with a factor beta e_0 (2 j - eps < 0) is beta of a p-th power: zero
    (
        ["coprod", "--p", "3", "--n", "2", "e[1,1;eps=10]"],
        "Q[0,0] (x) Q[1,1;eps=10] + Q[0,1] (x) Q[1,0;eps=10] + "
        "Q[1,0;eps=10] (x) Q[0,1] + Q[1,1;eps=10] (x) Q[0,0]\n",
    ),
    (["coprod", "--p", "3", "--n", "2", "e[0,1;eps=10]"], "0\n"),
    # a factor beta e_0 right of position 1 (its upper form has a negative
    # entry) is beta of a p-th power too
    (["coprod", "--p", "3", "--n", "3", "e[0,1/2,0;eps=011]"], "0\n"),
    # an upper input whose lower form has a negative entry is zero in the
    # excess quotient
    (["coprod", "--p", "2", "--n", "2", "E[0,5]"], "0\n"),
    (["coprod", "--p", "3", "--n", "2", "E[1,1;eps=01]"], "0\n"),
    # an upper input is refused in this order: parse errors, the entry
    # checks of every sequence, then non-integral upper entries; only after
    # those does a negative lower entry give 0, as E[1/2,1]'s would at p = 3
    (
        ["coprod", "--p", "2", "--n", "2", "E[1/2,1"],
        "error: expected ']', got '' (byte 7)\n",
    ),
    (
        ["coprod", "--p", "2", "--n", "2", "E[1/2,1]"],
        "error: p = 2 entries must be integers\n",
    ),
    (
        ["coprod", "--p", "2", "--n", "2", "E[1,1;eps=01]"],
        "error: p = 2 sequences cannot carry Bocksteins\n",
    ),
    (
        ["coprod", "--p", "3", "--n", "2", "E[1/2,1]"],
        "error: coproduct needs integral upper entries\n",
    ),
    (
        ["coprod", "--p", "3", "--n", "2", "E[3,1;eps=11]"],
        "Q[0,0] (x) Q[3/2,1;eps=11] + 2*Q[1/2,1;eps=01] (x) Q[1,0;eps=10] + "
        "Q[1/2,1;eps=11] (x) Q[1,0] + Q[1,0] (x) Q[1/2,1;eps=11] + "
        "Q[1,0;eps=10] (x) Q[1/2,1;eps=01] + Q[3/2,1;eps=11] (x) Q[0,0]\n",
    ),
    (["verify", "reference-vectors", "--p", "3"], "reference-vectors: 20 cases, ok\n"),
    (
        ["verify", "oracle-equivalence", "--p", "2", "--n", "2", "--max-entry", "4"],
        "oracle-equivalence: 25 cases, ok\n",
    ),
    (
        ["verify", "dickson-oracles", "--p", "3", "--n", "3"],
        "dickson-oracles: 3 cases, ok\n",
    ),
    (
        ["verify", "roundtrip", "--p", "2", "--n", "2", "--max-degree", "3"],
        "roundtrip: 10 cases, ok\n",
    ),
    (
        ["verify", "triangularity", "--p", "3", "--n", "2", "--max-degree", "3"],
        "triangularity: 10 cases, ok\n",
    ),
    (
        ["verify", "triangularity", "--p", "2", "--n", "4", "--max-degree", "60"],
        "error: --max-degree 60 at n = 4 reaches 635376 Dickson monomials, "
        "above the cap 5000\n",
    ),
    # the largest bound admitted at n = 2 (C(100, 2) = 4,950 monomials)
    (
        ["verify", "roundtrip", "--p", "3", "--n", "2", "--max-degree", "98"],
        "roundtrip: 4950 cases, ok\n",
    ),
    (
        ["verify", "roundtrip", "--p", "3", "--n", "2", "--max-degree", "99"],
        "error: --max-degree 99 at n = 2 reaches 5050 Dickson monomials, "
        "above the cap 5000\n",
    ),
    (["verify", "identities", "--p", "2", "--n", "3"], "identities: 12 cases, ok\n"),
    (["verify", "invariance", "--p", "2", "--n", "2"], "invariance: 11 cases, ok\n"),
]


@pytest.mark.parametrize(
    "argv,out", TEXT_CASES, ids=[" ".join(argv) for argv, _ in TEXT_CASES]
)
def test_text_output_pinned(capsys, argv, out):
    want = (1, "", out) if out.startswith("error: ") else (0, out, "")
    assert run_cli(capsys, *argv) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--p", "2", "--n", "0", "0"],
        ["dual", "--p", "2", "--n", "0", "1"],
        ["adem", "--p", "3", "--n", "0", "e[0]"],
        ["verify", "oracle-equivalence", "--p", "2", "--n", "0"],
        ["verify", "reference-vectors", "--p", "3", "--n", "0"],
        ["basis", "--p", "2", "--n", "-1", "0"],
        ["basis", "--p", "2", "--n", "7", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_n_out_of_range_is_a_domain_error(capsys, argv):
    for fmt in ("text", "json"):
        rc, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "--n must be in 1..6" in err


@pytest.mark.parametrize("suite", verify.SUITES)
def test_run_suite_n_out_of_range(suite):
    if suite == "reference-vectors":
        # fixed at n = 2: any other n is refused
        assert verify.run_suite(suite, 3, 2) == verify.run_suite(suite, 3) == (20, [])
        for n in (0, -1, 1, 5, 7):
            with pytest.raises(DomainError, match=f"runs at n = 2 only, got --n {n}"):
                verify.run_suite(suite, 3, n)
        return
    for n in (0, -1, 7):
        with pytest.raises(DomainError, match=r"1\.\.6"):
            verify.run_suite(suite, 2, n)


def test_reference_vectors_refuses_other_n(capsys):
    for fmt in ("text", "json"):
        argv = ["verify", "reference-vectors", "--p", "3", "--n", "5", "--format", fmt]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == "error: suite 'reference-vectors' runs at n = 2 only, got --n 5\n"
    argv = ["verify", "reference-vectors", "--p", "3", "--n", "2"]
    assert run_cli(capsys, *argv) == (0, "reference-vectors: 20 cases, ok\n", "")


@pytest.mark.parametrize("suite", verify.SUITES)
def test_run_suite_refuses_unread_bounds(suite):
    _, reads = verify.SUITES[suite]
    assert reads in (None, "--max-entry", "--max-degree")
    n = None if suite == "reference-vectors" else 2
    for flag, bound in (
        ("--max-entry", {"max_entry": 1}),
        ("--max-degree", {"max_degree": 1}),
    ):
        if flag == reads:
            # the bound it reads narrows the run
            cases, failures = verify.run_suite(suite, 2, n, **bound)
            assert failures == [] and 0 < cases < verify.run_suite(suite, 2, n)[0]
        else:
            with pytest.raises(DomainError, match=f"suite '{suite}' reads no {flag}"):
                verify.run_suite(suite, 2, n, **bound)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identities", "--p", "3", "--n", "2"]
        + ["--max-entry", "5", "--max-degree", "2"],
        ["verify", "reference-vectors", "--p", "3", "--max-degree", "9"],
        ["verify", "oracle-equivalence", "--p", "2", "--n", "2", "--max-degree", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_verify_refuses_unread_bound(capsys, argv):
    for fmt in ("text", "json"):
        rc, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (rc, out) == (1, "")
        assert err.startswith("error: suite ") and "reads no --max-" in err


@pytest.mark.parametrize(
    "fmt,size,sha256",
    [
        ("text", 228210, "3249dde9645ce2358e08c4adf9d582a14141dd10fe1e741abded8ab92637114b"),
        ("json", 302098, "da1e814f3a848aa02365f31c6e05c25a2f218940a20abc3ba1c74d4ac7f686d6"),
    ],
)
def test_big_expand_output_pinned(capsys, fmt, size, sha256):
    # the 6,876-term expansion of the benchmark's CLI session, byte for byte
    rc, out, err = run_cli(
        capsys, "expand", "--p", "2", "--n", "6", "d0*d1*d2*d3*d4*d5", "--format", fmt
    )
    assert (rc, err) == (0, "")
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256
    if fmt == "json":
        json_line(out)


def test_big_expand_text_and_json_agree(capsys):
    # both forms list the same exponent vectors in the same order
    argv = ["expand", "--p", "2", "--n", "6", "d0*d1*d2*d3*d4*d5"]
    rc, text, _ = run_cli(capsys, *argv)
    assert rc == 0

    def exps(term):
        e = [0] * 6
        for piece in term.split("*"):
            var, _, power = piece.partition("^")
            e[int(var[1:]) - 1] = int(power or 1)
        return e

    from_text = [exps(term) for term in text.rstrip("\n").split(" + ")]
    rc, line, _ = run_cli(capsys, *argv, "--format", "json")
    result = json_line(line)["result"]
    assert len(result) == len(from_text) == 6876
    assert [obj["exps"] for obj in result] == from_text
    assert {obj["coeff"] for obj in result} == {1}


def test_parser_reuse_keeps_no_format(capsys):
    argv = ["adem", "--p", "3", "--n", "2", "e[3,1]"]
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0 and json_line(out)["command"] == "adem"
    assert run_cli(capsys, *argv) == (0, "2*Q[0,2]\n", "")


def test_parser_reuse_keeps_no_n(capsys):
    assert run_cli(capsys, "coprod", "--p", "3", "--n", "1", "E[1]")[0] == 0
    rc, out, err = run_cli(capsys, "coprod", "--p", "3", "E[1]")
    assert rc == 1
    assert out == ""
    assert "needs --n" in err


def test_parser_reuse_after_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["adem", "--p", "3", "--n", "2", "--format", "xml", "e[3,1]"])
    assert e.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "adem", "--p", "3", "--n", "2", "e[3,1]") == (
        0,
        "2*Q[0,2]\n",
        "",
    )


def test_build_parser_is_fresh(capsys):
    assert build_parser() is not build_parser()
    assert build_parser() is not cli._parser()
    handed_out = build_parser()
    handed_out.add_argument("--extra")
    assert handed_out.parse_args(["--extra", "1", "basis", "--p", "2", "1"]).extra == "1"
    with pytest.raises(SystemExit) as e:
        main(["--extra", "1", "basis", "--p", "2", "--n", "2", "1"])
    assert e.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "basis", "--p", "2", "--n", "2", "1") == (0, "0\n", "")


def test_shell_entry_point():
    src = str(Path(dyerlashof.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def shell(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dyerlashof.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    proc = shell("adem", "--p", "3", "--n", "2", "e[3,1]")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2*Q[0,2]\n", "")
    proc = shell("no-such-command", "--p", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
