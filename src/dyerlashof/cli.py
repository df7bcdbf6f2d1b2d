"""Command-line front end.

Examples:
    dyerlashof adem --p 3 --n 2 "e[3,1]"
    dyerlashof adem --p 2 --n 3 "e[400,200,10]" --check
    dyerlashof dual --p 2 --n 2 "d1^3"
    dyerlashof expand --p 3 --n 2 "d1" --format json
    dyerlashof verify oracle-equivalence --p 2 --n 2 --max-entry 12

`adem` answers integral eps = 0 input through Adem-relation rewriting,
the faster engine, and refuses other input as the paper's engine does;
`adem --check` also runs the paper's invariant-theoretic engine on the
input and fails unless the two answers agree.  `adem-classical` always
rewrites.

Exit codes: 0 success, 1 domain error (bad input values, failed
verification, engines that disagree under --check), 2 usage error.

A call imports ``json`` only with ``--format json``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import textio, verify
from .arith import MAX_VARS, Context, DomainError
from .correspondence import (
    adem_via_invariants,
    admissible_basis,
    dickson_of_dual,
    dual_of_dickson,
    kronecker_pair,
    solve_degree_diophantine,
)
from .invariants import expand_dickson_monomial
from .opalgebra import OpPoly, adem_straighten_classical, coproduct
from .sequences import OpSeq, integral_lower_need, upper_to_lower

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyerlashof",
        description="Adem relations and hom-duals for Dyer-Lashof operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="prime (2, 3, 5, 7)")
    common.add_argument("--n", type=int, help="number of factors (1..6)")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    def command(name, handler, doc):
        q = sub.add_parser(name, parents=[common], help=doc)
        q.set_defaults(handler=handler)
        return q

    seq_help = "sequence, e.g. e[3,1] or e[3/2,1;eps=01]"
    doc = "straighten e[...] (integral, eps = 0) via Adem-relation rewriting"
    q = command("adem", _adem, doc)
    q.add_argument("expr", help=seq_help)
    q.add_argument(
        "--check",
        action="store_true",
        help="also straighten via the invariant-theoretic algorithm; "
        "exit 1 if the answers differ",
    )

    doc = "straighten e[...] via Adem-relation rewriting"
    q = command("adem-classical", _adem_classical, doc)
    q.add_argument("expr", help=seq_help)

    q = command("dual", _dual, "dual basis expansion of d^m")
    q.add_argument("expr", help="Dickson monomial, e.g. d1^3*d0")

    q = command("invert-dual", _invert_dual, "Dickson combination dual to (Q_J)*")
    q.add_argument("expr", help="admissible sequence, e.g. Q[0,3]")

    q = command("expand", _expand, "expand d^m in h variables")
    q.add_argument("expr", help="Dickson monomial, e.g. d1^2")

    q = command("basis", _basis, "admissible basis of a degree")
    q.add_argument("degree", type=int)

    q = command("solve-degree", _solve_degree, "Dickson monomials of a degree")
    q.add_argument("degree", type=int)

    q = command("pair", _pair, "Kronecker pairing <d^m, Q_J>")
    q.add_argument("mono", help="Dickson monomial, e.g. d1^2")
    q.add_argument("seq", help="sequence, e.g. Q[3,1]")

    q = command("coprod", _coprod, "two-fold coproduct")
    q.add_argument("expr", help="sequence, e.g. e[1] at n=1")

    # run() calls the suite itself: its exit code depends on the result
    q = command("verify", None, "run a verification suite")
    q.add_argument("suite", choices=verify.SUITES)
    q.add_argument("--max-entry", type=int, help="entry bound for oracle-equivalence")
    q.add_argument(
        "--max-degree",
        type=int,
        help="total-exponent bound on d^m for roundtrip and triangularity",
    )

    return parser


def _emit(args, result, to_json, to_text, input_json, extras=None) -> None:
    """Print result in the format args.format selects.

    Only that format is built: to_json(result) and the envelope's input
    field input_json() for json, followed by the fields of extras, if
    any; to_text(result) for text.
    """
    if args.format == "json":
        import json

        doc = {
            "p": args.p,
            "n": args.n,
            "command": args.command,
            "input": input_json(),
            "result": to_json(result),
        }
        if extras:
            doc.update(extras)
        # doc is a fresh tree built above and by textio: it holds no cycle
        print(json.dumps(doc, check_circular=False))
    else:
        print(to_text(result))


def _mono_json(m) -> dict:
    return {"m": list(m)}


def _seq_input(s):
    """The envelope's input field for a sequence argument, built on call."""
    return lambda: textio.seq_to_json(s)


def _lines(render):
    """Text form of a list: one rendered item per line, `0` when empty."""
    return lambda items: "\n".join(map(render, items)) if items else "0"


def _json_list(to_json):
    """JSON form of a list: one JSON value per item."""
    return lambda items: [to_json(item) for item in items]


def _suite_text(suite: str, res) -> str:
    """The FAIL lines of a suite's result, then its status line."""
    cases, failures = res
    status = "ok" if not failures else f"{len(failures)} FAILED"
    lines = [f"FAIL: {f}" for f in failures]
    return "\n".join(lines + [f"{suite}: {cases} cases, {status}"])


# Command handlers.  Each returns the arguments of _emit after args:
# (result, to_json, to_text, input_json), and `adem` the envelope's
# extras.  They look up the engines and textio's functions when they
# run, where a tracer may have patched them.


def _adem(args, ctx):
    """Rewrite on the paper's domain; leave other input to the paper's
    engine, whose DomainError refuses it (the rewriting's Bockstein
    answers are not yet trusted).  --check also asks the paper's engine
    and marks the envelope when the answers agree."""
    s = textio.parse_sequence(args.expr, ctx)
    if not integral_lower_need(s):
        res = adem_straighten_classical(s)
    else:
        res = adem_via_invariants(s)
    extras = None
    if args.check:
        if adem_via_invariants(s) != res:
            raise DomainError(
                "--check: Adem-relation rewriting and the invariant-theoretic "
                "algorithm disagree"
            )
        extras = {"checked": True}
    return res, textio.op_poly_to_json, textio.render_op_poly, _seq_input(s), extras


def _adem_classical(args, ctx):
    s = textio.parse_sequence(args.expr, ctx)
    res = adem_straighten_classical(s)
    return res, textio.op_poly_to_json, textio.render_op_poly, _seq_input(s)


def _dual(args, ctx):
    m = textio.parse_dickson(args.expr, ctx)
    res = dual_of_dickson(m, ctx)
    return res, textio.dual_to_json, textio.render_dual, lambda: _mono_json(m)


def _invert_dual(args, ctx):
    s = textio.parse_sequence(args.expr, ctx)
    res = dickson_of_dual(s)
    to_json, to_text = textio.dickson_combo_to_json, textio.render_dickson_combo
    return res, to_json, to_text, _seq_input(s)


def _expand(args, ctx):
    m = textio.parse_dickson(args.expr, ctx)
    res = expand_dickson_monomial(m, ctx)
    return res, textio.bpoly_to_json, textio.render_bpoly, lambda: _mono_json(m)


def _basis(args, ctx):
    seqs = admissible_basis(args.degree, ctx)
    to_json, to_text = _json_list(textio.seq_to_json), _lines(textio.render_seq)
    return seqs, to_json, to_text, lambda: {"degree": args.degree}


def _solve_degree(args, ctx):
    monos = solve_degree_diophantine(args.degree, ctx)
    to_json = _json_list(_mono_json)
    to_text = _lines(textio.render_dickson_monomial)
    return monos, to_json, to_text, lambda: {"degree": args.degree}


def _pair(args, ctx):
    m = textio.parse_dickson(args.mono, ctx)
    s = textio.parse_sequence(args.seq, ctx)
    v = kronecker_pair(m, s)
    return v, lambda v: {"value": v}, str, lambda: _mono_json(m) | textio.seq_to_json(s)


def _coprod(args, ctx):
    twice, eps, upper = textio.parse_any_sequence(args.expr, ctx)
    note = {"notation": "upper"} if upper else {}
    if not upper:
        x = OpSeq(ctx, twice, eps)
    elif any(t % 2 for t in twice):  # before a conversion that may fail
        raise DomainError("coproduct needs integral upper entries")
    else:
        try:
            x = OpSeq(ctx, upper_to_lower(ctx, twice, eps), eps)
        except DomainError:
            x = OpPoly(ctx)  # a negative lower entry: zero in the excess quotient
    to_json, to_text = textio.tensor_to_json, textio.render_tensor
    res = coproduct(x)
    return res, to_json, to_text, lambda: textio.entries_to_json(twice, eps) | note


def run(args) -> int:
    # checked for every command: verify reference-vectors builds no context
    # from --n, so Context would never see it
    if args.n is not None and not 1 <= args.n <= MAX_VARS:
        raise DomainError(f"--n must be in 1..{MAX_VARS}, got {args.n}")

    if args.command == "verify":
        cases, failures = verify.run_suite(
            args.suite, args.p, args.n, args.max_entry, args.max_degree
        )
        _emit(
            args,
            (cases, failures),
            lambda r: {"cases": r[0], "failures": r[1]},
            functools.partial(_suite_text, args.suite),
            lambda: {"suite": args.suite},
        )
        return 0 if not failures else 1

    if args.n is None:
        raise DomainError("this command needs --n")
    _emit(args, *args.handler(args, Context(args.p, args.n)))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call; build_parser() hands
    out fresh ones.  Parsing leaves a parser unchanged, and every call gets
    a fresh Namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
