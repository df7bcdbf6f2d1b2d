"""Command-line front end.

Examples:
    dyerlashof adem --p 3 --n 2 "e[3,1]"
    dyerlashof dual --p 2 --n 2 "d1^3"
    dyerlashof expand --p 3 --n 2 "d1" --format json
    dyerlashof verify oracle-equivalence --p 2 --n 2 --max-entry 12

Exit codes: 0 success, 1 domain error (bad input values, failed
verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
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
from .sequences import UpperSeq

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

    for name, doc in (
        ("adem", "straighten e[...] via the invariant-theoretic algorithm"),
        ("adem-classical", "straighten e[...] via Adem-relation rewriting"),
    ):
        q = sub.add_parser(name, parents=[common], help=doc)
        q.add_argument("expr", help="sequence, e.g. e[3,1] or e[3/2,1;eps=01]")

    q = sub.add_parser("dual", parents=[common], help="dual basis expansion of d^m")
    q.add_argument("expr", help="Dickson monomial, e.g. d1^3*d0")

    q = sub.add_parser(
        "invert-dual", parents=[common], help="Dickson combination dual to (Q_J)*"
    )
    q.add_argument("expr", help="admissible sequence, e.g. Q[0,3]")

    q = sub.add_parser("expand", parents=[common], help="expand d^m in h variables")
    q.add_argument("expr", help="Dickson monomial, e.g. d1^2")

    q = sub.add_parser("basis", parents=[common], help="admissible basis of a degree")
    q.add_argument("degree", type=int)

    q = sub.add_parser(
        "solve-degree", parents=[common], help="Dickson monomials of a degree"
    )
    q.add_argument("degree", type=int)

    q = sub.add_parser("pair", parents=[common], help="Kronecker pairing <d^m, Q_J>")
    q.add_argument("mono", help="Dickson monomial, e.g. d1^2")
    q.add_argument("seq", help="sequence, e.g. Q[3,1]")

    q = sub.add_parser("coprod", parents=[common], help="two-fold coproduct")
    q.add_argument("expr", help="sequence, e.g. e[1] at n=1")

    q = sub.add_parser("verify", parents=[common], help="run a verification suite")
    q.add_argument("suite", choices=verify.SUITES)
    q.add_argument("--max-entry", type=int, help="entry bound for oracle-equivalence")
    q.add_argument(
        "--max-degree", type=int, help="total-exponent bound for roundtrip suites"
    )

    return parser


def _need_n(args) -> Context:
    if args.n is None:
        raise DomainError("this command needs --n")
    return Context(args.p, args.n)


def _emit(args, result, to_json, to_text, input_json) -> None:
    """Print result in the format args.format selects.

    Only that format is built: to_json(result) and the envelope's input
    field input_json() for json, to_text(result) for text.
    """
    if args.format == "json":
        doc = {
            "p": args.p,
            "n": args.n,
            "command": args.command,
            "input": input_json(),
            "result": to_json(result),
        }
        print(json.dumps(doc))
    else:
        print(to_text(result))


def _mono_json(m) -> dict:
    return {"m": list(m)}


def _lines(render):
    """Text form of a list: one rendered item per line, `0` when empty."""
    return lambda items: "\n".join(map(render, items)) if items else "0"


def _suite_text(suite: str, res) -> str:
    """The FAIL lines of a suite's result, then its status line."""
    cases, failures = res
    status = "ok" if not failures else f"{len(failures)} FAILED"
    lines = [f"FAIL: {f}" for f in failures]
    return "\n".join(lines + [f"{suite}: {cases} cases, {status}"])


def run(args) -> int:
    cmd = args.command
    # checked for every command: verify reference-vectors builds no context
    # from --n, so Context would never see it
    if args.n is not None and not 1 <= args.n <= MAX_VARS:
        raise DomainError(f"--n must be in 1..{MAX_VARS}, got {args.n}")

    if cmd == "verify":
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

    ctx = _need_n(args)

    if cmd in ("adem", "adem-classical"):
        s = textio.parse_sequence(args.expr, ctx)
        if cmd == "adem":
            res = adem_via_invariants(s)
        else:
            res = adem_straighten_classical(OpPoly.from_seq(s))
        _emit(
            args,
            res,
            textio.op_poly_to_json,
            textio.render_op_poly,
            lambda: textio.seq_to_json(s),
        )
        return 0

    if cmd == "dual":
        m = textio.parse_dickson(args.expr, ctx)
        res = dual_of_dickson(m, ctx)
        _emit(
            args, res, textio.dual_to_json, textio.render_dual, lambda: _mono_json(m)
        )
        return 0

    if cmd == "invert-dual":
        s = textio.parse_sequence(args.expr, ctx)
        res = dickson_of_dual(s)
        _emit(
            args,
            res,
            textio.dickson_combo_to_json,
            textio.render_dickson_combo,
            lambda: textio.seq_to_json(s),
        )
        return 0

    if cmd == "expand":
        m = textio.parse_dickson(args.expr, ctx)
        res = expand_dickson_monomial(m, ctx)
        _emit(
            args, res, textio.bpoly_to_json, textio.render_bpoly, lambda: _mono_json(m)
        )
        return 0

    if cmd == "basis":
        seqs = admissible_basis(args.degree, ctx)
        _emit(
            args,
            seqs,
            lambda items: [textio.seq_to_json(s) for s in items],
            _lines(textio.render_seq),
            lambda: {"degree": args.degree},
        )
        return 0

    if cmd == "solve-degree":
        monos = solve_degree_diophantine(args.degree, ctx)
        _emit(
            args,
            monos,
            lambda items: [_mono_json(m) for m in items],
            _lines(textio.render_dickson_monomial),
            lambda: {"degree": args.degree},
        )
        return 0

    if cmd == "pair":
        m = textio.parse_dickson(args.mono, ctx)
        s = textio.parse_sequence(args.seq, ctx)
        v = kronecker_pair(m, s, ctx)
        _emit(
            args,
            v,
            lambda v: {"value": v},
            str,
            lambda: {**_mono_json(m), **textio.seq_to_json(s)},
        )
        return 0

    if cmd == "coprod":
        s = textio.parse_any_sequence(args.expr, ctx)
        res = coproduct(s).to_lower()

        def input_json():
            payload = textio.seq_to_json(s)
            if isinstance(s, UpperSeq):
                payload["notation"] = "upper"
            return payload

        _emit(args, res, textio.tensor_to_json, textio.render_tensor, input_json)
        return 0

    raise DomainError(f"unhandled command {cmd!r}")


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
