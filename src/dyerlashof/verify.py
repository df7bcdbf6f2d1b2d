"""Verification suites behind `dyerlashof verify`.

Each suite returns (cases, failures): the number of cases checked and a
list of human-readable failure descriptions (empty on success).  Ranges
default to the documented acceptance ranges; oracle-equivalence reads
--max-entry, roundtrip and triangularity read --max-degree, and the
other suites read no bound.  --max-degree bounds the total exponent
sum m of the Dickson monomials d^m, not their degree; a bound that
reaches more than DICKSON_MONOMIALS_CAP monomials is refused with
DomainError before anything is enumerated.
"""

from __future__ import annotations

import itertools
from math import comb

from .arith import Context, DomainError, compositions
from .correspondence import (
    adem_via_invariants,
    admissible_basis,
    dickson_of_dual,
    dual_of_dickson,
    kronecker_pair,
    solve_degree_diophantine,
)
from .invariants import (
    BPoly,
    DPoly,
    check_invariance,
    dickson_monomial_degree,
    dickson_to_borel,
    dickson_to_borel_recursive,
    enumerate_A,
    identity_checks,
    matrix_to_monomial,
    realize_in_y,
)
from .opalgebra import OpPoly, adem_straighten_classical
from .sequences import OpSeq, integral_lower_need
from .textio import render_op_poly

__all__ = ["SUITES", "run_suite"]


def suite_oracle_equivalence(ctx: Context, max_entry: int = 8):
    """Classical rewriting vs invariant-theoretic solve on every eps = 0
    sequence with entries <= max_entry."""
    failures = []
    for vals in itertools.product(range(max_entry + 1), repeat=ctx.n):
        s = OpSeq(ctx, tuple(2 * v for v in vals), (0,) * ctx.n)
        a = adem_via_invariants(s)
        b = adem_straighten_classical(s)
        if a != b:
            failures.append(
                f"{s.twice}: invariants {render_op_poly(a)} / classical {render_op_poly(b)}"
            )
    return (max_entry + 1) ** ctx.n, failures


def suite_dickson_oracles(ctx: Context):
    """Closed formula = width recursion = matrix family, with the
    expected C(n, n-j) monomial count, for every generator."""
    failures = []
    cases = 0
    for j in range(ctx.n):
        cases += 1
        closed = dickson_to_borel(j, ctx)
        rec = dickson_to_borel_recursive(ctx.n, j, ctx)
        fam = BPoly(ctx)
        rows = enumerate_A(j, ctx)
        for A in rows:
            fam.add_term(matrix_to_monomial(A, ctx), 1)
        want = comb(ctx.n, ctx.n - j)
        if not (closed == rec == fam):
            failures.append(f"d_{{{ctx.n},{j}}}: oracle expansions disagree")
        elif len(closed.terms) != want or len(rows) != want:
            failures.append(
                f"d_{{{ctx.n},{j}}}: {len(closed.terms)} monomials, expected {want}"
            )
    return cases, failures


# the largest --max-degree admitted is 98, 29, 16, 11, 8 at n = 2..6; it
# counts monomials, not work (README: at odd p and large n, minutes)
DICKSON_MONOMIALS_CAP = 5_000


def _monomials_up_to(ctx: Context, max_sum: int) -> list:
    """The C(max_sum + n, n) exponent vectors m with sum m <= max_sum, by
    total; DomainError before enumerating when they exceed the cap."""
    count = comb(max_sum + ctx.n, ctx.n)
    if count > DICKSON_MONOMIALS_CAP:
        raise DomainError(
            f"--max-degree {max_sum} at n = {ctx.n} reaches {count} Dickson "
            f"monomials, above the cap {DICKSON_MONOMIALS_CAP}"
        )
    return [m for total in range(max_sum + 1) for m in compositions(total, ctx.n)]


def suite_roundtrip(ctx: Context, max_sum: int = 6):
    """dickson_of_dual inverts dual_of_dickson on all d^m, sum m <= max_sum."""
    failures = []
    cases = 0
    for m in _monomials_up_to(ctx, max_sum):
        cases += 1
        acc = DPoly(ctx)
        for J, c in dual_of_dickson(m, ctx).terms.items():
            acc = acc + dickson_of_dual(J).scaled(c)
        if acc.terms != {m: 1}:
            failures.append(f"d^{m}: round trip gave {acc.terms}")
    return cases, failures


def suite_triangularity(ctx: Context, max_sum: int = 6):
    """Per-degree pairing matrices are unitriangular under OpSeq.key."""
    failures = []
    degrees = sorted(
        {dickson_monomial_degree(m, ctx) for m in _monomials_up_to(ctx, max_sum)}
    )
    for D in degrees:
        ks, ms = admissible_basis(D, ctx), solve_degree_diophantine(D, ctx)
        if len(ks) != len(ms):
            failures.append(f"degree {D}: {len(ms)} monomials, {len(ks)} admissibles")
            continue
        for i in range(len(ks)):
            c = [kronecker_pair(ms[i], K) for K in ks]
            if c[i] != 1:
                failures.append(f"degree {D}: diagonal entry {c[i]} at {ks[i].twice}")
            for j in range(len(ks)):
                if ks[j].key() < ks[i].key() and c[j] != 0:
                    failures.append(
                        f"degree {D}: nonzero below diagonal at ({ks[i].twice},{ks[j].twice})"
                    )
    return len(degrees), failures


def suite_identities(ctx: Context):
    """Decomposition/inclusion/exchange identities at every index tuple
    that fits inside width n."""
    n = ctx.n
    cases = [("decomposition", "ks", (k, s)) for k in range(1, n) for s in range(k)]
    for k in range(1, n):
        for t in range(1, n - k + 1):
            for s in range(k):
                cases.append(("inclusion", "kts", (k, t, s)))
                cases += [("exchange", "ktsq", (k, t, s, q)) for q in range(t)]
    failures = []
    for kind, names, params in cases:
        ok, why = identity_checks(kind, params, ctx)
        if not ok:
            at = " ".join(f"{a}={v}" for a, v in zip(names, params))
            failures.append(f"{kind} {at}: {why}")
    return len(cases), failures


def suite_invariance(ctx: Context):
    """Dickson generators are GL-invariant; Borel monomials (exponents
    up to 2) are Borel-invariant."""
    failures = []
    cases = 0
    for i in range(ctx.n):
        cases += 1
        y = realize_in_y(dickson_to_borel(i, ctx))
        if not check_invariance(y, "gl"):
            failures.append(f"d_{{{ctx.n},{i}}} not GL-invariant")
    for exps in itertools.product(range(3), repeat=ctx.n):
        cases += 1
        y = realize_in_y(BPoly(ctx, {exps: 1}))
        if not check_invariance(y, "borel"):
            failures.append(f"h^{exps} not Borel-invariant")
    return cases, failures


def _vec(ctx: Context, twice, eps=None) -> OpSeq:
    return OpSeq(ctx, tuple(twice), tuple(eps) if eps else (0,) * ctx.n)


def reference_vector_cases(p: int):
    """The frozen straightening vectors (length-2 relations).

    Odd p: the six eps = 0 closed-form vectors (k up to 3) plus the six
    Bockstein vectors (k up to 2).  p = 2: the derived pair from the
    even-prime oracle runs.  Every vector is matched exactly.
    """
    ctx = Context(p, 2)
    cases = []  # (label, input OpSeq, expected {(twice, eps): coeff})
    if p == 2:
        cases.append(("e[4,1]", _vec(ctx, (8, 2)), {((0, 6), (0, 0)): 1}))
        cases.append(("e[0,2]", _vec(ctx, (0, 4)), {((0, 4), (0, 0)): 1}))
        return cases
    for k in (1, 2, 3):
        q = p**k
        q1 = p ** (k - 1)
        cases.append((f"e[{q},0]", _vec(ctx, (2 * q, 0)), {((0, 2 * q1), (0, 0)): 1}))
        cases.append(
            (
                f"e[{q + 1},1]",
                _vec(ctx, (2 * q + 2, 2)),
                {((2, 2 * q1 + 2), (0, 0)): 1},
            )
        )
        if k >= 2:
            cases.append(
                (
                    f"e[{q},1]",
                    _vec(ctx, (2 * q, 2)),
                    {((0, 2 * q1 + 2), (0, 0)): 1},
                )
            )
    cases.append(("e[1,0]", _vec(ctx, (2, 0)), {}))
    cases.append(("e[2,1]", _vec(ctx, (4, 2)), {}))
    cases.append((f"e[{p},1]", _vec(ctx, (2 * p, 2)), {((0, 4), (0, 0)): 2}))
    for k in (1, 2):
        q = p**k
        q1 = p ** (k - 1)
        cases.append(
            (
                f"e[{q}+1/2,1/2]",
                _vec(ctx, (2 * q + 1, 1)),
                {((1, 2 * q1 + 1), (0, 0)): 1},
            )
        )
        cases.append(
            (
                f"e[{q}]b e[1/2]",
                _vec(ctx, (2 * q, 1), (0, 1)),
                {((0, 2 * q1 + 1), (0, 1)): 1},
            )
        )
        cases.append(
            (
                f"e[{q}+1]b e[1/2]",
                _vec(ctx, (2 * q + 2, 1), (0, 1)),
                {((1, 2 * q1 + 1), (1, 0)): 1},
            )
        )
    cases.append(("e[3/2,1/2]", _vec(ctx, (3, 1)), {}))
    cases.append(("e[1]b e[1/2]", _vec(ctx, (2, 1), (0, 1)), {((1, 1), (1, 0)): 1}))
    cases.append(("e[2]b e[1/2]", _vec(ctx, (4, 1), (0, 1)), {}))
    return cases


def suite_reference_vectors(p: int):
    ctx = Context(p, 2)
    failures = []
    cases = reference_vector_cases(p)
    for label, s, expected_terms in cases:
        expected = OpPoly(ctx, expected_terms)
        got = adem_straighten_classical(s)
        ok = got == expected
        if ok and not integral_lower_need(s):
            ok = adem_via_invariants(s) == got
            if not ok:
                failures.append(f"{label}: engines disagree")
                continue
        if not ok:
            failures.append(
                f"{label}: got {render_op_poly(got)}, expected {render_op_poly(expected)}"
            )
    return len(cases), failures


# each suite's function and the one bound it reads, or None
SUITES = {
    "oracle-equivalence": (suite_oracle_equivalence, "--max-entry"),
    "dickson-oracles": (suite_dickson_oracles, None),
    "roundtrip": (suite_roundtrip, "--max-degree"),
    "triangularity": (suite_triangularity, "--max-degree"),
    "identities": (suite_identities, None),
    "invariance": (suite_invariance, None),
    "reference-vectors": (suite_reference_vectors, None),
}


def run_suite(
    name: str,
    p: int,
    n: int | None = None,
    max_entry: int | None = None,
    max_degree: int | None = None,
):
    """Dispatch one named suite; returns (cases, failures).  A bound the
    suite does not read is refused, and so is an n other than 2 for
    reference-vectors, whose cases are length-2 relations."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
    suite, reads = SUITES[name]
    for flag, bound in (("--max-entry", max_entry), ("--max-degree", max_degree)):
        if bound is not None and flag != reads:
            raise DomainError(f"suite {name!r} reads no {flag}")
        if bound is not None and bound < 0:
            raise DomainError(f"{flag} must be >= 0, got {bound}")
    if name == "reference-vectors":
        if n not in (None, 2):
            raise DomainError(f"suite {name!r} runs at n = 2 only, got --n {n}")
        return suite(p)
    if n is None:
        raise DomainError(f"suite {name!r} needs --n")
    ctx = Context(p, n)
    # at most one bound is left: the one the suite reads
    bound = max_entry if max_entry is not None else max_degree
    return suite(ctx) if bound is None else suite(ctx, bound)
