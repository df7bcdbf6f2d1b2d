"""Tests for the duality solver: degree enumeration, Kronecker pairing,
dual bases, and Adem relations via invariant theory."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dyerlashof import correspondence
from dyerlashof.arith import Context, DomainError, InvariantError
from dyerlashof.correspondence import (
    adem_via_invariants,
    admissible_basis,
    dickson_of_dual,
    dual_of_dickson,
    kronecker_pair,
    power_dual_check,
    solve_degree_diophantine,
)
from dyerlashof.invariants import (
    chi_min,
    coeff_in_expansion,
    dickson_degree,
    dickson_monomial_degree,
    expand_dickson_monomial,
)
from dyerlashof.opalgebra import OpPoly, adem_straighten_classical, coproduct
from dyerlashof.sequences import OpSeq, degree_lower, is_admissible

P3N2 = Context(3, 2)
P2N2 = Context(2, 2)


def test_solve_degree_examples():
    assert solve_degree_diophantine(24, P3N2) == [(0, 2)]
    assert solve_degree_diophantine(6, P2N2) == [(0, 3), (2, 0)]
    assert solve_degree_diophantine(0, P3N2) == [(0, 0)]
    assert solve_degree_diophantine(7, P3N2) == []


def test_solve_degree_is_complete():
    # brute force over a box agrees
    for ctx in (P2N2, P3N2, Context(2, 3)):
        smallest = min(dickson_degree(i, ctx) for i in range(ctx.n))
        for D in range(0, 40):
            box = range(D // smallest + 1)
            got = set(solve_degree_diophantine(D, ctx))
            brute = {
                m
                for m in itertools.product(box, repeat=ctx.n)
                if dickson_monomial_degree(m, ctx) == D
            }
            assert got == brute, (ctx.p, ctx.n, D)


def test_admissible_basis_examples():
    assert [s.twice for s in admissible_basis(24, P3N2)] == [(0, 4)]
    assert [s.twice for s in admissible_basis(6, P2N2)] == [(0, 6), (4, 4)]
    assert [s.twice for s in admissible_basis(0, P3N2)] == [(0, 0)]
    for s in admissible_basis(36, P3N2):
        assert is_admissible(s) and not any(s.eps)
        assert degree_lower(s) == 36


def test_kronecker_examples():
    assert kronecker_pair((0, 2), OpSeq(P3N2, (6, 2), (0, 0)), P3N2) == 2
    assert kronecker_pair((0, 3), OpSeq(P2N2, (4, 4), (0, 0)), P2N2) == 1
    # degree mismatch pairs to zero
    assert kronecker_pair((0, 1), OpSeq(P3N2, (0, 4), (0, 0)), P3N2) == 0
    # half-entry sequences pair to zero (no eps = 0 monomial matches)
    assert kronecker_pair((0, 2), OpSeq(P3N2, (5, 3), (0, 0)), P3N2) == 0
    with pytest.raises(DomainError):
        kronecker_pair((0, 2), OpSeq(P3N2, (6, 2), (0, 1)), P3N2)


def seq_of(ctx, twice):
    return OpSeq(ctx, tuple(twice), (0,) * ctx.n)


def test_dual_of_dickson_examples():
    d = dual_of_dickson((1, 0), P3N2)
    assert {(s.twice, c) for s, c in d.sorted_terms()} == {((2, 2), 1)}
    d = dual_of_dickson((0, 3), P2N2)
    assert {(s.twice, c) for s, c in d.sorted_terms()} == {((0, 6), 1), ((4, 4), 1)}
    d = dual_of_dickson((2, 0), P2N2)
    assert {(s.twice, c) for s, c in d.sorted_terms()} == {((4, 4), 1)}


def test_dual_leads_with_chi_min():
    for p in (2, 3):
        for n in (2, 3):
            ctx = Context(p, n)
            for m in itertools.product(range(4), repeat=n):
                if sum(m) > 4:
                    continue
                d = dual_of_dickson(m, ctx)
                lead, c = d.sorted_terms()[0]
                assert lead.twice == chi_min(m, ctx).twice
                assert c == 1


def test_dickson_of_dual_examples():
    assert dickson_of_dual(seq_of(P2N2, (4, 4))) == {(2, 0): 1}
    assert dickson_of_dual(seq_of(P2N2, (0, 6))) == {(0, 3): 1, (2, 0): 1}
    with pytest.raises(DomainError):
        dickson_of_dual(OpSeq(P2N2, (4, 2), (0, 0)))  # inadmissible
    with pytest.raises(DomainError):
        dickson_of_dual(OpSeq(P3N2, (0, 4), (0, 1)))  # Bockstein
    with pytest.raises(DomainError):
        dickson_of_dual(OpSeq(P3N2, (1, 3), (0, 0)))  # half entries


def test_dual_round_trip():
    for p in (2, 3):
        for n in (2, 3):
            ctx = Context(p, n)
            for m in itertools.product(range(5), repeat=n):
                if sum(m) > 4:
                    continue
                d = dual_of_dickson(m, ctx)
                combos = {}
                for s, c in d.sorted_terms():
                    for mono, x in dickson_of_dual(s).items():
                        new = (combos.get(mono, 0) + c * x) % p
                        if new:
                            combos[mono] = new
                        else:
                            combos.pop(mono, None)
                assert combos == {tuple(m): 1}, (p, n, m)


def test_adem_via_invariants_examples():
    out = adem_via_invariants(OpSeq(P3N2, (6, 2), (0, 0)))
    assert {(s.twice, c) for s, c in out.seq_terms()} == {((0, 4), 2)}
    out = adem_via_invariants(OpSeq(P3N2, (18, 0), (0, 0)))
    assert {(s.twice, c) for s, c in out.seq_terms()} == {((0, 6), 1)}
    out = adem_via_invariants(OpSeq(P2N2, (8, 2), (0, 0)))
    assert {(s.twice, c) for s, c in out.seq_terms()} == {((0, 6), 1)}
    fixed = OpSeq(P3N2, (0, 4), (0, 0))
    assert adem_via_invariants(fixed) == OpPoly.from_seq(fixed)


def test_adem_via_invariants_guards():
    with pytest.raises(DomainError):
        adem_via_invariants(OpSeq(P3N2, (6, 2), (1, 0)))
    with pytest.raises(DomainError):
        adem_via_invariants(OpSeq(P3N2, (5, 3), (0, 0)))


def test_invariant_engine_matches_classical():
    for p, bound in ((2, 12), (3, 8)):
        ctx = Context(p, 2)
        step = 2
        for twice in itertools.product(range(0, bound + 1, step), repeat=2):
            s = OpSeq(ctx, twice, (0, 0))
            a = adem_via_invariants(s)
            b = adem_straighten_classical(OpPoly.from_seq(s))
            assert a == b, (p, twice)
    # a larger degree (basis size r = 304) than the exhaustive ranges reach
    s = OpSeq.from_values(Context(2, 4), (60, 40, 20, 10))
    assert adem_via_invariants(s) == adem_straighten_classical(OpPoly.from_seq(s))


def test_broken_diagonal_raises(monkeypatch):
    # make <d^m, Q_K> = 0 for K = chi_min(d^m) at m = (1, 1)
    original = correspondence.coeff_in_expansion

    def broken(m, J, ctx):
        if tuple(m) == (1, 1) and tuple(J) == (1, 2):
            return 0
        return original(m, J, ctx)

    monkeypatch.setattr(correspondence, "coeff_in_expansion", broken)
    ctx = P3N2
    # (1, 2) = chi_min(d^(1,1)) lies below (4, 1) in the same degree
    with pytest.raises(InvariantError):
        adem_via_invariants(OpSeq.from_values(ctx, (4, 1)))
    with pytest.raises(InvariantError):
        dickson_of_dual(OpSeq.from_values(ctx, (1, 2)))
    with pytest.raises(InvariantError):
        dual_of_dickson((1, 1), ctx)


def test_broken_diagonal_raises_under_optimize():
    code = (
        "import sys\n"
        "from dyerlashof import correspondence\n"
        "from dyerlashof.arith import Context, InvariantError\n"
        "from dyerlashof.sequences import OpSeq\n"
        "original = correspondence.coeff_in_expansion\n"
        "def broken(m, J, ctx):\n"
        "    if tuple(m) == (1, 1) and tuple(J) == (1, 2):\n"
        "        return 0\n"
        "    return original(m, J, ctx)\n"
        "correspondence.coeff_in_expansion = broken\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    correspondence.adem_via_invariants(OpSeq.from_values(Context(3, 2), (4, 1)))\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    src = str(Path(correspondence.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_power_dual_examples():
    assert power_dual_check(2, 1, 1, 1, 1, P3N2)
    assert power_dual_check(3, 1, 2, 1, 2, Context(2, 3))
    # alpha_0 = 0 leaves only the leading-coefficient clause
    assert power_dual_check(2, 1, 1, 2, 0, P3N2)
    with pytest.raises(DomainError):
        power_dual_check(2, 2, 1, 1, 1, P3N2)  # needs i < n


def test_power_dual_sweep():
    # the two-term identity holds whenever alpha_k <= alpha_0 and the
    # third factor index n-i+k stays <= n
    for p in (2, 3, 5):
        for n in (2, 3):
            ctx = Context(p, n)
            for i in range(1, n):
                for k in range(1, min(n - i, i) + 1):
                    for ak in range(p):
                        for a0 in range(ak, p):
                            assert power_dual_check(n, i, k, ak, a0, ctx), (
                                p, n, i, k, ak, a0,
                            )
                    # pure p-th powers: trivially single-term
                    assert power_dual_check(n, i, k, p - 1, 0, ctx)


def test_power_dual_coefficient_boundary():
    # with alpha_k > alpha_0 the claimed coefficient picks up a spurious
    # C(alpha_k, mu) factor; the checker reports the mismatch
    assert not power_dual_check(2, 1, 1, 2, 1, P3N2)


def test_pairing_adjunction():
    # <d^a d^b, rho(e_I)> = sum <d^a, leg1> <d^b, leg2> over psi(e_I)
    rng = random.Random(7)
    ctx = P2N2
    checked = 0
    while checked < 60:
        a = tuple(rng.randrange(3) for _ in range(2))
        b = tuple(rng.randrange(3) for _ in range(2))
        D = dickson_monomial_degree(a, ctx) + dickson_monomial_degree(b, ctx)
        if D > 40:
            continue
        for I in admissible_basis(D, ctx):
            product = expand_dickson_monomial(a, ctx) * expand_dickson_monomial(b, ctx)
            left = product.terms.get(tuple(t // 2 for t in I.twice), 0)
            right = 0
            for legs, c in coproduct(I).to_lower().terms.items():
                (tw1, _), (tw2, _) = legs
                if any(t % 2 for t in tw1 + tw2):
                    continue
                right += (
                    c
                    * kronecker_pair(a, OpSeq(ctx, tw1, (0, 0)), ctx)
                    * kronecker_pair(b, OpSeq(ctx, tw2, (0, 0)), ctx)
                )
            assert left % 2 == right % 2, (a, b, I.twice)
            checked += 1


def test_expansion_lookup_consistency():
    # the pairing really is coefficient extraction
    for m in itertools.product(range(3), repeat=2):
        D = dickson_monomial_degree(m, P3N2)
        for J in admissible_basis(D, P3N2):
            if any(t % 2 for t in J.twice):
                continue
            assert kronecker_pair(m, J, P3N2) == coeff_in_expansion(
                m, tuple(t // 2 for t in J.twice), P3N2
            )
