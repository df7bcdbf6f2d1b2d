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
from dyerlashof.arith import Context, DomainError, InvariantError, binom_mod_p
from dyerlashof.correspondence import (
    DualExpansion,
    adem_via_invariants,
    admissible_basis,
    dickson_of_dual,
    dual_of_dickson,
    kronecker_pair,
    solve_degree_diophantine,
)
from dyerlashof.invariants import (
    chi_min,
    coeff_in_expansion,
    coeff_memo,
    dickson_degree,
    dickson_monomial_degree,
    expand_dickson_monomial,
    psi_T,
)
from dyerlashof.opalgebra import OpPoly, adem_straighten_classical, coproduct
from dyerlashof.sequences import OpSeq, UpperSeq, compare, degree_lower, is_admissible
from dyerlashof.textio import parse_any_sequence

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


def test_enumerations_hand_out_fresh_lists():
    for enumerate_degree in (admissible_basis, solve_degree_diophantine):
        first = enumerate_degree(6, P2N2)
        want = list(first)
        first.reverse()
        first.append("junk")
        second = enumerate_degree(6, P2N2)
        assert second == want and second is not first
        second.clear()
        assert enumerate_degree(6, P2N2) == want


def count_searches(fn):
    """Run fn and count, per enumeration (keyed by the ``increasing``
    flag of ``_solutions``), the top-level calls of its inner recursion
    ``rec``: one per search of a degree."""
    searches = {}

    def profile(frame, event, arg):
        if event != "call" or frame.f_code.co_name != "rec":
            return
        outer = frame.f_back
        if outer.f_code is correspondence._solutions.__wrapped__.__code__:
            key = outer.f_locals["increasing"]
            searches[key] = searches.get(key, 0) + 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return searches


def test_degree_is_enumerated_once(capsys):
    from dyerlashof import cli

    ctx = Context(2, 3)
    D = degree_lower(OpSeq.from_values(ctx, (4, 0, 4)))
    common = ["--p", "2", "--n", "3"]
    correspondence._solutions.cache_clear()
    correspondence._degree_data.cache_clear()

    def session():
        for argv in (
            ["basis", *common, str(D)],
            ["solve-degree", *common, str(D)],
            ["adem", *common, "e[4,0,4]"],
            ["basis", *common, str(D), "--format", "json"],
        ):
            assert cli.main(argv) == 0

    # one search of the admissible basis, one of the Dickson monomials
    assert count_searches(session) == {True: 1, False: 1}
    assert correspondence._solutions.cache_info().misses == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:6] == ["Q[0,0,5]", "Q[0,2,4]", "Q[2,3,3]", "d2^5", "d1^2*d2^2", "d0^2*d1"]


def test_enumeration_caches_are_bounded():
    ctx = Context(2, 1)
    bound = correspondence.ENUMERATION_CACHE_SIZE
    # _solutions holds both enumerations, so each keeps its last `bound` degrees
    caches = (
        (correspondence._solutions, 2 * bound),
        (correspondence._degree_data, bound),
    )
    for cache, size in caches:
        assert cache.cache_info().maxsize == size
    for D in range(bound + 20):
        assert len(admissible_basis(D, ctx)) == len(solve_degree_diophantine(D, ctx)) == 1
        assert len(correspondence._degree_data(D, ctx)[0]) == 1
        for cache, size in caches:
            assert cache.cache_info().currsize <= size
    for cache, size in caches:
        assert cache.cache_info().currsize == size


def test_enumerations_ascend_and_chi_min_maps_row_by_row():
    # the per-degree record reads both enumerations as emitted: each
    # ascends, and chi_min takes the i-th monomial to the i-th basis row
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            for D in range(3 * dickson_degree(0, ctx) + 1):
                basis = admissible_basis(D, ctx)
                monos = solve_degree_diophantine(D, ctx)
                assert all(compare(a, b) < 0 for a, b in zip(basis, basis[1:])), D
                assert monos == sorted(set(monos)), (p, n, D)
                assert [chi_min(m, ctx) for m in monos] == basis, (p, n, D)


def test_one_enumerator_matches_brute_force():
    # both enumerations share _solutions, so a bug there could drop a row
    # on both sides and still pass the row-by-row chi_min check
    side = 10
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            units = [tuple(int(i == t) for i in range(n)) for t in range(n)]
            lower = tuple(degree_lower(psi_T(u, ctx)) for u in units)
            dickson = tuple(dickson_degree(i, ctx) for i in range(n))
            for weights, increasing in itertools.product((lower, dickson), (True, False)):
                brute = {}
                for v in itertools.product(range(side), repeat=n):
                    if not increasing or list(v) == sorted(v):
                        D = sum(a * w for a, w in zip(v, weights))
                        brute.setdefault(D, []).append(v)
                # the box holds every solution of a degree below this
                for D in range(side * min(weights)):
                    got = correspondence._solutions(weights, D, increasing)
                    assert got == tuple(brute.get(D, ())), (weights, D, increasing)
                assert correspondence._solutions(weights, 0, increasing) == ((0,) * n,)
                with pytest.raises(DomainError, match="nonnegative"):
                    correspondence._solutions(weights, -1, increasing)


@pytest.mark.parametrize(
    "reverse,match",
    [
        (("_degree_basis",), "not a bijection"),
        (("_degree_basis", "_degree_monomials"), "not strictly ascending"),
    ],
)
def test_misordered_enumeration_raises(monkeypatch, reverse, match):
    # rows out of order are refused, not sorted away: reversing the basis
    # alone breaks the row-by-row chi_min match, and reversing both
    # enumerations keeps the match but breaks the ascent the solves bisect
    for name in reverse:
        original = getattr(correspondence, name)
        monkeypatch.setattr(
            correspondence, name, lambda D, ctx, f=original: f(D, ctx)[::-1]
        )
    correspondence._degree_data.cache_clear()
    x = OpSeq.from_values(P2N2, (0, 3))  # degree 6 has two rows
    with pytest.raises(InvariantError, match=match):
        adem_via_invariants(x)
    monkeypatch.undo()
    assert adem_via_invariants(x) == adem_straighten_classical(OpPoly.from_seq(x))


def test_kronecker_refuses_a_foreign_sequence():
    # the pairing takes its context from J: m must fit J's context, and a
    # p = 5 sequence pairs at p = 5 (before, a context argument could
    # differ from J's)
    with pytest.raises(DomainError, match="expected 2 exponents, got 3"):
        kronecker_pair((0, 1, 0), OpSeq(P2N2, (0, 2), (0, 0)))
    p5 = Context(5, 2)
    assert kronecker_pair((0, 2), OpSeq(p5, (0, 4), (0, 0))) == coeff_in_expansion(
        (0, 2), (0, 2), p5
    )
    assert kronecker_pair((0, 3), OpSeq(P2N2, (4, 4), (0, 0))) == 1


def test_kronecker_refuses_upper_notation():
    # before, E[2,4] at p = 3 was paired as if it were e[2,4] and gave 1
    upper = UpperSeq(P3N2, (4, 8), (0, 0))
    with pytest.raises(DomainError, match="lower notation, got UpperSeq"):
        kronecker_pair((2, 2), upper)
    assert kronecker_pair((2, 2), OpSeq(P3N2, (4, 8), (0, 0))) == 1


def test_dickson_of_dual_refuses_upper_notation():
    # before, E[2,4] at p = 3 gave {(2, 2): 1}, the answer for e[2,4]
    upper = UpperSeq(P3N2, (4, 8), (0, 0))
    with pytest.raises(DomainError, match="lower notation, got UpperSeq"):
        dickson_of_dual(upper)
    assert dickson_of_dual(OpSeq(P3N2, (4, 8), (0, 0))).terms == {(2, 2): 1}


def test_kronecker_checks_the_exponents():
    # before, each of these paired to 0 instead of refusing m
    q3, q6 = OpSeq.from_values(P2N2, (0, 3)), OpSeq.from_values(P2N2, (0, 6))
    for m, J in (((-2, 6), q6), ((-1, 3), q3)):
        with pytest.raises(DomainError, match="negative Dickson exponent"):
            kronecker_pair(m, J)
    for m, J in (((2,), q6), ((1,), q3)):
        with pytest.raises(DomainError, match="expected 2 exponents, got 1"):
            kronecker_pair(m, J)
    # valid pairs are unchanged
    assert kronecker_pair((0, 3), q3) == 1
    assert kronecker_pair((2, 0), q3) == 0
    assert kronecker_pair((0, 6), q6) == 1
    assert kronecker_pair((0, 2), q3) == 0


def test_kronecker_examples():
    assert kronecker_pair((0, 2), OpSeq(P3N2, (6, 2), (0, 0))) == 2
    assert kronecker_pair((0, 3), OpSeq(P2N2, (4, 4), (0, 0))) == 1
    # degree mismatch pairs to zero
    assert kronecker_pair((0, 1), OpSeq(P3N2, (0, 4), (0, 0))) == 0
    # half-entry sequences pair to zero (no eps = 0 monomial matches)
    assert kronecker_pair((0, 2), OpSeq(P3N2, (5, 3), (0, 0))) == 0
    with pytest.raises(DomainError):
        kronecker_pair((0, 2), OpSeq(P3N2, (6, 2), (0, 1)))


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


def dual_by_pairing(m, ctx):
    """Reference: the pairing with every admissible J of the degree,
    through the checked kronecker_pair."""
    m = tuple(m)
    D = dickson_monomial_degree(m, ctx)
    out = DualExpansion(ctx)
    lead = chi_min(m, ctx)
    for J in admissible_basis(D, ctx):
        c = kronecker_pair(m, J)
        cmp = compare(J, lead)
        if cmp < 0 and c:
            raise InvariantError(
                f"pairing <d^{m}, Q_{J.twice}> below chi_min is {c}, not 0"
            )
        if cmp == 0 and J.twice == lead.twice and c != 1:
            raise InvariantError(f"chi_min coefficient of d^{m} is {c}, not 1")
        if c:
            out.add_term(J, c)
    return out


def test_dual_matches_pairing_reference():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            for m in itertools.product(range(9), repeat=n):
                if sum(m) <= 8:
                    assert dual_of_dickson(m, ctx) == dual_by_pairing(m, ctx), (p, n, m)


def test_dual_on_cold_degree():
    correspondence._degree_data.cache_clear()
    coeff_memo.cache_clear()
    ctx = Context(2, 4)
    m = (3, 0, 2, 1)
    got = dual_of_dickson(m, ctx)
    assert got == dual_by_pairing(m, ctx)
    assert got.sorted_terms()[0] == (chi_min(m, ctx), 1)


def test_dual_checks_the_pairings_it_reads(monkeypatch):
    # at p = 2, n = 2, degree 6: Q_(0,3) < chi_min(d^(2,0)) = Q_(2,2), and
    # <d^(2,0), Q_(0,3)> = 0
    m = (2, 0)
    assert dual_of_dickson(m, P2N2) == dual_by_pairing(m, P2N2)
    true = coeff_memo(P2N2)

    def misread(J, wrong):
        # a reader that is wrong at (m, J) alone
        def reader(mm, JJ):
            return wrong if (mm, JJ) == (m, J) else true(mm, JJ)

        monkeypatch.setattr(correspondence, "coeff_memo", lambda ctx: reader)

    misread((0, 3), 1)
    with pytest.raises(InvariantError, match="below chi_min is 1, not 0"):
        dual_of_dickson(m, P2N2)
    misread((2, 2), 0)
    with pytest.raises(InvariantError, match="chi_min coefficient of d"):
        dual_of_dickson(m, P2N2)
    monkeypatch.undo()
    assert dual_of_dickson(m, P2N2) == dual_by_pairing(m, P2N2)


def test_reader_reuses_reads_across_calls():
    # straightening the same input again only hits the context's reader;
    # cache_clear hands out a fresh reader with an empty cache
    x = OpSeq(P3N2, (6, 2), (0, 0))
    adem_via_invariants(x)
    reader = coeff_memo(P3N2)
    before = reader.cache_info()
    adem_via_invariants(x)
    after = reader.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    coeff_memo.cache_clear()
    fresh = coeff_memo(P3N2)
    assert fresh is not reader
    assert fresh.cache_info() == (0, 0, None, 0)


def test_dual_rejects_bad_exponents():
    for m in ((1,), (1, 0, 0), ()):
        with pytest.raises(DomainError, match="expected 2 exponents"):
            dual_of_dickson(m, P2N2)
    with pytest.raises(DomainError, match="negative Dickson exponent"):
        dual_of_dickson((-1, 2), P2N2)
    with pytest.raises(DomainError, match="negative Dickson exponent"):
        dual_of_dickson((3, -1), P3N2)


def test_dickson_of_dual_examples():
    assert dickson_of_dual(seq_of(P2N2, (4, 4))).terms == {(2, 0): 1}
    assert dickson_of_dual(seq_of(P2N2, (0, 6))).terms == {(0, 3): 1, (2, 0): 1}
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
                    for mono, x in dickson_of_dual(s).terms.items():
                        new = (combos.get(mono, 0) + c * x) % p
                        if new:
                            combos[mono] = new
                        else:
                            combos.pop(mono, None)
                assert combos == {tuple(m): 1}, (p, n, m)


def test_adem_via_invariants_examples():
    out = adem_via_invariants(OpSeq(P3N2, (6, 2), (0, 0)))
    assert out.sorted_terms() == [(((0, 4), (0, 0)), 2)]
    out = adem_via_invariants(OpSeq(P3N2, (18, 0), (0, 0)))
    assert out.sorted_terms() == [(((0, 6), (0, 0)), 1)]
    out = adem_via_invariants(OpSeq(P2N2, (8, 2), (0, 0)))
    assert out.sorted_terms() == [(((0, 6), (0, 0)), 1)]
    fixed = OpSeq(P3N2, (0, 4), (0, 0))
    assert adem_via_invariants(fixed) == OpPoly.from_seq(fixed)


def test_adem_via_invariants_guards():
    with pytest.raises(DomainError):
        adem_via_invariants(OpSeq(P3N2, (6, 2), (1, 0)))
    with pytest.raises(DomainError):
        adem_via_invariants(OpSeq(P3N2, (5, 3), (0, 0)))


def test_engines_refuse_upper_notation():
    # E[4,2] is e[0,2] in upper notation; read as lower it straightened
    # to 2*Q[1,3] in one engine and raised AttributeError in the other
    up = parse_any_sequence("E[4,2]", P3N2)
    assert isinstance(up, UpperSeq) and up.twice == (8, 4)
    for engine in (adem_via_invariants, adem_straighten_classical):
        with pytest.raises(DomainError, match="needs lower notation, got UpperSeq"):
            engine(up)


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
    # the diagonal is checked when a degree's data is built
    correspondence._degree_data.cache_clear()
    ctx = P3N2
    # (1, 2) = chi_min(d^(1,1)) lies below (4, 1) in the same degree
    with pytest.raises(InvariantError):
        adem_via_invariants(OpSeq.from_values(ctx, (4, 1)))
    with pytest.raises(InvariantError):
        dickson_of_dual(OpSeq.from_values(ctx, (1, 2)))
    with pytest.raises(InvariantError):
        dual_of_dickson((1, 1), ctx)


def test_broken_diagonal_above_input_raises(monkeypatch):
    # K = (2, 2) = chi_min(d^(2,0)) lies above I = (0, 3) in degree 6, so
    # back-substitution for e_I never reads its row; the per-degree check
    # must still see its diagonal entry
    original = correspondence.coeff_in_expansion

    def broken(m, J, ctx):
        if ctx == P2N2 and tuple(m) == (2, 0) and tuple(J) == (2, 2):
            return 0
        return original(m, J, ctx)

    monkeypatch.setattr(correspondence, "coeff_in_expansion", broken)
    correspondence._degree_data.cache_clear()
    with pytest.raises(InvariantError):
        adem_via_invariants(OpSeq.from_values(P2N2, (0, 3)))


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


def power_dual_check(n, i, k, alpha_k, alpha_0, ctx):
    """Check the single-step power identity for d_{n,n-i}^(alpha_k p^k + alpha_0),
    1 <= i < n and 1 <= k <= n-i, by reading its dual.

    With mu = min(alpha_k, alpha_0), the dual must contain
    Psi(d_{n,n-i}^(alpha_k p^k+alpha_0)) with coefficient 1 and, when
    mu > 0, the sequence of
    d_{n,n-i-k}^(mu p^k) d_{n,n-i}^((alpha_k-mu)p^k+(alpha_0-mu)) d_{n,n-i+k}^mu
    with coefficient C(alpha_k,mu) C(alpha_0,mu); the index-n factor
    d_{n,n} = 1 is skipped.  The stated coefficient matches the pairing
    only when alpha_k <= alpha_0 and n-i+k <= n.
    """
    p = ctx.p
    m = [0] * n
    m[n - i] = alpha_k * p**k + alpha_0
    full = dual_of_dickson(tuple(m), ctx)
    if full.terms.get(chi_min(m, ctx), 0) != 1:
        return False
    mu = min(alpha_k, alpha_0)
    if mu == 0:
        return True
    m2 = [0] * n
    m2[n - i - k] += mu * p**k
    m2[n - i] += (alpha_k - mu) * p**k + (alpha_0 - mu)
    if n - i + k < n:
        m2[n - i + k] += mu
    want = binom_mod_p(alpha_k, mu, p) * binom_mod_p(alpha_0, mu, p) % p
    return full.terms.get(chi_min(m2, ctx), 0) == want


def test_power_dual_examples():
    assert power_dual_check(2, 1, 1, 1, 1, P3N2)
    assert power_dual_check(3, 1, 2, 1, 2, Context(2, 3))
    # alpha_0 = 0 leaves only the leading-coefficient clause
    assert power_dual_check(2, 1, 1, 2, 0, P3N2)


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
                    * kronecker_pair(a, OpSeq(ctx, tw1, (0, 0)))
                    * kronecker_pair(b, OpSeq(ctx, tw2, (0, 0)))
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
            assert kronecker_pair(m, J) == coeff_in_expansion(
                m, tuple(t // 2 for t in J.twice), P3N2
            )
