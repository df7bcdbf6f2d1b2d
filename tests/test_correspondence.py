"""Tests for the duality solver: degree enumeration, Kronecker pairing,
dual bases, and Adem relations via invariant theory."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyerlashof import correspondence, invariants, verify
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
from dyerlashof.sequences import (
    OpSeq,
    degree_lower,
    is_admissible,
)

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


def search_calls(fn):
    """Run fn and list (weights, increasing, t, rem) for every call of
    ``_solutions``'s inner recursion ``rec``: the remainder it is asked to
    reach from position t on."""
    calls = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code.co_name != "rec":
            return
        outer = frame.f_back
        while outer.f_code.co_name == "rec":
            outer = outer.f_back
        if outer.f_code is correspondence._solutions.__wrapped__.__code__:
            search, loc = outer.f_locals, frame.f_locals
            calls.append((search["weights"], search["increasing"], loc["t"], loc["rem"]))

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def count_searches(fn):
    """Run fn and count, per enumeration (keyed by the ``increasing``
    flag of ``_solutions``), the top-level calls of ``rec``: one per
    search of a degree."""
    searches = {}
    for _, increasing, t, _ in search_calls(fn):
        if t == 0:
            searches[increasing] = searches.get(increasing, 0) + 1
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
            # the per-degree record, built from the two searches above
            ["invert-dual", *common, "Q[0,2,4]"],
            ["basis", *common, str(D), "--format", "json"],
        ):
            assert cli.main(argv) == 0

    # one search of the admissible basis, one of the Dickson monomials
    assert count_searches(session) == {True: 1, False: 1}
    assert correspondence._solutions.cache_info().misses == 2
    assert correspondence._degree_data.cache_info().misses == 1
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
                assert all(a.key() < b.key() for a, b in zip(basis, basis[1:])), D
                assert monos == sorted(set(monos)), (p, n, D)
                assert [chi_min(m, ctx) for m in monos] == basis, (p, n, D)


def assert_enumerator_matches_brute_force(p, n, side):
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


def test_one_enumerator_matches_brute_force():
    # both enumerations share _solutions, so a bug there could drop a row
    # on both sides and still pass the row-by-row chi_min check
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            assert_enumerator_matches_brute_force(p, n, 10)


def test_one_enumerator_matches_brute_force_at_larger_n():
    # the residue stepping acts at every position, so check long weight
    # tuples too, in a smaller box
    for p in (2, 3):
        for n in (4, 5, 6):
            assert_enumerator_matches_brute_force(p, n, 6)


def brute_force_solutions(weights, D, increasing):
    """Every solution of sum v_t weights[t] = D in lex order: the leading
    entries run over a box, the last one is read off if it divides."""
    *lead, last = weights
    out = []
    for v in itertools.product(*(range(D // w + 1) for w in lead)):
        rem = D - sum(a * w for a, w in zip(v, lead))
        if rem >= 0 and rem % last == 0:
            row = v + (rem // last,)
            if not increasing or list(row) == sorted(row):
                out.append(row)
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(1, 30), min_size=1, max_size=4).map(tuple),
    D=st.integers(0, 120),
    increasing=st.booleans(),
)
def test_enumerator_matches_brute_force_on_any_weights(weights, D, increasing):
    # weights whose suffix gcds no grading produces: unsorted, repeated,
    # coprime or sharing odd factors
    got = correspondence._solutions.__wrapped__(weights, D, increasing)
    assert got == brute_force_solutions(weights, D, increasing)


def parent_solutions(weights, D, increasing):
    """The search over every value at every position, as it stood before
    the residue stepping: the oracle for large degrees."""
    last = len(weights) - 1
    bounds = [sum(weights[t:]) if increasing else weights[t] for t in range(last)]
    out = []

    def search(t, lo, rem, acc):
        if t == last:
            v, r = divmod(rem, weights[t])
            if not r and v >= lo:
                out.append(acc + (v,))
            return
        for v in range(lo, rem // bounds[t] + 1):
            search(t + 1, v if increasing else 0, rem - v * weights[t], acc + (v,))

    search(0, 0, D, ())
    return tuple(out)


@pytest.mark.parametrize("p,n,D", [(2, 5, 600), (3, 4, 4000), (2, 6, 400)])
def test_enumerator_matches_the_plain_search_at_large_degrees(p, n, D):
    ctx = Context(p, n)
    dickson = tuple(dickson_degree(i, ctx) for i in range(n))
    # both enumerations: the admissible basis and the Dickson monomials
    for weights, increasing in ((ctx.weights, True), (dickson, False)):
        got = correspondence._solutions.__wrapped__(weights, D, increasing)
        assert got == parent_solutions(weights, D, increasing), (weights, increasing)
    assert len(admissible_basis(D, ctx)) == len(solve_degree_diophantine(D, ctx)) > 1


def test_no_branch_of_the_search_dies_on_divisibility():
    def sweep():
        for p, n in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 3)):
            ctx = Context(p, n)
            dickson = tuple(dickson_degree(i, ctx) for i in range(n))
            for D in range(0, 3 * dickson[0] + 1):
                for weights, increasing in ((ctx.weights, True), (dickson, False)):
                    correspondence._solutions.__wrapped__(weights, D, increasing)

    calls = search_calls(sweep)
    assert calls
    for weights, _, t, rem in calls:
        assert rem % math.gcd(*weights[t:]) == 0, (weights, t, rem)

    # gcd 4 divides every degree at p = 3, n = 2 that has a row; 7 is searched not at all
    ctx = Context(3, 2)
    dickson = tuple(dickson_degree(i, ctx) for i in range(2))
    assert math.gcd(*ctx.weights) == math.gcd(*dickson) == 4

    def cold_degree():
        assert admissible_basis(7, ctx) == solve_degree_diophantine(7, ctx) == []

    correspondence._solutions.cache_clear()
    assert search_calls(cold_degree) == []


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
    assert kronecker_pair((2, 2), OpSeq(P3N2, (4, 8), (0, 0))) == 1
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
        if J.key() < lead.key() and c:
            raise InvariantError(
                f"pairing <d^{m}, Q_{J.twice}> below chi_min is {c}, not 0"
            )
        if J.key() == lead.key() and J.twice == lead.twice and c != 1:
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
    invariants._digit_product.cache_clear()
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
    assert fresh.cache_info() == (0, 0, invariants.COEFF_MEMO_SIZE, 0)


def test_straightening_leaves_the_inputs_column_out_of_the_reader():
    # b_i = <d^m(K_i), Q_I> is read once and not stored; the reads at
    # its lower digits are, so reading b_i again misses exactly once
    for ctx, twice in ((P3N2, (6, 2)), (Context(2, 3), (8, 4, 2))):
        x = seq_of(ctx, twice)
        assert not is_admissible(x)
        coeff_memo.cache_clear()
        adem_via_invariants(x)
        ms, cols = correspondence._degree_data(degree_lower(x), ctx)
        exps = tuple(t // 2 for t in twice)
        reader = coeff_memo(ctx)
        rows = [m for m, col in zip(ms, cols) if col <= exps]
        assert rows
        for m in rows:
            before = reader.cache_info()
            reader(m, exps)
            assert reader.cache_info().misses == before.misses + 1, (twice, m)


def test_a_tiny_reader_evicts_and_keeps_the_answers(monkeypatch):
    # a reader of 8 entries evicts on nearly every read; the answers
    # stay those of the classical engine and the round trip
    monkeypatch.setattr(invariants, "COEFF_MEMO_SIZE", 8)
    coeff_memo.cache_clear()
    correspondence._degree_data.cache_clear()
    try:
        for ctx, top in ((Context(2, 4), 4), (Context(3, 3), 3)):
            reader = coeff_memo(ctx)
            assert reader.cache_info().maxsize == 8
            for vals in itertools.product(range(top + 1), repeat=ctx.n):
                x = seq_of(ctx, tuple(2 * v for v in vals))
                want = adem_straighten_classical(OpPoly.from_seq(x))
                assert adem_via_invariants(x) == want, vals
                assert reader.cache_info().currsize <= 8
            cases, failures = verify.run_suite(
                "roundtrip", ctx.p, ctx.n, max_degree=4
            )
            assert cases and not failures
            assert reader.cache_info().currsize <= 8
    finally:
        monkeypatch.undo()
        coeff_memo.cache_clear()
        correspondence._degree_data.cache_clear()


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
    assert dickson_of_dual(seq_of(P3N2, (4, 8))).terms == {(2, 2): 1}
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


def test_admissible_input_is_its_own_answer_without_reads():
    # once its degree's record is cached, an admissible input is returned
    # as it is: neither the reader nor its chain is read
    for p, n, top in ((2, 2, 12), (2, 3, 6), (3, 2, 8), (3, 3, 4), (5, 2, 6)):
        ctx = Context(p, n)
        reader = coeff_memo(ctx)
        for values in itertools.combinations_with_replacement(range(top + 1), n):
            s = OpSeq.from_values(ctx, values)
            assert is_admissible(s), values
            adem_via_invariants(s)
            before = reader.cache_info(), reader.diagonal.cache_info()
            assert adem_via_invariants(s) == OpPoly.from_seq(s), (p, n, values)
            assert (reader.cache_info(), reader.diagonal.cache_info()) == before


def test_input_below_every_column_is_zero_without_reads(monkeypatch):
    # I < K_1: no b_i remains, so once the degree's record is cached the
    # answer is 0 before the reader is even fetched: no read of it, its
    # splits or its chain; and it is the classical engine's answer too
    def no_reader(ctx):
        raise AssertionError("the reader was fetched")

    below = 0
    for p, n, top in ((2, 3, 6), (2, 4, 4), (3, 3, 4), (5, 2, 8), (2, 6, 2)):
        ctx = Context(p, n)
        reader = coeff_memo(ctx)
        for values in itertools.product(range(top + 1), repeat=n):
            s = OpSeq.from_values(ctx, values)
            _, cols = correspondence._degree_data(degree_lower(s), ctx)
            if cols and cols[0] <= values:
                continue
            below += 1
            infos = (reader.cache_info(), reader.split.cache_info(),
                     reader.diagonal.cache_info())
            with monkeypatch.context() as patch:
                patch.setattr(correspondence, "coeff_memo", no_reader)
                assert adem_via_invariants(s) == OpPoly(ctx), (p, n, values)
            assert (reader.cache_info(), reader.split.cache_info(),
                    reader.diagonal.cache_info()) == infos, (p, n, values)
            want = adem_straighten_classical(OpPoly.from_seq(s))
            assert want == OpPoly(ctx), (p, n, values)
    assert below > 300


def test_solved_coefficients_other_than_one_reach_later_rows():
    # at odd p a solved a_j may be 2..p-1, and a later row subtracts
    # a_j c_ij: these sweeps and the four inputs below go wrong if a
    # pending entry is read with coefficient 1
    for p, n, top in ((3, 3, 8), (5, 2, 30), (7, 2, 20)):
        cases, failures = verify.run_suite("oracle-equivalence", p, n, max_entry=top)
        assert cases == (top + 1) ** n and not failures, (p, n, failures[:3])
    for p, values in (
        (3, (3, 1, 5, 5)), (3, (8, 8, 6)), (5, (30, 28)), (7, (20, 17)),
    ):
        s = OpSeq.from_values(Context(p, len(values)), values)
        want = adem_straighten_classical(OpPoly.from_seq(s))
        assert adem_via_invariants(s) == want, (p, values)
        assert any(c not in (0, 1) for c in want.terms.values()), (p, values)


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
    # make <d^m, Q_K> = 0 for K = chi_min(d^m) = (1, 2) at m = (1, 1)
    original = correspondence._chi_min_coeffs

    def broken(ms, ctx):
        return [0 if tuple(m) == (1, 1) else c for m, c in zip(ms, original(ms, ctx))]

    monkeypatch.setattr(correspondence, "_chi_min_coeffs", broken)
    # the diagonal is checked when a degree's data is built
    correspondence._degree_data.cache_clear()
    ctx = P3N2
    # (1, 2) = chi_min(d^(1,1)) lies below (4, 1) in the same degree
    with pytest.raises(InvariantError):
        adem_via_invariants(OpSeq.from_values(ctx, (4, 1)))
    # an admissible input, its own answer, still has its record checked
    with pytest.raises(InvariantError):
        adem_via_invariants(OpSeq.from_values(ctx, (1, 2)))
    with pytest.raises(InvariantError):
        dickson_of_dual(OpSeq.from_values(ctx, (1, 2)))
    with pytest.raises(InvariantError):
        dual_of_dickson((1, 1), ctx)


def test_broken_diagonal_above_input_raises(monkeypatch):
    # K = (2, 2) = chi_min(d^(2,0)) lies above I = (0, 3) in degree 6, so
    # back-substitution for e_I never reads its row; the per-degree check
    # must still see its diagonal entry
    original = correspondence._chi_min_coeffs

    def broken(ms, ctx):
        return [
            0 if ctx == P2N2 and tuple(m) == (2, 0) else c
            for m, c in zip(ms, original(ms, ctx))
        ]

    monkeypatch.setattr(correspondence, "_chi_min_coeffs", broken)
    correspondence._degree_data.cache_clear()
    with pytest.raises(InvariantError):
        adem_via_invariants(OpSeq.from_values(P2N2, (0, 3)))


def test_broken_diagonal_raises_under_optimize():
    code = (
        "import sys\n"
        "from dyerlashof import correspondence\n"
        "from dyerlashof.arith import Context, InvariantError\n"
        "from dyerlashof.sequences import OpSeq\n"
        "original = correspondence._chi_min_coeffs\n"
        "def broken(ms, ctx):\n"
        "    return [0 if tuple(m) == (1, 1) else c\n"
        "            for m, c in zip(ms, original(ms, ctx))]\n"
        "correspondence._chi_min_coeffs = broken\n"
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


def read_diagonal(ms, ctx):
    """The diagonal entries <d^m, Q_chi_min(m)> of the rows ms, read
    through the reader instead of the chain."""
    return [coeff_in_expansion(m, tuple(itertools.accumulate(m)), ctx) for m in ms]


def test_chain_matches_the_reader_on_every_row():
    # every degree that only monomials of total exponent <= top can reach
    coeff_memo.cache_clear()
    for p, top in ((2, 16), (3, 12), (5, 10), (7, 9)):
        for n in (2, 3, 4):
            ctx = Context(p, n)
            bound = top * min(dickson_degree(i, ctx) for i in range(n))
            degrees = {
                dickson_monomial_degree(m, ctx)
                for m in itertools.product(range(top + 1), repeat=n)
                if sum(m) <= top
            }
            for D in sorted(d for d in degrees if d <= bound):
                rows = solve_degree_diophantine(D, ctx)
                chain = invariants._chi_min_coeffs(rows, ctx)
                assert chain == read_diagonal(rows, ctx) == [1] * len(rows), (p, n, D)
    # the r = 304 degree of e[60,40,20,10]
    ctx = Context(2, 4)
    D = degree_lower(OpSeq.from_values(ctx, (60, 40, 20, 10)))
    rows = solve_degree_diophantine(D, ctx)
    assert len(rows) == 304
    chain = invariants._chi_min_coeffs(rows, ctx)
    assert chain == read_diagonal(rows, ctx) == [1] * 304


@pytest.mark.parametrize(
    "p, r, s, c",
    [
        # a second term h^(1, 2, 3, 0, 6) in the class of chi_min(r) =
        # (1, 2, 3, 4, 4); it has the degree of chi_min(r), so it reaches
        # some diagonal entries through (chi_min(r) - s) / 2 = (0, 0, 0, 2, -1)
        (2, (1, 1, 1, 1, 0), (1, 2, 3, 0, 6), 1),
        # the link itself: h^chi_min(r) = h^(1, 2) with coefficient 2
        (3, (1, 1), (1, 2), 2),
    ],
)
def test_chain_follows_a_changed_class(monkeypatch, p, r, s, c):
    # give d^r the term c h^s in the class of chi_min(r) mod p: the chain
    # and the reader must still agree on every row with m % p = r
    ctx = Context(p, len(r))
    original = invariants._digit_product.__wrapped__

    def patched(digits, context):
        out = dict(original(digits, context))
        if (digits, context) == (r, ctx):
            out[s] = c
        return out

    monkeypatch.setattr(invariants, "_digit_product", patched)
    coeff_memo.cache_clear()
    try:
        reader = coeff_memo(ctx)
        other = s != tuple(itertools.accumulate(r))
        entries = []
        for high in itertools.product(range(3), repeat=ctx.n):
            m = tuple(p * h + d for h, d in zip(high, r))
            before = reader.cache_info()
            [chain] = invariants._chi_min_coeffs([m], ctx)
            # another term fits J = chi_min(m) once m // p is nonzero,
            # and the chain reads it through the reader
            assert (reader.cache_info() != before) == (other and any(high)), m
            assert [chain] == read_diagonal([m], ctx), m
            entries.append(chain)
        # the changed term changes some entries, which the chain sees
        assert 1 in entries and len(set(entries)) > 1
    finally:
        monkeypatch.undo()
        coeff_memo.cache_clear()


def test_a_cold_record_adds_one_chain_entry_per_digit_prefix():
    # building a degree's record reads its diagonal on the chain alone:
    # the reader is untouched, and the chain stores each m // p^k of the
    # rows once, across the records built so far
    for ctx, degrees in (
        (Context(2, 4), range(140, 213, 8)),
        (Context(3, 3), range(0, 1300, 4)),
    ):
        correspondence._degree_data.cache_clear()
        coeff_memo.cache_clear()
        reader = coeff_memo(ctx)
        chain = reader.diagonal
        seen = set()
        for D in degrees:
            before = reader.cache_info()
            stored = chain.cache_info().currsize
            ms, _ = correspondence._degree_data(D, ctx)
            assert reader.cache_info() == before, D
            new = set()
            for m in ms:
                while True:
                    new.add(m)
                    if not any(m):
                        break
                    m = tuple(mi // ctx.p for mi in m)
            assert chain.cache_info().currsize == stored + len(new - seen), D
            seen |= new
        assert seen
    correspondence._degree_data.cache_clear()


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
            for legs, c in coproduct(I).terms.items():
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
