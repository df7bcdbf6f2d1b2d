"""Tests for the Borel/Dickson polynomial side."""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from dyerlashof import correspondence, invariants, kernels
from dyerlashof.arith import Context, DomainError, padic_digits
from dyerlashof.invariants import (
    BPoly,
    DPoly,
    YPoly,
    check_invariance,
    chi_max,
    chi_min,
    coeff_by_multinomial,
    coeff_in_expansion,
    dickson_degree,
    dickson_monomial_degree,
    dickson_to_borel,
    dickson_to_borel_recursive,
    enumerate_A,
    expand_dickson_monomial,
    h_monomial_degree,
    identity_checks,
    matrix_to_monomial,
    psi_T,
    realize_in_y,
)
from dyerlashof.sequences import OpSeq

P3N2 = Context(3, 2)
P2N2 = Context(2, 2)
P2N3 = Context(2, 3)


def test_dickson_to_borel_examples():
    assert dickson_to_borel(1, P3N2).terms == {(3, 0): 1, (0, 1): 1}
    assert dickson_to_borel(0, P3N2).terms == {(1, 1): 1}
    assert dickson_to_borel(0, P2N2).terms == {(1, 1): 1}
    assert dickson_to_borel(2, P2N3).terms == {(4, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): 1}


def test_recursive_examples():
    assert dickson_to_borel_recursive(2, 1, P3N2) == dickson_to_borel(1, P3N2)
    assert dickson_to_borel_recursive(1, 0, P3N2).terms == {(1, 0): 1}
    assert dickson_to_borel_recursive(2, 2, P3N2).terms == {(0, 0): 1}
    assert dickson_to_borel_recursive(2, -1, P3N2).is_zero()


def test_recursive_results_are_fresh():
    # a result is the caller's to change: later calls do not see it
    ctx = Context(3, 2)
    fresh = dickson_to_borel(1, ctx)
    first = dickson_to_borel_recursive(2, 1, ctx)
    first.add_term((5, 5), 1)
    first.terms[(3, 0)] = 2
    again = dickson_to_borel_recursive(2, 1, ctx)
    assert again is not first
    assert again == fresh
    assert dickson_to_borel_recursive(1, 0, ctx).terms == {(1, 0): 1}


def test_matrix_family_examples():
    rows = enumerate_A(1, P3N2)
    assert sorted(r.a for r in rows) == [(0, 1), (1, 0)]
    monos = {matrix_to_monomial(r, P3N2) for r in rows}
    assert monos == {(3, 0), (0, 1)}
    rows0 = enumerate_A(0, P3N2)
    assert [r.a for r in rows0] == [(1, 1)]
    assert matrix_to_monomial(rows0[0], P3N2) == (1, 1)
    rows31 = enumerate_A(1, P2N3)
    assert sorted(r.a for r in rows31) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    monos31 = {matrix_to_monomial(r, P2N3) for r in rows31}
    assert monos31 == {(2, 2, 0), (2, 0, 1), (0, 1, 1)}


def test_triple_oracle_agreement():
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            ctx = Context(p, n)
            for j in range(n):
                closed = dickson_to_borel(j, ctx)
                recursive = dickson_to_borel_recursive(n, j, ctx)
                rows = enumerate_A(j, ctx)
                from_rows = BPoly(ctx)
                for r in rows:
                    from_rows.add_term(matrix_to_monomial(r, ctx), 1)
                assert closed == recursive == from_rows, (p, n, j)
                assert len(closed.terms) == len(rows)


def test_monomial_counts():
    import math

    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            ctx = Context(p, n)
            for j in range(n):
                assert len(dickson_to_borel(j, ctx).terms) == math.comb(n, n - j)


def test_expand_examples():
    assert expand_dickson_monomial((0, 2), P3N2).terms == {
        (6, 0): 1,
        (3, 1): 2,
        (0, 2): 1,
    }
    assert expand_dickson_monomial((0, 3), P2N2).terms == {
        (6, 0): 1,
        (4, 1): 1,
        (2, 2): 1,
        (0, 3): 1,
    }
    assert expand_dickson_monomial((0, 0), P3N2).terms == {(0, 0): 1}


def test_coeff_examples():
    assert coeff_in_expansion((0, 2), (3, 1), P3N2) == 2
    assert coeff_in_expansion((0, 3), (2, 2), P2N2) == 1
    # (4,0) has the degree of d_{2,0} but is not in its support
    assert coeff_in_expansion((1, 0), (4, 0), P3N2) == 0
    assert coeff_by_multinomial((0, 2), (3, 1), P3N2) == 2
    assert coeff_by_multinomial((0, 3), (2, 2), P2N2) == 1
    assert coeff_by_multinomial((1, 0), (4, 0), P3N2) == 0


def monomials_up_to(n, max_sum):
    for m in itertools.product(range(max_sum + 1), repeat=n):
        if sum(m) <= max_sum:
            yield m


def test_coeff_formula_matches_expansion():
    for p in (2, 3):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            for m in monomials_up_to(n, 3):
                expansion = expand_dickson_monomial(m, ctx)
                for J in expansion.terms:
                    assert coeff_by_multinomial(m, J, ctx) == expansion.terms[J], (
                        p,
                        n,
                        m,
                        J,
                    )


def same_degree_exponents(D, ctx):
    """Every exponent vector J with h^J of degree D."""
    n = ctx.n
    w = [h_monomial_degree(tuple(int(t == i) for t in range(n)), ctx) for i in range(n)]

    def rec(i, rem, acc):
        if i == n - 1:
            if rem % w[i] == 0:
                yield acc + (rem // w[i],)
            return
        for e in range(rem // w[i] + 1):
            yield from rec(i + 1, rem - e * w[i], acc + (e,))

    yield from rec(0, D, ())


def coeff_grid():
    """(ctx, m) pairs: exhaustive boxes of exponents, deep enough in
    base p that the digit recursion takes at least two steps."""
    boxes = (
        (2, 1, 8), (2, 2, 8), (2, 3, 4),
        (3, 1, 9), (3, 2, 9), (3, 3, 3),
        (5, 1, 11), (5, 2, 6), (5, 3, 2),
        (7, 1, 15), (7, 2, 8), (7, 3, 1),
    )
    for p, n, bound in boxes:
        ctx = Context(p, n)
        for m in itertools.product(range(bound + 1), repeat=n):
            yield ctx, m
    for p in (5, 7):
        ctx = Context(p, 3)
        for m in itertools.product((0, 1, p), repeat=3):
            if sum(m) <= p + 1:
                yield ctx, m


def test_coeff_recursion_matches_both_oracles():
    # every J of the right degree, in the support or not
    cases = nonzero = 0
    for ctx, m in coeff_grid():
        full = expand_dickson_monomial(m, ctx).terms
        for J in same_degree_exponents(dickson_monomial_degree(m, ctx), ctx):
            got = coeff_in_expansion(m, J, ctx)
            assert got == full.get(J, 0) == coeff_by_multinomial(m, J, ctx), (
                ctx, m, J,
            )
            cases += 1
            nonzero += bool(got)
    assert cases > 20000 and nonzero > 3000


def test_coeff_off_degree_and_shape():
    # a J of the wrong degree, length or sign pairs to 0; bad m is refused;
    # both readers keep this contract
    for coeff in (coeff_in_expansion, coeff_by_multinomial):
        assert coeff((1, 1), (1, 1), P3N2) == 0
        assert coeff((1, 1), (1, 2, 0), P3N2) == 0
        assert coeff((1, 1), (-1, 3), P3N2) == 0
        # d_(2,1) = h_2 + h_1^3: a J cut short or padded is not h_2
        assert coeff((0, 1), (0,), P3N2) == 0
        assert coeff((0, 1), (0, 1, 5), P3N2) == 0
        for m in ((1,), (1, -1), (0, 1, 0)):
            with pytest.raises(DomainError):
                coeff(m, (0, 0), P3N2)


def test_coeff_memo_per_context():
    # [h^(3,1)] d_(2,1)^2 is 0 at p = 2 and 2 at p = 3; asked in either
    # order, each context answers from its own memo
    m, J = (0, 2), (3, 1)
    for order in ((P2N2, P3N2), (P3N2, P2N2)):
        invariants.coeff_memo.cache_clear()
        invariants._digit_product.cache_clear()
        for ctx in order:
            assert coeff_in_expansion(m, J, ctx) == coeff_by_multinomial(m, J, ctx)
    assert coeff_in_expansion(m, J, P2N2) == 0
    assert coeff_in_expansion(m, J, P3N2) == 2


def test_digit_product_matches_direct_product():
    # the cached d^r, built from the next smaller digit vector, equals the
    # product of the generators' powers, in canonical order, for every
    # digit vector r; the reader agrees with it at every h^J of its
    # degree (zeros outside the support included)
    shapes = [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3)] + [(2, 4), (3, 4)]
    invariants.coeff_memo.cache_clear()
    invariants._digit_product.cache_clear()
    for p, n in shapes:
        ctx = Context(p, n)
        coeff = invariants.coeff_memo(ctx)
        # the weights of h_n..h_1: searched from the largest, the last
        # entry, of the smallest weight, is forced without dead branches
        weights = tuple(
            h_monomial_degree(tuple(int(t == i) for t in range(n)), ctx)
            for i in reversed(range(n))
        )
        for r in itertools.product(range(p), repeat=n):
            want = BPoly.one(ctx)
            for i, ri in enumerate(r):
                want = want * dickson_to_borel(i, ctx).pow(ri)
            terms = invariants._digit_product(r, ctx)
            assert terms == want.terms, (p, n, r)
            assert list(terms) == sorted(terms, key=lambda J: J[::-1])
            D = dickson_monomial_degree(r, ctx)
            Js = [v[::-1] for v in correspondence._solutions(weights, D, False)]
            assert set(terms) <= set(Js), (p, n, r)
            for J in Js:
                assert coeff(r, J) == terms.get(J, 0), (p, n, r, J)
    invariants.coeff_memo.cache_clear()


def _fresh_degree_inputs():
    """The halved entries of the benchmark's ten seed-0 fresh-degree inputs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.build("fresh-degree", 0)["ops"]
    assert {(op["p"], op["n"]) for op in ops} == {(2, 4)}
    return [tuple(t // 2 for t in op["twice"]) for op in ops]


def _exponents_of_degree(D, ctx, count, rng):
    """count random exponent vectors J of degree D: entries 1.. drawn
    first, entry 0 (whose weight divides every other) takes the rest."""
    w = ctx.weights
    out = []
    while len(out) < count:
        J = [0] * ctx.n
        rem = D
        for t in rng.sample(range(1, ctx.n), ctx.n - 1):
            J[t] = rng.randint(0, rem // w[t])
            rem -= J[t] * w[t]
        J[0] = rem // w[0]
        out.append(tuple(J))
    return out


# (p, n): degrees of 8 or 9 rows, where most classes mod p occur in no
# row's digit product d^(m % p)
COLUMN_DEGREES = {(3, 3): (468, 504), (5, 2): (1680, 1760), (2, 6): (240, 248)}


def _column_cases():
    """(ctx, rows, J): the fresh-degree inputs against every row of their
    degree, and at COLUMN_DEGREES each column and random J of the degree."""
    rng = random.Random(34)
    ctx = Context(2, 4)
    for J in _fresh_degree_inputs():
        D = h_monomial_degree(J, ctx)
        yield ctx, correspondence.solve_degree_diophantine(D, ctx), J
    for (p, n), degrees in COLUMN_DEGREES.items():
        ctx = Context(p, n)
        for D in degrees:
            rows = correspondence.solve_degree_diophantine(D, ctx)
            cols = correspondence._degree_basis(D, ctx)
            for J in list(cols) + _exponents_of_degree(D, ctx, 12, rng):
                yield ctx, rows, J


def test_column_read_matches_the_unstored_reads_and_stores_the_same():
    # on fresh readers, one column read and the per-row unstored reads
    # give the same values with the same lookups, misses and stored
    # entries, and every entry the per-row reads store is stored
    classless = 0
    for ctx, rows, J in _column_cases():
        invariants.coeff_memo.cache_clear()
        reader = invariants.coeff_memo(ctx)
        want = [reader.__wrapped__(m, J) for m in rows]
        stored = reader.cache_info(), reader.split.cache_info()
        invariants.coeff_memo.cache_clear()
        reader = invariants.coeff_memo(ctx)
        assert reader.column(rows, J) == want, (ctx, J)
        assert (reader.cache_info(), reader.split.cache_info()) == stored, (ctx, J)
        misses = reader.cache_info().misses
        assert [reader.__wrapped__(m, J) for m in rows] == want
        assert reader.cache_info().misses == misses, (ctx, J)
        # no row's digit product has a term in J's class: not one read
        classless += stored[0].hits + stored[0].misses == 0
    invariants.coeff_memo.cache_clear()
    assert classless >= 10


def test_column_read_of_the_empty_and_zero_rows():
    # d^0 = 1 reads 1 at h^0 alone, without a lookup, as __wrapped__ does
    ctx = Context(3, 2)
    invariants.coeff_memo.cache_clear()
    reader = invariants.coeff_memo(ctx)
    assert reader.column([], (1, 2)) == []
    assert reader.column([(0, 0)], (0, 0)) == [1] == [reader.__wrapped__((0, 0), (0, 0))]
    assert reader.column([(0, 0)], (0, 1)) == [0]
    assert reader.cache_info().currsize == reader.split.cache_info().currsize == 0
    invariants.coeff_memo.cache_clear()


def test_entries_read_matches_the_memoised_sum():
    # for random pending sets over a degree's columns, the filtered read
    # is the plain memoised sum mod p; a pending set of classes that
    # d^(m % p) lacks reads 0 without a reader lookup
    rng = random.Random(7)
    cases = [(Context(2, 4), D) for D in (140, 212)]
    cases += [(Context(p, n), D) for (p, n), Ds in COLUMN_DEGREES.items() for D in Ds]
    absent_seen = present_seen = 0
    for ctx, D in cases:
        p = ctx.p
        invariants.coeff_memo.cache_clear()
        reader = invariants.coeff_memo(ctx)
        rows = correspondence.solve_degree_diophantine(D, ctx)
        cols = correspondence._degree_basis(D, ctx)
        for _ in range(6):
            pending = {}
            for K in rng.sample(cols, min(len(cols), 12)):
                cls = tuple(k % p for k in K)
                pending.setdefault(cls, []).append((K, rng.randint(1, p - 1)))
            for m in rows:
                want = sum(a * reader(m, K) for pairs in pending.values() for K, a in pairs)
                assert reader.entries(m, pending) == want % p, (ctx, m)
                grouped = reader.split(m)[1][0]
                absent = {c: pairs for c, pairs in pending.items() if c not in grouped}
                absent_seen += bool(absent)
                present_seen += len(absent) < len(pending)
                info = reader.cache_info()
                assert reader.entries(m, absent) == 0
                after = reader.cache_info()
                assert after.hits + after.misses == info.hits + info.misses, (ctx, m)
                assert all(reader(m, K) == 0 for pairs in absent.values() for K, _ in pairs)
    invariants.coeff_memo.cache_clear()
    assert absent_seen and present_seen


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_expansion_matches_multinomial(p):
    # random m with entries >= p, so the expansion has several base-p
    # levels and multiplies Frobenius twists; each term is checked against the
    # digit/multinomial formula, the whole expansion against a product of
    # powers on exponent tuples, and the order against reverse-lex
    rng = random.Random(p)
    for n in (1, 2, 3, 4):
        ctx = Context(p, n)
        checked = 0
        while checked < 5:
            m = tuple(rng.choice((0, p, p + 1, 2 * p + 1, p * p)) for _ in range(n))
            # the multinomial oracle is exponential in the digit sum
            if not any(m) or sum(sum(padic_digits(mi, p)) for mi in m) > 5:
                continue
            checked += 1
            terms = invariants._expansion_terms(m, ctx)
            assert list(terms) == sorted(terms, key=lambda J: J[::-1])
            for J, c in terms.items():
                assert coeff_by_multinomial(m, J, ctx) == c, (m, J)
            want = BPoly.one(ctx)
            for i, mi in enumerate(m):
                want = want * dickson_to_borel(i, ctx).pow(mi)
            assert terms == want.terms


def test_expansion_cache_is_bounded():
    # the tracer reads the misses of this cache
    info = expand_dickson_monomial.cache_info
    assert info().maxsize == invariants.EXPANSION_CACHE_SIZE
    ctx = Context(2, 1)
    expand_dickson_monomial.cache_clear()
    for k in range(invariants.EXPANSION_CACHE_SIZE + 20):
        assert expand_dickson_monomial((k,), ctx).terms == {(k,): 1}
        assert info().currsize <= invariants.EXPANSION_CACHE_SIZE
    assert info().misses == invariants.EXPANSION_CACHE_SIZE + 20
    assert info().currsize == invariants.EXPANSION_CACHE_SIZE


def test_expansion_multiplies_through_the_kernel(monkeypatch):
    # the tracer patches kernels.poly_mul, so a cold expansion must reach
    # the kernel there; however many base-p levels it multiplies, each
    # cold monomial is one miss of the expansion cache
    calls = []
    real = kernels.poly_mul

    def counted(a, b, p):
        calls.append(p)
        return real(a, b, p)

    monkeypatch.setattr(kernels, "poly_mul", counted)
    info = expand_dickson_monomial.cache_info
    expand_dickson_monomial.cache_clear()
    invariants._digit_product.cache_clear()
    ctx = Context(3, 3)
    cold = [(10, 4, 30), (0, 0, 27), (2, 1, 0), (0, 9, 1)]
    for k, m in enumerate(cold, start=1):
        before = len(calls)
        expand_dickson_monomial(m, ctx)
        assert len(calls) > before, m
        assert info().misses == k
    before = len(calls)
    for m in cold:
        expand_dickson_monomial(m, ctx)
    assert len(calls) == before
    assert info().misses == len(cold) and info().hits == len(cold)


def test_expansion_results_are_independent():
    first = expand_dickson_monomial((0, 2), P3N2)
    want = dict(first.terms)
    first.add_term((6, 0), 1)
    first.add_term((9, 9), 1)
    again = expand_dickson_monomial((0, 2), P3N2)
    assert again is not first
    assert again.terms == want
    assert coeff_in_expansion((0, 2), (6, 0), P3N2) == 1


def test_degree_formulas():
    assert dickson_degree(0, P3N2) == 16
    assert dickson_degree(1, P3N2) == 12
    assert [dickson_degree(i, P2N3) for i in range(3)] == [7, 6, 4]
    assert dickson_monomial_degree((1, 2), P3N2) == 40
    assert h_monomial_degree((3, 1), P3N2) == 24
    assert h_monomial_degree((1, 1), P2N2) == 3


def test_weights_are_the_grading():
    # one vector grades both sides, at every supported (p, n)
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            ctx = Context(p, n)
            # |h_t| for t = 1..n, and |d_{n,i}| for i = 0..n-1
            h = [
                2 ** (t - 1) if p == 2 else 2 * (p - 1) * p ** (t - 1)
                for t in range(1, n + 1)
            ]
            d = [2**n - 2**i if p == 2 else 2 * (p**n - p**i) for i in range(n)]
            assert ctx.weights == tuple(h)
            assert [dickson_degree(i, ctx) for i in range(n)] == d
            units = [tuple(int(t == k) for t in range(n)) for k in range(n)]
            assert [h_monomial_degree(e, ctx) for e in units] == h
            assert dickson_monomial_degree((1,) * n, ctx) == sum(d)
            # a derived value: the context's repr, == and hash stay its (p, n)
            assert repr(ctx) == f"Context(p={p}, n={n})"
            assert ctx == Context(p, n) and hash(ctx) == hash(Context(p, n))


def test_homogeneity():
    for p in (2, 3):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            for m in monomials_up_to(n, 4):
                want = dickson_monomial_degree(m, ctx)
                for exps in expand_dickson_monomial(m, ctx).terms:
                    assert h_monomial_degree(exps, ctx) == want


def test_frobenius_shortcut():
    for p in (2, 3):
        for n in (2, 3):
            ctx = Context(p, n)
            for m in monomials_up_to(n, 3):
                scaled = tuple(p * x for x in m)
                assert expand_dickson_monomial(scaled, ctx) == expand_dickson_monomial(
                    m, ctx
                ).frobenius(1)


def test_chi_examples():
    assert chi_min((0, 2), P3N2).twice == (0, 4)
    assert chi_min((1, 1), P3N2).twice == (2, 4)
    assert chi_max((0, 1), P3N2).twice == (6, 0)
    assert chi_max((0, 1), P2N2).twice == (4, 0)
    assert chi_min((0, 0), P3N2).twice == (0, 0)


def test_chi_refuses_bad_exponents():
    # before, chi_min((1, 2, 3)) dropped the 3 and chi_min((1,)) padded
    for chi in (chi_min, chi_max):
        for m in ((1, 2, 3), (1,)):
            with pytest.raises(DomainError, match=f"2 exponents, got {len(m)}"):
                chi(m, P2N2)
        with pytest.raises(DomainError, match="negative Dickson exponent"):
            chi((2, -1), P2N2)


def test_polynomials_refuse_a_wrong_length():
    # before, BPoly(Context(2, 2), {(1, 2, 3): 1}) rendered as h1*h2^2*h3^3
    for kind in (BPoly, DPoly, YPoly):
        for exps in ((1, 2, 3), (1,), ()):
            with pytest.raises(DomainError, match=f"2 exponents, got {len(exps)}"):
                kind(P2N2, {exps: 1})
            with pytest.raises(DomainError, match="expected 2 exponents"):
                kind(P2N2).add_term(exps, 1)
    assert BPoly(P2N2, {(1, 2): 1}).terms == {(1, 2): 1}


def test_chi_extremality():
    # chi_min / chi_max are the compare-extremes of the expansion
    # support, both with coefficient 1
    for p in (2, 3):
        for n in (1, 2):
            ctx = Context(p, n)
            for m in monomials_up_to(n, 4):
                expansion = expand_dickson_monomial(m, ctx)
                seqs = sorted(
                    (psi_T(exps, ctx) for exps in expansion.terms),
                    key=lambda s: s.key(),
                )
                lo, hi = chi_min(m, ctx), chi_max(m, ctx)
                assert seqs[0].twice == lo.twice
                assert seqs[-1].twice == hi.twice
                assert expansion.terms[tuple(t // 2 for t in lo.twice)] == 1
                assert expansion.terms[tuple(t // 2 for t in hi.twice)] == 1


def test_psi_identifications():
    s = chi_min((0, 2), P3N2)
    assert isinstance(s, OpSeq) and s.twice == (0, 4)
    assert psi_T((3, 1), P3N2).twice == (6, 2)
    assert chi_min((2, 1, 3), Context(3, 3)).twice == (4, 6, 12)
    for m in monomials_up_to(3, 5):
        # entry t of chi_min(m) is the partial sum m_1 + ... + m_t, doubled
        partial_sums = tuple(2 * sum(m[: t + 1]) for t in range(3))
        assert chi_min(m, Context(2, 3)).twice == partial_sums


def test_identity_examples():
    assert identity_checks("inclusion", (2, 1, 0), P2N3) == (True, "")
    assert identity_checks("decomposition", (1, 0), P3N2) == (True, "")
    assert identity_checks("exchange", (2, 1, 0, 0), P2N3) == (True, "")


def test_identity_guards():
    with pytest.raises(DomainError):
        identity_checks("decomposition", (1, 1), P3N2)  # needs s < k
    with pytest.raises(DomainError):
        identity_checks("inclusion", (3, 1, 0), P2N3)  # width k+t > n
    with pytest.raises(DomainError):
        identity_checks("nonsense", (1, 0), P3N2)


def test_realize_examples():
    c31 = Context(3, 1)
    d0 = realize_in_y(expand_dickson_monomial((1,), c31))
    assert d0.terms == {(2,): 1}
    assert check_invariance(d0, "gl")
    h2 = realize_in_y(BPoly.variable(2, P2N2))
    assert h2.terms == {(0, 2): 1, (1, 1): 1}
    assert check_invariance(h2, "borel")
    assert not check_invariance(h2, "gl")
    d21 = realize_in_y(expand_dickson_monomial((0, 1), P2N2))
    assert check_invariance(d21, "gl")
    # both read the context of their argument: y_1 at p = 3 is not
    # Borel-invariant, and h_1 = y_1^2 there
    assert not check_invariance(YPoly(P3N2, {(1, 0): 1}), "borel")
    assert realize_in_y(BPoly(P3N2, {(1, 0): 1})).terms == {(2, 0): 1}


def test_realized_h_is_not_shared():
    # before, the cache handed out a YPoly: a term added to
    # _h_realized(1, ctx) leaked into every later realization of h_1
    ctx = Context(2, 2)
    assert invariants._h_realized(1, ctx) == (((1, 0), 1),)
    assert realize_in_y(BPoly(ctx, {(1, 0): 1})).terms == {(1, 0): 1}
    # the cache holds every (k, ctx) that _guard_realize admits, no more
    admitted = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            try:
                invariants._guard_realize(Context(p, n))
            except DomainError:
                continue
            admitted += n
    assert invariants._h_realized.cache_info().maxsize == admitted == 18


def test_realize_guards():
    for ctx in (Context(2, 4), Context(5, 3)):
        d0 = expand_dickson_monomial((1,) + (0,) * (ctx.n - 1), ctx)
        with pytest.raises(DomainError):
            realize_in_y(d0)
    c31 = Context(3, 1)
    d0 = realize_in_y(expand_dickson_monomial((1,), c31))
    with pytest.raises(DomainError):
        check_invariance(d0, "parabolic")


def test_realized_dicksons_are_gl_invariant():
    for p, n_max in ((2, 3), (3, 2)):
        for n in range(1, n_max + 1):
            ctx = Context(p, n)
            for i in range(n):
                m = tuple(1 if t == i else 0 for t in range(n))
                y = realize_in_y(expand_dickson_monomial(m, ctx))
                assert check_invariance(y, "gl"), (p, n, i)


def test_realized_h_monomials_are_borel_invariant():
    for p, n_max in ((2, 3), (3, 2)):
        for n in range(1, n_max + 1):
            ctx = Context(p, n)
            for exps in itertools.product(range(2), repeat=n):
                y = realize_in_y(BPoly(ctx, {exps: 1}))
                assert check_invariance(y, "borel"), (p, n, exps)
