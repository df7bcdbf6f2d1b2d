"""Acceptance gate, one test per criterion (A1..A9).

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line
per criterion.  Expected values are frozen from hand-checked oracle
runs; every sweep has an explicit time budget.
"""

import itertools
import math
import random
import time

from dyerlashof import verify
from dyerlashof.arith import Context, DomainError, binom_mod_p
from dyerlashof.correspondence import adem_via_invariants
from dyerlashof.invariants import (
    BPoly,
    chi_max,
    chi_min,
    coeff_by_multinomial,
    coeff_in_expansion,
    dickson_monomial_degree,
    dickson_to_borel,
    dickson_to_borel_recursive,
    enumerate_A,
    expand_dickson_monomial,
    h_monomial_degree,
    matrix_to_monomial,
    psi_T,
)
from dyerlashof.opalgebra import (
    OpPoly,
    TensorPoly,
    adem_straighten_classical,
    coproduct,
    tensor_split_leg,
)
from dyerlashof.sequences import (
    OpSeq,
    UpperSeq,
    degree_lower,
    lower_to_upper,
    upper_to_lower,
)


def both_engines(s):
    a = adem_via_invariants(s)
    b = adem_straighten_classical(OpPoly.from_seq(s))
    return a, b


def terms_of(x):
    """x's terms, after checking that every key is a valid sequence."""
    for key in x.terms:
        OpSeq(x.ctx, *key)
    return dict(x.terms)


def monomials_up_to(n, max_sum):
    for m in itertools.product(range(max_sum + 1), repeat=n):
        if sum(m) <= max_sum:
            yield m


# --- A1: frozen eps = 0 straightening vectors, both engines ---------------


def a1_vectors(p):
    """(input twice, expected {(twice, eps): coeff}) for n = 2."""
    out = [((2, 0), {}), ((4, 2), {})]
    for k in (1, 2, 3):
        q, q1 = p**k, p ** (k - 1)
        out.append(((2 * q, 0), {((0, 2 * q1), (0, 0)): 1}))
        out.append(((2 * q + 2, 2), {((2, 2 * q1 + 2), (0, 0)): 1}))
        if k >= 2:
            out.append(((2 * q, 2), {((0, 2 * q1 + 2), (0, 0)): 1}))
    out.append(((2 * p, 2), {((0, 4), (0, 0)): 2}))
    return out


def test_A1_frozen_vectors_both_engines():
    cases = 0
    for p in (3, 5):
        ctx = Context(p, 2)
        for twice, expected in a1_vectors(p):
            t0 = time.perf_counter()
            s = OpSeq(ctx, twice, (0, 0))
            a, b = both_engines(s)
            dt = time.perf_counter() - t0
            assert terms_of(a) == expected, (p, twice, terms_of(a))
            assert terms_of(b) == expected, (p, twice, terms_of(b))
            assert dt < 1.0, (p, twice, dt)
            cases += 1
    print(f"A1: {cases} vectors, both engines agree with frozen values")


# --- A2: exhaustive engine agreement on graded ranges ----------------------


def test_A2_engine_agreement_exhaustive():
    t0 = time.perf_counter()
    ranges = [(2, 2, 20), (3, 2, 10), (2, 3, 8), (3, 3, 5)]
    total = 0
    for p, n, bound in ranges:
        cases, failures = verify.suite_oracle_equivalence(Context(p, n), bound)
        assert not failures, failures[:5]
        assert cases == (bound + 1) ** n
        total += cases
    dt = time.perf_counter() - t0
    assert dt < 600, dt
    print(f"A2: {total} sequences, invariant = classical ({dt:.1f}s)")


# --- A3: three Dickson expansion oracles + monomial counts -----------------


def test_A3_dickson_triple_oracle():
    t0 = time.perf_counter()
    cases = 0
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            ctx = Context(p, n)
            for j in range(n):
                closed = dickson_to_borel(j, ctx)
                rec = dickson_to_borel_recursive(n, j, ctx)
                fam = BPoly(ctx)
                rows = enumerate_A(j, ctx)
                for A in rows:
                    fam.add_term(matrix_to_monomial(A, ctx), 1)
                assert closed == rec == fam, (p, n, j)
                assert len(rows) == len(closed.terms) == math.comb(n, n - j)
                cases += 1
    dt = time.perf_counter() - t0
    assert dt < 10, dt
    print(f"A3: {cases} generators, closed = recursive = matrix family ({dt:.1f}s)")


# --- A4: dual round trip and unitriangular pairing matrices ----------------


def test_A4_duality_roundtrip_and_triangularity():
    t0 = time.perf_counter()
    total = 0
    for p in (2, 3):
        for n in (2, 3):
            ctx = Context(p, n)
            cases, failures = verify.suite_roundtrip(ctx, 6)
            assert not failures, failures[:5]
            total += cases
            degs, failures = verify.suite_triangularity(ctx, 6)
            assert not failures, failures[:5]
            total += degs
    dt = time.perf_counter() - t0
    assert dt < 120, dt
    print(f"A4: {total} monomials/degrees, round trip + unitriangular ({dt:.1f}s)")


# --- A5: decomposition / inclusion / exchange identities -------------------


def test_A5_invariant_identities():
    t0 = time.perf_counter()
    total = 0
    for p in (2, 3):
        cases, failures = verify.suite_identities(Context(p, 5))
        assert not failures, failures[:5]
        total += cases
    dt = time.perf_counter() - t0
    assert dt < 60, dt
    print(f"A5: {total} identity instances at n = 5 ({dt:.1f}s)")


# --- A6: realized invariance under Borel and GL ----------------------------


def test_A6_invariance():
    t0 = time.perf_counter()
    total = 0
    for p, top in ((3, 2), (2, 3)):
        for n in range(1, top + 1):
            cases, failures = verify.suite_invariance(Context(p, n))
            assert not failures, failures[:5]
            total += cases
    dt = time.perf_counter() - t0
    assert dt < 60, dt
    print(f"A6: {total} polynomials checked under group actions ({dt:.1f}s)")


def a7_random_same_degree_exps(rng, D, ctx):
    """A random h-exponent tuple of h-degree D, or None."""
    weights = [h_monomial_degree(tuple(int(i == k) for i in range(ctx.n)), ctx)
               for k in range(ctx.n)]
    for _ in range(50):
        rem = D
        exps = []
        for w in reversed(weights[1:]):
            e = rng.randint(0, rem // w) if rem >= w else 0
            exps.append(e)
            rem -= e * w
        if rem % weights[0] == 0:
            exps.append(rem // weights[0])
            return tuple(reversed(exps))
    return None


# --- A7: multinomial formula vs digit recursion vs direct expansion --------


def test_A7_coefficient_formula_random():
    rng = random.Random(60221023)
    trials = nonzero = 0
    while trials < 500:
        p = rng.choice((2, 3))
        n = rng.randint(1, 3)
        ctx = Context(p, n)
        m = tuple(rng.randint(0, 4) for _ in range(n))
        if sum(m) > 4:
            continue
        D = dickson_monomial_degree(m, ctx)
        expansion = expand_dickson_monomial(m, ctx)
        if rng.random() < 0.5 and expansion.terms:
            J = rng.choice(sorted(expansion.terms))
        else:
            J = a7_random_same_degree_exps(rng, D, ctx)
            if J is None:
                continue
        got = coeff_by_multinomial(m, J, ctx)
        want = coeff_in_expansion(m, J, ctx)
        assert got == want == expansion.terms.get(J, 0), (p, n, m, J, got, want)
        trials += 1
        nonzero += bool(want)
    assert nonzero >= 100  # the sample actually hits the support
    print(f"A7: 500 random (m, J) pairs, {nonzero} nonzero, formula = recursion = expansion")


# --- A8: frozen Bockstein vectors at p = 3, matched exactly ----------------


def test_A8_bockstein_vectors():
    p = 3
    ctx = Context(p, 2)
    cases = [((3, 1), (0, 0), {}), ((4, 1), (0, 1), {})]
    cases.append(((2, 1), (0, 1), {((1, 1), (1, 0)): 1}))
    for k in (1, 2):
        q, q1 = p**k, p ** (k - 1)
        cases.append(((2 * q + 1, 1), (0, 0), {((1, 2 * q1 + 1), (0, 0)): 1}))
        cases.append(((2 * q, 1), (0, 1), {((0, 2 * q1 + 1), (0, 1)): 1}))
        cases.append(((2 * q + 2, 1), (0, 1), {((1, 2 * q1 + 1), (1, 0)): 1}))
    for twice, eps, expected in cases:
        got = terms_of(adem_straighten_classical(OpPoly.from_seq(OpSeq(ctx, twice, eps))))
        assert got == expected, (twice, eps, got)
    print(f"A8: {len(cases)} Bockstein vectors match exactly")


# --- A9: property bundle ----------------------------------------------------


def check_lucas_and_vandermonde():
    for p in (2, 3, 5):
        for a in range(31):
            for b in range(31):
                want = math.comb(a, b) % p if b <= a else 0
                assert binom_mod_p(a, b, p) == want
        for m in range(16):
            for n in range(16):
                for k in range(m + n + 1):
                    lhs = binom_mod_p(m + n, k, p)
                    rhs = sum(
                        binom_mod_p(m, j, p) * binom_mod_p(n, k - j, p)
                        for j in range(k + 1)
                    ) % p
                    assert lhs == rhs


def suffix_degrees(s):
    n = s.ctx.n
    for start in range(1, n):
        tail = OpSeq(Context(s.ctx.p, n - start), s.twice[start:], s.eps[start:])
        yield degree_lower(tail)


def check_notation_roundtrip():
    for p in (2, 3):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            bound = 20 if n <= 2 else 10
            eps_opts = [(0,) * n] if p == 2 else list(
                itertools.product((0, 1), repeat=n)
            )
            step = 1 if p != 2 else 2
            for twice in itertools.product(range(0, bound + 1, step), repeat=n):
                for eps in eps_opts:
                    s = OpSeq(ctx, twice, eps)
                    try:
                        u = lower_to_upper(s)
                    except DomainError:
                        assert min(suffix_degrees(s)) < 0, (p, twice, eps)
                        continue
                    assert upper_to_lower(u) == s


def check_coassociativity():
    ctx = Context(3, 1)
    for i in range(9):
        for e in (0, 1):
            u = UpperSeq(ctx, (2 * i,), (e,))
            t = coproduct(u)
            want = coproduct(u, folds=3)
            assert tensor_split_leg(t, 0) == want
            assert tensor_split_leg(t, 1) == want


def rho_tensor(t):
    out = TensorPoly(t.ctx, t.folds, lower=True)
    for legs, coeff in t.terms.items():
        factors = [
            adem_straighten_classical(OpPoly.from_seq(OpSeq(t.ctx, tw, ep)))
            for tw, ep in legs
        ]
        pools = [f.sorted_terms() for f in factors]
        for picks in itertools.product(*pools):
            c = coeff
            for _, ci in picks:
                c *= ci
            out.add_term(tuple(k for k, _ in picks), c)
    return out


def check_coproduct_straightening():
    for p in (2, 3):
        ctx = Context(p, 2)
        for twice in itertools.product(range(0, 13, 2), repeat=2):
            s = OpSeq(ctx, twice, (0, 0))
            lhs = rho_tensor(coproduct(s).to_lower())
            rho = adem_straighten_classical(OpPoly.from_seq(s))
            rhs = rho_tensor(coproduct(rho).to_lower())
            assert lhs == rhs, (p, twice)


def check_frobenius_and_homogeneity():
    for p in (2, 3):
        for n in (2, 3):
            ctx = Context(p, n)
            for m in monomials_up_to(n, 4):
                b = expand_dickson_monomial(m, ctx)
                D = dickson_monomial_degree(m, ctx)
                assert all(h_monomial_degree(J, ctx) == D for J in b.terms)
                if sum(m) <= 3:
                    lhs = expand_dickson_monomial(tuple(p * v for v in m), ctx)
                    assert lhs == b.frobenius(1)


def check_chi_extremality():
    for p in (2, 3):
        for n in (2, 3):
            ctx = Context(p, n)
            for m in monomials_up_to(n, 5):
                b = expand_dickson_monomial(m, ctx)
                seqs = sorted(
                    (psi_T(J, ctx) for J in b.terms), key=lambda s: s.key()
                )
                assert seqs[0] == chi_min(m, ctx)
                assert seqs[-1] == chi_max(m, ctx)
                lo = tuple(t // 2 for t in seqs[0].twice)
                hi = tuple(t // 2 for t in seqs[-1].twice)
                assert b.terms[lo] == 1 and b.terms[hi] == 1


def test_A9_property_bundle():
    t0 = time.perf_counter()
    check_lucas_and_vandermonde()
    check_notation_roundtrip()
    check_coassociativity()
    check_coproduct_straightening()
    check_frobenius_and_homogeneity()
    check_chi_extremality()
    dt = time.perf_counter() - t0
    assert dt < 120, dt
    print(f"A9: arithmetic/notation/coproduct/expansion properties hold ({dt:.1f}s)")
