"""Tests for modular binomial arithmetic and the F_p term container."""

import copy
import itertools
import math
import pickle
import random

from hypothesis import given, strategies as st

from dyerlashof.arith import (
    Combination,
    Context,
    DomainError,
    binom_mod_p,
    compositions,
    multinom_mod_p,
    padic_digits,
)
from dyerlashof.correspondence import DualExpansion
from dyerlashof.invariants import BPoly, YPoly
from dyerlashof.opalgebra import OpPoly, TensorPoly
from dyerlashof.sequences import OpSeq

import pytest

PRIMES = (2, 3, 5)


def test_context_guards():
    Context(3, 2)
    Context(7, 6)
    with pytest.raises(DomainError):
        Context(4, 2)
    with pytest.raises(DomainError):
        Context(11, 2)
    with pytest.raises(DomainError):
        Context(3, 7)
    with pytest.raises(DomainError, match=r"1\.\.6"):
        Context(3, 0)


def test_context_is_an_immutable_value():
    ctx = Context(3, 2)
    assert repr(ctx) == "Context(p=3, n=2)"
    assert (ctx.p, ctx.n, ctx.weights) == (3, 2, (4, 12))
    twin = Context(p=3, n=2)
    assert ctx == twin and hash(ctx) == hash(twin)
    assert ctx != Context(3, 3) and ctx != Context(2, 2) and ctx != (3, 2)
    for name in ("p", "n", "weights", "other"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 5)
        with pytest.raises(AttributeError):
            delattr(ctx, name)
    assert (ctx.p, ctx.n, ctx.weights) == (3, 2, (4, 12))
    for copied in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert copied == ctx and hash(copied) == hash(ctx)
        assert copied.weights == ctx.weights


def test_padic_digits_examples():
    assert padic_digits(10, 3) == [1, 0, 1]
    assert padic_digits(0, 5) == []
    assert padic_digits(7, 2) == [1, 1, 1]


def test_padic_digits_reconstruct():
    for p in PRIMES:
        for a in range(200):
            digits = padic_digits(a, p)
            assert all(0 <= d < p for d in digits)
            assert sum(d * p**t for t, d in enumerate(digits)) == a
            # no trailing zero digit
            assert not digits or digits[-1] != 0


def test_binom_examples():
    assert binom_mod_p(5, 2, 3) == 1
    assert binom_mod_p(-1, 1, 3) == 0
    assert binom_mod_p(7, 3, 2) == 1
    # a p outside PRIMES has no table to build
    with pytest.raises(DomainError, match="p must be one of"):
        binom_mod_p(5, 2, 11)


def test_binom_conventions():
    # C(a,b) = 0 whenever b < 0, a < 0, or b > a; C(-1,0) included.
    assert binom_mod_p(-1, 0, 3) == 0
    assert binom_mod_p(3, -1, 3) == 0
    assert binom_mod_p(-2, -2, 5) == 0
    assert binom_mod_p(2, 5, 3) == 0
    assert binom_mod_p(0, 0, 2) == 1


def test_binom_against_factorials():
    # Lucas vs exact integer binomials, 0 <= b <= a <= 400 (three base-7
    # digits), and 0 whenever an argument is negative or b > a.
    primes = (2, 3, 5, 7)
    for a in range(401):
        for b in range(a + 1):
            exact = math.comb(a, b)
            for p in primes:
                assert binom_mod_p(a, b, p) == exact % p, (p, a, b)
    for p in primes:
        for a in range(-5, 30):
            for b in range(-5, 35):
                if a < 0 or b < 0 or b > a:
                    assert binom_mod_p(a, b, p) == 0, (p, a, b)


def test_binom_past_one_block():
    # at odd p the Lucas digits are read in blocks of Q, the largest power
    # of p <= 64 (27, 25, 49): check around every multiple kQ, k <= Q;
    # p = 2 reads bits, so its multiples of 64 stop at k = 16, where
    # math.comb is still cheap.  Then a seeded sample up to p^9 with
    # min(b, a - b) <= 150, for the same reason.
    rng = random.Random(8)
    for p in (2, 3, 5, 7):
        q = p
        while q * p <= 64:
            q *= p
        kmax = 16 if p == 2 else q
        edges = [v for k in range(kmax + 1) for v in (k * q - 1, k * q, k * q + 1)]
        for a in edges:
            for b in edges:
                want = math.comb(a, b) % p if 0 <= b <= a else 0
                assert binom_mod_p(a, b, p) == want, (p, a, b)
        for _ in range(400):
            a = rng.randrange(p**9)
            k = rng.randrange(min(a, 150) + 1)
            b = k if rng.random() < 0.5 else a - k
            assert binom_mod_p(a, b, p) == math.comb(a, b) % p, (p, a, b)


def test_binom_vandermonde():
    # sum_k C(m,k) C(n,j-k) = C(m+n,j), top arguments up to 30.
    for p in PRIMES:
        for m in range(16):
            for n in range(16):
                for j in range(m + n + 1):
                    acc = sum(
                        binom_mod_p(m, k, p) * binom_mod_p(n, j - k, p)
                        for k in range(j + 1)
                    )
                    assert acc % p == binom_mod_p(m + n, j, p), (p, m, n, j)


@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
)
def test_binom_symmetry(p, a, b):
    assert binom_mod_p(a, b, p) == binom_mod_p(a, a - b, p)


def test_multinom_examples():
    assert multinom_mod_p([1, 1], 3) == 2
    assert multinom_mod_p([2, 0], 3) == 1
    assert multinom_mod_p([2, 2], 2) == 0


def test_multinom_matches_factorials():
    parts_list = [(1,), (0, 0), (1, 2), (2, 1), (3, 1, 2), (2, 2, 2), (5, 0, 1)]
    for p in PRIMES:
        for parts in parts_list:
            total = math.factorial(sum(parts))
            for x in parts:
                total //= math.factorial(x)
            assert multinom_mod_p(parts, p) == total % p, (p, parts)


@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
)
def test_multinom_permutation_invariant(p, parts):
    assert multinom_mod_p(parts, p) == multinom_mod_p(sorted(parts), p)


def test_compositions():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    for parts in (1, 2, 3):
        assert list(compositions(-1, parts)) == []
        for total in range(6):
            want = [
                c for c in itertools.product(range(total + 1), repeat=parts)
                if sum(c) == total
            ]
            assert list(compositions(total, parts)) == want


# Every term container: (name, empty(ctx), add(x, key, c), two keys at ctx,
# keys in the kind's canonical order of sorted_terms).
P3N2 = Context(3, 2)
CONTAINERS = [
    ("BPoly", BPoly, BPoly.add_term, (1, 0), (0, 2), [(3, 0), (1, 1), (2, 1), (0, 2)]),
    ("YPoly", YPoly, YPoly.add_term, (1, 0), (0, 2), [(3, 0), (1, 1), (2, 1), (0, 2)]),
    (
        "OpPoly",
        OpPoly,
        OpPoly.add_term,
        ((0, 4), (0, 0)),
        ((1, 3), (1, 0)),
        # tail excesses (0,3), (0,4), (0,4), (1,3), (2,2); then entries
        [
            ((1, 3), (1, 0)),
            ((0, 4), (0, 0)),
            ((1, 4), (1, 0)),
            ((1, 3), (0, 0)),
            ((2, 2), (0, 0)),
        ],
    ),
    (
        "DualExpansion",
        DualExpansion,
        DualExpansion.add_term,
        OpSeq(P3N2, (0, 4), (0, 0)),
        OpSeq(P3N2, (2, 2), (0, 0)),
        [
            OpSeq(P3N2, (1, 3), (1, 0)),
            OpSeq(P3N2, (0, 4), (0, 0)),
            OpSeq(P3N2, (1, 4), (1, 0)),
            OpSeq(P3N2, (2, 2), (0, 0)),
        ],
    ),
    (
        "TensorPoly",
        lambda ctx: TensorPoly(ctx, 2),
        TensorPoly.add_term,
        (((0, 0), (0, 0)), ((2, 2), (0, 1))),
        (((2, 2), (0, 1)), ((0, 0), (0, 0))),
        [
            (((0, 0), (0, 0)), ((2, 2), (0, 1))),
            (((0, 0), (0, 0)), ((2, 2), (1, 0))),
            (((2, 2), (0, 1)), ((0, 0), (0, 0))),
        ],
    ),
]
CONTAINER_IDS = [name for name, *_ in CONTAINERS]
CONTAINER_ARGS = "name,empty,add,ka,kb,ordered"


@pytest.mark.parametrize(CONTAINER_ARGS, CONTAINERS, ids=CONTAINER_IDS)
def test_combination_contract(name, empty, add, ka, kb, ordered):
    p = P3N2.p
    x = empty(P3N2)
    assert isinstance(x, Combination)
    assert x.is_zero() and x.terms == {}
    # coefficients are reduced into 1..p-1
    add(x, ka, -1)
    add(x, kb, p + 2)
    assert x.terms == {ka: p - 1, kb: 2}
    # a cancelled key is removed, and adding 0 adds no key
    y = empty(P3N2)
    add(y, ka, 1)
    add(y, kb, 0)
    assert y.terms == {ka: 1}
    add(y, ka, p - 1)
    assert y.terms == {} and y.is_zero()
    add(y, ka, 1)
    # scaled at c = 0, 1, p - 1 (and their shifts by p)
    for c in (0, p):
        assert x.scaled(c).is_zero()
        assert x.scaled(c) == empty(P3N2)
    for c in (1, p + 1):
        assert x.scaled(c) == x
        assert x.scaled(c) is not x and x.scaled(c).terms is not x.terms
    assert x.scaled(p - 1).terms == {ka: 1, kb: 1}
    assert x.scaled(-1) == x.scaled(p - 1)
    # + and - against those scalings, with cancellation
    assert (x + x.scaled(0)) == x
    assert (x - x.scaled(0)) == x
    assert (x + x.scaled(p - 1)).is_zero()
    assert (x - x).terms == {}
    assert (x - x.scaled(p - 1)) == x.scaled(2)
    assert (x + y).terms == {kb: 2}
    assert (x - y).terms == {ka: p - 2, kb: 2}
    # operands are left alone
    assert x.terms == {ka: p - 1, kb: 2} and y.terms == {ka: 1}
    assert type(x + y) is type(x) and type(x.scaled(2)) is type(x)
    # mutable, so not hashable
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(TypeError):
        {x}


@pytest.mark.parametrize(CONTAINER_ARGS, CONTAINERS, ids=CONTAINER_IDS)
def test_sorted_terms_in_canonical_order(name, empty, add, ka, kb, ordered):
    # added in reverse, listed in the kind's order, each with its coefficient
    x = empty(P3N2)
    for i in reversed(range(len(ordered))):
        add(x, ordered[i], 1 + i % 2)
    assert x.sorted_terms() == [(key, 1 + i % 2) for i, key in enumerate(ordered)]


def test_scaled():
    p = 5
    a = BPoly(Context(p, 2), {(1, 0): 2, (0, 3): 4})
    a0 = dict(a.terms)
    assert a.scaled(0).terms == {}
    assert a.scaled(2 * p).terms == {}
    one = a.scaled(1)
    assert one.terms == a.terms and one.terms is not a.terms
    assert a.scaled(p + 1).terms == a.terms
    assert a.scaled(p - 1).terms == {(1, 0): 3, (0, 3): 1}
    assert a.scaled(-1).terms == {(1, 0): 3, (0, 3): 1}
    assert a.scaled(-3).terms == {(1, 0): 4, (0, 3): 3}
    assert a.terms == a0


def test_combination_kinds():
    b = BPoly(P3N2, {(1, 0): 1})
    y = YPoly(P3N2, {(1, 0): 1})
    assert b.terms == y.terms
    assert b != y and y != b
    assert b == BPoly(P3N2, {(1, 0): 4})
    assert b != BPoly(Context(5, 2), {(1, 0): 1})
    # TensorPoly's kind includes its folds
    legs = (((0,), (0,)), ((2,), (0,)))
    t = TensorPoly(Context(3, 1), 2)
    t.add_term(legs, 1)
    other = TensorPoly(Context(3, 1), 3)
    other.add_term(legs, 1)
    assert other.terms == t.terms
    assert other != t
    with pytest.raises(DomainError):
        t + other
    assert t.scaled(2).folds == 2


@pytest.mark.parametrize(CONTAINER_ARGS, CONTAINERS, ids=CONTAINER_IDS)
def test_sums_across_contexts_raise(name, empty, add, ka, kb, ordered):
    x = empty(P3N2)
    add(x, ka, 1)
    z = empty(Context(5, 2))
    if name != "DualExpansion":  # its keys carry their own context
        add(z, ka, 4)
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(DomainError):
            op(x, z)
        with pytest.raises(DomainError):
            op(z, x)
    assert x.terms == {ka: 1}


def test_sums_across_kinds_raise():
    b = BPoly(P3N2, {(1, 0): 1})
    y = YPoly(P3N2, {(1, 0): 1})
    with pytest.raises(DomainError):
        b + y
    with pytest.raises(DomainError):
        y - b
    with pytest.raises(DomainError):
        OpPoly(P3N2) + TensorPoly(P3N2, 1)
    with pytest.raises(TypeError):
        b + 1


def test_products_across_kinds_and_contexts_raise():
    # each product once returned an answer: a BPoly, a zip-truncated
    # {(2, 0): 1}, and one reduced mod 3
    cases = [
        (BPoly(P3N2, {(1, 0): 1}), YPoly(P3N2, {(0, 1): 1})),
        (BPoly(Context(2, 2), {(1, 0): 1}), BPoly(Context(2, 3), {(1, 0, 0): 1})),
        (BPoly(P3N2, {(1, 0): 1}), BPoly(Context(2, 2), {(1, 0): 1})),
    ]
    for a, b in cases:
        with pytest.raises(DomainError, match="cannot combine"):
            a * b
    assert (BPoly(P3N2, {(1, 0): 1}) * BPoly(P3N2, {(1, 0): 2})).terms == {(2, 0): 2}
