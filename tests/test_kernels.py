"""Direct tests of the sparse polynomial kernel against a schoolbook product."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dyerlashof import _purekernel, kernels
from dyerlashof.arith import DomainError
from dyerlashof.kernels import poly_mul


def schoolbook_mul(a, b, p):
    """Every term pair summed into a full coefficient table, reduced at the end."""
    acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            acc[key] = acc.get(key, 0) + ca * cb
    return {k: c % p for k, c in acc.items() if c % p}


def assert_reverse_lex(terms):
    # the product's terms come in the canonical order: reverse-lex, the
    # last exponent most significant
    assert list(terms) == sorted(terms, key=lambda k: k[::-1])


def random_poly(rng, p, nvars, terms, max_exp=3):
    out = {}
    for _ in range(terms):
        key = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
        out[key] = rng.randrange(1, p)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_poly_mul_matches_schoolbook(p, nvars):
    rng = random.Random(1000 * p + nvars)
    for _ in range(40):
        a = random_poly(rng, p, nvars, rng.randrange(1, 9))
        b = random_poly(rng, p, nvars, rng.randrange(1, 9))
        got = poly_mul(a, b, p)
        assert got == schoolbook_mul(a, b, p)
        assert all(0 < c < p for c in got.values())
        assert got == poly_mul(b, a, p)
        assert_reverse_lex(got)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_poly_mul_cancellation_odd_p(p):
    x_plus_y = {(1, 0): 1, (0, 1): 1}
    x_minus_y = {(1, 0): 1, (0, 1): p - 1}
    got = poly_mul(x_plus_y, x_minus_y, p)
    assert got == {(2, 0): 1, (0, 2): p - 1}
    assert (1, 1) not in got


def test_poly_mul_cancellation_p2():
    x_plus_y = {(1, 0): 1, (0, 1): 1}
    got = poly_mul(x_plus_y, x_plus_y, 2)
    assert got == {(2, 0): 1, (0, 2): 1}
    assert (1, 1) not in got


def test_poly_mul_empty_and_inputs_untouched():
    a = {(1, 2): 2, (0, 1): 1}
    b = {(3, 0): 1, (1, 1): 2, (0, 0): 1}
    a0, b0 = dict(a), dict(b)
    assert poly_mul(a, {}, 3) == {}
    assert poly_mul({}, b, 3) == {}
    poly_mul(a, b, 3)
    poly_mul(b, a, 3)
    assert a == a0 and b == b0


def assert_matches_schoolbook(a, b, p):
    a0, b0 = dict(a), dict(b)
    got = poly_mul(a, b, p)
    assert got == schoolbook_mul(a, b, p)
    assert got == poly_mul(b, a, p)
    assert all(0 < c < p for c in got.values())
    assert a == a0 and b == b0
    assert_reverse_lex(got)
    return got


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("bits", [1, 2, 3, 5, 8, 13, 16, 32, 64])
def test_poly_mul_field_boundaries(p, bits):
    # a packed field is 1, 2, 4 or 8 bytes, the smallest that holds the
    # largest exponent of the product; sums just below and exactly at
    # 2^8, 2^16 and 2^32 sit on either side of a size change, 2^64 - 1
    # fills the widest field, and a field that overflowed would carry
    # into its neighbour
    rng = random.Random(100 * p + bits)
    edge = 1 << bits
    for top in (edge - 1, edge) if bits < 64 else (edge - 1,):
        for split in (1, top // 2):
            for _ in range(8):
                a = random_poly(rng, p, 3, 4, max_exp=top - split)
                b = random_poly(rng, p, 3, 4, max_exp=split)
                a[(top - split, 0, 0)] = 1
                b[(split, 0, 0)] = 1
                got = assert_matches_schoolbook(a, b, p)
                assert (top, 0, 0) in got
                assert max(max(k) for k in got) == top


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("at", [0, 2])
def test_poly_mul_refuses_exponents_past_64_bits(p, at):
    # the widest field holds 2^64 - 1: a product with a larger exponent
    # has no packed form, and poly_mul says so instead of answering
    def mono(e):
        return tuple(e if t == at else 0 for t in range(3))

    half = 1 << 63
    small = {(1, 2, 3): 1}
    with pytest.raises(DomainError, match=r"exponent 18446744073709551616 .*2\^64"):
        poly_mul({mono(half): 1} | small, {mono(half): 1}, p)
    with pytest.raises(DomainError, match=r"2\^64"):
        poly_mul(small, {mono(1 << 100): 1}, p)
    assert poly_mul({mono(half): 1}, {mono(half - 1): 1}, p) == {mono((1 << 64) - 1): 1}


def test_poly_mul_exponent_bound_is_per_position():
    # the factors' largest exponents sit at different positions, so no
    # exponent of the product reaches 2^64
    half = 1 << 63
    assert poly_mul({(half, 0, 1): 1}, {(0, 1, half): 1}, 3) == {(half, 1, half + 1): 1}


@pytest.mark.parametrize("p", [2, 3, 7])
def test_poly_mul_huge_exponent_beside_small_ones(p):
    big = 1 << 40
    a = {(big, 1, 0): 1, (0, 2, 3): p - 1, (1, 0, 0): 1}
    b = {(big - 1, 0, 2): 1, (0, 0, 1): 1, (3, 1, 0): p - 1}
    got = assert_matches_schoolbook(a, b, p)
    assert (2 * big - 1, 1, 2) in got


def test_poly_mul_no_variables():
    assert assert_matches_schoolbook({(): 2}, {(): 3}, 5) == {(): 1}
    assert assert_matches_schoolbook({(): 1}, {(): 1}, 2) == {(): 1}
    assert poly_mul({(): 2}, {(): 2}, 3) == {(): 1}
    assert poly_mul({(): 1}, {}, 3) == {}


def test_poly_mul_p2_cross_terms_all_cancel():
    # over F_2, f * f = f(x^2): every cross term ka + kb (ka != kb) comes
    # twice and cancels, so only the squares survive.  (No product of two
    # nonzero polynomials over a field is zero, so this is as much
    # cancellation as a product can show.)
    rng = random.Random(2)
    for nvars in (1, 2, 4):
        f = random_poly(rng, 2, nvars, 12, max_exp=40)
        got = assert_matches_schoolbook(f, dict(f), 2)
        assert got == {tuple(2 * e for e in k): 1 for k in f}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("nvars", [1, 3, 6])
def test_poly_mul_wide_exponents_match_schoolbook(p, nvars):
    # exponents up to 300, so the field width changes from product to product
    rng = random.Random(7000 + 10 * p + nvars)
    for _ in range(30):
        a = random_poly(rng, p, nvars, rng.randrange(1, 12), max_exp=rng.randrange(1, 301))
        b = random_poly(rng, p, nvars, rng.randrange(1, 12), max_exp=rng.randrange(1, 301))
        assert_matches_schoolbook(a, b, p)


@st.composite
def factor_pairs(draw):
    """(p, a, b) with n = 0..6 variables, at one field size: every
    exponent below 2^(bits - 1), and a term each in a and b whose
    exponents at one position sum to 2^bits - 2, so the product needs
    fields of exactly that many bits."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 6))
    bits = draw(st.sampled_from([8, 16, 32, 64]))
    half = 1 << (bits - 1)
    # small exponents collide and cancel; large ones fill the fields
    exp = st.one_of(st.integers(0, 3), st.integers(0, half - 1))
    poly = st.dictionaries(
        st.tuples(*[exp] * n), st.integers(1, p - 1), min_size=1, max_size=8
    )
    a, b = draw(poly), draw(poly)
    if n:
        at = draw(st.integers(0, n - 1))
        top = tuple(half - 1 if t == at else 0 for t in range(n))
        a[top] = b[top] = 1
    return p, a, b


@settings(max_examples=200, deadline=None)
@given(factor_pairs())
def test_poly_mul_matches_schoolbook_at_every_field_size(pab):
    p, a, b = pab
    assert_matches_schoolbook(a, b, p)


@pytest.mark.parametrize("nvars", [0, 1, 4])
def test_packed_order_is_reverse_lex(nvars):
    # ascending packed keys are the canonical reverse-lex order, which
    # poly_mul relies on when it unpacks its product sorted; at each
    # field size of 1, 2, 4 and 8 bytes
    rng = random.Random(nvars)
    for max_exp in (20, 300, 70000, 1 << 40):
        terms = random_poly(rng, 3, nvars, 40, max_exp=max_exp)
        top = max((max(k, default=0) for k in terms), default=0)
        layout = _purekernel._layout_for(nvars, top)
        packed = _purekernel._pack(terms, layout)
        assert len(packed) == len(terms)
        back = _purekernel._unpack(sorted(packed.items()), layout)
        assert list(back.items()) == sorted(terms.items(), key=lambda kv: kv[0][::-1])


def test_kernel_names_pinned():
    # The benchmark records IMPL_NAME and traces the product by patching
    # kernels.poly_mul; both names must keep pointing at this kernel.
    assert kernels.poly_mul is _purekernel.poly_mul
    assert kernels.IMPL_NAME == "_purekernel"
