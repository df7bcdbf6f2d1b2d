"""Direct tests of the sparse polynomial kernel against a schoolbook product."""

import random

import pytest

from dyerlashof import _purekernel, kernels
from dyerlashof.kernels import poly_mul


def schoolbook_mul(a, b, p):
    """Every term pair summed into a full coefficient table, reduced at the end."""
    acc = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            acc[key] = acc.get(key, 0) + ca * cb
    return {k: c % p for k, c in acc.items() if c % p}


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
    return got


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("bits", [1, 2, 3, 5, 8, 13])
def test_poly_mul_field_boundaries(p, bits):
    # the packed field width comes from the largest exponent sum; sums
    # just below and exactly at 2^bits sit on either side of a width
    # change, and a field that overflowed would carry into its neighbour
    rng = random.Random(100 * p + bits)
    edge = 1 << bits
    for top in (edge - 1, edge):
        for split in (1, top // 2):
            for _ in range(8):
                a = random_poly(rng, p, 3, 4, max_exp=top - split)
                b = random_poly(rng, p, 3, 4, max_exp=split)
                a[(top - split, 0, 0)] = 1
                b[(split, 0, 0)] = 1
                got = assert_matches_schoolbook(a, b, p)
                assert (top, 0, 0) in got
                assert max(max(k) for k in got) == top


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


@pytest.mark.parametrize("nvars", [0, 1, 4])
def test_packed_order_is_reverse_lex(nvars):
    # ascending packed keys are the canonical reverse-lex order, which
    # the Dickson expansion relies on when it unpacks once, sorted
    rng = random.Random(nvars)
    terms = random_poly(rng, 3, nvars, 40, max_exp=20)
    width = kernels.field_width(max((max(k, default=0) for k in terms), default=0))
    packed = kernels.pack(terms, nvars, width)
    assert len(packed) == len(terms)
    back = kernels.unpack(sorted(packed.items()), nvars, width)
    assert list(back.items()) == sorted(terms.items(), key=lambda kv: kv[0][::-1])


def test_kernel_names_pinned():
    # The benchmark records IMPL_NAME and traces the product by patching
    # kernels.poly_mul; both names must keep pointing at this kernel.
    assert kernels.poly_mul is _purekernel.poly_mul
    assert kernels.IMPL_NAME == "_purekernel"
