"""Direct tests of the sparse polynomial kernel against a schoolbook product."""

import random

import pytest

from dyerlashof import _purekernel, kernels
from dyerlashof.kernels import poly_mul, poly_scale


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


def test_poly_scale():
    p = 5
    a = {(1, 0): 2, (0, 3): 4}
    a0 = dict(a)
    assert poly_scale(a, 0, p) == {}
    assert poly_scale(a, 2 * p, p) == {}
    one = poly_scale(a, 1, p)
    assert one == a and one is not a
    assert poly_scale(a, p + 1, p) == a
    assert poly_scale(a, p - 1, p) == {(1, 0): 3, (0, 3): 1}
    assert poly_scale(a, -1, p) == {(1, 0): 3, (0, 3): 1}
    assert poly_scale(a, -3, p) == {(1, 0): 4, (0, 3): 3}
    assert a == a0


def test_kernel_names_pinned():
    # The benchmark records IMPL_NAME and traces the product by patching
    # kernels.poly_mul; both names must keep pointing at this kernel.
    assert kernels.poly_mul is _purekernel.poly_mul
    assert kernels.poly_scale is _purekernel.poly_scale
    assert kernels.IMPL_NAME == "_purekernel"
