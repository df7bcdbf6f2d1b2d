"""Pure-Python sparse polynomial kernel, reached through ``kernels``.

Polynomials are dicts mapping exponent tuples to coefficients in [1, p);
zero coefficients are never stored, and the inputs are never mutated.

Products run on packed exponents (Monagan and Pearce, *Polynomial
division using dynamic arrays, heaps, and packed exponent vectors*,
CASC 2007): with a field width w, the vector (e_0, ..., e_(n-1)) packs
into the int sum of e_t << (w t).  While no field overflows, multiplying
two monomials is one integer addition, and ascending packed ints are
the reverse-lex order of the vectors (last exponent most significant).
The packed form is this module's alone: ``poly_mul`` takes and returns
exponent tuples.
"""

from operator import lshift

__all__ = ["poly_mul"]


def _pack(terms: dict, n: int, width: int) -> dict:
    """The terms of an n-variable polynomial keyed by packed exponents."""
    shifts = range(0, n * width, width)
    return {sum(map(lshift, exps, shifts)): c for exps, c in terms.items()}


def _unpack(items, n: int, width: int) -> dict:
    """Exponent-tuple keyed terms from (packed key, coefficient) pairs,
    in the order given."""
    mask = (1 << width) - 1
    shifts = range(0, n * width, width)
    return {tuple([key >> s & mask for s in shifts]): c for key, c in items}


def _mul_packed(a: dict, b: dict, p: int) -> dict:
    """Multiply two polynomials keyed by packed exponents over F_p.

    The caller picks a width at which no field of the product overflows.
    """
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    toggle = p == 2
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            if toggle:
                # every coefficient is 1: a second hit cancels the first
                if key in out:
                    del out[key]
                else:
                    out[key] = 1
                continue
            c = (get(key, 0) + ca * cb) % p
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def poly_mul(a: dict, b: dict, p: int) -> dict:
    """Multiply two sparse polynomials over F_p.

    The product's terms come in reverse-lex order of their exponent
    tuples, the canonical output order: sorting packed keys gives it.
    """
    if not a or not b:
        return {}
    n = len(next(iter(a)))
    # a field wide enough for the largest exponent sum never overflows
    width = (max(map(max, a)) + max(map(max, b)) if n else 0).bit_length() or 1
    product = _mul_packed(_pack(a, n, width), _pack(b, n, width), p)
    return _unpack(sorted(product.items()), n, width)
