"""Pure-Python sparse polynomial kernel, reached through ``kernels``.

Polynomials are dicts mapping exponent tuples to coefficients in [1, p);
zero coefficients are never stored, and the inputs are never mutated.

Products run on packed exponents (Monagan and Pearce, *Polynomial
division using dynamic arrays, heaps, and packed exponent vectors*,
CASC 2007): the vector (e_0, ..., e_(n-1)) packs into one int whose
little-endian bytes hold e_t in field t, each field 1, 2, 4 or 8 bytes
wide.  ``struct`` packs and unpacks a whole vector in one C call
(``int.from_bytes(S.pack(*e), "little")`` and
``S.unpack(k.to_bytes(S.size, "little"))``), through one cached
``Struct`` per (n, field size).  The field size is the smallest that
holds the largest exponent of the product (at each position, the sum of
the factors' largest exponents there), so no field overflows and
multiplying two monomials is one integer addition; a product with an
exponent of 2^64 or more fits no field and raises ``DomainError``.
Since field t sits in higher bytes than fields 0..t-1, the last
exponent is the most significant, and ascending packed ints are the
reverse-lex order of the vectors.
The packed form is this module's alone: ``poly_mul`` takes and returns
exponent tuples.
"""

from functools import lru_cache
from operator import add
from struct import Struct

from .arith import MAX_VARS, DomainError

__all__ = ["poly_mul"]

# (largest exponent a field holds, plus one; its struct code)
_FIELDS = ((1 << 8, "B"), (1 << 16, "H"), (1 << 32, "I"), (1 << 64, "Q"))


@lru_cache(maxsize=(MAX_VARS + 1) * len(_FIELDS))
def _layout(n: int, code: str) -> Struct:
    """The little-endian layout of n fields of one struct code; the cache
    holds every layout of n = 0..MAX_VARS."""
    return Struct(f"<{n}{code}")


def _layout_for(n: int, top: int) -> Struct:
    """The layout of n fields of the smallest size that holds top."""
    for bound, code in _FIELDS:
        if top < bound:
            return _layout(n, code)
    raise DomainError(f"exponent {top} of a product is not below 2^64")


def _pack(terms: dict, layout: Struct) -> dict:
    """The terms keyed by packed exponents."""
    pack = layout.pack
    return {int.from_bytes(pack(*exps), "little"): c for exps, c in terms.items()}


def _unpack(items, layout: Struct) -> dict:
    """Exponent-tuple keyed terms from (packed key, coefficient) pairs,
    in the order given."""
    unpack, size = layout.unpack, layout.size
    return {unpack(key.to_bytes(size, "little")): c for key, c in items}


def _mul_packed(a: dict, b: dict, p: int) -> dict:
    """Multiply two polynomials keyed by packed exponents over F_p.

    The caller picks a field size at which no field of the product
    overflows.
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
    A product with an exponent of 2^64 or more raises ``DomainError``.
    """
    if not a or not b:
        return {}
    # the product's largest exponent at position t is the sum of the
    # factors' largest there: in a lex order that reads t first, the
    # product of the leading terms is a term that nothing cancels
    top = max(map(add, map(max, zip(*a)), map(max, zip(*b))), default=0)
    layout = _layout_for(len(next(iter(a))), top)
    product = _mul_packed(_pack(a, layout), _pack(b, layout), p)
    return _unpack(sorted(product.items()), layout)
