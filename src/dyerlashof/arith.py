"""Mod-p arithmetic helpers shared by the whole package.

Binomial coefficients are reduced with Lucas' theorem, read in blocks of
several base-p digits at a time, so huge arguments cost nothing:

    >>> binom_mod_p(3**20 + 4, 4, 3)
    1

All binomials follow the combinatorial convention: C(a, b) = 0 whenever
b < 0, a < 0 or b > a.  In particular C(-1, 0) = 0, which several Adem
coefficient formulas rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

__all__ = [
    "Combination",
    "Context",
    "DomainError",
    "InvariantError",
    "binom_mod_p",
    "multinom_mod_p",
    "padic_digits",
]

PRIMES = (2, 3, 5, 7)
MAX_VARS = 6


class DomainError(ValueError):
    """Raised for inputs outside the supported mathematical domain."""


class InvariantError(RuntimeError):
    """Raised when a mathematical invariant that a result rests on fails
    (a defect of the program, not of its input).  Unlike an assert, the
    check still runs under ``python -O``."""


@dataclass(frozen=True)
class Context:
    """A prime p and a number of variables n (length of sequences),
    1 <= n <= MAX_VARS."""

    p: int
    n: int

    def __post_init__(self):
        if self.p not in PRIMES:
            raise DomainError(f"p must be one of {PRIMES}, got {self.p}")
        if not 1 <= self.n <= MAX_VARS:
            raise DomainError(f"n must be in 1..{MAX_VARS}, got {self.n}")

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The grading: weights[t] = |h_(t+1)|, the degree of lower entry 1
        at position t: 2(p-1) p^t, halved to 2^t at p = 2 here only."""
        unit = 1 if self.p == 2 else 2 * (self.p - 1)
        return tuple(unit * self.p**t for t in range(self.n))


class Combination:
    """A finite F_p-linear combination: ``terms`` maps keys to coefficients
    in 1..p-1, and a key whose coefficient cancels is removed.

    Equality, sums, differences and products need the same kind: the same
    class and ``_shape`` (the constructor arguments before ``terms``).  A
    sum or product of two kinds raises DomainError.  Combinations are
    mutable, so they are not hashable.  Every kind takes whole keys through
    ``add_term(key, coeff)`` (a subclass's ``add_term`` checks its key,
    then calls ``Combination.add_term``) and lists its terms through
    ``sorted_terms()`` in its canonical order.
    """

    __slots__ = ("ctx", "terms")
    __hash__ = None

    def __init__(self, ctx: Context, terms: dict | None = None):
        self.ctx = ctx
        self.terms: dict = {}
        for key, coeff in (terms or {}).items():
            self.add_term(key, coeff)

    def _shape(self) -> tuple:
        return (self.ctx,)

    def add_term(self, key, coeff: int):
        """Add coeff * key, reducing mod p and removing a cancelled key."""
        p = self.ctx.p
        coeff %= p
        if coeff:
            terms = self.terms
            coeff = (terms.get(key, 0) + coeff) % p
            if coeff:
                terms[key] = coeff
            else:
                terms.pop(key)

    def sorted_terms(self) -> list:
        """(key, coeff) pairs by ascending key, unless the kind orders
        them otherwise."""
        return sorted(self.terms.items())

    def _check_kind(self, other: "Combination") -> None:
        """Raise DomainError unless other is a combination of the same kind."""
        if type(other) is not type(self) or other._shape() != self._shape():
            raise DomainError(
                f"cannot combine {type(self).__name__}{self._shape()} "
                f"with {type(other).__name__}{other._shape()}"
            )

    def _combine(self, other: "Combination", sign: int):
        if not isinstance(other, Combination):
            return NotImplemented
        self._check_kind(other)
        out = self.scaled(1)
        for key, coeff in other.terms.items():
            Combination.add_term(out, key, sign * coeff)
        return out

    def __add__(self, other: "Combination"):
        return self._combine(other, 1)

    def __sub__(self, other: "Combination"):
        return self._combine(other, -1)

    def scaled(self, c: int):
        """c times this combination, as a new one of the same kind."""
        out = type(self)(*self._shape())
        p = self.ctx.p
        if c % p:
            out.terms = {key: v * c % p for key, v in self.terms.items()}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other._shape() == self._shape()
            and other.terms == self.terms
        )

    def __repr__(self):
        args = ", ".join(map(repr, self._shape()))
        return f"{type(self).__name__}({args}; {self.terms!r})"


def padic_digits(m: int, p: int) -> list[int]:
    """Return the base-p digits of m >= 0, least significant first.

    Zero has no digits: padic_digits(0, p) == [].
    """
    if m < 0:
        raise DomainError(f"p-adic digits need m >= 0, got {m}")
    digits = []
    while m:
        m, r = divmod(m, p)
        digits.append(r)
    return digits


def _block_binoms(p: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Q = the largest power of p that is at most 64, and the table of
    C(a, b) mod p for 0 <= a, b < Q (0 when b > a).

    Lucas' theorem holds in base Q too: by Lucas in base p, the product
    of the digit binomials over one block of k base-p digits is C(a', b')
    mod p for the base-Q digits a', b' that the block spells.
    """
    q = p
    while q * p <= 64:
        q *= p
    return q, tuple(tuple(comb(a, b) % p for b in range(q)) for a in range(q))


_BLOCK_BINOMS = {p: _block_binoms(p) for p in PRIMES if p != 2}


def binom_mod_p(a: int, b: int, p: int) -> int:
    """Return C(a, b) mod p via Lucas; 0 if a < 0, b < 0 or b > a.

    p must be one of PRIMES.  At odd p the digits are read in base Q
    (see _block_binoms), so arguments below Q take one table lookup.
    Once b has no digits left every remaining factor is C(a_d, 0) = 1,
    so the digit loop stops there.
    """
    if b < 0 or a < 0 or b > a:
        return 0
    if p == 2:
        return 1 if a & b == b else 0
    q, table = _BLOCK_BINOMS[p]
    result = 1
    while b:
        a, ad = divmod(a, q)
        b, bd = divmod(b, q)
        c = table[ad][bd]
        if not c:
            return 0
        result = result * c % p
    return result


def multinom_mod_p(parts: tuple[int, ...] | list[int], p: int) -> int:
    """Return the multinomial (sum parts)! / prod(parts!) mod p.

    Computed as a product of binomials so Lucas applies; any negative
    part gives 0.
    """
    total = 0
    result = 1
    for part in parts:
        if part < 0:
            return 0
        total += part
        result = result * binom_mod_p(total, part, p) % p
        if result == 0:
            return 0
    return result
