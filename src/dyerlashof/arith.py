"""Mod-p arithmetic helpers shared by the whole package.

Binomial coefficients are reduced with Lucas' theorem, digit by digit in
base p, so huge arguments cost nothing:

    >>> binom_mod_p(3**20 + 4, 5, 3)
    1

All binomials follow the combinatorial convention: C(a, b) = 0 whenever
b < 0, a < 0 or b > a.  In particular C(-1, 0) = 0, which several Adem
coefficient formulas rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

__all__ = [
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
    """A prime p and a number of variables n (length of sequences).

    n = 0 is tolerated so the empty sequence can act as the unit for
    direct sums; the CLI and all solvers require 1 <= n <= 6.
    """

    p: int
    n: int

    def __post_init__(self):
        if self.p not in PRIMES:
            raise DomainError(f"p must be one of {PRIMES}, got {self.p}")
        if not 0 <= self.n <= MAX_VARS:
            raise DomainError(f"n must be in 1..{MAX_VARS}, got {self.n}")


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


def binom_mod_p(a: int, b: int, p: int) -> int:
    """Return C(a, b) mod p via Lucas; 0 if a < 0, b < 0 or b > a."""
    if b < 0 or a < 0 or b > a:
        return 0
    result = 1
    while a or b:
        a, ad = divmod(a, p)
        b, bd = divmod(b, p)
        if bd > ad:
            return 0
        result = result * comb(ad, bd) % p
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
