"""Duality between Dickson monomials and admissible operations.

The Kronecker pairing <d^m, Q_J> is coefficient extraction: the
coefficient of h^J in the Borel expansion of d^m, read through the
base-p digit recursion of coeff_in_expansion.  Per degree the pairing
matrix is unitriangular for the excess-lex order with chi_min on the
diagonal.  That gives the dual-basis algorithm, its inversion by forward
substitution, and the straightening map rho(e_I) by back-substitution
over the K <= I.  Both substitutions read only the entries they need;
no matrix is built.

    >>> ctx = Context(2, 2)
    >>> [s.twice for s in admissible_basis(6, ctx)]
    [(0, 6), (4, 4)]
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache

from .arith import Context, DomainError, InvariantError, binom_mod_p
from .invariants import (
    chi_min,
    coeff_in_expansion,
    dickson_degree,
    dickson_monomial_degree,
)
from .opalgebra import OpPoly
from .sequences import OpSeq, compare, degree_lower, is_admissible

__all__ = [
    "DualExpansion",
    "solve_degree_diophantine",
    "admissible_basis",
    "kronecker_pair",
    "dual_of_dickson",
    "dickson_of_dual",
    "adem_via_invariants",
    "power_dual_check",
]


class DualExpansion:
    """A finite sum of dual-basis elements c_J (Q_J)^*."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict | None = None):
        self.ctx = ctx
        self.terms: dict[OpSeq, int] = {}
        if terms:
            for seq, coeff in terms.items():
                self.add_term(seq, coeff)

    def add_term(self, seq: OpSeq, coeff: int):
        if seq.ctx != self.ctx:
            raise DomainError("dual expansion term from another context")
        if not is_admissible(seq):
            raise DomainError("dual expansions are indexed by admissibles")
        coeff %= self.ctx.p
        if not coeff:
            return
        new = (self.terms.get(seq, 0) + coeff) % self.ctx.p
        if new:
            self.terms[seq] = new
        else:
            del self.terms[seq]

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (kv[0].key(), kv[0].twice, kv[0].eps)
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, DualExpansion)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"DualExpansion({self.ctx.p},{self.ctx.n}; {len(self.terms)} terms)"


def solve_degree_diophantine(D: int, ctx: Context) -> list[tuple[int, ...]]:
    """All m with sum m_i deg(d_{n,i}) = D, by bounded lexicographic search."""
    if D < 0:
        raise DomainError("degree must be nonnegative")
    weights = [dickson_degree(i, ctx) for i in range(ctx.n)]
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: int, acc: list[int]):
        if i == ctx.n:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        for mi in range(rem // w + 1):
            acc.append(mi)
            rec(i + 1, rem - mi * w, acc)
            acc.pop()

    rec(0, D, [])
    return out


def admissible_basis(D: int, ctx: Context) -> list[OpSeq]:
    """All weakly increasing nonnegative integral eps = 0 sequences of
    lower degree D, ascending under compare.

    Enumerated directly (not through the Dickson side) so that the
    bijection with solve_degree_diophantine stays a real check.
    """
    if D < 0:
        raise DomainError("degree must be nonnegative")
    p, n = ctx.p, ctx.n
    # weight of entry value 1 at position t (0-based)
    wt = [(1 << t) if p == 2 else 2 * (p - 1) * p**t for t in range(n)]
    out: list[OpSeq] = []

    def rec(t: int, lo: int, rem: int, acc: list[int]):
        if t == n:
            if rem == 0:
                out.append(
                    OpSeq(ctx, tuple(2 * v for v in acc), (0,) * n)
                )
            return
        tail = sum(wt[t:])
        for v in range(lo, rem // wt[t] + 1):
            if v * tail > rem:
                break
            acc.append(v)
            rec(t + 1, v, rem - v * wt[t], acc)
            acc.pop()

    rec(0, 0, D, [])
    out.sort(key=lambda s: s.key())
    return out


def kronecker_pair(m, J: OpSeq, ctx: Context) -> int:
    """<d^m, Q_J>: the coefficient of h^J in the expansion of d^m."""
    if any(J.eps):
        raise DomainError("the pairing is implemented for eps = 0 only")
    if any(t % 2 for t in J.twice):
        return 0
    if dickson_monomial_degree(m, ctx) != degree_lower(J):
        return 0
    return coeff_in_expansion(m, tuple(t // 2 for t in J.twice), ctx)


@lru_cache(maxsize=None)
def _degree_data(D: int, ctx: Context):
    """Per-degree duality data: the admissible sequences K of lower
    degree D (ascending under compare) and the Dickson monomials m(K)
    with chi_min(d^m(K)) = K."""
    monos = solve_degree_diophantine(D, ctx)
    pairs = sorted(
        ((chi_min(m, ctx), m) for m in monos), key=lambda km: km[0].key()
    )
    ks = tuple(k for k, _ in pairs)
    ms = tuple(m for _, m in pairs)
    basis = admissible_basis(D, ctx)
    if [s.twice for s in basis] != [k.twice for k in ks]:
        raise InvariantError("chi_min is not a bijection onto the admissible basis")
    return ks, ms


def _exps(s: OpSeq) -> tuple[int, ...]:
    return tuple(t // 2 for t in s.twice)


def _unit_diagonal(m, K: OpSeq, ctx: Context) -> None:
    """The pairing <d^m, Q_K> with K = chi_min(d^m) must be 1."""
    c = coeff_in_expansion(m, _exps(K), ctx)
    if c != 1:
        raise InvariantError(
            f"pairing matrix is not unitriangular: <d^{m}, Q_{K.twice}> = {c}"
        )


def dual_of_dickson(m, ctx: Context) -> DualExpansion:
    """Expand (the dual of) d^m in the dual basis: sum over admissible J
    of <d^m, Q_J> (Q_J)^*."""
    m = tuple(m)
    D = dickson_monomial_degree(m, ctx)
    out = DualExpansion(ctx)
    lead = chi_min(m, ctx)
    for J in admissible_basis(D, ctx):
        c = kronecker_pair(m, J, ctx)
        cmp = compare(J, lead)
        if cmp < 0 and c:
            raise InvariantError(
                f"pairing <d^{m}, Q_{J.twice}> below chi_min is {c}, not 0"
            )
        if cmp == 0 and J.twice == lead.twice and c != 1:
            raise InvariantError(f"chi_min coefficient of d^{m} is {c}, not 1")
        if c:
            out.add_term(J, c)
    return out


def dickson_of_dual(J: OpSeq) -> dict[tuple[int, ...], int]:
    """The Dickson combination dual to (Q_J)^*.

    With K_1 < ... < K_r the admissible basis of the degree and
    c_ij = <d^m(K_i), Q_(K_j)> (unitriangular), the combination
    sum_i x_i d^m(K_i) solves sum_(i <= j) x_i c_ij = delta(j, target).
    Forward substitution gives x_i = 0 below the target; from the target
    upwards each c_ij is read only for the i with x_i != 0.
    """
    ctx = J.ctx
    if any(J.eps) or any(t % 2 for t in J.twice):
        raise DomainError("dickson_of_dual needs an integral eps = 0 sequence")
    if not is_admissible(J):
        raise DomainError("dickson_of_dual needs an admissible sequence")
    ks, ms = _degree_data(degree_lower(J), ctx)
    p = ctx.p
    target = bisect_left(ks, J.key(), key=OpSeq.key)
    if target == len(ks) or ks[target].twice != J.twice:
        raise DomainError("sequence not in the admissible basis of its degree")
    x: dict[int, int] = {}
    for j in range(target, len(ks)):
        _unit_diagonal(ms[j], ks[j], ctx)
        col = _exps(ks[j])
        acc = 1 if j == target else 0
        for i, xi in x.items():
            acc -= xi * coeff_in_expansion(ms[i], col, ctx)
        acc %= p
        if acc:
            x[j] = acc
    return {ms[j]: xj for j, xj in x.items()}


def adem_via_invariants(x: OpSeq) -> OpPoly:
    """Straighten rho(e_I) through the invariant-theoretic pairing.

    With K_1 < ... < K_r the admissible basis of degree |I|, rho(e_I) =
    sum_j a_j Q_(K_j) solves sum_j c_ij a_j = b_i, where
    c_ij = <d^m(K_i), Q_(K_j)> and b_i = coeff of h^I in d^m(K_i).  The
    matrix is unitriangular (c_ii = 1, c_ij = 0 for j < i), and b_i = 0
    for K_i > I because chi_min = K_i is the least monomial of d^m(K_i);
    so a_i = 0 there too.  Back-substitution runs over the K_i <= I only
    and reads c_ij only for the j with a_j != 0.
    """
    ctx = x.ctx
    if any(x.eps):
        raise DomainError("invariant-theoretic straightening needs eps = 0")
    if any(t % 2 for t in x.twice):
        raise DomainError("invariant-theoretic straightening needs integral entries")
    ks, ms = _degree_data(degree_lower(x), ctx)
    p = ctx.p
    exps = _exps(x)
    a: dict[int, int] = {}
    for i in range(bisect_right(ks, x.key(), key=OpSeq.key) - 1, -1, -1):
        _unit_diagonal(ms[i], ks[i], ctx)
        acc = coeff_in_expansion(ms[i], exps, ctx)
        for j, aj in a.items():
            acc -= aj * coeff_in_expansion(ms[i], _exps(ks[j]), ctx)
        acc %= p
        if acc:
            a[i] = acc
    out = OpPoly(ctx)
    for i in sorted(a):
        out.add_term(ks[i].twice, ks[i].eps, a[i])
    return out


def power_dual_check(n: int, i: int, k: int, alpha_k: int, alpha_0: int, ctx: Context) -> bool:
    """Check the single-step power identity for d_{n,n-i}^(alpha_k p^k + alpha_0).

    With mu = min(alpha_k, alpha_0), the dual must contain
    Psi(d_{n,n-i}^(alpha_k p^k+alpha_0)) with coefficient 1 and, when
    mu > 0, the sequence of
    d_{n,n-i-k}^(mu p^k) d_{n,n-i}^((alpha_k-mu)p^k+(alpha_0-mu)) d_{n,n-i+k}^mu
    with coefficient C(alpha_k,mu) C(alpha_0,mu); the index-n factor
    d_{n,n} = 1 is skipped.

    The stated coefficient only matches the pairing when alpha_k <=
    alpha_0 and n-i+k <= n (the extracted coefficient is C(alpha_0,mu),
    which drops the C(alpha_k,mu) factor); outside that zone the check
    honestly reports the mismatch by returning False.
    """
    p = ctx.p
    if ctx.n != n:
        raise DomainError("context width does not match n")
    if not 1 <= i < n:
        raise DomainError("need 1 <= i < n")
    if not 1 <= k <= n - i:
        raise DomainError("need 1 <= k <= n-i")
    if alpha_k < 0 or alpha_0 < 0:
        raise DomainError("negative alpha")
    m = [0] * n
    m[n - i] = alpha_k * p**k + alpha_0
    full = dual_of_dickson(tuple(m), ctx)
    if full.terms.get(chi_min(m, ctx), 0) != 1:
        return False
    mu = min(alpha_k, alpha_0)
    if mu == 0:
        return True
    m2 = [0] * n
    m2[n - i - k] += mu * p**k
    m2[n - i] += (alpha_k - mu) * p**k + (alpha_0 - mu)
    if n - i + k < n:
        m2[n - i + k] += mu
    want = binom_mod_p(alpha_k, mu, p) * binom_mod_p(alpha_0, mu, p) % p
    return full.terms.get(chi_min(m2, ctx), 0) == want
