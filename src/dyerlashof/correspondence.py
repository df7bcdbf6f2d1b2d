"""Duality between Dickson monomials and admissible operations.

The Kronecker pairing <d^m, Q_J> is coefficient extraction: the
coefficient of h^J in the Borel expansion of d^m, read through the
base-p digit recursion of coeff_in_expansion.  Per degree the pairing
matrix is unitriangular for the excess-lex order with chi_min on the
diagonal.  That gives the dual-basis algorithm, its inversion by forward
substitution, and the straightening map rho(e_I) by back-substitution
over the K <= I.  Both substitutions read only the entries they need;
no matrix is built.  The unit diagonal is checked once per degree,
along the chain of ``invariants._chi_min_coeffs``.

A degree's record is two tuples of exponent rows, the Dickson monomials
and the halved admissible basis, from one cached bounded search that
steps each entry by residue class; its output and order are those of a
search over every value.

    >>> ctx = Context(2, 2)
    >>> [s.twice for s in admissible_basis(6, ctx)]
    [(0, 6), (4, 4)]
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .arith import Combination, Context, DomainError, InvariantError
from .invariants import (
    DPoly,
    _check_dickson_exponents,
    _chi_min_coeffs,
    coeff_in_expansion,
    coeff_memo,
    dickson_degree,
    dickson_monomial_degree,
    psi_T,
)
from .opalgebra import OpPoly
from .sequences import (
    OpSeq,
    degree_lower,
    integral_lower_need,
    is_admissible,
    term_order,
)

__all__ = [
    "DualExpansion",
    "solve_degree_diophantine",
    "admissible_basis",
    "kronecker_pair",
    "dual_of_dickson",
    "dickson_of_dual",
    "adem_via_invariants",
]


class DualExpansion(Combination):
    """A finite sum of dual-basis elements c_J (Q_J)^*, keyed by the
    admissible OpSeq J."""

    __slots__ = ()

    def add_term(self, seq: OpSeq, coeff: int):
        if seq.ctx != self.ctx:
            raise DomainError("dual expansion term from another context")
        if not is_admissible(seq):
            raise DomainError("dual expansions are indexed by admissibles")
        Combination.add_term(self, seq, coeff)

    def sorted_terms(self) -> list:
        """(J, coeff) pairs in canonical order (term_order)."""
        return sorted(
            self.terms.items(), key=lambda kv: term_order(kv[0].twice, kv[0].eps)
        )


ENUMERATION_CACHE_SIZE = 256
"""How many degrees each enumeration, and the per-degree record, keeps."""


@lru_cache(maxsize=2 * ENUMERATION_CACHE_SIZE)
def _solutions(weights, D: int, increasing: bool) -> tuple[tuple[int, ...], ...]:
    """All v >= 0 with sum v_t weights[t] = D, weakly increasing ones only
    if asked, in lex order, by bounded search.  The cache holds both
    enumerations: it is keyed on the weights, not on a context.

    The search steps by residue class: entry t runs only over the one
    class mod gcd(weights[t+1:]) / gcd(weights[t:]) that leaves the rest a
    remainder divisible by gcd(weights[t+1:]).  So no branch dies at the
    last entry, a degree gcd(weights) does not divide is not searched,
    and the output and its order are those of a search over every value."""
    if D < 0:
        raise DomainError("degree must be nonnegative")
    last = len(weights) - 1
    # the loop bound leaves room for the entries still to come
    bounds = [sum(weights[t:]) if increasing else weights[t] for t in range(last)]
    # gcds[t] = gcd(weights[t:]) divides every remainder entry t sees
    gcds = list(accumulate(reversed(weights), gcd))[::-1]
    if D % gcds[0]:
        return ()
    steps = [gcds[t + 1] // gcds[t] for t in range(last)]
    # entry t's class: v * (w_t / gcds[t]) = rem / gcds[t] (mod steps[t])
    invs = [pow(weights[t] // gcds[t], -1, steps[t]) for t in range(last)]
    out: list[tuple[int, ...]] = []

    def rec(t: int, lo: int, rem: int, acc: tuple[int, ...]):
        if t == last:
            # the last entry is forced, and divides exactly
            v = rem // weights[t]
            if v >= lo:
                out.append(acc + (v,))
            return
        step = steps[t]
        start = lo + (rem // gcds[t] * invs[t] - lo) % step
        for v in range(start, rem // bounds[t] + 1, step):
            rec(t + 1, v if increasing else 0, rem - v * weights[t], acc + (v,))

    rec(0, 0, D, ())
    return tuple(out)


def solve_degree_diophantine(D: int, ctx: Context) -> list[tuple[int, ...]]:
    """All m with sum m_i deg(d_{n,i}) = D, ascending, as a fresh list."""
    return list(_degree_monomials(D, ctx))


def _degree_monomials(D: int, ctx: Context) -> tuple[tuple[int, ...], ...]:
    return _solutions(tuple(dickson_degree(i, ctx) for i in range(ctx.n)), D, False)


def admissible_basis(D: int, ctx: Context) -> list[OpSeq]:
    """All weakly increasing nonnegative integral eps = 0 sequences of
    lower degree D, ascending by OpSeq.key.

    Enumerated directly (not through the Dickson side) so that the
    bijection with solve_degree_diophantine stays a real check; every
    call returns fresh sequences.
    """
    return [psi_T(k, ctx) for k in _degree_basis(D, ctx)]


def _degree_basis(D: int, ctx: Context) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors (entries halved) of admissible_basis(D, ctx)."""
    return _solutions(ctx.weights, D, True)


def kronecker_pair(m, J: OpSeq) -> int:
    """<d^m, Q_J>, in J's context: the coefficient of h^J in d^m."""
    ctx = J.ctx
    _check_dickson_exponents(m, ctx)
    need = integral_lower_need(J)
    if need == "eps = 0":
        raise DomainError("the pairing is implemented for eps = 0 only")
    if need:  # a half entry: no Dickson monomial has h^J
        return 0
    if dickson_monomial_degree(m, ctx) != degree_lower(J):
        return 0
    return coeff_in_expansion(m, _exps(J), ctx)


def _exps(s: OpSeq) -> tuple[int, ...]:
    return tuple(t // 2 for t in s.twice)


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def _degree_data(D: int, ctx: Context):
    """Per-degree duality data, one row per admissible sequence K of
    lower degree D, in the order both enumerations emit: the Dickson
    monomials m(K) with chi_min(d^m(K)) = K and the exponents of K, the
    columns.  chi_min takes m to its partial sums, which turns the lex
    order of the monomials into the order of the basis.

    Checks once per degree that chi_min maps the monomials onto the
    basis row by row, that the columns strictly ascend (the solves
    bisect them, and the monomials with them) and that every diagonal
    entry <d^m(K), Q_K>, computed exactly by _chi_min_coeffs, is 1; the
    solves then rely on it without reading it again.
    """
    ms = _degree_monomials(D, ctx)
    cols = _degree_basis(D, ctx)
    if [tuple(accumulate(m)) for m in ms] != list(cols):
        raise InvariantError("chi_min is not a bijection onto the admissible basis")
    if any(a >= b for a, b in zip(cols, cols[1:])):
        raise InvariantError("the admissible basis is not strictly ascending")
    for m, col, c in zip(ms, cols, _chi_min_coeffs(ms, ctx)):
        if c != 1:
            raise InvariantError(
                "pairing matrix is not unitriangular: "
                f"<d^{m}, Q_{psi_T(col, ctx).twice}> = {c}"
            )
    return ms, cols


def dual_of_dickson(m, ctx: Context) -> DualExpansion:
    """Expand (the dual of) d^m in the dual basis: sum over admissible J
    of <d^m, Q_J> (Q_J)^*.

    Reads every pairing of the degree's rows from the coefficient memo,
    and checks that those below chi_min(d^m) vanish and that the one at
    chi_min(d^m) is 1.
    """
    m = tuple(m)
    _check_dickson_exponents(m, ctx)
    ms, cols = _degree_data(dickson_monomial_degree(m, ctx), ctx)
    coeff = coeff_memo(ctx)
    at_lead = bisect_left(ms, m)
    out = DualExpansion(ctx)
    for i, col in enumerate(cols):
        c = coeff(m, col)
        if i < at_lead and c:
            raise InvariantError(
                f"pairing <d^{m}, Q_{psi_T(col, ctx).twice}> "
                f"below chi_min is {c}, not 0"
            )
        if i == at_lead and c != 1:
            raise InvariantError(f"chi_min coefficient of d^{m} is {c}, not 1")
        if c:
            out.add_term(psi_T(col, ctx), c)
    return out


def dickson_of_dual(J: OpSeq) -> DPoly:
    """The Dickson combination dual to (Q_J)^*, a polynomial in
    d_{n,0}..d_{n,n-1}.

    With K_1 < ... < K_r the admissible basis of the degree and
    c_ij = <d^m(K_i), Q_(K_j)> (unitriangular), the combination
    sum_i x_i d^m(K_i) solves sum_(i <= j) x_i c_ij = delta(j, target).
    Forward substitution gives x_i = 0 below the target; from the target
    upwards each c_ij is read only for the i with x_i != 0.
    """
    ctx = J.ctx
    if integral_lower_need(J):
        raise DomainError("dickson_of_dual needs an integral eps = 0 sequence")
    if not is_admissible(J):
        raise DomainError("dickson_of_dual needs an admissible sequence")
    ms, cols = _degree_data(degree_lower(J), ctx)
    coeff = coeff_memo(ctx)
    exps = _exps(J)
    target = bisect_left(cols, exps)
    if target == len(cols) or cols[target] != exps:
        raise DomainError("sequence not in the admissible basis of its degree")
    p = ctx.p
    x: dict[int, int] = {}
    for j in range(target, len(cols)):
        col = cols[j]
        acc = 1 if j == target else 0
        for i, xi in x.items():
            acc -= xi * coeff(ms[i], col)
        acc %= p
        if acc:
            x[j] = acc
    return DPoly(ctx, {ms[j]: xj for j, xj in x.items()})


def adem_via_invariants(x: OpSeq) -> OpPoly:
    """Straighten rho(e_I) through the invariant-theoretic pairing.

    With K_1 < ... < K_r the admissible basis of degree |I|, rho(e_I) =
    sum_j a_j Q_(K_j) solves sum_j c_ij a_j = b_i, where
    c_ij = <d^m(K_i), Q_(K_j)> and b_i = coeff of h^I in d^m(K_i).  The
    matrix is unitriangular (c_ii = 1, c_ij = 0 for j < i), and b_i = 0
    for K_i > I because chi_min = K_i is the least monomial of d^m(K_i);
    so a_i = 0 there too.  Back-substitution runs over the K_i <= I only
    and reads c_ij only for the j with a_j != 0.

    An admissible I = K_top is its own answer once the degree's record
    is checked: b_top = c_top,top = 1, and every later b_i = c_i,top
    cancels.  Otherwise the c_ij, which recur across straightenings of a
    degree, are read from the context's memo, and each b_i is read once
    through the reader's own unmemoised call, so only its reads at the
    lower digits are stored.
    """
    ctx = x.ctx
    need = integral_lower_need(x)
    if need:
        raise DomainError(f"invariant-theoretic straightening needs {need}")
    ms, cols = _degree_data(degree_lower(x), ctx)
    exps = _exps(x)
    top = bisect_right(cols, exps) - 1
    if top >= 0 and cols[top] == exps:
        return OpPoly.from_seq(x)
    coeff = coeff_memo(ctx)
    p = ctx.p
    a: dict[int, int] = {}
    for i in range(top, -1, -1):
        m = ms[i]
        acc = coeff.__wrapped__(m, exps)
        for j, aj in a.items():
            acc -= aj * coeff(m, cols[j])
        acc %= p
        if acc:
            a[i] = acc
    out = OpPoly(ctx)
    for i in sorted(a):
        Combination.add_term(out, (tuple(2 * v for v in cols[i]), (0,) * ctx.n), a[i])
    return out
