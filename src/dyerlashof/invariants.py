"""The polynomial side: B[n] = F_p[h_1..h_n] and the Dickson algebra.

Dickson generators d_{n,0}..d_{n,n-1} expand into B[n] three independent
ways (closed subset formula, width recursion, 0/1 matrix family); all
three must agree.  On top of the expansions sit the coefficient
extraction used by the duality algorithms (a base-p digit recursion
that never expands a whole Dickson monomial; it and the full expansion
of d^m read the same bounded cache of digit products d^r, r_i < p, all
multiplied through ``kernels.poly_mul``), the diagonal pairing
<d^m, Q_chi_min(m)> that ``_chi_min_coeffs`` computes along m's base-p
digits, the chi_min / chi_max extremal-monomial maps, the
decomposition/inclusion identities, and a
concrete realization inside F_p[y_1..y_n] for checking Borel/GL
invariance by brute substitution.

    >>> ctx = Context(3, 2)
    >>> sorted(dickson_to_borel(1, ctx).terms.items())
    [((0, 1), 1), ((3, 0), 1)]
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, combinations, product, zip_longest
from operator import add, mul, sub

from . import kernels
from .arith import (
    MAX_VARS,
    PRIMES,
    Combination,
    Context,
    DomainError,
    compositions,
    multinom_mod_p,
    padic_digits,
)
from .sequences import OpSeq

__all__ = [
    "SparsePoly",
    "BPoly",
    "DPoly",
    "YPoly",
    "RowMatrixA",
    "h_monomial_degree",
    "dickson_degree",
    "dickson_monomial_degree",
    "dickson_to_borel",
    "dickson_to_borel_recursive",
    "enumerate_A",
    "matrix_to_monomial",
    "expand_dickson_monomial",
    "coeff_in_expansion",
    "coeff_by_multinomial",
    "chi_min",
    "chi_max",
    "psi_T",
    "identity_checks",
    "realize_in_y",
    "check_invariance",
    "borel_generators",
    "gl_generators",
]


class SparsePoly(Combination):
    """Sparse polynomial over F_p keyed by exponent tuples."""

    __slots__ = ()

    @classmethod
    def one(cls, ctx: Context):
        return cls(ctx, {(0,) * ctx.n: 1})

    @classmethod
    def variable(cls, k: int, ctx: Context, power: int = 1):
        """The k-th variable (1-based), raised to `power`."""
        if not 1 <= k <= ctx.n:
            raise DomainError(f"variable index must be in 1..{ctx.n}, got {k}")
        exps = tuple(power if t == k - 1 else 0 for t in range(ctx.n))
        return cls(ctx, {exps: 1})

    def add_term(self, exps, coeff: int):
        exps = tuple(exps)
        if len(exps) != self.ctx.n:
            raise DomainError(f"expected {self.ctx.n} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise DomainError("negative exponent in polynomial")
        Combination.add_term(self, exps, coeff)

    def __mul__(self, other):
        self._check_kind(other)
        out = type(self)(self.ctx)
        out.terms = kernels.poly_mul(self.terms, other.terms, self.ctx.p)
        return out

    def frobenius(self, k: int = 1):
        """Raise to the p^k power: scale all exponents (coeffs fixed)."""
        q = self.ctx.p**k
        out = type(self)(self.ctx)
        out.terms = {tuple(e * q for e in exps): c for exps, c in self.terms.items()}
        return out

    def pow(self, e: int):
        """self**e via base-p digits: Frobenius for the p^k parts, then
        at most p-1 plain multiplications per digit."""
        if e < 0:
            raise DomainError("negative power of a polynomial")
        result = type(self).one(self.ctx)
        for k, digit in enumerate(padic_digits(e, self.ctx.p)):
            if not digit:
                continue
            block = self.frobenius(k)
            for _ in range(digit):
                result = result * block
        return result

    def sorted_terms(self):
        """Terms in reverse-lex exponent order (canonical output order)."""
        return sorted(self.terms.items(), key=lambda item: item[0][::-1])


class BPoly(SparsePoly):
    """Polynomial in the Borel invariants h_1..h_n."""


class YPoly(SparsePoly):
    """Polynomial in the underlying variables y_1..y_n."""


class DPoly(SparsePoly):
    """Polynomial in the Dickson generators d_{n,0}..d_{n,n-1}, keyed by
    exponent vectors m."""


def h_monomial_degree(exps, ctx: Context) -> int:
    """Topological degree of h^exps: sum e_t |h_t|, from ctx.weights."""
    return sum(map(mul, exps, ctx.weights))


def dickson_degree(i: int, ctx: Context) -> int:
    """Topological degree of d_{n,i}: the sum of |h_t| over t > i."""
    if not 0 <= i <= ctx.n - 1:
        raise DomainError(f"Dickson index must be in 0..{ctx.n - 1}, got {i}")
    return sum(ctx.weights[i:])


def dickson_monomial_degree(m, ctx: Context) -> int:
    """Topological degree of d^m."""
    return sum(mi * dickson_degree(i, ctx) for i, mi in enumerate(m) if mi)


# ---------------------------------------------------------------------------
# Three expansion oracles for d_{n,j}


def dickson_to_borel(j: int, ctx: Context) -> BPoly:
    """Expand d_{n,j} by the closed subset formula:

    d_{n,j} = sum over 1 <= j_1 < ... < j_{n-j} <= n of
              prod_s h_{j_s}^(p^(j+s-j_s)).
    """
    p, n = ctx.p, ctx.n
    if not 0 <= j <= n - 1:
        raise DomainError(f"Dickson index must be in 0..{n - 1}, got {j}")
    out = BPoly(ctx)
    for subset in combinations(range(1, n + 1), n - j):
        exps = [0] * n
        for s, js in enumerate(subset, start=1):
            exps[js - 1] = p ** (j + s - js)
        out.add_term(tuple(exps), 1)
    return out


def dickson_to_borel_recursive(k: int, s: int, ctx: Context) -> BPoly:
    """Expand d_{k,s} (width k <= n) by d_{k,s} = d_{k-1,s-1}^p + d_{k-1,s} h_k.

    Not cached: the result is mutable, and each call builds a fresh one.
    """
    if k > ctx.n:
        raise DomainError(f"width {k} exceeds n = {ctx.n}")
    if s < 0 or s > k:
        return BPoly(ctx)
    if s == k:
        return BPoly.one(ctx)
    first = dickson_to_borel_recursive(k - 1, s - 1, ctx).frobenius()
    second = dickson_to_borel_recursive(k - 1, s, ctx) * BPoly.variable(k, ctx)
    return first + second


RowMatrixA = namedtuple("RowMatrixA", "j a")
RowMatrixA.__doc__ = """One member of the matrix family for d_{n,j}: the only
nonzero row ``a``, a tuple of 0/1 entries summing to n - j (columns
numbered from 0)."""


def enumerate_A(j: int, ctx: Context) -> list[RowMatrixA]:
    """All C(n, n-j) matrices of the family for d_{n,j}."""
    n = ctx.n
    if not 0 <= j <= n - 1:
        raise DomainError(f"Dickson index must be in 0..{n - 1}, got {j}")
    rows = []
    for support in combinations(range(n), n - j):
        a = tuple(1 if t in support else 0 for t in range(n))
        rows.append(RowMatrixA(j, a))
    return rows


def matrix_to_monomial(A: RowMatrixA, ctx: Context) -> tuple[int, ...]:
    """Exponent vector of the monomial encoded by one family matrix:
    b_t = a_t * p^(j-1-t+a_0+...+a_t), 0-based columns."""
    p = ctx.p
    exps = []
    partial = 0
    for t, at in enumerate(A.a):
        partial += at
        exps.append(p ** (A.j - 1 - t + partial) if at else 0)
    return tuple(exps)


# ---------------------------------------------------------------------------
# Dickson monomial expansion and coefficient extraction


def _check_dickson_exponents(m: tuple[int, ...], ctx: Context) -> None:
    if len(m) != ctx.n:
        raise DomainError(f"expected {ctx.n} exponents, got {len(m)}")
    if any(mi < 0 for mi in m):
        raise DomainError("negative Dickson exponent")


DIGIT_CACHE_SIZE = 1024
"""How many digit products d^r (0 <= r_i < p), over all contexts,
``_digit_product`` keeps (and each reader keeps grouped)."""


@lru_cache(maxsize=DIGIT_CACHE_SIZE)
def _digit_product(r: tuple[int, ...], ctx: Context) -> dict:
    """The terms of d^r for a digit vector r, in canonical order.  Built
    as d^(r - e_k) d_{n,k}, with k the last nonzero digit, on top of the
    cached smaller product."""
    k = next((i for i in range(len(r) - 1, -1, -1) if r[i]), None)
    if k is None:
        return BPoly.one(ctx).terms
    smaller = r[:k] + (r[k] - 1,) + r[k + 1 :]
    return kernels.poly_mul(
        _digit_product(smaller, ctx), dickson_to_borel(k, ctx).terms, ctx.p
    )


COEFF_MEMO_SIZE = 2**16
"""How many reads (m, J), and as many splits of m, each context's reader
keeps; read when a reader is built."""

EXPANSION_CACHE_SIZE = 128
"""How many Dickson monomial expansions ``_expansion_terms`` keeps."""

EXPAND_PAIRS_CAP = 200_000
"""The most term pairs one base-p level of ``_expansion_terms`` may
multiply; the pair count bounds the size of that level's product."""


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def _expansion_terms(m: tuple[int, ...], ctx: Context) -> dict:
    """d^m by the Frobenius identity d^m = (d^(m // p))^p d^(m % p), one
    base-p level of m at a time from the top: the product so far is
    twisted (its exponent tuples times p), then multiplied by the next
    level's digit product.  The terms come out in canonical order.

    Raises DomainError before a level's product when it would multiply
    more than EXPAND_PAIRS_CAP pairs of terms."""
    _check_dickson_exponents(m, ctx)
    p = ctx.p
    levels = list(zip_longest(*(padic_digits(mi, p) for mi in m), fillvalue=0))
    terms = _digit_product(levels.pop() if levels else m, ctx)
    for r in reversed(levels):
        digits = _digit_product(r, ctx)
        pairs = len(terms) * len(digits)
        if pairs > EXPAND_PAIRS_CAP:
            raise DomainError(
                f"expanding d^{m} would multiply {pairs} term pairs at one "
                f"level, above the cap {EXPAND_PAIRS_CAP}"
            )
        twisted = {tuple([e * p for e in s]): c for s, c in terms.items()}
        terms = kernels.poly_mul(twisted, digits, p)
    return terms


def expand_dickson_monomial(m, ctx: Context) -> BPoly:
    """Expand d^m = prod d_{n,i}^(m_i) in B[n].

    The terms are cached, in canonical order, for the last
    EXPANSION_CACHE_SIZE monomials (``cache_info`` / ``cache_clear``
    reach that cache); every call returns a fresh BPoly over a copy of
    them, so a caller may modify the result.  Raises DomainError when a
    base-p level of m would multiply more than EXPAND_PAIRS_CAP pairs of
    terms.
    """
    out = BPoly(ctx)
    out.terms = dict(_expansion_terms(tuple(m), ctx))
    return out


expand_dickson_monomial.cache_info = _expansion_terms.cache_info
expand_dickson_monomial.cache_clear = _expansion_terms.cache_clear


@lru_cache(maxsize=len(PRIMES) * MAX_VARS)  # one reader per context
def coeff_memo(ctx: Context):
    """The reader of ctx: ``coeff_memo(ctx)(m, J)`` is [h^J] d^m by the
    digit recursion of coeff_in_expansion, which checks m and J first.
    The reader, its ``split`` (m // p with the grouped terms of
    d^(m % p)) and its ``diagonal`` (the chain of _chi_min_coeffs, keyed
    on m alone) are ``lru_cache`` functions of COEFF_MEMO_SIZE entries
    each, so its ``cache_info`` counts the memoised reads, and its
    ``__wrapped__`` reads one (m, J) unstored, memoising only the reads
    below the top digit level (``cache_clear`` here drops every reader,
    with its split and chain).  The digit products they read come from
    the bounded ``_digit_product`` cache that the expansion shares."""
    p = ctx.p

    @lru_cache(maxsize=DIGIT_CACHE_SIZE)
    def groups(r: tuple[int, ...]) -> tuple[dict, int, tuple]:
        """The terms of d^r grouped by s mod p, a step expansions skip,
        and the chain's link at r: the coefficient of h^chi_min(r) and,
        as ((chi_min(r) - s) / p, c), the other terms c h^s of its
        class mod p."""
        out: dict = {}
        for s, c in _digit_product(r, ctx).items():
            out.setdefault(tuple([si % p for si in s]), []).append((s, c))
        low = tuple(accumulate(r))
        link, others = 0, []
        for s, c in out.get(tuple([li % p for li in low]), ()):
            if s == low:
                link = c
            else:
                others.append((tuple([(li - si) // p for li, si in zip(low, s)]), c))
        return out, link, tuple(others)

    @lru_cache(maxsize=COEFF_MEMO_SIZE)
    def split(m: tuple[int, ...]) -> tuple[tuple[int, ...], tuple]:
        """m // p, and the grouped terms and link of d^(m % p)."""
        return tuple([mi // p for mi in m]), groups(tuple([mi % p for mi in m]))

    @lru_cache(maxsize=COEFF_MEMO_SIZE)
    def coeff(m: tuple[int, ...], J: tuple[int, ...]) -> int:
        if not any(m):
            return 0 if any(J) else 1
        high, (grouped, _, _) = split(m)
        total = 0
        for s, c in grouped.get(tuple([j % p for j in J]), ()):
            rest = tuple(map(sub, J, s))
            if min(rest) >= 0:
                total += c * coeff(high, tuple([r // p for r in rest]))
        return total % p

    @lru_cache(maxsize=COEFF_MEMO_SIZE)
    def diagonal(m: tuple[int, ...]) -> int:
        if not any(m):
            return 1
        high, (_, link, others) = split(m)
        total = link * diagonal(high)
        if others:
            base = tuple(accumulate(high))  # chi_min(m // p)
            for delta, c in others:
                J = tuple(map(add, base, delta))
                if min(J) >= 0:
                    total += c * coeff(high, J)
        return total % p

    coeff.split = split
    coeff.diagonal = diagonal
    return coeff


def coeff_in_expansion(m, J, ctx: Context) -> int:
    """Coefficient of h^J in d^m, through the base-p digits of m.

    Over F_p the Frobenius identity gives d^m = (d^(m // p))^p d^(m % p)
    (componentwise quotient and remainder), so

        [h^J] d^m = sum over terms c h^s of d^(m % p) of
                    c [h^((J - s) / p)] d^(m // p),

    summed over the s with J - s >= 0 and divisible by p in every
    coordinate.  The recursion is log_p(max m) deep and each step scans
    one cached product of generators with exponents below p; no full
    expansion of d^m is built.  Results are memoised in the context's
    reader (coeff_memo), keyed on (m, J), which keeps the last
    COEFF_MEMO_SIZE of them.
    """
    m, J = tuple(m), tuple(J)
    _check_dickson_exponents(m, ctx)
    if len(J) != ctx.n or any(j < 0 for j in J):
        return 0
    return coeff_memo(ctx)(m, J)


def _chi_min_coeffs(ms, ctx: Context) -> list[int]:
    """The coefficient of h^chi_min(m) in d^m, the diagonal pairing
    <d^m, Q_chi_min(m)>, for each exponent vector m of ms (rows of a
    degree, which it does not check), along the chain of m's base-p
    digits.

    chi_min takes m to its partial sums, so with m = p m' + r (r = m % p)
    it splits as chi_min(m) = p chi_min(m') + chi_min(r), and the digit
    recursion of coeff_in_expansion becomes

        [h^chi_min(m)] d^m = sum over terms c h^s of d^r with
                             s = chi_min(r) (mod p) of
                             c [h^(chi_min(m') + (chi_min(r) - s) / p)] d^m'.

    The term s = chi_min(r) is the next link, [h^chi_min(m')] d^m',
    memoised on m' alone in the reader's ``diagonal``; any other term of
    the class is read through the reader.  Every link is computed
    exactly: nothing assumes the answer is 1.
    """
    return list(map(coeff_memo(ctx).diagonal, ms))


def coeff_by_multinomial(m, J, ctx: Context) -> int:
    """Coefficient of h^J in d^m by the digit/multinomial formula.

    Write each m_j in base p.  A p^alpha-th power of d_{n,j} is the
    Frobenius twist of the expansion, so its mu-th power distributes mu
    slots over the family monomials with a multinomial coefficient.
    Sum multinomial products over all slot assignments whose exponent
    vectors add up to J.  Like coeff_in_expansion, it refuses a bad m
    and reads 0 for a J of the wrong length or with a negative entry.
    """
    p = ctx.p
    m, J = tuple(m), tuple(J)
    _check_dickson_exponents(m, ctx)
    if len(J) != ctx.n or any(j < 0 for j in J):
        return 0
    vecs = [
        [matrix_to_monomial(A, ctx) for A in enumerate_A(j, ctx)]
        for j in range(ctx.n)
    ]
    items = []
    for j, mj in enumerate(m):
        for alpha, digit in enumerate(padic_digits(mj, p)):
            if digit:
                items.append((j, alpha, digit))

    def walk(idx: int, remaining: tuple[int, ...]) -> int:
        if idx == len(items):
            return 1 if not any(remaining) else 0
        j, alpha, digit = items[idx]
        q = p**alpha
        total = 0
        for pi in compositions(digit, len(vecs[j])):
            contrib = [0] * ctx.n
            for slots, vec in zip(pi, vecs[j]):
                if slots:
                    for t, e in enumerate(vec):
                        contrib[t] += slots * q * e
            nxt = tuple(r - c for r, c in zip(remaining, contrib))
            if any(x < 0 for x in nxt):
                continue
            sub = walk(idx + 1, nxt)
            if sub:
                total += multinom_mod_p(pi, p) * sub
        return total % p

    return walk(0, J)


# ---------------------------------------------------------------------------
# chi_min / chi_max and the Psi identifications


def chi_min(m, ctx: Context) -> OpSeq:
    """The lex-least support monomial of d^m, as an eps = 0 sequence:
    entry t is m_0 + ... + m_(t-1)."""
    _check_dickson_exponents(m, ctx)
    return psi_T(tuple(accumulate(m)), ctx)


def chi_max(m, ctx: Context) -> OpSeq:
    """The lex-greatest support monomial of d^m: entry t is
    sum_{i <= n-t} m_i p^i."""
    _check_dickson_exponents(m, ctx)
    p, n = ctx.p, ctx.n
    return psi_T([sum(m[i] * p**i for i in range(n - t)) for t in range(n)], ctx)


def psi_T(J, ctx: Context) -> OpSeq:
    """Psi_T(h^J) = e_J: identify an exponent vector with a sequence."""
    return OpSeq(ctx, tuple(2 * e for e in J), (0,) * ctx.n)


# ---------------------------------------------------------------------------
# Identity checks


def identity_checks(
    kind: str, params: tuple[int, ...], ctx: Context
) -> tuple[bool, str]:
    """Check one of the Dickson-generator identities at given indices.

    Returns (ok, why), where why names an offending monomial when ok
    is False and is empty otherwise.

    kind "decomposition", params (k, s), 0 <= s < k < n:
        d_{k,s} d_{k+1,k} - d_{k+1,s}
          = sum_{t=0}^{s-1} d_{k-t-1,s-t}^(p^t) *
              (d_{k-t-1,k-t-2}^(p^(t+2)) h_{k-t}^(p^t) + h_{k-t}^(p^t(p+1)))
            + d_{k-s,0}^(p^s) d_{k-s,k-s-1}^(p^(s+1))
        as an exact polynomial identity.

    kind "inclusion", params (k, t, s), 0 <= s < k, t >= 1, k+t <= n:
        every monomial of d_{k+t,s} occurs in d_{k,s} d_{k+t,k}, and no
        monomial of their difference is divisible by h_{k+1}...h_{k+t}.

    kind "exchange", params (k, t, s, q), additionally 0 <= q < t:
        every monomial of d_{k+q,k} d_{k+t,s} occurs in
        d_{k+q,s} d_{k+t,k}, and no monomial of the difference is
        divisible by h_{k+q+1}...h_{k+t}.
    """

    def d(width, s):
        return dickson_to_borel_recursive(width, s, ctx)

    p = ctx.p
    if kind == "decomposition":
        k, s = params
        if not 0 <= s < k:
            raise DomainError("decomposition identity needs 0 <= s < k")
        if k + 1 > ctx.n:
            raise DomainError("decomposition identity needs n >= k+1")
        lhs = d(k, s) * d(k + 1, k) - d(k + 1, s)
        rhs = BPoly(ctx)
        for t in range(s):
            head = d(k - t - 1, s - t).pow(p**t)
            inner = d(k - t - 1, k - t - 2).pow(p ** (t + 2)) * BPoly.variable(
                k - t, ctx, p**t
            ) + BPoly.variable(k - t, ctx, p**t * (p + 1))
            rhs = rhs + head * inner
        rhs = rhs + d(k - s, 0).pow(p**s) * d(k - s, k - s - 1).pow(p ** (s + 1))
        diff = lhs - rhs
        if diff.is_zero():
            return True, ""
        exps = next(iter(diff.terms))
        return False, f"difference has monomial {exps}"

    if kind == "inclusion":
        k, t, s = params
        if not (0 <= s < k and t >= 1):
            raise DomainError("inclusion identity needs 0 <= s < k and t >= 1")
        if k + t > ctx.n:
            raise DomainError("inclusion identity needs n >= k+t")
        small = d(k + t, s)
        big = d(k, s) * d(k + t, k)
        lo, hi = k, k + t  # 0-based positions of h_{k+1}..h_{k+t}
    elif kind == "exchange":
        k, t, s, q = params
        if not (0 <= s < k and 0 <= q < t):
            raise DomainError("exchange identity needs 0 <= s < k and 0 <= q < t")
        if k + t > ctx.n:
            raise DomainError("exchange identity needs n >= k+t")
        small = d(k + q, k) * d(k + t, s)
        big = d(k + q, s) * d(k + t, k)
        lo, hi = k + q, k + t
    else:
        raise DomainError(f"unknown identity kind {kind!r}")

    for exps in small.terms:
        if exps not in big.terms:
            return False, f"monomial {exps} missing from the product"
    diff = big - small
    for exps in diff.terms:
        if all(exps[i] >= 1 for i in range(lo, hi)):
            return False, f"difference monomial {exps} divisible by the h-block"
    return True, ""


# ---------------------------------------------------------------------------
# Realization in y-variables and invariance checking


def _guard_realize(ctx: Context):
    if ctx.n > 3 or (ctx.n == 3 and ctx.p > 3):
        raise DomainError("realization limited to n <= 3 (p <= 3 when n = 3)")


@lru_cache(maxsize=18)  # the (k, ctx) pairs that _guard_realize admits
def _h_realized(k: int, ctx: Context) -> tuple:
    """The terms of h_k as a y-polynomial, frozen so the cache can share
    them: the span-orbit product raised to p-1.

    h_k = (prod over u in the F_p-span of y_1..y_{k-1} of (y_k - u))^(p-1)
    with the exponent dropping to 1 at p = 2.
    """
    _guard_realize(ctx)
    p = ctx.p
    out = YPoly.one(ctx)
    for coeffs in product(range(p), repeat=k - 1):
        out = out * _linear_form([-c for c in coeffs] + [1], ctx)
    return tuple(out.pow(p - 1).terms.items())


def _linear_form(coeffs, ctx: Context) -> YPoly:
    """sum_b coeffs[b] y_(b+1)."""
    return YPoly(
        ctx, {tuple(int(t == b) for t in range(ctx.n)): c for b, c in enumerate(coeffs)}
    )


def _evaluate(x: SparsePoly, images) -> YPoly:
    """x with its k-th variable replaced by the y-polynomial images[k]."""
    out = YPoly(x.ctx)
    for exps, coeff in x.terms.items():
        mono = YPoly.one(x.ctx)
        for image, e in zip(images, exps):
            if e:
                mono = mono * image.pow(e)
        out = out + mono.scaled(coeff)
    return out


def realize_in_y(x: BPoly) -> YPoly:
    """Realize a BPoly in the y-variables (small n only)."""
    ctx = x.ctx
    _guard_realize(ctx)
    images = [YPoly(ctx, dict(_h_realized(k, ctx))) for k in range(1, ctx.n + 1)]
    return _evaluate(x, images)


def _substitute(x: YPoly, mat) -> YPoly:
    """Apply the linear substitution y_a -> sum_b mat[a][b] y_b."""
    return _evaluate(x, [_linear_form(row, x.ctx) for row in mat])


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        val = 1
        for _ in range(p - 1):
            val = val * g % p
            seen.add(val)
        if len(seen) == p - 1:
            return g
    return 1


def _identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def borel_generators(ctx: Context) -> list:
    """Lower-unitriangular transvections y_a -> y_a + y_b (b < a) and,
    for odd p, one diagonal scaling per variable by a primitive root."""
    n, p = ctx.n, ctx.p
    gens = []
    for a in range(1, n):
        for b in range(a):
            mat = _identity_matrix(n)
            mat[a][b] = 1
            gens.append(mat)
    if p > 2:
        g = _primitive_root(p)
        for a in range(n):
            mat = _identity_matrix(n)
            mat[a][a] = g
            gens.append(mat)
    return gens


def gl_generators(ctx: Context) -> list:
    """Borel generators plus the adjacent transpositions.  One swap
    suffices at n = 2; from n = 3 on a single swap only generates a
    parabolic, so all n-1 adjacent swaps are included."""
    gens = borel_generators(ctx)
    for a in range(ctx.n - 1):
        mat = _identity_matrix(ctx.n)
        mat[a][a] = mat[a + 1][a + 1] = 0
        mat[a][a + 1] = mat[a + 1][a] = 1
        gens.append(mat)
    return gens


def check_invariance(x: YPoly, group: str) -> bool:
    """True when x is fixed by every generator of the chosen group."""
    if group == "borel":
        gens = borel_generators(x.ctx)
    elif group == "gl":
        gens = gl_generators(x.ctx)
    else:
        raise DomainError(f"unknown group {group!r} (use 'borel' or 'gl')")
    return all(_substitute(x, mat) == x for mat in gens)
