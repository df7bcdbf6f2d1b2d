"""Operation polynomials and the classical Adem straightening engine.

An :class:`OpPoly` is a sparse mod-p linear combination of lower-notation
sequences (see :mod:`dyerlashof.sequences`).  The two workhorses here:

* :func:`adem_straighten_classical` rewrites any polynomial into the
  admissible basis by repeatedly applying the Adem relations to the
  leftmost inadmissible adjacent pair.  :func:`pair_rewrite` sums each
  relation in the excess quotient: a replacement with a negative entry
  (negative excess) is zero there and is never summed.  The heap holds
  each pending monomial once, under its bare rewrite-order key; a
  replacement that is already queued adds its coefficient to the
  pending one, so each distinct monomial is rewritten once.  A
  replacement's heap key is built from its parent's, not from its
  entries.  A sequence input is read as its one term, with no OpPoly.

* :func:`coproduct` applies the Cartan formula in lower notation, where
  the legs' entries and Bocksteins add up to the input's.  It refuses
  input whose upper entries are not integral (``upper_parity``) and
  keeps only the legs that are not zero by excess
  (``is_zero_by_excess``); the Koszul sign flips once for each pair of
  Bocksteins whose right one lies on an earlier leg.

    >>> ctx = Context(3, 2)
    >>> s = OpSeq.from_values(ctx, [3, 1])
    >>> adem_straighten_classical(s).terms
    {((0, 4), (0, 0)): 2}
"""

from __future__ import annotations

import functools
import heapq
from math import comb, prod
from operator import sub

from .arith import Combination, Context, DomainError, binom_mod_p, compositions
from .sequences import (
    OpSeq,
    check_entries,
    first_defect,
    term_order,
    upper_parity,
)

__all__ = [
    "OpPoly",
    "TensorPoly",
    "adem_straighten_classical",
    "pair_rewrite",
    "clear_rewrite_table",
    "coproduct",
    "tensor_split_leg",
]

class OpPoly(Combination):
    """Sparse mod-p combination of lower-notation sequences, keyed by
    (twice, eps) tuple pairs."""

    __slots__ = ()

    def add_term(self, key, coeff: int):
        """Add coeff * key; DomainError unless key is the (twice, eps)
        pair of a valid OpSeq."""
        check_entries(self.ctx, *key)
        Combination.add_term(self, key, coeff)

    @classmethod
    def from_seq(cls, s: OpSeq, coeff: int = 1) -> "OpPoly":
        out = cls(s.ctx)
        Combination.add_term(out, (s.twice, s.eps), coeff)
        return out

    def sorted_terms(self) -> list:
        """((twice, eps), coeff) pairs in canonical order (term_order)."""
        return sorted(self.terms.items(), key=lambda kv: term_order(*kv[0]))


# ---------------------------------------------------------------------------
# Adem straightening


# pairs the rewrite table keeps; one long straightening needs about a thousand
REWRITE_TABLE_SIZE = 2**16


@functools.lru_cache(maxsize=REWRITE_TABLE_SIZE)
def pair_rewrite(p: int, tr: int, ts: int, er: int, es: int):
    """Adem relation for one inadmissible pair in the excess quotient, in
    doubled arithmetic.

    The pair is (beta^er e_{tr/2})(beta^es e_{ts/2}) with defect
    ts - tr + er < 0.  Returns a tuple of (coeff, ta, tb, ea, eb): each
    replacement pair (beta^ea e_{ta/2})(beta^eb e_{tb/2}) is admissible,
    has coeff in 1..p-1 and entries ta, tb >= 0.  Every replacement
    raises the second entry's tail excess tb - eb above ts - es.

    These are the terms of the whole relation that the excess quotient
    keeps, in the relation's order.  With u = tb - ts the first entry is
    tr - p u (less 1 where the Bockstein moves onto it), so the sum stops
    at u = tr // p: about ts / (2p) terms of the relation's (tr - ts) / 2.
    The binomials vanish for p u < tr - ts - 1, so the range is empty
    unless ts >= 0, and then tb = ts + u >= 0.  The rewrite table, an
    LRU cache of REWRITE_TABLE_SIZE pairs, sums each distinct pair once.
    """
    d = tr - ts
    hi = tr // p + 1  # past tr / p the first entry is negative
    out = []
    # u = ti - ts is the second replacement entry's offset
    if es == 0:
        # e_r e_s = sum_i (-1)^(r-i) C((p-1)(i-s)-1, r-i-1) e_{r+ps-pi} e_i,
        # with a leading Bockstein carried along untouched.  The binomial
        # vanishes for p i < r + (p-1) s (bottom above top) and i <= s
        # (negative top); r - i must be an integer.
        lo = max(1, -(-d // p))
        lo += (d - lo) % 2
        for u in range(lo, min(d - 1, hi), 2):
            a = (p - 1) * u // 2 - 1
            b = (d - u) // 2 - 1
            c = binom_mod_p(a, b, p)
            if not c:
                continue
            if (d - u) // 2 % 2:
                c = p - c
            out.append((c, tr - p * u, ts + u, er, 0))
    else:
        # e_r (beta e_s), p odd.  Two sums: the Bockstein moves to the
        # first factor or stays on the second.  A leading Bockstein
        # kills the first sum (beta beta = 0).  Both binomials vanish
        # for p i < r - 1/2 + (p-1) s and i < s; r - 1/2 - i must be an
        # integer.  The signs (-1)^((tr + ti +- 1)/2) read ts mod 2.
        if p == 2:
            raise DomainError("p = 2 sequences cannot carry Bocksteins")
        parity = ts & 1
        lo = max(0, -(-(d - 1) // p))
        lo += 1 - (d - lo) % 2
        for u in range(lo, min(d, hi), 2):
            b = (d - 1 - u) // 2
            a1 = (p - 1) * u // 2
            if er == 0 and p * u < tr:
                c1 = binom_mod_p(a1, b, p)
                if c1:
                    if ((d + u + 1) // 2 + parity) % 2:
                        c1 = p - c1
                    out.append((c1, tr - p * u - 1, ts + u, 1, 0))
            c2 = binom_mod_p(a1 - 1, b, p)
            if c2:
                if ((d + u - 1) // 2 + parity) % 2:
                    c2 = p - c2
                out.append((c2, tr - p * u, ts + u, er, 1))
    return tuple(out)


# bound at import: tracing swaps pair_rewrite for wrappers without cache_clear
clear_rewrite_table = pair_rewrite.cache_clear


def _rewrite_order(twice, eps) -> tuple[int, ...]:
    """Heap key: the tail excesses read from the last position backwards,
    then eps.  Distinct monomials have distinct keys, and every rewrite
    strictly raises the key (see pair_rewrite), so the heap holds each
    pending monomial under one key.  adem_straighten_classical calls it
    for its input's terms only; a replacement's key is built from its
    parent's."""
    return tuple(map(sub, twice, eps))[::-1] + eps


def adem_straighten_classical(x: OpPoly | OpSeq, max_steps: int = 10**7) -> OpPoly:
    """Express x in the admissible basis via the Adem relations (rho).

    Pure term rewriting at the leftmost inadmissible pair, with the
    relations of pair_rewrite, which leave out every replacement with a
    negative entry.  A sequence is read as its one term, with no OpPoly
    built for it.  Inadmissible monomials wait in a min-heap of their
    rewrite orders (bare keys); a dict maps each queued key to its
    pending [coeff, twice, eps, pos].  A rewrite leaves the positions
    right of the pair alone and raises the tail excess of the pair's
    second entry, so it only yields monomials of higher order: every
    contribution to a monomial arrives before the monomial is popped.  A
    replacement whose key is already queued adds its coefficient to the
    pending entry and is not pushed again, so each distinct monomial is
    queued once, reduced mod p when popped and rewritten once.  A
    replacement's key is its parent's with the pair's two excess slots
    and the Bocksteins replaced.  The result equals term-by-term
    rewriting in any processing order: a monomial's rewrite (always at
    its leftmost defect) is fixed and the map is linear.  Raises
    RuntimeError past max_steps distinct rewrites.
    """
    if isinstance(x, OpPoly):
        ctx, items = x.ctx, x.terms.items()
    else:
        ctx, items = x.ctx, (((x.twice, x.eps), 1),)
    # read once per call, so a patched heapq or first_defect still counts
    push, pop, defect = heapq.heappush, heapq.heappop, first_defect
    p, n = ctx.p, ctx.n
    result = OpPoly(ctx)
    heap = []
    pending = {}  # queued key -> [coeff, twice, eps, pos]
    queued = pending.get
    for (twice, eps), coeff in items:
        pos = first_defect(twice, eps)
        if pos is None:
            Combination.add_term(result, (twice, eps), coeff)
        else:
            key = _rewrite_order(twice, eps)
            heap.append(key)
            pending[key] = [coeff, twice, eps, pos]
    heapq.heapify(heap)
    steps = 0
    while heap:
        order = pop(heap)
        coeff, twice, eps, pos = pending.pop(order)
        coeff %= p
        if not coeff:
            continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"Adem straightening exceeded {max_steps} rewrite steps"
            )
        replacements = pair_rewrite(p, twice[pos], twice[pos + 1], eps[pos], eps[pos + 1])
        if not replacements:
            continue
        head_twice, tail_twice = twice[:pos], twice[pos + 2 :]
        head_eps, tail_eps = eps[:pos], eps[pos + 2 :]
        # the key reads the excesses backwards: the pair's second entry
        # sits at k, its first at k + 1, and only they and eps change
        k = n - pos - 2
        right_key, left_key = order[:k], order[k + 2 : n]
        # pairs left of pos - 1 are untouched and admissible
        start = pos - 1 if pos else 0
        for c, ta, tb, ea, eb in replacements:
            new_twice = head_twice + (ta, tb) + tail_twice
            new_eps = head_eps + (ea, eb) + tail_eps
            new_pos = defect(new_twice, new_eps, start)
            if new_pos is None:
                Combination.add_term(result, (new_twice, new_eps), coeff * c)
                continue
            key = right_key + (tb - eb, ta - ea) + left_key + new_eps
            entry = queued(key)
            if entry is None:
                pending[key] = [coeff * c, new_twice, new_eps, new_pos]
                push(heap, key)
            else:
                entry[0] += coeff * c
    return result


# ---------------------------------------------------------------------------
# Coproduct


class TensorPoly(Combination):
    """Sparse mod-p combination of r-fold tensors of lower-notation
    sequences, keyed by tuples of ``folds`` legs, each a (twice tuple,
    eps tuple) pair.  ``folds`` is part of the kind.
    """

    __slots__ = ("folds",)

    def __init__(self, ctx: Context, folds: int):
        self.folds = folds
        super().__init__(ctx)

    def _shape(self) -> tuple:
        return (self.ctx, self.folds)


# admits e[20,20,20,20] at p = 2: 194,481 terms, about 1 s and 170 MB on 2 vCPUs
COPRODUCT_TERMS_CAP = 200_000


def _split_position(legs, c: int, t: int, e: int):
    """Yield (legs, coeff) for each way to share the doubled entry t and
    Bockstein e among legs that hold the positions right of it."""
    par = [sum(ep) % 2 for _, ep in legs]
    for u in range(len(legs)) if e else (None,):
        low = par.copy()
        if u is not None:
            low[u] = 2 - par[u]
        signed = -c if u and sum(par[:u]) % 2 else c
        for q in compositions((t - sum(low)) // 2, len(legs)):
            yield tuple(
                ((2 * qv + lv,) + tw, (int(v == u),) + ep)
                for v, (qv, lv, (tw, ep)) in enumerate(zip(q, low, legs))
            ), signed


def coproduct(x: OpPoly | OpSeq, folds: int = 2) -> TensorPoly:
    """The r-fold coproduct, by the Cartan formula in lower notation.

    Upper entries split among the legs, and s_t - j_t is half the degree
    of positions t+1..n, which is additive: so the legs' lower entries
    add up to the input's, and each Bockstein goes to one leg.  A leg is
    zero unless its upper_parity is 0 and it is not is_zero_by_excess.
    Right to left, leg v takes 2 q_v + low_v over the compositions q:
    low_v is the least 2 j_t that keeps the leg's upper_parity 0 and,
    when the leg takes the Bockstein, keeps it from being zero by
    excess.  The Koszul sign flips once for each Bockstein already on a
    leg left of the new one's.  folds = 1 wraps x in one leg.  Raises
    DomainError when some term's upper_parity is not 0 and, before
    enumerating, when a bound on the output's terms exceeds
    COPRODUCT_TERMS_CAP.
    """
    if folds < 1:
        raise DomainError(f"the coproduct needs folds >= 1, got {folds}")
    if not isinstance(x, OpPoly):
        x = OpPoly.from_seq(x)
    bound, k = 0, folds - 1
    for twice, eps in x.terms:
        if upper_parity(twice, eps) != 0:
            raise DomainError("coproduct needs integral upper entries")
        # position t shares at most t // 2 among the legs, its beta goes to one
        bound += prod(comb(t // 2 + k, k) * folds**e for t, e in zip(twice, eps))
    if bound > COPRODUCT_TERMS_CAP:
        raise DomainError(
            f"the coproduct may have {bound} terms, above the cap {COPRODUCT_TERMS_CAP}"
        )
    out = TensorPoly(x.ctx, folds)
    for (twice, eps), coeff in x.terms.items():
        acc = [((((), ()),) * folds, coeff)]
        for t, e in zip(reversed(twice), reversed(eps)):
            acc = [y for legs, c in acc for y in _split_position(legs, c, t, e)]
        for legs, c in acc:
            Combination.add_term(out, legs, c)
    return out


def tensor_split_leg(t: TensorPoly, which: int) -> TensorPoly:
    """Apply the 2-fold coproduct to one leg of a tensor.

    No extra sign: the coproduct is an even map, so 1 x ... x psi x ...
    x 1 introduces none beyond those inside the split itself.
    """
    out = TensorPoly(t.ctx, t.folds + 1)
    for legs, coeff in t.terms.items():
        split = coproduct(OpSeq(t.ctx, *legs[which]))
        for (legA, legB), c in split.terms.items():
            new_legs = legs[:which] + (legA, legB) + legs[which + 1 :]
            out.add_term(new_legs, coeff * c)
    return out
