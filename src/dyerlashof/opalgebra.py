"""Operation polynomials and the classical Adem straightening engine.

An :class:`OpPoly` is a sparse mod-p linear combination of lower-notation
sequences (see :mod:`dyerlashof.sequences`).  The two workhorses here:

* :func:`adem_straighten_classical` rewrites any polynomial into the
  admissible basis by repeatedly applying the Adem relations to the
  leftmost inadmissible adjacent pair.  Terms acquiring a negative
  entry (negative excess) are dropped on sight.  Pending monomials sit
  in a heap in rewrite order, so like terms merge before they are
  rewritten and each distinct monomial is rewritten once.

* :func:`coproduct` computes the componentwise coproduct in upper
  notation, with Koszul signs; legs are kept in upper notation (always
  valid there) and :meth:`TensorPoly.to_lower` converts them back,
  dropping legs that die in the excess quotient.

    >>> ctx = Context(3, 2)
    >>> s = OpSeq.from_values(ctx, [3, 1])
    >>> adem_straighten_classical(OpPoly.from_seq(s)).terms
    {((0, 4), (0, 0)): 2}
"""

from __future__ import annotations

import heapq
from operator import sub

from .arith import Combination, Context, DomainError, binom_mod_p
from .sequences import OpSeq, UpperSeq, first_defect, lower_to_upper, upper_to_lower
from .sequences import term_order

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

    @classmethod
    def from_seq(cls, s: OpSeq, coeff: int = 1) -> "OpPoly":
        return cls(s.ctx, {(s.twice, s.eps): coeff})

    def sorted_terms(self) -> list:
        """((twice, eps), coeff) pairs in canonical order (term_order)."""
        return sorted(self.terms.items(), key=lambda kv: term_order(*kv[0]))


# ---------------------------------------------------------------------------
# Adem straightening


# (p, tr - ts, ts parity when es, er, es) -> replacement offsets
_REWRITE_TABLE: dict[tuple, tuple] = {}


def clear_rewrite_table():
    """Empty the rewrite table, the only cache of the classical engine."""
    _REWRITE_TABLE.clear()


def pair_rewrite(p: int, tr: int, ts: int, er: int, es: int):
    """Adem relation for one inadmissible pair, in doubled arithmetic.

    The pair is (beta^er e_{tr/2})(beta^es e_{ts/2}) with defect
    ts - tr + er < 0.  Returns a tuple of (coeff, ta - ts, tb - ts, ea,
    eb): each replacement pair (beta^ea e_{ta/2})(beta^eb e_{tb/2}) is
    admissible, has coeff in 1..p-1 and is given by its entries' offsets
    from ts; callers add ts back.  Entries may come out negative
    (callers filter through the excess quotient).  Every replacement
    raises the second entry's tail excess tb - eb above ts - es.

    With the entries measured from ts, every binomial argument, the
    summation bounds and the eps = 0 sign depend on (tr, ts) only
    through d = tr - ts; the signs of the Bockstein branch also depend
    on ts mod 2.  So the table is keyed by (p, d, ts mod 2 if es else 0,
    er, es), and each distinct relation is summed once.
    """
    d = tr - ts
    parity = ts & 1 if es else 0
    key = (p, d, parity, er, es)
    cached = _REWRITE_TABLE.get(key)
    if cached is not None:
        return cached
    out = []
    # u = ti - ts is the second replacement entry's offset
    if es == 0:
        # e_r e_s = sum_i (-1)^(r-i) C((p-1)(i-s)-1, r-i-1) e_{r+ps-pi} e_i,
        # with a leading Bockstein carried along untouched.  The binomial
        # vanishes for p i < r + (p-1) s (bottom above top) and i <= s
        # (negative top); r - i must be an integer.
        lo = max(1, -(-d // p))
        lo += (d - lo) % 2
        for u in range(lo, d - 1, 2):
            a = (p - 1) * u // 2 - 1
            b = (d - u) // 2 - 1
            c = binom_mod_p(a, b, p)
            if not c:
                continue
            if (d - u) // 2 % 2:
                c = p - c
            out.append((c, d - p * u, u, er, 0))
    else:
        # e_r (beta e_s), p odd.  Two sums: the Bockstein moves to the
        # first factor or stays on the second.  A leading Bockstein
        # kills the first sum (beta beta = 0).  Both binomials vanish
        # for p i < r - 1/2 + (p-1) s and i < s; r - 1/2 - i must be an
        # integer.  The signs (-1)^((tr + ti +- 1)/2) read ts mod 2.
        if p == 2:
            raise DomainError("p = 2 sequences cannot carry Bocksteins")
        lo = max(0, -(-(d - 1) // p))
        lo += 1 - (d - lo) % 2
        for u in range(lo, d, 2):
            b = (d - 1 - u) // 2
            a1 = (p - 1) * u // 2
            if er == 0:
                c1 = binom_mod_p(a1, b, p)
                if c1:
                    if ((d + u + 1) // 2 + parity) % 2:
                        c1 = p - c1
                    out.append((c1, d - p * u - 1, u, 1, 0))
            c2 = binom_mod_p(a1 - 1, b, p)
            if c2:
                if ((d + u - 1) // 2 + parity) % 2:
                    c2 = p - c2
                out.append((c2, d - p * u, u, er, 1))
    result = tuple(out)
    _REWRITE_TABLE[key] = result
    return result


def _rewrite_order(twice, eps) -> tuple[int, ...]:
    """Heap key: the tail excesses read from the last position backwards,
    then eps.  Distinct monomials have distinct keys, and every rewrite
    strictly raises the key (see pair_rewrite)."""
    return tuple(map(sub, twice, eps))[::-1] + eps


def adem_straighten_classical(x: OpPoly | OpSeq, max_steps: int = 10**7) -> OpPoly:
    """Express x in the admissible basis via the Adem relations (rho).

    Pure term rewriting at the leftmost inadmissible pair; terms
    acquiring a negative entry are discarded.  Inadmissible monomials
    wait in a min-heap on their rewrite order.  A rewrite leaves the
    positions right of the pair alone and raises the tail excess of the
    pair's second entry, so it only yields monomials of higher order:
    every contribution to a monomial is queued before the monomial is
    popped.  Equal keys are summed on pop and each distinct monomial is
    rewritten once.  The result equals term-by-term rewriting in any
    processing order: a monomial's rewrite (always at its leftmost
    defect) is fixed and the map is linear.  Raises RuntimeError past
    max_steps distinct rewrites.
    """
    if isinstance(x, OpSeq):
        x = OpPoly.from_seq(x)
    p = x.ctx.p
    result = OpPoly(x.ctx)
    heap = []
    for (twice, eps), coeff in x.terms.items():
        pos = first_defect(twice, eps)
        if pos is None:
            result.add_term((twice, eps), coeff)
        else:
            heap.append((_rewrite_order(twice, eps), coeff, twice, eps, pos))
    heapq.heapify(heap)
    steps = 0
    while heap:
        order, coeff, twice, eps, pos = heapq.heappop(heap)
        while heap and heap[0][0] == order:
            coeff += heapq.heappop(heap)[1]
        coeff %= p
        if not coeff:
            continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"Adem straightening exceeded {max_steps} rewrite steps"
            )
        ts = twice[pos + 1]
        replacements = pair_rewrite(p, twice[pos], ts, eps[pos], eps[pos + 1])
        head_twice, tail_twice = twice[:pos], twice[pos + 2 :]
        head_eps, tail_eps = eps[:pos], eps[pos + 2 :]
        for c, ta, tb, ea, eb in replacements:
            ta += ts
            tb += ts
            if ta < 0 or tb < 0:
                continue
            new_twice = head_twice + (ta, tb) + tail_twice
            new_eps = head_eps + (ea, eb) + tail_eps
            c = coeff * c % p
            # pairs left of pos - 1 are untouched and admissible
            new_pos = first_defect(new_twice, new_eps, max(pos - 1, 0))
            if new_pos is None:
                result.add_term((new_twice, new_eps), c)
            else:
                heapq.heappush(
                    heap,
                    (_rewrite_order(new_twice, new_eps), c, new_twice, new_eps, new_pos),
                )
    return result


# ---------------------------------------------------------------------------
# Coproduct


class TensorPoly(Combination):
    """Sparse mod-p combination of r-fold tensors of sequences, keyed by
    tuples of ``folds`` legs, each a (twice tuple, eps tuple) pair.

    Legs are stored in upper notation (field ``lower`` False) where
    every monomial of the free algebra is representable; ``to_lower``
    converts for display, dropping legs killed by the excess quotient.
    ``folds`` and ``lower`` are part of the kind.
    """

    __slots__ = ("folds", "lower")

    def __init__(self, ctx: Context, folds: int, lower: bool = False):
        self.folds = folds
        self.lower = lower
        super().__init__(ctx)

    def _shape(self) -> tuple:
        return (self.ctx, self.folds, self.lower)

    def to_lower(self) -> "TensorPoly":
        """Convert all legs to lower notation, dropping dead legs
        (those whose lower form would need a negative entry)."""
        if self.lower:
            raise DomainError("tensor is already in lower notation")
        out = TensorPoly(self.ctx, self.folds, lower=True)
        for legs, coeff in self.terms.items():
            converted = []
            for twice, eps in legs:
                try:
                    low = upper_to_lower(UpperSeq(self.ctx, twice, eps))
                except DomainError:
                    break  # negative lower entry: leg is zero
                converted.append((low.twice, low.eps))
            else:
                out.add_term(tuple(converted), coeff)
        return out


def _compositions(total: int, parts: int):
    """Yield tuples of `parts` non-negative even ints summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(0, total + 1, 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def coproduct(x: OpPoly | OpSeq | UpperSeq, folds: int = 2) -> TensorPoly:
    """The r-fold coproduct, computed componentwise in upper notation.

    Each factor f^i splits over all ways to distribute i across the
    legs; a Bockstein lands on exactly one leg (and beta f^0 = 0).
    Koszul signs arise when an odd piece passes legs to its right.
    folds = 1 wraps x in one leg.
    """
    if folds < 1:
        raise DomainError(f"the coproduct needs folds >= 1, got {folds}")
    if isinstance(x, OpSeq):
        x = OpPoly.from_seq(x)
    if isinstance(x, UpperSeq):
        ups = [(x, 1)]
    else:
        ups = [(lower_to_upper(OpSeq(x.ctx, *key)), c) for key, c in x.terms.items()]
    out = TensorPoly(x.ctx, folds)
    for up, coeff in ups:
        if any(t % 2 for t in up.twice):
            raise DomainError("coproduct needs integral upper entries")
        # each leg is a (twice, eps) pair, odd when its eps sum is odd
        acc = Combination(x.ctx, {(((), ()),) * folds: coeff})
        for total, e in zip(up.twice, up.eps):
            nxt = Combination(x.ctx)
            for legs, c in acc.terms.items():
                for split in _compositions(total, folds):
                    if e == 0:
                        new_legs = tuple(
                            (tw + (s,), ep + (0,)) for (tw, ep), s in zip(legs, split)
                        )
                        nxt.add_term(new_legs, c)
                        continue
                    for u in range(folds):
                        if split[u] == 0:
                            continue  # beta f^0 = 0
                        new_legs = tuple(
                            (tw + (s,), ep + (int(v == u),))
                            for v, ((tw, ep), s) in enumerate(zip(legs, split))
                        )
                        sign = sum(sum(ep) for _, ep in legs[u + 1 :]) % 2
                        nxt.add_term(new_legs, -c if sign else c)
            acc = nxt
        for legs, c in acc.terms.items():
            out.add_term(legs, c)
    return out


def tensor_split_leg(t: TensorPoly, which: int) -> TensorPoly:
    """Apply the 2-fold coproduct to one leg of an upper tensor.

    No extra sign: the coproduct is an even map, so 1 x ... x psi x ...
    x 1 introduces none beyond those inside the split itself.
    """
    if t.lower:
        raise DomainError("splitting a leg needs an upper-notation tensor")
    out = TensorPoly(t.ctx, t.folds + 1)
    for legs, coeff in t.terms.items():
        twice, eps = legs[which]
        split = coproduct(UpperSeq(t.ctx, twice, eps), 2)
        for (legA, legB), c in split.terms.items():
            new_legs = legs[:which] + (legA, legB) + legs[which + 1 :]
            out.add_term(new_legs, coeff * c)
    return out
