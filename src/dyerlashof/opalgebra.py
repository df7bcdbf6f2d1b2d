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

from .arith import Context, DomainError, binom_mod_p
from .sequences import OpSeq, UpperSeq, lower_to_upper, upper_to_lower

__all__ = [
    "OpPoly",
    "TensorPoly",
    "concat_product",
    "quotient_excess",
    "adem_straighten_classical",
    "pair_rewrite",
    "clear_rewrite_table",
    "coproduct",
    "iterated_coproduct",
    "tensor_split_leg",
]

# (twice tuple, eps tuple): one monomial of the free algebra.
Key = tuple[tuple[int, ...], tuple[int, ...]]


class OpPoly:
    """Sparse mod-p combination of lower-notation sequences."""

    def __init__(self, ctx: Context, terms: dict[Key, int] | None = None):
        self.ctx = ctx
        self.terms: dict[Key, int] = {}
        if terms:
            for (twice, eps), coeff in terms.items():
                self.add_term(twice, eps, coeff)

    @classmethod
    def zero(cls, ctx: Context) -> "OpPoly":
        return cls(ctx)

    @classmethod
    def from_seq(cls, s: OpSeq, coeff: int = 1) -> "OpPoly":
        poly = cls(s.ctx)
        poly.add_term(s.twice, s.eps, coeff)
        return poly

    def add_term(self, twice, eps, coeff: int):
        """Add coeff * e_{twice/2, eps}, dropping cancelled terms."""
        coeff %= self.ctx.p
        if not coeff:
            return
        key = (tuple(twice), tuple(eps))
        new = (self.terms.get(key, 0) + coeff) % self.ctx.p
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]

    def __add__(self, other: "OpPoly") -> "OpPoly":
        if self.ctx != other.ctx:
            raise DomainError("sum needs matching contexts")
        out = OpPoly(self.ctx, dict(self.terms))
        for (twice, eps), coeff in other.terms.items():
            out.add_term(twice, eps, coeff)
        return out

    def scaled(self, c: int) -> "OpPoly":
        out = OpPoly(self.ctx)
        for (twice, eps), coeff in self.terms.items():
            out.add_term(twice, eps, coeff * c)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OpPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def seq_terms(self):
        """Yield (OpSeq, coeff) pairs in canonical (ascending) order."""
        def sort_key(item):
            (twice, eps), _ = item
            return (tuple(t - e for t, e in zip(twice, eps)), twice, eps)

        for (twice, eps), coeff in sorted(self.terms.items(), key=sort_key):
            yield OpSeq(self.ctx, twice, eps), coeff

    def __repr__(self):
        return f"OpPoly({self.ctx.p},{self.ctx.n}; {self.terms})"


def concat_product(a: OpPoly, b: OpPoly) -> OpPoly:
    """Concatenation product (composition of operations, lower form)."""
    if a.ctx.p != b.ctx.p:
        raise DomainError("product needs matching primes")
    out = OpPoly(Context(a.ctx.p, a.ctx.n + b.ctx.n))
    for (ta, ea), ca in a.terms.items():
        for (tb, eb), cb in b.terms.items():
            out.add_term(ta + tb, ea + eb, ca * cb)
    return out


def quotient_excess(raw_terms, ctx: Context) -> OpPoly:
    """Normalize a raw term list into the excess quotient.

    raw_terms: iterable of (twice, eps, coeff) where entries may be
    negative.  Negative-entry terms are dropped (these have negative
    excess at some suffix), coefficients reduced mod p, zeros pruned.
    """
    out = OpPoly(ctx)
    for twice, eps, coeff in raw_terms:
        if any(t < 0 for t in twice):
            continue
        out.add_term(twice, eps, coeff)
    return out


# ---------------------------------------------------------------------------
# Adem straightening


_REWRITE_TABLE: dict[tuple, tuple] = {}


def clear_rewrite_table():
    _REWRITE_TABLE.clear()


def pair_rewrite(p: int, tr: int, ts: int, er: int, es: int):
    """Adem relation for one inadmissible pair, in doubled arithmetic.

    The pair is (beta^er e_{tr/2})(beta^es e_{ts/2}) with defect
    ts - tr + er < 0.  Returns a tuple of (coeff, ta, tb, ea, eb)
    replacement pairs, each admissible, with coeff in 1..p-1; entries
    may be negative (callers filter through the excess quotient).
    Every replacement raises the second entry's tail excess tb - eb
    above ts - es.
    """
    cached = _REWRITE_TABLE.get((p, tr, ts, er, es))
    if cached is not None:
        return cached
    out = []
    if es == 0:
        # e_r e_s = sum_i (-1)^(r-i) C((p-1)(i-s)-1, r-i-1) e_{r+ps-pi} e_i,
        # with a leading Bockstein carried along untouched.  The binomial
        # vanishes for p i < r + (p-1) s (bottom above top) and i <= s
        # (negative top); r - i must be an integer.
        lo = max(ts + 1, -(-(tr + (p - 1) * ts) // p))
        lo += (tr - lo) % 2
        for ti in range(lo, tr - 1, 2):
            a = (p - 1) * (ti - ts) // 2 - 1
            b = (tr - ti) // 2 - 1
            c = binom_mod_p(a, b, p)
            if not c:
                continue
            if (tr - ti) // 2 % 2:
                c = p - c
            out.append((c, tr + p * ts - p * ti, ti, er, 0))
    else:
        # e_r (beta e_s), p odd.  Two sums: the Bockstein moves to the
        # first factor or stays on the second.  A leading Bockstein
        # kills the first sum (beta beta = 0).  Both binomials vanish
        # for p i < r - 1/2 + (p-1) s and i < s; r - 1/2 - i must be an
        # integer.
        if p == 2:
            raise DomainError("p = 2 sequences cannot carry Bocksteins")
        lo = max(ts, -(-(tr - 1 + (p - 1) * ts) // p))
        lo += 1 - (tr - lo) % 2
        for ti in range(lo, tr, 2):
            b = (tr - 1 - ti) // 2
            a1 = (p - 1) * (ti - ts) // 2
            if er == 0:
                c1 = binom_mod_p(a1, b, p)
                if c1:
                    if (tr + ti + 1) // 2 % 2:
                        c1 = p - c1
                    out.append((c1, tr + p * ts - p * ti - 1, ti, 1, 0))
            c2 = binom_mod_p(a1 - 1, b, p)
            if c2:
                if (tr + ti - 1) // 2 % 2:
                    c2 = p - c2
                out.append((c2, tr + p * ts - p * ti, ti, er, 1))
    result = tuple(out)
    _REWRITE_TABLE[(p, tr, ts, er, es)] = result
    return result


def _first_defect(twice, eps, start: int = 0) -> int | None:
    for t in range(start, len(twice) - 1):
        if twice[t + 1] - twice[t] + eps[t] < 0:
            return t
    return None


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
        pos = _first_defect(twice, eps)
        if pos is None:
            result.add_term(twice, eps, coeff)
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
        replacements = pair_rewrite(
            p, twice[pos], twice[pos + 1], eps[pos], eps[pos + 1]
        )
        head_twice, tail_twice = twice[:pos], twice[pos + 2 :]
        head_eps, tail_eps = eps[:pos], eps[pos + 2 :]
        for c, ta, tb, ea, eb in replacements:
            if ta < 0 or tb < 0:
                continue
            new_twice = head_twice + (ta, tb) + tail_twice
            new_eps = head_eps + (ea, eb) + tail_eps
            c = coeff * c % p
            # pairs left of pos - 1 are untouched and admissible
            new_pos = _first_defect(new_twice, new_eps, max(pos - 1, 0))
            if new_pos is None:
                result.add_term(new_twice, new_eps, c)
            else:
                heapq.heappush(
                    heap,
                    (_rewrite_order(new_twice, new_eps), c, new_twice, new_eps, new_pos),
                )
    return result


# ---------------------------------------------------------------------------
# Coproduct

# One tensor leg: an upper-notation (twice tuple, eps tuple) pair.
Leg = tuple[tuple[int, ...], tuple[int, ...]]


class TensorPoly:
    """Sparse mod-p combination of r-fold tensors of sequences.

    Legs are stored in upper notation (field ``lower`` False) where
    every monomial of the free algebra is representable; ``to_lower``
    converts for display, dropping legs killed by the excess quotient.
    """

    def __init__(self, ctx: Context, folds: int, lower: bool = False):
        self.ctx = ctx
        self.folds = folds
        self.lower = lower
        self.terms: dict[tuple[Leg, ...], int] = {}

    def add_term(self, legs: tuple[Leg, ...], coeff: int):
        coeff %= self.ctx.p
        if not coeff:
            return
        new = (self.terms.get(legs, 0) + coeff) % self.ctx.p
        if new:
            self.terms[legs] = new
        else:
            del self.terms[legs]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorPoly)
            and (self.ctx, self.folds, self.lower)
            == (other.ctx, other.folds, other.lower)
            and self.terms == other.terms
        )

    def __repr__(self):
        kind = "lower" if self.lower else "upper"
        return f"TensorPoly({self.ctx.p},{self.ctx.n}; {self.folds}-fold {kind}; {len(self.terms)} terms)"

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
    """
    if isinstance(x, OpSeq):
        x = OpPoly.from_seq(x)
    if isinstance(x, UpperSeq):
        terms = {(x.twice, x.eps): 1}
        ctx = x.ctx
        upper_input = True
    else:
        terms = x.terms
        ctx = x.ctx
        upper_input = False
    p, n = ctx.p, ctx.n
    out = TensorPoly(ctx, folds)
    for (twice, eps), coeff in terms.items():
        if upper_input:
            up = UpperSeq(ctx, twice, eps)
        else:
            up = lower_to_upper(OpSeq(ctx, twice, eps))
        if any(t % 2 for t in up.twice):
            raise DomainError("coproduct needs integral upper entries")
        # state: (legs as tuples of (entry, eps) pairs, leg parities)
        acc = {(((),) * folds, (0,) * folds): coeff}
        for t in range(n):
            total, e = up.twice[t], up.eps[t]
            nxt: dict = {}
            for (legs, parities), c in acc.items():
                for split in _compositions(total, folds):
                    if e == 0:
                        new_legs = tuple(
                            legs[u] + ((split[u], 0),) for u in range(folds)
                        )
                        _bump(nxt, (new_legs, parities), c, p)
                        continue
                    for u in range(folds):
                        if split[u] == 0:
                            continue  # beta f^0 = 0
                        new_legs = tuple(
                            legs[v] + ((split[v], 1 if v == u else 0),)
                            for v in range(folds)
                        )
                        sign = sum(parities[v] for v in range(u + 1, folds)) % 2
                        new_par = tuple(
                            parities[v] ^ (1 if v == u else 0)
                            for v in range(folds)
                        )
                        _bump(nxt, (new_legs, new_par), c if not sign else -c, p)
            acc = nxt
        for (legs, _parities), c in acc.items():
            key = tuple(
                (tuple(e for e, _ in leg), tuple(b for _, b in leg))
                for leg in legs
            )
            out.add_term(key, c)
    return out


def _bump(table: dict, key, delta: int, p: int):
    new = (table.get(key, 0) + delta) % p
    if new:
        table[key] = new
    else:
        table.pop(key, None)


def iterated_coproduct(x: OpPoly | OpSeq | UpperSeq, r: int) -> TensorPoly:
    """The r-fold coproduct (r >= 1); r = 1 wraps x in one leg."""
    if r < 1:
        raise DomainError("iterated coproduct needs r >= 1")
    return coproduct(x, folds=r)


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
