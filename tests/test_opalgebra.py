"""Tests for the free algebra layer: classical Adem straightening and
the coproduct."""

import itertools
import operator
import random
import re

import pytest

from dyerlashof import opalgebra
from dyerlashof.arith import Context, DomainError, binom_mod_p
from dyerlashof.invariants import SparsePoly
from dyerlashof.opalgebra import (
    OpPoly,
    TensorPoly,
    adem_straighten_classical,
    clear_rewrite_table,
    coproduct,
    pair_rewrite,
    tensor_split_leg,
)
from dyerlashof.sequences import (
    OpSeq,
    degree_lower,
    is_admissible,
    lower_to_upper,
    upper_parity,
    upper_to_lower,
)

P3N2 = Context(3, 2)
P2N2 = Context(2, 2)


def poly(ctx, values, eps=None, coeff=1):
    return OpPoly.from_seq(OpSeq.from_values(ctx, values, eps), coeff)


def terms_of(x):
    """x's terms, after checking that every key is a valid sequence."""
    for key in x.terms:
        OpSeq(x.ctx, *key)
    return dict(x.terms)


def test_classical_examples():
    rho = adem_straighten_classical
    assert terms_of(rho(poly(P3N2, (3, 1)))) == {((0, 4), (0, 0)): 2}
    assert rho(poly(P3N2, (1, 0))).is_zero()
    assert terms_of(rho(poly(P2N2, (4, 1)))) == {((0, 6), (0, 0)): 1}
    fixed = poly(P3N2, (0, 2))
    assert rho(fixed) == fixed


def all_eps_zero(ctx, max_twice):
    step = 2 if ctx.p == 2 else 1
    for twice in itertools.product(range(0, max_twice + 1, step), repeat=ctx.n):
        yield OpSeq(ctx, twice, (0,) * ctx.n)


def test_classical_output_properties():
    # admissible output, degree preserved, idempotent
    for ctx, bound in ((P2N2, 16), (P3N2, 12)):
        for s in all_eps_zero(ctx, bound):
            out = adem_straighten_classical(OpPoly.from_seq(s))
            for key, c in out.sorted_terms():
                k = OpSeq(ctx, *key)
                assert 1 <= c < ctx.p
                assert is_admissible(k)
                assert degree_lower(k) == degree_lower(s)
            assert adem_straighten_classical(out) == out


def test_classical_with_bocksteins():
    # same properties on eps-bearing and half-entry inputs at p=3
    ctx = Context(3, 2)
    for twice in itertools.product(range(9), repeat=2):
        for eps in itertools.product((0, 1), repeat=2):
            s = OpSeq(ctx, twice, eps)
            out = adem_straighten_classical(OpPoly.from_seq(s))
            for key, c in out.sorted_terms():
                k = OpSeq(ctx, *key)
                assert is_admissible(k)
                assert degree_lower(k) == degree_lower(s)


def test_pair_rewrite_memo_agrees():
    for p in (2, 3):
        step = 2 if p == 2 else 1
        for tr in range(0, 13, step):
            for ts in range(0, tr, step):
                for er, es in itertools.product((0, 1), repeat=2):
                    if p == 2 and (er or es):
                        continue
                    if ts - tr + er >= 0:
                        continue
                    clear_rewrite_table()
                    cold = pair_rewrite(p, tr, ts, er, es)
                    hot = pair_rewrite(p, tr, ts, er, es)
                    assert hot == cold and hot is cold, (p, tr, ts, er, es)
    hot = pair_rewrite(3, 6, 2, 0, 0)
    clear_rewrite_table()
    # recompute after clearing: results unchanged
    assert pair_rewrite(3, 6, 2, 0, 0) == hot


def test_rewrite_table_is_capped(monkeypatch):
    # the table is an LRU cache of REWRITE_TABLE_SIZE pairs; emptying it
    # before every rewrite, the smallest table there is, changes no answer
    assert pair_rewrite.cache_info().maxsize == opalgebra.REWRITE_TABLE_SIZE
    inputs = [OpSeq(ctx, twice, eps) for ctx, twice, eps in LONG_BOCKSTEIN_CASES]
    inputs.append(OpSeq(Context(2, 4), (24, 16, 8, 4), (0,) * 4))
    clear_rewrite_table()
    want = [adem_straighten_classical(s) for s in inputs]
    sizes = []

    def cold(*args):
        clear_rewrite_table()
        out = pair_rewrite(*args)
        sizes.append(pair_rewrite.cache_info().currsize)
        return out

    monkeypatch.setattr(opalgebra, "pair_rewrite", cold)
    assert [adem_straighten_classical(s) for s in inputs] == want
    assert len(sizes) > 10 and set(sizes) == {1}


@pytest.mark.parametrize(
    "ctx, key",
    [
        (P3N2, ((-2, 4), (0, 0))),  # negative entry
        (P3N2, ((2, 4, 6), (0, 0, 0))),  # wrong length
        (P3N2, ((0, 3), (0, 2))),  # eps not a bit
        (P2N2, ((1, 4), (0, 0))),  # half entry at p = 2
        (P2N2, ((2, 4), (1, 0))),  # Bockstein at p = 2
    ],
    ids=["negative", "length", "eps", "half-at-2", "bockstein-at-2"],
)
def test_op_poly_refuses_bad_keys(ctx, key):
    with pytest.raises(DomainError):
        OpPoly(ctx, {key: 1})
    x = OpPoly(ctx)
    with pytest.raises(DomainError):
        x.add_term(key, 1)
    assert x.is_zero()


def pair_full_range(p, tr, ts, er, es):
    """The Adem pair formula summed over every i, skipping by parity only
    (pair_rewrite's range starts where the binomials can be nonzero and
    stops where the first entry turns negative)."""
    out = []
    if es == 0:
        for ti in range(0, tr - 1):
            if (tr - ti) % 2:
                continue
            c = binom_mod_p((p - 1) * (ti - ts) // 2 - 1, (tr - ti) // 2 - 1, p)
            if c:
                if (tr - ti) // 2 % 2:
                    c = p - c
                out.append((c, tr + p * ts - p * ti, ti, er, 0))
    else:
        for ti in range(0, tr):
            if (tr - ti) % 2 == 0:
                continue
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
    return tuple(out)


def test_pair_rewrite_range_matches_full_sum():
    # pair_rewrite is the full-range sum in the excess quotient: every
    # term with both entries >= 0, in the same order
    clear_rewrite_table()
    for p in (2, 3, 5, 7):
        step = 2 if p == 2 else 1
        flags = ((0, 0),) if p == 2 else tuple(itertools.product((0, 1), repeat=2))
        for tr in range(0, 61, step):
            for ts in range(0, 61, step):
                for er, es in flags:
                    if ts - tr + er >= 0:
                        continue
                    kept = tuple(
                        term
                        for term in pair_full_range(p, tr, ts, er, es)
                        if term[1] >= 0 and term[2] >= 0
                    )
                    assert pair_rewrite(p, tr, ts, er, es) == kept, (p, tr, ts, er, es)


def test_every_replacement_raises_the_second_tail_excess():
    # the heap invariant of the engine: tb - eb > ts - es for every
    # replacement, so a rewrite only queues monomials of higher order
    for p in (2, 3, 5, 7):
        step = 2 if p == 2 else 1
        flags = ((0, 0),) if p == 2 else tuple(itertools.product((0, 1), repeat=2))
        for tr in range(0, 61, step):
            for ts in range(0, 61, step):
                for er, es in flags:
                    if ts - tr + er >= 0:
                        continue
                    for _, _, tb, _, eb in pair_rewrite(p, tr, ts, er, es):
                        assert tb - eb > ts - es, (p, tr, ts, er, es)


def test_pair_rewrite_evaluates_only_kept_terms(monkeypatch):
    # one binomial per ti of the full-range sum whose binomial is not
    # zero by its arguments alone and whose replacement, with first
    # entry tr + p ts - p ti and second ti, has both entries >= 0
    calls = []
    monkeypatch.setattr(
        opalgebra,
        "binom_mod_p",
        lambda a, b, p: calls.append(a) or binom_mod_p(a, b, p),
    )
    p = 7
    counts = []
    for tr, ts in ((200, 0), (200, 40), (200, 100), (200, 150), (200, 198), (60, -8)):
        kept_range = [
            ti
            for ti in range(0, tr - 1)
            if (tr - ti) % 2 == 0
            and 0 <= (tr - ti) // 2 - 1 <= (p - 1) * (ti - ts) // 2 - 1
            and tr + p * ts - p * ti >= 0
        ]
        clear_rewrite_table()
        calls.clear()
        pair_rewrite(p, tr, ts, 0, 0)
        assert len(calls) == len(kept_range), (tr, ts)
        counts.append(len(calls))
    # the whole relations have 85, 68, 42, 21, 0 and 29 such binomials
    assert counts == [0, 3, 7, 11, 0, 0]


def test_pair_formula_is_translation_invariant():
    # the full-range formula at (tr + delta, ts + delta) is the one at
    # (tr, ts) with every entry shifted by delta, for even delta, and for
    # every delta when es = 0; with es = 1 an odd shift flips signs, so
    # the Bockstein branch's signs read ts mod 2
    odd_bockstein_differs = False
    for p in (3, 5, 7):
        for er, es in itertools.product((0, 1), repeat=2):
            for tr in range(40):
                for ts in range(40):
                    if ts - tr + er >= 0:
                        continue
                    base = pair_full_range(p, tr, ts, er, es)
                    for delta in (1, 2, 3, 4, 7, 10):
                        shifted = tuple(
                            (c, ta + delta, tb + delta, ea, eb)
                            for c, ta, tb, ea, eb in base
                        )
                        moved = pair_full_range(p, tr + delta, ts + delta, er, es)
                        if delta % 2 == 0 or es == 0:
                            assert moved == shifted, (p, tr, ts, er, es, delta)
                        elif moved != shifted:
                            odd_bockstein_differs = True
    assert odd_bockstein_differs


def straighten_one_at_a_time(x, pick):
    """Reference engine: rewrite the defect that pick chooses from the
    list of defect positions, one term at a time, without merging like
    terms, without the rewrite table, with the full-range pair formula."""
    p = x.ctx.p
    out = OpPoly(x.ctx)
    stack = list(x.terms.items())
    while stack:
        (twice, eps), coeff = stack.pop()
        defects = [
            t for t in range(len(twice) - 1) if twice[t + 1] - twice[t] + eps[t] < 0
        ]
        if not defects:
            out.add_term((twice, eps), coeff)
            continue
        pos = pick(defects)
        pair = pair_full_range(p, twice[pos], twice[pos + 1], eps[pos], eps[pos + 1])
        for c, ta, tb, ea, eb in pair:
            if ta < 0 or tb < 0:
                continue
            new_twice = twice[:pos] + (ta, tb) + twice[pos + 2 :]
            new_eps = eps[:pos] + (ea, eb) + eps[pos + 2 :]
            stack.append(((new_twice, new_eps), coeff * c % p))
    return out


def straighten_rightmost(x):
    return straighten_one_at_a_time(x, lambda defects: defects[-1])


def straighten_leftmost(x):
    return straighten_one_at_a_time(x, lambda defects: defects[0])


def one_parity(s):
    """True when 2 j_t + deg(suffix after t) has one parity for all t:
    then the sequence names an operation on a class of some degree q with
    integral upper indices.  Always true at p = 2."""
    if s.ctx.p == 2:
        return True
    p, n = s.ctx.p, s.ctx.n
    parities = {s.twice[-1] % 2}  # the empty suffix has degree 0
    for t in range(n - 1):
        suffix = OpSeq(Context(p, n - t - 1), s.twice[t + 1 :], s.eps[t + 1 :])
        parities.add((s.twice[t] + degree_lower(suffix)) % 2)
    return len(parities) == 1


def assert_confluent(ctx, twice, eps):
    s = OpSeq(ctx, tuple(twice), tuple(eps))
    got = adem_straighten_classical(s)
    assert got == straighten_rightmost(OpPoly.from_seq(s)), (ctx, s.twice, s.eps)


def test_confluence_length_two():
    # every eps and half-integer entries; the pair formula, merging and
    # the narrowed range against the full-range reference
    for p in (3, 5, 7):
        ctx = Context(p, 2)
        for twice in itertools.product(range(30), repeat=2):
            for eps in itertools.product((0, 1), repeat=2):
                assert_confluent(ctx, twice, eps)


def test_confluence_length_three_eps_zero():
    # leftmost (merged) and rightmost rewriting agree on every eps = 0
    # input of one parity, integral or half-integral
    for p in (2, 3, 5, 7):
        ctx = Context(p, 3)
        step = 2 if p == 2 else 1
        for twice in itertools.product(range(0, 16, step), repeat=3):
            s = OpSeq(ctx, twice, (0, 0, 0))
            if one_parity(s):
                assert_confluent(ctx, twice, (0, 0, 0))


def test_confluence_long_inputs():
    # eps = 0 inputs of the classical benchmark pool (p = 2, n = 6; the
    # p = 3, n = 5 bridge group)
    cases = [
        (2, (120, 90, 42, 34, 26, 26)),
        (2, (100, 94, 90, 76, 54, 46)),
        (2, (88, 74, 60, 52, 32, 28)),
        (2, (106, 68, 44, 44, 28, 20)),
        (3, (122, 70, 42, 20, 6)),
    ]
    for p, twice in cases:
        assert_confluent(Context(p, len(twice)), twice, (0,) * len(twice))


# two long Bockstein inputs of the classical benchmark pool; with
# bockstein_box they make up most of the strict xfail's cases
LONG_BOCKSTEIN_CASES = (
    (Context(3, 6), (151, 144, 92, 78, 62, 56), (1, 1, 0, 0, 0, 0)),
    (Context(5, 5), (199, 144, 131, 63, 62), (1, 1, 1, 0, 1)),
)


def bockstein_box():
    """p = 3, 5, 7, n = 3, doubled entries < 8, every eps."""
    for p in (3, 5, 7):
        ctx = Context(p, 3)
        for twice in itertools.product(range(8), repeat=3):
            for eps in itertools.product((0, 1), repeat=3):
                yield ctx, twice, eps


def test_engine_is_leftmost_rewriting_on_bockstein_inputs():
    # the merged engine gives exactly what unmerged leftmost rewriting
    # gives, also where that differs from the rightmost reference; this
    # pins the current Bockstein answers until an independent engine
    # settles them
    for ctx, twice, eps in itertools.chain(bockstein_box(), LONG_BOCKSTEIN_CASES):
        s = OpSeq(ctx, twice, eps)
        got = adem_straighten_classical(s)
        assert got == straighten_leftmost(OpPoly.from_seq(s)), (ctx, twice, eps)


@pytest.mark.xfail(
    strict=True,
    reason="leftmost and rightmost rewriting disagree on inputs with "
    "Bocksteins, and on eps = 0 inputs of mixed parity, at odd p",
)
def test_confluence_with_bocksteins():
    # e[7/2] b e[2] e[0] at p = 3: leftmost gives b e[0] e[0] e[1],
    # rightmost gives 0; e[3,1,1/2] at p = 3 has mixed parity; two long
    # inputs of the classical benchmark pool; then a box with every eps
    cases = [
        (Context(3, 3), (7, 4, 0), (0, 1, 0)),
        (Context(3, 3), (6, 2, 1), (0, 0, 0)),
        *LONG_BOCKSTEIN_CASES,
        *bockstein_box(),
    ]
    bad = []
    for ctx, twice, eps in cases:
        s = OpSeq(ctx, twice, eps)
        if adem_straighten_classical(s) != straighten_rightmost(OpPoly.from_seq(s)):
            bad.append((ctx.p, twice, eps))
    assert not bad, f"{len(bad)} of {len(cases)} inputs disagree, e.g. {bad[:4]}"


def test_classical_merges_only_equal_monomials():
    # (4,0)/(0,0) and (5,0)/(1,0) share the tail excesses (4,0) but lie in
    # different degrees; straightening is linear over such sums
    a = OpPoly.from_seq(OpSeq(P3N2, (4, 0), (0, 0)))
    b = OpPoly.from_seq(OpSeq(P3N2, (5, 0), (1, 0)), 2)
    both = adem_straighten_classical(a + b)
    assert both == adem_straighten_classical(a) + adem_straighten_classical(b)
    assert both == straighten_rightmost(a + b)
    for p in (3, 5):
        ctx = Context(p, 3)
        x = OpPoly(ctx)
        for twice in itertools.product(range(7), repeat=3):
            for eps in itertools.product((0, 1), repeat=3):
                x.add_term((twice, eps), sum(twice) + 1)
        total = OpPoly(ctx)
        for (twice, eps), c in x.terms.items():
            one = adem_straighten_classical(OpPoly(ctx, {(twice, eps): c}))
            for (tw, ep), d in one.terms.items():
                total.add_term((tw, ep), d)
        assert adem_straighten_classical(x) == total


def key_inputs():
    """Falling inputs, and rising ones whose last entry drops, per
    (p, n) with n = 2..6; Bocksteins on every other entry at odd p."""
    for p in (2, 3, 5, 7):
        step = 2 if p == 2 else 1
        for n in range(2, 7):
            ctx = Context(p, n)
            eps = (0,) * n if p == 2 else tuple(t % 2 for t in range(n))
            for top in (12, 19):
                yield ctx, tuple(step * (top - 2 * t) for t in range(n)), eps
                yield ctx, tuple(step * (top + 2 * t) for t in range(n - 1)) + (0,), eps


def monomial_of(key):
    """The (twice, eps) a rewrite-order key names: it holds the tail
    excesses twice - eps backwards, then eps."""
    n = len(key) // 2
    eps = key[n:]
    return tuple(map(operator.add, key[n - 1 :: -1], eps)), eps


def test_replacement_keys_are_their_rewrite_orders(monkeypatch):
    # a replacement's heap key, built from its parent's, is the key
    # _rewrite_order gives the monomial of the first_defect call before
    # its push, whatever position the parent was rewritten at
    checked = []
    parent_pos = []
    seen = set()
    real_pop, real_push = opalgebra.heapq.heappop, opalgebra.heapq.heappush
    real_defect = opalgebra.first_defect

    def defect(twice, eps, start=0):
        checked[:] = [(twice, eps)]
        return real_defect(twice, eps, start)

    def pop(heap):
        key = real_pop(heap)
        parent_pos[:] = [real_defect(*monomial_of(key))]
        return key

    def push(heap, key):
        twice, eps = checked[0]
        assert key == opalgebra._rewrite_order(twice, eps), (twice, eps)
        seen.add((len(twice), parent_pos[0]))
        real_push(heap, key)

    monkeypatch.setattr(opalgebra, "first_defect", defect)
    monkeypatch.setattr(opalgebra.heapq, "heappop", pop)
    monkeypatch.setattr(opalgebra.heapq, "heappush", push)
    for ctx, twice, eps in key_inputs():
        x = OpPoly.from_seq(OpSeq(ctx, twice, eps))
        assert adem_straighten_classical(x) == straighten_leftmost(x), (ctx, twice, eps)
    monkeypatch.undo()
    # at n = 2 every replacement is admissible and nothing is queued
    assert seen == {(n, pos) for n in range(3, 7) for pos in range(n - 1)}


def test_each_pending_monomial_is_queued_once(monkeypatch):
    # a replacement whose monomial is already queued joins its pending
    # coefficient: no key is pushed twice, and the keys leave the heap
    # in strictly rising order
    pushed, popped = [], []
    real_pop, real_push = opalgebra.heapq.heappop, opalgebra.heapq.heappush

    def pop(heap):
        popped.append(real_pop(heap))
        return popped[-1]

    def push(heap, key):
        pushed.append(key)
        real_push(heap, key)

    monkeypatch.setattr(opalgebra.heapq, "heappop", pop)
    monkeypatch.setattr(opalgebra.heapq, "heappush", push)
    queued = 0
    for ctx, twice, eps in itertools.chain(key_inputs(), LONG_BOCKSTEIN_CASES):
        pushed.clear()
        popped.clear()
        s = OpSeq(ctx, twice, eps)
        assert adem_straighten_classical(s) == straighten_leftmost(OpPoly.from_seq(s))
        assert len(set(pushed)) == len(pushed), (ctx, twice, eps)
        assert all(a < b for a, b in zip(popped, popped[1:])), (ctx, twice, eps)
        queued += len(pushed)
    monkeypatch.undo()
    assert queued > 1000


def test_a_sequence_straightens_as_its_one_term():
    # a sequence input is read without an OpPoly, with the same answer
    cases = [
        (P3N2, (0, 2), (0, 0)),  # admissible: returned as itself
        (P2N2, (8, 2), (0, 0)),
        *LONG_BOCKSTEIN_CASES,
        *itertools.islice(bockstein_box(), 0, None, 37),
        *key_inputs(),
    ]
    for ctx, twice, eps in cases:
        s = OpSeq(ctx, twice, eps)
        got = adem_straighten_classical(s)
        assert got == adem_straighten_classical(OpPoly.from_seq(s)), (ctx, twice, eps)
    assert adem_straighten_classical(OpSeq(P3N2, (0, 2), (0, 0))).terms == {
        ((0, 2), (0, 0)): 1
    }


def test_straightening_ignores_the_order_of_terms():
    # one sum, its terms inserted in shuffled orders: the same answer
    for p in (2, 3):
        ctx = Context(p, 4)
        step = 2 if p == 2 else 3
        terms = {}
        for i, t in enumerate(itertools.product(range(5), repeat=4)):
            if i % 7 == 0:
                eps = (0,) * 4 if p == 2 else (t[0] % 2, 0, 0, 0)
                terms[(tuple(step * v for v in t), eps)] = 1 + i % (p - 1)
        want = adem_straighten_classical(OpPoly(ctx, terms))
        assert not want.is_zero()
        items = list(terms.items())
        rng = random.Random(p)
        for _ in range(6):
            rng.shuffle(items)
            assert adem_straighten_classical(OpPoly(ctx, dict(items))) == want


def test_max_steps_caps_distinct_rewrites(monkeypatch):
    # each distinct monomial rewritten is one step and one pair_rewrite call
    x = poly(Context(2, 4), (24, 16, 8, 4))
    calls = []
    real = opalgebra.pair_rewrite
    monkeypatch.setattr(
        opalgebra, "pair_rewrite", lambda *args: calls.append(args) or real(*args)
    )
    want = adem_straighten_classical(x)
    monkeypatch.undo()
    steps = len(calls)
    assert steps > 10 and not want.is_zero()
    assert adem_straighten_classical(x, max_steps=steps) == want
    for cap in (0, 1, steps // 2, steps - 1):
        with pytest.raises(RuntimeError, match=f"exceeded {cap} rewrite steps"):
            adem_straighten_classical(x, max_steps=cap)
    # an admissible input needs no rewrite at all
    admissible = poly(P3N2, (0, 2))
    assert adem_straighten_classical(admissible, max_steps=0) == admissible


def test_domain_errors_replace_asserts():
    with pytest.raises(DomainError):
        pair_rewrite(2, 4, 1, 0, 1)
    with pytest.raises(DomainError):
        poly(P3N2, (1, 0)) + poly(Context(3, 1), (1,))
    for k in (0, 3):
        with pytest.raises(DomainError):
            SparsePoly.variable(k, Context(3, 2))


def upper(ctx, values, eps=None):
    """The lower form of the upper-notation sequence with these values."""
    eps = (0,) * ctx.n if eps is None else eps
    return OpSeq(ctx, upper_to_lower(ctx, tuple(2 * v for v in values), eps), eps)


def coproduct_by_upper_cartan(ctx, twice, eps, folds=2):
    """The Cartan formula on the doubled upper entries twice, a second
    route to coproduct: each upper factor f^i splits over all ways to
    share i among the legs, a Bockstein lands on one leg (and beta f^0 =
    0), and a Koszul sign arises when it passes odd pieces on legs right
    of it.  Each leg is converted to lower notation, and a term is dropped when a
    leg has a negative lower entry or a factor with 2 j_t - eps_t < 0."""
    acc = {(((), ()),) * folds: 1}
    for total, e in zip(twice, eps):
        nxt = {}
        for legs, c in acc.items():
            for split in itertools.product(range(total // 2 + 1), repeat=folds):
                if sum(split) != total // 2:
                    continue
                for b in range(folds) if e else (None,):
                    if b is not None and split[b] == 0:
                        continue  # beta f^0 = 0
                    new_legs = tuple(
                        (tw + (2 * s,), ep + (int(v == b),))
                        for v, ((tw, ep), s) in enumerate(zip(legs, split))
                    )
                    sign = b is not None and sum(sum(ep) for _, ep in legs[b + 1 :]) % 2
                    nxt[new_legs] = -c if sign else c
        acc = nxt
    out = TensorPoly(ctx, folds)
    for legs, c in acc.items():
        try:
            low = [OpSeq(ctx, upper_to_lower(ctx, *leg), leg[1]) for leg in legs]
        except DomainError:
            continue  # a leg with a negative lower entry is zero
        if any(min(map(operator.sub, leg.twice, leg.eps)) < 0 for leg in low):
            continue  # a leg with negative excess is zero
        out.add_term(tuple((leg.twice, leg.eps) for leg in low), c)
    return out


def upper_is_integral(s):
    """Whether the upper entries of s, negative ones included, are
    integers: 2 i_t = 2 j_t + |e_(t+1) ... e_n| at odd p."""
    if s.ctx.p == 2:
        return True
    n = s.ctx.n
    suffix = [
        degree_lower(OpSeq(Context(s.ctx.p, n - t), s.twice[t:], s.eps[t:]))
        for t in range(1, n)
    ]
    return all((tw + d) % 2 == 0 for tw, d in zip(s.twice, suffix + [0]))


def test_upper_parity_matches_the_degree_definitions():
    # one_parity and upper_is_integral read 2 i_t = 2 j_t + |suffix| off
    # degree_lower; upper_parity counts Bocksteins.  (n, doubled entries <)
    box = [(1, 12), (2, 10), (3, 7), (4, 4)]
    cases = mixed = 0
    for p in (3, 5, 7):
        for n, top in box:
            ctx = Context(p, n)
            for twice in itertools.product(range(top), repeat=n):
                for eps in itertools.product((0, 1), repeat=n):
                    s = OpSeq(ctx, twice, eps)
                    parity = upper_parity(twice, eps)
                    assert (parity is not None) == one_parity(s), (p, twice, eps)
                    assert (parity == 0) == upper_is_integral(s), (p, twice, eps)
                    cases += 1
                    mixed += parity is None
    assert (cases, mixed) == (3 * (24 + 400 + 2744 + 4096), 3 * (200 + 2058 + 3584))


# (p, n, largest doubled lower entry, folds)
COPRODUCT_BOXES = [
    (2, 2, 8, 2), (2, 3, 5, 2), (2, 4, 3, 2),
    (3, 2, 8, 2), (3, 3, 5, 2),
    (5, 2, 6, 2), (7, 2, 5, 2),
    (2, 2, 8, 3), (3, 2, 8, 3), (5, 2, 6, 3), (7, 2, 5, 3),
]


def test_coproduct_matches_upper_cartan():
    # every eps; where the input has a factor beta e_0 right of position
    # 1 its upper form has a negative entry, and its coproduct is zero
    cases = nonzero = 0
    for p, n, top, folds in COPRODUCT_BOXES:
        ctx = Context(p, n)
        step = 2 if p == 2 else 1
        eps_opts = list(itertools.product((0, 1), repeat=n)) if p > 2 else [(0,) * n]
        for twice in itertools.product(range(0, top + 1, step), repeat=n):
            for eps in eps_opts:
                s = OpSeq(ctx, twice, eps)
                cases += 1
                if not upper_is_integral(s):
                    with pytest.raises(DomainError, match="integral upper entries"):
                        coproduct(s, folds)
                    continue
                try:
                    up = lower_to_upper(ctx, twice, eps)
                    want = coproduct_by_upper_cartan(ctx, up, eps, folds)
                except DomainError as exc:
                    assert re.fullmatch(r"upper entry \d+ is negative", str(exc))
                    want = TensorPoly(ctx, folds)
                got = coproduct(s, folds)
                assert got == want, (p, twice, eps, folds)
                nonzero += not got.is_zero()
    assert (cases, nonzero) == (3149, 540)


def test_coproduct_examples():
    c31 = Context(3, 1)
    t = coproduct(upper(c31, (1,)))
    assert t.terms == {
        (((2,), (0,)), ((0,), (0,))): 1,
        (((0,), (0,)), ((2,), (0,))): 1,
    }
    t0 = coproduct(upper(c31, (0,)))
    assert t0.terms == {(((0,), (0,)), ((0,), (0,))): 1}
    # psi(beta f^1) = beta f^1 (x) f^0 + f^0 (x) beta f^1 (beta f^0 = 0)
    tb = coproduct(upper(c31, (1,), (1,)))
    assert tb.terms == {
        (((2,), (1,)), ((0,), (0,))): 1,
        (((0,), (0,)), ((2,), (1,))): 1,
    }


def test_coproduct_counts():
    # f^i splits i in all ways over two legs: i+1 terms
    c51 = Context(5, 1)
    for i in range(9):
        t = coproduct(upper(c51, (i,)))
        assert len(t.terms) == i + 1
        # with a Bockstein: one beta per split, except on f^0 legs
        tb = coproduct(upper(c51, (i,), (1,)))
        expected = 2 * (i + 1) - 2 if i else 0
        assert len(tb.terms) == expected


def test_coproduct_rejects_half_entries():
    with pytest.raises(DomainError):
        coproduct(OpSeq(Context(3, 1), (1,), (0,)))


def test_coproduct_refuses_large_outputs_at_once(monkeypatch):
    # e[30,30,30,30] at p = 2 would have 31^4 = 923,521 terms
    # the refusal comes before the enumeration, which would call this
    monkeypatch.setattr(opalgebra, "compositions", None)
    big = OpSeq(Context(2, 4), (60,) * 4, (0,) * 4)
    with pytest.raises(DomainError, match="may have 923521 terms, above the cap"):
        coproduct(big)
    monkeypatch.undo()
    # the bound is summed over the terms: 21^4 + 21^3 * 19 = 370,440
    edge = OpSeq(Context(2, 4), (40,) * 4, (0,) * 4)
    assert 194_481 <= opalgebra.COPRODUCT_TERMS_CAP < 2 * 194_481
    with pytest.raises(DomainError, match="may have 370440 terms"):
        coproduct(OpPoly.from_seq(edge) + poly(Context(2, 4), (20, 20, 20, 18)))


def test_coassociativity():
    # (p, n, largest upper entry, how many inputs have a nonzero 3-fold
    # coproduct).  An input whose lower form has a negative entry is
    # zero.  At p = 3, n = 2 the inputs E[2k,k;eps=10], k = 1..3, are
    # beta e_0 e_k in lower notation, beta of a p-th power, so their
    # coproducts are zero.
    boxes = [(2, 1, 8, 9), (3, 1, 8, 17), (3, 2, 6, 46), (2, 3, 4, 22)]
    for p, n, top, nonzero in boxes:
        ctx = Context(p, n)
        eps_opts = list(itertools.product((0, 1), repeat=n)) if p > 2 else [(0,) * n]
        seen = 0
        for twice in itertools.product(range(0, 2 * top + 1, 2), repeat=n):
            for eps in eps_opts:
                try:
                    s = OpSeq(ctx, upper_to_lower(ctx, twice, eps), eps)
                except DomainError:
                    continue
                t = coproduct(s)
                want = coproduct(s, folds=3)
                assert tensor_split_leg(t, 0) == want, (p, twice, eps)
                assert tensor_split_leg(t, 1) == want, (p, twice, eps)
                seen += not want.is_zero()
        assert seen == nonzero, (p, n)


def test_coproduct_folds_guard():
    u = upper(Context(3, 1), (1,))
    for folds in (0, -1):
        with pytest.raises(DomainError, match="folds >= 1"):
            coproduct(u, folds=folds)
    assert coproduct(u, folds=1).terms == {((u.twice, u.eps),): 1}


def rho_tensor(t):
    """Straighten every leg of a lower tensor, distributing."""
    out = TensorPoly(t.ctx, t.folds)
    for legs, coeff in t.terms.items():
        factors = [
            adem_straighten_classical(OpPoly.from_seq(OpSeq(t.ctx, tw, ep)))
            for tw, ep in legs
        ]
        pools = [f.sorted_terms() for f in factors]
        for picks in itertools.product(*pools):
            c = coeff
            for _, ci in picks:
                c *= ci
            out.add_term(tuple(k for k, _ in picks), c)
    return out


def test_coproduct_commutes_with_straightening():
    # psi rho = rho psi on length-2 inputs, integral entries <= 6, eps = 0
    for p in (2, 3):
        ctx = Context(p, 2)
        for twice in itertools.product(range(0, 13, 2), repeat=2):
            s = OpSeq(ctx, twice, (0, 0))
            via_psi = rho_tensor(coproduct(s))
            via_rho = rho_tensor(coproduct(adem_straighten_classical(OpPoly.from_seq(s))))
            assert via_psi == via_rho, (p, s.twice)


def test_straighten_kills_negative_excess():
    # e_1 e_0 at p=3 dies; its coproduct image dies leg by leg too
    s = OpSeq(P3N2, (2, 0), (0, 0))
    assert adem_straighten_classical(OpPoly.from_seq(s)).is_zero()
    assert rho_tensor(coproduct(s)) == rho_tensor(
        coproduct(OpPoly(P3N2))
    )
