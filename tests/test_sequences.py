"""Tests for sequence bookkeeping: degree, excess, conversion, families."""

import copy
import itertools
import pickle
import re
from fractions import Fraction

import pytest

from dyerlashof.arith import Context, DomainError
from dyerlashof.sequences import (
    OpSeq,
    degree_lower,
    entry_from_str,
    entry_str,
    family,
    first_defect,
    is_admissible,
    lower_to_upper,
    upper_to_lower,
)

P3N2 = Context(3, 2)
P2N2 = Context(2, 2)


def seq(ctx, values, eps=None):
    return OpSeq.from_values(ctx, values, eps)


def upper_degree(ctx, twice, eps):
    """Topological degree of f^{I,eps}: each factor f^i contributes
    2 i (p-1) (just i for p = 2), a Bockstein subtracts 1."""
    p = ctx.p
    if p == 2:
        return sum(t // 2 for t in twice)
    return (p - 1) * sum(twice) - sum(eps)


def excess(s):
    """Excess 2 j_1 - eps_1 of a lower sequence, in doubled form."""
    return s.twice[0] - s.eps[0]


def test_validation():
    with pytest.raises(DomainError, match="p = 2 entries must be integers"):
        OpSeq(P2N2, (3, 0), (0, 0))  # half entry at p=2
    with pytest.raises(DomainError, match="p = 2 sequences cannot carry Bocksteins"):
        OpSeq(P2N2, (2, 0), (1, 0))  # Bockstein at p=2
    with pytest.raises(DomainError, match="entries must be >= 0"):
        OpSeq(P3N2, (-2, 0), (0, 0))  # negative entry
    with pytest.raises(DomainError, match="expected 2 entries, got 3"):
        OpSeq(P3N2, (2, 0, 0), (0, 0, 0))  # wrong length
    with pytest.raises(DomainError, match="expected 2 eps flags, got 1"):
        OpSeq(P3N2, (2, 0), (0,))  # wrong eps length
    with pytest.raises(DomainError, match="eps flags must be 0 or 1"):
        OpSeq(P3N2, (2, 0), (0, 2))  # eps not a bit
    with pytest.raises(DomainError, match="eps flags must be 0 or 1"):
        OpSeq(P3N2, (2, 0), (-1, 0))  # negative eps
    # a bad eps is reported before a negative entry or a p = 2 rule
    with pytest.raises(DomainError, match="eps flags must be 0 or 1"):
        OpSeq(P2N2, (-3, 0), (2, 0))
    # half entries are fine at odd p
    OpSeq(P3N2, (3, 1), (1, 1))


def test_sequences_are_immutable_values():
    s = OpSeq(P3N2, (2, 4), (0, 0))
    assert repr(s) == "OpSeq(ctx=Context(p=3, n=2), twice=(2, 4), eps=(0, 0))"
    twin = OpSeq(Context(3, 2), (2, 4), (0, 0))
    assert s == twin and hash(s) == hash(twin)
    assert s != OpSeq(P3N2, (2, 4), (1, 0))
    for name in ("ctx", "twice", "eps", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, (0, 0))
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert (s.twice, s.eps) == ((2, 4), (0, 0))
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert type(copied) is OpSeq
        assert copied == s and hash(copied) == hash(s)


def test_entry_strings():
    assert entry_str(6) == "3"
    assert entry_str(3) == "3/2"
    assert entry_str(0) == "0"
    assert entry_from_str("3") == 6
    assert entry_from_str("3/2") == 3
    for twice in range(30):
        assert entry_from_str(entry_str(twice)) == twice


def test_bad_entry_string_is_named():
    # a malformed entry raises DomainError naming it, not int()'s ValueError;
    # from "1_0" on, int() would read 10, 11/2, 3, 3 (Arabic-Indic), -1, 3/2
    for bad in ("3/4", "5/2/2", "x", "", "/2", "1_0", "1_1/2", "+3", "\u0663",
                "-1", "3 /2", "3 / 2", "3/ 2", "3/0002", "3/02", "3/2 2"):
        named = re.escape(f"got {bad!r}")
        with pytest.raises(DomainError, match=named):
            entry_from_str(bad)
        with pytest.raises(DomainError, match=named):
            OpSeq.from_values(P3N2, (bad, "1"))


def test_degree_lower_examples():
    assert degree_lower(seq(P3N2, (0, 2))) == 24
    assert degree_lower(seq(P2N2, (1, 1))) == 3
    assert degree_lower(family("I", (1,), P3N2)) == 12  # 2 p^i (p^(n-i) - 1)
    assert degree_lower(seq(Context(3, 3), (0, 0, 0))) == 0


def test_degree_lower_with_bocksteins_and_halves_at_n6():
    twice, eps = (1, 3, 2, 5, 4, 7), (1, 0, 1, 0, 0, 1)
    for p in (3, 5, 7):
        j = [Fraction(t, 2) for t in twice]
        want = 2 * (p - 1) * sum(j[t] * p**t for t in range(6)) - sum(
            eps[t] * p**t for t in range(6)
        )
        assert degree_lower(OpSeq(Context(p, 6), twice, eps)) == want


def test_conversion_examples():
    assert lower_to_upper(P3N2, (0, 4), (0, 0)) == (8, 4)
    assert lower_to_upper(Context(5, 3), (0, 0, 0), (0, 0, 0)) == (0, 0, 0)
    assert upper_to_lower(P2N2, (8, 2), (0, 0)) == (6, 2)


def test_conversion_out_of_range():
    # upper (0, 1) at p=2 would need lower entry -1
    with pytest.raises(DomainError):
        upper_to_lower(P2N2, (0, 2), (0, 0))


def all_lower(ctx, max_twice):
    """Every valid lower sequence with twice entries <= max_twice."""
    n = ctx.n
    step = 2 if ctx.p == 2 else 1
    entries = range(0, max_twice + 1, step)
    eps_choices = [(0,) * n] if ctx.p == 2 else list(itertools.product((0, 1), repeat=n))
    for twice in itertools.product(entries, repeat=n):
        for eps in eps_choices:
            yield OpSeq(ctx, twice, eps)


def suffix_degrees(s):
    n = s.ctx.n
    for start in range(1, n):
        tail = OpSeq(Context(s.ctx.p, n - start), s.twice[start:], s.eps[start:])
        yield degree_lower(tail)


def test_roundtrip_exhaustive():
    # entries <= 10 (twice <= 20), n <= 3; degree agrees across notations.
    # A Bockstein-heavy suffix of negative degree (e.g. beta on e_0) has
    # no upper form; the conversion must flag exactly those.
    for p in (2, 3):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            bound = 20 if n <= 2 else 8
            for s in all_lower(ctx, bound):
                try:
                    up = lower_to_upper(ctx, s.twice, s.eps)
                except DomainError:
                    assert min(suffix_degrees(s)) < 0
                    continue
                assert upper_to_lower(ctx, up, s.eps) == s.twice
                assert upper_degree(ctx, up, s.eps) == degree_lower(s)


def test_admissible_examples():
    assert is_admissible(seq(P3N2, (0, 2)))
    assert not is_admissible(seq(P3N2, (3, 1)))
    assert is_admissible(seq(Context(3, 3), (1, 1, 2)))
    # Bockstein relaxes the constraint by one half step
    assert is_admissible(OpSeq(P3N2, (2, 1), (1, 0)))
    assert not is_admissible(OpSeq(P3N2, (2, 1), (0, 1)))


def test_first_defect():
    # doubled entries: e[2] e[1] e[0] breaks at both pairs, e[1/2] e[1/2]
    # e[0] only at the second, and a Bockstein on the left of that pair
    # relaxes the rule by one half step
    assert first_defect((4, 2, 0), (0, 0, 0)) == 0
    assert first_defect((4, 2, 0), (0, 0, 0), start=1) == 1
    assert first_defect((1, 1, 0), (0, 0, 0)) == 1
    assert first_defect((1, 1, 0), (0, 1, 0)) is None
    assert first_defect((2, 1), (1, 0)) is None
    assert first_defect((2, 1), (0, 1)) == 0
    assert first_defect((3,), (1,)) is None
    assert first_defect((), ()) is None
    assert first_defect((0, 2, 0), (0, 0, 0), start=2) is None
    for s in all_lower(Context(3, 3), 6):
        pos = first_defect(s.twice, s.eps)
        assert is_admissible(s) == (pos is None)
        if pos is not None:
            assert s.twice[pos + 1] - s.twice[pos] + s.eps[pos] < 0
            assert first_defect(s.twice, s.eps, pos) == pos
            assert first_defect(s.twice, s.eps, pos + 1) != pos


def test_admissible_is_monotone_for_eps_zero():
    for s in all_lower(Context(3, 3), 6):
        if any(s.eps):
            continue
        assert is_admissible(s) == (sorted(s.twice) == list(s.twice))


def test_compare_examples():
    # sequences compare by their keys, the tail-excess vectors
    assert seq(P3N2, (1, 2)).key() == (2, 4)
    assert seq(P3N2, (0, 3)).key() < seq(P3N2, (2, 2)).key()
    assert seq(P3N2, (1, 2)).key() > seq(P3N2, (0, 3)).key()
    # an excess split differently between entry and Bockstein: equal keys
    assert OpSeq(P3N2, (2, 2), (1, 0)).key() == OpSeq(P3N2, (1, 2), (0, 0)).key()


def test_compare_total_preorder():
    # keys order sequences by a total preorder, antisymmetric on the
    # admissibles of one fixed degree and length
    pool = list(all_lower(Context(3, 2), 5))
    fixed = [s for s in pool if is_admissible(s) and degree_lower(s) == 24]
    for a in fixed:
        for b in fixed:
            if a.key() == b.key():
                assert a == b


def test_family_examples():
    i21 = family("I", (1,), P3N2)
    assert (i21.twice, i21.eps) == ((0, 2), (0, 0))
    o32 = family("O", (2,), Context(3, 3))
    assert (o32.twice, o32.eps) == ((0, 2, 0), (0, 0, 0))
    assert degree_lower(o32) == 12  # 2 p^(i-1) (p-1)
    k201 = family("K", (0, 1), P3N2)
    assert (k201.twice, k201.eps) == ((1, 2), (1, 1))
    assert degree_lower(k201) == 10  # 2 (p^i (p^(n-i) - 1) - p^s)


def test_family_closed_forms():
    # stated degree and excess formulas, all in-range parameters
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            ctx = Context(p, n)
            for i in range(n):
                s = family("I", (i,), ctx)
                assert degree_lower(s) == 2 * p**i * (p ** (n - i) - 1) // (
                    2 if p == 2 else 1
                )
                if i >= 1:
                    assert excess(s) == 0
            for i in range(1, n + 1):
                s = family("O", (i,), ctx)
                expected = 2 * p ** (i - 1) * (p - 1)
                assert degree_lower(s) == (expected // 2 if p == 2 else expected)
                if i >= 2:
                    assert excess(s) == 0
            if p == 2:
                continue
            for i in range(n):
                s = family("J", (i,), ctx)
                assert degree_lower(s) == 2 * p**i * (p ** (n - i) - 1) - 1
                assert excess(s) == 1
            for i in range(1, n + 1):
                s = family("J0", (i,), ctx)
                assert degree_lower(s) == 2 * p ** (i - 1) * (p - 1) - 1
                assert excess(s) == 1
            for i in range(n):
                for sdx in range(i):
                    s = family("K", (sdx, i), ctx)
                    assert degree_lower(s) == 2 * (p**i * (p ** (n - i) - 1) - p**sdx)
                    assert excess(s) == 0
            for i in range(2, n + 1):
                for sdx in range(i - 1):
                    s = family("K0", (sdx, i), ctx)
                    assert degree_lower(s) == 2 * (p**i - p**sdx - p ** (i - 1))
                    assert excess(s) == 0


def test_family_guards():
    with pytest.raises(DomainError):
        family("I", (2,), P3N2)
    with pytest.raises(DomainError):
        family("J", (0,), P2N2)  # needs odd p
    with pytest.raises(DomainError):
        family("K", (1, 1), P3N2)  # needs s < i
    with pytest.raises(DomainError):
        family("X", (0,), P3N2)
