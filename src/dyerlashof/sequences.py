"""Index sequences for iterated mod-p Dyer-Lashof operations.

A length-n operation in lower notation is e_{j_1} e_{j_2} ... e_{j_n}
(optionally with a Bockstein in front of individual factors), where each
j_t is a non-negative integer or, for odd p, a half integer.  The same
monomial in upper notation is f^{i_1} ... f^{i_n} with

    i_t = j_t + |suffix after position t| / 2.

Upper notation is only a way of writing input.  ``OpSeq``, the one
sequence type, holds lower notation; lower_to_upper and upper_to_lower
convert plain (ctx, twice, eps) entries.  The sequence rules are stated
here once each: check_entries, first_defect, integral_lower_need,
upper_parity and is_zero_by_excess.

To keep all arithmetic exact, entries are stored doubled: the sequence
(3, 1/2) is stored as twice = (6, 1).  Bocksteins are a parallel 0/1
tuple ``eps``; eps_t = 1 means a Bockstein in front of the t-th factor.

    >>> ctx = Context(3, 2)
    >>> s = OpSeq.from_values(ctx, [0, 2])
    >>> degree_lower(s)
    24
    >>> lower_to_upper(ctx, s.twice, s.eps)
    (8, 4)
"""

from __future__ import annotations

from operator import lt, mul, sub

from .arith import Context, DomainError, Frozen

__all__ = [
    "OpSeq",
    "ParseError",
    "check_entries",
    "degree_lower",
    "first_defect",
    "is_admissible",
    "integral_lower_need",
    "term_order",
    "lower_to_upper",
    "upper_to_lower",
    "upper_parity",
    "is_zero_by_excess",
]


_BITS = frozenset((0, 1))


def _halves_str(twice) -> str:
    return "(" + ",".join(entry_str(t) for t in twice) + ")"


def entry_str(twice_value: int) -> str:
    """Render a doubled entry as '3' or '3/2'."""
    if twice_value % 2 == 0:
        return str(twice_value // 2)
    return f"{twice_value}/2"


class ParseError(DomainError):
    """Syntax or range error in an element expression, at a byte offset."""

    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (byte {offset})")
        self.offset = offset


_DIGITS = frozenset("0123456789")


def scan_natural(text: str, i: int) -> tuple[int, int]:
    """Read the ASCII digits at text[i:]: (value, offset past them).
    str.isdigit would also accept superscripts and other scripts'
    digits, which int() refuses or reads silently."""
    end = i
    while end < len(text) and text[end] in _DIGITS:
        end += 1
    if end == i:
        raise ParseError("expected a number", i)
    try:
        return int(text[i:end]), end
    except ValueError:  # longer than int()'s digit limit
        raise ParseError("number too long", i) from None


def scan_entry(text: str, i: int) -> tuple[int, int]:
    """Read one entry at text[i:], the package's one entry grammar: ASCII
    digits, optionally followed by '/2', with no blank inside.  Returns
    the doubled entry and the offset past it: '3' -> 6, '3/2' -> 3."""
    value, end = scan_natural(text, i)
    if not text.startswith("/", end):
        return 2 * value, end
    den = end + 1
    _, end = scan_natural(text, den)
    if text[den:end] != "2":
        raise ParseError("only halves are allowed", den)
    return value, end


def entry_from_str(text: str) -> int:
    """Parse '3' or '3/2' into a doubled entry, by scan_entry's grammar;
    blanks may stand around the entry."""
    body = text.strip()
    try:
        twice, end = scan_entry(body, 0)
        if end == len(body):
            return twice
    except ParseError:
        pass
    raise DomainError(f"entry must be like 3 or 3/2, got {text!r}")


def check_entries(ctx: Context, twice: tuple[int, ...], eps: tuple[int, ...]) -> None:
    """Raise DomainError unless twice holds n doubled entries >= 0 and eps
    n flags 0 or 1 that ctx admits: no half entry or Bockstein at p = 2.
    The one statement of these checks, in either notation."""
    if len(twice) != ctx.n:
        raise DomainError(f"expected {ctx.n} entries, got {len(twice)}")
    if len(eps) != ctx.n:
        raise DomainError(f"expected {ctx.n} eps flags, got {len(eps)}")
    if not _BITS.issuperset(eps):
        raise DomainError(f"eps flags must be 0 or 1, got {eps}")
    if min(twice) < 0:
        raise DomainError(f"entries must be >= 0, got {_halves_str(twice)}")
    if ctx.p == 2:
        if 1 in eps:
            raise DomainError("p = 2 sequences cannot carry Bocksteins")
        if any(t % 2 for t in twice):
            raise DomainError("p = 2 entries must be integers")


class OpSeq(Frozen):
    """Lower-notation index sequence with doubled entries and its eps
    flags, checked on construction (check_entries)."""

    __slots__ = ("ctx", "twice", "eps")

    def __init__(self, ctx: Context, twice: tuple[int, ...], eps: tuple[int, ...]):
        check_entries(ctx, twice, eps)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "twice", twice)
        object.__setattr__(self, "eps", eps)

    def __repr__(self):
        return (
            f"{type(self).__name__}(ctx={self.ctx!r}, "
            f"twice={self.twice!r}, eps={self.eps!r})"
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.ctx, self.twice, self.eps) == (other.ctx, other.twice, other.eps)

    def __hash__(self):
        return hash((self.ctx, self.twice, self.eps))

    def __reduce__(self):
        return type(self), (self.ctx, self.twice, self.eps)

    @classmethod
    def from_values(cls, ctx: Context, values, eps=None):
        """Build from plain values: ints, or strings like '3/2'."""
        twice = tuple(
            entry_from_str(v) if isinstance(v, str) else 2 * v for v in values
        )
        eps = (0,) * ctx.n if eps is None else tuple(int(e) for e in eps)
        return cls(ctx, twice, eps)

    def key(self) -> tuple[int, ...]:
        """Per-position tail excess vector (2 j_t - eps_t).  Sequences are
        ordered by it lexicographically; this is a total preorder:
        sequences differing only in how an excess value is split between
        entry and Bockstein have equal keys."""
        return tuple(t - e for t, e in zip(self.twice, self.eps))


def degree_lower(s: OpSeq) -> int:
    """Topological degree of e_{I,eps}: sum j_t |h_t| - sum eps_t p^(t-1),
    an integer even with half entries; p^(t-1) = |h_t| / |h_1| at odd p."""
    w = s.ctx.weights
    return sum(map(mul, s.twice, w)) // 2 - sum(map(mul, s.eps, w)) // w[0]


def first_defect(twice, eps, start: int = 0) -> int | None:
    """The first t >= start where the admissibility rule
    2 j_(t+1) - 2 j_t + eps_t >= 0 fails, or None (the package's one
    statement of the rule; the classical engine rewrites there)."""
    for t in range(start, len(twice) - 1):
        if twice[t + 1] - twice[t] + eps[t] < 0:
            return t
    return None


def integral_lower_need(s: OpSeq) -> str | None:
    """What s lacks for the domain of the invariant side (the pairing, its
    dual basis and the paper's straightening): "eps = 0" when it has a
    Bockstein, else "integral entries" when it has a half entry; None
    inside the domain.  The package's one statement of that domain."""
    if any(s.eps):
        return "eps = 0"
    if any(t % 2 for t in s.twice):
        return "integral entries"
    return None


def upper_parity(twice, eps) -> int | None:
    """The parity that every doubled upper entry 2 i_t of the lower
    sequence (twice, eps) shares: 0 when the upper entries are integers,
    1 when all are halves, None when they mix.  At odd p, 2 i_t has the
    parity of 2 j_t plus the number of Bocksteins right of t; p = 2
    sequences carry none.  The package's one statement of the rule."""
    parities = {(t + sum(eps[i + 1 :])) % 2 for i, t in enumerate(twice)}
    return parities.pop() if len(parities) == 1 else None


def is_zero_by_excess(twice, eps) -> bool:
    """Whether some factor of the lower sequence (twice, eps) has
    2 j_t - eps_t < 0: a negative entry, or beta applied to a p-th power.
    Either makes the whole operation zero.  The package's one statement
    of the rule."""
    return any(map(lt, twice, eps))


def is_admissible(s: OpSeq) -> bool:
    """True when no pair of s breaks the rule of first_defect.

    Length-1 sequences are always admissible.  With all eps zero this
    says the entries are weakly increasing.
    """
    return first_defect(s.twice, s.eps) is None


def term_order(twice, eps) -> tuple:
    """Sort key of the canonical order of a sum's terms: the tail-excess
    vector (see OpSeq.key), then the entries, then eps."""
    return tuple(map(sub, twice, eps)), twice, eps


def _entry_degree(ctx: Context, twice: int, eps: int) -> int:
    """Degree of one factor standing first: j |h_1| - eps."""
    return twice * ctx.weights[0] // 2 - eps


def lower_to_upper(ctx: Context, twice, eps) -> tuple[int, ...]:
    """The doubled upper entries of the lower sequence (twice, eps):
    i_t = j_t + |suffix|/2; the eps flags are the same in both notations.

    One pass from the right keeps the degree D of the standalone suffix
    after position t: D_t = deg(entry t+1) + p D_(t+1).  Raises
    DomainError, naming the leftmost position, if a negative upper entry
    would be produced.
    """
    scale = 2 if ctx.p == 2 else 1
    twice_up = list(twice)
    suffix = 0
    bad = None
    for t in range(ctx.n - 2, -1, -1):
        suffix = _entry_degree(ctx, twice[t + 1], eps[t + 1]) + ctx.p * suffix
        twice_up[t] += scale * suffix
        if twice_up[t] < 0:
            bad = t
    if bad is not None:
        raise DomainError(f"upper entry {bad + 1} is negative")
    return tuple(twice_up)


def upper_to_lower(ctx: Context, twice, eps) -> tuple[int, ...]:
    """The doubled lower entries of the upper sequence (twice, eps), the
    inverse of lower_to_upper.

    Peels from the right: once positions t+1..n are known in lower form,
    the degree D_t of that standalone suffix (as in lower_to_upper) is
    the shift at position t.  Total: an upper sequence whose lower form
    has a negative entry gets it, which OpSeq refuses and
    is_zero_by_excess reads as zero.
    """
    scale = 2 if ctx.p == 2 else 1
    twice_low = list(twice)
    suffix = 0
    for t in range(ctx.n - 2, -1, -1):
        suffix = _entry_degree(ctx, twice_low[t + 1], eps[t + 1]) + ctx.p * suffix
        twice_low[t] -= scale * suffix
    return tuple(twice_low)
