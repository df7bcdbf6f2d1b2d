"""Parsing and rendering of element expressions.

Grammar: sequences `e[3,1]`, `Q[3/2,1;eps=01]` (entries are integers or
halves `k/2`, read by sequences.scan_entry; the eps block is n
concatenated bits) and Dickson monomials `d1^3*d0` (indices 0..n-1).
Whitespace between tokens is insignificant, but an entry holds none;
parse errors carry byte offsets.  Borel monomials `h1^3*h2` (indices
1..n) are only rendered.

Rendering is canonical: operation terms ascend by OpSeq.key, monomials
ascend in reverse-lex exponent order, coefficients sit in 1..p-1 and a
zero element renders as `0`.
"""

from __future__ import annotations

from operator import getitem

from .arith import Context
from .correspondence import DualExpansion
from .invariants import BPoly, DPoly
from .opalgebra import OpPoly, TensorPoly
from .sequences import (
    OpSeq,
    ParseError,
    check_entries,
    entry_from_str,
    entry_str,
    scan_entry,
    scan_natural,
)

__all__ = [
    "ParseError",
    "parse_sequence",
    "parse_any_sequence",
    "parse_dickson",
    "render_seq",
    "render_op_poly",
    "render_dual",
    "render_bpoly",
    "render_dickson_combo",
    "render_tensor",
    "seq_to_json",
    "entries_to_json",
    "seq_from_json",
    "op_poly_to_json",
    "dual_to_json",
    "bpoly_to_json",
    "dickson_combo_to_json",
    "dickson_combo_from_json",
    "tensor_to_json",
]


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def _skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        if ch:
            self.i += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError(f"expected {ch!r}, got {got!r}", self.i)
        self.i += 1

    def integer(self) -> int:
        self._skip_ws()
        value, self.i = scan_natural(self.text, self.i)
        return value

    def entry(self) -> int:
        """One sequence entry, returned doubled (sequences.scan_entry)."""
        self._skip_ws()
        twice, self.i = scan_entry(self.text, self.i)
        return twice

    def done(self):
        self._skip_ws()
        if self.i < len(self.text):
            raise ParseError("trailing input", self.i)


def _parse_seq_body(cur: _Cursor, ctx: Context):
    twice = [cur.entry()]
    while cur.peek() == ",":
        cur.take()
        twice.append(cur.entry())
    eps = [0] * len(twice)
    if cur.peek() == ";":
        cur.take()
        for ch in "eps=":
            cur.expect(ch)
        for t in range(len(twice)):
            off = cur.i
            bit = cur.take()
            if bit not in ("0", "1"):
                raise ParseError("eps bits must be 0 or 1", off)
            eps[t] = int(bit)
    off = cur.i
    cur.expect("]")
    cur.done()
    if len(twice) != ctx.n:
        raise ParseError(f"expected {ctx.n} entries, got {len(twice)}", off)
    return tuple(twice), tuple(eps)


def _parse_head(cur: _Cursor, lower_only: bool) -> bool:
    """Read a sequence head and its `[`: False for lower notation `e[`
    or `Q[`, True for upper notation `E[` or `Qu[`, which lower_only
    refuses."""
    head = cur.take()
    start = cur.i - len(head)
    if head == "Q" and cur.peek() == "u":
        head += cur.take()
    if head not in ("e", "Q", "E", "Qu"):
        expected = "'e[' or 'Q['" if lower_only else "e[, Q[, E[ or Qu["
        raise ParseError(f"expected {expected}", start)
    upper = head in ("E", "Qu")
    if upper and lower_only:
        raise ParseError(f"upper-notation {head}[...] is not a lower sequence", start)
    cur.expect("[")
    return upper


def parse_sequence(text: str, ctx: Context) -> OpSeq:
    """A lower-notation sequence `e[...]` or `Q[...]`."""
    cur = _Cursor(text)
    _parse_head(cur, lower_only=True)
    return OpSeq(ctx, *_parse_seq_body(cur, ctx))


def parse_any_sequence(
    text: str, ctx: Context
) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Lower `e[...]`/`Q[...]` or upper `E[...]`/`Qu[...]`: the doubled
    entries and eps flags as written, checked by check_entries, and True
    for upper notation."""
    cur = _Cursor(text)
    upper = _parse_head(cur, lower_only=False)
    twice, eps = _parse_seq_body(cur, ctx)
    check_entries(ctx, twice, eps)
    return twice, eps, upper


def parse_dickson(text: str, ctx: Context) -> tuple[int, ...]:
    """`d1^3*d0` -> exponent vector over d_{n,0}..d_{n,n-1}; `1` -> 0^n.

    Repeated factors accumulate.
    """
    cur = _Cursor(text)
    if cur.peek() == "1":
        cur.take()
        cur.done()
        return (0,) * ctx.n
    cur.i = 0  # a factor's error offset includes the blanks before it
    m = [0] * ctx.n
    while True:
        off = cur.i
        if cur.peek() != "d":
            raise ParseError("expected 'd'", cur.i)
        cur.take()
        idx = cur.integer()
        if not 0 <= idx <= ctx.n - 1:
            raise ParseError(f"index {idx} out of range 0..{ctx.n - 1}", off)
        e = 1
        if cur.peek() == "^":
            cur.take()
            e = cur.integer()
        m[idx] += e
        if cur.peek() != "*":
            break
        cur.take()
    cur.done()
    return tuple(m)


# ---------------------------------------------------------------------------
# Text rendering


def _render_entries(twice, eps) -> str:
    """`Q[entries]`, with `;eps=bits` when some eps bit is set."""
    body = ",".join(entry_str(t) for t in twice)
    if any(eps):
        body += ";eps=" + "".join(str(b) for b in eps)
    return f"Q[{body}]"


def render_seq(s: OpSeq) -> str:
    """`Q[...]`, lower syntax."""
    return _render_entries(s.twice, s.eps)


def _render_sum(items, render_key) -> str:
    """Every printed sum: `c*key + ...` over (key, c) items in order, `0`
    when there are none.  A coefficient 1 is left out, and a key that
    renders as `1` (the unit monomial) prints as its coefficient alone."""
    out = []
    for key, c in items:
        body = render_key(key)
        if body == "1":
            out.append(str(c))
        elif c == 1:
            out.append(body)
        else:
            out.append(f"{c}*{body}")
    return " + ".join(out) if out else "0"


def render_op_poly(x: OpPoly) -> str:
    return _render_sum(x.sorted_terms(), lambda key: _render_entries(*key))


def render_dual(d: DualExpansion) -> str:
    return _render_sum(d.sorted_terms(), lambda s: f"({render_seq(s)})*")


def _render_indexed_monomial(head: str, indices_exps) -> str:
    parts = [
        f"{head}{i}" + (f"^{e}" if e != 1 else "") for i, e in indices_exps if e
    ]
    return "*".join(parts) if parts else "1"


def render_bpoly(x: BPoly) -> str:
    """x.terms must list the terms in canonical order, as an expansion's
    do (expand_dickson_monomial); they are printed in that order, not
    sorted again.  Each piece `h{t}^{e}*` is formatted once per call,
    into a table per position t that maps every exponent met there to
    its piece (0 to nothing).  A monomial joins its pieces and drops the
    last `*`; the unit monomial, with no pieces, prints as `1`."""
    items = x.terms.items()
    columns = zip(*[exps for exps, _ in items])
    pieces = [
        {e: f"h{t}^{e}*" if e != 1 else f"h{t}*" for e in set(col) if e} | {0: ""}
        for t, col in enumerate(columns, start=1)
    ]
    return _render_sum(
        items, lambda exps: "".join(map(getitem, pieces, exps))[:-1] or "1"
    )


def render_dickson_combo(x: DPoly) -> str:
    return _render_sum(
        x.sorted_terms(), lambda m: _render_indexed_monomial("d", enumerate(m))
    )


def render_dickson_monomial(m) -> str:
    return _render_indexed_monomial("d", enumerate(m))


def render_tensor(t: TensorPoly) -> str:
    """Render a tensor, such as a coproduct; its legs are lower-notation
    (twice, eps) pairs, printed in the Q[...] syntax."""
    return _render_sum(
        t.sorted_terms(),
        lambda legs: " (x) ".join(_render_entries(*leg) for leg in legs),
    )


# ---------------------------------------------------------------------------
# JSON forms (entries as decimal strings, halves as "3/2")


def entries_to_json(twice, eps) -> dict:
    """Doubled entries and eps flags, in either notation."""
    return {"seq": [entry_str(t) for t in twice], "eps": list(eps)}


def seq_to_json(s: OpSeq) -> dict:
    return entries_to_json(s.twice, s.eps)


def seq_from_json(obj: dict, ctx: Context) -> OpSeq:
    twice = tuple(entry_from_str(e) for e in obj["seq"])
    eps = tuple(int(b) for b in obj.get("eps", [0] * len(twice)))
    return OpSeq(ctx, twice, eps)


def op_poly_to_json(x: OpPoly) -> list:
    return [{"coeff": c, **entries_to_json(*key)} for key, c in x.sorted_terms()]


def dual_to_json(d: DualExpansion) -> list:
    return [{"coeff": c, **seq_to_json(s)} for s, c in d.sorted_terms()]


def bpoly_to_json(x: BPoly) -> list:
    """The terms in x.terms's order, which must be canonical (see
    render_bpoly).  Each exponent tuple goes to the encoder as it is:
    ``json`` writes a tuple as an array."""
    return [{"coeff": c, "exps": exps} for exps, c in x.terms.items()]


def dickson_combo_to_json(x: DPoly) -> list:
    return [{"coeff": c, "m": m} for m, c in x.sorted_terms()]


def dickson_combo_from_json(items: list) -> dict[tuple[int, ...], int]:
    return {tuple(obj["m"]): int(obj["coeff"]) for obj in items}


def tensor_to_json(t: TensorPoly) -> list:
    return [
        {"coeff": c, "legs": [entries_to_json(*leg) for leg in legs]}
        for legs, c in t.sorted_terms()
    ]
