"""Tests for parsing, rendering, and the JSON forms."""

import random

import pytest

from dyerlashof.arith import Context, DomainError
from dyerlashof.correspondence import DualExpansion, dual_of_dickson
from dyerlashof.invariants import BPoly, DPoly, expand_dickson_monomial
from dyerlashof.opalgebra import OpPoly, TensorPoly, adem_straighten_classical, coproduct
from dyerlashof.sequences import OpSeq
from dyerlashof.textio import (
    ParseError,
    bpoly_to_json,
    dickson_combo_from_json,
    dickson_combo_to_json,
    dual_to_json,
    op_poly_to_json,
    parse_any_sequence,
    parse_dickson,
    parse_sequence,
    render_bpoly,
    render_dickson_combo,
    render_dickson_monomial,
    render_dual,
    render_op_poly,
    render_seq,
    render_tensor,
    seq_from_json,
    seq_to_json,
    tensor_to_json,
)

P3N2 = Context(3, 2)
P2N2 = Context(2, 2)


def test_parse_sequence():
    s = parse_sequence("e[3,1]", P3N2)
    assert (s.twice, s.eps) == ((6, 2), (0, 0))
    s = parse_sequence("Q[0,2]", P3N2)
    assert (s.twice, s.eps) == ((0, 4), (0, 0))
    s = parse_sequence("e[3/2,1;eps=01]", P3N2)
    assert (s.twice, s.eps) == ((3, 2), (0, 1))
    s = parse_sequence(" Q[ 0 , 2 ] ", P3N2)
    assert s.twice == (0, 4)


def test_parse_upper():
    # the entries as written, and whether the notation is upper
    assert parse_any_sequence("E[4,2]", P3N2) == ((8, 4), (0, 0), True)
    assert parse_any_sequence("Qu[1;eps=1]", Context(3, 1)) == ((2,), (1,), True)
    assert parse_any_sequence("Q[0,2]", P3N2) == ((0, 4), (0, 0), False)
    # the entry checks of a sequence hold in either notation
    with pytest.raises(DomainError, match="p = 2 entries must be integers"):
        parse_any_sequence("E[1/2,1]", P2N2)
    with pytest.raises(DomainError, match="cannot carry Bocksteins"):
        parse_any_sequence("Qu[1,1;eps=01]", P2N2)
    with pytest.raises(ParseError):
        parse_sequence("E[4,2]", P3N2)  # lower-only entry point


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        parse_sequence("e[3,1", P3N2)
    assert e.value.offset == 5
    with pytest.raises(ParseError) as e:
        parse_sequence("e[3,1,0]", P3N2)
    assert e.value.offset == 7
    with pytest.raises(ParseError):
        parse_sequence("e[3,x]", P3N2)
    with pytest.raises(ParseError):
        parse_sequence("e[3/4,1]", P3N2)  # only halves allowed
    with pytest.raises(ParseError):
        parse_sequence("e[1,1;eps=2]", P3N2)  # eps digits are bits


# spellings of 3/2 that both routes refuse: the one entry grammar
# (sequences.scan_entry) allows blanks around an entry, not inside it, and
# a denominator spelt 2 only
REFUSED_HALVES = ["3 / 2", "3 /2", "3/ 2", "3\t/2", "3/0002", "3/02"]


@pytest.mark.parametrize("entry", REFUSED_HALVES)
def test_one_entry_grammar(entry):
    with pytest.raises(ParseError):
        parse_sequence(f"e[{entry},1]", P3N2)
    with pytest.raises(DomainError, match="entry must be like 3 or 3/2"):
        seq_from_json({"seq": [entry, "1"]}, P3N2)


def test_blanks_around_an_entry():
    assert parse_sequence("e[ 3/2 ,1]", P3N2).twice == (3, 2)
    assert seq_from_json({"seq": [" 3/2 ", "1"]}, P3N2).twice == (3, 2)


def test_denominator_errors_keep_their_offsets():
    for text, message in (
        ("e[3/4,1]", "only halves are allowed (byte 4)"),
        ("e[3/02,1]", "only halves are allowed (byte 4)"),
        ("e[3/,1]", "expected a number (byte 4)"),
        ("e[3 /2,1]", "expected ']', got '/' (byte 4)"),
    ):
        with pytest.raises(ParseError) as e:
            parse_sequence(text, P3N2)
        assert str(e.value) == message


def test_parse_dickson():
    assert parse_dickson("d1^3", P2N2) == (0, 3)
    assert parse_dickson("d0*d1^2", P3N2) == (1, 2)
    assert parse_dickson("1", P3N2) == (0, 0)
    assert parse_dickson("d1*d1", P3N2) == (0, 2)  # repeats accumulate
    with pytest.raises(ParseError):
        parse_dickson("d2", P3N2)  # index out of range


def test_render_seq():
    assert render_seq(OpSeq(P3N2, (0, 4), (0, 0))) == "Q[0,2]"
    assert render_seq(OpSeq(P3N2, (3, 2), (0, 1))) == "Q[3/2,1;eps=01]"
    # parse of a render is the identity
    for s in (OpSeq(P3N2, (1, 2), (1, 0)), OpSeq(P2N2, (4, 6), (0, 0))):
        assert parse_sequence(render_seq(s), s.ctx) == s


def test_render_op_poly():
    out = adem_straighten_classical(OpPoly.from_seq(OpSeq(P3N2, (6, 2), (0, 0))))
    assert render_op_poly(out) == "2*Q[0,2]"
    assert render_op_poly(OpPoly(P3N2)) == "0"
    two = OpPoly.from_seq(OpSeq(P2N2, (0, 6), (0, 0))) + OpPoly.from_seq(
        OpSeq(P2N2, (4, 4), (0, 0))
    )
    assert render_op_poly(two) == "Q[0,3] + Q[2,2]"


def test_render_dual_and_dickson():
    assert render_dual(dual_of_dickson((0, 3), P2N2)) == "(Q[0,3])* + (Q[2,2])*"
    assert render_dickson_combo(DPoly(P2N2, {(0, 3): 1, (2, 0): 1})) == "d0^2 + d1^3"
    assert render_dickson_combo(DPoly(P2N2)) == "0"
    assert render_dickson_monomial((0, 3)) == "d1^3"
    assert render_dickson_monomial((0, 0)) == "1"


def test_render_bpoly():
    assert render_bpoly(expand_dickson_monomial((0, 1), P3N2)) == "h1^3 + h2"
    assert render_bpoly(expand_dickson_monomial((0, 2), P3N2)) == "h1^6 + 2*h1^3*h2 + h2^2"
    assert render_bpoly(BPoly(P3N2, {(0, 0): 2})) == "2"
    assert render_bpoly(BPoly(P3N2)) == "0"


def reference_render_bpoly(x):
    """The two-pass printer render_bpoly replaced: every key rendered on
    its own, then the terms joined by the shared sum rule."""

    def render_key(exps):
        parts = [
            f"h{i}" + (f"^{e}" if e != 1 else "")
            for i, e in enumerate(exps, start=1)
            if e
        ]
        return "*".join(parts) if parts else "1"

    out = []
    for exps, c in x.sorted_terms():
        body = render_key(exps)
        if body == "1":
            out.append(str(c))
        elif c == 1:
            out.append(body)
        else:
            out.append(f"{c}*{body}")
    return " + ".join(out) if out else "0"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_render_bpoly_matches_reference(p):
    rng = random.Random(p)
    for n in range(1, 7):
        ctx = Context(p, n)
        assert render_bpoly(BPoly(ctx)) == reference_render_bpoly(BPoly(ctx)) == "0"
        for _ in range(40):
            x = BPoly(ctx)
            for _ in range(rng.randrange(1, 12)):
                exps = tuple(rng.choice((0, 0, 1, 2, 10, rng.randrange(300))) for _ in range(n))
                x.add_term(exps, rng.randrange(1, p))
            if rng.random() < 0.5:
                x.add_term((0,) * n, rng.randrange(1, p))
            # render_bpoly prints x.terms in its order, which must be canonical
            ordered = BPoly(ctx, dict(x.sorted_terms()))
            assert render_bpoly(ordered) == reference_render_bpoly(x)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_expansions_render_in_their_own_order(p):
    # render_bpoly and bpoly_to_json print an expansion's terms as stored,
    # so an expansion must store them in canonical order
    rng = random.Random(p)
    for n in range(1, 5):
        ctx = Context(p, n)
        for _ in range(6):
            x = expand_dickson_monomial(tuple(rng.randrange(2 * p) for _ in range(n)), ctx)
            assert list(x.terms.items()) == x.sorted_terms()
            assert render_bpoly(x) == reference_render_bpoly(x)
            assert bpoly_to_json(x) == [{"coeff": c, "exps": e} for e, c in x.sorted_terms()]


def test_render_tensor():
    # at n = 1 upper and lower notation agree: these are Q^1 and beta Q^1
    t = coproduct(OpSeq(Context(3, 1), (2,), (0,)))
    assert render_tensor(t) == "Q[0] (x) Q[1] + Q[1] (x) Q[0]"
    tb = coproduct(OpSeq(Context(3, 1), (2,), (1,)))
    assert render_tensor(tb) == "Q[0] (x) Q[1;eps=1] + Q[1;eps=1] (x) Q[0]"


def test_seq_json_roundtrip():
    s = OpSeq(P3N2, (3, 2), (0, 1))
    obj = seq_to_json(s)
    assert obj == {"seq": ["3/2", "1"], "eps": [0, 1]}
    assert seq_from_json(obj, P3N2) == s
    # a malformed entry is a DomainError naming it
    with pytest.raises(DomainError, match="got '3/4'"):
        seq_from_json({"seq": ["3/4", "1"]}, P3N2)


def test_op_poly_json_roundtrip():
    out = adem_straighten_classical(OpPoly.from_seq(OpSeq(P3N2, (6, 2), (0, 0))))
    items = op_poly_to_json(out)
    assert items == [{"coeff": 2, "seq": ["0", "2"], "eps": [0, 0]}]
    back = OpPoly(P3N2)
    for obj in items:
        s = seq_from_json(obj, P3N2)
        back.add_term((s.twice, s.eps), obj["coeff"])
    assert back == out


def test_dual_json_roundtrip():
    d = dual_of_dickson((0, 3), P2N2)
    items = dual_to_json(d)
    back = DualExpansion(P2N2, {seq_from_json(obj, P2N2): obj["coeff"] for obj in items})
    assert back == d


def test_bpoly_json_roundtrip():
    b = expand_dickson_monomial((0, 2), P3N2)
    items = bpoly_to_json(b)
    assert BPoly(P3N2, {tuple(obj["exps"]): obj["coeff"] for obj in items}) == b


def test_dickson_combo_json_roundtrip():
    combo = DPoly(P2N2, {(0, 3): 1, (2, 0): 1})
    assert dickson_combo_from_json(dickson_combo_to_json(combo)) == combo.terms


def test_tensor_json_roundtrip():
    ctx = Context(3, 1)
    t = coproduct(OpSeq(ctx, (2,), (1,)))
    items = tensor_to_json(t)
    back = TensorPoly(ctx, 2)
    for obj in items:
        legs = [seq_from_json(leg, ctx) for leg in obj["legs"]]
        back.add_term(tuple((s.twice, s.eps) for s in legs), obj["coeff"])
    assert back == t
