import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hodgeloci.errors import ParseError
from hodgeloci.exprparse import (field_to_expr, oneform_to_expr, parse_context, parse_expr,
                                 parse_field, parse_oneform, parse_poly, poly_to_expr,
                                 print_expr)
from hodgeloci.oneforms import OneForm, PolyContext, VectorField

CTX = PolyContext(("x", "y"))
LCTX = PolyContext(("x", "y"), (True, False))


class TestGrammar:
    def test_remark_form(self):
        w = parse_oneform("x*d(y) + y*d(x)", CTX)
        assert w == OneForm(CTX, (CTX.var("y"), CTX.var("x")))

    def test_polynomial(self):
        f = parse_poly("3/2*x0^2 - x1", PolyContext(("x0", "x1")))
        assert f.coefficient((2, 0)) == Fraction(3, 2)
        assert f.coefficient((0, 1)) == -1

    def test_laurent_exponent_rejected_without_flag(self):
        with pytest.raises(ParseError):
            parse_expr("x^-1", CTX)
        f = parse_poly("x^-1", LCTX)
        assert f.coefficient((-1, 0)) == 1

    def test_parenthesized_products(self):
        f = parse_poly("(x + y)*(x - y)", CTX)
        assert f == CTX.var("x") ** 2 - CTX.var("y") ** 2

    def test_vector_field(self):
        v = parse_field("x*D(x) - y*D(y)", CTX)
        assert v == VectorField(CTX, (CTX.var("x"), -CTX.var("y")))

    def test_leading_minus(self):
        f = parse_poly("-x + 2", CTX)
        assert f.coefficient((1, 0)) == -1
        assert f.constant_term() == 2

    def test_zero(self):
        assert parse_poly("0", CTX).is_zero()

    def test_integer_coefficients_are_ints(self):
        terms = parse_expr("3*x - 1/2*y + 4/2 + 2*(1/2*x*y + 1/2*x*y)", CTX)
        assert terms == {(None, (1, 0)): 3, (None, (0, 1)): Fraction(-1, 2),
                         (None, (0, 0)): 2, (None, (1, 1)): 2}
        assert [type(terms[(None, e)]) for e in ((1, 0), (0, 1), (0, 0))] == [
            int, Fraction, int]
        f = parse_poly("3*x - 1/2*y + 4/2 + 2*(1/2*x*y + 1/2*x*y)", CTX)
        assert {e: type(c) for e, c in f.terms.items()} == {
            (1, 0): int, (0, 1): Fraction, (0, 0): int, (1, 1): int}


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x + * y", CTX)
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_expr("z + 1", CTX)

    def test_mixed_basis_in_one_term(self):
        with pytest.raises(ParseError, match="mixed d/D"):
            parse_expr("d(x)*D(y)", CTX)

    def test_double_basis_in_one_term(self):
        with pytest.raises(ParseError, match="basis symbol"):
            parse_expr("d(x)*d(y)", CTX)

    # a cancelled sub-result keeps its basis symbol, so the error is the same
    # as for the uncancelled expression
    @pytest.mark.parametrize("text, message, position", [
        ("0*d(x)*d(y)", "more than one basis symbol", 11),
        ("(d(x) - d(x))*d(y)", "more than one basis symbol", 18),
        ("(x - x)*D(x)*d(y)", "mixed d/D", 17),
    ])
    def test_cancelled_terms_keep_their_basis(self, text, message, position):
        with pytest.raises(ParseError, match=message) as err:
            parse_expr(text, CTX)
        assert err.value.position == position

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x + y )", CTX)

    def test_not_a_oneform(self):
        with pytest.raises(ValueError):
            parse_oneform("x + y", CTX)
        with pytest.raises(ValueError):
            parse_field("x*d(y)", CTX)


CORPUS = [
    "0",
    "1",
    "-1",
    "3/2",
    "x",
    "-x + 2",
    "x^3",
    "2*x*y",
    "x^2*y - y^2",
    "3/2*x^2*y - 5*y + 7",
    "x*d(y) + y*d(x)",
    "-2*d(x)",
    "x^2*d(x) - 1/3*y*d(y)",
    "x*D(x) - y*D(y)",
    "(x + y)*(x - y)",
    "((x))",
    "x*(y + 1)",
    "2*(x + y)*d(x)",
    "7/3*x*y*d(y)",
    "D(x)",
    "d(y)",
    "x^5*y^4",
    "1/2 + x",
    "- x - y",
    "5*x - 5*x",
    "x^2 + 2*x*y + y^2",
    "(x + y)*(x + y)",
    "9/4",
    "-7/2*y",
    "x*y*d(x) + x*y*d(y)",
    "(x - y)*d(x) - (x + y)*d(y)",
    "x*(x*(x + 1) + 1)",
    "2/3*x^4 - 1/6*y^3 + 1/2",
    "-d(x) - d(y)",
    "-D(y)",
    "(1 + x)*(1 - x)*(1 + x^2)",
    "x^7",
    "y^6 - x^6",
    "11*x - 13*y + 17",
    "x*y^2*D(x) - x^2*y*D(y)",
    "(x + 1)*d(y)",
    "0*x + y",
    "4*(x - y)",
    "1 - 1",
    "x - x + y",
    "22/7 + x*y",
    "2*x^2*y^3 - 3*y^2*x^3",
    "(y + x)*(y - x)*d(x)",
    "5/3*D(x) + 5/3*D(y)",
    "x^2*(y + 2)*(y - 2)",
    "19*x*y",
    "(x)*(y)",
    "3*(2*x + 3*y) - 6*x",
]


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip_corpus(text):
    terms = parse_expr(text, CTX)
    printed = print_expr(terms, CTX)
    assert parse_expr(printed, CTX) == terms


LAURENT_CORPUS = ["x^-1", "x^-2*y", "3*x^-1*d(y)", "x^-1*D(x) + y*D(y)"]


@pytest.mark.parametrize("text", LAURENT_CORPUS)
def test_round_trip_laurent(text):
    terms = parse_expr(text, LCTX)
    assert parse_expr(print_expr(terms, LCTX), LCTX) == terms


def test_object_printers_round_trip():
    v = parse_field("x*D(x) - y*D(y)", CTX)
    assert parse_field(field_to_expr(v), CTX) == v
    w = parse_oneform("x*d(y) + y*d(x)", CTX)
    assert parse_oneform(oneform_to_expr(w), CTX) == w
    f = parse_poly("3/2*x^2*y - 5*y + 7", CTX)
    assert parse_poly(poly_to_expr(f, CTX), CTX) == f


def test_canonical_merge():
    a = parse_expr("x + x", CTX)
    b = parse_expr("2*x", CTX)
    assert a == b == {(None, (1, 0)): 2}


def test_term_map_drops_cancelled_terms():
    terms = parse_expr("x*d(y) - 1/2*d(x) + 0*y + (x - x)*D(y)", CTX)
    assert terms == {(("d", 1), (1, 0)): 1, (("d", 0), (0, 0)): Fraction(-1, 2)}
    assert print_expr(terms, CTX) == "-1/2*d(x) + x*d(y)"


_coeff_st = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))
_exps_st = st.tuples(st.integers(0, 4), st.integers(0, 4))
_basis_st = st.one_of(st.none(), st.tuples(st.sampled_from(["d", "D"]), st.integers(0, 1)))
_terms_st = st.dictionaries(st.tuples(_basis_st, _exps_st), _coeff_st, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_terms_st)
def test_round_trip_random_term_maps(terms):
    assert parse_expr(print_expr(terms, CTX), CTX) == terms


def test_parse_context_strips_names_and_checks_each():
    assert parse_context(" x , _y2,,", " _y2") == PolyContext(("x", "_y2"), (False, True))
    for names in ("", " ", ",,"):
        with pytest.raises(ValueError, match="--vars names no variable"):
            parse_context(names)
    for bad in ("2x", "x y", "x-1", "d(x)"):
        with pytest.raises(ValueError, match=re.escape(f"variable name {bad!r} is not a letter")):
            parse_context(f"t,{bad}")


def test_each_token_is_scanned_once(monkeypatch):
    # the parser's one-token lookahead keeps the token it peeks at, so parsing the
    # benchmark's gm matrix (seed 11, blocks 1,8,1) scans every token once, and the
    # end of each entry once
    import json
    from pathlib import Path

    from hodgeloci import exprparse

    rows = json.loads((Path(__file__).parent / "golden" / "gm_seed11_blocks181.json").read_text())
    ctx = parse_context("t1,t2,t3")
    scans = []
    scan = exprparse._Tokenizer._scan

    def counted(self):
        scans.append(scan(self))
        return scans[-1]

    monkeypatch.setattr(exprparse._Tokenizer, "_scan", counted)
    exprparse.parse_form_matrix(rows, ctx)
    token = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()/]")
    assert len(scans) == sum(len(token.findall(entry)) + 1 for row in rows for entry in row)
    assert sum(kind == "END" for kind, _, _ in scans) == sum(map(len, rows))
