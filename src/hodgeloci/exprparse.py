"""A small expression grammar for polynomials, 1-forms and vector fields.

    expr    := ['-'] term (('+'|'-') term)*
    term    := rational ('*' factor)* | factor ('*' factor)*
    factor  := var ('^' int)? | 'd(' var ')' | 'D(' var ')' | '(' expr ')'
    rational:= int ['/' int]

Whitespace is insignificant.  ``d(x)`` and ``D(x)`` are the 1-form and
vector-field basis symbols; a term may carry at most one basis symbol, and
negative exponents are allowed only on Laurent-flagged variables.  Parsing
produces a canonical sum of terms; printing a parsed expression and parsing
it again reproduces the identical AST.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from hodgeloci._value import Value
from hodgeloci.errors import ParseError
from hodgeloci.forms import OneForm, PolyContext, VectorField
from hodgeloci.series import SparseSeries, grlex_key

_BASIS_RANK = {None: 0, "d": 1, "D": 2}

# Parentheses deeper than this are rejected as input errors, well before the
# recursive descent (three frames per level) reaches Python's recursion limit.
MAX_NESTING = 100


class Term(Value):
    coeff: Fraction
    exps: Tuple[int, ...]
    basis: Optional[Tuple[str, int]]  # ('d'|'D', variable index) or None


class ExprAST(Value):
    """Canonical sum of terms: merged, zero-free, deterministically sorted."""

    nvars: int
    terms: Tuple[Term, ...]

    @staticmethod
    def _key(t: Term):
        kind = t.basis[0] if t.basis else None
        idx = t.basis[1] if t.basis else -1
        return (_BASIS_RANK[kind], idx, grlex_key(t.exps))

    @classmethod
    def make(cls, nvars: int, terms) -> "ExprAST":
        merged = {}
        for t in terms:
            key = (t.exps, t.basis)
            merged[key] = merged.get(key, Fraction(0)) + t.coeff
        clean = [Term(c, e, b) for (e, b), c in merged.items() if c]
        clean.sort(key=cls._key)
        return cls(nvars, tuple(clean))

    @property
    def kind(self) -> str:
        kinds = {t.basis[0] if t.basis else None for t in self.terms}
        if kinds <= {None}:
            return "poly"
        if kinds == {"d"}:
            return "form"
        if kinds == {"D"}:
            return "field"
        return "mixed"


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Tuple[str, str, int]:
        save = self.pos
        tok = self.next()
        self.pos = save
        return tok

    def next(self) -> Tuple[str, str, int]:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("END", "", self.pos)
        start = self.pos
        ch = self.text[start]
        if ch.isdigit():
            j = start
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            self.pos = j
            return ("NUM", self.text[start:j], start)
        if ch.isalpha() or ch == "_":
            j = start
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            self.pos = j
            return ("NAME", self.text[start:j], start)
        if ch in "+-*^()/":
            self.pos = start + 1
            return (ch, ch, start)
        raise ParseError(f"unexpected character {ch!r}", start)


class _Parser:
    def __init__(self, text: str, ctx: PolyContext):
        self.toks = _Tokenizer(text)
        self.ctx = ctx
        self.depth = 0

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.toks.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self) -> ExprAST:
        terms = self.expr()
        tok = self.toks.next()
        if tok[0] != "END":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return ExprAST.make(self.ctx.nvars, terms)

    def expr(self) -> List[Term]:
        out: List[Term] = []
        sign = 1
        if self.toks.peek()[0] == "-":
            self.toks.next()
            sign = -1
        out.extend(self._signed(self.term(), sign))
        while True:
            kind, _, _ = self.toks.peek()
            if kind not in ("+", "-"):
                return out
            self.toks.next()
            out.extend(self._signed(self.term(), -1 if kind == "-" else 1))

    @staticmethod
    def _signed(terms: List[Term], sign: int) -> List[Term]:
        if sign == 1:
            return terms
        return [Term(-t.coeff, t.exps, t.basis) for t in terms]

    def term(self) -> List[Term]:
        kind, _, _ = self.toks.peek()
        zero = (0,) * self.ctx.nvars
        if kind == "NUM":
            acc = [Term(self.rational(), zero, None)]
        else:
            acc = self.factor()
        while self.toks.peek()[0] == "*":
            self.toks.next()
            acc = self._product(acc, self.factor())
        return acc

    def _product(self, left: List[Term], right: List[Term]) -> List[Term]:
        out = []
        for t1 in left:
            for t2 in right:
                basis = t1.basis or t2.basis
                if t1.basis and t2.basis:
                    pos = self.toks.pos
                    if t1.basis[0] != t2.basis[0]:
                        raise ParseError("mixed d/D in one term", pos)
                    raise ParseError("more than one basis symbol in a term", pos)
                out.append(Term(t1.coeff * t2.coeff,
                                tuple(a + b for a, b in zip(t1.exps, t2.exps)), basis))
        return out

    def rational(self) -> Fraction:
        _, num, _ = self.expect("NUM")
        if self.toks.peek()[0] == "/":
            self.toks.next()
            _, den, pos = self.expect("NUM")
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(int(num), int(den))
        return Fraction(int(num))

    def factor(self) -> List[Term]:
        kind, text, pos = self.toks.next()
        zero = (0,) * self.ctx.nvars
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "NAME":
            if text in ("d", "D") and self.toks.peek()[0] == "(":
                self.toks.next()
                _, var, vpos = self.expect("NAME")
                i = self._var_index(var, vpos)
                self.expect(")")
                return [Term(Fraction(1), zero, (text, i))]
            i = self._var_index(text, pos)
            exp = 1
            if self.toks.peek()[0] == "^":
                self.toks.next()
                exp = self.integer()
            if exp < 0 and not self.ctx.laurent[i]:
                raise ParseError(f"negative exponent on non-Laurent variable {text!r}", pos)
            e = [0] * self.ctx.nvars
            e[i] = exp
            return [Term(Fraction(1), tuple(e), None)]
        raise ParseError(f"expected a factor, found {text or 'end of input'!r}", pos)

    def integer(self) -> int:
        sign = 1
        if self.toks.peek()[0] == "-":
            self.toks.next()
            sign = -1
        _, num, _ = self.expect("NUM")
        return sign * int(num)

    def _var_index(self, name: str, pos: int) -> int:
        try:
            return self.ctx.index(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}", pos) from None


def parse_expr(text: str, ctx: PolyContext) -> ExprAST:
    """Parse to the canonical sum-of-terms form."""
    return _Parser(text, ctx).parse()


def print_expr(ast: ExprAST, ctx: PolyContext) -> str:
    """Canonical rendering; print(parse(s)) parses back to the same AST."""
    if not ast.terms:
        return "0"
    chunks = []
    for idx, t in enumerate(ast.terms):
        mag = abs(t.coeff)
        parts = []
        has_symbol = any(t.exps) or t.basis is not None
        if mag != 1 or not has_symbol:
            parts.append(str(mag))
        for i, e in enumerate(t.exps):
            if e == 0:
                continue
            parts.append(ctx.names[i] if e == 1 else f"{ctx.names[i]}^{e}")
        if t.basis is not None:
            parts.append(f"{t.basis[0]}({ctx.names[t.basis[1]]})")
        body = "*".join(parts)
        if idx == 0:
            chunks.append(body if t.coeff > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if t.coeff > 0 else f" - {body}")
    return "".join(chunks)


# -- conversions to and from algebra objects -----------------------------------------


# basis symbol, ExprAST.kind and name of each class with one component per variable
_COMPONENT_KINDS = {OneForm: ("d", "form", "1-form"),
                    VectorField: ("D", "field", "vector field")}


def _components_from_ast(cls, ast: ExprAST, ctx: PolyContext):
    symbol, kind, name = _COMPONENT_KINDS[cls]
    if ast.terms and ast.kind != kind:
        raise ValueError(f"expression is not a {name} (needs {symbol}(...) in every term)")
    comps = [dict() for _ in range(ctx.nvars)]
    for t in ast.terms:
        comps[t.basis[1]][t.exps] = t.coeff
    return cls(ctx, tuple(SparseSeries(ctx.nvars, c, laurent=ctx.laurent) for c in comps))


def parse_poly(text: str, ctx: PolyContext) -> SparseSeries:
    ast = parse_expr(text, ctx)
    if ast.kind not in ("poly",) and ast.terms:
        raise ValueError("expression contains basis symbols; not a polynomial")
    return SparseSeries(ctx.nvars, {t.exps: t.coeff for t in ast.terms}, laurent=ctx.laurent)


def parse_oneform(text: str, ctx: PolyContext) -> OneForm:
    return _components_from_ast(OneForm, parse_expr(text, ctx), ctx)


def parse_field(text: str, ctx: PolyContext) -> VectorField:
    return _components_from_ast(VectorField, parse_expr(text, ctx), ctx)


def _components_to_ast(w) -> ExprAST:
    symbol = _COMPONENT_KINDS[type(w)][0]
    terms = []
    for i, comp in enumerate(w.comps):
        terms.extend(Term(c, e, (symbol, i)) for e, c in comp.terms.items())
    return ExprAST.make(w.ctx.nvars, terms)


def poly_to_expr(f: SparseSeries, ctx: PolyContext) -> str:
    ast = ExprAST.make(ctx.nvars, [Term(c, e, None) for e, c in f.terms.items()])
    return print_expr(ast, ctx)


def oneform_to_expr(w: OneForm) -> str:
    return print_expr(_components_to_ast(w), w.ctx)


def field_to_expr(v: VectorField) -> str:
    return print_expr(_components_to_ast(v), v.ctx)
