"""A small expression grammar for polynomials, 1-forms and vector fields.

    expr    := ['-'] term (('+'|'-') term)*
    term    := rational ('*' factor)* | factor ('*' factor)*
    factor  := var ('^' int)? | 'd(' var ')' | 'D(' var ')' | '(' expr ')'
    rational:= int ['/' int]

Whitespace is insignificant.  ``d(x)`` and ``D(x)`` are the 1-form and
vector-field basis symbols; a term may carry at most one basis symbol, and
negative exponents are allowed only on Laurent-flagged variables.  Parsing
produces a term map ``{(basis, exponents): coefficient}`` with merged, nonzero
coefficients, where ``basis`` is None or ``('d'|'D', variable index)``; a
written rational with denominator 1 is read as an int, so products of integer
coefficients need no ``Fraction``, and any other as a ``Fraction``;
printing a term map and parsing the text again reproduces the same map.
``parse_context`` and ``parse_form_matrix`` read the variables and the matrix
files of the command line.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Optional, Tuple, Union

from hodgeloci.errors import ParseError
from hodgeloci.forms import FormMatrix, OneForm, PolyContext, VectorField
from hodgeloci.series import SparseSeries, grlex_key

# basis symbol ('d'|'D', variable index) or None, and exponent vector
TermKey = Tuple[Optional[Tuple[str, int]], Tuple[int, ...]]
TermMap = Dict[TermKey, Union[int, Fraction]]

_BASIS_RANK = {None: 0, "d": 1, "D": 2}

# Parentheses deeper than this are rejected as input errors, well before the
# recursive descent (three frames per level) reaches Python's recursion limit.
MAX_NESTING = 100


class _Tokenizer:
    """The tokens of ``text`` as ``(kind, text, position)``, each scanned once:
    ``peek`` keeps the token it scans for the next ``next``.  ``end`` is where
    the last token ``next`` returned ends."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # where scanning resumes
        self.end = 0
        self.ahead: Optional[Tuple[str, str, int]] = None

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Tuple[str, str, int]:
        if self.ahead is None:
            self.ahead = self._scan()
        return self.ahead

    def next(self) -> Tuple[str, str, int]:
        tok = self.ahead
        if tok is None:
            tok = self._scan()
        self.ahead = None
        self.end = tok[2] + len(tok[1])
        return tok

    def _scan(self) -> Tuple[str, str, int]:
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

    def parse(self) -> TermMap:
        terms = self.expr()
        tok = self.toks.next()
        if tok[0] != "END":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return {k: c for k, c in terms.items() if c}

    # Sub-results keep the keys whose coefficients cancel, so that a product
    # such as (d(x) - d(x))*d(y) still finds both basis symbols.
    def expr(self) -> TermMap:
        out: TermMap = {}
        negate = self.toks.peek()[0] == "-"
        if negate:
            self.toks.next()
        while True:
            for k, c in self.term().items():
                out[k] = out.get(k, 0) - c if negate else out.get(k, 0) + c
            kind, _, _ = self.toks.peek()
            if kind not in ("+", "-"):
                return out
            self.toks.next()
            negate = kind == "-"

    def term(self) -> TermMap:
        if self.toks.peek()[0] == "NUM":
            acc = {(None, (0,) * self.ctx.nvars): self.rational()}
        else:
            acc = self.factor()
        while self.toks.peek()[0] == "*":
            self.toks.next()
            acc = self._product(acc, self.factor())
        return acc

    def _product(self, left: TermMap, right: TermMap) -> TermMap:
        out: TermMap = {}
        for (b1, e1), c1 in left.items():
            for (b2, e2), c2 in right.items():
                if b1 and b2:
                    pos = self.toks.end
                    if b1[0] != b2[0]:
                        raise ParseError("mixed d/D in one term", pos)
                    raise ParseError("more than one basis symbol in a term", pos)
                k = (b1 or b2, tuple(map(add, e1, e2)))
                out[k] = out.get(k, 0) + c1 * c2
        return out

    def rational(self) -> Union[int, Fraction]:
        _, num, _ = self.expect("NUM")
        if self.toks.peek()[0] == "/":
            self.toks.next()
            _, den, pos = self.expect("NUM")
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
            q = Fraction(int(num), int(den))
            return q.numerator if q.denominator == 1 else q
        return int(num)

    def factor(self) -> TermMap:
        kind, text, pos = self.toks.next()
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
                return {((text, i), (0,) * self.ctx.nvars): 1}
            i = self._var_index(text, pos)
            exp = 1
            if self.toks.peek()[0] == "^":
                self.toks.next()
                exp = self.integer()
            if exp < 0 and not self.ctx.laurent[i]:
                raise ParseError(f"negative exponent on non-Laurent variable {text!r}", pos)
            e = [0] * self.ctx.nvars
            e[i] = exp
            return {(None, tuple(e)): 1}
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


def parse_expr(text: str, ctx: PolyContext) -> TermMap:
    """Parse to a term map with merged, nonzero coefficients."""
    return _Parser(text, ctx).parse()


def _print_key(item):
    (basis, exps), _ = item
    kind, idx = basis or (None, -1)
    return (_BASIS_RANK[kind], idx, grlex_key(exps))


def print_expr(terms: TermMap, ctx: PolyContext) -> str:
    """Canonical rendering; parse_expr(print_expr(m)) == m for a zero-free map."""
    if not terms:
        return "0"
    chunks = []
    for idx, ((basis, exps), coeff) in enumerate(sorted(terms.items(), key=_print_key)):
        mag = abs(coeff)
        parts = []
        if mag != 1 or not (any(exps) or basis is not None):
            parts.append(str(mag))
        for i, e in enumerate(exps):
            if e == 0:
                continue
            parts.append(ctx.names[i] if e == 1 else f"{ctx.names[i]}^{e}")
        if basis is not None:
            parts.append(f"{basis[0]}({ctx.names[basis[1]]})")
        body = "*".join(parts)
        if idx == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(chunks)


# -- conversions to and from algebra objects -----------------------------------------


# basis symbol and name of each class with one component per variable
_COMPONENT_KINDS = {OneForm: ("d", "1-form"), VectorField: ("D", "vector field")}


def _parse_components(cls, text: str, ctx: PolyContext):
    symbol, name = _COMPONENT_KINDS[cls]
    comps = [{} for _ in range(ctx.nvars)]
    for (basis, e), c in parse_expr(text, ctx).items():
        if basis is None or basis[0] != symbol:
            raise ValueError(f"expression is not a {name} (needs {symbol}(...) in every term)")
        comps[basis[1]][e] = c
    return cls(ctx, tuple(SparseSeries(ctx.nvars, c, laurent=ctx.laurent) for c in comps))


def parse_poly(text: str, ctx: PolyContext) -> SparseSeries:
    terms = parse_expr(text, ctx)
    if any(basis is not None for basis, _ in terms):
        raise ValueError("expression contains basis symbols; not a polynomial")
    return SparseSeries(ctx.nvars, {e: c for (_, e), c in terms.items()}, laurent=ctx.laurent)


def parse_oneform(text: str, ctx: PolyContext) -> OneForm:
    return _parse_components(OneForm, text, ctx)


def parse_field(text: str, ctx: PolyContext) -> VectorField:
    return _parse_components(VectorField, text, ctx)


def _components_expr(w) -> str:
    symbol = _COMPONENT_KINDS[type(w)][0]
    return print_expr({((symbol, i), e): c for i, comp in enumerate(w.comps)
                       for e, c in comp.terms.items()}, w.ctx)


def poly_to_expr(f: SparseSeries, ctx: PolyContext) -> str:
    return print_expr({(None, e): c for e, c in f.terms.items()}, ctx)


def oneform_to_expr(w: OneForm) -> str:
    return _components_expr(w)


def field_to_expr(v: VectorField) -> str:
    return _components_expr(v)


def _names(text: str) -> Tuple[str, ...]:
    """The comma-separated names in ``text``, stripped, with empty ones dropped;
    each must be one NAME token of the grammar."""
    names = tuple(n for n in (n.strip() for n in text.split(",")) if n)
    for name in names:
        try:
            whole = _Tokenizer(name).next() == ("NAME", name, 0)
        except ParseError:
            whole = False
        if not whole:
            raise ValueError(f"variable name {name!r} is not a letter or '_' followed by "
                             f"letters, digits or '_'")
    return names


def parse_context(names: str, laurent: Optional[str] = None) -> PolyContext:
    """The context of comma-separated variable ``names`` (at least one), of
    which the comma-separated ``laurent`` ones admit negative exponents."""
    names = _names(names)
    if not names:
        raise ValueError("--vars names no variable")
    laurent_names = set(_names(laurent)) if laurent else set()
    unknown = laurent_names - set(names)
    if unknown:
        raise ValueError(f"laurent flag for unknown variable(s) {sorted(unknown)}")
    return PolyContext(names, tuple(n in laurent_names for n in names))


def parse_form_matrix(doc, ctx: PolyContext) -> FormMatrix:
    """A matrix of 1-forms from a JSON document: an array of arrays of 1-form
    expression strings."""
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise ValueError("matrix file must be a JSON array of arrays of 1-form expressions")
    for i, row in enumerate(doc):
        for j, e in enumerate(row):
            if not isinstance(e, str):
                import json

                raise ValueError(f"matrix entry [{i}][{j}] is not a 1-form expression "
                                 f"string: {json.dumps(e)}")
    return FormMatrix(ctx, [[parse_oneform(e, ctx) for e in row] for row in doc])
