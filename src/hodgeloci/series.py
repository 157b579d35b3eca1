"""Sparse multivariate power series and polynomials with exact rational coefficients.

A value is a map from exponent vectors to nonzero ``Fraction`` coefficients,
optionally truncated by total degree.  ``truncation=None`` means the value is
an exact polynomial.  Variables flagged as Laurent admit negative exponents;
the total degree of an exponent vector counts only its non-negative entries.
The canonical term order everywhere is graded-lexicographic: sort by total
degree first, then by the exponent tuple.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]


def total_degree(e: Sequence[int]) -> int:
    """Sum of the non-negative entries of an exponent vector."""
    return sum(x for x in e if x > 0)


def grlex_key(e: Sequence[int]):
    return (total_degree(e), tuple(e))


def monomials_upto(nvars: int, deg: int) -> List[Exponent]:
    """Every exponent vector of ``nvars`` non-negative entries and total degree
    <= ``deg``, in graded-lex order (none when ``deg`` < 0)."""
    # exact[t]: the vectors of total degree t over the variables added so far,
    # in lex order; prepending a first entry in increasing order keeps it
    exact = [[()] if t == 0 else [] for t in range(deg + 1)]
    for _ in range(nvars):
        exact = [[(v,) + e for v in range(t + 1) for e in exact[t - v]]
                 for t in range(deg + 1)]
    return [e for layer in exact for e in layer]


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


class SparseSeries:
    """Total-degree-truncated sparse series (or exact polynomial) over Q.

    Values are immutable after construction; all operations return new
    objects and are safe to share between threads.

    The public constructor coerces and checks every term.  Arithmetic results
    (``+``, ``-``, negation, ``scale``, ``*``, ``diff``) skip that pass and are
    built with ``_trusted``: their operands are already valid, so their terms
    are distinct int tuples of the right length with negative entries only on
    Laurent variables and nonzero ``Fraction`` values.  Each operation drops
    the terms above the result's truncation itself.
    """

    __slots__ = ("nvars", "truncation", "laurent", "terms")

    def __init__(self, nvars: int, terms=None, truncation: Optional[int] = None,
                 laurent: Optional[Sequence[bool]] = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        if truncation is not None and truncation < 0:
            raise ValueError("truncation must be non-negative")
        lau = tuple(bool(b) for b in laurent) if laurent is not None else (False,) * nvars
        if len(lau) != nvars:
            raise ValueError("laurent flag count does not match nvars")
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                e = tuple(int(x) for x in e)
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong length for {nvars} variables")
                for i, x in enumerate(e):
                    if x < 0 and not lau[i]:
                        raise ValueError(f"negative exponent on non-Laurent variable {i}")
                if truncation is not None and total_degree(e) > truncation:
                    continue
                c = _coerce(c)
                if c:
                    acc = clean.get(e)
                    c = c if acc is None else acc + c
                    if c:
                        clean[e] = c
                    elif e in clean:
                        del clean[e]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "laurent", lau)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparseSeries is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int, terms: dict, truncation: Optional[int],
                 laurent: Optional[Tuple[bool, ...]] = None) -> "SparseSeries":
        """Adopt ``terms`` as is, with no coercion, merging or checks: for values
        whose keys are distinct int tuples of length ``nvars``, negative only on
        variables flagged in ``laurent`` (a bool tuple; default none), of total
        degree <= ``truncation``, and whose values are nonzero Fractions."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "laurent", (False,) * nvars if laurent is None else laurent)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, nvars, truncation=None, laurent=None):
        return cls(nvars, {}, truncation, laurent)

    @classmethod
    def constant(cls, nvars, c, truncation=None, laurent=None):
        return cls(nvars, {(0,) * nvars: _coerce(c)}, truncation, laurent)

    @classmethod
    def variable(cls, nvars, i, truncation=None, laurent=None):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)}, truncation, laurent)

    @classmethod
    def monomial(cls, nvars, e, c=1, truncation=None, laurent=None):
        return cls(nvars, {tuple(e): _coerce(c)}, truncation, laurent)

    def ring_zero(self):
        return SparseSeries(self.nvars, {}, self.truncation, self.laurent)

    def ring_one(self):
        return SparseSeries.constant(self.nvars, 1, self.truncation, self.laurent)

    def ring_constant(self, c):
        return SparseSeries.constant(self.nvars, c, self.truncation, self.laurent)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, e) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        """Maximal total degree of a stored term (0 for the zero value)."""
        return max((total_degree(e) for e in self.terms), default=0)

    def sorted_terms(self):
        """Terms in graded-lexicographic order."""
        if self.is_laurent():
            return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))
        # every exponent is non-negative, so the total degree is the plain sum
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def is_laurent(self) -> bool:
        return any(self.laurent)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "SparseSeries"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
        if self.laurent != other.laurent:
            raise ValueError("Laurent flag mismatch")

    @staticmethod
    def _min_trunc(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def _terms_within(self, trunc: Optional[int]) -> dict:
        """The stored terms of total degree <= trunc (None: all of them)."""
        if trunc is None or (self.truncation is not None and self.truncation <= trunc):
            return self.terms
        return {e: c for e, c in self.terms.items() if total_degree(e) <= trunc}

    def _add_signed(self, other: "SparseSeries", negate: bool) -> "SparseSeries":
        """self + other, or self - other when ``negate``, in one pass."""
        self._check_compatible(other)
        trunc = self._min_trunc(self.truncation, other.truncation)
        out = dict(self._terms_within(trunc))
        for e, c in other._terms_within(trunc).items():
            s = out.get(e)
            if s is None:
                out[e] = -c if negate else c
                continue
            s = s - c if negate else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        return SparseSeries._trusted(self.nvars, out, trunc, self.laurent)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring_constant(other)
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self._add_signed(other, False)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return SparseSeries._trusted(self.nvars, {e: -c for e, c in self.terms.items()},
                                     self.truncation, self.laurent)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring_constant(other)
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self._add_signed(other, True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c) -> "SparseSeries":
        c = _coerce(c)
        if not c:
            return self.ring_zero()
        return SparseSeries._trusted(self.nvars, {e: c * v for e, v in self.terms.items()},
                                     self.truncation, self.laurent)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SparseSeries):
            return NotImplemented
        self._check_compatible(other)
        trunc = self._min_trunc(self.truncation, other.truncation)
        out = {}
        if self.terms and other.terms:
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    if trunc is not None and total_degree(e) > trunc:
                        continue
                    s = out.get(e)
                    s = c1 * c2 if s is None else s + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return SparseSeries._trusted(self.nvars, out, trunc, self.laurent)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on series")
        out = self.ring_one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def truncate(self, d: int) -> "SparseSeries":
        new = d if self.truncation is None else min(d, self.truncation)
        return SparseSeries(self.nvars, self.terms, new, self.laurent)

    def diff(self, i: int) -> "SparseSeries":
        """Partial derivative with respect to variable i."""
        trunc = None if self.truncation is None else max(self.truncation - 1, 0)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            # x_i^k with k < 0 keeps its degree, which may now exceed the bound
            if k < 0 and trunc is not None and total_degree(e) > trunc:
                continue
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return SparseSeries._trusted(self.nvars, out, trunc, self.laurent)

    # -- evaluation ----------------------------------------------------------

    def eval_float(self, point: Sequence[float]) -> float:
        """Direct term-by-term summation in graded-lex order (no Horner)."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match nvars")
        total = 0.0
        for e, c in self.sorted_terms():
            v = float(c)
            for x, k in zip(point, e):
                if k:
                    v *= x ** k
            total += v
        return total

    def eval_exact(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point length does not match nvars")
        pt = [_coerce(x) for x in point]
        total = Fraction(0)
        for e, c in self.sorted_terms():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x ** k
            total += v
        return total

    # -- transforms ------------------------------------------------------------

    def sign_flip(self, i: int) -> "SparseSeries":
        """Image under the substitution that negates variable i."""
        return SparseSeries(
            self.nvars,
            {e: (-c if e[i] & 1 else c) for e, c in self.terms.items()},
            self.truncation, self.laurent)

    def embed(self, nvars: int, positions: Sequence[int],
              laurent: Optional[Sequence[bool]] = None) -> "SparseSeries":
        """Re-express over a larger variable list; positions[i] is the new index
        of old variable i."""
        if len(positions) != self.nvars:
            raise ValueError("positions length does not match nvars")
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * nvars
            for old, new in enumerate(positions):
                e2[new] = e[old]
            out[tuple(e2)] = c
        return SparseSeries(nvars, out, self.truncation, laurent)

    # -- comparison / presentation ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.truncation == other.truncation
                and self.laurent == other.laurent and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.truncation, self.laurent,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        shown = ", ".join(f"{e}:{c}" for e, c in self.sorted_terms()[:6])
        more = "" if len(self.terms) <= 6 else f", +{len(self.terms) - 6} terms"
        return (f"SparseSeries(nvars={self.nvars}, truncation={self.truncation}, "
                f"{{{shown}{more}}})")

    # -- canonical serialization -----------------------------------------------

    def to_doc(self) -> dict:
        """Canonical document: graded-lex sorted terms, coefficients as "num/den"."""
        doc = {
            "nvars": self.nvars,
            "truncation": self.truncation,
            "terms": [{"e": list(e), "c": f"{c.numerator}/{c.denominator}"}
                      for e, c in self.sorted_terms()],
        }
        if any(self.laurent):
            doc["laurent"] = list(self.laurent)
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping) -> "SparseSeries":
        nvars = int(doc["nvars"])
        trunc = doc.get("truncation")
        trunc = None if trunc is None else int(trunc)
        laurent = doc.get("laurent")
        terms = {tuple(int(x) for x in t["e"]): Fraction(t["c"]) for t in doc["terms"]}
        return cls(nvars, terms, trunc, laurent)

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SparseSeries":
        return cls.from_doc(json.loads(text))
