"""Sparse multivariate polynomials over Q or GF(p), and their series documents.

A value is an exact polynomial: a map from exponent vectors to nonzero
coefficients, an int or a ``Fraction`` over Q (``p`` None; the constructor
stores a coefficient with denominator 1 as an int, so products of integer
coefficients need no ``Fraction``) or an int in ``[1, p)`` over GF(p), and
arithmetic on values is exact.  A power series is known through a
total degree only when it is written out, so a truncation is not part of a
value: the writers (``to_doc``, ``to_json``) print one as a label of the
document.  Variables flagged as Laurent admit negative exponents; the total
degree of an exponent vector counts only its non-negative entries.  A GF(p)
value has no Laurent variables.  The canonical term order everywhere is
graded-lexicographic: sort by total degree first, then by the exponent tuple.

``fractions`` is imported only where a ``Fraction`` is made (a string or a
written-out document read, an exact evaluation), so work on integer values
never loads it; ``is_fraction`` tells a ``Fraction`` apart without loading it,
since none can exist before its module is.
"""

from __future__ import annotations

import sys
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from hodgeloci._value import Value
from hodgeloci.errors import DenominatorDivisibleByP

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


def is_fraction(c) -> bool:
    """Whether ``c`` is a ``Fraction``; ``fractions`` is not loaded to tell."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(c, fractions.Fraction)


def _coerce(c):
    """An exact rational (an int, a Fraction or its string) as an int when its
    denominator is 1, else as a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, int):  # a bool, or another int subclass
        return int(c)
    if isinstance(c, str):
        from fractions import Fraction

        c = Fraction(c)
    elif not is_fraction(c):
        raise TypeError(f"not an exact rational: {c!r}")
    return c.numerator if c.denominator == 1 else c


def residue(c, p: int) -> int:
    """The image in GF(p) of an exact rational a/b: a * b^-1 mod p.

    Raises DenominatorDivisibleByP when p divides b.
    """
    if isinstance(c, int):
        return c % p
    c = _coerce(c)
    if c.denominator % p == 0:
        raise DenominatorDivisibleByP(f"coefficient {c} has denominator divisible by {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


class SparseSeries(Value):
    """Exact sparse polynomial over Q, or over GF(p) when ``p`` is set.
    Over Q a coefficient is an int or a Fraction, over GF(p) an int in [1, p).

    Values are immutable after construction; all operations return new
    objects and are safe to share between threads.  Operands of a binary
    operation must share ``nvars``, the Laurent flags and ``p``.

    The public constructor coerces and checks every term: over Q it stores a
    coefficient with denominator 1 as an int, and with ``p`` set it maps each
    rational to its residue (``residue``).  Arithmetic results skip
    that pass and are built with ``_trusted``: their operands are already
    valid, so their terms are distinct int tuples of the right length with
    negative entries only on Laurent variables.  Over GF(p) arithmetic
    computes with ints and reduces them mod p once at the end.
    """

    nvars: int
    laurent: Tuple[bool, ...]
    terms: Dict[Exponent, object]
    p: Optional[int]

    def __init__(self, nvars: int, terms=None, laurent: Optional[Sequence[bool]] = None,
                 p: Optional[int] = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        lau = tuple(bool(b) for b in laurent) if laurent is not None else (False,) * nvars
        if len(lau) != nvars:
            raise ValueError("laurent flag count does not match nvars")
        if p is not None:
            if p < 2:
                raise ValueError("modulus must be a prime >= 2")
            if any(lau):
                raise ValueError("GF(p) values are exact polynomials with no Laurent variables")
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
                c = _coerce(c) if p is None else residue(c, p)
                if c:
                    acc = clean.get(e)
                    if acc is not None:
                        c = acc + c if p is None else (acc + c) % p
                    if c:
                        clean[e] = c
                    elif e in clean:
                        del clean[e]
        self.__dict__.update(nvars=nvars, laurent=lau, terms=clean, p=p)

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int, terms: dict, laurent: Optional[Tuple[bool, ...]] = None,
                 p: Optional[int] = None) -> "SparseSeries":
        """Adopt ``terms`` as is, with no coercion, merging or checks: for values
        whose keys are distinct int tuples of length ``nvars``, negative only on
        variables flagged in ``laurent`` (a bool tuple; default none), and whose
        values are nonzero ints or Fractions, or ints in [1, p) when ``p`` is
        set."""
        self = object.__new__(cls)
        self.__dict__.update(nvars=nvars,
                             laurent=(False,) * nvars if laurent is None else laurent,
                             terms=terms, p=p)
        return self

    def ring_zero(self):
        return SparseSeries._trusted(self.nvars, {}, self.laurent, self.p)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, e):
        return self.terms.get(tuple(e), 0)

    def constant_term(self):
        return self.coefficient((0,) * self.nvars)

    def degree(self) -> int:
        """Maximal total degree of a stored term (0 for the zero value)."""
        return max((total_degree(e) for e in self.terms), default=0)

    def sorted_terms(self):
        """Terms in graded-lexicographic order."""
        if any(self.laurent):
            return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))
        # every exponent is non-negative, so the total degree is the plain sum
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "SparseSeries"):
        """Operands share nvars, Laurent flags and p."""
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
        if self.laurent != other.laurent:
            raise ValueError("Laurent flag mismatch")
        if self.p != other.p:
            raise ValueError("mod-p ring mismatch")

    def _add_signed(self, other: "SparseSeries", negate: bool) -> "SparseSeries":
        """self + other, or self - other when ``negate``, in one pass."""
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = -c if negate else c
                continue
            s = s - c if negate else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        return self._result(out)

    def _result(self, terms: dict) -> "SparseSeries":
        """An exact value in this series' ring from valid terms; over GF(p) their
        values are any ints, reduced here with the zero residues dropped."""
        p = self.p
        if p is not None:
            terms = {e: r for e, c in terms.items() if (r := c % p)}
        return SparseSeries._trusted(self.nvars, terms, self.laurent, p)

    def __add__(self, other):
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self._add_signed(other, False)

    def __neg__(self):
        return self._result({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self._add_signed(other, True)

    def scale(self, c) -> "SparseSeries":
        c = _coerce(c) if self.p is None else residue(c, self.p)
        if not c:
            return self.ring_zero()
        return self._result({e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int) or is_fraction(other):
            return self.scale(other)
        if not isinstance(other, SparseSeries):
            return NotImplemented
        self._check_compatible(other)
        out = {}
        if self.terms and other.terms:
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    s = out.get(e)
                    s = c1 * c2 if s is None else s + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return self._result(out)

    def __rmul__(self, other):
        if isinstance(other, int) or is_fraction(other):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined on series")
        out = SparseSeries(self.nvars, {(0,) * self.nvars: 1}, self.laurent, self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def truncate(self, d: int) -> "SparseSeries":
        """The exact polynomial of the terms of total degree <= d."""
        return SparseSeries._trusted(
            self.nvars, {e: c for e, c in self.terms.items() if total_degree(e) <= d},
            self.laurent, self.p)

    def diff(self, i: int) -> "SparseSeries":
        """Partial derivative with respect to variable i."""
        return self._result({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                             for e, c in self.terms.items() if e[i]})

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

    def eval_exact(self, point: Sequence):
        """The exact value at ``point``: a ``Fraction``, or an int in [0, p)."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match nvars")
        p = self.p
        if p is None:
            from fractions import Fraction

            # Fractions: an int to a negative (Laurent) power would be a float
            pt = [Fraction(_coerce(x)) for x in point]
            total = Fraction(0)
        else:
            pt = [residue(x, p) for x in point]
            total = 0
        for e, c in self.sorted_terms():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x ** k
            total += v
        return total if p is None else total % p

    # -- transforms ------------------------------------------------------------

    def sign_flip(self, i: int) -> "SparseSeries":
        """Image under the substitution that negates variable i."""
        return SparseSeries(
            self.nvars,
            {e: (-c if e[i] & 1 else c) for e, c in self.terms.items()},
            self.laurent, self.p)

    def embed(self, nvars: int, positions: Sequence[int],
              laurent: Optional[Sequence[bool]] = None) -> "SparseSeries":
        """Re-express over a larger variable list; positions[i] is the new index
        of old variable i.

        The positions must be distinct indices in range(nvars), so distinct
        terms stay distinct; they are checked once, and the terms are adopted
        as they are unless an old Laurent variable lands on a new variable
        that is not, when the checking constructor decides."""
        if len(positions) != self.nvars:
            raise ValueError("positions length does not match nvars")
        if (not all(isinstance(k, int) and 0 <= k < nvars for k in positions)
                or len(set(positions)) != len(positions)):
            raise ValueError(f"positions {list(positions)} are not distinct indices in "
                             f"range({nvars})")
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * nvars
            for old, new in enumerate(positions):
                e2[new] = e[old]
            out[tuple(e2)] = c
        lau = tuple(bool(b) for b in laurent) if laurent is not None else (False,) * nvars
        if (len(lau) == nvars and (self.p is None or not any(lau))
                and all(lau[new] for old, new in enumerate(positions) if self.laurent[old])):
            return SparseSeries._trusted(nvars, out, lau, self.p)
        return SparseSeries(nvars, out, lau, self.p)

    # -- comparison / presentation ----------------------------------------------

    def __hash__(self):  # the terms are a dict
        return hash((self.nvars, self.laurent, self.p,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        shown = ", ".join(f"{e}:{c}" for e, c in self.sorted_terms()[:6])
        more = "" if len(self.terms) <= 6 else f", +{len(self.terms) - 6} terms"
        field = "" if self.p is None else f"p={self.p}, "
        return f"SparseSeries(nvars={self.nvars}, {field}{{{shown}{more}}})"

    # -- canonical serialization -----------------------------------------------

    def to_doc(self, truncation: Optional[int] = None) -> dict:
        """Canonical document: ``truncation``, the total degree through which a
        written-out series is known (None for an exact polynomial), graded-lex
        sorted terms with coefficients as "num/den", then ``"laurent"`` flags
        when a variable has them and ``"p"`` over GF(p)."""
        doc = {
            "nvars": self.nvars,
            "truncation": truncation,
            "terms": [{"e": list(e), "c": f"{c.numerator}/{c.denominator}"}
                      for e, c in self.sorted_terms()],
        }
        if any(self.laurent):
            doc["laurent"] = list(self.laurent)
        if self.p is not None:
            doc["p"] = self.p
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping) -> "SparseSeries":
        """The polynomial of a document's terms; its truncation label is not read."""
        from fractions import Fraction

        p = doc.get("p")
        terms = {tuple(int(x) for x in t["e"]): Fraction(t["c"]) for t in doc["terms"]}
        return cls(int(doc["nvars"]), terms, doc.get("laurent"), None if p is None else int(p))

    def to_json(self, truncation: Optional[int] = None) -> str:
        import json

        return json.dumps(self.to_doc(truncation), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SparseSeries":
        import json

        return cls.from_doc(json.loads(text))
