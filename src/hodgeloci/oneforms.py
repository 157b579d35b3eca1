"""Polynomial contexts, vector fields, 1-forms and the generator lists of
ideals: what every foliation command works on.

Components are exact polynomials: ``SparseSeries`` over Q (Laurent in the
flagged variables) or over GF(p) (``p`` set).  Every component of a field or a
form lies in one ring (the constructor checks it), and a sum or a scaling
checks once per form that its operands share that ring; its result, whose
components come from checked ones, is built by ``_of`` with no further check.
Most components are zero, so a sum or a scaling passes a zero component
through, and ``VectorField.apply`` sums c_i * df/dx_i into one term map.
The 2-forms and the matrices of 1-forms, which only ``gm``,
``foliation-check`` and ``solve-linear`` run, are in ``forms``.
"""

from __future__ import annotations

from operator import add
from typing import Optional, Sequence, Tuple

from hodgeloci._value import Value
from hodgeloci.series import SparseSeries


class PolyContext(Value):
    """Ordered variable names with per-variable Laurent flags, shared by all
    objects in a computation."""

    names: Tuple[str, ...]
    laurent: Tuple[bool, ...]

    def __init__(self, names, laurent=()):
        names = tuple(names)
        laurent = tuple(laurent) if laurent else (False,) * len(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if len(laurent) != len(names):
            raise ValueError("laurent flag count does not match variable count")
        self.__dict__.update(names=names, laurent=laurent)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    # polynomial constructors over this context
    def monomial(self, e, c=1) -> SparseSeries:
        return SparseSeries(self.nvars, {tuple(e): c}, laurent=self.laurent)

    def zero(self) -> SparseSeries:
        return SparseSeries._trusted(self.nvars, {}, self.laurent)

    def one(self) -> SparseSeries:
        return self.constant(1)

    def constant(self, c) -> SparseSeries:
        return self.monomial((0,) * self.nvars, c)

    def var(self, which) -> SparseSeries:
        i = which if isinstance(which, int) else self.index(which)
        e = [0] * self.nvars
        e[i] = 1
        return self.monomial(e)

    def extend(self, extra_names: Sequence[str],
               extra_laurent: Optional[Sequence[bool]] = None) -> "PolyContext":
        lau = tuple(extra_laurent) if extra_laurent is not None else (False,) * len(extra_names)
        return PolyContext(self.names + tuple(extra_names), self.laurent + lau)

    def embed(self, poly: SparseSeries, into: "PolyContext") -> SparseSeries:
        """Re-express a polynomial of this context over a context that contains
        the same names (matched by name)."""
        positions = [into.index(n) for n in self.names]
        return poly.embed(into.nvars, positions, laurent=into.laurent)


def _check_ctx(a, b):
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")


class _Components(Value):
    """The common part of vector fields and 1-forms: one exact polynomial
    component per variable of the context, all in one ring (the same
    variable count, Laurent flags and ``p``)."""

    ctx: PolyContext
    comps: Tuple[SparseSeries, ...]

    def __init__(self, ctx: PolyContext, comps):
        comps = tuple(comps)
        n = ctx.nvars
        if len(comps) != n:
            raise ValueError(f"expected {n} components, got {len(comps)}")
        for c in comps:
            if c.nvars != n:
                raise ValueError("component variable count does not match context")
            comps[0]._check_compatible(c)
        self.__dict__.update(ctx=ctx, comps=comps)

    @classmethod
    def _of(cls, ctx: PolyContext, comps: Tuple[SparseSeries, ...]):
        """Adopt ``comps`` with no checks: for a tuple of one component per
        variable of ``ctx``, all in one ring."""
        self = object.__new__(cls)
        self.__dict__.update(ctx=ctx, comps=comps)
        return self

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def _check_ring(self, other) -> None:
        """``other`` shares this form's context and ring."""
        _check_ctx(self, other)
        if self.comps:
            self.comps[0]._check_compatible(other.comps[0])

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_ring(other)
        return self._of(self.ctx, tuple(map(_plus, self.comps, other.comps)))

    def __neg__(self):
        return self._of(self.ctx, tuple(-c if c else c for c in self.comps))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_ring(other)
        return self._of(self.ctx, tuple(map(_minus, self.comps, other.comps)))

    def scale(self, f):
        """Multiply by a polynomial (or scalar) coefficient."""
        if isinstance(f, SparseSeries):
            if self.comps:
                self.comps[0]._check_compatible(f)
            return self._of(self.ctx, tuple(f * c if c else c for c in self.comps))
        return self._of(self.ctx, tuple(f * c for c in self.comps))


def _plus(a: SparseSeries, b: SparseSeries) -> SparseSeries:
    """``a + b``, for operands known to share a ring."""
    if not b:
        return a
    return a + b if a else b


def _minus(a: SparseSeries, b: SparseSeries) -> SparseSeries:
    """``a - b``, for operands known to share a ring."""
    if not b:
        return a
    return a - b if a else -b


class VectorField(_Components):
    """Derivation sum_i c_i d/dx_i with polynomial components."""

    def apply(self, f):
        """v(f) = sum_i c_i * df/dx_i, summed in one pass into one term map:
        each term a x^e of f gives a * e_i * x^(e - 1_i) * c_i for every i
        with e_i != 0."""
        comps = self.comps
        if comps:
            f._check_compatible(comps[0])
        out = {}
        for e, a in f.terms.items():
            for i, k in enumerate(e):
                if not k or not comps[i]:
                    continue
                de = e[:i] + (k - 1,) + e[i + 1:]
                ak = a * k
                for e2, c2 in comps[i].terms.items():
                    e3 = tuple(map(add, de, e2))
                    s = out.get(e3)
                    s = ak * c2 if s is None else s + ak * c2
                    if s:
                        out[e3] = s
                    else:
                        del out[e3]
        return f._result(out)

    def evaluate(self, point) -> tuple:
        """The tangent vector at a point: componentwise evaluation."""
        return tuple(c.eval_exact(point) for c in self.comps)


class IdealGens(Value):
    """A finite list of nonzero polynomial generators of an ideal."""

    ctx: PolyContext
    gens: Tuple[SparseSeries, ...]

    def __init__(self, ctx, gens):
        self.__dict__.update(ctx=ctx, gens=tuple(g for g in gens if not g.is_zero()))

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def max_degree(self) -> int:
        return max((g.degree() for g in self.gens), default=0)


class OneForm(_Components):
    """Differential 1-form sum_i c_i dx_i with polynomial components."""

    @classmethod
    def zero(cls, ctx: PolyContext, like=None):
        z = like.ring_zero() if like is not None else ctx.zero()
        return cls(ctx, (z,) * ctx.nvars)

    def contract(self, v: VectorField):
        """The pairing omega(v) = sum_i omega_i * v_i."""
        _check_ctx(self, v)
        out = None
        for a, b in zip(self.comps, v.comps):
            term = a * b
            out = term if out is None else out + term
        return out
