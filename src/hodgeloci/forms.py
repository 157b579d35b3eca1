"""Vector fields and differential forms with polynomial coefficients.

Components are exact polynomials: ``SparseSeries`` over Q (Laurent in the
flagged variables) or over GF(p) (``p`` set), so every operation computes
exactly, and ``integrability_check`` compares dB and B ^ B as they are.  The
operations only assume ring arithmetic plus ``diff``.  Two-form components are
stored on ordered index pairs i < j only.

Every component of a form lies in one ring (the constructor checks it), and a
sum or a scaling checks once per form that its operands share that ring.  Most
components of the forms the commands build are zero, so the operations work
on nonzero components only: a sum or a scaling passes a zero component
through, ``d_oneform`` differentiates a component only by the variables its
terms hold, and ``VectorField.apply`` sums c_i * df/dx_i into one term map.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

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
        return SparseSeries(self.nvars, {}, laurent=self.laurent)

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
        return type(self)(self.ctx, tuple(map(_plus, self.comps, other.comps)))

    def __neg__(self):
        return type(self)(self.ctx, tuple(-c if c else c for c in self.comps))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_ring(other)
        return type(self)(self.ctx, tuple(map(_minus, self.comps, other.comps)))

    def scale(self, f):
        """Multiply by a polynomial (or scalar) coefficient."""
        if isinstance(f, SparseSeries):
            if self.comps:
                self.comps[0]._check_compatible(f)
            return type(self)(self.ctx, tuple(f * c if c else c for c in self.comps))
        return type(self)(self.ctx, tuple(f * c for c in self.comps))


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


class TwoForm(Value):
    """Differential 2-form; components stored on ordered pairs i < j."""

    ctx: PolyContext
    comps: Dict[Tuple[int, int], SparseSeries]

    def __init__(self, ctx: PolyContext, comps: Dict[Tuple[int, int], object]):
        clean = {}
        for (i, j), c in comps.items():
            if i >= j:
                raise ValueError("two-form components must be indexed i < j")
            if not c.is_zero():
                clean[(i, j)] = c
        self.__dict__.update(ctx=ctx, comps=clean)

    @classmethod
    def zero(cls, ctx: PolyContext):
        return cls(ctx, {})

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        _check_ctx(self, other)
        out = dict(self.comps)
        for k, c in other.comps.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return TwoForm(self.ctx, out)

    def __hash__(self):  # the components are a dict
        return hash((self.ctx, tuple(sorted(self.comps.items(), key=lambda t: t[0]))))


# -- exterior calculus ---------------------------------------------------------


def d_poly(f, ctx: PolyContext) -> OneForm:
    """Exterior derivative of a polynomial: sum_i df/dx_i dx_i."""
    return OneForm(ctx, tuple(f.diff(i) for i in range(ctx.nvars)))


def d_oneform(w: OneForm) -> TwoForm:
    """d(sum w_j dx_j) = sum_{i<j} (dw_j/dx_i - dw_i/dx_j) dx_i ^ dx_j.

    Each nonzero w_j is differentiated only by the variables x_i (i != j)
    that its terms hold: dw_j/dx_i goes to component (i, j) when i < j, and
    with a minus sign to (j, i) when i > j."""
    comps = {}
    for j, wj in enumerate(w.comps):
        if not wj:
            continue
        held = {i for e in wj.terms for i, k in enumerate(e) if k}
        held.discard(j)
        for i in held:
            key, c = ((i, j), wj.diff(i)) if i < j else ((j, i), -wj.diff(i))
            s = comps.get(key)
            comps[key] = c if s is None else s + c
    return TwoForm(w.ctx, comps)


def _wedge_into(acc: dict, a: OneForm, b: OneForm) -> None:
    """Add a ^ b into ``acc``, two-form components keyed by (i, j) with i < j.

    Only products of nonzero components are formed.  A component that cancels
    stays in ``acc`` as a zero, which ``TwoForm`` drops.
    """
    _check_ctx(a, b)
    nb = [(j, c) for j, c in enumerate(b.comps) if c]
    for i, ai in enumerate(a.comps):
        if not ai:
            continue
        for j, bj in nb:
            if i == j:
                continue
            p = ai * bj
            if i < j:
                s = acc.get((i, j))
                acc[(i, j)] = p if s is None else s + p
            else:
                s = acc.get((j, i))
                acc[(j, i)] = -p if s is None else s - p


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a ^ b)_{ij} = a_i b_j - a_j b_i for i < j."""
    comps = {}
    _wedge_into(comps, a, b)
    return TwoForm(a.ctx, comps)


def scaled_sum(ctx: PolyContext, pairs) -> OneForm:
    """sum_j f_j * w_j over (polynomial, 1-form) pairs, term by term, skipping
    a zero f_j.  When every f_j is zero the sum is the zero of the last one's
    ring.
    """
    acc = zero = None
    for f, w in pairs:
        if not f:
            zero = f
            continue
        term = w.scale(f)
        acc = term if acc is None else acc + term
    return acc if acc is not None else OneForm.zero(ctx, like=zero)


# -- matrices of 1-forms ---------------------------------------------------------


class FormMatrix(Value):
    """Rectangular matrix of 1-forms over a shared context."""

    ctx: PolyContext
    entries: Tuple[Tuple[OneForm, ...], ...]

    def __init__(self, ctx: PolyContext, entries):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            w = len(entries[0])
            if any(len(row) != w for row in entries):
                raise ValueError("matrix is not rectangular")
        for row in entries:
            for f in row:
                if not isinstance(f, OneForm) or f.ctx != ctx:
                    raise ValueError("entries must be 1-forms over the shared context")
        self.__dict__.update(ctx=ctx, entries=entries)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    @classmethod
    def zeros(cls, ctx: PolyContext, rows: int, cols: int):
        z = OneForm.zero(ctx)
        return cls(ctx, [[z] * cols for _ in range(rows)])

    def d(self) -> List[List[TwoForm]]:
        return [[d_oneform(f) for f in row] for row in self.entries]

    def wedge_mul(self, other: "FormMatrix") -> List[List[TwoForm]]:
        """(A ^ B)_{ik} = sum_j A_{ij} ^ B_{jk}, summed only over the j where
        both entries are nonzero: the nonzero ``(j, B_jk)`` of each column are
        listed once, and a pair is formed only when ``A_ij`` is nonzero too."""
        _check_ctx(self, other)
        m, c = other.shape
        if self.shape[1] != m:
            raise ValueError("shape mismatch")
        cols = [[(j, other.entries[j][k]) for j in range(m) if not other.entries[j][k].is_zero()]
                for k in range(c)]
        out = []
        for arow in self.entries:
            nonzero = [not a.is_zero() for a in arow]
            row = []
            for col in cols:
                acc = {}
                for j, b in col:
                    if nonzero[j]:
                        _wedge_into(acc, arow[j], b)
                row.append(TwoForm(self.ctx, acc))
            out.append(row)
        return out

    def mul_poly_vec(self, xs: Sequence) -> List[OneForm]:
        """Matrix of 1-forms times a column of polynomials."""
        r, c = self.shape
        if len(xs) != c:
            raise ValueError("length mismatch")
        return [scaled_sum(self.ctx, zip(xs, self.entries[i])) for i in range(r)]

    def pre_mul_poly_mat(self, s: Sequence[Sequence]) -> "FormMatrix":
        """S * B with S a matrix of polynomials."""
        r, c = self.shape
        if len(s[0]) != r:
            raise ValueError("shape mismatch")
        return FormMatrix(self.ctx, [
            [scaled_sum(self.ctx, ((si[j], self.entries[j][k]) for j in range(r)))
             for k in range(c)] for si in s])


def integrability_check(b: FormMatrix) -> bool:
    """Exact entrywise equality of dB and B ^ B (square matrices)."""
    r, c = b.shape
    if r != c:
        raise ValueError("integrability is defined for square matrices")
    return b.d() == b.wedge_mul(b)


# -- polynomial matrices ----------------------------------------------------------


def poly_mat_identity(ctx: PolyContext, n: int) -> List[List[SparseSeries]]:
    one, zero = ctx.one(), ctx.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
