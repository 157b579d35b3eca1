"""Vector fields and differential forms with polynomial coefficients.

Components are ``SparseSeries``: exact rational polynomials or truncated
series (truncation None or finite), or polynomials over GF(p) (``p`` set, no
truncation); the operations only assume ring arithmetic plus ``diff``.
Two-form components are stored on ordered index pairs i < j only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from hodgeloci._value import Value
from hodgeloci.series import SparseSeries, total_degree


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
    def zero(self) -> SparseSeries:
        return SparseSeries.zero(self.nvars, laurent=self.laurent)

    def one(self) -> SparseSeries:
        return SparseSeries.constant(self.nvars, 1, laurent=self.laurent)

    def constant(self, c) -> SparseSeries:
        return SparseSeries.constant(self.nvars, c, laurent=self.laurent)

    def var(self, which) -> SparseSeries:
        i = which if isinstance(which, int) else self.index(which)
        return SparseSeries.variable(self.nvars, i, laurent=self.laurent)

    def monomial(self, e, c=1) -> SparseSeries:
        return SparseSeries.monomial(self.nvars, e, c, laurent=self.laurent)

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
    """The common part of vector fields and 1-forms: one polynomial component
    per variable of the context."""

    ctx: PolyContext
    comps: Tuple[SparseSeries, ...]

    def __init__(self, ctx: PolyContext, comps):
        comps = tuple(comps)
        if len(comps) != ctx.nvars:
            raise ValueError(f"expected {ctx.nvars} components, got {len(comps)}")
        if any(c.nvars != ctx.nvars for c in comps):
            raise ValueError("component variable count does not match context")
        self.__dict__.update(ctx=ctx, comps=comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _check_ctx(self, other)
        return type(self)(self.ctx, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return type(self)(self.ctx, tuple(-c for c in self.comps))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, f):
        """Multiply by a polynomial (or scalar) coefficient."""
        return type(self)(self.ctx, tuple(f * c for c in self.comps))


class VectorField(_Components):
    """Derivation sum_i c_i d/dx_i with polynomial components."""

    def apply(self, f):
        """v(f) = sum_i c_i * df/dx_i."""
        out = None
        for i, c in enumerate(self.comps):
            term = c * f.diff(i)
            out = term if out is None else out + term
        return out if out is not None else f.ring_zero()

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

    def __neg__(self):
        return TwoForm(self.ctx, {k: -c for k, c in self.comps.items()})

    def __sub__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        return self + (-other)

    def __hash__(self):  # the components are a dict
        return hash((self.ctx, tuple(sorted(self.comps.items(), key=lambda t: t[0]))))


# -- exterior calculus ---------------------------------------------------------


def d_poly(f, ctx: PolyContext) -> OneForm:
    """Exterior derivative of a polynomial: sum_i df/dx_i dx_i."""
    return OneForm(ctx, tuple(f.diff(i) for i in range(ctx.nvars)))


def d_oneform(w: OneForm) -> TwoForm:
    """d(sum w_i dx_i) = sum_{i<j} (dw_j/dx_i - dw_i/dx_j) dx_i ^ dx_j."""
    n = w.ctx.nvars
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if not (w.comps[i] or w.comps[j]):
                continue
            c = w.comps[j].diff(i) - w.comps[i].diff(j)
            if not c.is_zero():
                comps[(i, j)] = c
    return TwoForm(w.ctx, comps)


def _min_trunc(*ts) -> Optional[int]:
    return min((t for t in ts if t is not None), default=None)


def _capped(c, t: Optional[int]):
    """c with its truncation lowered to t when t is below it."""
    if t is None or (c.truncation is not None and c.truncation <= t):
        return c
    return c.truncate(t)


def _wedge_into(acc: dict, a: OneForm, b: OneForm) -> None:
    """Add a ^ b into ``acc``, two-form components keyed by (i, j) with i < j.

    Only products of nonzero components are formed.  Each component of a ^ b
    is still cut to the truncation that the full a_i b_j - a_j b_i would have
    (zero factors included), and a sum that cancels leaves ``acc``, exactly as
    adding ``wedge(a, b)`` as a TwoForm would.
    """
    _check_ctx(a, b)
    na = [(i, c) for i, c in enumerate(a.comps) if c]
    nb = [(j, c) for j, c in enumerate(b.comps) if c]
    part = {}
    for i, ai in na:
        for j, bj in nb:
            if i == j:
                continue
            p = ai * bj
            key = (i, j) if i < j else (j, i)
            s = part.get(key)
            if i < j:
                part[key] = p if s is None else s + p
            else:
                part[key] = -p if s is None else s - p
    ta = [c.truncation for c in a.comps]
    tb = [c.truncation for c in b.comps]
    for key, w in part.items():
        i, j = key
        w = _capped(w, _min_trunc(ta[i], ta[j], tb[i], tb[j]))
        if not w:
            continue
        s = acc.get(key)
        if s is None:
            acc[key] = w
            continue
        s = s + w
        if s:
            acc[key] = s
        else:
            del acc[key]


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a ^ b)_{ij} = a_i b_j - a_j b_i for i < j."""
    comps = {}
    _wedge_into(comps, a, b)
    return TwoForm(a.ctx, comps)


def scaled_sum(ctx: PolyContext, pairs) -> OneForm:
    """sum_j f_j * w_j over (polynomial, 1-form) pairs, term by term.

    A zero f_j is skipped when neither it nor any component of w_j has a
    truncation: its product adds nothing.  Any other zero product is still
    added, because its truncation caps the sum's.  When every pair is skipped
    the sum is the zero of the last skipped factor's ring.
    """
    acc = zero = None
    for f, w in pairs:
        if not f and f.truncation is None and all(c.truncation is None for c in w.comps):
            zero = f
            continue
        term = w.scale(f)
        acc = term if acc is None else acc + term
    return acc if acc is not None else OneForm.zero(ctx, like=zero)


def pairing_eval(w: OneForm, v: Sequence, t: Sequence) -> Fraction:
    """Evaluate the bilinear pairing of a 1-form with a tangent vector at t."""
    if len(v) != w.ctx.nvars or len(t) != w.ctx.nvars:
        raise ValueError("vector/point length does not match context")
    total = Fraction(0)
    for c, vi in zip(w.comps, v):
        total += c.eval_exact(t) * Fraction(vi)
    return total


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
        """(A ^ B)_{ik} = sum_j A_{ij} ^ B_{jk}."""
        r, m = self.shape
        m2, c = other.shape
        if m != m2:
            raise ValueError("shape mismatch")
        out = []
        for i in range(r):
            row = []
            for k in range(c):
                acc = {}
                for j in range(m):
                    _wedge_into(acc, self.entries[i][j], other.entries[j][k])
                row.append(TwoForm(self.ctx, acc))
            out.append(row)
        return out

    def mul_poly_vec(self, xs: Sequence) -> List[OneForm]:
        """Matrix of 1-forms times a column of polynomials."""
        r, c = self.shape
        if len(xs) != c:
            raise ValueError("length mismatch")
        return [scaled_sum(self.ctx, zip(xs, self.entries[i])) for i in range(r)]

    def mul_poly_mat(self, s: Sequence[Sequence]) -> "FormMatrix":
        """B * S with S a matrix of polynomials."""
        r, c = self.shape
        if len(s) != c:
            raise ValueError("shape mismatch")
        cols = len(s[0])
        return FormMatrix(self.ctx, [
            [scaled_sum(self.ctx, ((s[j][k], self.entries[i][j]) for j in range(c)))
             for k in range(cols)] for i in range(r)])

    def pre_mul_poly_mat(self, s: Sequence[Sequence]) -> "FormMatrix":
        """S * B with S a matrix of polynomials."""
        r, c = self.shape
        if len(s[0]) != r:
            raise ValueError("shape mismatch")
        return FormMatrix(self.ctx, [
            [scaled_sum(self.ctx, ((si[j], self.entries[j][k]) for j in range(r)))
             for k in range(c)] for si in s])

    def __add__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        _check_ctx(self, other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return FormMatrix(self.ctx, [[a + b for a, b in zip(r1, r2)]
                                     for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return FormMatrix(self.ctx, [[-f for f in row] for row in self.entries])


def _shared_truncation(matrices) -> Optional[int]:
    shared = None
    for rows in matrices:
        for row in rows:
            for tf in row:
                for comp in tf.comps.values():
                    shared = SparseSeries._min_trunc(shared, comp.truncation)
    return shared


def _terms_at(comp, shared):
    if comp is None:
        return {}
    if shared is None:
        return comp.terms
    return {e: c for e, c in comp.terms.items() if total_degree(e) <= shared}


def integrability_check(b: FormMatrix) -> bool:
    """Exact entrywise equality of dB and B ^ B (square matrices).

    Exterior derivatives of truncated series are known one degree less than
    wedge products of the same input, so with truncated coefficients the two
    sides are compared at the shared truncation order.
    """
    r, c = b.shape
    if r != c:
        raise ValueError("integrability is defined for square matrices")
    db = b.d()
    bb = b.wedge_mul(b)
    shared = _shared_truncation([db, bb])
    for i in range(r):
        for j in range(c):
            keys = set(db[i][j].comps) | set(bb[i][j].comps)
            for key in keys:
                if _terms_at(db[i][j].comps.get(key), shared) != \
                        _terms_at(bb[i][j].comps.get(key), shared):
                    return False
    return True


def wedge_matvec(a: FormMatrix, forms: Sequence[OneForm]) -> List[TwoForm]:
    """(A ^ w)_i = sum_j A_{ij} ^ w_j for a column of 1-forms."""
    return [row[0] for row in a.wedge_mul(FormMatrix(a.ctx, [[w] for w in forms]))]


# -- polynomial matrices ----------------------------------------------------------


def poly_mat_identity(ctx: PolyContext, n: int) -> List[List[SparseSeries]]:
    one, zero = ctx.one(), ctx.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def poly_mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List]:
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("shape mismatch")
    out = []
    for i in range(rows):
        row = []
        for k in range(cols):
            acc = None
            for j in range(inner):
                term = a[i][j] * b[j][k]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def poly_mat_sub(a, b) -> List[List]:
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def poly_mat_d(s: Sequence[Sequence], ctx: PolyContext) -> FormMatrix:
    """Entrywise exterior derivative of a polynomial matrix."""
    return FormMatrix(ctx, [[d_poly(f, ctx) for f in row] for row in s])


def unipotent_inverse(y: Sequence[Sequence], ctx: PolyContext) -> List[List]:
    """Inverse of a unipotent matrix via the finite Neumann series
    (I - N + N^2 - ...), N = Y - I nilpotent."""
    n = len(y)
    ident = poly_mat_identity(ctx, n)
    nil = poly_mat_sub(y, ident)
    out = [row[:] for row in ident]
    power = ident
    for k in range(1, n):
        power = poly_mat_mul(power, nil)
        sign = -1 if k & 1 else 1
        out = [[a + (sign * b) for a, b in zip(r1, r2)] for r1, r2 in zip(out, power)]
    return out
