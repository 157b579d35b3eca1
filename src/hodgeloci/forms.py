"""Differential 2-forms and matrices of 1-forms with polynomial coefficients.

``OneForm`` and ``PolyContext`` are defined in ``oneforms``; this module
imports them, so ``forms.PolyContext`` names the same class.  Components are
exact polynomials, so every operation computes exactly, and
``integrability_check`` compares dB and B ^ B as they are.  The operations
only assume ring arithmetic plus ``diff``.  Two-form components are stored on
ordered index pairs i < j only.  Most components of the forms the commands
build are zero, so the operations work on nonzero components only:
``d_oneform`` differentiates a component only by the variables its terms
hold, and the wedge products form only products of nonzero entries.  ``gm``,
``foliation-check`` and ``solve-linear`` load this module; ``tangency`` and
``pcurvature`` do not.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from hodgeloci._value import Value
from hodgeloci.oneforms import OneForm, PolyContext, _check_ctx
from hodgeloci.series import SparseSeries


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
