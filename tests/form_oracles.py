"""Polynomial-matrix and wedge-product oracles for the form tests.

No command runs these: the tests build Gauss-Manin connections B = dY Y^-1
from unipotent frames with them, check ``gauss_manin``'s assembly and block
equations against plain products, and compare the operations that skip zero
entries (``FormMatrix.wedge_mul``, ``d_oneform``, ``VectorField.apply`` and
with it ``pcurvature.vf_pow_p``) with their definitions over every index.
"""

from typing import List, Sequence

from hodgeloci.forms import FormMatrix, TwoForm, d_poly, poly_mat_identity, scaled_sum
from hodgeloci.modp import mod_reduce
from hodgeloci.oneforms import OneForm, PolyContext, VectorField


def mul_poly_mat(b: FormMatrix, s: Sequence[Sequence]) -> FormMatrix:
    """B * S with S a matrix of polynomials."""
    r, c = b.shape
    if len(s) != c:
        raise ValueError("shape mismatch")
    cols = len(s[0])
    return FormMatrix(b.ctx, [
        [scaled_sum(b.ctx, ((s[j][k], b.entries[i][j]) for j in range(c)))
         for k in range(cols)] for i in range(r)])


def dense_wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a ^ b)_{ij} = a_i b_j - a_j b_i for every i < j, zero factors included."""
    n = a.ctx.nvars
    return TwoForm(a.ctx, {(i, j): a.comps[i] * b.comps[j] - a.comps[j] * b.comps[i]
                           for i in range(n) for j in range(i + 1, n)})


def apply_dense(v: VectorField, f):
    """v(f) = sum_i c_i * df/dx_i, every i, zero factors included."""
    acc = f.ring_zero()
    for i, c in enumerate(v.comps):
        acc = acc + c * f.diff(i)
    return acc


def vf_pow_p_dense(v: VectorField, p: int) -> VectorField:
    """The derivation x_i -> v(v(...v(x_i)...)), p applications of
    ``apply_dense`` to each coordinate, with v reduced mod p first."""
    vbar = VectorField(v.ctx, tuple(mod_reduce(c, p) for c in v.comps))
    comps = []
    for i in range(v.ctx.nvars):
        f = mod_reduce(v.ctx.var(i), p)
        for _ in range(p):
            f = apply_dense(vbar, f)
        comps.append(f)
    return VectorField(v.ctx, tuple(comps))


def d_oneform_dense(w: OneForm) -> TwoForm:
    """d(sum w_i dx_i) = sum_{i<j} (dw_j/dx_i - dw_i/dx_j) dx_i ^ dx_j over every pair."""
    n = w.ctx.nvars
    return TwoForm(w.ctx, {(i, j): w.comps[j].diff(i) - w.comps[i].diff(j)
                           for i in range(n) for j in range(i + 1, n)})


def wedge_mul_dense(a: FormMatrix, b: FormMatrix) -> List[List[TwoForm]]:
    """(A ^ B)_{ik} = sum_j A_{ij} ^ B_{jk}, every j, zero entries included."""
    (r, m), (_, c) = a.shape, b.shape
    out = []
    for i in range(r):
        row = []
        for k in range(c):
            acc = TwoForm.zero(a.ctx)
            for j in range(m):
                acc = acc + dense_wedge(a.entries[i][j], b.entries[j][k])
            row.append(acc)
        out.append(row)
    return out


def wedge_matvec(a: FormMatrix, forms: Sequence[OneForm]) -> List[TwoForm]:
    """(A ^ w)_i = sum_j A_{ij} ^ w_j for a column of 1-forms."""
    return [row[0] for row in a.wedge_mul(FormMatrix(a.ctx, [[w] for w in forms]))]


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
