"""Linear differential systems dY = B*Y and the Hodge-block foliation assembly.

``linear_solve_series`` produces the truncated fundamental matrix with
Y(0) = I by solving the coefficient recursion degree by degree; a full
post-verification of dY - B*Y through the requested order raises
NotIntegrable on inconsistent (non-integrable) input.

``gm_assemble`` extends the base context by fiber coordinates x_1, ..., x_g
(x_1 Laurent), builds the column substitution matrix S with S*C = x and
det S = x_1, its closed-form inverse, and the connection matrix in the new
frame A = -S^{-1} dS + S^{-1} B S, whose product with the constant column C
generates the foliation carrying the constant-period loci as leaves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from hodgeloci._value import Value
from hodgeloci.errors import InternalCheckFailed, NotIntegrable, TransversalityViolation
from hodgeloci.forms import (FormMatrix, OneForm, PolyContext, d_poly, poly_mat_d,
                             poly_mat_identity, scaled_sum)
from hodgeloci.series import SparseSeries, monomials_upto


class HodgeBlocks(Value):
    """Block sizes of an even-weight Hodge decomposition, position-indexed:
    block i has size h^{m-i,i} for i = 0..m.  Sizes must be symmetric."""

    m: int
    sizes: Tuple[int, ...]

    def __init__(self, m, sizes):
        if m < 2 or m % 2:
            raise ValueError("weight m must be a positive even integer")
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) != m + 1:
            raise ValueError(f"expected {m + 1} block sizes")
        if any(s < 0 for s in sizes):
            raise ValueError("block sizes must be non-negative")
        if not any(sizes):
            raise ValueError("block sizes are all zero: there are no fiber coordinates")
        if any(sizes[i] != sizes[m - i] for i in range(m + 1)):
            raise ValueError("block sizes are inconsistent: not symmetric")
        self.__dict__.update(m=m, sizes=sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def upper_sum(self, i: int) -> int:
        """Partial sum of block sizes from position 0 through m - i."""
        return sum(self.sizes[: self.m - i + 1])

    @property
    def zero_rows(self) -> int:
        """Rows of the period column forced to zero (positions 0..m/2-1)."""
        return sum(self.sizes[: self.m // 2])

    @property
    def x_count(self) -> int:
        return self.total - self.zero_rows

    def ranges(self) -> List[Tuple[int, int]]:
        out = []
        start = 0
        for s in self.sizes:
            out.append((start, start + s))
            start += s
        return out


# -- series solver ---------------------------------------------------------------


def linear_solve_series(b: FormMatrix, order: int) -> List[List[SparseSeries]]:
    """Truncated fundamental solution Y of dY = B*Y with Y(0) = identity.

    Coefficients of Y are produced through total degree ``order``; the
    defining identity is then verified in every variable direction through
    degree order-1, raising NotIntegrable on failure.  The expansion point is
    the origin, which must be a regular point of the system: connections with
    a singular origin have to be re-expanded at a regular point by the caller.
    """
    rows, cols = b.shape
    if rows != cols:
        raise ValueError("connection matrix must be square")
    if order < 0:
        raise ValueError("order must be non-negative")
    ctx = b.ctx
    if any(ctx.laurent):
        raise ValueError("series solving requires a non-Laurent context")
    nv = ctx.nvars
    h = rows
    # direction matrices: bdir[i][r][c] = coefficient polynomial of dx_i
    bdir = [[[b.entries[r][c].comps[i] for c in range(h)] for r in range(h)]
            for i in range(nv)]
    y: List[List[Dict[Tuple[int, ...], Fraction]]] = [
        [{} for _ in range(h)] for _ in range(h)]
    zero_e = (0,) * nv
    for r in range(h):
        y[r][r][zero_e] = Fraction(1)

    def product_coeff(i: int, r: int, c: int, mono: Tuple[int, ...]) -> Fraction:
        """Coefficient of x^mono in row r of (B_i * Y) column c."""
        total = Fraction(0)
        for k in range(h):
            poly = bdir[i][r][k]
            ycol = y[k][c]
            if not poly.terms or not ycol:
                continue
            for e1, c1 in poly.terms.items():
                e2 = tuple(x - z for x, z in zip(mono, e1))
                if any(x < 0 for x in e2):
                    continue
                c2 = ycol.get(e2)
                if c2 is not None:
                    total += c1 * c2
        return total

    # graded-lex order: every coefficient of lower degree is known in time
    for mono in monomials_upto(nv, order)[1:]:
        i = next(j for j, x in enumerate(mono) if x)
        prev = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        for r in range(h):
            for c in range(h):
                val = product_coeff(i, r, c, prev) / mono[i]
                if val:
                    y[r][c][mono] = val

    # verify dY = B*Y in every direction through degree order-1
    for mono in monomials_upto(nv, order - 1):
        for i in range(nv):
            up = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            for r in range(h):
                for c in range(h):
                    lhs = y[r][c].get(up, Fraction(0)) * up[i]
                    if lhs != product_coeff(i, r, c, mono):
                        raise NotIntegrable(
                            f"no consistent solution at degree {sum(mono) + 1} "
                            f"(entry ({r},{c}), direction {ctx.names[i]})")
    return [[SparseSeries(nv, y[r][c], truncation=order) for c in range(h)]
            for r in range(h)]


# -- Hodge-block assembly -----------------------------------------------------------


class GMAssembly(Value):
    ctx: PolyContext
    blocks: HodgeBlocks
    s: Tuple[Tuple[SparseSeries, ...], ...]
    s_inv: Tuple[Tuple[SparseSeries, ...], ...]
    c: Tuple[SparseSeries, ...]
    a: FormMatrix
    foliation_forms: Tuple[OneForm, ...]
    x_names: Tuple[str, ...]


def extend_context(ctx: PolyContext, blocks: HodgeBlocks) -> Tuple[PolyContext, Tuple[str, ...]]:
    """Adjoin fiber coordinates x_1..x_g, with x_1 Laurent-flagged."""
    g = blocks.x_count
    x_names = tuple(f"x{i + 1}" for i in range(g))
    for name in x_names:
        if name in ctx.names:
            raise ValueError(f"variable name {name!r} clashes with the base context")
    ctx_ext = ctx.extend(x_names, (True,) + (False,) * (g - 1))
    return ctx_ext, x_names


def _embed_matrix(b: FormMatrix, ctx_ext: PolyContext) -> FormMatrix:
    base = b.ctx
    return FormMatrix(ctx_ext, [[OneForm(ctx_ext,
                                         tuple(base.embed(c, ctx_ext) for c in f.comps)
                                         + (ctx_ext.zero(),) * (ctx_ext.nvars - base.nvars))
                                 for f in row] for row in b.entries])


def gm_assemble(b: FormMatrix, blocks: HodgeBlocks) -> GMAssembly:
    """Assemble S, C, S^{-1}, the new-frame connection A and the foliation
    forms A*C over the context extended by the fiber coordinates."""
    rows, cols = b.shape
    if rows != cols or rows != blocks.total:
        raise ValueError(
            f"connection matrix is {rows}x{cols}, expected {blocks.total} (block-size inconsistency)")
    ctx_ext, x_names = extend_context(b.ctx, blocks)
    h = blocks.total
    g = blocks.x_count
    c0 = blocks.zero_rows  # 0-based index of the replaced column

    xs = [ctx_ext.var(n) for n in x_names]
    x_col = [ctx_ext.zero()] * c0 + xs

    s = poly_mat_identity(ctx_ext, h)
    for r in range(h):
        s[r][c0] = x_col[r]

    # closed-form inverse: x_1 -> 1/x_1 and x_i -> -x_i/x_1 down the column
    x1_inv = ctx_ext.monomial((0,) * b.ctx.nvars + (-1,) + (0,) * (g - 1))
    s_inv = poly_mat_identity(ctx_ext, h)
    s_inv[c0][c0] = x1_inv
    for j in range(1, g):
        s_inv[c0 + j][c0] = -(xs[j] * x1_inv)

    c_col = [ctx_ext.zero()] * h
    c_col[c0] = ctx_ext.one()

    b_ext = _embed_matrix(b, ctx_ext)
    ds = poly_mat_d(s, ctx_ext)
    a = (-ds.pre_mul_poly_mat(s_inv)) + b_ext.mul_poly_mat(s).pre_mul_poly_mat(s_inv)
    forms = tuple(a.mul_poly_vec(c_col))
    return GMAssembly(ctx_ext, blocks, tuple(map(tuple, s)), tuple(map(tuple, s_inv)),
                      tuple(c_col), a, forms, x_names)


# -- block equations -----------------------------------------------------------------


class BlockFoliation(Value):
    """The foliation generators read off the Hodge-block pattern, together
    with the middle-block pairing matrix (the infinitesimal-variation block)."""

    ctx: PolyContext
    forms: Tuple[OneForm, ...]
    ivhs_block: FormMatrix
    assembly: GMAssembly


def _block_of(b: FormMatrix, blocks: HodgeBlocks, i: int, j: int) -> FormMatrix:
    ranges = blocks.ranges()
    r0, r1 = ranges[i]
    c0, c1 = ranges[j]
    return FormMatrix(b.ctx, [row[c0:c1] for row in b.entries[r0:r1]])


def check_transversality(b: FormMatrix, blocks: HodgeBlocks) -> None:
    """Raise TransversalityViolation when a block with column position at least
    two past the row position is nonzero."""
    for i in range(blocks.m + 1):
        for j in range(i + 2, blocks.m + 1):
            blk = _block_of(b, blocks, i, j)
            if any(not f.is_zero() for row in blk.entries for f in row):
                raise TransversalityViolation((i, j))


def block_foliation_forms(b: FormMatrix, blocks: HodgeBlocks) -> BlockFoliation:
    """Emit the block equations of the foliation: the middle-pairing rows
    (ivhs block applied to the middle coordinates) and dx^i minus the allowed
    block combinations; verify they span the same module as the assembled A*C.

    The span identity checked is S * (A*C) = -(dx - B*x), exact entrywise;
    since S is invertible over the extended ring, the two generating sets
    span the same module.
    """
    rows, cols = b.shape
    if rows != cols or rows != blocks.total:
        raise ValueError(
            f"connection matrix is {rows}x{cols}, expected {blocks.total} (block-size inconsistency)")
    check_transversality(b, blocks)
    asm = gm_assemble(b, blocks)
    ctx_ext = asm.ctx
    half = blocks.m // 2
    b_ext = _embed_matrix(b, ctx_ext)

    # the x column over the extended context: zero blocks then the coordinates
    xs = [ctx_ext.var(n) for n in asm.x_names]
    x_col = [ctx_ext.zero()] * blocks.zero_rows + xs

    ranges = blocks.ranges()

    def rows_times_x(i: int, j0: int, j1: int) -> List[OneForm]:
        """The rows of block row i times x, over block columns j0..j1."""
        r0, r1 = ranges[i]
        c0, c1 = ranges[j0][0], ranges[j1][1]
        return [scaled_sum(ctx_ext, zip(x_col[c0:c1], b_ext.entries[r][c0:c1]))
                for r in range(r0, r1)]

    forms: List[OneForm] = []
    ivhs = _block_of(b, blocks, half - 1, half)
    # middle pairing rows: 0 = (ivhs block) * x^{m/2}
    forms.extend(rows_times_x(half - 1, half, half))
    # dx^i = sum of allowed blocks times x^j, for i = m/2 .. m
    for i in range(half, blocks.m + 1):
        r0, r1 = ranges[i]
        bx = rows_times_x(i, half, min(i + 1, blocks.m))
        for offset, r in enumerate(range(r0, r1)):
            dx = d_poly(x_col[r], ctx_ext)
            forms.append(dx - bx[offset])

    # span identity against the assembly
    s_ac = FormMatrix(ctx_ext, [[f] for f in asm.foliation_forms]).pre_mul_poly_mat(asm.s)
    bx = b_ext.mul_poly_vec(x_col)
    for r in range(blocks.total):
        if s_ac.entries[r][0] != -(d_poly(x_col[r], ctx_ext) - bx[r]):
            raise InternalCheckFailed(
                f"assembled foliation does not match the block equations in row {r}")
    return BlockFoliation(ctx_ext, tuple(forms), ivhs, asm)
