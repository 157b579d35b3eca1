"""The Hodge-block foliation assembly of a connection dY = B*Y.

``gm_assemble`` extends the base context by fiber coordinates x_1, ..., x_g
(x_1 Laurent), builds the column substitution matrix S with S*C = x and
det S = x_1, its closed-form inverse, and the connection matrix in the new
frame A = -S^{-1} dS + S^{-1} B S, whose product with the constant column C
generates the foliation carrying the constant-period loci as leaves.  S and
S^{-1} are the identity but for the x column, so A is formed from B with
that column replaced by B*x - dx, without matrix products; the assembly keeps
that column.  The entries of B are exact polynomial 1-forms.

``block_foliation_forms`` reads the block equations, rows of dx - B*x, off
the assembly's B*x - dx, and checks the span identity S * (A*C) = B*x - dx:
the pivot row operations and the closed-form S^{-1} that produced A*C,
multiplied back by S, must give the column they started from.
``gm_document`` writes the JSON output of the ``gm`` command.
"""

from __future__ import annotations

from typing import List, Tuple

from hodgeloci._value import Value
from hodgeloci.errors import InternalCheckFailed, TransversalityViolation
from hodgeloci.forms import FormMatrix, d_poly, poly_mat_identity
from hodgeloci.oneforms import OneForm, PolyContext
from hodgeloci.series import SparseSeries


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
    bx_minus_dx: Tuple[OneForm, ...]


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
    """B over the extended context; every component, embedded or zero, is in
    the extended context's ring."""
    base = b.ctx
    zeros = (ctx_ext.zero(),) * (ctx_ext.nvars - base.nvars)
    return FormMatrix(ctx_ext, [[OneForm._of(ctx_ext,
                                             tuple(base.embed(c, ctx_ext) for c in f.comps)
                                             + zeros)
                                 for f in row] for row in b.entries])


def gm_assemble(b: FormMatrix, blocks: HodgeBlocks) -> GMAssembly:
    """Assemble S, C, S^{-1}, the new-frame connection A, the foliation forms
    A*C and the column B*x - dx over the context extended by the fiber
    coordinates.

    B S - dS is B with column c0 replaced by B*x - dx; S^{-1} then scales row
    c0 by 1/x_1 and adds s_inv[r][c0] times row c0 to each row r below it.
    """
    rows, cols = b.shape
    if rows != cols or rows != blocks.total:
        raise ValueError(
            f"connection matrix is {rows}x{cols}, expected {blocks.total} (block-size inconsistency)")
    ctx_ext, x_names = extend_context(b.ctx, blocks)
    h = blocks.total
    g = blocks.x_count
    c0 = blocks.zero_rows  # 0-based index of the replaced column
    x_col = [ctx_ext.zero()] * c0 + [ctx_ext.var(n) for n in x_names]

    s = poly_mat_identity(ctx_ext, h)
    for r in range(h):
        s[r][c0] = x_col[r]

    # closed-form inverse: x_1 -> 1/x_1 and x_i -> -x_i/x_1 down the column
    x1_inv = ctx_ext.monomial((0,) * b.ctx.nvars + (-1,) + (0,) * (g - 1))
    s_inv = poly_mat_identity(ctx_ext, h)
    s_inv[c0][c0] = x1_inv
    for r in range(c0 + 1, h):
        s_inv[r][c0] = -(x_col[r] * x1_inv)

    c_col = [ctx_ext.zero()] * h
    c_col[c0] = ctx_ext.one()

    b_ext = _embed_matrix(b, ctx_ext)
    bx_minus_dx = tuple(bx - d_poly(x, ctx_ext)
                        for x, bx in zip(x_col, b_ext.mul_poly_vec(x_col)))
    m = [list(row) for row in b_ext.entries]  # becomes B S - dS, then A
    for r, f in enumerate(bx_minus_dx):
        m[r][c0] = f
    pivot = m[c0]
    m[c0] = [f.scale(x1_inv) for f in pivot]
    for r in range(c0 + 1, h):
        m[r] = [f + p.scale(s_inv[r][c0]) for f, p in zip(m[r], pivot)]
    a = FormMatrix(ctx_ext, m)
    forms = tuple(row[c0] for row in m)  # A*C is column c0 of A
    return GMAssembly(ctx_ext, blocks, tuple(map(tuple, s)), tuple(map(tuple, s_inv)),
                      tuple(c_col), a, forms, x_names, bx_minus_dx)


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
    """Emit the block equations of the foliation and verify that they span
    the same module as the assembled A*C.

    The equations are rows of dx - B*x, read off the assembly's B*x - dx:
    the middle-pairing rows (block m/2 - 1, where dx = 0) as they are, i.e.
    the ivhs block applied to the middle coordinates, then every row from
    block m/2 on negated.  Transversality, checked before anything is
    emitted, makes each whole row of B*x the sum over the block columns the
    pattern allows.  The span identity S * (A*C) = B*x - dx is checked
    exactly on every row; since S is invertible over the extended ring, the
    two generating sets span the same module.
    """
    asm = gm_assemble(b, blocks)
    check_transversality(b, blocks)
    half = blocks.m // 2
    c0 = blocks.zero_rows
    bx_minus_dx = asm.bx_minus_dx
    forms = bx_minus_dx[blocks.ranges()[half - 1][0]:c0] + tuple(-f for f in bx_minus_dx[c0:])

    s_ac = FormMatrix(asm.ctx, [[f] for f in asm.foliation_forms]).pre_mul_poly_mat(asm.s)
    for r, row in enumerate(s_ac.entries):
        if row[0] != bx_minus_dx[r]:
            raise InternalCheckFailed(
                f"assembled foliation does not match the block equations in row {r}")
    ivhs = _block_of(b, blocks, half - 1, half)
    return BlockFoliation(asm.ctx, forms, ivhs, asm)


def gm_document(result: BlockFoliation, integrable: bool) -> str:
    """The ``gm`` document of a block foliation: the assembly's x variables,
    S, C, A and foliation forms, the block equations and ivhs block, as
    expression strings, and the checks; ``integrable`` reports dB = B^B and
    dA = A^A, which the caller checks."""
    import json

    from hodgeloci import exprparse

    asm = result.assembly
    ctx_ext = asm.ctx
    doc = {
        "x_vars": list(asm.x_names),
        "S": [[exprparse.poly_to_expr(f, ctx_ext) for f in row] for row in asm.s],
        "C": [exprparse.poly_to_expr(f, ctx_ext) for f in asm.c],
        "A": [[exprparse.oneform_to_expr(f) for f in row] for row in asm.a.entries],
        "foliation": [exprparse.oneform_to_expr(f) for f in asm.foliation_forms],
        "block_equations": [exprparse.oneform_to_expr(f) for f in result.forms],
        "ivhs_block": [[exprparse.oneform_to_expr(f) for f in row]
                       for row in result.ivhs_block.entries],
        "checks": {"dA_eq_AwedgeA": integrable, "block_span_matches": True},
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
