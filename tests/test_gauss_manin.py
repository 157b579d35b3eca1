import random
from fractions import Fraction

import pytest

from hodgeloci import gauss_manin
from hodgeloci.errors import InternalCheckFailed, NotIntegrable, TransversalityViolation
from form_oracles import (mul_poly_mat, poly_mat_d, poly_mat_mul, unipotent_inverse,
                          wedge_matvec)
from hodgeloci.forms import (FormMatrix, d_oneform, d_poly, integrability_check,
                             poly_mat_identity, scaled_sum)
from hodgeloci.gauss_manin import GMAssembly, HodgeBlocks, block_foliation_forms, gm_assemble
from hodgeloci.oneforms import OneForm, PolyContext
from hodgeloci.series import SparseSeries
from hodgeloci.solve_linear import linear_solve_series

CTX = PolyContext(("t1", "t2"))
T1, T2 = CTX.var(0), CTX.var(1)


def rand_poly(rng, ctx=CTX, max_deg=2, max_terms=3, zero_constant=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ctx.nvars))
        if zero_constant and sum(e) == 0:
            continue
        terms[e] = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
    return SparseSeries(ctx.nvars, terms, laurent=ctx.laurent)


class TestHodgeBlocks:
    def test_partial_sums(self):
        blocks = HodgeBlocks(2, (1, 2, 1))
        assert blocks.total == 4
        assert blocks.zero_rows == 1
        assert blocks.x_count == 3

    def test_rejects_asymmetric_sizes(self):
        with pytest.raises(ValueError):
            HodgeBlocks(2, (1, 2, 2))
        with pytest.raises(ValueError):
            HodgeBlocks(2, (1, 2))


class TestLinearSolve:
    def test_exponential(self):
        ctx = PolyContext(("z",))
        b = FormMatrix(ctx, [[OneForm(ctx, (ctx.constant(3),))]])
        y = linear_solve_series(b, 8)[0][0]
        from math import factorial
        for n in range(9):
            assert y.coefficient((n,)) == Fraction(3 ** n, factorial(n))

    def test_geometric(self):
        # B = (sum_{n<D} z^n) dz solves to 1/(1-z)
        ctx = PolyContext(("z",))
        d = 8
        coeff = SparseSeries(1, {(n,): 1 for n in range(d)})
        b = FormMatrix(ctx, [[OneForm(ctx, (coeff,))]])
        y = linear_solve_series(b, d)[0][0]
        assert y == SparseSeries(1, {(n,): 1 for n in range(d + 1)})

    def test_commuting_two_variable_exponential(self):
        b = FormMatrix(CTX, [[OneForm(CTX, (CTX.one(), CTX.one()))]])
        y = linear_solve_series(b, 6)[0][0]
        from math import factorial
        for i in range(7):
            for j in range(7 - i):
                assert y.coefficient((i, j)) == Fraction(1, factorial(i) * factorial(j))

    def test_not_integrable_raises(self):
        b = FormMatrix(CTX, [[OneForm(CTX, (CTX.zero(), T1))]])  # t1 dt2
        with pytest.raises(NotIntegrable):
            linear_solve_series(b, 3)

    def test_reproduces_unipotent_solutions(self):
        rng = random.Random(31)
        for _ in range(10):
            n = 3
            y = poly_mat_identity(CTX, n)
            y = [row[:] for row in y]
            for i in range(n):
                for j in range(i + 1, n):
                    y[i][j] = rand_poly(rng)
            yinv = unipotent_inverse(y, CTX)
            b = mul_poly_mat(poly_mat_d(y, CTX), yinv)
            assert integrability_check(b)
            solved = linear_solve_series(b, 8)
            # normalize Y(0) = I
            y0inv = unipotent_inverse(
                [[CTX.constant(f.constant_term()) for f in row] for row in y], CTX)
            normalized = poly_mat_mul(y, y0inv)
            for i in range(n):
                for j in range(n):
                    assert solved[i][j] == normalized[i][j].truncate(8)

    def test_determinism(self):
        rng = random.Random(8)
        y = poly_mat_identity(CTX, 2)
        y = [row[:] for row in y]
        y[0][1] = rand_poly(rng)
        b = mul_poly_mat(poly_mat_d(y, CTX), unipotent_inverse(y, CTX))
        s1 = linear_solve_series(b, 6)
        s2 = linear_solve_series(b, 6)
        assert s1 == s2


def block_pattern_connection(rng):
    """Random integrable 4x4 connection respecting the (1,2,1) block pattern:
    B = dY * Y^{-1} with Y = Y_lower * Y_upper, the upper factor built so its
    top-right block cancels."""
    f = rand_poly(rng, max_deg=2, zero_constant=True)
    u = [rng.randint(-3, 3) for _ in range(2)]
    w = [rng.randint(-3, 3) for _ in range(2)]
    # upper factor: N1 = u*f (block 0,1), N2 = w*f^2 (block 1,2),
    # M = u.w * f^3/3 (block 0,2) so that dM = dN1*N2
    y_u = poly_mat_identity(CTX, 4)
    y_u = [row[:] for row in y_u]
    f2, f3 = f * f, f * f * f
    y_u[0][1] = u[0] * f
    y_u[0][2] = u[1] * f
    y_u[1][3] = w[0] * f2
    y_u[2][3] = w[1] * f2
    y_u[0][3] = Fraction(u[0] * w[0] + u[1] * w[1], 3) * f3
    # lower unipotent factor with random polynomial entries
    y_l = poly_mat_identity(CTX, 4)
    y_l = [row[:] for row in y_l]
    for i in range(4):
        for j in range(i):
            y_l[i][j] = rand_poly(rng, max_deg=1, max_terms=2)
    y = poly_mat_mul(y_l, y_u)
    y_inv = poly_mat_mul(unipotent_inverse(y_u, CTX), unipotent_inverse(y_l, CTX))
    return mul_poly_mat(poly_mat_d(y, CTX), y_inv)


def weight_four_connection(rng):
    """Random integrable 5x5 connection respecting the (1,1,1,1,1) pattern:
    B = dY * Y^{-1} with Y = Y_lower * exp(f N), N a constant superdiagonal
    nilpotent.  dY Y^{-1} = dY_l Y_l^{-1} + Y_l (df N) Y_l^{-1}, and
    conjugating by a lower unipotent matrix keeps entry (i, j) zero for j > i + 1."""
    f = rand_poly(rng, max_deg=1, zero_constant=True)
    nil = [[CTX.constant(rng.randint(-3, 3)) if j == i + 1 else CTX.zero() for j in range(5)]
           for i in range(5)]
    y_u = [row[:] for row in poly_mat_identity(CTX, 5)]
    power, fk = y_u, CTX.one()
    for k in range(1, 5):  # exp(f N) = sum_k f^k N^k / k!, and N^5 = 0
        power, fk = poly_mat_mul(power, nil), fk * f * Fraction(1, k)
        y_u = [[a + fk * p for a, p in zip(r1, r2)] for r1, r2 in zip(y_u, power)]
    y_l = [row[:] for row in poly_mat_identity(CTX, 5)]
    for i in range(5):
        for j in range(i):
            y_l[i][j] = rand_poly(rng, max_deg=1, max_terms=2)
    y = poly_mat_mul(y_l, y_u)
    y_inv = poly_mat_mul(unipotent_inverse(y_u, CTX), unipotent_inverse(y_l, CTX))
    return mul_poly_mat(poly_mat_d(y, CTX), y_inv)


def defined_a(b, asm):
    """A = -S^{-1} dS + S^{-1} B S from the generic products, entry by entry."""
    b_ext = gauss_manin._embed_matrix(b, asm.ctx)
    sbs = mul_poly_mat(b_ext, asm.s).pre_mul_poly_mat(asm.s_inv)
    sds = poly_mat_d(asm.s, asm.ctx).pre_mul_poly_mat(asm.s_inv)
    return FormMatrix(asm.ctx, [[p - q for p, q in zip(r1, r2)]
                                for r1, r2 in zip(sbs.entries, sds.entries)])


def restricted_block_equations(b, blocks, asm):
    """The block equations as sums over the block columns the pattern allows:
    the middle pairing rows B^{m/2-1, m/2} x^{m/2}, then
    dx^i - sum_{j = m/2}^{min(i+1, m)} B^{ij} x^j for i = m/2 .. m."""
    ctx = asm.ctx
    b_ext = gauss_manin._embed_matrix(b, ctx)
    x_col = [ctx.zero()] * blocks.zero_rows + [ctx.var(n) for n in asm.x_names]
    ranges, half = blocks.ranges(), blocks.m // 2

    def rows_times_x(i, j0, j1):
        c0, c1 = ranges[j0][0], ranges[j1][1]
        return [scaled_sum(ctx, zip(x_col[c0:c1], b_ext.entries[r][c0:c1]))
                for r in range(*ranges[i])]

    forms = rows_times_x(half - 1, half, half)
    for i in range(half, blocks.m + 1):
        bx = rows_times_x(i, half, min(i + 1, blocks.m))
        forms += [d_poly(x_col[r], ctx) - f for r, f in zip(range(*ranges[i]), bx)]
    return tuple(forms)


BLOCKS = HodgeBlocks(2, (1, 2, 1))
BLOCKS4 = HodgeBlocks(4, (1, 1, 1, 1, 1))


class TestAssembly:
    def test_structure_of_s_and_c(self):
        b = FormMatrix.zeros(CTX, 4, 4)
        asm = gm_assemble(b, BLOCKS)
        ctx = asm.ctx
        assert asm.x_names == ("x1", "x2", "x3")
        assert ctx.laurent == (False, False, True, False, False)
        # column 2 (index 1) of S is (0, x1, x2, x3)
        col = [asm.s[r][1] for r in range(4)]
        assert col == [ctx.zero(), ctx.var("x1"), ctx.var("x2"), ctx.var("x3")]
        assert asm.c == (ctx.zero(), ctx.one(), ctx.zero(), ctx.zero())
        # S * C = x
        sc = [sum((asm.s[r][k] * asm.c[k] for k in range(4)), ctx.zero())
              for r in range(4)]
        x_col = [ctx.zero(), ctx.var("x1"), ctx.var("x2"), ctx.var("x3")]
        assert sc == x_col

    def test_s_times_s_inverse(self):
        rng = random.Random(3)
        b = block_pattern_connection(rng)
        asm = gm_assemble(b, BLOCKS)
        ident = poly_mat_identity(asm.ctx, 4)
        assert poly_mat_mul(asm.s, asm.s_inv) == ident
        assert poly_mat_mul(asm.s_inv, asm.s) == ident

    def test_zero_connection_forms(self):
        b = FormMatrix.zeros(CTX, 4, 4)
        asm = gm_assemble(b, BLOCKS)
        # A*C = -S^{-1} dx
        ctx = asm.ctx
        x_col = [ctx.zero(), ctx.var("x1"), ctx.var("x2"), ctx.var("x3")]
        for r in range(4):
            expected = OneForm.zero(ctx)
            for k in range(4):
                expected = expected + d_poly(x_col[k], ctx).scale(-asm.s_inv[r][k])
            assert asm.foliation_forms[r] == expected

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            gm_assemble(FormMatrix.zeros(CTX, 3, 3), BLOCKS)


class TestBlockFoliation:
    def test_random_pattern_connections(self):
        rng = random.Random(101)
        for blocks, connection, count in ((BLOCKS, block_pattern_connection, 10),
                                          (BLOCKS4, weight_four_connection, 4)):
            for _ in range(count):
                b = connection(rng)
                assert integrability_check(b)
                result = block_foliation_forms(b, blocks)  # raises on span mismatch
                asm = result.assembly
                assert asm.a == defined_a(b, asm)
                assert result.forms == restricted_block_equations(b, blocks, asm)
                assert integrability_check(asm.a)  # dA = A ^ A
                dac = [d_oneform(f) for f in asm.foliation_forms]
                awac = wedge_matvec(asm.a, asm.foliation_forms)
                assert dac == awac  # d(A*C) = A ^ (A*C)

    def test_span_mismatch_is_an_internal_failure(self, monkeypatch):
        def corrupted(b, blocks):
            asm = gm_assemble(b, blocks)
            return GMAssembly(asm.ctx, asm.blocks, asm.s, asm.s_inv, asm.c, asm.a,
                              tuple(-f for f in asm.foliation_forms), asm.x_names,
                              asm.bx_minus_dx)

        b = block_pattern_connection(random.Random(3))
        monkeypatch.setattr(gauss_manin, "gm_assemble", corrupted)
        with pytest.raises(InternalCheckFailed, match="block equations"):
            block_foliation_forms(b, BLOCKS)

    def test_ivhs_block_accessor(self):
        rng = random.Random(7)
        b = block_pattern_connection(rng)
        result = block_foliation_forms(b, BLOCKS)
        assert result.ivhs_block.shape == (1, 2)
        assert result.ivhs_block.entries[0][0] == b.entries[0][1]
        assert result.ivhs_block.entries[0][1] == b.entries[0][2]

    def test_transversality_violation_reported(self):
        rows = [[OneForm.zero(CTX) for _ in range(4)] for _ in range(4)]
        rows[0][3] = OneForm(CTX, (T2, CTX.zero()))  # block (0, 2) nonzero
        with pytest.raises(TransversalityViolation) as err:
            block_foliation_forms(FormMatrix(CTX, rows), BLOCKS)
        assert err.value.block == (0, 2)

    def test_weight_four_blocks(self):
        # m = 4, blocks (1,1,1,1,1): two zero rows, three fiber coordinates
        assert BLOCKS4.zero_rows == 2 and BLOCKS4.x_count == 3
        s = T1 * T1 + T2
        ds = d_poly(s, CTX)
        k = {(0, 1): 2, (1, 2): -1, (2, 3): 3, (3, 4): 1}
        rows = [[ds.scale(CTX.constant(k[(i, j)])) if (i, j) in k else OneForm.zero(CTX)
                 for j in range(5)] for i in range(5)]
        b = FormMatrix(CTX, rows)
        assert integrability_check(b)
        result = block_foliation_forms(b, BLOCKS4)
        asm = result.assembly
        assert asm.x_names == ("x1", "x2", "x3")
        assert integrability_check(asm.a)
        assert result.ivhs_block.shape == (1, 1)
        assert result.ivhs_block.entries[0][0] == b.entries[1][2]
        dac = [d_oneform(f) for f in asm.foliation_forms]
        assert dac == wedge_matvec(asm.a, asm.foliation_forms)

    def test_assembled_forms_round_trip_through_grammar(self):
        from hodgeloci.exprparse import oneform_to_expr, parse_oneform

        rng = random.Random(19)
        b = block_pattern_connection(rng)
        asm = gm_assemble(b, BLOCKS)
        for row in asm.a.entries:
            for f in row:
                assert parse_oneform(oneform_to_expr(f), asm.ctx) == f
