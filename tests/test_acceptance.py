"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
from fractions import Fraction

import pytest

from form_oracles import mul_poly_mat, poly_mat_d, poly_mat_mul, unipotent_inverse, wedge_matvec
from hodgeloci.duals import dual_theta_bounded
from hodgeloci.forms import d_oneform, integrability_check, poly_mat_identity
from hodgeloci.gauss_manin import HodgeBlocks, block_foliation_forms
from hodgeloci.hypergeo import invert_tau, locus_function, sample_locus, tau_of_t
from hodgeloci.ideals import YES, IdealGens, tangency_check
from hodgeloci.modp import ModPoly
from hodgeloci.oneforms import OneForm, PolyContext, VectorField
from hodgeloci.pcurvature import vf_mod_reduce, vf_pow_p
from hodgeloci.periods import (FamilySpec, denominator_profile,
                               griffiths_basis, period_series,
                               quartic_full_family_series, quartic_full_monomials,
                               steenbrink_hodge_tate)
from hodgeloci.series import SparseSeries
from hodgeloci.solve_linear import linear_solve_series


def report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {num} FAIL: {desc}")
        raise
    print(f"criterion {num} PASS: {desc}")


QUARTIC_I4 = ((1, 3, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3), (3, 0, 0, 1))

# Reference denominator table for the alternating-sign quartic family,
# I = {x0*x1^3, x1*x2^3, x2*x3^3, x3*x0^3}, truncation 30: one entry per
# basis monomial, as (prime, exponent) factorizations.
REFERENCE_TABLE = {
    "1": {2: 84, 5: 1, 7: 1, 11: 1, 13: 1},
    "x2^2*x3^2": {2: 86, 7: 1, 11: 1, 13: 1},
    "x1*x2*x3^2": {2: 84, 11: 1},
    "x0*x2*x3^2": {2: 85, 7: 1, 11: 1, 13: 1},
    "x1^2*x3^2": {2: 86, 11: 1, 13: 1},
    "x0*x1*x3^2": {2: 86, 7: 1, 11: 1, 13: 1},
    "x0^2*x3^2": {2: 86, 7: 1, 11: 1, 13: 1},
    "x1*x2^2*x3": {2: 85, 7: 1, 11: 1, 13: 1},
    "x0*x2^2*x3": {2: 85, 7: 1, 11: 1, 13: 1},
    "x1^2*x2*x3": {2: 86, 7: 1, 11: 1, 13: 1},
    "x0*x1*x2*x3": {2: 85, 11: 1},
    "x0^2*x2*x3": {2: 86, 11: 1},
    "x0*x1^2*x3": {2: 84, 11: 1},
    "x0^2*x1*x3": {2: 85, 7: 1, 11: 1, 13: 1},
    "x1^2*x2^2": {2: 86, 7: 1, 11: 1, 13: 1},
    "x0*x1*x2^2": {2: 86, 11: 1},
    "x0^2*x2^2": {2: 86, 11: 1, 13: 1},
    "x0*x1^2*x2": {2: 85, 7: 1, 11: 1, 13: 1},
    "x0^2*x1*x2": {2: 85, 7: 1, 11: 1, 13: 1},
    "x0^2*x1^2": {2: 86, 7: 1, 11: 1, 13: 1},
    "x0^2*x1^2*x2^2*x3^2": {2: 88, 7: 1, 11: 1, 13: 1},
}


def factored_int(factors):
    out = 1
    for p, e in factors.items():
        out *= p ** e
    return out


@pytest.mark.slow
def test_criterion_1_quartic_denominator_table():
    def check():
        fam = FamilySpec(2, 4, QUARTIC_I4, 30)
        rows = {}
        for beta in griffiths_basis(4, 2):
            prof = denominator_profile(period_series(beta, fam))
            rows[beta.monomial_str()] = prof
        assert set(rows) == set(REFERENCE_TABLE)
        for monomial, factors in REFERENCE_TABLE.items():
            assert rows[monomial].lcm == factored_int(factors), monomial
            assert dict(rows[monomial].factors) == factors, monomial
            assert rows[monomial].unfactored_cofactor == 1
        # spot anchors, exact integer equality
        assert rows["1"].lcm == 2 ** 84 * 5 * 7 * 11 * 13
        assert rows["x0*x1*x2*x3"].lcm == 2 ** 85 * 11
        assert rows["x0*x1^2*x3"].lcm == 2 ** 84 * 11

    report(1, "quartic family truncation-30 denominator table (21 rows, exact)", check)


def test_criterion_2_cross_path_identity():
    def check():
        i35 = quartic_full_monomials()
        fam = FamilySpec(2, 4, i35, 3)
        engine = period_series((0, 0, 0, 0), fam).series
        direct = quartic_full_family_series(3)
        assert engine == direct
        a_diag = [0] * 35
        a_diag[i35.index((1, 1, 1, 1))] = 1
        assert engine.coefficient(tuple(a_diag)) == 1
        a_pair = list(a_diag)
        a_pair[i35.index((4, 0, 0, 0))] = 1
        assert engine.coefficient(tuple(a_pair)) == Fraction(-1, 2)

    report(2, "independent quartic series equals the engine term-by-term at D=3", check)


def test_criterion_3_constant_term_vanishes():
    def check():
        i35 = quartic_full_monomials()
        families = [
            FamilySpec(2, 4, QUARTIC_I4, 0),
            FamilySpec(2, 4, QUARTIC_I4, 5),
            FamilySpec(2, 4, i35, 2),
            FamilySpec(2, 4, ((2, 2, 0, 0), (0, 0, 2, 2), (1, 1, 1, 1)), 4),
        ]
        for fam in families:
            ps = period_series((0, 0, 0, 0), fam)
            assert ps.series.constant_term() == 0

    report(3, "period series at beta=0 has zero constant term (locus through origin)", check)


def test_criterion_4_frobenius_power_identities():
    def check():
        ctx = PolyContext(("x", "y"))
        x = ctx.var("x")
        d_dx = VectorField(ctx, (ctx.one(), ctx.zero()))
        euler = VectorField(ctx, (x, ctx.zero()))
        for p in (2, 3, 5, 7, 11):
            assert vf_pow_p(d_dx, p).is_zero()
            assert vf_pow_p(euler, p) == vf_mod_reduce(euler, p)
            rng = random.Random(1000 + p)

            def rand_modpoly():
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    e = (rng.randint(0, 2), rng.randint(0, 2))
                    terms[e] = rng.randint(0, p - 1)
                return ModPoly(p, 2, terms)

            samples = 0
            while samples < 100:
                v = VectorField(ctx, (rand_modpoly(), rand_modpoly()))
                vp = vf_pow_p(v, p)
                for _ in range(10):
                    f, g = rand_modpoly(), rand_modpoly()
                    assert vp.apply(f * g) == f * vp.apply(g) + g * vp.apply(f)
                    samples += 1

    report(4, "Frobenius powers: (d/dx)^p = 0, (x d/dx)^p = x d/dx, mod-p Leibniz x100", check)


def _random_unipotent(rng, ctx, n):
    y = [row[:] for row in poly_mat_identity(ctx, n)]
    for i in range(n):
        for j in range(i + 1, n):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            y[i][j] = SparseSeries(2, terms)
    return y


def test_criterion_5_integrability_and_solver():
    def check():
        ctx = PolyContext(("z1", "z2"))
        rng = random.Random(55)
        for _ in range(10):
            y = _random_unipotent(rng, ctx, 3)
            yinv = unipotent_inverse(y, ctx)
            b = mul_poly_mat(poly_mat_d(y, ctx), yinv)
            assert integrability_check(b)
            solved = linear_solve_series(b, 8)
            y0inv = unipotent_inverse(
                [[ctx.constant(f.constant_term()) for f in row] for row in y], ctx)
            normalized = poly_mat_mul(y, y0inv)
            for i in range(3):
                for j in range(3):
                    assert solved[i][j] == normalized[i][j].truncate(8)

    report(5, "10 random unipotent frames: dB = B^B exactly, solver reproduces Y at D=8", check)


def _block_pattern_connection(rng, ctx):
    def rand_poly(max_deg=2, max_terms=3):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_deg) for _ in range(2))
            terms[e] = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        return SparseSeries(2, terms)

    f = rand_poly()
    u = [rng.randint(-3, 3) for _ in range(2)]
    w = [rng.randint(-3, 3) for _ in range(2)]
    y_u = [row[:] for row in poly_mat_identity(ctx, 4)]
    f2, f3 = f * f, f * f * f
    y_u[0][1] = u[0] * f
    y_u[0][2] = u[1] * f
    y_u[1][3] = w[0] * f2
    y_u[2][3] = w[1] * f2
    y_u[0][3] = Fraction(u[0] * w[0] + u[1] * w[1], 3) * f3
    y_l = [row[:] for row in poly_mat_identity(ctx, 4)]
    for i in range(4):
        for j in range(i):
            y_l[i][j] = rand_poly(max_deg=1, max_terms=2)
    y = poly_mat_mul(y_l, y_u)
    y_inv = poly_mat_mul(unipotent_inverse(y_u, ctx), unipotent_inverse(y_l, ctx))
    return mul_poly_mat(poly_mat_d(y, ctx), y_inv)


def test_criterion_6_gauss_manin_assembly():
    def check():
        ctx = PolyContext(("t1", "t2"))
        blocks = HodgeBlocks(2, (1, 2, 1))
        rng = random.Random(77)
        for _ in range(10):
            b = _block_pattern_connection(rng, ctx)
            assert integrability_check(b)
            result = block_foliation_forms(b, blocks)  # raises on span mismatch
            asm = result.assembly
            assert integrability_check(asm.a)
            dac = [d_oneform(fm) for fm in asm.foliation_forms]
            awac = wedge_matvec(asm.a, asm.foliation_forms)
            assert dac == awac

    report(6, "10 random block-pattern frames: dA = A^A, d(AC) = A^(AC), spans agree", check)


def test_criterion_7_tangent_module_suite():
    def check():
        ctx = PolyContext(("x", "y"))
        x, y = ctx.var("x"), ctx.var("y")
        omega = OneForm(ctx, (y, x))  # x dy + y dx
        duals = dual_theta_bounded([omega], 1)
        expected = VectorField(ctx, (x, -y))
        assert expected in duals
        ibar = IdealGens(ctx, (x * y,))
        assert tangency_check(VectorField(ctx, (x, ctx.zero())), [omega], ibar, 3) == YES
        tangent_module = dual_theta_bounded([omega], 2, ibar=ibar)
        assert tangent_module  # nonempty
        for v in tangent_module:
            assert v.evaluate((0, 0)) == (0, 0)

    report(7, "hyperbola-form suite: annihilator, tangency YES, zero evaluation at 0", check)


def test_criterion_8_hypergeometric_locus():
    def check():
        for t in (0.1, 0.33, 0.5, 0.77, 0.9):
            assert locus_function(t, t, 1) == 0.0
        assert abs(tau_of_t(0.5) - 1.0) < 1e-10
        assert abs(invert_tau(2.0) - (17 - 12 * math.sqrt(2))) < 1e-6
        grid = [0.05 + 0.9 * i / 19 for i in range(20)]
        sample = sample_locus(2, grid, tol=1e-8)
        assert len(sample.points) >= 10
        assert all(r < 1e-8 for _, _, r in sample.points)

    report(8, "isogeny locus: exact diagonal, tau(1/2)=1, lambda(2i), residuals < 1e-8", check)


def test_criterion_9_hodge_tate_predicate():
    def check():
        assert steenbrink_hodge_tate(3, (1, 1, 1, 1), 2) is True
        assert steenbrink_hodge_tate(4, (1, 1, 1, 1), 2) is False
        assert steenbrink_hodge_tate(2, (1, 1, 1, 1), 2) is True

    report(9, "weighted-hypersurface Hodge-Tate criterion on cubic/quartic/quadric", check)
