import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dense_linalg
from conftest import series_st
from hodgeloci import ideals
from hodgeloci.forms import OneForm, PolyContext, VectorField
from hodgeloci.ideals import (UNKNOWN, YES, IdealGens, _product_rows, dual_theta_bounded,
                              ideal_membership_bounded, tangency_check)
from hodgeloci.modp import ModPoly, mod_reduce
from hodgeloci.pcurvature import oneform_mod_reduce
from hodgeloci.series import SparseSeries, monomials_upto

CTX = PolyContext(("x", "y"))
X, Y = CTX.var("x"), CTX.var("y")
OMEGA = OneForm(CTX, (Y, X))  # x dy + y dx
XY_IDEAL = IdealGens(CTX, (X * Y,))


class TestMembership:
    def test_generator_itself(self):
        assert ideal_membership_bounded(X * Y, XY_IDEAL, 0) == YES

    def test_radical_member_is_not_found(self):
        assert ideal_membership_bounded(X, IdealGens(CTX, (X * X,)), 5) == UNKNOWN

    def test_polynomial_cofactor(self):
        f = X * X * Y + X * Y * Y
        assert ideal_membership_bounded(f, XY_IDEAL, 1) == YES
        assert ideal_membership_bounded(f, XY_IDEAL, 0) == UNKNOWN

    def test_zero_ideal(self):
        zero = IdealGens(CTX, ())
        assert ideal_membership_bounded(CTX.zero(), zero, 2) == YES
        assert ideal_membership_bounded(X, zero, 2) == UNKNOWN

    def test_mixed_coefficient_fields_are_rejected(self):
        # 1/2 over Q is not in (x) over GF(7); mixing the fields must not answer
        half = SparseSeries(1, {(0,): Fraction(1, 2)})
        x_mod_7 = IdealGens(PolyContext(("x",)), (ModPoly(7, 1, {(1,): 1}),))
        with pytest.raises(ValueError, match="mod-p ring mismatch"):
            ideal_membership_bounded(half, x_mod_7, 2)
        x_mod_5 = IdealGens(PolyContext(("x",)), (ModPoly(5, 1, {(1,): 1}),))
        with pytest.raises(ValueError, match="mod-p ring mismatch"):
            ideal_membership_bounded(ModPoly(7, 1, {(1,): 1}), x_mod_5, 2)
        with pytest.raises(ValueError, match="mod-p ring mismatch"):
            dual_theta_bounded([oneform_mod_reduce(OMEGA, 5)], 1, ibar=XY_IDEAL)


class TestDualTheta:
    def test_remark_example_annihilator(self):
        duals = dual_theta_bounded([OMEGA], 1)
        assert len(duals) == 1
        v = duals[0]
        assert v.comps[0] == X and v.comps[1] == -Y  # x d/dx - y d/dy

    def test_constant_form(self):
        dx = OneForm(CTX, (CTX.one(), CTX.zero()))
        duals = dual_theta_bounded([dx], 0)
        assert duals == [VectorField(CTX, (CTX.zero(), CTX.one()))]

    def test_full_rank_forms_have_no_dual(self):
        dx = OneForm(CTX, (CTX.one(), CTX.zero()))
        dy = OneForm(CTX, (CTX.zero(), CTX.one()))
        assert dual_theta_bounded([dx, dy], 2) == []

    def test_every_dual_annihilates(self):
        for deg in (1, 2, 3):
            for v in dual_theta_bounded([OMEGA], deg):
                assert OMEGA.contract(v).is_zero()

    def test_default_bound_is_twice_generator_degree(self):
        fields = dual_theta_bounded([OMEGA])  # defaults to deg 2
        assert fields == dual_theta_bounded([OMEGA], 2)
        assert VectorField(CTX, (X, -Y)) in fields

    def test_relative_dual_strictly_grows(self):
        # the xy ideal buys extra tangent fields: span{x d/dx, y d/dy}
        plain = dual_theta_bounded([OMEGA], 1)
        relative = dual_theta_bounded([OMEGA], 1, ibar=XY_IDEAL)
        assert len(relative) > len(plain)
        comps = {tuple(c for c in v.comps) for v in relative}
        assert (X, CTX.zero()) in comps and (CTX.zero(), Y) in comps

    def test_relative_duals_vanish_at_origin(self):
        for v in dual_theta_bounded([OMEGA], 2, ibar=XY_IDEAL):
            assert v.evaluate((0, 0)) == (0, 0)

    def test_mod_p_dual(self):
        from hodgeloci.pcurvature import oneform_mod_reduce

        p = 5
        omega_p = oneform_mod_reduce(OMEGA, p)
        duals = dual_theta_bounded([omega_p], 1)
        assert len(duals) == 1
        v = duals[0]
        assert v.comps[0].terms == {(1, 0): 1}
        assert v.comps[1].terms == {(0, 1): p - 1}
        assert omega_p.contract(v).is_zero()


class TestTangency:
    def test_euler_x_field(self):
        v = VectorField(CTX, (X, CTX.zero()))
        assert tangency_check(v, [OMEGA], XY_IDEAL, 3) == YES

    def test_translation_field_unknown(self):
        v = VectorField(CTX, (CTX.one(), CTX.zero()))
        assert tangency_check(v, [OMEGA], XY_IDEAL, 3) == UNKNOWN

    def test_annihilator_against_zero_ideal(self):
        zero = IdealGens(CTX, ())
        for v in dual_theta_bounded([OMEGA], 2):
            assert tangency_check(v, [OMEGA], zero, 4) == YES


@st.composite
def generators_st(draw):
    """Up to three generators over Q or over GF(7) on three variables."""
    series = [draw(series_st(nvars=3, max_deg=2)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        return series, Fraction(0)
    return [ModPoly(7, 3, {e: int(c * c.denominator) for e, c in g.terms.items()})
            for g in series], 0


@settings(max_examples=100, deadline=None)
@given(gens_zero=generators_st(), cofactor_deg=st.integers(0, 2),
       extra_deg=st.integers(0, 1), negate=st.booleans())
def test_product_rows_match_the_per_entry_definition(gens_zero, cofactor_deg, extra_deg,
                                                     negate):
    # entry (rm, (g, m)) of the system is the coefficient of x^rm in +-g * x^m
    gens, zero = gens_zero
    row_monos = monomials_upto(3, cofactor_deg + max(g.degree() for g in gens) + extra_deg)
    cols = [(g, m) for g in gens for m in monomials_upto(3, cofactor_deg)]
    sign = -1 if negate else 1
    rows = _product_rows({rm: r for r, rm in enumerate(row_monos)},
                         [({e: sign * c for e, c in g.terms.items()}, m) for g, m in cols])
    assert len(rows) == len(row_monos)
    for rm, row in zip(row_monos, rows):
        assert set(row) <= set(range(len(cols)))
        for k, (g, m) in enumerate(cols):
            shifted = tuple(x - y for x, y in zip(rm, m))
            want = zero if min(shifted) < 0 else sign * g.coefficient(shifted)
            got = row.get(k, zero)  # a missing key means zero
            assert got == want
            if k in row:
                assert type(got) is type(want)


@pytest.mark.parametrize("p", [None, 101])
def test_dual_theta_matches_the_dense_oracle(monkeypatch, p):
    # two random degree-3 1-forms in three variables, relative to a random quadric
    rng = random.Random(6)

    def rand_poly(deg, nterms):
        return SparseSeries(3, {m: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
                                for m in rng.sample(monomials_upto(3, deg), nterms)})

    ctx = PolyContext(("x", "y", "z"))
    forms = [OneForm(ctx, tuple(rand_poly(3, 4) for _ in range(3))) for _ in range(2)]
    quadric = rand_poly(2, 4)
    if p:
        forms = [oneform_mod_reduce(w, p) for w in forms]
        quadric = mod_reduce(quadric, p)
    ibar = IdealGens(ctx, (quadric,))
    fields = dual_theta_bounded(forms, 4, ibar=ibar, cofactor_deg=4)
    assert fields
    monkeypatch.setattr(ideals, "linalg", dense_linalg)
    assert dual_theta_bounded(forms, 4, ibar=ibar, cofactor_deg=4) == fields
