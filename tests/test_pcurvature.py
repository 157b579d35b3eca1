import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hodgeloci import pcurvature
from hodgeloci.cli import main
from hodgeloci.errors import ResourceLimit
from hodgeloci.duals import rank
from hodgeloci.ideals import UNKNOWN, YES, IdealGens
from hodgeloci.modp import ModPoly
from hodgeloci.oneforms import OneForm, PolyContext, VectorField
from hodgeloci.pcurvature import pcurvature_tangency, vf_mod_reduce, vf_pow_p
from hodgeloci.sch import sch_contains_point, sch_ideal
from hodgeloci.series import SparseSeries

CTX = PolyContext(("x", "y"))
X, Y = CTX.var("x"), CTX.var("y")
PRIMES = (2, 3, 5, 7, 11)


def rand_modpoly(rng, p, nvars=2, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[e] = rng.randint(0, p - 1)
    return ModPoly(p, nvars, terms)


class TestFrobeniusPower:
    @pytest.mark.parametrize("p", PRIMES)
    def test_coordinate_field_is_nilpotent(self, p):
        v = VectorField(CTX, (CTX.one(), CTX.zero()))
        assert vf_pow_p(v, p).is_zero()

    @pytest.mark.parametrize("p", PRIMES)
    def test_euler_field_is_fixed(self, p):
        v = VectorField(CTX, (X, CTX.zero()))
        vp = vf_pow_p(v, p)
        assert vp == vf_mod_reduce(v, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_quadratic_field_vanishes(self, p):
        v = VectorField(CTX, (X * X, CTX.zero()))
        assert vf_pow_p(v, p).is_zero()

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_result_is_a_derivation(self, p):
        # the Jacobson property: v^p obeys the Leibniz rule mod p
        rng = random.Random(p)
        for _ in range(100):
            v = VectorField(CTX, (rand_modpoly(rng, p), rand_modpoly(rng, p)))
            vp = vf_pow_p(v, p)
            f, g = rand_modpoly(rng, p), rand_modpoly(rng, p)
            assert vp.apply(f * g) == f * vp.apply(g) + g * vp.apply(f)

    @pytest.mark.parametrize("p", (3, 5))
    def test_agrees_with_iterated_application(self, p):
        rng = random.Random(17 + p)
        for _ in range(50):
            v = VectorField(CTX, (rand_modpoly(rng, p), rand_modpoly(rng, p)))
            vp = vf_pow_p(v, p)
            f = rand_modpoly(rng, p)
            iterated = f
            for _ in range(p):
                iterated = v.apply(iterated)
            assert vp.apply(f) == iterated

    def test_rejects_composite_and_large_primes(self):
        v = VectorField(CTX, (X, Y))
        with pytest.raises(ValueError):
            vf_pow_p(v, 6)
        with pytest.raises(ResourceLimit):
            vf_pow_p(v, 103)


class TestSchIdeal:
    def test_two_variable_example(self):
        v = VectorField(CTX, (CTX.one(), CTX.zero()))
        w = VectorField(CTX, (X, -Y))
        ideal = sch_ideal(v, [w])
        assert [g for g in ideal.gens] == [-Y]

    def test_repeated_row_gives_zero_ideal(self):
        v = VectorField(CTX, (X, Y))
        assert sch_ideal(v, [v]).is_zero_ideal

    def test_too_many_fields_no_minors(self):
        v = VectorField(CTX, (X * Y, X))
        ws = [VectorField(CTX, (CTX.one(), CTX.zero())),
              VectorField(CTX, (CTX.zero(), CTX.one()))]
        assert sch_ideal(v, ws).is_zero_ideal

    def test_point_membership(self):
        v = VectorField(CTX, (CTX.one(), CTX.zero()))
        w = VectorField(CTX, (X, -Y))
        assert sch_contains_point(v, [w], (5, 0))
        assert not sch_contains_point(v, [w], (5, 1))
        assert sch_contains_point(v, [v], (7, 8))

    def test_mod_p_containment(self):
        # the local-global hypothesis surface: does the Frobenius power's value
        # at t fall inside the span of the tangent module, mod p?
        p = 5
        v = vf_pow_p(VectorField(CTX, (X, CTX.zero())), p)  # x d/dx mod 5
        w = vf_mod_reduce(VectorField(CTX, (X, -Y)), p)
        assert sch_contains_point(v, [w], (0, 3))
        assert sch_contains_point(v, [w], (2, 5))  # y = 0 mod 5
        assert not sch_contains_point(v, [w], (2, 3))

    def test_vanishing_matches_rank_drop(self):
        rng = random.Random(23)
        ctx3 = PolyContext(("x", "y", "z"))
        polys = [ctx3.var(i) for i in range(3)]

        def rand_field():
            return VectorField(ctx3, tuple(
                sum((polys[j] * rng.randint(-2, 2) for j in range(3)),
                    ctx3.constant(rng.randint(-2, 2))) for _ in range(3)))

        for _ in range(40):
            v = rand_field()
            ws = [rand_field(), rand_field()]
            t = tuple(rng.randint(-3, 3) for _ in range(3))
            rows = [[c.eval_exact(t) for c in f.comps] for f in [v] + ws]
            expected = rank([dict(enumerate(r)) for r in rows], len(rows[0])) <= len(ws)
            assert sch_contains_point(v, ws, t) is expected


class TestPCurvatureTangency:
    def test_euler_field_on_remark_example(self):
        v = VectorField(CTX, (X, CTX.zero()))
        omega = OneForm(CTX, (Y, X))
        ibar = IdealGens(CTX, (X * Y,))
        assert pcurvature_tangency(v, [omega], ibar, 5, 3) == YES

    def test_translation_field_cubes_to_zero(self):
        v = VectorField(CTX, (CTX.one(), CTX.one()))
        omega = OneForm(CTX, (CTX.one(), CTX.constant(-1)))  # dx - dy
        assert pcurvature_tangency(v, [omega], IdealGens(CTX, ()), 3, 2) == YES

    def test_square_vanishes_trivially(self):
        v = VectorField(CTX, (CTX.one(), CTX.zero()))
        omega = OneForm(CTX, (CTX.one(), CTX.zero()))  # dx
        assert pcurvature_tangency(v, [omega], IdealGens(CTX, ()), 2, 2) == YES

    def test_non_tangent_field_unknown(self):
        omega = OneForm(CTX, (Y, X))
        ibar = IdealGens(CTX, (X * Y,))
        # (x+1) d/dx is its own p-th power (shifted Euler field); its
        # contraction xy + y is not in <xy>
        w = VectorField(CTX, (X + CTX.one(), CTX.zero()))
        assert pcurvature_tangency(w, [omega], ibar, 5, 3) == UNKNOWN


P_AFFINE = (2, 3, 5, 7, 101)


@st.composite
def affine_fields_st(draw):
    """A prime from P_AFFINE and a field of 1-4 variables whose components
    have degree <= 1 mod p: integer or p-integral rational coefficients, and
    sometimes a degree-2 term whose coefficient p kills."""
    p = draw(st.sampled_from(P_AFFINE))
    n = draw(st.integers(1, 4))
    ctx = PolyContext(tuple(f"x{i}" for i in range(n)))
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)] + [(0,) * n]
    coeff = st.one_of(st.integers(-300, 300),
                      st.builds(Fraction, st.integers(-300, 300),
                                st.integers(1, 50).filter(lambda d: d % p)))
    comps = []
    for _ in range(n):
        terms = {e: draw(coeff) for e in draw(st.lists(st.sampled_from(units), max_size=n + 1))}
        if draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            e = tuple(int(k == i) + int(k == j) for k in range(n))
            terms[e] = p * draw(st.integers(-3, 3))
        comps.append(SparseSeries(n, terms))
    return VectorField(ctx, comps), p


def iterated_pow_p(v, p):
    """The p-fold application of v mod p to each coordinate."""
    vbar = vf_mod_reduce(v, p)
    n = v.ctx.nvars
    comps = []
    for i in range(n):
        f = ModPoly(p, n, {tuple(int(k == i) for k in range(n)): 1})
        for _ in range(p):
            f = vbar.apply(f)
        comps.append(f)
    return VectorField(v.ctx, comps)


@pytest.fixture
def affine_calls(monkeypatch):
    """The fields passed to the affine path of vf_pow_p."""
    calls = []
    affine = pcurvature._affine_pow_p

    def spy(v, p):
        calls.append(v)
        return affine(v, p)
    monkeypatch.setattr(pcurvature, "_affine_pow_p", spy)
    return calls


class TestAffineFrobeniusPower:
    @settings(max_examples=150, deadline=None)
    @given(case=affine_fields_st())
    def test_matches_the_iterated_application(self, case):
        v, p = case
        assert vf_pow_p(v, p) == iterated_pow_p(v, p)

    def test_affine_field_takes_the_matrix_path(self, affine_calls):
        v = VectorField(CTX, (X + CTX.one(), 5 * X * X + Y))  # affine mod 5 only
        assert vf_pow_p(v, 5) == iterated_pow_p(v, 5)
        assert len(affine_calls) == 1
        assert vf_pow_p(v, 7) == iterated_pow_p(v, 7)
        assert len(affine_calls) == 1

    def test_degree_two_field_takes_the_iterated_path(self, affine_calls):
        v = VectorField(CTX, (X * Y, X + CTX.one()))
        assert vf_pow_p(v, 3) == iterated_pow_p(v, 3)
        assert affine_calls == []

    @pytest.mark.parametrize("p, field, code, error", [
        (5, "1/5*x*D(x) + D(y)", 2, "denominator divisible by 5"),
        (103, "x*D(x) + D(y)", 3, "exceeds the iterated-application bound 101"),
    ], ids=["denominator-divisible-by-p", "p-above-the-bound"])
    def test_exit_codes_are_unchanged(self, capsys, p, field, code, error):
        argv = ["pcurvature", "--vars", "x,y", "--field", field, "--omega", "d(x)",
                "--p", str(p), "--deg", "2"]
        assert main(argv) == code
        out = capsys.readouterr()
        assert out.out == "" and error in out.err
