import json
import random
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from form_oracles import (apply_dense, d_oneform_dense, dense_wedge, mul_poly_mat, poly_mat_d,
                          poly_mat_mul, unipotent_inverse, vf_pow_p_dense, wedge_matvec,
                          wedge_mul_dense)
from hodgeloci.exprparse import parse_context, parse_oneform
from hodgeloci.forms import (FormMatrix, TwoForm, d_oneform, d_poly, integrability_check,
                             poly_mat_identity, wedge)
from hodgeloci.modp import ModPoly
from hodgeloci.oneforms import OneForm, PolyContext, VectorField
from hodgeloci.pcurvature import vf_pow_p
from hodgeloci.series import SparseSeries

GOLDEN = Path(__file__).resolve().parent / "golden"
CTX = PolyContext(("x", "y"))
X, Y = CTX.var("x"), CTX.var("y")


def rand_poly(rng, ctx=CTX, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ctx.nvars))
        terms[e] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
    return SparseSeries(ctx.nvars, terms, laurent=ctx.laurent)


class TestVectorFieldApply:
    def test_coordinate_derivative(self):
        v = VectorField(CTX, (CTX.one(), CTX.zero()))
        f = X * X * Y
        assert v.apply(f) == 2 * X * Y

    def test_euler_weight_on_power(self):
        v = VectorField(CTX, (X, CTX.zero()))
        for n in range(1, 6):
            assert v.apply(X ** n) == n * X ** n

    def test_euler_field_degree(self):
        v = VectorField(CTX, (X, Y))
        assert v.apply(X * Y) == 2 * X * Y

    def test_leibniz_randomized(self):
        rng = random.Random(5)
        for _ in range(120):
            v = VectorField(CTX, (rand_poly(rng), rand_poly(rng)))
            f, g = rand_poly(rng), rand_poly(rng)
            assert v.apply(f * g) == f * v.apply(g) + g * v.apply(f)


class TestExteriorCalculus:
    def test_d_of_product(self):
        assert d_poly(X * Y, CTX) == OneForm(CTX, (Y, X))

    def test_dd_is_zero_random(self):
        rng = random.Random(9)
        for _ in range(100):
            assert d_oneform(d_poly(rand_poly(rng), CTX)).is_zero()

    def test_wedge_sign(self):
        # (x dy) ^ (y dx) = -xy dx^dy
        a = OneForm(CTX, (CTX.zero(), X))
        b = OneForm(CTX, (Y, CTX.zero()))
        assert wedge(a, b) == TwoForm(CTX, {(0, 1): -(X * Y)})

    def test_wedge_self_is_zero_random(self):
        rng = random.Random(13)
        for _ in range(100):
            w = OneForm(CTX, (rand_poly(rng), rand_poly(rng)))
            assert wedge(w, w).is_zero()

    def test_context_mismatch(self):
        other = PolyContext(("u", "v"))
        with pytest.raises(ValueError):
            wedge(OneForm(CTX, (X, Y)), OneForm(other, (other.var(0), other.var(1))))


class TestIntegrability:
    def test_zero_matrix(self):
        assert integrability_check(FormMatrix.zeros(CTX, 2, 2))

    def test_dlog_of_unipotent(self):
        rng = random.Random(21)
        for _ in range(10):
            n = 3
            ident = poly_mat_identity(CTX, n)
            y = [row[:] for row in ident]
            for i in range(n):
                for j in range(i + 1, n):
                    y[i][j] = rand_poly(rng)
            yinv = unipotent_inverse(y, CTX)
            assert poly_mat_mul(y, yinv) == poly_mat_identity(CTX, n)
            b = mul_poly_mat(poly_mat_d(y, CTX), yinv)
            assert integrability_check(b)

    def test_single_entry_counterexample(self):
        b = FormMatrix(CTX, [[OneForm(CTX, (CTX.zero(), X))]])  # x dy
        assert not integrability_check(b)


def test_laurent_context_derivative():
    ctx = PolyContext(("x",), (True,))
    xinv = ctx.monomial((-1,))
    assert xinv.diff(0) == ctx.monomial((-2,), -1)


# -- wedge products and polynomial scaling against their dense definitions -------------
#
# The library visits only nonzero components.  The references below form every
# product, zero factors included.

LCTX = PolyContext(("x", "y", "z", "w"), (True, False, False, False))
MCTX = PolyContext(("x", "y", "z", "w"))
P = 7


def sparse_comp(rng, ctx):
    """Mostly zero, so that the skipped products are the common case."""
    terms = {}
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(-1 if flag else 0, 2) for flag in ctx.laurent)
            terms[e] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    return SparseSeries(ctx.nvars, terms, laurent=ctx.laurent)


def modp_comp(rng, ctx):
    terms = {}
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            terms[tuple(rng.randint(0, 2) for _ in range(ctx.nvars))] = rng.randint(1, P - 1)
    return ModPoly(P, ctx.nvars, terms)


def rand_form(rng, ctx, comp):
    return OneForm(ctx, tuple(comp(rng, ctx) for _ in range(ctx.nvars)))


def dense_sum(terms, zero):
    acc = zero
    for t in terms:
        acc = acc + t
    return acc


def dense_scaled_sum(pairs):
    """sum_j f_j * w_j, every product formed, folded from the first term."""
    acc = None
    for f, w in pairs:
        acc = w.scale(f) if acc is None else acc + w.scale(f)
    return acc


CASES = [(LCTX, sparse_comp), (MCTX, modp_comp)]


class TestDenseDefinitions:
    @pytest.mark.parametrize("ctx, comp", CASES)
    def test_wedge(self, ctx, comp):
        rng = random.Random(41)
        for _ in range(300):
            a, b = rand_form(rng, ctx, comp), rand_form(rng, ctx, comp)
            assert wedge(a, b) == dense_wedge(a, b)

    @pytest.mark.parametrize("ctx, comp", CASES)
    def test_wedge_mul_and_matvec(self, ctx, comp):
        rng = random.Random(43)
        for _ in range(20):
            r, m, c = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
            a = FormMatrix(ctx, [[rand_form(rng, ctx, comp) for _ in range(m)] for _ in range(r)])
            b = FormMatrix(ctx, [[rand_form(rng, ctx, comp) for _ in range(c)] for _ in range(m)])
            want = wedge_mul_dense(a, b)
            assert a.wedge_mul(b) == want
            col = [row[0] for row in b.entries]
            assert wedge_matvec(a, col) == [row[0] for row in want]

    def test_cancelling_sum_keeps_later_term(self):
        # the first two wedges cancel, so only the third one is left
        x, y = LCTX.var("x"), LCTX.var("y")
        z = LCTX.zero()
        dy = OneForm(LCTX, (z, LCTX.one(), z, z))
        a = FormMatrix(LCTX, [[OneForm(LCTX, (x, z, z, z)), OneForm(LCTX, (-x, z, z, z)),
                               OneForm(LCTX, (y, z, z, z))]])
        b = FormMatrix(LCTX, [[dy], [dy], [dy]])
        got = a.wedge_mul(b)[0][0]
        assert got == dense_sum([dense_wedge(a.entries[0][j], b.entries[j][0]) for j in range(3)],
                                TwoForm.zero(LCTX))
        assert got.comps == {(0, 1): y}

    @pytest.mark.parametrize("ctx, comp", CASES)
    def test_polynomial_scaling(self, ctx, comp):
        rng = random.Random(47)
        for _ in range(30):
            r, c = rng.randint(1, 3), rng.randint(1, 4)
            a = FormMatrix(ctx, [[rand_form(rng, ctx, comp) for _ in range(c)]
                                 for _ in range(r)])
            xs = [comp(rng, ctx) for _ in range(c)]
            s = [[comp(rng, ctx) for _ in range(2)] for _ in range(c)]
            t = [[comp(rng, ctx) for _ in range(r)] for _ in range(2)]
            assert a.mul_poly_vec(xs) == [dense_scaled_sum(zip(xs, row)) for row in a.entries]
            assert mul_poly_mat(a, s).entries == tuple(
                tuple(dense_scaled_sum((s[j][k], a.entries[i][j]) for j in range(c))
                      for k in range(2)) for i in range(r))
            assert a.pre_mul_poly_mat(t).entries == tuple(
                tuple(dense_scaled_sum((t[i][j], a.entries[j][k]) for j in range(r))
                      for k in range(c)) for i in range(2))


# -- the zero-skipping wedge product against the dense sum over every index -----------


@st.composite
def zero_heavy_pairs(draw):
    """A pair (A, B) of 1-form matrices, square or rectangular, over Q (with a
    Laurent variable) or GF(7), whose entries are mostly the zero form."""
    ctx, p = draw(st.sampled_from([(LCTX, None), (MCTX, P)]))
    if draw(st.booleans()):
        r = m = c = draw(st.integers(1, 4))
    else:
        r, m, c = (draw(st.integers(1, 4)) for _ in range(3))
    coeff = st.integers(1, P - 1) if p else st.builds(
        Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 2, 3]))
    exponent = st.tuples(*(st.integers(-1 if flag else 0, 2) for flag in ctx.laurent))
    laurent = None if p else ctx.laurent
    comp = st.dictionaries(exponent, coeff, max_size=2).map(
        lambda terms: SparseSeries(ctx.nvars, terms, laurent=laurent, p=p))
    zero = OneForm(ctx, (SparseSeries(ctx.nvars, {}, laurent=laurent, p=p),) * ctx.nvars)
    form = st.tuples(*[comp] * ctx.nvars).map(lambda cs: OneForm(ctx, cs))
    entry = st.one_of(st.just(zero), st.just(zero), form)  # at least two thirds zero

    def matrix(rows, cols):
        return FormMatrix(ctx, [[draw(entry) for _ in range(cols)] for _ in range(rows)])
    return matrix(r, m), matrix(m, c)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=zero_heavy_pairs())
def test_wedge_mul_matches_the_dense_sum(pair):
    a, b = pair
    assert a.wedge_mul(b) == wedge_mul_dense(a, b)


def golden_block_matrix(perturb=False) -> FormMatrix:
    """The 1,8,1-block connection of ``tests/golden/gm_seed11_blocks181.json``
    (B = dY Y^-1, so dB = B ^ B), with t1 d(t2) added to entry (9, 1) when
    ``perturb`` is set."""
    rows = json.loads((GOLDEN / "gm_seed11_blocks181.json").read_text())
    if perturb:
        rows[9][1] += " + t1*d(t2)"
    ctx = parse_context("t1,t2,t3")
    return FormMatrix(ctx, [[parse_oneform(e, ctx) for e in row] for row in rows])


def test_integrability_of_the_block_matrix():
    b = golden_block_matrix()
    assert b.wedge_mul(b) == wedge_mul_dense(b, b)
    assert integrability_check(b)
    assert not integrability_check(golden_block_matrix(perturb=True))


# -- the zero-skipping form operations against their definitions ---------------------


def ring_st(names, laurent_first=False):
    """Q (with the first variable Laurent when ``laurent_first``), GF(2), GF(7)
    or GF(101), over a context of the given variable names."""
    lau = (laurent_first,) + (False,) * (len(names) - 1)
    return st.sampled_from([(PolyContext(names, lau), None),
                            (PolyContext(names), 2), (PolyContext(names), 7),
                            (PolyContext(names), 101)])


def poly_st(ctx, p, max_terms=3, max_exp=2):
    """Mostly zero: ints and Fractions over Q, residues over GF(p)."""
    laurent = None if p else ctx.laurent
    coeff = (st.integers(1, p - 1) if p else
             st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4),
                                                     st.sampled_from([1, 2, 3]))))
    exponent = st.tuples(*(st.integers(-1 if flag and not p else 0, max_exp)
                           for flag in ctx.laurent))
    terms = st.dictionaries(exponent, coeff, max_size=max_terms)
    return st.one_of(st.just({}), st.just({}), terms).map(
        lambda t: SparseSeries(ctx.nvars, t, laurent=laurent, p=p))


def comps_st(ctx, p, **kw):
    return st.tuples(*[poly_st(ctx, p, **kw)] * ctx.nvars)


@st.composite
def field_and_poly(draw):
    ctx, p = draw(ring_st(("x", "y", "z", "w"), laurent_first=True))
    return VectorField(ctx, draw(comps_st(ctx, p))), draw(poly_st(ctx, p, max_terms=5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=field_and_poly())
def test_apply_matches_the_defining_sum(case):
    v, f = case
    got = v.apply(f)
    assert got == apply_dense(v, f)
    assert got.p == f.p and got.laurent == f.laurent


@st.composite
def rational_fields(draw):
    """A prime, and a field over Q with integer coefficients; for the larger
    primes its components have degree at most 1, so that p-fold application
    keeps the polynomials small."""
    p = draw(st.sampled_from([2, 3, 7, 101]))
    ctx = PolyContext(("x", "y", "z"))
    comp = st.dictionaries(st.tuples(*[st.integers(0, 2 if p <= 3 else 1)] * 3),
                           st.integers(-3, 3), max_size=2 if p <= 3 else 1)
    comps = draw(st.tuples(*[comp] * 3))
    if p > 3:
        comps = tuple({e: c for e, c in t.items() if sum(e) <= 1} for t in comps)
    return VectorField(ctx, tuple(SparseSeries(3, t) for t in comps)), p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=rational_fields())
def test_vf_pow_p_matches_p_fold_application(case):
    v, p = case
    got = vf_pow_p(v, p)
    assert got == vf_pow_p_dense(v, p)
    assert all(c.p == p for c in got.comps)


@st.composite
def zero_heavy_forms(draw):
    """A 1-form over twelve variables (the size of the extended context of the
    benchmark's gm), over Q with a Laurent variable or over GF(p), most of
    whose components are zero."""
    ctx, p = draw(ring_st(tuple(f"t{i}" for i in range(12)), laurent_first=True))
    return OneForm(ctx, draw(comps_st(ctx, p, max_exp=1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(w=zero_heavy_forms())
def test_d_oneform_matches_the_all_pairs_definition(w):
    assert d_oneform(w) == d_oneform_dense(w)


@st.composite
def zero_heavy_form_pairs(draw):
    ctx, p = draw(ring_st(("x", "y", "z"), laurent_first=True))
    cls = draw(st.sampled_from([OneForm, VectorField]))
    a, b = (cls(ctx, draw(comps_st(ctx, p))) for _ in range(2))
    return a, b, draw(poly_st(ctx, p))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=zero_heavy_form_pairs())
def test_component_operations_on_zero_components(case):
    """Sums, differences, negation and scaling pass a zero component through;
    the result equals the componentwise definition and stays in the ring."""
    a, b, f = case
    cls = type(a)
    for got, want in [(a + b, [x + y for x, y in zip(a.comps, b.comps)]),
                      (a - b, [x - y for x, y in zip(a.comps, b.comps)]),
                      (-a, [-x for x in a.comps]),
                      (a.scale(f), [f * x for x in a.comps]),
                      (a.scale(3), [x.scale(3) for x in a.comps])]:
        assert type(got) is cls and got == cls(a.ctx, want)
        assert all(c.p == f.p and c.laurent == f.laurent for c in got.comps)


@pytest.mark.parametrize("nonzero", [False, True])
def test_forms_over_different_rings_do_not_mix(nonzero):
    ctx = PolyContext(("x", "y"))
    q_comps = (ctx.var("x") if nonzero else ctx.zero(), ctx.zero())
    m_comps = (ModPoly(7, 2, {(0, 1): 1} if nonzero else {}), ModPoly(7, 2, {}))
    q, m = OneForm(ctx, q_comps), OneForm(ctx, m_comps)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a.scale(b.comps[0])):
        for a, b in ((q, m), (m, q)):
            with pytest.raises(ValueError, match="mod-p ring mismatch"):
                op(a, b)
    with pytest.raises(ValueError, match="mod-p ring mismatch"):
        VectorField(ctx, m_comps).apply(ctx.var("y"))


@pytest.mark.parametrize("cls", [OneForm, VectorField])
@pytest.mark.parametrize("other, message", [
    (ModPoly(7, 2, {(1, 0): 1}), "mod-p ring mismatch"),
    (ModPoly(7, 2, {}), "mod-p ring mismatch"),
    (SparseSeries(2, {(0, -1): 1}, laurent=(False, True)), "Laurent flag mismatch"),
], ids=["mod-p", "mod-p-zero", "laurent"])
def test_components_in_different_rings_are_rejected(cls, other, message):
    # a form's components lie in one ring, so that its operations check the ring
    # once per form; a mixed form is refused where it is built
    ctx = PolyContext(("x", "y"))
    for comps in ((other, ctx.var("y")), (ctx.var("y"), other)):
        with pytest.raises(ValueError, match=message):
            cls(ctx, comps)
