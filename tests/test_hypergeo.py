import math
import pickle
from fractions import Fraction
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hodgeloci.errors import OutOfDomain, TargetOutOfRange
from hodgeloci.exprparse import ExprAST, Term, parse_expr, parse_field, parse_oneform
from hodgeloci.forms import FormMatrix, PolyContext, TwoForm
from hodgeloci.gauss_manin import HodgeBlocks, block_foliation_forms
from hodgeloci.hypergeo import (DELTA, PARAMS_HALF, HypParams, LocusSample, TruncSeries1D, _agm,
                                eval_2f1, hyp2f1, invert_tau, locus_function, sample_locus,
                                tau_of_t)
from hodgeloci.ideals import IdealGens
from hodgeloci.periods import (BetaIndex, DenominatorProfile, FamilySpec, PeriodSeries,
                               period_series, pochhammer)

LAMBDA_2I = 17 - 12 * math.sqrt(2)  # value of the modular lambda at 2i
ORACLE_ORDER = 700


@lru_cache(maxsize=None)
def _exact_half_coefficients():
    return hyp2f1(PARAMS_HALF, ORACLE_ORDER).coefficients


class TestSeries:
    def test_half_half_one(self):
        f = hyp2f1(PARAMS_HALF, 2)
        assert f.coefficients == (Fraction(1), Fraction(1, 4), Fraction(9, 64))

    def test_order_zero(self):
        f = hyp2f1(HypParams(Fraction(2, 3), Fraction(1, 5), Fraction(7, 2)), 0)
        assert f.coefficients == (Fraction(1),)

    def test_geometric(self):
        f = hyp2f1(HypParams(1, 1, 1), 3)
        assert f.coefficients == (1, 1, 1, 1)

    def test_recurrence_matches_pochhammer_formula(self):
        params = HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(5, 4))
        f = hyp2f1(params, 12)
        for n, c in enumerate(f.coefficients):
            direct = (pochhammer(params.a, n) * pochhammer(params.b, n)
                      / (pochhammer(params.c, n) * math.factorial(n)))
            assert c == direct

    def test_c_validation(self):
        with pytest.raises(ValueError):
            HypParams(1, 1, 0)
        with pytest.raises(ValueError):
            HypParams(1, 1, -3)

    def test_exact_series_agrees_with_adaptive_evaluation(self):
        for z in (0.1, 0.5, 0.8):
            exact = hyp2f1(PARAMS_HALF, 400).eval_float(z)
            assert abs(exact - eval_2f1(PARAMS_HALF, z, 1e-13)) < 1e-11

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(0.0, 0.95), n=st.integers(0, ORACLE_ORDER))
    def test_agm_value_within_exact_partial_sum_bounds(self, z, n):
        # the coefficients are positive and decrease, so the partial sum S_n
        # satisfies S_n <= F(z) <= S_n + c_n z^n / (1 - z)
        coeffs = _exact_half_coefficients()[:n + 1]
        partial = math.fsum(float(c) * z ** k for k, c in enumerate(coeffs))
        tail = float(coeffs[-1]) * z ** n / (1.0 - z)
        value = 1.0 / _agm(1.0, math.sqrt(1.0 - z))
        slack = 1e-14
        assert partial - slack <= value <= partial + tail + slack

    def test_tail_bound_soundness(self):
        # doubling the truncation moves the value by less than the bound used
        for z in (0.2, 0.5, 0.8, 0.95):
            for order in (20, 60, 180):
                f_d = hyp2f1(PARAMS_HALF, order)
                f_2d = hyp2f1(PARAMS_HALF, 2 * order)
                bound = float(f_d.coefficients[-1]) * z ** order / (1 - z)
                assert abs(f_d.eval_float(z) - f_2d.eval_float(z)) <= bound


class TestTau:
    def test_symmetric_point(self):
        assert tau_of_t(0.5) == 1.0

    def test_monotone_decreasing(self):
        grid = [0.05 + 0.9 * i / 15 for i in range(16)]
        vals = [tau_of_t(t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_reciprocity(self):
        for t in (0.03, 0.2, 0.35, 0.45):
            assert abs(tau_of_t(t) * tau_of_t(1 - t) - 1.0) < 1e-8

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            tau_of_t(0.001)
        with pytest.raises(OutOfDomain):
            tau_of_t(1.0)


class TestInvert:
    def test_unit_target(self):
        assert abs(invert_tau(1.0) - 0.5) < 1e-10

    def test_classical_value_at_two(self):
        assert abs(invert_tau(2.0) - LAMBDA_2I) < 1e-6

    def test_lambda_at_two_to_rounding(self):
        assert abs(invert_tau(2.0) - LAMBDA_2I) < 1e-14
        assert abs(invert_tau(0.5) - (1 - LAMBDA_2I)) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(DELTA, 1.0 - DELTA))
    def test_round_trip_to_rounding(self, t):
        assert abs(invert_tau(tau_of_t(t)) - t) < 1e-13

    def test_round_trip(self):
        tol = 1e-10
        for t in (0.2, 0.4, 0.6, 0.8):
            assert abs(invert_tau(tau_of_t(t)) - t) < 10 * tol

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            invert_tau(1e6)
        with pytest.raises(TargetOutOfRange):
            invert_tau(-1.0)


class TestLocusFunction:
    def test_diagonal_vanishes_exactly(self):
        for t in (0.1, 0.25, 0.5, 0.8, 0.99 - DELTA):
            assert locus_function(t, t, 1) == 0.0

    def test_degree_two_zero(self):
        t2 = invert_tau(0.5)
        assert abs(locus_function(0.5, t2, 2)) < 1e-8

    def test_degree_two_nonzero_on_diagonal(self):
        val = locus_function(0.5, 0.5, 2)
        f_half = eval_2f1(PARAMS_HALF, 0.5)
        assert abs(val + f_half ** 2) < 1e-9  # = -F(1/2)^2


def test_concurrent_evaluation_matches_sequential():
    from concurrent.futures import ThreadPoolExecutor

    params = HypParams(Fraction(1, 3), Fraction(1, 3), Fraction(1))
    zs = [0.01 * i for i in range(1, 60)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda z: eval_2f1(params, z, 1e-12), zs))
    assert threaded == [eval_2f1(params, z, 1e-12) for z in zs]


class TestSampleLocus:
    def test_diagonal_for_degree_one(self):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        sample = sample_locus(1, grid, tol=1e-8)
        assert len(sample.points) == 5
        for t1, t2, resid in sample.points:
            assert abs(t2 - t1) < 1e-7
            assert resid < 1e-8

    def test_degree_two_at_half(self):
        sample = sample_locus(2, [0.5], tol=1e-8)
        (t1, t2, resid), = sample.points
        assert abs(t2 - (1 - LAMBDA_2I)) < 1e-6
        assert resid < 1e-8

    def test_twenty_point_grid_residuals(self):
        grid = [0.05 + 0.9 * i / 19 for i in range(20)]
        sample = sample_locus(2, grid, tol=1e-8)
        assert len(sample.points) + len(sample.skipped) == 20
        assert len(sample.points) >= 10
        assert all(r < 1e-8 for _, _, r in sample.points)
        assert sample.flagged == ()


CTX = PolyContext(("x", "y"))
GM_CTX = PolyContext(("t1", "t2"))
QUARTIC = ((1, 3, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3), (3, 0, 0, 1))


def _gm_connection(*entries):
    """A 4 x 4 connection over t1, t2 for blocks 1,2,1 that is zero outside
    row 0, which makes it integrable and transversal."""
    rows = [["0", *entries, "0"], ["0"] * 4, ["0"] * 4, ["0"] * 4]
    return FormMatrix(GM_CTX, [[parse_oneform(e, GM_CTX) for e in row] for row in rows])


def _foliation(*entries):
    return block_foliation_forms(_gm_connection(*entries), HodgeBlocks(2, (1, 2, 1)))


def _period_series(truncation):
    return period_series(BetaIndex.make((1, 1, 1, 1), 4), FamilySpec(2, 4, QUARTIC, truncation))


# (value, an equal value built from other arguments, a different value, a field)
# for each value class; HypParams' check on c is TestSeries.test_c_validation
VALUES = {
    "HypParams": (HypParams(1, 1, 1), HypParams(Fraction(1), 1, 1), HypParams(1, 1, 2), "a"),
    "TruncSeries1D": (TruncSeries1D((Fraction(1), Fraction(1, 4))),
                      TruncSeries1D((1, Fraction(1, 4))), TruncSeries1D((Fraction(1),)),
                      "coefficients"),
    "LocusSample": (LocusSample(2, ((0.5, 0.25, 0.0),), (0.05,), 1e-8),
                    LocusSample(2, ((0.5, 0.25, 0.0),), (0.05,), 1e-8),
                    LocusSample(2, ((0.5, 0.25, 0.0),), (), 1e-8), "tol"),
    "Term": (Term(Fraction(2), (1, 0), ("d", 1)), Term(Fraction(4, 2), (1, 0), ("d", 1)),
             Term(Fraction(2), (1, 0), None), "basis"),
    "ExprAST": (parse_expr("x + x*y", CTX), parse_expr("y*x + x", CTX), parse_expr("x", CTX),
                "terms"),
    "PolyContext": (CTX, PolyContext(["x", "y"], (False, False)), PolyContext(("x", "z")),
                    "names"),
    "VectorField": (parse_field("x*D(y)", CTX), parse_field("D(y)*x", CTX),
                    parse_field("D(x)", CTX), "comps"),
    "OneForm": (parse_oneform("x*d(y)", CTX), parse_oneform("d(y)*x", CTX),
                parse_oneform("d(x)", CTX), "comps"),
    "TwoForm": (TwoForm(CTX, {(0, 1): CTX.var("x")}),
                TwoForm(CTX, {(0, 1): CTX.var(0)}),
                TwoForm(CTX, {(0, 1): CTX.var("y")}), "comps"),
    "FormMatrix": (_gm_connection("d(t1)", "2*d(t2)"), _gm_connection("d(t1)", "d(t2) + d(t2)"),
                   _gm_connection("d(t2)", "0"), "entries"),
    "HodgeBlocks": (HodgeBlocks(2, (1, 2, 1)), HodgeBlocks(2, [1, 2, 1]),
                    HodgeBlocks(2, (1, 0, 1)), "sizes"),
    "GMAssembly": (_foliation("d(t1)", "2*d(t2)").assembly,
                   _foliation("d(t1)", "2*d(t2)").assembly,
                   _foliation("d(t2)", "0").assembly, "a"),
    "BlockFoliation": (_foliation("d(t1)", "2*d(t2)"), _foliation("d(t1)", "2*d(t2)"),
                       _foliation("d(t2)", "0"), "forms"),
    "IdealGens": (IdealGens(CTX, (CTX.var("x"),)), IdealGens(CTX, [CTX.zero(), CTX.var(0)]),
                  IdealGens(CTX, ()), "gens"),
    "FamilySpec": (FamilySpec(2, 4, QUARTIC, 3), FamilySpec(2, 4, [list(a) for a in QUARTIC], 3),
                   FamilySpec(2, 4, QUARTIC, 4), "truncation"),
    "BetaIndex": (BetaIndex.make((1, 1, 1, 1), 4), BetaIndex((1, 1, 1, 1), 2),
                  BetaIndex.make((2, 2, 2, 2), 4), "k"),
    "PeriodSeries": (_period_series(3), _period_series(3), _period_series(2), "series"),
    "DenominatorProfile": (DenominatorProfile(12, ((2, 2), (3, 1)), 1),
                           DenominatorProfile(2 ** 2 * 3, ((2, 2), (3, 1)), 1),
                           DenominatorProfile(12, ((2, 2),), 3), "factors"),
}


@pytest.mark.parametrize("value, same, other, field", VALUES.values(), ids=VALUES.keys())
def test_value_classes_are_immutable_values(value, same, other, field):
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert value != tuple(getattr(value, f) for f in vars(value))
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    assert value == same


def test_record_without_its_own_init_takes_every_field_in_order():
    assert list(vars(BetaIndex((1, 1, 1, 1), 2))) == ["beta", "k"]
    with pytest.raises(TypeError, match="BetaIndex takes 2 fields, got 1"):
        BetaIndex((1, 1, 1, 1))


# the row pool sends these through its forked workers
@pytest.mark.parametrize("name", ["FamilySpec", "BetaIndex", "DenominatorProfile"])
def test_pool_records_survive_pickling(name):
    value, _, other, field = VALUES[name]
    copied = pickle.loads(pickle.dumps(value))
    assert copied == value and hash(copied) == hash(value) and copied != other
    with pytest.raises(AttributeError):
        setattr(copied, field, getattr(other, field))
