"""The residue-class kernel against the closed formula, and the engine paths
built on its output."""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import families
from hodgeloci import _coeff_kernel_py
from hodgeloci.periods import (BetaIndex, FamilySpec, beta_orbits, denominator_profile,
                               griffiths_basis, orbit_denominator_profiles, orbit_series_json,
                               period_coefficient, period_series, quartic_full_monomials)
from hodgeloci.series import SparseSeries, grlex_key


def simplex(m, trunc):
    return [a for a in product(range(trunc + 1), repeat=m) if sum(a) <= trunc]


def table_rows(fn, betas, fam):
    """One row per beta from the orbit function ``fn``, each orbit's rows put
    back where ``beta_orbits`` says they go."""
    rows = [None] * len(betas)
    for orbit in beta_orbits(betas, fam):
        assert orbit.beta == betas[orbit.rows[0]]
        for row, value in zip(orbit.rows, fn(orbit, fam), strict=True):
            assert rows[row] is None
            rows[row] = value
    return rows


QUARTIC_MONOMIALS = ((1, 3, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3), (3, 0, 0, 1))


def edge_families(test):
    """``test`` with the families whose cases each last level of the kernel
    must handle as examples."""
    for fam in [
        # m = 0: beta 0 passes the pair test at d = 2; at d = 4 it fails and
        # (2, 0, 2, 0) passes
        FamilySpec(2, 2, (), 0),
        FamilySpec(2, 4, (), 3),
        FamilySpec(2, 4, ((1, 3, 0, 0),), 8),  # m = 1: the inline level is the only one
        FamilySpec(2, 4, QUARTIC_MONOMIALS, 3),  # truncation below d: every run has length 1
        FamilySpec(2, 4, ((1, 3, 0, 0), (0, 0, 0, 4)), 9),  # the last monomial moves one slot
        FamilySpec(2, 4, ((0, 1, 3, 0), (1, 1, 1, 1)), 9),  # ... and every slot
    ]:
        test = example(fam)(test)
    return test


def reduced_lcm(terms):
    """The reference lcm of the reduced denominators of kernel terms."""
    return lcm(*(den // gcd(num, den) for _, num, den in terms))


@settings(max_examples=100, deadline=None)
@given(families())
@edge_families
def test_kernel_matches_closed_formula_on_the_simplex(fam):
    for beta in griffiths_basis(fam.d, fam.n):
        terms = _coeff_kernel_py.coefficient_terms(beta.beta, fam.d, fam.monomials,
                                                   fam.truncation)
        keys = [grlex_key(a) for a, _, _ in terms]
        assert keys == sorted(set(keys))  # strictly ascending graded-lex
        emitted = {a: Fraction(num, den) for a, num, den in terms}
        for a in simplex(fam.nparams, fam.truncation):
            assert emitted.pop(a, 0) == period_coefficient(a, beta, fam)
        assert not emitted  # nothing outside the simplex


@settings(max_examples=40, deadline=None)
@given(families())
def test_trusted_series_equals_validated_construction(fam):
    for beta in griffiths_basis(fam.d, fam.n):
        series = period_series(beta, fam).series
        raw = _coeff_kernel_py.coefficient_terms(beta.beta, fam.d, fam.monomials,
                                                 fam.truncation)
        checked = SparseSeries(fam.nparams, [(a, Fraction(num, den)) for a, num, den in raw])
        assert series == checked and hash(series) == hash(checked)


@settings(max_examples=40, deadline=None)
@given(families())
def test_integer_denominator_path_matches_series_profile(fam):
    basis = griffiths_basis(fam.d, fam.n)
    assert table_rows(orbit_denominator_profiles, basis, fam) == \
        [denominator_profile(period_series(beta, fam)) for beta in basis]


@settings(max_examples=100, deadline=None)
@given(families())
def test_series_writer_matches_to_json(fam):
    basis = griffiths_basis(fam.d, fam.n)
    assert table_rows(orbit_series_json, basis, fam) == \
        [period_series(beta, fam).series.to_json(fam.truncation) for beta in basis]


@pytest.mark.parametrize("truncation", [0, 3, 4, 12, 30])
def test_denominator_lcm_equals_the_lcm_of_reduced_denominators(truncation):
    # every row of the quartic table; the lcm pass skips the gcd of a term
    # whose reduced denominator already divides the running lcm
    negative = 0
    for beta in griffiths_basis(4, 2):
        raw = _coeff_kernel_py.coefficient_terms(beta.beta, 4, QUARTIC_MONOMIALS, truncation)
        negative += any(num < 0 for _, num, _ in raw)
        assert _coeff_kernel_py.denominator_lcm(beta.beta, 4, QUARTIC_MONOMIALS,
                                                truncation) == reduced_lcm(raw)
    # rows with negative numerators are among them, once a term moves beta:
    # every q_i of a quartic Griffiths beta is 0, so the constant terms are positive
    assert negative or truncation == 0


@settings(max_examples=100, deadline=None)
@given(families())
@edge_families
def test_denominator_lcm_equals_the_lcm_of_reduced_denominators_on_families(fam):
    for beta in griffiths_basis(fam.d, fam.n):
        raw = _coeff_kernel_py.coefficient_terms(beta.beta, fam.d, fam.monomials,
                                                 fam.truncation)
        assert _coeff_kernel_py.denominator_lcm(beta.beta, fam.d, fam.monomials,
                                                fam.truncation) == reduced_lcm(raw)


def test_denominator_lcm_reduces_the_one_term_of_no_monomials():
    # m = 0 with q_0 = 1: every Griffiths beta has all q_i = 0, and so denominator 1
    fam = FamilySpec(2, 4, (), 3)
    beta = BetaIndex.make((5, 1, 1, 1), 4)
    assert period_coefficient((), beta, fam) == Fraction(-1, 2)
    assert _coeff_kernel_py.coefficient_terms(beta.beta, 4, (), 3) == [((), -2, 4)]
    assert _coeff_kernel_py.denominator_lcm(beta.beta, 4, (), 3) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_rows_equal_the_per_row_functions(data):
    # an explicit list of basis classes, possibly repeated or holding only one
    # member of an orbit; every row comes from its orbit's one kernel run
    fam = data.draw(families())
    basis = griffiths_basis(fam.d, fam.n)
    betas = data.draw(st.lists(st.sampled_from(basis), max_size=6))
    assert table_rows(orbit_denominator_profiles, betas, fam) == \
        [denominator_profile(period_series(b, fam)) for b in betas]
    assert table_rows(orbit_series_json, betas, fam) == \
        [period_series(b, fam).series.to_json(fam.truncation) for b in betas]


def test_series_writer_writes_an_empty_series():
    fam = FamilySpec(2, 4, (), 3)  # beta 0 fails the pair test, and no monomial moves it
    [written] = table_rows(orbit_series_json, [BetaIndex.make((0, 0, 0, 0), 4)], fam)
    assert written == '{"nvars":0,"truncation":3,"terms":[]}'
    assert written == period_series((0, 0, 0, 0), fam).series.to_json(fam.truncation)


def test_pure_kernel_handles_many_variables():
    # 35-variable enumeration at low degree: recursion depth equals set size
    terms = _coeff_kernel_py.coefficient_terms((0, 0, 0, 0), 4, quartic_full_monomials(), 1)
    assert len(terms) == 9
