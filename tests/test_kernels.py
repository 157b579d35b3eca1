"""The residue-class kernel against the closed formula, and the engine paths
built on its output."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings

from conftest import families
from hodgeloci import _coeff_kernel_py
from hodgeloci.periods import (FamilySpec, denominator_profile, griffiths_basis,
                               period_coefficient, period_denominator_profile,
                               period_series, period_series_json, quartic_full_monomials)
from hodgeloci.series import SparseSeries, grlex_key


def simplex(m, trunc):
    return [a for a in product(range(trunc + 1), repeat=m) if sum(a) <= trunc]


@settings(max_examples=100, deadline=None)
@given(families())
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
        checked = SparseSeries(fam.nparams, [(a, Fraction(num, den)) for a, num, den in raw],
                               truncation=fam.truncation)
        assert series == checked and hash(series) == hash(checked)


@settings(max_examples=40, deadline=None)
@given(families())
def test_integer_denominator_path_matches_series_profile(fam):
    for beta in griffiths_basis(fam.d, fam.n):
        assert period_denominator_profile(beta, fam) == \
            denominator_profile(period_series(beta, fam))


@settings(max_examples=100, deadline=None)
@given(families())
def test_series_writer_matches_to_json(fam):
    for beta in griffiths_basis(fam.d, fam.n):
        assert period_series_json(beta, fam) == period_series(beta, fam).series.to_json()


def test_series_writer_writes_an_empty_series():
    fam = FamilySpec(2, 4, (), 3)  # beta 0 fails the pair test, and no monomial moves it
    written = period_series_json((0, 0, 0, 0), fam)
    assert written == '{"nvars":0,"truncation":3,"terms":[]}'
    assert written == period_series((0, 0, 0, 0), fam).series.to_json()


def test_pure_kernel_handles_many_variables():
    # 35-variable enumeration at low degree: recursion depth equals set size
    terms = _coeff_kernel_py.coefficient_terms((0, 0, 0, 0), 4, quartic_full_monomials(), 1)
    assert len(terms) == 9
