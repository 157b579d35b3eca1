"""The residue-class kernel against the closed formula, and the engine paths
built on its output."""

from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
from hypothesis import given, settings

from hodgeloci import _coeff_kernel_py
from hodgeloci.periods import (FamilySpec, denominator_profile, griffiths_basis,
                               period_coefficient, period_denominator_profile,
                               period_series, quartic_full_monomials)
from hodgeloci.series import SparseSeries, grlex_key


@st.composite
def families(draw, max_d=5, max_monomials=4, max_trunc=8):
    """A quartic-surface-shaped family (n = 2) of degree d <= max_d."""
    d = draw(st.integers(2, max_d))
    cuts = st.lists(st.integers(0, d), min_size=3, max_size=3).map(sorted)
    weight_d = cuts.map(lambda c: (c[0], c[1] - c[0], c[2] - c[1], d - c[2]))
    monos = draw(st.lists(weight_d, max_size=max_monomials, unique=True))
    return FamilySpec(2, d, tuple(monos), draw(st.integers(0, max_trunc)))


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


def test_pure_kernel_handles_many_variables():
    # 35-variable enumeration at low degree: recursion depth equals set size
    terms = _coeff_kernel_py.coefficient_terms((0, 0, 0, 0), 4, quartic_full_monomials(), 1)
    assert len(terms) == 9
