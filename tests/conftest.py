from fractions import Fraction

import hypothesis.strategies as st

from hodgeloci.periods import FamilySpec
from hodgeloci.series import SparseSeries


def fractions_st(max_num: int = 9, max_den: int = 5):
    return st.builds(Fraction, st.integers(-max_num, max_num), st.integers(1, max_den))


def exponent_st(nvars: int, max_deg: int):
    return st.lists(st.integers(0, max_deg), min_size=nvars, max_size=nvars).map(tuple)


@st.composite
def series_st(draw, nvars: int = 2, max_deg: int = 3, max_terms: int = 4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = draw(exponent_st(nvars, max_deg))
        terms[e] = draw(st.one_of(st.integers(-9, 9), fractions_st()))
    return SparseSeries(nvars, terms)


@st.composite
def families(draw, max_d=5, max_monomials=4, max_trunc=8):
    """A quartic-surface-shaped family (n = 2) of degree d <= max_d."""
    d = draw(st.integers(2, max_d))
    cuts = st.lists(st.integers(0, d), min_size=3, max_size=3).map(sorted)
    weight_d = cuts.map(lambda c: (c[0], c[1] - c[0], c[2] - c[1], d - c[2]))
    monos = draw(st.lists(weight_d, max_size=max_monomials, unique=True))
    return FamilySpec(2, d, tuple(monos), draw(st.integers(0, max_trunc)))
