import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import fractions_st, series_st
from hodgeloci.series import (SparseSeries, _coerce, grlex_key, monomials_upto, residue,
                              total_degree)


def S(nvars, terms):
    return SparseSeries(nvars, terms)


class TestAdd:
    def test_cancellation(self):
        a = S(1, {(0,): 1, (1,): 1})
        b = S(1, {(1,): -1})
        assert a + b == S(1, {(0,): 1})

    def test_identity(self):
        s = S(2, {(1, 2): Fraction(3, 7)})
        assert s + S(2, {}) == s

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            S(1, {}) + S(2, {})


class TestMul:
    def test_difference_of_squares(self):
        a = S(1, {(0,): 1, (1,): 1})
        b = S(1, {(0,): 1, (1,): -1})
        assert a * b == S(1, {(0,): 1, (2,): -1})

    def test_geometric_series_inverse(self):
        # (1 + t + ... + t^5) * (1 - t) telescopes to 1 - t^6
        geo = S(1, {(n,): 1 for n in range(6)})
        one_minus = S(1, {(0,): 1, (1,): -1})
        assert geo * one_minus == S(1, {(0,): 1, (6,): -1})

    def test_binomial_power(self):
        base = S(1, {(0,): 1, (1,): 1})
        assert (base ** 5).terms == {(k,): math.comb(5, k) for k in range(6)}

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            S(1, {}) * S(2, {})


class TestEvalFloat:
    def test_constant_plus_powers_at_zero(self):
        s = S(1, {(0,): 1, (1,): 1, (2,): 1})
        assert s.eval_float((0.0,)) == 1.0

    def test_product_monomial(self):
        s = S(2, {(1, 1): 1})
        assert s.eval_float((2.0, 3.0)) == 6.0

    def test_exponential_oracle(self):
        s = S(1, {(n,): Fraction(1, math.factorial(n)) for n in range(51)})
        assert abs(s.eval_float((1.0,)) - math.e) < 1e-12


class TestLaurent:
    def test_negative_exponent_needs_flag(self):
        with pytest.raises(ValueError):
            S(1, {(-1,): 1})
        s = SparseSeries(1, {(-1,): 1}, laurent=(True,))
        assert s.coefficient((-1,)) == 1

    def test_total_degree_counts_nonnegative_entries(self):
        assert total_degree((-2, 3, 1)) == 4


@settings(max_examples=120, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(series_st(), st.sampled_from([None, 0, 6]))
def test_serialization_round_trip(s, label):
    # the writer prints the label it is given; the reader takes the terms only
    assert SparseSeries.from_json(s.to_json(label)) == s
    assert SparseSeries.from_doc(s.to_doc(label)).terms == s.terms
    assert s.to_doc(label)["truncation"] == label


def test_truncate_is_the_exact_polynomial_of_the_low_terms():
    s = S(2, {(0, 0): 1, (1, 0): 2, (1, 1): 3, (3, 0): 4})
    low = s.truncate(1)
    assert low == S(2, {(0, 0): 1, (1, 0): 2}) and s.truncate(-1) == S(2, {})
    assert not hasattr(low, "truncation")
    # the result is an exact value: it takes part in arithmetic like any other
    assert low * low - low.scale(2) == S(2, {(0, 0): -1, (2, 0): 4})
    lau = SparseSeries(1, {(-2,): 1, (1,): 1, (2,): 1}, laurent=(True,))
    assert lau.truncate(1) == SparseSeries(1, {(-2,): 1, (1,): 1}, laurent=(True,))


def test_doc_is_graded_lex_sorted():
    s = S(2, {(2, 0): 1, (0, 1): 2, (0, 0): 3, (1, 0): 4})
    es = [tuple(t["e"]) for t in s.to_doc()["terms"]]
    assert es == [(0, 0), (0, 1), (1, 0), (2, 0)]


@settings(max_examples=100, deadline=None)
@given(series_st(nvars=3, max_deg=4, max_terms=8))
def test_sorted_terms_follow_grlex_key(s):
    assert [e for e, _ in s.sorted_terms()] == sorted(s.terms, key=grlex_key)


def test_laurent_round_trip():
    s = SparseSeries(2, {(-1, 2): Fraction(3, 4)}, laurent=(True, False))
    assert SparseSeries.from_json(s.to_json()) == s


def test_immutable():
    s = S(1, {(1,): 1})
    with pytest.raises(AttributeError):
        s.nvars = 2


# -- arithmetic results against the validating constructor ---------------------------
#
# Arithmetic builds its results without re-validating them.  Each operation is
# rebuilt here from the operands' raw terms through ``SparseSeries(...)``, which
# coerces, merges, drops zeros and reduces mod p itself.


def _rebuilt(op, a, b, c, i):
    n, lau, p = a.nvars, a.laurent, a.p
    if op == "add":
        terms = list(a.terms.items()) + list(b.terms.items())
    elif op == "sub":
        terms = list(a.terms.items()) + [(e, -v) for e, v in b.terms.items()]
    elif op == "neg":
        terms = [(e, -v) for e, v in a.terms.items()]
    elif op == "scale":
        terms = [(e, c * v) for e, v in a.terms.items()]
    elif op == "mul":
        terms = [(tuple(x + y for x, y in zip(e1, e2)), v1 * v2)
                 for e1, v1 in a.terms.items() for e2, v2 in b.terms.items()]
    else:
        assert op == "diff"
        terms = [(e[:i] + (e[i] - 1,) + e[i + 1:], v * e[i]) for e, v in a.terms.items() if e[i]]
    return SparseSeries(n, terms, lau, p)


_OPS = {"add": lambda a, b, c, i: a + b, "sub": lambda a, b, c, i: a - b,
        "neg": lambda a, b, c, i: -a, "scale": lambda a, b, c, i: a.scale(c),
        "mul": lambda a, b, c, i: a * b, "diff": lambda a, b, c, i: a.diff(i)}


def _check_op(op, a, b, c=Fraction(2), i=0):
    got = _OPS[op](a, b, c, i)
    want = _rebuilt(op, a, b, c, i)
    assert got == want
    assert got.laurent == a.laurent and got.p == a.p
    if a.p is None:  # an int or a Fraction: arithmetic keeps whichever it computes
        assert all(type(v) in (int, Fraction) and v for v in got.terms.values())
    else:
        assert all(type(v) is int and 0 < v < a.p for v in got.terms.values())
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in got.terms)


@st.composite
def compatible_pair_st(draw):
    """Two exact values over the same variables, Laurent flags and field, on a
    small exponent box so that terms collide: over Q, with any Laurent flags, or
    over GF(2) or GF(7), whose terms also cancel mod p."""
    nvars = draw(st.integers(1, 3))
    p = draw(st.sampled_from([None, 2, 7]))
    if p is None:
        lau = tuple(draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars)))
    else:
        lau = (False,) * nvars
    # GF(2) cannot invert the even denominators
    coefficient = st.one_of(st.integers(-9, 9), fractions_st(max_den=1 if p == 2 else 5))

    def one():
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            e = tuple(draw(st.integers(-2 if flag else 0, 3)) for flag in lau)
            terms[e] = draw(coefficient)
        return SparseSeries(nvars, terms, laurent=lau, p=p)

    return one(), one()


@pytest.mark.parametrize("op", sorted(_OPS))
@settings(max_examples=100, deadline=None)
@given(pair=compatible_pair_st(), c=fractions_st(), i=st.integers(0, 2))
def test_arithmetic_matches_validating_constructor(op, pair, c, i):
    a, b = pair
    if a.p is not None:  # an integer scale factor is a residue in every GF(p)
        c = c.numerator
    _check_op(op, a, b, c, i % a.nvars)


@pytest.mark.parametrize("kwargs, message", [
    (dict(nvars=-1), "nvars must be non-negative"),
    (dict(nvars=1, terms={(0,): "x"}), "Invalid literal for Fraction"),
    (dict(nvars=2, laurent=(True,)), "laurent flag count does not match nvars"),
    (dict(nvars=1, p=1), "modulus must be a prime >= 2"),
    (dict(nvars=1, terms={("a",): 1}), "invalid literal for int"),
    (dict(nvars=1, laurent=(True,), p=3), r"GF\(p\) values are exact polynomials"),
    (dict(nvars=2, terms={(1,): 1}), r"exponent \(1,\) has wrong length for 2 variables"),
    (dict(nvars=2, terms={(0, -1): 1}, laurent=(True, False)),
     "negative exponent on non-Laurent variable 1"),
])
def test_constructor_rejects_invalid_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SparseSeries(**kwargs)


def test_monomials_upto_enumerates_the_simplex_in_grlex_order():
    for n in range(5):
        for d in range(-1, 7):
            brute = sorted((e for e in itertools.product(range(d + 1), repeat=n)
                            if sum(e) <= d), key=lambda e: (sum(e), e))
            assert monomials_upto(n, d) == brute, (n, d)
            assert len(brute) == (math.comb(n + d, n) if d >= 0 else 0)
    assert len(monomials_upto(2, 3)) == 10
    assert monomials_upto(2, 1) == [(0, 0), (0, 1), (1, 0)]


class TestIntegerCoefficients:
    """Over Q a coefficient with denominator 1 is stored as an int; arithmetic
    may still produce a Fraction equal to an integer, and the two must be
    indistinguishable as values."""

    def test_int_and_fraction_coefficients_agree(self):
        as_int = S(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
        # Fraction(3, 2) * 2 is Fraction(3), which arithmetic keeps as it is
        as_fraction = S(2, {(1, 0): Fraction(3, 2), (0, 1): Fraction(1, 4)}) * S(2, {(0, 0): 2})
        assert type(as_int.terms[(1, 0)]) is int
        assert type(as_fraction.terms[(1, 0)]) is Fraction
        assert as_int == as_fraction and as_fraction == as_int
        assert hash(as_int) == hash(as_fraction)
        assert as_int.to_json() == as_fraction.to_json()
        assert as_int.to_json(4) == as_fraction.to_json(4)
        assert SparseSeries.from_json(as_fraction.to_json()).terms[(1, 0)] == 3

    @pytest.mark.parametrize("c, want", [(3, 3), (Fraction(3), 3), (Fraction(6, 2), 3),
                                         ("3", 3), ("6/2", 3), (True, 1), (False, 0),
                                         (Fraction(3, 2), Fraction(3, 2)),
                                         ("-3/2", Fraction(-3, 2))])
    def test_coerce_stores_denominator_one_as_a_plain_int(self, c, want):
        got = _coerce(c)
        assert got == want and type(got) is type(want)
        terms = S(1, {(0,): c}).terms
        assert terms == ({(0,): want} if want else {})
        assert all(type(v) is type(want) for v in terms.values())

    @pytest.mark.parametrize("p", [2, 7, 101])
    def test_residue_reads_ints_and_fractions_alike(self, p):
        for n in range(-12, 13):
            assert residue(n, p) == residue(Fraction(n), p) == residue(str(n), p) == n % p
        assert residue(Fraction(3, 4), 7) == residue("3/4", 7) == 3 * pow(4, -1, 7) % 7

    def test_exact_evaluation_is_a_fraction(self):
        s = SparseSeries(2, {(-1, 0): 3, (0, 2): 1}, laurent=(True, False))
        got = s.eval_exact((2, 3))
        assert got == Fraction(21, 2) and type(got) is Fraction
        assert type(S(1, {(0,): 3}).eval_exact((5,))) is Fraction


class TestEmbed:
    F = S(2, {(1, 0): 2, (0, 1): 3})  # 2*x0 + 3*x1

    def test_positions_place_each_variable(self):
        assert self.F.embed(3, [2, 0]) == S(3, {(0, 0, 1): 2, (1, 0, 0): 3})

    def test_laurent_variable_keeps_negative_exponents(self):
        f = SparseSeries(2, {(-1, 1): 5}, laurent=(True, False))
        got = f.embed(3, [1, 2], laurent=(False, True, False))
        assert got == SparseSeries(3, {(0, -1, 1): 5}, laurent=(False, True, False))
        with pytest.raises(ValueError, match="negative exponent"):
            f.embed(3, [1, 2])

    @pytest.mark.parametrize("positions", [[0, 0], [0, -1], [0, 3]],
                             ids=["repeated", "negative", "out-of-range"])
    def test_positions_must_be_distinct_indices_in_range(self, positions):
        with pytest.raises(ValueError, match="distinct indices"):
            self.F.embed(3, positions)
