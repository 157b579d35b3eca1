import random
from fractions import Fraction

import pytest

from hodgeloci.errors import DenominatorDivisibleByP
from hodgeloci.modp import ModPoly, is_prime, mod_reduce
from hodgeloci.series import SparseSeries, residue


def test_is_prime_small():
    assert [p for p in range(25) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]


def test_examples():
    f = SparseSeries(1, {(1,): 3, (0,): 5})
    assert mod_reduce(f, 5) == ModPoly(5, 1, {(1,): 3})
    g = SparseSeries(1, {(1,): Fraction(1, 2)})
    assert mod_reduce(g, 7) == ModPoly(7, 1, {(1,): 4})
    with pytest.raises(DenominatorDivisibleByP):
        mod_reduce(SparseSeries(1, {(1,): Fraction(1, 5)}), 5)
    # a rational coefficient is inverted mod p, not truncated to 0
    assert ModPoly(7, 1, {(0,): Fraction(1, 2)}) == ModPoly(7, 1, {(0,): 4})
    with pytest.raises(DenominatorDivisibleByP):
        ModPoly(7, 1, {(0,): Fraction(1, 7)})


@pytest.mark.parametrize("other", [ModPoly(5, 1, {(1,): 1}), SparseSeries(1, {(1,): 1})])
def test_arithmetic_across_fields_is_rejected(other):
    f = ModPoly(7, 1, {(1,): 1, (0,): 3})
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((f, other), (other, f)):
            with pytest.raises(ValueError, match="mod-p ring mismatch"):
                op(a, b)


def test_rejects_composite_and_laurent():
    with pytest.raises(ValueError):
        mod_reduce(SparseSeries(1, {(1,): 1}), 6)
    with pytest.raises(ValueError):
        mod_reduce(SparseSeries(1, {(-1,): 1}, laurent=(True,)), 5)


def rand_poly(rng, nvars=2, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6]))
    return SparseSeries(nvars, terms)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(11)
    for p in (5, 7, 11):
        for _ in range(40):
            f, g = rand_poly(rng), rand_poly(rng)
            try:
                fr, gr = mod_reduce(f, p), mod_reduce(g, p)
            except DenominatorDivisibleByP:
                continue
            assert mod_reduce(f * g, p) == fr * gr
            assert mod_reduce(f + g, p) == fr + gr
            assert mod_reduce(f - g, p) == fr - gr
            assert mod_reduce(-f, p) == -fr
            c = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6]))
            assert mod_reduce(f.scale(c), p) == fr.scale(c) == fr * c
            for i in range(2):
                assert mod_reduce(f.diff(i), p) == fr.diff(i)
            n = rng.randint(0, 4)
            assert mod_reduce(f ** n, p) == fr ** n
            point = [rng.randint(-5, 5) for _ in range(2)]
            assert fr.eval_exact(point) == residue(f.eval_exact(point), p)


def test_derivative_drops_p_multiples():
    f = ModPoly(5, 1, {(5,): 1, (2,): 1})
    assert f.diff(0) == ModPoly(5, 1, {(1,): 2})


def test_frobenius_endomorphism():
    # f^p = f(x^p) over GF(p)
    rng = random.Random(29)
    for p in (2, 3, 5):
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = rng.randint(1, p - 1) if p > 2 else 1
            f = ModPoly(p, 2, terms)
            expected = ModPoly(p, 2, {tuple(p * x for x in e): c
                                      for e, c in f.terms.items()})
            assert f ** p == expected


def test_json_round_trip_keeps_the_field():
    v = ModPoly(7, 2, {(1, 0): 3, (0, 2): 5, (0, 0): Fraction(1, 2)})
    assert v.to_doc()["p"] == 7
    back = SparseSeries.from_json(v.to_json())
    assert back == v and back.p == 7
    q = SparseSeries(2, {(1, 0): Fraction(3), (0, 2): Fraction(-1, 2)})
    assert "p" not in q.to_doc(4) and q.to_doc(4)["truncation"] == 4
    back = SparseSeries.from_json(q.to_json(4))
    assert back == q and back.p is None
