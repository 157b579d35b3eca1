import random
from fractions import Fraction
from math import factorial

import pytest

from hodgeloci.errors import NotIntegral
from hodgeloci.periods import (BetaIndex, FamilySpec, beta_orbits,
                               coefficient_product, denominator_profile,
                               fractional_pair_condition, griffiths_basis, int_frac,
                               pair_symmetries, period_coefficient, period_series, pochhammer,
                               pole_order, quartic_full_family_series,
                               quartic_full_monomials, sign_exponent,
                               steenbrink_hodge_tate)
from hodgeloci.series import SparseSeries

I35 = quartic_full_monomials()
I4 = ((1, 3, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3), (3, 0, 0, 1))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(5, 3), 0) == 1
        assert pochhammer(Fraction(-2), 0) == 1

    def test_half(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_factorial_case(self):
        assert pochhammer(1, 5) == 120


class TestIntFrac:
    def test_positive(self):
        assert int_frac(Fraction(7, 4)) == (1, Fraction(3, 4))

    def test_negative_floor_convention(self):
        assert int_frac(Fraction(-1, 4)) == (-1, Fraction(3, 4))

    def test_integer(self):
        assert int_frac(2) == (2, 0)


class TestPoleOrder:
    def test_zero_beta(self):
        assert pole_order((0, 0, 0, 0), 4) == 1

    def test_top_beta(self):
        assert pole_order((2, 2, 2, 2), 4) == 3

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            pole_order((1, 0, 0, 0), 4)


class TestPairCondition:
    def test_midpoints(self):
        assert fractional_pair_condition((1, 1, 1, 1), 4)

    def test_three_quarters_fails(self):
        assert not fractional_pair_condition((2, 2, 2, 2), 4)

    def test_degree_two(self):
        assert fractional_pair_condition((0, 0, 0, 0), 2)


class TestCoefficientPieces:
    def test_trivial_product(self):
        assert coefficient_product((1, 1, 1, 1), 4) == 1
        assert sign_exponent((1, 1, 1, 1), 4) == 0

    def test_one_step(self):
        assert coefficient_product((5, 1, 1, 1), 4) == Fraction(1, 2)
        assert sign_exponent((5, 1, 1, 1), 4) == 1

    def test_divisible_slot_kills(self):
        assert coefficient_product((3, 0, 0, 0), 4) == 0


@pytest.fixture(scope="module")
def fam35():
    return FamilySpec(2, 4, I35, 3)


@pytest.fixture(scope="module")
def beta0():
    return BetaIndex.make((0, 0, 0, 0), 4)


def unit(alpha, *more):
    a = [0] * len(I35)
    for m in (alpha,) + more:
        a[I35.index(m)] += 1
    return tuple(a)


class TestPeriodCoefficient:
    def test_diagonal_unit(self, fam35, beta0):
        assert period_coefficient(unit((1, 1, 1, 1)), beta0, fam35) == 1

    def test_pair(self, fam35, beta0):
        assert period_coefficient(unit((4, 0, 0, 0), (1, 1, 1, 1)), beta0, fam35) == Fraction(-1, 2)

    def test_failing_condition(self, fam35, beta0):
        a = list(unit((1, 1, 1, 1)))
        a[I35.index((1, 1, 1, 1))] = 2
        assert period_coefficient(tuple(a), beta0, fam35) == 0


class TestPeriodSeries:
    def test_truncation_zero_is_empty(self, beta0):
        fam = FamilySpec(2, 4, I35, 0)
        ps = period_series(beta0, fam)
        assert ps.series.is_zero()

    def test_degree_one_terms_against_brute_force(self, beta0):
        fam = FamilySpec(2, 4, I35, 1)
        ps = period_series(beta0, fam)
        # independent oracle: literal fractional-part arithmetic per monomial
        expected = set()
        for idx, alpha in enumerate(I35):
            r = [Fraction(alpha[i] + 1, 4) for i in range(4)]
            fracs = [x - (x.numerator // x.denominator) for x in r]
            if fracs[0] + fracs[1] == 1 and fracs[2] + fracs[3] == 1:
                e = [0] * len(I35)
                e[idx] = 1
                expected.add(tuple(e))
        assert set(ps.series.terms) == expected
        assert len(expected) == 9
        assert all(c == 1 for c in ps.series.terms.values())

    def test_propagates_not_integral(self):
        fam = FamilySpec(2, 4, I4, 2)
        with pytest.raises(NotIntegral):
            period_series((1, 0, 0, 0), fam)

    def test_beta_length_must_match_family(self):
        fam = FamilySpec(2, 4, I4, 2)
        with pytest.raises(ValueError):
            period_series((1,) * 8, fam)  # integral pole order, but eight slots

    def test_survivors_satisfy_pair_condition_and_denominator_bound(self):
        fam = FamilySpec(2, 4, I4, 8)
        for beta in ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)):
            ps = period_series(beta, fam)
            for a, c in ps.series.terms.items():
                bcheck = [b + sum(v * alpha[j] for v, alpha in zip(a, I4))
                          for j, b in enumerate(beta)]
                assert fractional_pair_condition(bcheck, 4)
                afact = 1
                for v in a:
                    afact *= factorial(v)
                dpow = 4 ** sum((b + 1) // 4 for b in bcheck)
                assert (afact * dpow) % c.denominator == 0

    def test_sign_flip_changes_signs_but_not_profile(self):
        fam = FamilySpec(2, 4, I4, 6)
        ps = period_series((1, 1, 1, 1), fam)
        for i in range(4):
            flipped = ps.series.sign_flip(i)
            assert denominator_profile(flipped) == denominator_profile(ps.series)
            for e, c in ps.series.terms.items():
                assert flipped.coefficient(e) == (-c if e[i] % 2 else c)

    def test_normalization_metadata(self, beta0):
        fam = FamilySpec(2, 4, I4, 2)
        ps = period_series(beta0, fam)
        assert ps.normalization == "(-1)^1 * 4^2 * 0! / (2*pi*i)^1"


class TestCrossPath:
    def test_full_family_agreement_low_degree(self, fam35, beta0):
        direct = quartic_full_family_series(3)
        engine = period_series(beta0, fam35)
        assert direct == engine.series

    def test_constant_term_vanishes(self):
        assert quartic_full_family_series(2).constant_term() == 0


def gen_fn_counts(d, n):
    # independent oracle: coefficients of prod (1 + z + ... + z^(d-2)) over n+2 slots
    poly = [1]
    for _ in range(n + 2):
        nxt = [0] * (len(poly) + d - 2)
        for i, c in enumerate(poly):
            for j in range(d - 1):
                nxt[i + j] += c
        poly = nxt
    out = {}
    k = 1
    while k * d - (n + 2) < len(poly):
        deg = k * d - (n + 2)
        if deg >= 0 and poly[deg]:
            out[k] = poly[deg]
        k += 1
    return out


class TestGriffithsBasis:
    def test_quartic_surface_case(self):
        basis = griffiths_basis(4, 2)
        assert len(basis) == 21
        by_k = {}
        for b in basis:
            by_k[b.k] = by_k.get(b.k, 0) + 1
        assert by_k == {1: 1, 2: 19, 3: 1}
        assert basis[0].beta == (0, 0, 0, 0)
        assert basis[-1].beta == (2, 2, 2, 2)

    def test_quadric(self):
        assert [(b.beta, b.k) for b in griffiths_basis(2, 2)] == [((0, 0, 0, 0), 2)]

    def test_cubic_surface(self):
        # six degree-2 classes, all with pole order 2: the primitive h^{1,1} of
        # the cubic surface
        basis = griffiths_basis(3, 2)
        assert len(basis) == 6
        assert all(b.k == 2 and sum(b.beta) == 2 for b in basis)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 4)])
    def test_sizes_match_generating_function(self, d, n):
        basis = griffiths_basis(d, n)
        counts = {}
        for b in basis:
            counts[b.k] = counts.get(b.k, 0) + 1
        assert counts == gen_fn_counts(d, n)


class TestDenominatorProfile:
    def test_simple(self):
        s = SparseSeries(1, {(0,): 1, (1,): Fraction(-1, 2)})
        prof = denominator_profile(s)
        assert prof.lcm == 2 and prof.factors == ((2, 1),)
        assert prof.factorization_str() == "2"

    def test_empty(self):
        prof = denominator_profile(SparseSeries(1, {}))
        assert prof.lcm == 1 and prof.factors == ()
        assert prof.factorization_str() == "1"

    def test_unfactored_cofactor(self):
        big = (10 ** 9 + 7) * (10 ** 9 + 9)  # both prime, beyond bound^2 for bound=100
        s = SparseSeries(1, {(1,): Fraction(1, big)})
        prof = denominator_profile(s, bound=100)
        assert prof.unfactored_cofactor == big
        assert "cofactor" in prof.factorization_str()

    def test_prime_remainder_within_bound_squared(self):
        s = SparseSeries(1, {(1,): Fraction(1, 4 * 9973)})
        prof = denominator_profile(s, bound=200)
        assert prof.factors == ((2, 2), (9973, 1))
        assert prof.unfactored_cofactor == 1


class TestSteenbrink:
    @pytest.mark.parametrize("d,expected", [(3, True), (4, False), (2, True)])
    def test_surfaces(self, d, expected):
        assert steenbrink_hodge_tate(d, (1, 1, 1, 1), 2) is expected

    def test_validation(self):
        with pytest.raises(ValueError):
            steenbrink_hodge_tate(3, (2, 1, 1, 1), 2)
        with pytest.raises(ValueError):
            steenbrink_hodge_tate(3, (1, 1, 1), 2)


class TestFamilyValidation:
    def test_rejects_bad_monomials(self):
        with pytest.raises(ValueError):
            FamilySpec(2, 4, ((1, 1, 1, 0),), 2)  # weight 3, not 4
        with pytest.raises(ValueError):
            FamilySpec(2, 4, ((1, 1, 1, 1), (1, 1, 1, 1)), 2)  # duplicate
        with pytest.raises(ValueError):
            FamilySpec(3, 4, ((1, 1, 1, 1, 0),), 2)  # odd n


def test_cubic_fourfold_family():
    # n = 4: six coordinate slots, three fractional pairs
    basis = griffiths_basis(3, 4)
    by_k = {}
    for b in basis:
        by_k[b.k] = by_k.get(b.k, 0) + 1
    assert by_k == {2: 1, 3: 20, 4: 1}  # primitive middle cohomology of a cubic fourfold

    fam = FamilySpec(4, 3, ((1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 2, 1)), 6)
    for beta in ((0,) * 6, (1,) * 6):
        ps = period_series(beta, fam)
        bidx = BetaIndex.make(beta, 3)
        for a in monomials_upto_oracle(3, 6):
            assert ps.series.coefficient(a) == period_coefficient(a, bidx, fam)
        for a, c in ps.series.terms.items():
            bcheck = [b + sum(v * alpha[j] for v, alpha in zip(a, fam.monomials))
                      for j, b in enumerate(beta)]
            assert fractional_pair_condition(bcheck, 3)


def monomials_upto_oracle(nvars, deg):
    out = [()]
    for _ in range(nvars):
        out = [e + (v,) for e in out for v in range(deg + 1)]
    return [e for e in out if sum(e) <= deg]


def test_monomial_order_equivariance():
    # permuting the deformation monomials permutes exponent slots, nothing else
    fam = FamilySpec(2, 4, I4, 6)
    perm = (2, 0, 3, 1)
    fam_p = FamilySpec(2, 4, tuple(I4[i] for i in perm), 6)
    for beta in ((0, 0, 0, 0), (1, 1, 1, 1)):
        base = period_series(beta, fam).series
        permuted = period_series(beta, fam_p).series
        remapped = {tuple(a[perm.index(j)] for j in range(4)): c
                    for a, c in permuted.terms.items()}
        assert remapped == base.terms


def test_kernel_matches_readable_path():
    rng = random.Random(3)
    fam = FamilySpec(2, 4, I4, 5)
    beta = BetaIndex.make((1, 1, 1, 1), 4)
    ps = period_series(beta, fam)
    for _ in range(200):
        a = tuple(rng.randint(0, 2) for _ in range(4))
        if sum(a) > 5:
            continue
        assert ps.series.coefficient(a) == period_coefficient(a, beta, fam)


# (family, the order of its group of pair symmetries)
SYMMETRIC_FAMILIES = {
    "quartic": (FamilySpec(2, 4, I4, 6), 2),  # swaps (x0,x1) <-> (x2,x3)
    "no_symmetry": (FamilySpec(2, 4, I4[:2], 6), 1),
    "no_monomials": (FamilySpec(2, 4, (), 6), 2),
    # x0 x1 x2 and its images under the cyclic shift of the three pairs; a
    # transposition of two pairs sends it to x0 x2 x3, which is not in the set
    "cyclic_pairs": (FamilySpec(4, 3, ((1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 0),
                                       (1, 0, 0, 0, 1, 1)), 5), 3),
    "all_pairs": (FamilySpec(4, 3, ((1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0),
                                    (0, 0, 0, 0, 1, 2)), 5), 6),
}


@pytest.mark.parametrize("name", list(SYMMETRIC_FAMILIES))
def test_pair_symmetry_permutes_the_series_exactly(name):
    fam, order = SYMMETRIC_FAMILIES[name]
    symmetries = pair_symmetries(fam)
    assert len(symmetries) == order
    assert symmetries[0] == (tuple(range(fam.n + 2)), None)  # the identity first
    for beta in griffiths_basis(fam.d, fam.n):
        terms = period_series(beta, fam).series.terms
        for slots, gather in symmetries:
            image = tuple(beta.beta[j] for j in slots)
            moved = terms if gather is None else \
                {tuple(a[i] for i in gather): c for a, c in terms.items()}
            assert period_series(image, fam).series.terms == moved


def test_a_swap_inside_a_pair_is_not_a_symmetry():
    # the set is also fixed by swapping inside both pairs, but that swap sends
    # even slots to odd ones, which multiplies a term by (-1)^(k + |a| - (n+2)/2)
    swapped = tuple((b, a, d, c) for a, b, c, d in I4)
    fam = FamilySpec(2, 4, I4 + swapped, 4)
    assert [slots for slots, _ in pair_symmetries(fam)] == [(0, 1, 2, 3), (2, 3, 0, 1)]
    for beta in griffiths_basis(4, 2):
        b0, b1, b2, b3 = beta.beta
        terms = period_series(beta, fam).series.terms
        image = period_series((b1, b0, b3, b2), fam).series.terms
        # the swap exchanges monomial i of I4 with monomial i of swapped
        assert image == {a[4:] + a[:4]: c * (-1) ** (beta.k + sum(a))
                         for a, c in terms.items()}


def test_beta_orbits_group_rows_by_first_occurrence():
    fam = FamilySpec(2, 4, I4, 3)
    betas = [BetaIndex.make(b, 4) for b in
             ((2, 2, 0, 0), (1, 1, 1, 1), (0, 0, 2, 2), (2, 2, 0, 0))]
    swap = (2, 3, 0, 1)
    got = [(o.beta.beta, o.rows, o.gathers) for o in beta_orbits(betas, fam)]
    assert got == [((2, 2, 0, 0), (0, 2, 3), (None, swap, None)),
                   ((1, 1, 1, 1), (1,), (None,))]
    assert len(beta_orbits(griffiths_basis(4, 2), fam)) == 13


def test_beta_orbits_reject_the_first_wrong_length_beta():
    # both wrong lengths have an integral pole order, so BetaIndex.make accepts them
    fam = FamilySpec(2, 4, I4, 3)
    betas = [BetaIndex.make(b, 4) for b in ((0, 0, 0, 0), (1, 1, 1, 0, 0), (1,) * 8)]
    with pytest.raises(ValueError, match=r"^beta \(1, 1, 1, 0, 0\) does not have 4 entries$"):
        beta_orbits(betas, fam)
