"""Truncated Taylor series of normalized periods for Fermat-type hypersurface
deformations.

The family is f_t = -x_0^d + x_1^d - ... - x_n^d + x_{n+1}^d - sum_a t_a x^a
with deformation monomials a drawn from a finite set I of exponent vectors of
weight d.  For a residue-class index beta with integral pole order
k = sum (beta_i + 1)/d, the normalized period series over the monodromy of
the linear cycle is

    sum_a  (-1)^{E(b)} * D(b) / a!  *  t^a,      b = beta + sum a_alpha alpha,

where D(b) multiplies ascending Pochhammer symbols ({(b_i+1)/d})_[(b_i+1)/d],
E(b) sums the floors over even slots, and a term survives exactly when the
fractional parts of consecutive pairs (b_{2e}+1)/d, (b_{2e+1}+1)/d sum to 1.
The scalar prefactor (-1)^{n/2} d^{n/2+1} (k-1)! / (2*pi*i)^{n/2} is carried
as text metadata only: it is not a rational number.

The tuple enumeration is the package's hot loop.  It lives in
``_coeff_kernel_py``, which walks only the residue classes of ``a mod d`` that
pass the pair condition and returns integer (numerator, denominator) pairs
already in graded-lexicographic order, so the engine adds no sort and no
re-validation on top of it.

Two consumers read those integers directly, with no ``Fraction`` and no
``SparseSeries`` in between: ``period_denominator_profile`` (the
``denominators`` table) and ``period_series_json`` (the series objects of the
``periods`` document).  ``SparseSeries.to_doc`` defines the canonical format;
``period_series_json`` writes the same bytes as ``to_json`` of
``period_series``, and the tests hold the two paths equal.

Both take one basis element and the family, and keep no state between calls,
so the rows of a table are independent: the command line splits a large
table's rows over forked child processes (``cli._map_rows``), which pickle
back only the rows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Dict, List, Sequence, Tuple

from hodgeloci import _coeff_kernel_py
from hodgeloci._value import Value
from hodgeloci.errors import NotIntegral
from hodgeloci.series import SparseSeries, grlex_key, monomials_upto

# denominator profiles trial-divide by every factor up to this bound
_TRIAL_BOUND = 10 ** 6

# -- elementary pieces --------------------------------------------------------


def pochhammer(x, y: int) -> Fraction:
    """Ascending product x(x+1)...(x+y-1); empty product is 1."""
    if y < 0:
        raise ValueError("Pochhammer length must be non-negative")
    x = Fraction(x)
    out = Fraction(1)
    for j in range(y):
        out *= x + j
    return out


def int_frac(r) -> Tuple[int, Fraction]:
    """Floor and fractional part of a rational; 0 <= frac < 1."""
    r = Fraction(r)
    fl = r.numerator // r.denominator
    return fl, r - fl


def pole_order(beta: Sequence[int], d: int) -> int:
    """The integer k = sum (beta_i + 1)/d, or NotIntegral."""
    if any(b < 0 for b in beta):
        raise ValueError("beta must be non-negative")
    total = sum(beta) + len(beta)
    k, rem = divmod(total, d)
    if rem != 0 or k <= 0:
        raise NotIntegral(f"sum (beta_i+1)/{d} = {Fraction(total, d)} is not a positive integer")
    return k


def fractional_pair_condition(beta_check: Sequence[int], d: int) -> bool:
    """True iff {(b_{2e}+1)/d} + {(b_{2e+1}+1)/d} = 1 for every consecutive pair."""
    for e in range(len(beta_check) // 2):
        if (beta_check[2 * e] + 1) % d + (beta_check[2 * e + 1] + 1) % d != d:
            return False
    return True


def coefficient_product(beta_check: Sequence[int], d: int) -> Fraction:
    """Product over slots of ({(b_i+1)/d}) raised by ascending Pochhammer to [(b_i+1)/d]."""
    out = Fraction(1)
    for b in beta_check:
        fl, fr = int_frac(Fraction(b + 1, d))
        out *= pochhammer(fr, fl)
    return out


def sign_exponent(beta_check: Sequence[int], d: int) -> int:
    """Sum of [(b_i+1)/d] over even slots i."""
    return sum((beta_check[i] + 1) // d for i in range(0, len(beta_check), 2))


# -- family data --------------------------------------------------------------


class FamilySpec(Value):
    """A Fermat deformation family: fiber dimension n (even), degree d,
    deformation monomials, and the total-degree truncation for t^a."""

    n: int
    d: int
    monomials: Tuple[Tuple[int, ...], ...]
    truncation: int

    def __init__(self, n, d, monomials, truncation):
        if n <= 0 or n % 2:
            raise ValueError("n must be a positive even integer")
        if d < 2:
            raise ValueError("d must be at least 2")
        if truncation < 0:
            raise ValueError("truncation must be non-negative")
        monomials = tuple(tuple(int(x) for x in a) for a in monomials)
        for a in monomials:
            if len(a) != n + 2:
                raise ValueError(f"monomial {a} does not have {n + 2} entries")
            if any(x < 0 for x in a):
                raise ValueError(f"monomial {a} has a negative exponent")
            if sum(a) != d:
                raise ValueError(f"monomial {a} does not have weight {d}")
        if len(set(monomials)) != len(monomials):
            raise ValueError("duplicate deformation monomials")
        self.__dict__.update(n=n, d=d, monomials=monomials, truncation=truncation)

    @property
    def nparams(self) -> int:
        return len(self.monomials)


class BetaIndex(Value):
    """A residue-class exponent vector together with its pole order."""

    beta: Tuple[int, ...]
    k: int

    @classmethod
    def make(cls, beta: Sequence[int], d: int) -> "BetaIndex":
        beta = tuple(int(b) for b in beta)
        return cls(beta, pole_order(beta, d))

    def monomial_str(self) -> str:
        parts = []
        for i, b in enumerate(self.beta):
            if b == 1:
                parts.append(f"x{i}")
            elif b > 1:
                parts.append(f"x{i}^{b}")
        return "*".join(parts) if parts else "1"


class PeriodSeries(Value):
    """Normalized period series of one basis form over a deformation family."""

    family: FamilySpec
    beta: BetaIndex
    series: SparseSeries
    normalization: str


class DenominatorProfile(Value):
    """lcm of coefficient denominators with its (possibly partial) factorization."""

    lcm: int
    factors: Tuple[Tuple[int, int], ...]  # (prime, exponent), ascending
    unfactored_cofactor: int

    def factorization_str(self) -> str:
        if self.lcm == 1:
            return "1"
        parts = [f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors]
        if self.unfactored_cofactor != 1:
            parts.append(f"cofactor:{self.unfactored_cofactor}")
        return " * ".join(parts)


# -- the engine ---------------------------------------------------------------


def normalization_text(n: int, d: int, k: int) -> str:
    """The scalar prefactor of a period of pole order k, as text."""
    return f"(-1)^{n // 2} * {d}^{n // 2 + 1} * {k - 1}! / (2*pi*i)^{n // 2}"


def period_coefficient(a: Sequence[int], beta: BetaIndex, family: FamilySpec) -> Fraction:
    """Coefficient of t^a, computed term-by-term from the closed formula.

    Zero when the fractional-pair condition fails for beta + sum a_alpha*alpha
    (which also covers slots where d divides b_i + 1).
    """
    if len(a) != family.nparams:
        raise ValueError("tuple length does not match the number of monomials")
    if any(x < 0 for x in a):
        raise ValueError("tuple entries must be non-negative")
    bcheck = list(beta.beta)
    afact = 1
    for v, alpha in zip(a, family.monomials):
        afact *= factorial(v)
        for j, x in enumerate(alpha):
            bcheck[j] += v * x
    if not fractional_pair_condition(bcheck, family.d):
        return Fraction(0)
    dcoef = coefficient_product(bcheck, family.d)
    sign = -1 if sign_exponent(bcheck, family.d) & 1 else 1
    return sign * dcoef / afact


def _kernel_terms(beta, family: FamilySpec):
    """The validated beta and the kernel's (a, num, den) list, in grlex order."""
    raw_beta = beta.beta if isinstance(beta, BetaIndex) else beta
    beta = BetaIndex.make(raw_beta, family.d)  # propagates NotIntegral
    if len(beta.beta) != family.n + 2:
        raise ValueError(f"beta {beta.beta} does not have {family.n + 2} entries")
    return beta, _coeff_kernel_py.coefficient_terms(beta.beta, family.d, family.monomials,
                                                    family.truncation)


def period_series(beta, family: FamilySpec) -> PeriodSeries:
    """All coefficients of t^a with total degree <= family.truncation."""
    beta, raw = _kernel_terms(beta, family)
    terms: Dict[Tuple[int, ...], Fraction] = {a: Fraction(num, den) for a, num, den in raw}
    series = SparseSeries._trusted(family.nparams, terms, family.truncation)
    return PeriodSeries(family, beta, series,
                        normalization_text(family.n, family.d, beta.k))


def period_denominator_profile(beta, family: FamilySpec) -> DenominatorProfile:
    """``denominator_profile(period_series(beta, family))``, taken straight from
    the kernel's integers without building Fractions or a series."""
    _, raw = _kernel_terms(beta, family)
    return _factor_lcm(lcm(*(den // gcd(num, den) for _, num, den in raw)), _TRIAL_BOUND)


def period_series_json(beta, family: FamilySpec) -> str:
    """``period_series(beta, family).series.to_json()``, written straight from
    the kernel's integers: each term is reduced by one gcd and formatted as
    ``{"e":[...],"c":"n/d"}`` in the kernel's graded-lex order."""
    _, raw = _kernel_terms(beta, family)
    term = '{"e":[' + ",".join(["%d"] * family.nparams) + '],"c":"%d/%d"}'
    terms = []
    for a, num, den in raw:
        g = gcd(num, den)
        terms.append(term % (*a, num // g, den // g))
    return (f'{{"nvars":{family.nparams},"truncation":{family.truncation},'
            f'"terms":[{",".join(terms)}]}}')


def quartic_full_family_series(truncation: int) -> SparseSeries:
    """Independent direct implementation of the quartic-surface case (n=2, d=4,
    beta=0) over the full set of 35 weight-4 monomials.

    Coded straight from the classical closed form: a term survives when no
    (a*_i + 1)/4 is an integer while the first and second coordinate pairs sum
    to integers, and its value is (-1)^{[r_0]+[r_2]} <r_0><r_1><r_2><r_3> / a!
    with r = (a* + 1)/4 and <r> the descending product (r-1)(r-2)...({r}).
    This path shares no code with the kernel-backed engine and is used to
    cross-check it.
    """
    monos = quartic_full_monomials()
    m = len(monos)

    def angle(r: Fraction) -> Fraction:
        out = Fraction(1)
        for j in range(1, r.numerator // r.denominator + 1):
            out *= r - j
        return out

    terms: Dict[Tuple[int, ...], Fraction] = {}
    a = [0] * m

    def descend(idx: int, rem: int, astar: Tuple[int, int, int, int], afact: int):
        if idx == m:
            r = [Fraction(astar[i] + 1, 4) for i in range(4)]
            if any(x.denominator == 1 for x in r):
                return
            if (r[0] + r[1]).denominator != 1 or (r[2] + r[3]).denominator != 1:
                return
            val = angle(r[0]) * angle(r[1]) * angle(r[2]) * angle(r[3]) / afact
            if (r[0].numerator // r[0].denominator + r[2].numerator // r[2].denominator) & 1:
                val = -val
            if val:
                terms[tuple(a)] = val
            return
        alpha = monos[idx]
        fact_v = 1
        for v in range(rem + 1):
            if v:
                fact_v *= v
            a[idx] = v
            descend(idx + 1, rem - v,
                    tuple(astar[j] + v * alpha[j] for j in range(4)), afact * fact_v)
        a[idx] = 0

    descend(0, truncation, (0, 0, 0, 0), 1)
    return SparseSeries(m, terms, truncation=truncation)


def quartic_full_monomials() -> Tuple[Tuple[int, ...], ...]:
    """All 35 exponent vectors of weight 4 in four variables, graded-lex order."""
    return tuple(e for e in monomials_upto(4, 4) if sum(e) == 4)


def griffiths_basis(d: int, n: int) -> List[BetaIndex]:
    """All beta with 0 <= beta_i <= d-2 and d | sum(beta_i + 1), sorted by
    pole order then graded-lex.  Sizes match the coefficients of
    prod (1 + z + ... + z^{d-2}) at exponents k*d - (n+2)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if n <= 0 or n % 2:
        raise ValueError("n must be a positive even integer")
    nv = n + 2
    out = [BetaIndex(beta, (sum(beta) + nv) // d)
           for beta in itertools.product(range(d - 1), repeat=nv)
           if (sum(beta) + nv) % d == 0]
    out.sort(key=lambda b: (b.k, grlex_key(b.beta)))
    return out


def denominator_profile(x, bound: int = _TRIAL_BOUND) -> DenominatorProfile:
    """lcm of all coefficient denominators, factored by trial division.

    A remainder above the bound that is too large to be certified prime is
    reported as the unfactored cofactor.
    """
    series = x.series if isinstance(x, PeriodSeries) else x
    return _factor_lcm(lcm(*(c.denominator for c in series.terms.values())), bound)


def _factor_lcm(total: int, bound: int) -> DenominatorProfile:
    """Profile of ``total``: trial division by every factor up to ``bound``."""
    rem = total
    factors = {}
    p = 2
    while p <= bound and p * p <= rem:
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
        p = 3 if p == 2 else p + 2
    cofactor = 1
    if rem > 1:
        # every factor <= min(bound, sqrt(rem)) is stripped, so rem is prime
        # unless it escaped past bound^2
        if rem <= bound * bound:
            factors[rem] = factors.get(rem, 0) + 1
        else:
            cofactor = rem
    return DenominatorProfile(total, tuple(sorted(factors.items())), cofactor)


def steenbrink_hodge_tate(d: int, weights: Sequence[int], n: int) -> bool:
    """Hodge-Tate criterion for a degree-d hypersurface in a weighted projective
    space with weights (1, v_1, ..., v_{n+1}): true iff n/2 <= sum(v_i)/d."""
    if n <= 0 or n % 2:
        raise ValueError("n must be a positive even integer")
    if d < 1:
        raise ValueError("d must be a positive integer")
    weights = [int(w) for w in weights]
    if len(weights) != n + 2:
        raise ValueError(f"expected {n + 2} weights")
    if weights[0] != 1:
        raise ValueError("the first weight must be 1")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    return Fraction(n, 2) <= Fraction(sum(weights[1:]), d)
