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
pass the pair condition.  ``coefficient_terms`` returns integer (numerator,
denominator) pairs already in graded-lexicographic order, so the engine adds no
sort and no re-validation on top of it; ``denominator_lcm`` returns only the
lcm of the reduced denominators, from the same walk.

The two tables run the kernel once per symmetry orbit of their rows.  Let
sigma permute the coordinate pairs (slot 2e -> 2pi(e), slot 2e+1 ->
2pi(e)+1) and map the monomial set I onto itself, inducing tau on the
monomial indices (``pair_symmetries``).  The coefficient depends on
b = beta + sum a_alpha alpha only through the pair test applied to each pair,
the product of the Pochhammer factors over all slots, the even-slot sum E and
a!.  sigma keeps each of them, so coef(sigma beta, tau a) = coef(beta, a)
exactly: the series of sigma beta is the series of beta with its exponent
tuples permuted, and its denominator profile is the same.  Swaps inside a
pair are left out: they exchange even and odd slots, and swapping inside
every pair multiplies a term by (-1)^{k+|a|-(n+2)/2}.  ``beta_orbits`` groups
a table's rows (duplicates included) into orbits, and rejects a beta of the
wrong length, so that every input error is raised before any row runs.

``orbit_denominator_profiles`` (the ``denominators`` table) and
``orbit_series_json`` (the series objects of the ``periods`` document) give
every row of one orbit from one kernel run, with no ``Fraction`` and no
``SparseSeries`` in between: the first from the kernel's lcm pass, which
builds no term at all, the second from its terms' integers.  They equal
``denominator_profile(period_series(...))`` and
``period_series(...).series.to_json(family.truncation)`` row by row, and the
tests hold them equal; ``SparseSeries.to_doc`` defines the canonical format.
So the table commands work on ints only, and this module imports ``fractions``
and ``hodgeloci.series`` only inside the reference functions that use them
(``period_series``, ``period_coefficient``, ``quartic_full_family_series``,
...).  The orbits are independent, so a large table computes them all in this
process and forked children together, and then writes its rows in row order;
a smaller one computes them here and writes each row as soon as it and every
earlier row are done (``_write_rows``).

The bodies of the table commands (``periods``, ``denominators``,
``griffiths``) are here too, from a parsed config to the output stream:
``write_denominator_table``, ``write_periods_document`` and
``griffiths_table``.
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
from math import comb, factorial, gcd, lcm
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from hodgeloci import _coeff_kernel_py
from hodgeloci._value import Value
from hodgeloci.errors import NotIntegral, ResourceLimit, WorkerFailed

if TYPE_CHECKING:  # the table commands run on ints only: see the module docstring
    from fractions import Fraction

    from hodgeloci.series import SparseSeries

# denominator profiles trial-divide by every factor up to this bound
_TRIAL_BOUND = 10 ** 6
# pair_symmetries tries at most this many pair permutations: all of them for up
# to six pairs (n <= 10); a symmetry it does not try only costs kernel runs
_PAIR_PERMUTATIONS = 720

# -- elementary pieces --------------------------------------------------------


def pochhammer(x, y: int) -> Fraction:
    """Ascending product x(x+1)...(x+y-1); empty product is 1."""
    from fractions import Fraction

    if y < 0:
        raise ValueError("Pochhammer length must be non-negative")
    x = Fraction(x)
    out = Fraction(1)
    for j in range(y):
        out *= x + j
    return out


def int_frac(r) -> Tuple[int, Fraction]:
    """Floor and fractional part of a rational; 0 <= frac < 1."""
    from fractions import Fraction

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
        from fractions import Fraction

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
    from fractions import Fraction

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
    from fractions import Fraction

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


def _checked_beta(beta, family: FamilySpec) -> BetaIndex:
    """``beta`` (a BetaIndex or a tuple) validated for ``family``."""
    raw_beta = beta.beta if isinstance(beta, BetaIndex) else beta
    beta = BetaIndex.make(raw_beta, family.d)  # propagates NotIntegral
    if len(beta.beta) != family.n + 2:
        raise ValueError(f"beta {beta.beta} does not have {family.n + 2} entries")
    return beta


def _kernel_terms(beta, family: FamilySpec):
    """The validated beta and the kernel's (a, num, den) list, in grlex order."""
    beta = _checked_beta(beta, family)
    return beta, _coeff_kernel_py.coefficient_terms(beta.beta, family.d, family.monomials,
                                                    family.truncation)


def period_series(beta, family: FamilySpec) -> PeriodSeries:
    """All coefficients of t^a with total degree <= family.truncation."""
    from fractions import Fraction

    from hodgeloci.series import SparseSeries

    beta, raw = _kernel_terms(beta, family)
    terms: Dict[Tuple[int, ...], Fraction] = {a: Fraction(num, den) for a, num, den in raw}
    series = SparseSeries._trusted(family.nparams, terms)
    return PeriodSeries(family, beta, series,
                        normalization_text(family.n, family.d, beta.k))


def _series_doc(family: FamilySpec, terms: List[str]) -> str:
    return (f'{{"nvars":{family.nparams},"truncation":{family.truncation},'
            f'"terms":[{",".join(terms)}]}}')


# -- one kernel run per symmetry orbit ----------------------------------------


def pair_symmetries(family: FamilySpec
                    ) -> List[Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]]:
    """The permutations sigma of the coordinate pairs that map the family's
    monomial set onto itself, the identity first, out of the first
    ``_PAIR_PERMUTATIONS`` pair permutations.  Each is ``(slots, gather)``:
    entry j of sigma(beta) is ``beta[slots[j]]``, and entry i of the exponent
    tuple tau(a) is ``a[gather[i]]``; ``gather`` is ``None`` when sigma fixes
    every monomial."""
    mons = family.monomials
    index = {alpha: i for i, alpha in enumerate(mons)}
    out = []
    for pairs in itertools.islice(itertools.permutations(range(family.n // 2 + 1)),
                                  _PAIR_PERMUTATIONS):
        slots = tuple(2 * p + k for p in pairs for k in (0, 1))
        # sigma sends monomial i to monomial tau[i], so entry tau[i] of tau(a) is a[i]
        tau = [index.get(tuple(alpha[j] for j in slots)) for alpha in mons]
        if None in tau:
            continue
        gather = [0] * len(mons)
        for i, t in enumerate(tau):
            gather[t] = i
        out.append((slots, None if tau == sorted(tau) else tuple(gather)))
    return out


class BetaOrbit(Value):
    """Rows of a table that one kernel run gives: row ``rows[i]`` of the table
    is ``beta`` under a pair symmetry whose monomial ``gather`` is
    ``gathers[i]`` (``None`` for the identity; ``pair_symmetries``)."""

    beta: BetaIndex
    rows: Tuple[int, ...]
    gathers: Tuple[Optional[Tuple[int, ...]], ...]


def beta_orbits(betas: Sequence[BetaIndex], family: FamilySpec) -> List[BetaOrbit]:
    """The rows of ``betas`` grouped into orbits of the family's pair
    symmetries, ordered by their first row, which is each orbit's ``beta``.
    Before any kernel run, raises ``ValueError`` for the first beta that does
    not have ``n + 2`` entries, and ``ResourceLimit`` for the first whose
    kernel tables, ``(sum(beta) + n + 2) // d + truncation + 1`` entries long,
    could not be indexed; that names the truncation or the beta, whichever
    adds more to the length."""
    nv = family.n + 2
    for b in betas:
        if len(b.beta) != nv:
            raise ValueError(f"beta {b.beta} does not have {nv} entries")
        q = (sum(b.beta) + nv) // family.d
        if q + family.truncation + 1 > sys.maxsize:
            field = (f"truncation {family.truncation}" if family.truncation >= q
                     else f"beta {b.beta}")
            raise ResourceLimit(f"{field} needs kernel tables of {q + family.truncation + 1} "
                                f"entries, more than a list can hold ({sys.maxsize})")
    symmetries = pair_symmetries(family)
    orbits = []  # [beta, rows, gathers] of each orbit
    images = {}  # sigma(beta) of each orbit's beta -> (that orbit, sigma's gather)
    for row, b in enumerate(betas):
        if b.beta in images:
            orbit, gather = images[b.beta]
            orbit[1].append(row)
            orbit[2].append(gather)
            continue
        orbit = [b, [row], [None]]
        orbits.append(orbit)
        for slots, gather in symmetries:
            images.setdefault(tuple(b.beta[j] for j in slots), (orbit, gather))
    return [BetaOrbit(b, tuple(rows), tuple(gathers)) for b, rows, gathers in orbits]


def orbit_denominator_profiles(orbit: BetaOrbit, family: FamilySpec) -> List[DenominatorProfile]:
    """``denominator_profile(period_series(beta, family))`` of each row of
    ``orbit``, from one run of the kernel's lcm pass
    (``_coeff_kernel_py.denominator_lcm``), which builds no term, no Fraction
    and no series: a pair symmetry keeps every coefficient, so the rows share a
    profile."""
    beta = _checked_beta(orbit.beta, family)
    total = _coeff_kernel_py.denominator_lcm(beta.beta, family.d, family.monomials,
                                             family.truncation)
    return [_factor_lcm(total, _TRIAL_BOUND)] * len(orbit.rows)


def orbit_series_json(orbit: BetaOrbit, family: FamilySpec) -> List[str]:
    """``period_series(beta, family).series.to_json(family.truncation)`` of
    each row of ``orbit``, from one kernel run: each term is reduced by one gcd
    and formatted as ``{"e":[...],"c":"n/d"}``.

    An orbit whose rows are all its ``beta`` (no symmetry moves it, or it is
    listed more than once) is written once, one format per term, in the
    kernel's graded-lex order.  Otherwise a row under a pair symmetry has the
    same terms with every exponent tuple gathered; that keeps the total
    degree, so only each degree block of the kernel's order is sorted again."""
    _, raw = _kernel_terms(orbit.beta, family)
    head = '{"e":[' + ",".join(["%d"] * family.nparams)
    if all(gather is None for gather in orbit.gathers):
        term = head + '],"c":"%d/%d"}'
        texts = []
        for a, num, den in raw:
            g = gcd(num, den)
            texts.append(term % (*a, num // g, den // g))
        return [_series_doc(family, texts)] * len(orbit.rows)
    terms = []  # (a, the end of a's JSON object, from its coefficient on)
    for a, num, den in raw:
        g = gcd(num, den)
        terms.append((a, '],"c":"%d/%d"}' % (num // g, den // g)))
    out = []
    for gather in orbit.gathers:
        moved = terms
        if gather is not None:
            take = itemgetter(*gather)
            moved = []
            for _, block in itertools.groupby(terms, lambda t: sum(t[0])):
                moved += sorted([(take(a), text) for a, text in block])
        out.append(_series_doc(family, [head % a + text for a, text in moved]))
    return out


def quartic_full_family_series(truncation: int) -> SparseSeries:
    """Independent direct implementation of the quartic-surface case (n=2, d=4,
    beta=0) over the full set of 35 weight-4 monomials: the terms of total
    degree <= ``truncation``.

    Coded straight from the classical closed form: a term survives when no
    (a*_i + 1)/4 is an integer while the first and second coordinate pairs sum
    to integers, and its value is (-1)^{[r_0]+[r_2]} <r_0><r_1><r_2><r_3> / a!
    with r = (a* + 1)/4 and <r> the descending product (r-1)(r-2)...({r}).
    This path shares no code with the kernel-backed engine and is used to
    cross-check it.
    """
    from fractions import Fraction

    from hodgeloci.series import SparseSeries

    if truncation < 0:
        raise ValueError("truncation must be non-negative")
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
    return SparseSeries(m, terms)


def quartic_full_monomials() -> Tuple[Tuple[int, ...], ...]:
    """All 35 exponent vectors of weight 4 in four variables, graded-lex order."""
    from hodgeloci.series import monomials_upto

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
    out.sort(key=lambda b: (b.k, sum(b.beta), b.beta))
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
    return n * d <= 2 * sum(weights[1:])  # n/2 <= sum/d, with d > 0


# -- the table commands: from a parsed config to the output stream --------------


def _config_int(value, field: str) -> int:
    """A config number, which must be a JSON integer: a float such as 4.0, a
    string or a boolean is rejected rather than converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        import json

        raise ValueError(f'config field "{field}": expected a JSON integer, '
                         f'got {json.dumps(value)}')
    return value


def _config_array(value, field: str, of: str = "integers") -> Sequence:
    """A config array of ``of``, which must be a JSON array (or a tuple, from a
    caller that builds the config): anything else is rejected with the field's
    name rather than failing on iteration."""
    if not isinstance(value, (list, tuple)):
        import json

        raise ValueError(f'config field "{field}": expected a JSON array of {of}, '
                         f'got {json.dumps(value)}')
    return value


def family_from_config(cfg: Mapping) -> FamilySpec:
    """The family of a config: a JSON object with integer fields ``n``, ``d``
    and ``truncation`` and the monomial array ``I``."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    try:
        return FamilySpec(
            n=_config_int(cfg["n"], "n"), d=_config_int(cfg["d"], "d"),
            monomials=tuple(tuple(_config_int(x, "I") for x in _config_array(a, "I"))
                            for a in _config_array(cfg["I"], "I", "exponent vectors")),
            truncation=_config_int(cfg["truncation"], "truncation"))
    except KeyError as exc:
        raise ValueError(f"config is missing field {exc.args[0]!r}") from None


def betas_from_config(cfg: Mapping, fam: FamilySpec) -> List[BetaIndex]:
    """A config's rows: its ``beta`` field, ``"griffiths"`` (the default) or
    a list of exponent vectors."""
    beta = cfg.get("beta", "griffiths")
    if beta == "griffiths":
        return griffiths_basis(fam.d, fam.n)
    if not isinstance(beta, list):
        raise ValueError('config field "beta" must be "griffiths" or a list of exponent vectors')
    return [BetaIndex.make([_config_int(x, "beta") for x in _config_array(b, "beta")], fam.d)
            for b in beta]


# A table whose kernel runs enumerate at least this many tuples, counted as
# orbits x C(truncation + m, m) (one run per symmetry orbit of its rows), splits
# its orbits over this process and forked children, which cost a few ms to
# fork, feed and reap.  No one cut fits both commands, so this one stands: on
# the quartic table the split pays for periods at D=30 and for both commands
# at D=40, while at D=30 denominators, whose orbits cost less, is about even
# with serial, and at D=12-20 the split was slower than serial for both
# (BENCH_26.json, break_even; BENCH_30.json, split_vs_serial).
_POOL_TUPLES = 50_000


def _write_rows(out, fn, betas: Sequence[BetaIndex], fam: FamilySpec, head: str,
                tail: str) -> None:
    """Write ``head``, the text of every row of ``betas`` in row order, then
    ``tail`` to the text stream ``out``.  ``fn(orbit, fam)`` gives the texts
    of the rows of one symmetry orbit of the betas (``beta_orbits``), in the
    orbit's row order.  The orbits are split over this process and
    ``cpus - 1`` forked children, where ``cpus`` counts the CPUs this process
    may run on (``os.sched_getaffinity``; 1 where it does not exist), at most
    one process per orbit, when there are at least two of each and their
    kernel runs enumerate at least ``_POOL_TUPLES`` tuples; each process takes
    the next orbit from one shared job file whenever it is free, and the
    table is written once every orbit is done (``_rowsplit.split_rows``).
    Otherwise they are computed in this process, and each row is written as
    soon as it and every earlier row are done.  The output is the same either
    way.  The rows run with the cyclic GC off, here and in the children,
    which inherit that: they make no reference cycles, and its collections,
    triggered by the kernel's many tuples, found nothing to free.  The
    caller's GC state is restored on every path.  Every input error, such as
    a beta of the wrong length, is raised by ``beta_orbits`` before any row
    runs, any child starts or any byte is written, so a row that raises is a
    fault, ``WorkerFailed`` (exit 4), in this process or a child alike.
    """
    orbits = beta_orbits(betas, fam)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(orbits))
    tuples = len(orbits) * comb(fam.truncation + fam.nparams, fam.nparams)

    def texts(index: int) -> List[str]:
        try:
            return fn(orbits[index], fam)
        except Exception as exc:
            raise WorkerFailed(f"orbit {index + 1} of {len(orbits)} raised "
                               f"{type(exc).__name__}: {exc}") from exc

    collecting = gc.isenabled()
    gc.disable()  # forked children inherit this
    try:
        if workers < 2 or tuples < _POOL_TUPLES:
            out.write(head)
            done = {}  # row -> text of a row that waits for an earlier one
            row = 0
            for index, orbit in enumerate(orbits):
                done.update(zip(orbit.rows, texts(index)))
                while row in done:
                    out.write(done.pop(row))
                    row += 1
        else:
            from hodgeloci._rowsplit import split_rows

            split_rows(texts, orbits, workers, out, head)
        out.write(tail)
    finally:
        if collecting:
            gc.enable()


def write_denominator_table(config: Mapping, out) -> None:
    """Write the ``denominators`` table of a config to ``out``: one row per
    basis element, with its rendered monomial, lcm and factorization.  The
    rows come from ``_write_rows``, one kernel run per symmetry orbit; the
    text is the same with the row split or without, and byte-stable across
    runs."""
    fam = family_from_config(config)
    betas = betas_from_config(config, fam)

    def rows(orbit: BetaOrbit, fam: FamilySpec) -> List[str]:
        return [f"{betas[row].monomial_str()},{prof.lcm},{prof.factorization_str()}\n"
                for row, prof in zip(orbit.rows, orbit_denominator_profiles(orbit, fam))]

    _write_rows(out, rows, betas, fam, "monomial,lcm,factorization\n", "")


def write_periods_document(config: Mapping, out) -> None:
    """Write the ``periods`` document of a config to ``out``: the family, then
    one result per row, each holding its series object
    (``orbit_series_json``) as its last key; rows are written as in
    ``write_denominator_table``."""
    import json

    fam = family_from_config(config)
    family = {"n": fam.n, "d": fam.d, "I": [list(a) for a in fam.monomials],
              "truncation": fam.truncation}
    betas = betas_from_config(config, fam)

    def rows(orbit: BetaOrbit, fam: FamilySpec) -> List[str]:
        texts = []
        for row, series in zip(orbit.rows, orbit_series_json(orbit, fam)):
            b = betas[row]
            head = json.dumps({"beta": list(b.beta), "k": b.k, "monomial": b.monomial_str(),
                               "normalization": normalization_text(fam.n, fam.d, b.k)},
                              separators=(",", ":"))
            texts.append(f'{"," if row else ""}{head[:-1]},"series":{series}}}')
        return texts

    family_json = json.dumps(family, separators=(",", ":"))
    _write_rows(out, rows, betas, fam, f'{{"family":{family_json},"results":[', "]}\n")


def griffiths_table(d: int, n: int) -> str:
    """The ``griffiths`` table: one ``beta,k,monomial`` row per basis element."""
    rows = ["beta,k,monomial"]
    for b in griffiths_basis(d, n):
        rows.append(f"{' '.join(map(str, b.beta))},{b.k},{b.monomial_str()}")
    return "".join(r + "\n" for r in rows)
