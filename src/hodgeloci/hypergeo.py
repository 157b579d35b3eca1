"""Gauss hypergeometric series, the purely-imaginary period ratio, and numeric
sampling of the degree-N isogeny locus.

For F(z) = 2F1(1/2, 1/2, 1 | z) and real t in (0, 1), the ratio
tau(t) = F(1-t)/F(t) is the imaginary part of the period ratio of the
associated elliptic curve; it decreases monotonically from +infinity to 0.
The locus function

    F(1 - t1) F(t2) - N F(1 - t2) F(t1)

vanishes exactly when tau(t1) = N * tau(t2).  Both directions are closed
forms (Borwein & Borwein, *Pi and the AGM*, 1987, ch. 1-2; DLMF 19.8 and
23.15): F(z) = 1/AGM(1, sqrt(1-z)), and the inverse of tau is the modular
lambda function, t = lambda(i*s) = (theta2(q)/theta3(q))^4 with q = e^{-pi s}.
The exact series ``hyp2f1`` is kept as the cross-check oracle, and
``eval_2f1`` sums any 2F1 in floats with the geometric tail bound
|next term| / (1 - z); no command calls either.  ``HypParams`` and ``hyp2f1``
import ``fractions`` only when called, so sampling the locus does not load it.
The value classes are ``hodgeloci._value.Value`` records.  ``locus_grid`` and
``locus_table`` are the bodies of the ``hypergeo-locus`` and
``hypergeo-witness`` commands.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from hodgeloci._value import Value
from hodgeloci.errors import OutOfDomain, TargetOutOfRange, report

if TYPE_CHECKING:
    from fractions import Fraction

DELTA = 0.01  # domain margin: t in [DELTA, 1 - DELTA]


class HypParams(Value):
    """Parameters (a, b, c) of a hypergeometric series; c must not be a
    non-positive integer."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a, b, c):
        from fractions import Fraction

        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if c.denominator == 1 and c <= 0:
            raise ValueError("c must not be a non-positive integer")
        self.__dict__.update(a=a, b=b, c=c)


class TruncSeries1D(Value):
    """Truncated one-variable series with exact rational coefficients."""

    coefficients: Tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def eval_float(self, z: float) -> float:
        total = 0.0
        zp = 1.0
        for c in self.coefficients:
            total += float(c) * zp
            zp *= z
        return total


def hyp2f1(params: HypParams, order: int) -> TruncSeries1D:
    """Exact truncated hypergeometric series via the term recurrence
    c_{n+1} = c_n (a+n)(b+n) / ((c+n)(n+1)), c_0 = 1."""
    from fractions import Fraction

    if order < 0:
        raise ValueError("order must be non-negative")
    a, b, c = params.a, params.b, params.c
    coeffs = [Fraction(1)]
    for n in range(order):
        coeffs.append(coeffs[-1] * (a + n) * (b + n) / ((c + n) * (n + 1)))
    return TruncSeries1D(tuple(coeffs))


def eval_2f1(params: HypParams, z: float, tol: float = 1e-12) -> float:
    """Adaptively truncated evaluation for 0 <= z < 1.

    Sums the term recurrence in floats and stops when the geometric tail
    bound |next term| / (1 - z) drops below tol; sound whenever the
    coefficients do not increase from there on, as for 2F1(1/2, 1/2, 1).
    """
    if not 0.0 <= z < 1.0:
        raise OutOfDomain(f"series evaluation needs 0 <= z < 1, got {z}")
    a, b, c = float(params.a), float(params.b), float(params.c)
    total = 0.0
    term = 1.0
    n = 0
    while True:
        total += term
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        n += 1
        if n > 8 and abs(term) / (1.0 - z) < tol:
            return total


def _agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive floats.  Convergence is
    quadratic: once the relative gap is below 1e-9, the next arithmetic mean
    is the limit to within about 1e-19 relative."""
    while abs(x - y) > 1e-9 * x:
        x, y = 0.5 * (x + y), math.sqrt(x * y)
    return 0.5 * (x + y)


def _lambda(s: float) -> float:
    """Modular lambda at i*s for s >= 1: (theta2(q)/theta3(q))^4 with
    q = e^{-pi s} <= e^{-pi}, where the first omitted term of either theta
    sum is below q^16 < 1e-21 relative."""
    q = math.exp(-math.pi * s)
    theta2 = 2.0 * q ** 0.25 * sum(q ** (n * (n + 1)) for n in range(4))
    theta3 = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 4))
    return (theta2 / theta3) ** 4


def tau_of_t(t: float) -> float:
    """Imaginary part of the period ratio on [DELTA, 1-DELTA]:
    F(1-t)/F(t) = AGM(1, sqrt(1-t)) / AGM(1, sqrt(t))."""
    if not DELTA <= t <= 1.0 - DELTA:
        raise OutOfDomain(f"t = {t} outside [{DELTA}, {1.0 - DELTA}]")
    return _agm(1.0, math.sqrt(1.0 - t)) / _agm(1.0, math.sqrt(t))


def invert_tau(s_target: float) -> float:
    """The t with tau(t) = s_target: the modular lambda at i*s_target, taken as
    1 - lambda(i/s_target) below 1 so that its theta series converge fast."""
    if s_target <= 0.0:
        raise TargetOutOfRange("the imaginary period ratio is positive")
    f_lo = tau_of_t(DELTA)
    f_hi = tau_of_t(1.0 - DELTA)
    if not f_hi <= s_target <= f_lo:
        raise TargetOutOfRange(
            f"target {s_target} outside attained range [{f_hi:.6g}, {f_lo:.6g}]")
    return _lambda(s_target) if s_target >= 1.0 else 1.0 - _lambda(1.0 / s_target)


def locus_function(t1: float, t2: float, n_iso: int) -> float:
    """F(1-t1) F(t2) - N F(1-t2) F(t1) with F(z) = 1/AGM(1, sqrt(1-z)), the
    defining function of the degree-N isogeny locus; each distinct argument is
    evaluated exactly once, so the N = 1 diagonal vanishes identically."""
    if not (DELTA <= t1 <= 1.0 - DELTA and DELTA <= t2 <= 1.0 - DELTA):
        raise OutOfDomain("arguments must lie in the margin interval")
    values: Dict[float, float] = {}
    for z in (1.0 - t1, t2, 1.0 - t2, t1):
        if z not in values:
            values[z] = 1.0 / _agm(1.0, math.sqrt(1.0 - z))
    return values[1.0 - t1] * values[t2] - n_iso * values[1.0 - t2] * values[t1]


class LocusSample(Value):
    """Numerically sampled points of the degree-N isogeny locus."""

    n_iso: int
    points: Tuple[Tuple[float, float, float], ...]  # (t1, t2, residual)
    skipped: Tuple[float, ...]
    tol: float

    @property
    def flagged(self) -> Tuple[Tuple[float, float, float], ...]:
        return tuple(p for p in self.points if p[2] >= self.tol)


def sample_locus(n_iso: int, t1_grid: Sequence[float], tol: float = 1e-8) -> LocusSample:
    """For each grid point t1, solve tau(t2) = tau(t1)/N and record the
    residual of the locus function; out-of-range targets are skipped.  Points
    whose residual is not below tol are reported by ``flagged``."""
    if n_iso < 1:
        raise ValueError("the isogeny degree must be a positive integer")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    points = []
    skipped = []
    for t1 in t1_grid:
        target = tau_of_t(t1) / n_iso
        try:
            t2 = invert_tau(target)
        except TargetOutOfRange:
            skipped.append(t1)
            continue
        resid = abs(locus_function(t1, t2, n_iso))
        points.append((t1, t2, resid))
    return LocusSample(n_iso, tuple(points), tuple(skipped), tol)


def locus_grid(points: int) -> List[float]:
    """``points`` evenly spaced t1 values from 0.05 to 0.95; one point is 0.5."""
    if points < 1:
        raise ValueError("grid must have at least one point")
    lo, hi = 0.05, 0.95
    if points == 1:
        return [0.5]
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


def locus_table(n_iso: int, t1_grid: Sequence[float], tol: float) -> Tuple[str, int]:
    """The sampled locus as CSV rows, then one comment per skipped t1.  Exit
    code 1 (UNKNOWN) when a residual is not below the tolerance, naming each
    such point on stderr; 0 otherwise."""
    sample = sample_locus(n_iso, t1_grid, tol=tol)
    lines = ["t1,t2,residual"]
    lines += [f"{t1:.12g},{t2:.12g},{r:.3e}" for t1, t2, r in sample.points]
    lines += [f"# skipped: t1={t1:.12g} (target ratio out of range)" for t1 in sample.skipped]
    for t1, _, r in sample.flagged:
        report(f"unknown: t1={t1:.12g} has residual {r:.3e}, not below tol {tol:g}\n")
    return "".join(l + "\n" for l in lines), 1 if sample.flagged else 0
