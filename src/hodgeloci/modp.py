"""Reduction of exact polynomials modulo a prime.

A polynomial over GF(p) is a ``SparseSeries`` with ``p`` set.  ``ModPoly``
is the shorthand constructor of one; it keeps the name of the class it
replaced, which tests and ``perfbench/tracer.py`` still look up.
"""

from __future__ import annotations

from math import isqrt

from hodgeloci.series import SparseSeries


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def ModPoly(p: int, nvars: int, terms=None) -> SparseSeries:
    """The polynomial over GF(p) with the given terms, each coefficient reduced."""
    return SparseSeries(nvars, terms, p=p)


def mod_reduce(f: SparseSeries, p: int) -> SparseSeries:
    """Coefficientwise reduction of an exact polynomial modulo a prime.

    Raises DenominatorDivisibleByP when a coefficient is not p-integral.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.truncation is not None:
        raise ValueError("mod-p reduction is defined for exact polynomials only")
    return SparseSeries(f.nvars, f.terms, p=p)
