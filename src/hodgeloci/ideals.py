"""Degree-bounded ideal membership, and the tangency check built on it.

An ideal is an ``IdealGens``, a list of generators; it is defined in
``oneforms`` (``ideals.IdealGens`` names the same class), so that ``sch``,
which only lists generators, loads neither this module nor ``linalg``.

Membership is decided by exact linear algebra on monomial coefficients with
cofactor degrees capped by the caller, so a positive answer is a certificate
(YES) while failure of the bounded search is only UNKNOWN, never a disproof.
Each YES is checked by multiplying the cofactors back (InternalCheckFailed
when they do not give the polynomial).  The system depends only on the
generators, the cofactor degree and the row degree, so
``ideal_memberships_bounded`` decides several polynomials from one
elimination, each its own right-hand side; ``tangency_check`` asks it about
every contraction at once.  ``duals`` computes degree-bounded generating
sets of the annihilator of a list of 1-forms by the same reduction.

Each system is sparse, one ``{column: value}`` row per monomial up to the row
degree, and is filled column by column from the generators' terms: column
(g, m) holds the coefficients of g * x^m, and every entry no such product
reaches is absent (zero).  ``linalg`` eliminates on those rows directly.

Polynomials are ``SparseSeries`` over Q or over GF(p) (``p`` set), and the
system is solved in that field.  All inputs of one call must share it;
mixing fields raises ``ValueError``.

``tangency_problem`` parses the field, 1-forms and ideal of the ``tangency``
and ``pcurvature`` command lines, after ``check_degree_bound`` has accepted
their ``--deg``, and ``tangency_output`` is the body of ``tangency``.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from hodgeloci import linalg
from hodgeloci.errors import InternalCheckFailed
from hodgeloci.oneforms import IdealGens, OneForm, VectorField
from hodgeloci.series import SparseSeries, monomials_upto

YES = "YES"
UNKNOWN = "UNKNOWN"


def _field_of(polys) -> Optional[int]:
    """The shared coefficient field: None for Q, p for GF(p)."""
    fields = {f.p for f in polys}
    if len(fields) > 1:
        raise ValueError("mod-p ring mismatch")
    return fields.pop() if fields else None


def _product_rows(row_index: Dict[Tuple[int, ...], int],
                  cols: Sequence[Tuple[Mapping, Tuple[int, ...]]]) -> List[dict]:
    """Sparse rows, one ``{column: value}`` dict per monomial of ``row_index``
    ({monomial: row}), whose column k holds the coefficients of g * x^m for
    ``(g_terms, m) = cols[k]``; every other entry is absent.

    Each column is filled from the terms of g alone.  Every product x^(e+m)
    is a row monomial: exponents are non-negative, and callers take the row
    degree at least the cofactor degree of m plus the degree of g.
    """
    rows = [{} for _ in range(len(row_index))]
    for k, (g_terms, m) in enumerate(cols):
        for e, c in g_terms.items():
            rows[row_index[tuple(map(add, e, m))]][k] = c
    return rows


def _reject_laurent(polys):
    for f in polys:
        for e in f.terms:
            if any(x < 0 for x in e):
                raise ValueError("degree-bounded search does not support Laurent exponents")


def check_degree_bound(deg: int) -> None:
    """Raise ValueError on a negative cofactor degree bound."""
    if deg < 0:
        raise ValueError("degree bound must be non-negative")


def ideal_membership_bounded(f, gens: IdealGens, deg: int) -> str:
    """YES iff f = sum c_i g_i has a solution with cofactor degrees <= deg."""
    return ideal_memberships_bounded([f], gens, deg)[0]


def ideal_memberships_bounded(fs: Sequence, gens: IdealGens, deg: int) -> List[str]:
    """``ideal_membership_bounded`` of each polynomial in ``fs``, from one
    elimination of the system whose row degree is the largest any of them
    needs: each nonzero f is its own right-hand side."""
    check_degree_bound(deg)
    if gens.is_zero_ideal:
        return [YES if f.is_zero() else UNKNOWN for f in fs]
    asked = [f for f in fs if not f.is_zero()]
    if not asked:
        return [YES] * len(fs)
    _reject_laurent([*asked, *gens.gens])
    nv = asked[0].nvars
    p = _field_of([*asked, *gens.gens])
    rowdeg = max(max(f.degree() for f in asked), deg + gens.max_degree())
    row_index = {rm: r for r, rm in enumerate(monomials_upto(nv, rowdeg))}
    monos = monomials_upto(nv, deg)
    cols = [(g.terms, m) for g in gens.gens for m in monos]
    rhss = [{row_index[e]: c for e, c in f.terms.items()} for f in asked]
    sols = iter(linalg.solve_many(_product_rows(row_index, cols), len(cols), rhss, p=p))
    verdicts = []
    for f in fs:
        if f.is_zero():
            verdicts.append(YES)
            continue
        sol = next(sols)
        if sol is None:
            verdicts.append(UNKNOWN)
            continue
        # the certificate: the cofactors times the generators must give f back
        total = f.ring_zero()
        for gi, g in enumerate(gens.gens):
            coeffs = zip(monos, sol[gi * len(monos):])
            cofactor = SparseSeries._trusted(nv, {m: x for m, x in coeffs if x}, g.laurent, p)
            total = total + cofactor * g
        if total != f:
            raise InternalCheckFailed("the cofactors of a YES do not reproduce the polynomial")
        verdicts.append(YES)
    return verdicts


def tangency_check(v: VectorField, omega_gens: Sequence[OneForm],
                   ibar: IdealGens, deg: int) -> str:
    """YES iff every contraction omega(v) lies in the ideal within the degree
    bound, all decided from one elimination; a zero ideal means every
    contraction must vanish identically."""
    for w in omega_gens:
        if w.ctx != v.ctx:
            raise ValueError("context mismatch")
    contractions = [w.contract(v) for w in omega_gens]
    if ibar is None or ibar.is_zero_ideal:
        return YES if all(c.is_zero() for c in contractions) else UNKNOWN
    verdicts = ideal_memberships_bounded(contractions, ibar, deg)
    return YES if all(x == YES for x in verdicts) else UNKNOWN


def tangency_problem(names: str, field: str, omegas: Sequence[str], ideal: Optional[Sequence[str]]
                     ) -> Tuple[VectorField, List[OneForm], IdealGens]:
    """The vector field, 1-forms and ideal generators of a tangency question,
    parsed from expressions over the comma-separated variable ``names``."""
    from hodgeloci import exprparse

    ctx = exprparse.parse_context(names)
    v = exprparse.parse_field(field, ctx)
    ws = [exprparse.parse_oneform(e, ctx) for e in omegas]
    gens = tuple(exprparse.parse_poly(e, ctx) for e in (ideal or []))
    return v, ws, IdealGens(ctx, gens)


def verdict_output(verdict: str) -> Tuple[str, int]:
    """A verdict line and its exit code: 0 for YES, 1 for UNKNOWN."""
    return verdict + "\n", 0 if verdict == YES else 1


def tangency_output(names: str, field: str, omegas: Sequence[str],
                    ideal: Optional[Sequence[str]], deg: int) -> Tuple[str, int]:
    """The ``tangency`` command: ``tangency_check`` on the parsed question."""
    check_degree_bound(deg)
    return verdict_output(tangency_check(*tangency_problem(names, field, omegas, ideal), deg))
