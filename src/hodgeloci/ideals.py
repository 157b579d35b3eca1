"""Degree-bounded ideal membership and bounded duals of 1-form modules.

Membership is decided by exact linear algebra on monomial coefficients with
cofactor degrees capped by the caller, so a positive answer is a certificate
(YES) while failure of the bounded search is only UNKNOWN, never a disproof.
The same linear-algebra reduction computes degree-bounded generating sets of
the annihilator of a list of 1-forms, optionally relative to an ideal.

Each system is sparse, one ``{column: value}`` row per monomial up to the row
degree, and is filled column by column from the generators' terms: column
(g, m) holds the coefficients of g * x^m, and every entry no such product
reaches is absent (zero).  ``linalg`` eliminates on those rows directly.

Polynomials are ``SparseSeries`` over Q or over GF(p) (``p`` set), and the
system is solved in that field.  All inputs of one call must share it;
mixing fields raises ``ValueError``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from hodgeloci import linalg
from hodgeloci._value import Value
from hodgeloci.forms import OneForm, PolyContext, VectorField
from hodgeloci.series import SparseSeries, monomials_upto

YES = "YES"
UNKNOWN = "UNKNOWN"


class IdealGens(Value):
    """A finite list of nonzero polynomial generators of an ideal."""

    ctx: PolyContext
    gens: Tuple[object, ...]

    def __init__(self, ctx, gens):
        self.__dict__.update(ctx=ctx, gens=tuple(g for g in gens if not g.is_zero()))

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def max_degree(self) -> int:
        return max((g.degree() for g in self.gens), default=0)


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
            rows[row_index[tuple(x + y for x, y in zip(e, m))]][k] = c
    return rows


def _reject_laurent(polys):
    for f in polys:
        for e in f.terms:
            if any(x < 0 for x in e):
                raise ValueError("degree-bounded search does not support Laurent exponents")


def ideal_membership_bounded(f, gens: IdealGens, deg: int) -> str:
    """YES iff f = sum c_i g_i has a solution with cofactor degrees <= deg."""
    if deg < 0:
        raise ValueError("degree bound must be non-negative")
    if gens.is_zero_ideal:
        return YES if f.is_zero() else UNKNOWN
    if f.is_zero():
        return YES
    _reject_laurent([f, *gens.gens])
    nv = f.nvars
    p = _field_of([f, *gens.gens])
    rowdeg = max(f.degree(), deg + gens.max_degree())
    row_index = {rm: r for r, rm in enumerate(monomials_upto(nv, rowdeg))}
    cols = [(g.terms, m) for g in gens.gens for m in monomials_upto(nv, deg)]
    b = {row_index[e]: c for e, c in f.terms.items()}
    sol = linalg.solve(_product_rows(row_index, cols), len(cols), b, p=p)
    return YES if sol is not None else UNKNOWN


def dual_theta_bounded(omega_gens: Sequence[OneForm], deg: Optional[int] = None,
                       ibar: Optional[IdealGens] = None,
                       cofactor_deg: Optional[int] = None) -> List[VectorField]:
    """Degree-bounded generating set of the fields annihilating every listed
    1-form — or, when ``ibar`` is given, contracting into that ideal.

    Unknown field components of degree <= deg (default: twice the maximal
    generator degree) and, with ibar, unknown ideal cofactors of degree
    <= cofactor_deg make a homogeneous linear system on monomial
    coefficients; the nullspace, projected to the field unknowns and
    reduced, is returned as vector fields.
    """
    if not omega_gens:
        raise ValueError("need at least one 1-form generator")
    ctx = omega_gens[0].ctx
    if any(w.ctx != ctx for w in omega_gens):
        raise ValueError("context mismatch")
    if deg is None:
        deg = 2 * max(1, max(c.degree() for w in omega_gens for c in w.comps))
    nv = ctx.nvars
    all_polys = [c for w in omega_gens for c in w.comps]
    ideal_gens: Tuple = ()
    if ibar is not None and not ibar.is_zero_ideal:
        ideal_gens = ibar.gens
        all_polys += list(ideal_gens)
    p = _field_of(all_polys)
    if p is None:
        _reject_laurent(all_polys)

    omega_deg = max((c.degree() for w in omega_gens for c in w.comps), default=0)
    if cofactor_deg is None:
        cofactor_deg = deg + omega_deg
    v_monos = monomials_upto(nv, deg)
    v_cols = [(i, m) for i in range(nv) for m in v_monos]
    cof_monos = monomials_upto(nv, cofactor_deg) if ideal_gens else []
    # the cofactor columns of 1-form wi: -g_j * x^m, nonzero only in block wi
    h_cols = [({e: -c for e, c in g.terms.items()}, m) for g in ideal_gens for m in cof_monos]
    no_h_cols = [({}, m) for _, m in h_cols]

    rowdeg = deg + omega_deg
    if ideal_gens:
        rowdeg = max(rowdeg, cofactor_deg + max(g.degree() for g in ideal_gens))
    row_index = {rm: r for r, rm in enumerate(monomials_upto(nv, rowdeg))}

    rows = []
    for wi, w in enumerate(omega_gens):
        cols = [(w.comps[i].terms, m) for i, m in v_cols]
        for other in range(len(omega_gens)):
            cols += h_cols if other == wi else no_h_cols
        rows += _product_rows(row_index, cols)

    null = linalg.nullspace(rows, len(cols), p=p)
    nval = len(v_cols)
    v_parts = [{j: x for j, x in enumerate(vec[:nval]) if x} for vec in null]
    reduced = linalg.rref([part for part in v_parts if part], nval, p=p)

    fields = []
    for vec in reduced:
        comps = []
        for i in range(nv):
            terms = {}
            for ci, (vi, m) in enumerate(v_cols):
                if vi == i and vec[ci]:
                    terms[m] = vec[ci]
            comps.append(SparseSeries(nv, terms, laurent=None if p else ctx.laurent, p=p))
        fields.append(VectorField(ctx, tuple(comps)))
    return fields


def tangency_check(v: VectorField, omega_gens: Sequence[OneForm],
                   ibar: IdealGens, deg: int) -> str:
    """YES iff every contraction omega(v) lies in the ideal within the degree
    bound; a zero ideal means the contraction must vanish identically."""
    for w in omega_gens:
        if w.ctx != v.ctx:
            raise ValueError("context mismatch")
        contraction = w.contract(v)
        if ibar is None or ibar.is_zero_ideal:
            if not contraction.is_zero():
                return UNKNOWN
        elif ideal_membership_bounded(contraction, ibar, deg) != YES:
            return UNKNOWN
    return YES
