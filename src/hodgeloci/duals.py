"""Degree-bounded duals of 1-form modules, and the exact linear algebra that
only they and the checks use.

``dual_theta_bounded`` computes generating sets of the annihilator of a list
of 1-forms, optionally relative to an ideal, by the linear-algebra reduction
of ``ideals``: unknown monomial coefficients, one sparse row per monomial.
``solve``, ``nullspace``, ``rref`` and ``rank`` run ``linalg``'s one
elimination, with the same ``(rows, ncols, ..., p=None)`` arguments.  No
command runs this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from hodgeloci.ideals import IdealGens, _field_of, _product_rows, _reject_laurent
from hodgeloci.linalg import Row, _eliminate, _field_rows, solve_many
from hodgeloci.oneforms import OneForm, VectorField
from hodgeloci.series import SparseSeries, monomials_upto


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

    null = nullspace(rows, len(cols), p=p)
    nval = len(v_cols)
    v_parts = [{j: x for j, x in enumerate(vec[:nval]) if x} for vec in null]
    reduced = rref([part for part in v_parts if part], nval, p=p)

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


def _dense_row(c: int, row: Row, ncols: int, p: Optional[int]) -> tuple:
    """A reduced row divided by its pivot entry, as a dense tuple."""
    if p is not None:
        return tuple(row.get(j, 0) for j in range(ncols))
    zero, pv = Fraction(0), row[c]
    return tuple(Fraction(row[j], pv) if j in row else zero for j in range(ncols))


def solve(rows, ncols: int, rhs, p: Optional[int] = None) -> Optional[list]:
    """One exact solution of A x = b with every free variable set to 0, or
    None when the system is inconsistent.  ``rhs`` is a sequence with one
    entry per row, or a sparse ``{row: value}`` mapping."""
    return solve_many(rows, ncols, [rhs], p)[0]


def nullspace(rows, ncols: int, p: Optional[int] = None) -> List[tuple]:
    """Basis of the right nullspace: ncols - rank vectors, one per free column
    in increasing order.  Over Q each is a primitive integer vector (as
    Fractions) whose first nonzero entry is positive; an empty row list gives
    the ncols unit vectors."""
    reduced = _eliminate(_field_rows(rows, ncols, p), ncols, p)
    pivots = {c for c, _ in reduced}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        held = [(c, row) for c, row in reduced if f in row]
        if p is not None:
            x = {c: -row[f] % p for c, row in held}
            x[f] = 1
            basis.append(tuple(x.get(j, 0) for j in range(ncols)))
            continue
        # x_c = -den * row[f] / row[c] and x_f = den, with den the least that
        # makes every x_c an integer; then the entries share no factor
        den = lcm(*(row[c] // gcd(row[f], row[c]) for c, row in held))
        x = {c: -row[f] * den // row[c] for c, row in held}
        x[f] = den
        sign = -1 if x[min(x)] < 0 else 1
        basis.append(tuple(Fraction(sign * x[j]) if j in x else Fraction(0)
                           for j in range(ncols)))
    return basis


def rref(rows, ncols: int, p: Optional[int] = None) -> List[tuple]:
    """Nonzero rows of the reduced row echelon form (a canonical spanning set)."""
    return [_dense_row(c, row, ncols, p)
            for c, row in _eliminate(_field_rows(rows, ncols, p), ncols, p)]


def rank(rows, ncols: int, p: Optional[int] = None) -> int:
    return len(_eliminate(_field_rows(rows, ncols, p), ncols, p))
