"""Frobenius powers of vector fields modulo a prime, and determinantal
tangency loci.

In characteristic p the p-fold composition of a derivation is again a
derivation; ``vf_pow_p`` assembles it from its values on the coordinates.
``sch_ideal`` builds the minor ideal cutting out the points where a field's
value falls inside the span of a list of fields.  ``pcurvature_output`` and
``sch_output`` are the bodies of the ``pcurvature`` and ``sch`` commands.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from hodgeloci.errors import ResourceLimit
from hodgeloci.forms import OneForm, VectorField
from hodgeloci.modp import is_prime, mod_reduce
from hodgeloci.series import SparseSeries

MAX_FROBENIUS_PRIME = 101


def vf_mod_reduce(v: VectorField, p: int) -> VectorField:
    """Componentwise reduction of a rational vector field mod p."""
    return VectorField(v.ctx, tuple(mod_reduce(c, p) for c in v.comps))


def oneform_mod_reduce(w: OneForm, p: int) -> OneForm:
    return OneForm(w.ctx, tuple(mod_reduce(c, p) for c in w.comps))


def vf_pow_p(v: VectorField, p: int) -> VectorField:
    """The p-th Frobenius power: the derivation with v^p(x_i) = v(...v(x_i)...)
    (p applications), all arithmetic mod p.

    Input components may be rational (reduced first; DenominatorDivisibleByP
    when not p-integral) or already mod p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > MAX_FROBENIUS_PRIME:
        raise ResourceLimit(
            f"p = {p} exceeds the iterated-application bound {MAX_FROBENIUS_PRIME}")
    field = v.comps[0].p
    if field is None:
        vbar = vf_mod_reduce(v, p)
    elif field != p:
        raise ValueError("vector field is reduced at a different prime")
    else:
        vbar = v
    n = v.ctx.nvars
    comps = []
    for i in range(n):
        f = SparseSeries(n, {tuple(int(k == i) for k in range(n)): 1}, p=p)
        for _ in range(p):
            f = vbar.apply(f)
        comps.append(f)
    return VectorField(v.ctx, tuple(comps))


def _poly_det(mat: List[List]) -> object:
    """Determinant of a small square matrix of polynomials (cofactor expansion)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    out = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _poly_det(minor)
        if j & 1:
            term = -term
        out = term if out is None else out + term
    return out


def sch_ideal(v: VectorField, ws: Sequence[VectorField]):
    """Ideal of all (a+1) x (a+1) minors of the coefficient matrix with rows
    v, w_1, ..., w_a (columns = coordinate components).

    Its zero locus is where v's value lies in the span of the w's.  When
    a + 1 exceeds the variable count there are no minors: the zero ideal.
    """
    from hodgeloci.ideals import IdealGens

    if not ws:
        raise ValueError("need at least one spanning field")
    ctx = v.ctx
    for w in ws:
        if w.ctx != ctx:
            raise ValueError("context mismatch")
    rows = [list(v.comps)] + [list(w.comps) for w in ws]
    size = len(rows)
    n = ctx.nvars
    gens = []
    if size <= n:
        for cols in combinations(range(n), size):
            sub = [[row[c] for c in cols] for row in rows]
            det = _poly_det(sub)
            if not det.is_zero():
                gens.append(det)
    return IdealGens(ctx, tuple(gens))


def sch_contains_point(v: VectorField, ws: Sequence[VectorField], t: Sequence) -> bool:
    """True iff every minor generator vanishes at the point t."""
    if len(t) != v.ctx.nvars:
        raise ValueError(f"point has {len(t)} coordinates, expected {v.ctx.nvars}")
    ideal = sch_ideal(v, ws)
    return all(not g.eval_exact(t) for g in ideal.gens)


def pcurvature_tangency(v: VectorField, omega_gens: Sequence[OneForm],
                        ibar, p: int, deg: int) -> str:
    """Reduce everything mod p, replace v by its p-th Frobenius power, and run
    the bounded tangency check in the GF(p) coefficient field."""
    from hodgeloci.ideals import IdealGens, tangency_check

    vp = vf_pow_p(v, p)
    omegas_p = [oneform_mod_reduce(w, p) for w in omega_gens]
    gens_p = tuple(mod_reduce(g, p) for g in ibar.gens)
    ibar_p = IdealGens(v.ctx, gens_p)
    return tangency_check(vp, omegas_p, ibar_p, deg)


def pcurvature_output(names: str, field: str, omegas: Sequence[str],
                      ideal: Optional[Sequence[str]], p: int, deg: int) -> Tuple[str, int]:
    """The ``pcurvature`` command: ``pcurvature_tangency`` on the question
    parsed by ``ideals.tangency_problem``."""
    from hodgeloci import ideals

    ideals.check_degree_bound(deg)
    v, ws, ibar = ideals.tangency_problem(names, field, omegas, ideal)
    return ideals.verdict_output(pcurvature_tangency(v, ws, ibar, p, deg))


def sch_output(names: str, field: str, module: Sequence[str], point: Optional[str]) -> str:
    """The ``sch`` command: whether the comma-separated rational ``point`` lies
    in the minor ideal, or the ideal's generators one per line when no point is
    given ("0" for the zero ideal)."""
    from fractions import Fraction

    from hodgeloci import exprparse

    ctx = exprparse.parse_context(names)
    v = exprparse.parse_field(field, ctx)
    ws = [exprparse.parse_field(e, ctx) for e in module]
    if point is not None:
        coords = []
        for k, x in enumerate(point.split(","), 1):
            if not x.strip():
                raise ValueError(f"coordinate {k} of the point is empty")
            try:
                coords.append(Fraction(x))
            except ZeroDivisionError:
                raise ValueError(f"coordinate {x!r} has a zero denominator") from None
            except ValueError:
                raise ValueError(f"coordinate {x!r} is not a rational number") from None
        return f"contains: {'true' if sch_contains_point(v, ws, coords) else 'false'}\n"
    lines = [exprparse.poly_to_expr(g, ctx) for g in sch_ideal(v, ws).gens]
    return "".join(l + "\n" for l in lines) if lines else "0\n"
