"""Determinantal tangency loci: the body of the ``sch`` command.

``sch_ideal`` builds the minor ideal cutting out the points where a field's
value falls inside the span of a list of fields, and ``sch_output`` prints
its generators or tests a point against them.  It loads neither ``ideals``
nor ``linalg`` (``IdealGens`` is in ``oneforms``), and ``fractions`` only to
read a ``--point``.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence

from hodgeloci import exprparse
from hodgeloci.oneforms import IdealGens, VectorField


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


def sch_output(names: str, field: str, module: Sequence[str], point: Optional[str]) -> str:
    """The ``sch`` command: whether the comma-separated rational ``point`` lies
    in the minor ideal, or the ideal's generators one per line when no point is
    given ("0" for the zero ideal)."""
    ctx = exprparse.parse_context(names)
    v = exprparse.parse_field(field, ctx)
    ws = [exprparse.parse_field(e, ctx) for e in module]
    if point is not None:
        from fractions import Fraction

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
