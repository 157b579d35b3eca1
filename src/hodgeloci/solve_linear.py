"""The truncated fundamental solution of a linear differential system
dY = B*Y: the body of the ``solve-linear`` command.

``linear_solve_series`` produces the fundamental matrix with Y(0) = I through
a total degree, as exact polynomials, by solving the coefficient recursion
degree by degree; a full post-verification of dY - B*Y through the requested
order raises NotIntegrable on inconsistent (non-integrable) input.
``solve_linear_document`` writes the command's JSON output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from hodgeloci.errors import NotIntegrable
from hodgeloci.forms import FormMatrix
from hodgeloci.series import SparseSeries, monomials_upto


def linear_solve_series(b: FormMatrix, order: int) -> List[List[SparseSeries]]:
    """Fundamental solution Y of dY = B*Y with Y(0) = identity, through total
    degree ``order``: each entry is the exact polynomial of those terms.

    The defining identity is then verified in every variable direction through
    degree order-1, raising NotIntegrable on failure.  The expansion point is
    the origin, which must be a regular point of the system: connections with
    a singular origin have to be re-expanded at a regular point by the caller.
    """
    rows, cols = b.shape
    if rows != cols:
        raise ValueError("connection matrix must be square")
    if order < 0:
        raise ValueError("order must be non-negative")
    ctx = b.ctx
    if any(ctx.laurent):
        raise ValueError("series solving requires a non-Laurent context")
    nv = ctx.nvars
    h = rows
    # direction matrices: bdir[i][r][c] = coefficient polynomial of dx_i
    bdir = [[[b.entries[r][c].comps[i] for c in range(h)] for r in range(h)]
            for i in range(nv)]
    y: List[List[Dict[Tuple[int, ...], Fraction]]] = [
        [{} for _ in range(h)] for _ in range(h)]
    zero_e = (0,) * nv
    for r in range(h):
        y[r][r][zero_e] = Fraction(1)

    def product_coeff(i: int, r: int, c: int, mono: Tuple[int, ...]) -> Fraction:
        """Coefficient of x^mono in row r of (B_i * Y) column c."""
        total = Fraction(0)
        for k in range(h):
            poly = bdir[i][r][k]
            ycol = y[k][c]
            if not poly.terms or not ycol:
                continue
            for e1, c1 in poly.terms.items():
                e2 = tuple(x - z for x, z in zip(mono, e1))
                if any(x < 0 for x in e2):
                    continue
                c2 = ycol.get(e2)
                if c2 is not None:
                    total += c1 * c2
        return total

    # graded-lex order: every coefficient of lower degree is known in time
    for mono in monomials_upto(nv, order)[1:]:
        i = next(j for j, x in enumerate(mono) if x)
        prev = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        for r in range(h):
            for c in range(h):
                val = product_coeff(i, r, c, prev) / mono[i]
                if val:
                    y[r][c][mono] = val

    # verify dY = B*Y in every direction through degree order-1
    for mono in monomials_upto(nv, order - 1):
        for i in range(nv):
            up = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            for r in range(h):
                for c in range(h):
                    lhs = y[r][c].get(up, Fraction(0)) * up[i]
                    if lhs != product_coeff(i, r, c, mono):
                        raise NotIntegrable(
                            f"no consistent solution at degree {sum(mono) + 1} "
                            f"(entry ({r},{c}), direction {ctx.names[i]})")
    return [[SparseSeries(nv, y[r][c]) for c in range(h)] for r in range(h)]


def solve_linear_document(b: FormMatrix, order: int) -> str:
    """The ``solve-linear`` document: the order and the rows of the fundamental
    matrix Y through that order, each entry a series document labelled with it."""
    import json

    y = linear_solve_series(b, order)
    doc = {"order": order, "Y": [[s.to_doc(order) for s in row] for row in y]}
    return json.dumps(doc, separators=(",", ":")) + "\n"
