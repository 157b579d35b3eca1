"""Exact sparse linear algebra over Q and over GF(p): ``solve_many``, the
solver the commands run, and the one elimination that it and ``duals``'
``solve``, ``nullspace``, ``rref`` and ``rank`` share.

A matrix is a list of rows, each a ``{column: value}`` dict over
``range(ncols)``; a missing column is zero.  Each of those functions takes
``(rows, ncols, ..., p=None)``: with ``p`` None the values are read as exact
rationals, otherwise as their residues mod the prime ``p``
(``series.residue``: a rational a/b is a * b^-1, and DenominatorDivisibleByP
is raised when p divides b).

One Gauss-Jordan routine serves them all.  It takes the columns in increasing
order and, within a column, pivots on the row with the fewest nonzeros
(Markowitz); a column -> rows index means only rows holding the pivot column
are touched.  Because the columns go in order, the pivot columns are the
lexicographically first independent set whichever row is picked, so the
reduced rows, the solution with every free variable set to 0 and the
nullspace vector of each free column are unique.

``solve_many`` eliminates once for several right-hand sides: each is an
augmented column that the elimination carries but never pivots on.  Once
every coefficient column is eliminated, a row without a pivot holds no
coefficient column, and right-hand side k is inconsistent exactly when such
a row holds its augmented column.  Each solution is the one with every free
variable set to 0, and equals ``duals.solve``'s for that right-hand side.

Over Q the elimination is fraction-free (Bareiss-style; von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 5): each row is scaled to a primitive
integer row, and at each pivot a row holding the pivot column becomes
(pv/g) row - (f/g) pivot row, g = gcd(pv, f), divided by the gcd of its
entries.  Every row stays a nonzero multiple of the row that Fraction
arithmetic would hold, so it has the same zeros and the same pivots are
chosen.  A ``Fraction`` appears only at the boundary, where a reduced row is
divided by its pivot entry: ``solve_many`` gives an int where that quotient
is exact and a ``Fraction`` otherwise, so a system of ints with an integral
solution never loads ``fractions``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from hodgeloci.series import is_fraction, residue

Row = Dict[int, object]


def _scalar(value, p: Optional[int]):
    """An exact rational (int or Fraction) over Q, a residue over GF(p)."""
    if p is not None:
        return residue(value, p)
    if type(value) is int or is_fraction(value):
        return value
    from fractions import Fraction

    return Fraction(value)


def _field_rows(rows, ncols: int, p: Optional[int]) -> List[Row]:
    """Fresh rows over the field, zeros dropped; every column in range(ncols)."""
    out = []
    for row in rows:
        new = {}
        for j, v in row.items():
            if not (isinstance(j, int) and 0 <= j < ncols):
                raise ValueError(f"column index {j!r} is outside range({ncols})")
            v = _scalar(v, p)
            if v:
                new[j] = v
        out.append(new)
    return out


def _primitive(row: Row) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(rows: List[Row], ncols: int, p: Optional[int],
               naug: int = 0) -> List[Tuple[int, Row]]:
    """Reduce ``rows`` (field values, no zeros) in place to reduced row echelon
    form up to row scaling, pivoting on the columns in range(ncols) only; the
    ``naug`` columns after them are carried along.  Return the pivot rows as
    ``(pivot column, row)`` pairs in column order, each row 0 at every other
    pivot column.  Over GF(p) a row is 1 at its pivot; over Q it is a
    primitive integer row."""
    if p is None:
        for row in rows:
            den = lcm(*(v.denominator for v in row.values()))
            for j, v in row.items():
                row[j] = v.numerator * (den // v.denominator)
            _primitive(row)
    holding = [set() for _ in range(ncols + naug)]
    for i, row in enumerate(rows):
        for j in row:
            holding[j].add(i)
    reduced = []
    used = set()
    for c in range(ncols):
        candidates = [i for i in holding[c] if i not in used]
        if not candidates:
            continue
        r = min(candidates, key=lambda i: (len(rows[i]), i))  # fewest nonzeros
        prow = rows[r]
        pv = prow[c]
        if p is not None:
            inv = pow(pv, -1, p)
            for j in prow:
                prow[j] = prow[j] * inv % p
        used.add(r)
        reduced.append((c, prow))
        for i in list(holding[c]):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if p is None:  # row -> (pv/g) row - (f/g) prow
                g = gcd(pv, f)
                a, f = pv // g, f // g
                if a != 1:
                    for j in row:
                        row[j] *= a
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if p is not None:
                    x %= p
                if x:
                    if j not in row:
                        holding[j].add(i)
                    row[j] = x
                else:
                    del row[j]
                    holding[j].discard(i)
            if p is None:
                _primitive(row)
    return reduced


def solve_many(rows, ncols: int, rhss: Sequence, p: Optional[int] = None
               ) -> List[Optional[list]]:
    """One exact solution of A x = b for each right-hand side b in ``rhss``,
    from one elimination: every free variable set to 0, or None when that
    system is inconsistent.  Each b is a sequence with one entry per row, or a
    sparse ``{row: value}`` mapping.  Over Q an entry is an int where it is
    integral and a Fraction otherwise."""
    rows = _field_rows(rows, ncols, p)
    for k, rhs in enumerate(rhss):
        if not isinstance(rhs, Mapping):
            if len(rhs) != len(rows):
                raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
            rhs = dict(enumerate(rhs))
        for i, b in rhs.items():
            if not (isinstance(i, int) and 0 <= i < len(rows)):
                raise ValueError(f"right-hand side row {i!r} is outside range({len(rows)})")
            b = _scalar(b, p)
            if b:
                rows[i][ncols + k] = b  # the augmented column of this right-hand side
    reduced = _eliminate(rows, ncols, p, len(rhss))
    # the rows without a pivot hold augmented columns only
    inconsistent = {j for row in rows if row and min(row) >= ncols for j in row}
    out = []
    for aug in range(ncols, ncols + len(rhss)):
        if aug in inconsistent:
            out.append(None)
            continue
        x = [0] * ncols
        for c, row in reduced:
            if aug in row:
                x[c] = row[aug] if p is not None else _quotient(row[aug], row[c])
        out.append(x)
    return out


def _quotient(a: int, b: int):
    """a / b exactly: an int when b divides a, else a Fraction."""
    if a % b == 0:
        return a // b
    from fractions import Fraction

    return Fraction(a, b)
