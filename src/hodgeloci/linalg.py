"""Exact sparse linear algebra over Q and over GF(p).

A matrix is a list of rows, each a ``{column: value}`` dict over
``range(ncols)``; a missing column is zero.  Every public function takes
``(rows, ncols, ..., p=None)``: with ``p`` None the values are read as
``Fraction``s, otherwise as their residues mod the prime ``p``
(``series.residue``: a rational a/b is a * b^-1, and DenominatorDivisibleByP
is raised when p divides b).

One Gauss-Jordan routine serves them all.  It takes the columns in increasing
order and, within a column, pivots on the row with the fewest nonzeros
(Markowitz); a column -> rows index means only rows holding the pivot column
are touched.  Because the columns go in order, the pivot columns are the
lexicographically first independent set whichever row is picked, so the
reduced rows, the solution with every free variable set to 0 and the
nullspace vector of each free column are unique.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from hodgeloci.series import residue

Row = Dict[int, object]


def _scalar(value, p: Optional[int]):
    return Fraction(value) if p is None else residue(value, p)


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


def _eliminate(rows: List[Row], ncols: int, p: Optional[int]) -> List[Tuple[int, Row]]:
    """Reduce ``rows`` (field values, no zeros) in place to reduced row echelon
    form; return the nonzero rows as ``(pivot column, row)`` pairs in column
    order, each row 1 at its pivot and 0 at every other pivot column."""
    holding = [set() for _ in range(ncols)]
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
        if p is None:
            inv = 1 / prow[c]
            for j in prow:
                prow[j] *= inv
        else:
            inv = pow(prow[c], -1, p)
            for j in prow:
                prow[j] = prow[j] * inv % p
        used.add(r)
        reduced.append((c, prow))
        for i in list(holding[c]):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
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
    return reduced


def _dense(row: Row, ncols: int, p: Optional[int]) -> tuple:
    zero = _scalar(0, p)
    return tuple(row.get(j, zero) for j in range(ncols))


def _normalize_vector(vec: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Scale to a primitive integer vector whose first nonzero entry is positive."""
    mult = lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * mult) for f in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def solve(rows, ncols: int, rhs, p: Optional[int] = None) -> Optional[list]:
    """One exact solution of A x = b with every free variable set to 0, or
    None when the system is inconsistent.  ``rhs`` is a sequence with one
    entry per row, or a sparse ``{row: value}`` mapping."""
    rows = _field_rows(rows, ncols, p)
    if not isinstance(rhs, Mapping):
        if len(rhs) != len(rows):
            raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
        rhs = dict(enumerate(rhs))
    for i, b in rhs.items():
        if not (isinstance(i, int) and 0 <= i < len(rows)):
            raise ValueError(f"right-hand side row {i!r} is outside range({len(rows)})")
        b = _scalar(b, p)
        if b:
            rows[i][ncols] = b  # the augmented column
    zero = _scalar(0, p)
    x = [zero] * ncols
    for c, row in _eliminate(rows, ncols + 1, p):
        if c == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[c] = row.get(ncols, zero)
    return x


def nullspace(rows, ncols: int, p: Optional[int] = None) -> List[tuple]:
    """Basis of the right nullspace: ncols - rank vectors, one per free column
    in increasing order.  Over Q each is in primitive integer form; an empty
    row list gives the ncols unit vectors."""
    reduced = _eliminate(_field_rows(rows, ncols, p), ncols, p)
    pivots = {c for c, _ in reduced}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: 1}
        for c, row in reduced:
            if f in row:
                x[c] = -row[f] if p is None else -row[f] % p
        vec = _dense(x, ncols, p)
        basis.append(vec if p is not None else _normalize_vector(vec))
    return basis


def rref(rows, ncols: int, p: Optional[int] = None) -> List[tuple]:
    """Nonzero rows of the reduced row echelon form (a canonical spanning set)."""
    return [_dense(row, ncols, p)
            for _, row in _eliminate(_field_rows(rows, ncols, p), ncols, p)]


def rank(rows, ncols: int, p: Optional[int] = None) -> int:
    return len(_eliminate(_field_rows(rows, ncols, p), ncols, p))
