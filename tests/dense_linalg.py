"""Dense exact linear algebra: the test oracle for ``hodgeloci.linalg``.

Fraction-free (Bareiss) elimination over Q on integer rows made by clearing
row denominators, with Fraction back-substitution, and plain Gauss-Jordan
elimination over GF(p); every pivot is the first nonzero entry.  The
functions at the bottom take the same ``(rows, ncols, ..., p=None)`` sparse
arguments as ``hodgeloci.linalg``, so the module can stand in for it.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping


def _normalize_vector(vec):
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


def _integer_rows(rows):
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fr)) if fr else 1
        out.append([int(f * mult) for f in fr])
    return out


def _bareiss(mat):
    """In-place fraction-free row echelon; returns (matrix, pivot columns)."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, nrows):
            mic = mat[i][c]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(c + 1, ncols):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return mat, pivots


def nullspace_rational(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    mat, pivots = _bareiss(_integer_rows(rows))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = sum((Fraction(mat[r][j]) * x[j] for j in range(c + 1, ncols)), Fraction(0))
            x[c] = -s / mat[r][c]
        basis.append(_normalize_vector(x))
    return basis


def rank_rational(rows):
    return len(_bareiss(_integer_rows([list(r) for r in rows]))[1])


def solve_rational(rows, rhs):
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) - 1
    mat, pivots = _bareiss(_integer_rows(rows))
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        s = sum((Fraction(mat[r][j]) * x[j] for j in range(c + 1, ncols)), Fraction(0))
        x[c] = (Fraction(mat[r][ncols]) - s) / mat[r][c]
    return x


def rref_rational(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return [tuple(row) for row in mat[:r] if any(row)]


def _modp_echelon(mat, p):
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def nullspace_modp(rows, p):
    rows = [[int(x) % p for x in r] for r in rows]
    ncols = len(rows[0])
    mat, pivots = _modp_echelon(rows, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[f] = 1
        for r, c in enumerate(pivots):
            x[c] = (-sum(mat[r][j] * x[j] for j in range(c + 1, ncols))) % p
        basis.append(tuple(x))
    return basis


def solve_modp(rows, rhs, p):
    aug = [[int(x) % p for x in r] + [int(b) % p] for r, b in zip(rows, rhs)]
    ncols = len(aug[0]) - 1
    mat, pivots = _modp_echelon(aug, p)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = (mat[r][ncols] - sum(mat[r][j] * x[j] for j in range(c + 1, ncols))) % p
    return x


def rref_modp(rows, p):
    rows = [[int(x) % p for x in r] for r in rows]
    mat, pivots = _modp_echelon(rows, p)
    return [tuple(row) for row in mat[:len(pivots)]]


# -- the sparse signatures of hodgeloci.linalg ---------------------------------


def densify(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def solve(rows, ncols, rhs, p=None):
    if isinstance(rhs, Mapping):
        rhs = [rhs.get(i, 0) for i in range(len(rows))]
    if not rows:
        return [0 if p else Fraction(0)] * ncols
    rows = densify(rows, ncols)
    return solve_modp(rows, rhs, p) if p else solve_rational(rows, rhs)


def solve_many(rows, ncols, rhss, p=None):
    return [solve(rows, ncols, rhs, p=p) for rhs in rhss]


def nullspace(rows, ncols, p=None):
    if not rows:
        rows = [{}]
    rows = densify(rows, ncols)
    return nullspace_modp(rows, p) if p else nullspace_rational(rows)


def rref(rows, ncols, p=None):
    if not rows:
        return []
    rows = densify(rows, ncols)
    return rref_modp(rows, p) if p else rref_rational(rows)


def rank(rows, ncols, p=None):
    if not rows:
        return 0
    rows = densify(rows, ncols)
    return len(rref_modp(rows, p)) if p else rank_rational(rows)
