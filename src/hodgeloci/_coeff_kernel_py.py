"""Period-coefficient kernel: the residue-class enumeration of the period engine.

Returns, for every deformation exponent tuple ``a`` with total degree at most
``trunc`` that passes the fractional-pair condition, the signed integer
numerator and denominator of its coefficient:

    num/den = (-1)^E * prod_i ({(b_i+1)/d})_[(b_i+1)/d]  /  a!

with b = beta + sum_alpha a_alpha * alpha.  Writing b_i + 1 = q_i*d + r_i,
the pair condition says r_{2e} + r_{2e+1} == d for every consecutive pair,
each Pochhammer factor contributes prod_{t<q_i}(r_i + t*d) over d^{q_i},
and E = sum of q over even slots.

The residues r depend only on ``a mod d``.  So the kernel first descends over
residue vectors ``c`` with ``0 <= c_alpha <= min(d-1, rem)``, runs the pair
test once per vector, and walks ``a = c + d*k`` only inside the classes that
pass.  Inside a class the residues r_i are fixed and q grows by
``sum k_alpha alpha``, so the numerator is a product of table entries
``P[r_i][q_i]`` and the denominator is ``d^{sum q} * prod a_alpha!``.  An
even slot reads its entries from a table of ``(-1)^q P[r][q]``, so the product
carries the sign ``(-1)^E``.

The walk recurses once per monomial but the last, whose level is an inline
loop: one run of it fixes ``k`` for every other monomial, so the slots the last
monomial does not move give one product per run, and each step of the run
multiplies in only the slots it moves.

Terms come back in graded-lexicographic order of ``a`` (total degree, then
the tuple), the canonical order of ``SparseSeries``.
"""

from __future__ import annotations

from math import prod
from operator import add, getitem
from typing import List, Sequence, Tuple


def coefficient_terms(beta: Sequence[int], d: int, alphas: Sequence[Sequence[int]],
                      trunc: int) -> List[Tuple[Tuple[int, ...], int, int]]:
    nv = len(beta)
    m = len(alphas)
    alphas = [tuple(al) for al in alphas]
    pair_slots = range(0, nv - 1, 2)

    # every monomial has weight d, so each step of k adds d to sum q; every q_i,
    # and their sum, is at most this at any tuple of degree <= trunc
    qcap = (sum(beta) + nv) // d + trunc
    dpow = [1] * (qcap + 1)
    for i in range(1, qcap + 1):
        dpow[i] = dpow[i - 1] * d
    fact = [1] * (trunc + 1)
    for i in range(1, trunc + 1):
        fact[i] = fact[i - 1] * i
    # poch[r][q] = prod_{t<q} (r + t*d), and spoch[r][q] = (-1)^q poch[r][q]
    poch, spoch = [], []
    for r in range(d):
        row = [1] * (qcap + 1)
        for q in range(qcap):
            row[q + 1] = row[q] * (r + q * d)
        poch.append(row)
        spoch.append([-x if i & 1 else x for i, x in enumerate(row)])

    # grlex sort key: degree, then a_0, a_1, ... as digits in base trunc + 1
    radix = trunc + 1
    place = [radix ** (m - 1 - i) for i in range(m)]
    deg_place = radix ** m

    out = {}  # sort key -> (a, num, den)
    c = [0] * m  # the residue vector
    bc = [b + 1 for b in beta]  # b_i + 1 at the residue vector, maintained incrementally
    # in the residue class being walked: (slot, table) of each slot the last
    # monomial leaves fixed, and (slot, table, step) of each slot it moves
    fixed_rows: List[Tuple[int, List[int]]] = []
    moved_rows: List[Tuple[int, List[int], int]] = []
    dd = d ** d  # one step of the last monomial multiplies d^{sum q} by this

    def walk(idx: int, left: int, deg: int, key: int, afact: int, pre: tuple,
             qv: tuple) -> None:
        # a_alpha = c_alpha + d*k_alpha for alpha >= idx, with sum k <= left;
        # pre is a_0 .. a_{idx-1} and qv the quotients q_i there
        v = c[idx]
        if idx == m - 1:
            num0 = 1
            for j, row in fixed_rows:
                num0 *= row[qv[j]]
            den = dpow[sum(qv)] * afact
            key += deg * deg_place
            for k in range(left + 1):
                num = num0
                for j, row, s in moved_rows:
                    num *= row[qv[j] + k * s]
                out[key + v * (deg_place + 1)] = (pre + (v,), num, den * fact[v])
                v += d
                den *= dd
            return
        alpha = alphas[idx]
        w = place[idx]
        for k in range(left + 1):
            walk(idx + 1, left - k, deg + v, key + v * w, afact * fact[v], pre + (v,), qv)
            v += d
            qv = tuple(map(add, qv, alpha))

    def residues(idx: int, rem: int) -> None:
        if idx == m:
            if all(bc[j] % d + bc[j + 1] % d == d for j in pair_slots):
                rows = [(poch if j & 1 else spoch)[x % d] for j, x in enumerate(bc)]
                qv = tuple(x // d for x in bc)
                if m:
                    last = alphas[-1]
                    fixed_rows[:] = [(j, row) for j, row in enumerate(rows) if not last[j]]
                    moved_rows[:] = [(j, row, last[j]) for j, row in enumerate(rows) if last[j]]
                    walk(0, rem // d, 0, 0, 1, (), qv)
                else:  # the one tuple is a = ()
                    out[0] = ((), prod(map(getitem, rows, qv)), dpow[sum(qv)])
            return
        alpha = alphas[idx]
        top = min(d - 1, rem)
        for v in range(top + 1):
            if v:
                for j in range(nv):
                    bc[j] += alpha[j]
            c[idx] = v
            residues(idx + 1, rem - v)
        for j in range(nv):
            bc[j] -= top * alpha[j]

    residues(0, trunc)
    # the nested functions reach themselves through their closure cells; emptying
    # the cells frees `out` and the tables on return, not at a later cyclic GC
    del walk, residues
    return [out[key] for key in sorted(out)]
