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
``P[r_i][q_i]`` and the denominator is ``d^{sum q} * prod a_alpha!``.

Terms come back in graded-lexicographic order of ``a`` (total degree, then
the tuple), the canonical order of ``SparseSeries``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def coefficient_terms(beta: Sequence[int], d: int, alphas: Sequence[Sequence[int]],
                      trunc: int) -> List[Tuple[Tuple[int, ...], int, int]]:
    nv = len(beta)
    m = len(alphas)
    alphas = [tuple(al) for al in alphas]
    pair_slots = range(0, nv - 1, 2)
    # per monomial: its weight on even slots (the sign step)
    esteps = [sum(al[0::2]) for al in alphas]

    # every monomial has weight d, so each step of k adds d to sum q; every q_i,
    # and their sum, is at most this at any tuple of degree <= trunc
    qcap = (sum(beta) + nv) // d + trunc
    dpow = [1] * (qcap + 1)
    for i in range(1, qcap + 1):
        dpow[i] = dpow[i - 1] * d
    fact = [1] * (trunc + 1)
    for i in range(1, trunc + 1):
        fact[i] = fact[i - 1] * i
    poch = []  # poch[r][q] = prod_{t<q} (r + t*d)
    for r in range(d):
        row = [1] * (qcap + 1)
        for q in range(qcap):
            row[q + 1] = row[q] * (r + q * d)
        poch.append(row)

    # grlex sort key: degree, then a_0, a_1, ... as digits in base trunc + 1
    radix = trunc + 1
    place = [radix ** (m - 1 - i) for i in range(m)]
    deg_place = radix ** m

    out = {}  # sort key -> (a, num, den)
    a = [0] * m
    bc = [b + 1 for b in beta]  # b_i + 1 at the residue vector, maintained incrementally
    q = [0] * nv
    rows: List[List[int]] = []

    def walk(idx: int, left: int, deg: int, key: int, afact: int, qsum: int, esum: int) -> None:
        # a_alpha = c_alpha + d*k_alpha for alpha >= idx, with sum k <= left
        if idx == m:
            num = 1
            for row, qi in zip(rows, q):
                num *= row[qi]
            out[key + deg * deg_place] = (tuple(a), -num if esum & 1 else num,
                                          dpow[qsum] * afact)
            return
        alpha = alphas[idx]
        estep = esteps[idx]
        v = a[idx]
        w = place[idx]
        for k in range(left + 1):
            if k:
                v += d
                for j in range(nv):
                    q[j] += alpha[j]
            a[idx] = v
            walk(idx + 1, left - k, deg + v, key + v * w, afact * fact[v],
                 qsum + k * d, esum + k * estep)
        for j in range(nv):
            q[j] -= left * alpha[j]
        a[idx] = v - left * d

    def residues(idx: int, rem: int) -> None:
        if idx == m:
            if all(bc[j] % d + bc[j + 1] % d == d for j in pair_slots):
                rows[:] = [poch[x % d] for x in bc]
                q[:] = [x // d for x in bc]
                walk(0, rem // d, 0, 0, 1, sum(q), sum(q[0::2]))
            return
        alpha = alphas[idx]
        top = min(d - 1, rem)
        for v in range(top + 1):
            if v:
                for j in range(nv):
                    bc[j] += alpha[j]
            a[idx] = v
            residues(idx + 1, rem - v)
        for j in range(nv):
            bc[j] -= top * alpha[j]

    residues(0, trunc)
    # the nested functions reach themselves through their closure cells; emptying
    # the cells frees `out` and the tables on return, not at a later cyclic GC
    del walk, residues
    return [out[key] for key in sorted(out)]
