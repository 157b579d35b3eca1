"""Frobenius powers of vector fields modulo a prime.

In characteristic p the p-fold composition of a derivation is again a
derivation; ``vf_pow_p`` assembles it from its values on the coordinates.
A field that is affine mod p, v = A x + b (every component of degree <= 1
after reduction), maps affine functions to affine functions, so its power
is read off one matrix power: with M = [[A, b], [0, 0]], v^p(x_i) =
(A^p x + A^(p-1) b)_i, row i of M^p applied to (x, 1), and M^p takes
O(log p) products by repeated squaring mod p.  Any other field is applied
p times to each coordinate.  ``pcurvature_output`` is the body of the
``pcurvature`` command.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from hodgeloci.errors import ResourceLimit
from hodgeloci.modp import is_prime, mod_reduce
from hodgeloci.oneforms import OneForm, VectorField
from hodgeloci.series import SparseSeries

MAX_FROBENIUS_PRIME = 101


def vf_mod_reduce(v: VectorField, p: int) -> VectorField:
    """Componentwise reduction of a rational vector field mod p."""
    return VectorField(v.ctx, tuple(mod_reduce(c, p) for c in v.comps))


def oneform_mod_reduce(w: OneForm, p: int) -> OneForm:
    return OneForm(w.ctx, tuple(mod_reduce(c, p) for c in w.comps))


def vf_pow_p(v: VectorField, p: int) -> VectorField:
    """The p-th Frobenius power: the derivation with v^p(x_i) = v(...v(x_i)...)
    (p applications), all arithmetic mod p; a field whose components all have
    degree <= 1 once reduced takes ``_affine_pow_p`` instead.

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
    if all(sum(e) <= 1 for c in vbar.comps for e in c.terms):
        return _affine_pow_p(vbar, p)
    n = v.ctx.nvars
    comps = []
    for i in range(n):
        f = SparseSeries(n, {tuple(int(k == i) for k in range(n)): 1}, p=p)
        for _ in range(p):
            f = vbar.apply(f)
        comps.append(f)
    return VectorField(v.ctx, tuple(comps))


def _affine_pow_p(v: VectorField, p: int) -> VectorField:
    """``vf_pow_p`` of a field over GF(p) whose components have degree <= 1,
    from M^p with M = [[A, b], [0, 0]].  A matrix is a list of
    ``{column: value}`` rows; column j < n stands for x_j, column n for 1."""
    n = v.ctx.nvars
    keys = [tuple(int(k == j) for k in range(n)) for j in range(n + 1)]
    column = {e: j for j, e in enumerate(keys)}
    m = [{column[e]: c for e, c in comp.terms.items()} for comp in v.comps] + [{}]
    power = None
    e = p
    while True:
        if e & 1:
            power = m if power is None else _mat_mul(power, m, p)
        e >>= 1
        if not e:
            break
        m = _mat_mul(m, m, p)
    return VectorField._of(v.ctx, tuple(
        SparseSeries._trusted(n, {keys[j]: c for j, c in row.items()}, None, p)
        for row in power[:n]))


def _mat_mul(a, b, p: int):
    """The product mod p of two sparse square matrices, zeros dropped."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: r for j, s in acc.items() if (r := s % p)})
    return out


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
