"""The three benchmark workloads: their inputs, their command lines and the
checks that decide whether an invocation's output is correct.

Every workload is a list of ``hodgeloci`` command lines run one after the
other; one pass over the list is one sample.  Inputs are generated from the
workload seed with fixed shapes (variable counts, degrees, term counts and
block sizes never depend on the seed; the seed only picks coefficient signs and
which outputs the checks sample), so cost stays comparable across seeds.

The checks do not trust the code they check: the denominator table is
compared with the checked-in golden file, the series JSON with the digest
recorded at the seed commit and with the closed-form ``period_coefficient``,
and the hypergeometric locus with an exact-coefficient 2F1 series summed
under a rigorous tail bound that is written here, not taken from the
package's float evaluator.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# -- sizes ---------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    """Every shape parameter of every workload.  ``FULL`` is what the benchmark
    measures; ``TOY`` is the same pipeline small enough for the self-test."""

    truncation: int            # quartic family truncation D
    table: Path                # expected denominator table at that D
    periods_sha256: str        # canonical periods JSON recorded at the seed commit
    grid: int                  # hypergeo-locus grid points
    blocks: Tuple[int, ...]    # gm Hodge block sizes (weight 2)
    tangency_deg: int          # --deg of tangency; certificates have degree <= this
    tangency_omegas: int       # 1-forms passed to tangency
    pcurv_deg: int             # --deg of pcurvature
    cofactor_deg: int          # degree of the generated ideal cofactors


FULL = Size(truncation=30,
            table=ROOT / "tests" / "golden" / "quartic_d4_D30_denominators.csv",
            periods_sha256="81e1fe22fd5dd6fbc5ac21dab35b79fcaece4e14c033b4e5877a2335e133030d",
            grid=200, blocks=(1, 8, 1), tangency_deg=6, tangency_omegas=2,
            pcurv_deg=8, cofactor_deg=3)
TOY = Size(truncation=4,
           table=HERE / "toy_quartic_d4_D4_denominators.csv",
           periods_sha256="ed9239f3a897e021b17f9aae89e5b84a8bd8df72cac95c58d1e590a67947fe86",
           grid=5, blocks=(1, 2, 1), tangency_deg=2, tangency_omegas=1,
           pcurv_deg=2, cofactor_deg=1)

# -- fixed inputs ------------------------------------------------------------------

QUARTIC_I4 = [[1, 3, 0, 0], [0, 1, 3, 0], [0, 0, 1, 3], [3, 0, 0, 1]]
ISO_N = 2
ISO_TOL = 1e-8
ISO_DELTA = 0.01           # the sampler's domain margin: t in [DELTA, 1 - DELTA]
PCURV_P = 101

GM_VARS = ("t1", "t2", "t3")
# support of every nonzero entry of the unipotent frame; coefficients are seeded
GM_MONOS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0))

TG_VARS = ("x", "y", "z")
TG_GENS = (((2, 0, 0), (0, 1, 1), (1, 0, 0)),
           ((0, 2, 0), (1, 0, 1), (0, 0, 1)))
TG_SYZYGY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

MAGNITUDES = (1, 2, 3)  # coefficient sizes cycle with the term; the seed picks signs
SAMPLED_COEFFICIENTS = 40  # closed-form checks per periods output
SAMPLED_LOCUS_POINTS = 40  # oracle checks per hypergeo-locus output


# -- sparse polynomials over Q (dict: exponent tuple -> Fraction) ---------------------


def _padd(a: Dict, b: Dict) -> Dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pmul(a: Dict, b: Dict) -> Dict:
    out: Dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _pneg(a: Dict) -> Dict:
    return {e: -c for e, c in a.items()}


def _pdiff(a: Dict, i: int) -> Dict:
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def _matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: Dict = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = _padd(acc, _pmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _mono_str(e: Sequence[int], names: Sequence[str]) -> List[str]:
    return [names[i] if x == 1 else f"{names[i]}^{x}" for i, x in enumerate(e) if x]


def _sum_str(terms: List[Tuple[Fraction, List[str]]]) -> str:
    """Render sum c * f1 * f2 * ... in the package's expression grammar."""
    if not terms:
        return "0"
    out = []
    for k, (c, factors) in enumerate(terms):
        body = "*".join([str(abs(c))] + factors)
        out.append(("-" if c < 0 else "") + body if k == 0
                   else (" - " if c < 0 else " + ") + body)
    return "".join(out)


def _poly_str(p: Dict, names) -> str:
    return _sum_str([(p[e], _mono_str(e, names)) for e in sorted(p, key=lambda e: (sum(e), e))])


def _form_str(comps: Sequence[Dict], names, symbol: str) -> str:
    """sum_i comps[i] * symbol(names[i]), e.g. symbol 'd' for 1-forms."""
    terms = []
    for i, p in enumerate(comps):
        for e in sorted(p, key=lambda e: (sum(e), e)):
            terms.append((p[e], _mono_str(e, names) + [f"{symbol}({names[i]})"]))
    return _sum_str(terms)


def _seeded_poly(rng: random.Random, support, rational: bool = False) -> Dict:
    """Fixed coefficient sizes (and, if rational, denominators 1, 2 in turn) with
    seeded signs, so the cost of exact arithmetic does not depend on the seed."""
    return {e: Fraction(rng.choice((-1, 1)) * MAGNITUDES[k % 3], 1 + k % 2 if rational else 1)
            for k, e in enumerate(support)}


def _monomials(nvars: int, deg: int) -> List[Tuple[int, ...]]:
    if nvars == 0:
        return [()]
    return [(i,) + rest for i in range(deg + 1) for rest in _monomials(nvars - 1, deg - i)]


# -- foliation inputs ------------------------------------------------------------------


def gm_matrix(rng: random.Random, blocks: Sequence[int]) -> List[List[str]]:
    """B = dY * Y^{-1} for a lower-unipotent Y = I + N whose nonzero entries sit
    on the first column and the last row (the weight-2 pattern: the top Hodge
    block maps into the middle one, the middle one into the bottom one).
    Such a B is integrable and satisfies transversality."""
    h = sum(blocks)
    nv = len(GM_VARS)
    support = [(i, 0) for i in range(1, h)] + [(h - 1, j) for j in range(1, h - 1)]
    n = [[{} for _ in range(h)] for _ in range(h)]
    for i, j in support:
        n[i][j] = _seeded_poly(rng, GM_MONOS, rational=True)
    ident = [[{(0,) * nv: Fraction(1)} if i == j else {} for j in range(h)] for i in range(h)]
    neg_n = [[_pneg(x) for x in row] for row in n]
    y_inv = ident
    power = ident
    for _ in range(1, h):  # N is nilpotent: Y^{-1} = sum_k (-N)^k
        power = _matmul(power, neg_n)
        if not any(x for row in power for x in row):
            break
        y_inv = [[_padd(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(y_inv, power)]
    b_dirs = [_matmul([[_pdiff(x, a) for x in row] for row in n], y_inv) for a in range(nv)]
    return [[_form_str([b_dirs[a][i][j] for a in range(nv)], GM_VARS, "d")
             for j in range(h)] for i in range(h)]


def _linear_field_matrix(rng: random.Random) -> List[List[int]]:
    return [[rng.choice((-1, 1)) * (1 + (i + j) % 2) for j in range(3)] for i in range(3)]


def _matpow_mod(a: List[List[int]], e: int, p: int) -> List[List[int]]:
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [[x % p for x in row] for row in a]
    while e:
        if e & 1:
            out = [[sum(out[i][k] * base[k][j] for k in range(n)) % p for j in range(n)]
                   for i in range(n)]
        base = [[sum(base[i][k] * base[k][j] for k in range(n)) % p for j in range(n)]
                for i in range(n)]
        e >>= 1
    return out


def _linear_comps(a: List[List[int]]) -> List[Dict]:
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [{units[k]: Fraction(a[j][k]) for k in range(3) if a[j][k]} for j in range(3)]


def tangency_argv(rng: random.Random, command: str, deg: int, n_omegas: int,
                  cofactor_deg: int, p: Optional[int] = None) -> List[str]:
    """A tangency (or p-curvature) instance whose verdict must be YES.

    The field is linear, v = A x.  Each 1-form is w = sum_i (a_i g_i + q_i) dx_i
    with ideal generators g, seeded cofactors a_i of degree ``cofactor_deg``
    and a syzygy part q = (u_2 r, -u_1 r, 0) that the tested field u kills,
    so the contraction w(u) = sum_i a_i u_i g_i lies in the ideal with
    cofactors of degree cofactor_deg + 1 <= deg.  For pcurvature the tested
    field is the p-th Frobenius power, u = A^p x mod p, computed here.
    """
    if cofactor_deg + 1 > deg:
        raise ValueError("certificate degree exceeds the search bound")
    gens = [_seeded_poly(rng, s) for s in TG_GENS]
    a = _linear_field_matrix(rng)
    u = _linear_comps(_matpow_mod(a, p, p) if p else a)
    cof_support = [e for e in _monomials(3, cofactor_deg) if sum(e) == cofactor_deg][:3] \
        + [(0, 0, 0)]
    argv = [command, "--vars", ",".join(TG_VARS),
            "--field", _form_str(_linear_comps(a), TG_VARS, "D")]
    for _ in range(n_omegas):
        r = _seeded_poly(rng, TG_SYZYGY)
        comps = [_pmul(_seeded_poly(rng, cof_support), gens[i % len(gens)]) for i in range(3)]
        comps[0] = _padd(comps[0], _pmul(u[1], r))
        comps[1] = _padd(comps[1], _pneg(_pmul(u[0], r)))
        argv += ["--omega", _form_str(comps, TG_VARS, "d")]
    for g in gens:
        argv += ["--ideal", _poly_str(g, TG_VARS)]
    if p:
        argv += ["--p", str(p)]
    return argv + ["--deg", str(deg)]


# -- the exact 2F1(1/2,1/2;1|z) oracle -------------------------------------------------


class Hyp2F1Oracle:
    """F(z) = sum_n c_n z^n with c_n = (binom(2n, n) / 4^n)^2, each coefficient
    rounded once from its exact rational value.  Since c_{n+1} < c_n the tail
    after n terms is at most c_n z^n / (1 - z); summation is exact up to
    math.fsum's rounding and the rounding of the powers z^n."""

    def __init__(self):
        self._coeffs: List[float] = []
        self._binom = 1  # binom(2n, n) for n = len(self._coeffs)

    def _coeff(self, n: int) -> float:
        while len(self._coeffs) <= n:
            k = len(self._coeffs)
            self._coeffs.append(self._binom * self._binom / 16 ** k)
            self._binom = self._binom * (2 * k + 1) * (2 * k + 2) // ((k + 1) * (k + 1))
        return self._coeffs[n]

    def value(self, z: float, eps: float = 1e-16) -> Tuple[float, float]:
        """(F(z), bound on |error|) for 0 <= z < 1."""
        if not 0.0 <= z < 1.0:
            raise ValueError(f"z = {z} outside [0, 1)")
        terms = []
        zp = 1.0
        n = 0
        while True:
            c = self._coeff(n)
            terms.append(c * zp)
            n += 1
            zp *= z
            tail = self._coeff(n) * zp / (1.0 - z)
            if tail < eps:
                break
        total = math.fsum(terms)
        rounding = 4 * n * 2.0 ** -53 * total  # coefficient, power and product roundings
        return total, tail + rounding

    def tau(self, t: float) -> float:
        return self.value(1.0 - t)[0] / self.value(t)[0]


# -- workloads ---------------------------------------------------------------------------


@dataclass
class Command:
    argv: List[str]
    check: Callable[[bytes], Optional[str]]  # None when the output is correct


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[int, Size, Path], List[Command]]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cached(check: Callable[[bytes], Optional[str]]) -> Callable[[bytes], Optional[str]]:
    """Identical bytes get the identical verdict: check each distinct output once."""
    seen: Dict[str, Optional[str]] = {}

    def run(out: bytes) -> Optional[str]:
        key = _sha256(out)
        if key not in seen:
            seen[key] = check(out)
        return seen[key]
    return run


def _write_config(size: Size, workdir: Path) -> str:
    path = workdir / f"quartic_d4_D{size.truncation}.json"
    path.write_text(json.dumps({"n": 2, "d": 4, "I": QUARTIC_I4,
                                "truncation": size.truncation, "beta": "griffiths"}))
    return str(path)


def _table_rows(size: Size) -> List[List[str]]:
    lines = size.table.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def build_quartic(seed: int, size: Size, workdir: Path) -> List[Command]:
    """``denominators`` then ``periods`` on the same quartic config."""
    config = _write_config(size, workdir)
    expected = size.table.read_bytes()

    def check(out: bytes) -> Optional[str]:
        return None if out == expected else f"table differs from {size.table.name}"
    return [Command(["denominators", "--config", config], check),
            Command(["periods", "--config", config], _cached(_periods_check(seed, size)))]


def _periods_check(seed: int, size: Size) -> Callable[[bytes], Optional[str]]:
    from hodgeloci.periods import BetaIndex, FamilySpec, period_coefficient

    rng = random.Random(seed)
    table = _table_rows(size)
    family = FamilySpec(2, 4, tuple(map(tuple, QUARTIC_I4)), size.truncation)

    def check(out: bytes) -> Optional[str]:
        if size.periods_sha256 and _sha256(out) != size.periods_sha256:
            return "periods JSON digest differs from the seed commit's"
        results = json.loads(out)["results"]
        if [r["monomial"] for r in results] != [row[0] for row in table]:
            return "basis rows differ from the expected table"
        for r, row in zip(results, table):
            dens = [int(t["c"].split("/")[1]) for t in r["series"]["terms"]]
            if str(math.lcm(*dens)) != row[1]:
                return f"lcm of row {r['monomial']} differs from the expected table"
        for _ in range(SAMPLED_COEFFICIENTS):
            r = rng.choice(results)
            terms = {tuple(t["e"]): Fraction(t["c"]) for t in r["series"]["terms"]}
            if rng.random() < 0.5 and terms:
                a = rng.choice(sorted(terms))
            else:  # a uniform tuple of total degree <= D, most often a zero coefficient
                cuts = sorted(rng.randint(0, size.truncation) for _ in range(4))
                a = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], cuts[3] - cuts[2])
            want = period_coefficient(a, BetaIndex.make(r["beta"], 4), family)
            if terms.get(a, Fraction(0)) != want:
                return f"coefficient of t^{a} in row {r['monomial']} differs from the closed form"
        return None
    return check


def _locus_grid(n: int) -> List[float]:
    lo, hi = 0.05, 0.95
    if n == 1:
        return [0.5]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def build_isogeny(seed: int, size: Size, workdir: Path) -> List[Command]:
    rng = random.Random(seed)
    oracle = Hyp2F1Oracle()
    grid = _locus_grid(size.grid)

    def check(out: bytes) -> Optional[str]:
        lines = out.decode().splitlines()
        if not lines or lines[0] != "t1,t2,residual":
            return "missing header"
        points = [tuple(map(float, l.split(","))) for l in lines[1:] if not l.startswith("#")]
        skipped = [float(l.split("t1=")[1].split()[0]) for l in lines[1:] if l.startswith("#")]
        tau_floor = oracle.tau(1.0 - ISO_DELTA)  # tau decreases; its minimum on the domain
        want_skip = [t1 for t1 in grid if oracle.tau(t1) / ISO_N < tau_floor]
        if len(points) != len(grid) - len(want_skip) or len(skipped) != len(want_skip):
            return (f"kept/skipped {len(points)}/{len(skipped)}, the oracle says "
                    f"{len(grid) - len(want_skip)}/{len(want_skip)}")
        if any(f"{a:.12g}" != f"{b:.12g}" for a, b in zip(skipped, want_skip)):
            return "skipped grid points differ from the oracle's"
        kept = [t1 for t1 in grid if t1 not in want_skip]
        if any(f"{p[0]:.12g}" != f"{t1:.12g}" for p, t1 in zip(points, kept)):
            return "kept grid points differ from the grid"
        if any(not p[2] < ISO_TOL for p in points):
            return "a printed residual is not below --tol"
        for i in sorted(rng.sample(range(len(points)), min(SAMPLED_LOCUS_POINTS, len(points)))):
            t1, t2 = kept[i], points[i][1]
            f1c, e1c = oracle.value(1.0 - t1)
            f2, e2 = oracle.value(t2)
            f2c, e2c = oracle.value(1.0 - t2)
            f1, e1 = oracle.value(t1)
            resid = abs(f1c * f2 - ISO_N * f2c * f1)
            err = f1c * e2 + f2 * e1c + ISO_N * (f2c * e1 + f1 * e2c)
            if resid > ISO_TOL + err:
                return f"tau(t1) = N tau(t2) fails at t1={t1:.12g}: residual {resid:.3e}"
        return None
    argv = ["hypergeo-locus", "--N", str(ISO_N), "--grid", str(size.grid), "--tol", str(ISO_TOL)]
    return [Command(argv, _cached(check))]


def _check_gm(out: bytes) -> Optional[str]:
    from hodgeloci.exprparse import parse_oneform
    from hodgeloci.forms import FormMatrix, PolyContext, integrability_check

    doc = json.loads(out)
    if doc["checks"] != {"dA_eq_AwedgeA": True, "block_span_matches": True}:
        return f"gm reports checks {doc['checks']}"
    xs = doc["x_vars"]
    ctx = PolyContext(GM_VARS + tuple(xs),
                      (False,) * len(GM_VARS) + (True,) + (False,) * (len(xs) - 1))
    a = FormMatrix(ctx, [[parse_oneform(e, ctx) for e in row] for row in doc["A"]])
    return None if integrability_check(a) else "the returned A fails dA = A ^ A"


def _expect_yes(out: bytes) -> Optional[str]:
    return None if out == b"YES\n" else f"verdict {out[:40]!r}, expected YES"


def build_foliation(seed: int, size: Size, workdir: Path) -> List[Command]:
    rng = random.Random(seed)
    matrix = workdir / "gm_connection.json"
    matrix.write_text(json.dumps(gm_matrix(rng, size.blocks)))
    gm = ["gm", "--vars", ",".join(GM_VARS), "--matrix", str(matrix),
          "--m", str(len(size.blocks) - 1), "--blocks", ",".join(map(str, size.blocks))]
    tangency = tangency_argv(rng, "tangency", size.tangency_deg, size.tangency_omegas,
                             size.cofactor_deg)
    pcurv = tangency_argv(rng, "pcurvature", size.pcurv_deg, 1, size.cofactor_deg, PCURV_P)
    return [Command(gm, _cached(_check_gm)), Command(tangency, _expect_yes),
            Command(pcurv, _expect_yes)]


# The two quartic commands share one workload: on a 2-core host whose speed
# drifts by tens of percent over tens of seconds, three workloads leave each
# run 40 s of the time budget, and longer runs give steadier medians.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("quartic",
             "denominators then periods on the D=30 quartic config: the paper's 21-row table "
             "and its 7.9 MB series JSON; kernel, sort, Fraction, SparseSeries, serialization",
             build_quartic),
    Workload("isogeny_locus",
             "hypergeo-locus --N 2 --grid 200: float 2F1 evaluation and bisection only; "
             "never touches the kernel or series",
             build_isogeny),
    Workload("foliation",
             "seeded gm (blocks 1,8,1, 3 params), tangency --deg 6 and pcurvature --p 101: "
             "many small series ops, exprparse, forms, ideals, linalg, modp",
             build_foliation),
)}
