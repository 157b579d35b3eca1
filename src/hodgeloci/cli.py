"""Command-line front end.

Subcommands: periods, denominators, eq1, griffiths, foliation-check, gm,
pcurvature, sch, tangency, solve-linear, hypergeo-locus, hypergeo-witness,
steenbrink.  All tabular output is comma-delimited with a header row; series
and matrices are emitted in the canonical JSON document format.  Exit codes:
0 success, 1 UNKNOWN verdict, 2 invalid input, 3 resource limit, 4 internal
error (a failed self-check or any other unexpected exception).

Each subcommand imports the modules it runs in its own body, so a process
compiles and loads only those; ``errors`` stays at module level so that
mapping an exception to an exit code needs no other module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from hodgeloci.errors import DenominatorDivisibleByP, ResourceLimit

if TYPE_CHECKING:  # for annotations only; nothing here is imported at run time
    from fractions import Fraction

    from hodgeloci import periods
    from hodgeloci.forms import FormMatrix, PolyContext
    from hodgeloci.gauss_manin import BlockFoliation, HodgeBlocks

# ValueError also covers json.JSONDecodeError and every input error of errors.py
# except DenominatorDivisibleByP
_INVALID_INPUT = (ValueError, KeyError, TypeError, OSError, DenominatorDivisibleByP)


# -- config and context helpers ---------------------------------------------------


def _config_int(value, field: str) -> int:
    """A config number, which must be a JSON integer: a float such as 4.0, a
    string or a boolean is rejected rather than converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f'config field "{field}": expected a JSON integer, '
                         f'got {json.dumps(value)}')
    return value


def _config_array(value, field: str, of: str = "integers") -> Sequence:
    """A config array of ``of``, which must be a JSON array (or a tuple, from a
    caller that builds the config): anything else is rejected with the field's
    name rather than failing on iteration."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f'config field "{field}": expected a JSON array of {of}, '
                         f'got {json.dumps(value)}')
    return value


def family_from_config(cfg: Mapping) -> periods.FamilySpec:
    from hodgeloci import periods

    try:
        return periods.FamilySpec(
            n=_config_int(cfg["n"], "n"), d=_config_int(cfg["d"], "d"),
            monomials=tuple(tuple(_config_int(x, "I") for x in _config_array(a, "I"))
                            for a in _config_array(cfg["I"], "I", "exponent vectors")),
            truncation=_config_int(cfg["truncation"], "truncation"))
    except KeyError as exc:
        raise ValueError(f"config is missing field {exc.args[0]!r}") from None


def betas_from_config(cfg: Mapping, fam: periods.FamilySpec) -> List[periods.BetaIndex]:
    from hodgeloci import periods

    beta = cfg.get("beta", "griffiths")
    if beta == "griffiths":
        return periods.griffiths_basis(fam.d, fam.n)
    if not isinstance(beta, list):
        raise ValueError('config field "beta" must be "griffiths" or a list of exponent vectors')
    return [periods.BetaIndex.make([_config_int(x, "beta") for x in _config_array(b, "beta")],
                                   fam.d)
            for b in beta]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON nested too deeply: {path}") from None


def _load_config(path: str) -> Mapping:
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _context(args) -> PolyContext:
    from hodgeloci.forms import PolyContext

    names = tuple(n for n in args.vars.split(",") if n)
    laurent_names = set()
    if getattr(args, "laurent", None):
        laurent_names = {n for n in args.laurent.split(",") if n}
    unknown = laurent_names - set(names)
    if unknown:
        raise ValueError(f"laurent flag for unknown variable(s) {sorted(unknown)}")
    return PolyContext(names, tuple(n in laurent_names for n in names))


def _load_form_matrix(path: str, ctx: PolyContext) -> FormMatrix:
    from hodgeloci import exprparse
    from hodgeloci.forms import FormMatrix

    data = _load_json(path)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix file must be a JSON array of arrays of 1-form expressions")
    for i, row in enumerate(data):
        for j, e in enumerate(row):
            if not isinstance(e, str):
                raise ValueError(f"matrix entry [{i}][{j}] is not a 1-form expression "
                                 f"string: {json.dumps(e)}")
    return FormMatrix(ctx, [[exprparse.parse_oneform(e, ctx) for e in row] for row in data])


def _json(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _ints_csv(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _fracs_csv(text: str) -> List[Fraction]:
    from fractions import Fraction

    out = []
    for x in text.split(","):
        if x == "":
            continue
        try:
            out.append(Fraction(x))
        except ZeroDivisionError:
            raise ValueError(f"coordinate {x!r} has a zero denominator") from None
    return out


# -- subcommand bodies ----------------------------------------------------------


# A table whose kernel runs enumerate at least this many tuples, counted as
# orbits x C(truncation + m, m) (one run per symmetry orbit of its rows), splits
# its orbits over forked child processes, which cost a few ms to fork, read and
# reap.  On the 21-row quartic table, one run per row (BENCH_13.json,
# break_even; 2 CPUs, three runs), the split's median was higher for
# denominators at D=14 (64,260 tuples) in every run, lower in 5 of 6 rows at
# D=16 (101,745) and in all 6 at D=18, and lower in every row from D=20
# (223,146) on.
_POOL_TUPLES = 100_000


def _map_rows(fn, betas: Sequence[periods.BetaIndex], fam: periods.FamilySpec) -> list:
    """One row per beta, from ``fn(orbit, fam)``: the rows of one symmetry orbit
    of the betas (``periods.beta_orbits``), in the orbit's row order.  The
    orbits are split over one forked child process per CPU this process may
    run on (``_rowsplit.split_rows``) when there are at least two of each and
    their kernel runs enumerate at least ``_POOL_TUPLES`` tuples; otherwise
    they are computed in this process.  The output is the same either way.
    Every input error, such as a beta of the wrong length, is raised by
    ``beta_orbits`` before any row runs or any child starts; a row that raises
    in a child is ``WorkerFailed`` (exit 4), as any fault of a serial run is.
    """
    from hodgeloci import periods

    orbits = periods.beta_orbits(betas, fam)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(orbits))
    tuples = len(orbits) * comb(fam.truncation + fam.nparams, fam.nparams)
    if workers < 2 or tuples < _POOL_TUPLES:
        shares = [fn(orbit, fam) for orbit in orbits]
    else:
        from hodgeloci._rowsplit import split_rows

        shares = split_rows(fn, orbits, fam, workers)
    rows: list = [None] * len(betas)
    for orbit, share in zip(orbits, shares):
        for row, value in zip(orbit.rows, share):
            rows[row] = value
    return rows


def run_denominator_table(config: Mapping) -> str:
    """One row per basis element: rendered monomial, lcm, factorization.

    Rows are computed by ``_map_rows``, one kernel run per symmetry orbit, and a
    large table's orbits are split over one forked child process per usable
    CPU; the text is the same as a serial run's, and byte-stable across runs.
    """
    from hodgeloci import periods

    fam = family_from_config(config)
    betas = betas_from_config(config, fam)
    rows = []
    for b, prof in zip(betas, _map_rows(periods.orbit_denominator_profiles, betas, fam)):
        rows.append(f"{b.monomial_str()},{prof.lcm},{prof.factorization_str()}\n")
    return "monomial,lcm,factorization\n" + "".join(rows)


def _cmd_denominators(args) -> Tuple[str, int]:
    return run_denominator_table(_load_config(args.config)), 0


def _cmd_periods(args) -> Tuple[str, int]:
    from hodgeloci import periods

    cfg = _load_config(args.config)
    fam = family_from_config(cfg)
    family = {"n": fam.n, "d": fam.d, "I": [list(a) for a in fam.monomials],
              "truncation": fam.truncation}
    betas = betas_from_config(cfg, fam)
    rows = []
    for b, series in zip(betas, _map_rows(periods.orbit_series_json, betas, fam)):
        head = _json({"beta": list(b.beta), "k": b.k, "monomial": b.monomial_str(),
                      "normalization": periods.normalization_text(fam.n, fam.d, b.k)})
        # the series object goes in as the header's last key
        rows.append(f'{head[:-1]},"series":{series}}}')
    return f'{{"family":{_json(family)},"results":[{",".join(rows)}]}}\n', 0


def _cmd_eq1(args) -> Tuple[str, int]:
    from hodgeloci import periods

    return periods.quartic_full_family_series(args.truncation).to_json() + "\n", 0


def _cmd_griffiths(args) -> Tuple[str, int]:
    from hodgeloci import periods

    rows = ["beta,k,monomial"]
    for b in periods.griffiths_basis(args.d, args.n):
        rows.append(f"{' '.join(map(str, b.beta))},{b.k},{b.monomial_str()}")
    return "".join(r + "\n" for r in rows), 0


def _cmd_steenbrink(args) -> Tuple[str, int]:
    from hodgeloci import periods

    ok = periods.steenbrink_hodge_tate(args.d, _ints_csv(args.weights), args.n)
    return f"hodge_tate: {'true' if ok else 'false'}\n", 0


def integrability_check(b: FormMatrix) -> bool:
    """``forms.integrability_check``, imported when called.  ``foliation-check``
    and ``gm`` call it by this name, where ``perfbench/tracer.py`` times it."""
    from hodgeloci import forms

    return forms.integrability_check(b)


def block_foliation_forms(b: FormMatrix, blocks: HodgeBlocks) -> BlockFoliation:
    """``gauss_manin.block_foliation_forms``, imported when called; ``gm`` calls
    it by this name, where ``perfbench/tracer.py`` times it."""
    from hodgeloci import gauss_manin

    return gauss_manin.block_foliation_forms(b, blocks)


def _cmd_foliation_check(args) -> Tuple[str, int]:
    ctx = _context(args)
    b = _load_form_matrix(args.matrix, ctx)
    return f"integrable: {'true' if integrability_check(b) else 'false'}\n", 0


def _cmd_solve_linear(args) -> Tuple[str, int]:
    from hodgeloci.gauss_manin import linear_solve_series

    ctx = _context(args)
    b = _load_form_matrix(args.matrix, ctx)
    y = linear_solve_series(b, args.order)
    doc = {"order": args.order, "Y": [[s.to_doc() for s in row] for row in y]}
    return _json(doc) + "\n", 0


def _cmd_gm(args) -> Tuple[str, int]:
    from hodgeloci import exprparse
    from hodgeloci.gauss_manin import HodgeBlocks

    ctx = _context(args)
    b = _load_form_matrix(args.matrix, ctx)
    blocks = HodgeBlocks(args.m, tuple(_ints_csv(args.blocks)))
    result = block_foliation_forms(b, blocks)
    asm = result.assembly
    ctx_ext = asm.ctx
    doc = {
        "x_vars": list(asm.x_names),
        "S": [[exprparse.poly_to_expr(f, ctx_ext) for f in row] for row in asm.s],
        "C": [exprparse.poly_to_expr(f, ctx_ext) for f in asm.c],
        "A": [[exprparse.oneform_to_expr(f) for f in row] for row in asm.a.entries],
        "foliation": [exprparse.oneform_to_expr(f) for f in asm.foliation_forms],
        "block_equations": [exprparse.oneform_to_expr(f) for f in result.forms],
        "ivhs_block": [[exprparse.oneform_to_expr(f) for f in row]
                       for row in result.ivhs_block.entries],
        "checks": {"dA_eq_AwedgeA": integrability_check(b) and integrability_check(asm.a),
                   "block_span_matches": True},
    }
    return _json(doc) + "\n", 0


def _parse_field_omegas_ideal(args, ctx):
    from hodgeloci import exprparse, ideals

    v = exprparse.parse_field(args.field, ctx)
    omegas = [exprparse.parse_oneform(e, ctx) for e in args.omega]
    gens = tuple(exprparse.parse_poly(e, ctx) for e in (args.ideal or []))
    return v, omegas, ideals.IdealGens(ctx, gens)


def _cmd_tangency(args) -> Tuple[str, int]:
    from hodgeloci import ideals

    ctx = _context(args)
    v, omegas, ibar = _parse_field_omegas_ideal(args, ctx)
    verdict = ideals.tangency_check(v, omegas, ibar, args.deg)
    return verdict + "\n", 0 if verdict == ideals.YES else 1


def _cmd_pcurvature(args) -> Tuple[str, int]:
    from hodgeloci import ideals, pcurvature

    ctx = _context(args)
    v, omegas, ibar = _parse_field_omegas_ideal(args, ctx)
    verdict = pcurvature.pcurvature_tangency(v, omegas, ibar, args.p, args.deg)
    return verdict + "\n", 0 if verdict == ideals.YES else 1


def _cmd_sch(args) -> Tuple[str, int]:
    from hodgeloci import exprparse, pcurvature

    ctx = _context(args)
    v = exprparse.parse_field(args.field, ctx)
    ws = [exprparse.parse_field(e, ctx) for e in args.module]
    if args.point is not None:
        ok = pcurvature.sch_contains_point(v, ws, _fracs_csv(args.point))
        return f"contains: {'true' if ok else 'false'}\n", 0
    lines = [exprparse.poly_to_expr(g, ctx) for g in pcurvature.sch_ideal(v, ws).gens]
    return "".join(l + "\n" for l in lines) if lines else "0\n", 0


def _locus_table(n_iso: int, grid: Sequence[float], tol: float) -> Tuple[str, int]:
    """The sampled locus as CSV rows, then one comment per skipped t1.  Exit
    code 1 (UNKNOWN) when a residual is not below the tolerance, naming each
    such point on stderr; 0 otherwise."""
    from hodgeloci import hypergeo

    sample = hypergeo.sample_locus(n_iso, grid, tol=tol)
    lines = ["t1,t2,residual"]
    lines += [f"{t1:.12g},{t2:.12g},{r:.3e}" for t1, t2, r in sample.points]
    lines += [f"# skipped: t1={t1:.12g} (target ratio out of range)" for t1 in sample.skipped]
    for t1, _, r in sample.flagged:
        print(f"unknown: t1={t1:.12g} has residual {r:.3e}, not below tol {tol:g}",
              file=sys.stderr)
    return "".join(l + "\n" for l in lines), 1 if sample.flagged else 0


def _cmd_hypergeo_locus(args) -> Tuple[str, int]:
    if args.grid < 1:
        raise ValueError("grid must have at least one point")
    lo, hi = 0.05, 0.95
    if args.grid == 1:
        grid = [0.5]
    else:
        step = (hi - lo) / (args.grid - 1)
        grid = [lo + i * step for i in range(args.grid)]
    return _locus_table(args.N, grid, args.tol)


def _cmd_hypergeo_witness(args) -> Tuple[str, int]:
    return _locus_table(args.N, [args.t1], args.tol)


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hodgeloci",
        description="Exact period series, foliation tangency and Frobenius-power "
                    "checks, and hypergeometric isogeny-locus sampling.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--output", default=None, help="write output to this path")
        p.set_defaults(fn=fn)
        return p

    p = add("periods", _cmd_periods, "period series for a deformation family config")
    p.add_argument("--config", required=True)

    p = add("denominators", _cmd_denominators, "denominator table, one row per basis form")
    p.add_argument("--config", required=True)

    p = add("eq1", _cmd_eq1, "independent full quartic-family series (35 monomials)")
    p.add_argument("--truncation", type=int, required=True)

    p = add("griffiths", _cmd_griffiths, "basis of residue classes grouped by pole order")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("steenbrink", _cmd_steenbrink, "Hodge-Tate criterion for weighted hypersurfaces")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated, first weight 1")

    p = add("foliation-check", _cmd_foliation_check, "exact dB = B^B integrability check")
    p.add_argument("--vars", required=True)
    p.add_argument("--laurent", default=None)
    p.add_argument("--matrix", required=True, help="JSON array of arrays of 1-form expressions")

    p = add("solve-linear", _cmd_solve_linear, "truncated fundamental solution of dY = B*Y")
    p.add_argument("--vars", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--order", type=int, required=True)

    p = add("gm", _cmd_gm, "Hodge-block foliation assembly over the extended context")
    p.add_argument("--vars", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--blocks", required=True, help="comma-separated block sizes")

    p = add("tangency", _cmd_tangency, "bounded tangency check of a field against 1-forms")
    p.add_argument("--vars", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--omega", action="append", required=True)
    p.add_argument("--ideal", action="append", default=None)
    p.add_argument("--deg", type=int, required=True)

    p = add("pcurvature", _cmd_pcurvature, "tangency of the p-th Frobenius power mod p")
    p.add_argument("--vars", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--omega", action="append", required=True)
    p.add_argument("--ideal", action="append", default=None)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)

    p = add("sch", _cmd_sch, "minor ideal of a field against a module of fields")
    p.add_argument("--vars", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--module", action="append", required=True)
    p.add_argument("--point", default=None, help="comma-separated rational coordinates")

    p = add("hypergeo-locus", _cmd_hypergeo_locus, "sample the degree-N isogeny locus")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("hypergeo-witness", _cmd_hypergeo_witness, "one locus point for a given t1")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = args.fn(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalCheckFailed, or a bug: never exit 1 (UNKNOWN)
        import traceback  # only on this path: importing it costs start-up time

        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
