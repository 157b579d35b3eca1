"""Command-line front end.

Subcommands: periods, denominators, eq1, griffiths, foliation-check, gm,
pcurvature, sch, tangency, solve-linear, hypergeo-locus, hypergeo-witness,
steenbrink.  All tabular output is comma-delimited with a header row; series
and matrices are emitted in the canonical JSON document format.  Exit codes:
0 success, 1 UNKNOWN verdict, 2 invalid input, 3 resource limit, 4 internal
error (a failed self-check or any other unexpected exception).

This module keeps the argument table (``COMMANDS``), ``main`` with its exit
codes, and one thin ``_cmd_<name>`` per command that unpacks the arguments and
calls the command's body in the module it runs, imported only then.  A
command's parser is built only when ``parse_args`` selects it
(``_LazySubparsers``), so a process compiles, imports and builds only what its
command runs.  ``json`` is imported only by code that reads or writes it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from hodgeloci.errors import DenominatorDivisibleByP, ResourceLimit, report

if TYPE_CHECKING:  # for annotations only; nothing here is imported at run time
    from hodgeloci.forms import FormMatrix
    from hodgeloci.gauss_manin import BlockFoliation, HodgeBlocks

# ValueError also covers json.JSONDecodeError and every input error of errors.py
# except DenominatorDivisibleByP
_INVALID_INPUT = (ValueError, KeyError, TypeError, OSError, DenominatorDivisibleByP)


def _write_output(text: str, path: Optional[str]) -> int:
    """Write a command's output to ``path``, or to stdout when it is None, and
    flush it: 0, or 2 with one ``error: cannot write`` line on an ``OSError``.
    After a failed stdout write, fd 1 points at the null device, so that the
    flush at interpreter exit neither raises again nor changes the exit code."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
        return 0
    except OSError as exc:
        if not path:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        report(f"error: cannot write {path or 'stdout'}: {exc.strerror or exc}\n")
        return 2


def _load_json(path: str):
    import json
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON nested too deeply: {path}") from None


def _ints_csv(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _form_matrix(args) -> FormMatrix:
    from hodgeloci import exprparse
    ctx = exprparse.parse_context(args.vars, getattr(args, "laurent", None))
    return exprparse.parse_form_matrix(_load_json(args.matrix), ctx)


# The two steps of ``gm`` that ``perfbench/tracer.py`` times, by these names.
def integrability_check(b: FormMatrix) -> bool:
    """``forms.integrability_check``; ``foliation-check`` and ``gm`` call it here."""
    from hodgeloci import forms
    return forms.integrability_check(b)


def block_foliation_forms(b: FormMatrix, blocks: HodgeBlocks) -> BlockFoliation:
    """``gauss_manin.block_foliation_forms``; ``gm`` calls it here."""
    from hodgeloci import gauss_manin
    return gauss_manin.block_foliation_forms(b, blocks)


# -- one thin body per command: unpack the arguments, call the command's module --


def _cmd_periods(args) -> Tuple[str, int]:
    from hodgeloci import periods
    return periods.run_periods_document(_load_json(args.config)), 0


def _cmd_denominators(args) -> Tuple[str, int]:
    from hodgeloci import periods
    return periods.run_denominator_table(_load_json(args.config)), 0


def _cmd_eq1(args) -> Tuple[str, int]:
    from hodgeloci import periods
    series = periods.quartic_full_family_series(args.truncation)
    return series.to_json(args.truncation) + "\n", 0


def _cmd_griffiths(args) -> Tuple[str, int]:
    from hodgeloci import periods
    return periods.griffiths_table(args.d, args.n), 0


def _cmd_steenbrink(args) -> Tuple[str, int]:
    from hodgeloci import periods
    ok = periods.steenbrink_hodge_tate(args.d, _ints_csv(args.weights), args.n)
    return f"hodge_tate: {'true' if ok else 'false'}\n", 0


def _cmd_foliation_check(args) -> Tuple[str, int]:
    return f"integrable: {'true' if integrability_check(_form_matrix(args)) else 'false'}\n", 0


def _cmd_solve_linear(args) -> Tuple[str, int]:
    from hodgeloci import gauss_manin
    return gauss_manin.solve_linear_document(_form_matrix(args), args.order), 0


def _cmd_gm(args) -> Tuple[str, int]:
    from hodgeloci import gauss_manin
    b = _form_matrix(args)
    blocks = gauss_manin.HodgeBlocks(args.m, tuple(_ints_csv(args.blocks)))
    result = block_foliation_forms(b, blocks)
    integrable = integrability_check(b) and integrability_check(result.assembly.a)
    return gauss_manin.gm_document(result, integrable), 0


def _cmd_tangency(args) -> Tuple[str, int]:
    from hodgeloci import ideals
    return ideals.tangency_output(args.vars, args.field, args.omega, args.ideal, args.deg)


def _cmd_pcurvature(args) -> Tuple[str, int]:
    from hodgeloci import pcurvature
    return pcurvature.pcurvature_output(args.vars, args.field, args.omega, args.ideal,
                                        args.p, args.deg)


def _cmd_sch(args) -> Tuple[str, int]:
    from hodgeloci import pcurvature
    return pcurvature.sch_output(args.vars, args.field, args.module, args.point), 0


def _cmd_hypergeo_locus(args) -> Tuple[str, int]:
    from hodgeloci import hypergeo
    return hypergeo.locus_table(args.N, hypergeo.locus_grid(args.grid), args.tol)


def _cmd_hypergeo_witness(args) -> Tuple[str, int]:
    from hodgeloci import hypergeo
    return hypergeo.locus_table(args.N, [args.t1], args.tol)


# -- argument parsing -------------------------------------------------------------

_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_VARS = ("--vars", _REQUIRED)
_FIELD = ("--field", _REQUIRED)
_OMEGA = ("--omega", {"action": "append", "required": True})
_IDEAL = ("--ideal", {"action": "append"})
_TOL = ("--tol", {"type": float, "default": 1e-8})

# The argument table: each command's help line, then its arguments after
# ``--output`` as (flag, ``add_argument`` keywords); its body is ``_cmd_<name>``.
COMMANDS = {
    "periods": ("period series for a deformation family config", [("--config", _REQUIRED)]),
    "denominators": ("denominator table, one row per basis form", [("--config", _REQUIRED)]),
    "eq1": ("independent full quartic-family series (35 monomials)", [("--truncation", _INT)]),
    "griffiths": ("basis of residue classes grouped by pole order",
                  [("--d", _INT), ("--n", _INT)]),
    "steenbrink": ("Hodge-Tate criterion for weighted hypersurfaces",
                   [("--d", _INT), ("--n", _INT),
                    ("--weights", dict(_REQUIRED, help="comma-separated, first weight 1"))]),
    "foliation-check": ("exact dB = B^B integrability check",
                        [_VARS, ("--laurent", {}),
                         ("--matrix", dict(_REQUIRED,
                                           help="JSON array of arrays of 1-form expressions"))]),
    "solve-linear": ("truncated fundamental solution of dY = B*Y",
                     [_VARS, ("--matrix", _REQUIRED), ("--order", _INT)]),
    "gm": ("Hodge-block foliation assembly over the extended context",
           [_VARS, ("--matrix", _REQUIRED), ("--m", _INT),
            ("--blocks", dict(_REQUIRED, help="comma-separated block sizes"))]),
    "tangency": ("bounded tangency check of a field against 1-forms",
                 [_VARS, _FIELD, _OMEGA, _IDEAL, ("--deg", _INT)]),
    "pcurvature": ("tangency of the p-th Frobenius power mod p",
                   [_VARS, _FIELD, _OMEGA, _IDEAL, ("--p", _INT), ("--deg", _INT)]),
    "sch": ("minor ideal of a field against a module of fields",
            [_VARS, _FIELD, ("--module", {"action": "append", "required": True}),
             ("--point", {"help": "comma-separated rational coordinates"})]),
    "hypergeo-locus": ("sample the degree-N isogeny locus",
                       [("--N", _INT), ("--grid", _INT), _TOL]),
    "hypergeo-witness": ("one locus point for a given t1",
                         [("--N", _INT), ("--t1", {"type": float, "required": True}), _TOL]),
}


class _LazySubparsers(argparse._SubParsersAction):
    """Subparsers that ``add_command`` registers by name and help line; each is
    built from its ``COMMANDS`` row only when ``parse_args`` selects it.  The
    help and error texts are those of subparsers built up front."""

    def add_command(self, name: str, help: str) -> None:
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = None

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]  # argparse has checked it against the registered names
        if self._name_parser_map[name] is None:
            sub = self._parser_class(prog=f"{self._prog_prefix} {name}")
            sub.add_argument("--output", default=None, help="write output to this path")
            for flag, keywords in COMMANDS[name][1]:
                sub.add_argument(flag, **keywords)
            # looked up now, so that a replaced _cmd_* (tracer, tests) is the one run
            sub.set_defaults(fn=globals()["_cmd_" + name.replace("-", "_")])
            self._name_parser_map[name] = sub
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hodgeloci",
        description="Exact period series, foliation tangency and Frobenius-power "
                    "checks, and hypergeometric isogeny-locus sampling.")
    top.register("action", "lazy_parsers", _LazySubparsers)
    sub = top.add_subparsers(dest="command", required=True, action="lazy_parsers")
    for name, (help_, _) in COMMANDS.items():
        sub.add_command(name, help_)
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
        report(f"error: {exc}\n")
        return 3
    except _INVALID_INPUT as exc:
        report(f"error: {exc}\n")
        return 2
    except Exception as exc:  # InternalCheckFailed, or a bug: never exit 1 (UNKNOWN)
        import traceback  # only on this path: importing it costs start-up time
        report(f"error: internal: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return 4
    return _write_output(text, args.output) or code


if __name__ == "__main__":
    sys.exit(main())
