"""Command-line front end.

Subcommands: periods, denominators, eq1, griffiths, foliation-check, gm,
pcurvature, sch, tangency, solve-linear, hypergeo-locus, hypergeo-witness,
steenbrink.  All tabular output is comma-delimited with a header row; series
and matrices are emitted in the canonical JSON document format.  Exit codes:
0 success, 1 UNKNOWN verdict, 2 invalid input, 3 resource limit, 4 internal
error (a failed self-check or any other unexpected exception).

This module keeps the argument table (``COMMANDS``), ``main`` with its exit
codes, and one thin ``_cmd_<name>(args, out)`` per command that unpacks the
arguments, calls the command's body in the module it runs, imported only
then, writes the output to the text stream ``out`` and returns the exit code.
``main`` gives it stdout (``_Stdout``) or the ``--output`` file
(``_output.OutputFile``), and maps a write that fails to exit 2.  A
command's parser is built only when ``parse_args`` selects it
(``_LazySubparsers``), so a process compiles, imports and builds only what
its command runs.  ``json`` is imported only by code that reads or writes it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from hodgeloci.errors import DenominatorDivisibleByP, ResourceLimit, WriteFailed, report

if TYPE_CHECKING:  # for annotations only; nothing here is imported at run time
    from hodgeloci.forms import FormMatrix
    from hodgeloci.gauss_manin import BlockFoliation, HodgeBlocks

# ValueError also covers json.JSONDecodeError and every input error of errors.py
# except DenominatorDivisibleByP
_INVALID_INPUT = (ValueError, KeyError, TypeError, OSError, DenominatorDivisibleByP)


class _Stdout:
    """``sys.stdout``, as it is when ``main`` runs, as the text stream a
    command writes to (with ``--output``, ``_output.OutputFile`` takes its
    place).  An ``OSError`` from a write or the flush raises ``WriteFailed``,
    and fd 1 then points at the null device, so that the flush at
    interpreter exit neither raises again nor changes the exit code."""

    def __init__(self):
        self.stream = sys.stdout

    def write(self, text: str) -> None:
        try:
            self.stream.write(text)
        except OSError as exc:
            self._fail(exc)

    def commit(self) -> None:
        try:
            self.stream.flush()
        except OSError as exc:
            self._fail(exc)

    def discard(self) -> None:
        pass

    def _fail(self, exc: OSError):
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self.stream.fileno())
        os.close(devnull)
        raise WriteFailed(f"cannot write stdout: {exc.strerror or exc}") from None


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


def _emit(out, text: str, code: int = 0) -> int:
    """Write a command's whole output ``text`` to ``out``; its exit code."""
    out.write(text)
    return code


def _cmd_periods(args, out) -> int:
    from hodgeloci import periods
    periods.write_periods_document(_load_json(args.config), out)
    return 0


def _cmd_denominators(args, out) -> int:
    from hodgeloci import periods
    periods.write_denominator_table(_load_json(args.config), out)
    return 0


def _cmd_eq1(args, out) -> int:
    from hodgeloci import periods
    series = periods.quartic_full_family_series(args.truncation)
    return _emit(out, series.to_json(args.truncation) + "\n")


def _cmd_griffiths(args, out) -> int:
    from hodgeloci import periods
    return _emit(out, periods.griffiths_table(args.d, args.n))


def _cmd_steenbrink(args, out) -> int:
    from hodgeloci import periods
    ok = periods.steenbrink_hodge_tate(args.d, _ints_csv(args.weights), args.n)
    return _emit(out, f"hodge_tate: {'true' if ok else 'false'}\n")


def _cmd_foliation_check(args, out) -> int:
    ok = integrability_check(_form_matrix(args))
    return _emit(out, f"integrable: {'true' if ok else 'false'}\n")


def _cmd_solve_linear(args, out) -> int:
    from hodgeloci import gauss_manin
    return _emit(out, gauss_manin.solve_linear_document(_form_matrix(args), args.order))


def _cmd_gm(args, out) -> int:
    from hodgeloci import gauss_manin
    b = _form_matrix(args)
    blocks = gauss_manin.HodgeBlocks(args.m, tuple(_ints_csv(args.blocks)))
    result = block_foliation_forms(b, blocks)
    integrable = integrability_check(b) and integrability_check(result.assembly.a)
    return _emit(out, gauss_manin.gm_document(result, integrable))


def _cmd_tangency(args, out) -> int:
    from hodgeloci import ideals
    return _emit(out, *ideals.tangency_output(args.vars, args.field, args.omega, args.ideal,
                                              args.deg))


def _cmd_pcurvature(args, out) -> int:
    from hodgeloci import pcurvature
    return _emit(out, *pcurvature.pcurvature_output(args.vars, args.field, args.omega,
                                                    args.ideal, args.p, args.deg))


def _cmd_sch(args, out) -> int:
    from hodgeloci import pcurvature
    return _emit(out, pcurvature.sch_output(args.vars, args.field, args.module, args.point))


def _cmd_hypergeo_locus(args, out) -> int:
    from hodgeloci import hypergeo
    return _emit(out, *hypergeo.locus_table(args.N, hypergeo.locus_grid(args.grid), args.tol))


def _cmd_hypergeo_witness(args, out) -> int:
    from hodgeloci import hypergeo
    return _emit(out, *hypergeo.locus_table(args.N, [args.t1], args.tol))


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
    if args.output:
        from hodgeloci._output import OutputFile
        out = OutputFile(args.output)
    else:
        out = _Stdout()
    try:
        code = args.fn(args, out)
        out.commit()
        return code
    except WriteFailed as exc:
        report(f"error: {exc}\n")
        return 2
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
    finally:
        out.discard()


if __name__ == "__main__":
    sys.exit(main())
