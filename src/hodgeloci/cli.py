"""Command-line front end.

Subcommands: periods, denominators, eq1, griffiths, foliation-check, gm,
pcurvature, sch, tangency, solve-linear, hypergeo-locus, hypergeo-witness,
steenbrink.  All tabular output is comma-delimited with a header row; series
and matrices are emitted in the canonical JSON document format.  Exit codes:
0 success, 1 UNKNOWN verdict, 2 invalid input (a ``ValueError``) or an
output that cannot be written, 3 resource limit, 4 internal error (a failed
self-check or any other unexpected exception).

This module keeps the argument table (``COMMANDS``), ``main`` with its exit
codes, and one thin ``_cmd_<name>(args, out)`` per command that unpacks the
arguments, calls the command's body in the module it runs, imported only
then, writes the output to the text stream ``out`` and returns the exit code.
``main`` gives it stdout (``_Stdout``) or the ``--output`` file
(``_output.OutputFile``), and maps a write that fails to exit 2.
``build_parser().parse_args`` reads a command line of a command name and
``FLAG VALUE`` pairs straight from ``COMMANDS`` (``_plain_args``); any other
command line, such as ``-h``, an abbreviated flag or a usage error, goes to
argparse (``_usage``), which is imported only then and prints the help and
usage texts.  A command imports only the modules it runs; code
that only other commands or the checks run sits in modules of its own
(``forms``, ``sch``, ``solve_linear``, ``duals``), so a process compiles
little that it never runs.  ``json`` is imported only by code that reads or
writes it.  ``run``, the process entry, ends the process after ``main``
without the interpreter's teardown.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, NoReturn, Optional, Sequence

from hodgeloci.errors import ResourceLimit, WriteFailed, report

if TYPE_CHECKING:  # for annotations only; nothing here is imported at run time
    from hodgeloci.forms import FormMatrix
    from hodgeloci.gauss_manin import BlockFoliation, HodgeBlocks


class _Stdout:
    """``sys.stdout``, as it is when ``main`` runs, as the text stream a
    command writes to (with ``--output``, ``_output.OutputFile`` takes its
    place).  An ``OSError`` from a write or the flush raises ``WriteFailed``,
    and fd 1 then points at the null device, so that ``run``'s last flush
    does not fail again.  A stdout that is None (fd 1 was closed when the
    interpreter started) raises ``WriteFailed`` at once."""

    def __init__(self):
        if sys.stdout is None:
            raise WriteFailed("cannot write stdout: Bad file descriptor")
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
    """The JSON document in the file ``path``; a file that cannot be opened or
    read is an input error (exit 2)."""
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"JSON nested too deeply: {path}") from None


def _ints_csv(flag: str, text: str) -> List[int]:
    """The comma-separated integers of ``--flag``; an entry that is empty or
    not an integer is an input error (exit 2)."""
    values = []
    for k, x in enumerate(text.split(","), 1):
        if not x.strip():
            raise ValueError(f"--{flag} entry {k} is empty")
        try:
            values.append(int(x))
        except ValueError:
            raise ValueError(f"--{flag} entry {x!r} is not an integer") from None
    return values


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
    ok = periods.steenbrink_hodge_tate(args.d, _ints_csv("weights", args.weights), args.n)
    return _emit(out, f"hodge_tate: {'true' if ok else 'false'}\n")


def _cmd_foliation_check(args, out) -> int:
    ok = integrability_check(_form_matrix(args))
    return _emit(out, f"integrable: {'true' if ok else 'false'}\n")


def _cmd_solve_linear(args, out) -> int:
    from hodgeloci import solve_linear
    return _emit(out, solve_linear.solve_linear_document(_form_matrix(args), args.order))


def _cmd_gm(args, out) -> int:
    from hodgeloci import gauss_manin
    b = _form_matrix(args)
    blocks = gauss_manin.HodgeBlocks(args.m, tuple(_ints_csv("blocks", args.blocks)))
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
    from hodgeloci import sch
    return _emit(out, sch.sch_output(args.vars, args.field, args.module, args.point))


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
# ``_plain_args`` reads the keywords ``type``, ``action`` (``append`` only),
# ``required`` and ``default``: a row that needs another must be read there too.
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


def _is_value(text: str) -> bool:
    """Whether argparse surely reads ``text``, given after a flag, as that
    flag's value: ``text`` does not start with ``-``; or it is a negative
    number, ``-`` and ASCII digits with at most one ``.`` between digits; or
    its second character is an ASCII digit and it holds a space.  argparse
    reads the last two as values because no option string here is ``-``
    followed by a digit."""
    if not text.startswith("-"):
        return True
    second = text[1:2]
    if second.isascii() and second.isdigit() and " " in text:
        return True
    whole, dot, part = text[1:].partition(".")
    return (whole.isascii() and whole.isdigit()
            and (not dot or (part.isascii() and part.isdigit())))


def _plain_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse builds from ``argv``, if ``argv`` is a command
    name and then ``FLAG VALUE`` pairs, each ``FLAG`` ``--output`` or one of
    the command's flags, spelled in full, each ``VALUE`` one that
    ``_is_value`` takes and its flag's ``type`` converts, with every
    required flag given; None for any other ``argv``."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    name = argv[0]
    flags = {"--output": {}, **dict(COMMANDS[name][1])}
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        keywords = flags.get(flag)
        if keywords is None or not _is_value(value):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if keywords.get("action") == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    args = SimpleNamespace(command=name)
    for flag, keywords in flags.items():
        if flag not in given and keywords.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, keywords.get("default")))
    args.fn = _body(name)
    return args


def _body(name: str):
    """``_cmd_<name>``, looked up when a command line is parsed, so that a
    replaced one (tracer, tests) is the one run."""
    return globals()["_cmd_" + name.replace("-", "_")]


class _CommandLine:
    """The parser ``build_parser`` returns."""

    def parse_args(self, argv: Optional[Sequence[str]] = None):
        """The namespace of ``argv`` (default ``sys.argv[1:]``): from
        ``_plain_args`` if it takes ``argv``, else from argparse
        (``_usage.parser``), which exits with the help or a usage error."""
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _plain_args(argv)
        if args is None:
            from hodgeloci import _usage
            args = _usage.parser().parse_args(argv)
        return args


def build_parser() -> _CommandLine:
    return _CommandLine()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) in process
    and return its exit code; it never exits."""
    out = None
    try:
        args = build_parser().parse_args(argv)
        if args.output == "":
            raise ValueError("--output is empty: an empty path names no file")
        if args.output is not None:
            from hodgeloci._output import OutputFile
            out = OutputFile(args.output)
        else:
            out = _Stdout()
        code = args.fn(args, out)
        out.commit()
        return code
    except SystemExit as exc:  # argparse has written the help or a usage error
        return int(exc.code or 0)
    except WriteFailed as exc:
        report(f"error: {exc}\n")
        return 2
    except ResourceLimit as exc:
        report(f"error: {exc}\n")
        return 3
    except ValueError as exc:  # invalid input; json.JSONDecodeError is one too
        report(f"error: {exc}\n")
        return 2
    except Exception as exc:  # InternalCheckFailed, or a bug: never exit 1 (UNKNOWN)
        import traceback  # only on this path: importing it costs start-up time
        report(f"error: internal: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return 4
    finally:
        if out is not None:
            out.discard()


def run() -> NoReturn:
    """The entry of ``python -m hodgeloci`` and the ``hodgeloci`` script:
    ``main``, a flush of stdout (exit 2 if it fails after a run that did not
    fail) and stderr, then ``os._exit``, which skips the interpreter's
    teardown.  That loses nothing while the package registers no ``atexit``
    handler, ``__del__`` or ``weakref`` callback: keep it so.  Code that
    embeds the package calls ``main``."""
    code = main()
    try:
        _Stdout().commit()
    except WriteFailed as exc:
        if code < 2:  # a failed run has reported its own error
            report(f"error: {exc}\n")
            code = 2
    report("")  # flushes stderr
    os._exit(code)
