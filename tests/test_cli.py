import ast
import contextlib
import errno
import gc
import io
import hashlib
import json
import os
import pathlib
import random
import re
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import hodgeloci
from conftest import families
from hodgeloci import _coeff_kernel_py, _rowsplit, _usage, cli, periods
from hodgeloci.cli import main
from hodgeloci.errors import InternalCheckFailed
from hodgeloci.periods import griffiths_basis, period_series, write_denominator_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

TOY_CONFIG = {
    "n": 2, "d": 4,
    "I": [[1, 3, 0, 0], [0, 1, 3, 0], [0, 0, 1, 3], [3, 0, 0, 1]],
    "truncation": 4,
    "beta": "griffiths",
}


def denominator_table(config):
    """The ``denominators`` table of ``config``, as the command writes it."""
    out = io.StringIO()
    write_denominator_table(config, out)
    return out.getvalue()


TOY_TABLE = denominator_table(TOY_CONFIG)
# an n = 6, d = 5 family whose three monomials fix every coordinate pair: its
# 13,108 Griffiths rows are 13,108 orbits, the largest table the tests split, whose
# job list of 8-byte records is longer than a 64 KiB pipe buffer holds
JOB_PIPE_OVERFLOW = {"n": 6, "d": 5, "truncation": 0, "beta": "griffiths",
                     "I": [[1, 4, 0, 0, 0, 0, 0, 0], [0, 0, 2, 3, 0, 0, 0, 0],
                           [0, 0, 0, 0, 3, 2, 0, 0]]}


# Failures injected into a command body: each must exit 4, never 1 or 2.
CRASHES = {"InternalCheckFailed": InternalCheckFailed("span identity fails"),
           "RuntimeError": RuntimeError("unexpected state"),
           "ZeroDivisionError": ZeroDivisionError("division by zero"),
           "OSError": OSError(errno.EIO, "Input/output error"),
           # only a ValueError is invalid input: a KeyError or TypeError is a bug
           "KeyError": KeyError("missing"),
           "TypeError": TypeError("unsupported operand type(s) for +: 'int' and 'str'")}


def failing(exc):
    def body(*args, **kwargs):
        raise exc
    return body


TEST_PID = os.getpid()
REAL_PROFILES = periods.orbit_denominator_profiles


def exit_in_worker(orbit, fam):
    """An orbit's row function that ends its worker process without a word."""
    os._exit(1)


def kill_in_worker(orbit, fam):
    """An orbit's row function whose worker process is killed by SIGKILL."""
    os.kill(os.getpid(), signal.SIGKILL)


class RowRejected(ValueError):
    """Invalid input whose two-argument constructor does not survive unpickling."""

    def __init__(self, beta, why):
        super().__init__(f"row {beta}: {why}")


class RowBroke(RuntimeError):
    """An internal failure that holds an object pickle refuses."""

    def __init__(self, why):
        super().__init__(why)
        self.hook = lambda: None


def rejected_row(orbit, fam):
    raise RowRejected(orbit.beta.beta, "rejected")


def broken_row(orbit, fam):
    raise RowBroke("broken")


def in_children(fault, marker):
    """``periods.orbit_denominator_profiles`` that runs ``fault(orbit, fam)``
    in the forked row workers, which first create the file ``marker``.  In
    the test process, which is a row worker too, it gives the real profiles,
    but its first row waits until a child has started one, so that a child
    takes at least one orbit."""
    def profiles(orbit, fam):
        if os.getpid() != TEST_PID:
            open(marker, "w").close()
            return fault(orbit, fam)
        deadline = time.monotonic() + 30
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.001)
        return REAL_PROFILES(orbit, fam)
    return profiles


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# the toy table's 21 rows fall into 13 symmetry orbits: a forced split runs them in
# this process and TOY_CHILDREN forked children
TOY_CHILDREN = min(CPUS, 13) - 1
# the worker fault tests give the split three CPUs, so that it forks two children
FAULT_CHILDREN = 2

needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="the row split needs at least 2 usable CPUs")


@pytest.fixture
def three_cpus(monkeypatch):
    """The row split sees three usable CPUs, so that it forks FAULT_CHILDREN children."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child that os.fork starts while the test runs."""
    started = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return started


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# How the row split fails -> (exit code, regular expression of the stderr line
# of main) of a forced split of the toy table over FAULT_CHILDREN children; the
# child that fails first, and the orbit a child drops or repeats, vary from run
# to run.  Each is found before the first byte is written: stdout stays empty.
WORKER_FAILURES = {
    "killed": (4, f"error: internal: WorkerFailed: row worker [12] of {FAULT_CHILDREN} ended "
                  r"with signal 9 \(SIGKILL\) before sending all its rows\n"),
    # a row that raises in a child is a fault whatever its exception: the child
    # prints its row's traceback to stderr and ends with status 1
    "unpicklable_input_error": (4, f"error: internal: WorkerFailed: row worker [12] of "
                                   f"{FAULT_CHILDREN} ended with exit status 1 before sending "
                                   "all its rows\n"),
    "unpicklable_internal_error": (4, f"error: internal: WorkerFailed: row worker [12] of "
                                      f"{FAULT_CHILDREN} ended with exit status 1 before "
                                      "sending all its rows\n"),
    # the parent fails while it reads back the records of its children's orbits
    "merge_fails": (4, "error: internal: RuntimeError: the parent fails\n"),
    "job_file_fails": (3, f"error: cannot start a row worker: {os.strerror(errno.ENOSPC)}\n"),
    # a spool or index file made after the first child is forked
    "spool_file_fails": (3, f"error: cannot start a row worker: {os.strerror(errno.ENOSPC)}\n"),
    "second_fork_fails": (3, f"error: cannot start a row worker: {os.strerror(errno.EAGAIN)}\n"),
    # a child that takes an orbit and ends with status 0 without recording its rows, or
    # that records them twice: the parent checks that every orbit comes back once
    "dropped_orbit": (4, "error: internal: WorkerFailed: the row workers sent no rows for "
                         "orbit [0-9]+ of 13\n"),
    "repeated_orbit": (4, "error: internal: WorkerFailed: the row workers sent orbit [0-9]+ of "
                          "13 twice\n"),
    # a row that raises in the parent: WorkerFailed too, with every child killed and reaped
    "parent_row_raises": (4, "error: internal: WorkerFailed: orbit [0-9]+ of 13 raised "
                             "RowBroke: broken\n"),
}


def inject_worker_failure(case, monkeypatch, forks, tmp_path):
    """Patch the WORKER_FAILURES ``case`` into a forced split of the toy table;
    the number of children that os.fork then starts."""
    def eagain(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def enospc(*args, **kwargs):  # the first temporary file made is the job file
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def parent_fails(*args):
        raise RuntimeError("the parent fails")

    recording_fork = os.fork
    temporary_file = tempfile.TemporaryFile
    write_all = _rowsplit._write_all

    def index_file(data):
        # a child's index file holds "index offset lengths" lines; a row's text holds a comma
        return re.fullmatch(rb"([0-9 ]+\n)+", data)

    def drop_first_orbit(fd, data):
        return write_all(fd, data.partition(b"\n")[2] if index_file(data) else data)

    def repeat_first_orbit(fd, data):
        return write_all(fd, data + data.partition(b"\n")[0] + b"\n" if index_file(data) else data)

    def fork_only_once():
        if forks:
            eagain()
        return recording_fork()

    def no_file_after_a_fork(*args, **kwargs):
        if forks:
            enospc()
        return temporary_file(*args, **kwargs)

    def raise_in_parent(orbit, fam):
        # the children wait until this process has started an orbit, so that it takes one
        if os.getpid() == TEST_PID:
            open(tmp_path / "started", "w").close()
            raise RowBroke("broken")
        deadline = time.monotonic() + 30
        while not os.path.exists(tmp_path / "started") and time.monotonic() < deadline:
            time.sleep(0.001)
        return REAL_PROFILES(orbit, fam)

    rows = {"killed": kill_in_worker, "unpicklable_input_error": rejected_row,
            "unpicklable_internal_error": broken_row, "dropped_orbit": REAL_PROFILES,
            "repeated_orbit": REAL_PROFILES}
    if case in rows:
        monkeypatch.setattr(periods, "orbit_denominator_profiles",
                            in_children(rows[case], tmp_path / "started"))
    if case == "parent_row_raises":
        monkeypatch.setattr(periods, "orbit_denominator_profiles", raise_in_parent)
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    patches = {"merge_fails": (_rowsplit, "_read_all", parent_fails),
               "job_file_fails": (tempfile, "TemporaryFile", enospc),
               "spool_file_fails": (tempfile, "TemporaryFile", no_file_after_a_fork),
               "second_fork_fails": (os, "fork", fork_only_once),
               "dropped_orbit": (_rowsplit, "_write_all", drop_first_orbit),
               "repeated_orbit": (_rowsplit, "_write_all", repeat_first_orbit)}
    if case in patches:
        monkeypatch.setattr(*patches[case])
    return {"job_file_fails": 0, "spool_file_fails": 1,
            "second_fork_fails": 1}.get(case, FAULT_CHILDREN)


def open_fds():
    """The file descriptors this process has open (the listing's own included)."""
    return sorted(os.listdir("/proc/self/fd"))


class Hung(Exception):
    """The code under ``deadline`` ran out of time."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``Hung`` in the test process if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_redirected(argv, redirects, entry=("-m", "hodgeloci")):
    """Exit code, stdout and stderr of the command in a fresh process, started
    as ``python *entry *argv``, with each redirection ``>path`` (stdout) or
    ``2>path`` (stderr) applied; what goes to a file reads as empty."""
    sinks = {1: subprocess.PIPE, 2: subprocess.PIPE}
    for redirect in redirects:
        fd, _, path = redirect.partition(">")
        if not os.path.exists(path):
            pytest.skip(f"no {path} on this system")
        sinks[int(fd or 1)] = open(path, "w")
    try:
        proc = subprocess.run([sys.executable, *entry, *argv], stdout=sinks[1],
                              stderr=sinks[2], text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    finally:
        for sink in sinks.values():
            if sink is not subprocess.PIPE:
                sink.close()
    return proc.returncode, proc.stdout or "", proc.stderr or ""


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(TOY_CONFIG))
    return str(path)


def _poly_str(terms):
    """(c*t1^a*t2^b + ...) from {(a, b): c}; "(0)" when empty."""
    out = ""
    for e, c in sorted(terms.items()):
        mono = "".join(f"*t{v + 1}^{k}" for v, k in enumerate(e) if k)
        sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
        out += f"{sign}{abs(c)}{mono}"
    return f"({out or 0})"


def _d_str(terms):
    """The 1-form d(sum c*t^e), written out by partial derivatives."""
    parts = []
    for v in range(2):
        part = {e[:v] + (e[v] - 1,) + e[v + 1:]: c * e[v] for e, c in terms.items() if e[v]}
        if part:
            parts.append(f"{_poly_str(part)}*d(t{v + 1})")
    return "(" + (" + ".join(parts) or "0") + ")"


def seeded_gm_matrix(rng):
    """B = dY * Y^{-1} over t1, t2 for Y = I + N, with N seeded on the first column
    and the last row (blocks 1,2,1): integrable and transversal.  Y^{-1} = I - N + N^2,
    written as unexpanded products for the expression parser to multiply out."""
    n = [[{} for _ in range(4)] for _ in range(4)]
    for i, j in [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]:
        n[i][j] = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in ((1, 0), (0, 1), (1, 1), (2, 0))}
    y_inv = [[f"{int(i == j)} - {_poly_str(n[i][j])} + "
              + " + ".join(f"{_poly_str(n[i][k])}*{_poly_str(n[k][j])}" for k in range(4))
              for j in range(4)] for i in range(4)]
    return [[" + ".join(f"{_d_str(n[i][k])}*({y_inv[k][j]})" for k in range(4))
             for j in range(4)] for i in range(4)]


# stdout of the gm command on seeded_gm_matrix(random.Random(5)); it must not move
GM_SHA256 = "9ad0c0973088b964bd659d71630d0132089536680f4372bef5fb903642417c27"


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "steenbrink", "--d", "3", "--n", "2", "--weights", "1,1,1,1")
        assert code == 0 and out == "hodge_tate: true\n"

    def test_unknown_verdict_is_exit_one(self, capsys):
        code, out, _ = run(capsys, "tangency", "--vars", "x,y",
                           "--field", "D(x)", "--omega", "x*d(y) + y*d(x)",
                           "--ideal", "x*y", "--deg", "3")
        assert code == 1 and out == "UNKNOWN\n"

    def test_invalid_input_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "d": 4}')
        code, _, err = run(capsys, "denominators", "--config", str(bad))
        assert code == 2 and "error" in err

    def test_unknown_flag_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "griffiths", "--d", "4", "--n", "2", "--bogus", "1")
        assert code == 2

    def test_resource_limit_is_exit_three(self, capsys):
        code, _, err = run(capsys, "pcurvature", "--vars", "x,y",
                           "--field", "x*D(x)", "--omega", "x*d(y) + y*d(x)",
                           "--p", "103", "--deg", "2")
        assert code == 3 and "error" in err

    @pytest.mark.parametrize("argv, code, prefix", [
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "-1"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "nan"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "inf"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "0"], 2, "error: tol"),
        (["hypergeo-witness", "--N", "2", "--t1", "0.5", "--tol", "nan"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "1e-300"], 1, "unknown: t1="),
        (["hypergeo-witness", "--N", "2", "--t1", "0.5", "--tol", "1e-300"], 1, "unknown: t1="),
        (["griffiths", "--d", "4", "--n", "2", "--output", "{missing}"], 2, "error: cannot write"),
        (["griffiths", "--d", "4", "--n", "2", "--output", "{dir}"], 2, "error: cannot write"),
        (["sch", "--vars", "x,y", "--field", "D(x)", "--module", "x*D(x)", "--point", "1"], 2,
         "error: point has 1 coordinates, expected 2"),
        (["sch", "--vars", "x,y", "--field", "(" * 101 + "x" + ")" * 101 + "*D(x)",
          "--module", "D(y)"], 2, "error: parentheses nested deeper than 100"),
        (["gm", "--vars", "t1", "--matrix", "{deep}", "--m", "2", "--blocks", "0,1,0"], 2,
         "error: JSON nested too deeply: "),
        (["denominators", "--config", "{deep}"], 2, "error: JSON nested too deeply: "),
        (["griffiths", "--d", "4", "--n", "2"], 4, "error: internal: InternalCheckFailed: "),
        (["griffiths", "--d", "4", "--n", "2"], 4, "error: internal: RuntimeError: "),
        (["griffiths", "--d", "4", "--n", "2"], 4, "error: internal: ZeroDivisionError: "),
        (["gm", "--vars", "t", "--matrix", "{empty}", "--m", "2", "--blocks", "0,0,0"], 2,
         "error: block sizes are all zero: there are no fiber coordinates"),
        (["gm", "--vars", "t", "--matrix", "{int_entry}", "--m", "2", "--blocks", "0,1,0"], 2,
         "error: matrix entry [0][0] is not a 1-form expression string: 1"),
        (["gm", "--vars", "t", "--matrix", "{object_entry}", "--m", "2", "--blocks", "0,1,0"], 2,
         'error: matrix entry [0][0] is not a 1-form expression string: {"a": 1}'),
        (["steenbrink", "--d", "0", "--n", "2", "--weights", "1,1,1,1"], 2,
         "error: d must be a positive integer"),
        (["steenbrink", "--d", "-4", "--n", "2", "--weights", "1,1,1,1"], 2,
         "error: d must be a positive integer"),
        (["sch", "--vars", "x,y", "--field", "D(x)", "--module", "x*D(x)", "--point", "1/0,1"], 2,
         "error: coordinate '1/0' has a zero denominator"),
        (["denominators", "--config", "{float_d}"], 2,
         'error: config field "d": expected a JSON integer, got 4.5'),
        (["denominators", "--config", "{bool_truncation}"], 2,
         'error: config field "truncation": expected a JSON integer, got true'),
        (["periods", "--config", "{huge_truncation}"], 2,
         'error: config field "truncation": expected a JSON integer, got Infinity'),
        (["denominators", "--config", "{float_monomial}"], 2,
         'error: config field "I": expected a JSON integer, got 3.0'),
        (["periods", "--config", "{string_beta}"], 2,
         'error: config field "beta": expected a JSON integer, got "1"'),
        (["periods", "--config", "{int_beta}"], 2,
         'error: config field "beta": expected a JSON array of integers, got 5'),
        (["denominators", "--config", "{int_monomial}"], 2,
         'error: config field "I": expected a JSON array of integers, got 4'),
        (["denominators", "--config", "{null_monomials}"], 2,
         'error: config field "I": expected a JSON array of exponent vectors, got null'),
        # kernel tables too long for a list: rejected before any kernel run or fork
        (["denominators", "--config", "{giant_truncation}"], 3,
         "error: truncation 10000000000000000000 needs kernel tables of "
         "10000000000000000002 entries, more than a list can hold"),
        (["periods", "--config", "{giant_truncation}"], 3,
         "error: truncation 10000000000000000000 needs kernel tables of "
         "10000000000000000002 entries, more than a list can hold"),
        (["denominators", "--config", "{giant_beta}"], 3,
         "error: beta (100000000000000000000, 2, 0, 2) needs kernel tables of "
         "25000000000000000005 entries, more than a list can hold"),
        (["periods", "--config", "{giant_beta}"], 3,
         "error: beta (100000000000000000000, 2, 0, 2) needs kernel tables of "
         "25000000000000000005 entries, more than a list can hold"),
        # a negative bound is refused without an ideal too, before parsing and before
        # the Frobenius power: "y*d(" does not parse, and p = 103 hits the resource limit
        (["tangency", "--vars", "x,y", "--field", "x*D(x)", "--omega", "y*d(y)", "--deg", "-1"],
         2, "error: degree bound must be non-negative"),
        (["pcurvature", "--vars", "x,y", "--field", "x*D(x)", "--omega", "y*d(", "--p", "103",
          "--deg", "-1"], 2, "error: degree bound must be non-negative"),
        # a variable list with no name in it is refused before any parsing
        (["tangency", "--vars", "", "--field", "0", "--omega", "0", "--deg", "1"], 2,
         "error: --vars names no variable\n"),
        (["pcurvature", "--vars", ",", "--field", "0", "--omega", "0", "--p", "3", "--deg", "1"],
         2, "error: --vars names no variable\n"),
        (["denominators", "--config", "{negative_truncation}"], 2,
         "error: truncation must be non-negative"),
        (["periods", "--config", "{d_one}"], 2, "error: d must be at least 2"),
        (["denominators", "--config", "{list_config}"], 2, "error: config must be a JSON object"),
        (["periods", "--config", "{word_beta}"], 2,
         'error: config field "beta" must be "griffiths" or a list of exponent vectors'),
        (["denominators", "--config", "{light_monomial}"], 2,
         "error: monomial (1, 1, 0, 0) does not have weight 4"),
        (["griffiths", "--d", "1", "--n", "2"], 2, "error: d must be at least 2"),
        (["hypergeo-locus", "--N", "0", "--grid", "5"], 2,
         "error: the isogeny degree must be a positive integer"),
        (["hypergeo-locus", "--N", "2", "--grid", "0"], 2,
         "error: grid must have at least one point"),
        (["solve-linear", "--vars", "t", "--matrix", "{dt}", "--order", "-1"], 2,
         "error: order must be non-negative"),
        (["gm", "--vars", "t", "--matrix", "{dt}", "--m", "3", "--blocks", "1,1,1,1"], 2,
         "error: weight m must be a positive even integer"),
        (["gm", "--vars", "t,x1", "--matrix", "{dt}", "--m", "2", "--blocks", "0,1,0"], 2,
         "error: variable name 'x1' clashes with the base context"),
        (["foliation-check", "--vars", "t", "--laurent", "z", "--matrix", "{dt}"], 2,
         "error: laurent flag for unknown variable(s) ['z']"),
        (["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "x $ d(y)", "--deg", "1"],
         2, "error: unexpected character '$' (at position 2)"),
        (["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "1/0*d(x)", "--deg", "1"],
         2, "error: zero denominator (at position 2)"),
        (["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "d(x)", "--ideal", "d(x)",
          "--deg", "1"], 2, "error: expression contains basis symbols; not a polynomial"),
        # every command reads --vars through exprparse.parse_context: each name is
        # stripped and must be a NAME of the grammar, and there must be one
        (["tangency", "--vars", " ", "--field", "0", "--omega", "0", "--deg", "1"], 2,
         "error: --vars names no variable\n"),
        (["tangency", "--vars", "x,1a", "--field", "0", "--omega", "0", "--deg", "1"], 2,
         "error: variable name '1a' is not a letter or '_' followed by letters, digits or '_'\n"),
        (["gm", "--vars", "t, x y", "--matrix", "{dt}", "--m", "2", "--blocks", "0,1,0"], 2,
         "error: variable name 'x y' is not a letter or '_' followed by letters, digits or '_'\n"),
        (["foliation-check", "--vars", "t", "--laurent", "t,$", "--matrix", "{dt}"], 2,
         "error: variable name '$' is not a letter or '_' followed by letters, digits or '_'\n"),
        (["sch", "--vars", "", "--field", "0", "--module", "0"], 2,
         "error: --vars names no variable\n"),
        (["foliation-check", "--vars", "", "--matrix", "{dt}"], 2,
         "error: --vars names no variable\n"),
        (["solve-linear", "--vars", "", "--matrix", "{dt}", "--order", "1"], 2,
         "error: --vars names no variable\n"),
        (["gm", "--vars", ",", "--matrix", "{dt}", "--m", "2", "--blocks", "0,1,0"], 2,
         "error: --vars names no variable\n"),
        (["eq1", "--truncation", "-1"], 2, "error: truncation must be non-negative\n"),
        # a stderr that cannot be written leaves the exit code as it is
        (["griffiths", "--d", "1", "--n", "2", "2>/dev/full"], 2, ""),
        (["griffiths", "--d", "4", "--n", "2", ">/dev/full", "2>/dev/full"], 2, ""),
        # every coordinate of sch --point must be a rational number; none is skipped
        (["sch", "--vars", "x,y", "--field", "D(x)", "--module", "x*D(x)", "--point", "1,,0"], 2,
         "error: coordinate 2 of the point is empty\n"),
        (["sch", "--vars", "x,y", "--field", "D(x)", "--module", "x*D(x)", "--point", "1,0,"], 2,
         "error: coordinate 3 of the point is empty\n"),
        (["sch", "--vars", "x,y", "--field", "D(x)", "--module", "x*D(x)", "--point", ",1,0"], 2,
         "error: coordinate 1 of the point is empty\n"),
        (["sch", "--vars", "x,y", "--field", "D(x)", "--module", "x*D(x)", "--point", "a"], 2,
         "error: coordinate 'a' is not a rational number\n"),
        (["sch", "--vars", "x,y", "--field", "D(x)", "--module", "x*D(x)", "--point", "1,x/2"],
         2, "error: coordinate 'x/2' is not a rational number\n"),
        # every entry of --blocks and --weights must be an integer; none is skipped
        (["gm", "--vars", "t", "--matrix", "{dt}", "--m", "2", "--blocks", "1,,8,1"], 2,
         "error: --blocks entry 2 is empty\n"),
        (["gm", "--vars", "t", "--matrix", "{dt}", "--m", "2", "--blocks", ",1,8,1,"], 2,
         "error: --blocks entry 1 is empty\n"),
        (["gm", "--vars", "t", "--matrix", "{dt}", "--m", "2", "--blocks", "1,8,1,"], 2,
         "error: --blocks entry 4 is empty\n"),
        (["gm", "--vars", "t", "--matrix", "{dt}", "--m", "2", "--blocks", "1,x,1"], 2,
         "error: --blocks entry 'x' is not an integer\n"),
        (["steenbrink", "--d", "3", "--n", "2", "--weights", ",1,1,1,1,"], 2,
         "error: --weights entry 1 is empty\n"),
        (["steenbrink", "--d", "3", "--n", "2", "--weights", "1,1, ,1,1"], 2,
         "error: --weights entry 3 is empty\n"),
        (["steenbrink", "--d", "3", "--n", "2", "--weights", "1,a,1,1"], 2,
         "error: --weights entry 'a' is not an integer\n"),
        # an input file that cannot be read is invalid input; an OSError anywhere
        # else is a fault
        (["denominators", "--config", "{missing}"], 2,
         "error: cannot read {missing}: No such file or directory\n"),
        (["gm", "--vars", "t", "--matrix", "{dir}", "--m", "2", "--blocks", "0,1,0"], 2,
         "error: cannot read {dir}: Is a directory\n"),
        (["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "x*d(y) + y*d(x)",
          "--ideal", "x*y", "--deg", "3"], 4, "error: internal: OSError: "),
        # an empty --output names no file: exit 2 before the command runs
        (["griffiths", "--d", "2", "--n", "2", "--output", ""], 2,
         "error: --output is empty: an empty path names no file\n"),
        (["griffiths", "--d", "2", "--n", "2", "--output="], 2,
         "error: --output is empty: an empty path names no file\n"),
        (["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "x*d(y) + y*d(x)",
          "--ideal", "x*y", "--deg", "3"], 4, "error: internal: KeyError: "),
        (["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "x*d(y) + y*d(x)",
          "--ideal", "x*y", "--deg", "3"], 4, "error: internal: TypeError: "),
    ])
    def test_exit_code_and_stderr_prefix(self, capsys, monkeypatch, tmp_path, argv, code,
                                         prefix):
        files = {"deep": "[" * 100000,  # json.load runs out of stack on it
                 "empty": "[]", "int_entry": "[[1]]", "object_entry": '[[{"a": 1}]]',
                 "float_d": json.dumps(dict(TOY_CONFIG, d=4.5)),
                 "bool_truncation": json.dumps(dict(TOY_CONFIG, truncation=True)),
                 "huge_truncation": json.dumps(TOY_CONFIG).replace('"truncation": 4',
                                                                   '"truncation": 1e400'),
                 "float_monomial": json.dumps(dict(TOY_CONFIG, I=[[1, 3.0, 0, 0]])),
                 "string_beta": json.dumps(dict(TOY_CONFIG, beta=[[1, 1, 1, "1"]])),
                 "int_beta": json.dumps(dict(TOY_CONFIG, beta=[5])),
                 "int_monomial": json.dumps(dict(TOY_CONFIG, I=[4])),
                 "null_monomials": json.dumps(dict(TOY_CONFIG, I=None)),
                 "giant_truncation": json.dumps(dict(TOY_CONFIG, truncation=10 ** 19)),
                 "giant_beta": json.dumps(dict(TOY_CONFIG, beta=[[10 ** 20, 2, 0, 2]],
                                               truncation=2)),
                 "negative_truncation": json.dumps(dict(TOY_CONFIG, truncation=-1)),
                 "d_one": json.dumps(dict(TOY_CONFIG, d=1)),
                 "list_config": "[1, 2]",
                 "word_beta": json.dumps(dict(TOY_CONFIG, beta="x")),
                 "light_monomial": json.dumps(dict(TOY_CONFIG, I=[[1, 1, 0, 0]])),
                 "dt": '[["d(t)"]]'}
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        argv = [a.format(missing=tmp_path / "missing" / "x", dir=tmp_path,
                         **{name: tmp_path / f"{name}.json" for name in files})
                for a in argv]
        prefix = prefix.replace("{missing}", str(tmp_path / "missing" / "x")).replace(
            "{dir}", str(tmp_path))
        if code == 4:  # the command body fails with the exception the prefix names
            crash = failing(CRASHES[prefix.split(": ")[2]])
            if argv[0] == "griffiths":
                monkeypatch.setattr(cli, "_cmd_griffiths", crash)
            else:
                from hodgeloci import linalg
                monkeypatch.setattr(linalg, "solve_many", crash)
        redirects = [a for a in argv if a.startswith((">", "2>"))]
        if redirects:  # a shell redirection: the command runs in a fresh process
            got, out, err = run_redirected([a for a in argv if a not in redirects], redirects)
        else:
            got, out, err = run(capsys, *argv)
        assert got == code and err.startswith(prefix)
        if code in (2, 3, 4):
            assert out == ""
        else:  # an UNKNOWN verdict prints the same table as a passing run
            passing = [a if a != "1e-300" else "1e-8" for a in argv]
            assert run(capsys, *passing)[:2] == (0, out)

    @pytest.mark.parametrize("sink", ["closed_pipe", "dev_full", "closed"])
    @pytest.mark.parametrize("command", ["griffiths", "denominators", "help", "help-buffered",
                                         "griffiths-help", "griffiths-help-buffered"])
    def test_failed_stdout_write_is_exit_two(self, toy_config, command, sink):
        # a write to stdout that fails is one error line and exit 2, with no
        # traceback and no second message from the last flush.  That holds for
        # the help text too, whose write argparse makes: with stdout unbuffered
        # it would drop the error (exit 0), buffered it would leave it to the
        # flush at interpreter exit (exit 120).  A stdout closed before the
        # interpreter starts (sys.stdout is None) cannot be written either
        base = command.removesuffix("-buffered")
        argv = {"griffiths": ["griffiths", "--d", "6", "--n", "4"],
                "denominators": ["denominators", "--config", toy_config],
                "help": ["--help"], "griffiths-help": ["griffiths", "--help"]}[base]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if base.endswith("help"):
            env.pop("PYTHONUNBUFFERED", None)
            if base == command:
                env["PYTHONUNBUFFERED"] = "1"
        if sink == "closed_pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
            reason = "Broken pipe"
        elif sink == "closed":
            stdout = os.open(os.devnull, os.O_WRONLY)  # closed again in the child
            reason = "Bad file descriptor"
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            stdout = os.open("/dev/full", os.O_WRONLY)
            reason = "No space left on device"
        try:
            proc = subprocess.run([sys.executable, "-m", "hodgeloci", *argv], stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, env=env,
                                  preexec_fn=(lambda: os.close(1)) if sink == "closed" else None)
        finally:
            os.close(stdout)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {reason}\n")

    def test_spaces_around_variable_names_are_insignificant(self, capsys):
        argv = ["--field", "x*D(x)", "--omega", "x*d(y) + y*d(x)", "--ideal", "x*y", "--deg", "3"]
        assert run(capsys, "tangency", "--vars", "x, y", *argv) == (0, "YES\n", "")
        assert run(capsys, "tangency", "--vars", " x ,y ", *argv) == (0, "YES\n", "")

    def test_parse_error_is_exit_two(self, capsys):
        code, _, err = run(capsys, "tangency", "--vars", "x,y",
                           "--field", "x*(", "--omega", "d(x)", "--deg", "1")
        assert code == 2 and "error" in err

    def test_failed_import_is_exit_four(self, capsys, monkeypatch):
        # each command imports its modules when it runs, inside main's handlers
        monkeypatch.setitem(sys.modules, "hodgeloci.hypergeo", None)
        monkeypatch.delattr(hodgeloci, "hypergeo", raising=False)
        code, out, err = run(capsys, "hypergeo-locus", "--N", "2", "--grid", "5")
        assert code == 4 and out == ""
        assert err.startswith(("error: internal: ModuleNotFoundError: ",
                               "error: internal: ImportError: "))

    @pytest.mark.parametrize("command", ["denominators", "periods"])
    def test_invalid_row_in_a_worker_is_exit_two(self, capsys, monkeypatch, forks, tmp_path,
                                                 command):
        # BetaIndex.make accepts the 5-entry beta; beta_orbits rejects it before
        # any row runs, so even a forced split of the two rows starts no child
        path = tmp_path / "family.json"
        path.write_text(json.dumps(dict(TOY_CONFIG, beta=[[0, 0, 0, 0], [1, 1, 1, 0, 0]])))
        monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
        assert run(capsys, command, "--config", str(path)) == \
            (2, "", "error: beta (1, 1, 1, 0, 0) does not have 4 entries\n")
        assert forks == []

    @needs_two_cpus
    def test_dead_worker_is_exit_four(self, capsys, forks, monkeypatch, three_cpus, toy_config,
                                      tmp_path):
        monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
        monkeypatch.setattr(periods, "orbit_denominator_profiles",
                            in_children(exit_in_worker, tmp_path / "started"))
        code, out, err = run(capsys, "denominators", "--config", toy_config)
        # the split writes no row before every orbit is done
        assert (code, out) == (4, "")
        assert re.match(f"error: internal: WorkerFailed: row worker [12] of {FAULT_CHILDREN} "
                        "ended with exit status 1 before sending all its rows\n", err)
        assert len(forks) == FAULT_CHILDREN
        assert_no_child_left()

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    @pytest.mark.parametrize("command", ["denominators", "periods"])
    def test_row_raising_value_error_is_exit_four(self, capfd, monkeypatch, forks, toy_config,
                                                  command, split):
        # every input error is raised before any row runs, so a row's ValueError is a
        # fault: exit 4 in a serial run as in a split, never 2
        fn = {"denominators": "orbit_denominator_profiles", "periods": "orbit_series_json"}[command]
        real = getattr(periods, fn)
        serial = run(capfd, command, "--config", toy_config)[1]

        def last_row_fails(orbit, fam):
            if 20 in orbit.rows:
                raise ValueError("bad row")
            return real(orbit, fam)

        monkeypatch.setattr(periods, fn, last_row_fails)
        monkeypatch.setattr(periods, "_POOL_TUPLES", 0 if split else 10 ** 18)
        code, out, err = run(capfd, command, "--config", toy_config)
        parent = "orbit [0-9]+ of 13 raised ValueError: bad row\n"
        child = f"row worker [0-9]+ of {TOY_CHILDREN} ended with exit status 1 "
        assert code == 4
        assert re.search(f"^error: internal: WorkerFailed: ({parent}|{child})", err, re.M)
        # a serial run has written the rows before the failing one; a split writes nothing
        assert out == "" if split and TOY_CHILDREN else serial.startswith(out)
        assert len(forks) == (TOY_CHILDREN if split else 0)
        assert_no_child_left()

    @needs_two_cpus
    @pytest.mark.parametrize("case", list(WORKER_FAILURES))
    def test_failing_worker_exit_code(self, capfd, forks, monkeypatch, three_cpus, toy_config,
                                      tmp_path, case):
        code, pattern = WORKER_FAILURES[case]
        children = inject_worker_failure(case, monkeypatch, forks, tmp_path)
        raised = {"unpicklable_input_error": r"RowRejected: row \([0-9, ]+\): rejected\n",
                  "unpicklable_internal_error": "RowBroke: broken\n"}
        fds = open_fds()
        got, out, err = run(capfd, "denominators", "--config", toy_config)
        found = re.search(pattern, err)
        assert (got, out) == (code, "") and found
        before = err[:found.start()]
        if case in raised:  # the children's tracebacks reach fd 2 before main's report
            assert "Traceback (most recent call last):" in before
            assert re.search(raised[case], before)
        else:
            assert before == ""
        assert len(forks) == children
        assert_no_child_left()
        assert open_fds() == fds

    @needs_two_cpus
    @pytest.mark.parametrize("case", list(WORKER_FAILURES))
    def test_failed_split_leaves_no_output_file(self, capsys, forks, monkeypatch, three_cpus,
                                                toy_config, tmp_path, case):
        code, pattern = WORKER_FAILURES[case]
        children = inject_worker_failure(case, monkeypatch, forks, tmp_path)
        target = tmp_path / "out" / "table.csv"
        target.parent.mkdir()
        got, out, err = run(capsys, "denominators", "--config", toy_config,
                            "--output", str(target))
        assert (got, out) == (code, "") and re.search(pattern, err)
        assert os.listdir(target.parent) == []
        assert len(forks) == children
        assert_no_child_left()

    @needs_two_cpus
    def test_job_list_for_workers_that_are_gone_is_worker_failed(self, capfd, forks,
                                                                  monkeypatch, tmp_path):
        # every child ends before it reads a job: the parent takes every job of the
        # largest table itself, and reports how the children ended
        read = os.read
        path = tmp_path / "family.json"
        path.write_text(json.dumps(JOB_PIPE_OVERFLOW))

        def exit_before_reading(fd, size):
            if os.getpid() != TEST_PID:
                os._exit(1)
            return read(fd, size)

        monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
        monkeypatch.setattr(os, "read", exit_before_reading)
        with deadline(60):
            code, out, err = run(capfd, "denominators", "--config", str(path))
        assert (code, out) == (4, "")
        assert re.match(f"error: internal: WorkerFailed: row worker [0-9]+ of {TOY_CHILDREN} "
                        "ended with exit status 1 before sending all its rows\n", err)
        assert len(forks) == TOY_CHILDREN
        assert_no_child_left()


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, toy_config):
        runs = [run(capsys, "denominators", "--config", toy_config) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_output_flag_writes_file(self, capsys, toy_config, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "denominators", "--config", toy_config,
                           "--output", str(target))
        assert code == 0 and out == ""
        direct = run(capsys, "denominators", "--config", toy_config)[1]
        assert target.read_text() == direct

    def test_periods_output_flag_writes_the_stdout_bytes(self, capsys, toy_config, tmp_path):
        target = tmp_path / "periods.json"
        code, out, _ = run(capsys, "periods", "--config", toy_config, "--output", str(target))
        assert code == 0 and out == ""
        direct = run(capsys, "periods", "--config", toy_config)[1]
        assert target.read_bytes() == direct.encode()


# SHA-256 of `periods` on TOY_CONFIG (the D=4 quartic family, Griffiths basis)
TOY_PERIODS_SHA256 = "ed9239f3a897e021b17f9aae89e5b84a8bd8df72cac95c58d1e590a67947fe86"


def test_toy_periods_output_is_pinned(capsys, toy_config):
    code, out, _ = run(capsys, "periods", "--config", toy_config)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TOY_PERIODS_SHA256


# name -> (config, its count of symmetry orbits): once the cut is 0 a table is
# split over this process and min(CPUs, orbits) - 1 children, and a table of
# fewer than two orbits is not split
POOL_CONFIGS = {
    "toy": (TOY_CONFIG, 13),
    "repeated_row": (dict(TOY_CONFIG, beta=[[1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]]), 2),
    "one_row": (dict(TOY_CONFIG, beta=[[1, 1, 1, 1]]), 1),
    "no_rows": (dict(TOY_CONFIG, beta=[]), 0),
}


@needs_two_cpus
@pytest.mark.parametrize("command", ["denominators", "periods"])
@pytest.mark.parametrize("name", list(POOL_CONFIGS))
def test_pool_rows_equal_serial_rows(capsys, monkeypatch, forks, tmp_path, command, name):
    config, orbits = POOL_CONFIGS[name]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(config))
    serial = run(capsys, command, "--config", str(path))
    assert serial[0] == 0 and forks == []
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    fds = open_fds()
    assert run(capsys, command, "--config", str(path)) == serial
    assert len(forks) == (min(CPUS, orbits) - 1 if orbits >= 2 else 0)
    assert_no_child_left()
    assert open_fds() == fds


@pytest.mark.parametrize("command", ["denominators", "periods"])
def test_more_workers_than_cpus_take_each_orbit_once(capsys, monkeypatch, forks, tmp_path,
                                                     command):
    # six processes race on the job file's one offset over 13,108 orbits: a record
    # read by two of them, or by none, would be exit 4 ("twice" or "no rows")
    path = tmp_path / "family.json"
    path.write_text(json.dumps(JOB_PIPE_OVERFLOW))
    serial = run(capsys, command, "--config", str(path))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    with deadline(60):
        assert run(capsys, command, "--config", str(path)) == serial
    assert serial[0] == 0 and len(forks) == 5
    assert_no_child_left()


@needs_two_cpus
def test_a_slow_orbit_holds_up_only_its_worker(capsys, monkeypatch, forks, toy_config, tmp_path):
    # orbits are handed out on demand: while one process (this one or a child)
    # computes the slow first orbit, the others take every other orbit, and the
    # rows still land in order
    serial = run(capsys, "denominators", "--config", toy_config)
    taken = tmp_path / "taken"
    profiles = periods.orbit_denominator_profiles

    def slow_first_orbit(orbit, fam):
        with open(taken, "a") as fh:
            fh.write(f"{os.getpid()} {orbit.rows[0]}\n")
        if orbit.rows[0] == 0:
            time.sleep(0.5)
        return profiles(orbit, fam)

    monkeypatch.setattr(periods, "orbit_denominator_profiles", slow_first_orbit)
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    assert run(capsys, "denominators", "--config", toy_config) == serial
    pids = dict(line.split()[::-1] for line in taken.read_text().splitlines())
    assert len(pids) == 13  # each orbit computed once, named by its first row
    assert list(pids.values()).count(pids["0"]) == 1
    assert len(forks) == TOY_CHILDREN
    assert_no_child_left()


@pytest.mark.parametrize("command", ["denominators", "periods"])
def test_rows_of_an_ended_child_wait_for_a_slow_one(capsys, monkeypatch, forks, three_cpus,
                                                    toy_config, command):
    # orbit 0 (rows 0 and 4) is slow in whichever process takes it, so a child ends
    # while rows it spooled still wait for that orbit; every row is read back from
    # its spool file only once every child has ended and been reaped, and the
    # table is written only then
    serial = run(capsys, command, "--config", toy_config)
    fn = {"denominators": "orbit_denominator_profiles", "periods": "orbit_series_json"}[command]
    real = getattr(periods, fn)
    read_all = _rowsplit._read_all
    reads = []  # whether every child was reaped, and the stdout so far, at each read-back

    def slow_first_orbit(orbit, fam):
        # every orbit takes a while, so that each process gets some
        time.sleep(0.6 if orbit.rows[0] == 0 else 0.02)
        return real(orbit, fam)

    def reaped(pid):
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        except ChildProcessError:
            return True
        return False

    def recording_read_all(fd, offset, length):
        reads.append((all(reaped(pid) for pid in forks), sys.stdout.getvalue()))
        return read_all(fd, offset, length)

    monkeypatch.setattr(periods, fn, slow_first_orbit)
    monkeypatch.setattr(_rowsplit, "_read_all", recording_read_all)
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main([command, "--config", toy_config]) == serial[0]
    assert sys.stdout.getvalue() == serial[1]
    assert len(forks) == FAULT_CHILDREN
    # one read of each child's index file as it is reaped, with nothing written yet;
    # then one of each of the 21 rows, with every child reaped
    assert [written for _, written in reads[:FAULT_CHILDREN]] == [""] * FAULT_CHILDREN
    assert len(reads) == FAULT_CHILDREN + 21 and all(done for done, _ in reads[FAULT_CHILDREN:])
    assert_no_child_left()


@pytest.mark.parametrize("command", ["denominators", "periods"])
def test_unreadable_spool_file_is_exit_four(capsys, monkeypatch, forks, three_cpus, toy_config,
                                            tmp_path, command):
    # the spool files are the row split's own: a failed read-back is a fault, not
    # bad input, and the --output file is not left behind
    def eio(*args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    monkeypatch.setattr(_rowsplit.os, "pread", eio)
    target = tmp_path / "out" / "table"
    target.parent.mkdir()
    code, out, err = run(capsys, command, "--config", toy_config, "--output", str(target))
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: WorkerFailed: cannot read back a spool or index "
                          f"file: {os.strerror(errno.EIO)}\n")
    assert os.listdir(target.parent) == []
    assert len(forks) == FAULT_CHILDREN
    assert_no_child_left()


@pytest.mark.parametrize("fn", [periods.orbit_denominator_profiles, periods.orbit_series_json])
def test_toy_rows_leave_no_garbage_cycles(fn):
    # _write_rows runs the rows with the cyclic GC off: they must leave nothing it would free
    fam = periods.family_from_config(TOY_CONFIG)
    orbits = periods.beta_orbits(periods.betas_from_config(TOY_CONFIG, fam), fam)
    gc.collect()
    gc.disable()
    try:
        for orbit in orbits:
            fn(orbit, fam)
        assert gc.collect() == 0
    finally:
        gc.enable()


def gc_state_row(orbit, fam):
    """Each row of ``orbit`` is whether the cyclic GC was on while it ran."""
    return [f"{gc.isenabled()}\n"] * len(orbit.rows)


def written_rows(fn, betas, fam):
    """The rows ``periods._write_rows`` writes from ``fn``, whose texts are
    the values ``fn`` gives, one line each."""
    out = io.StringIO()
    periods._write_rows(out, lambda orbit, fam: [f"{v}\n" for v in fn(orbit, fam)], betas, fam,
                        "", "")
    return out.getvalue().splitlines()


def raising_row(orbit, fam):
    raise RowBroke("broken")


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_rows_run_with_the_gc_off_and_its_state_is_restored(capfd, monkeypatch, forks, split,
                                                            enabled):
    fam = periods.family_from_config(TOY_CONFIG)
    betas = periods.betas_from_config(TOY_CONFIG, fam)
    if split:
        monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    (gc.enable if enabled else gc.disable)()
    try:
        out = io.StringIO()
        periods._write_rows(out, gc_state_row, betas, fam, "", "")
        assert out.getvalue() == "False\n" * len(betas)
        assert gc.isenabled() is enabled
        # a row that raises: RowBroke in a serial run, WorkerFailed in a split
        with pytest.raises(RuntimeError):
            periods._write_rows(io.StringIO(), raising_row, betas, fam, "", "")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert len(forks) == (2 * TOY_CHILDREN if split else 0)
    assert_no_child_left()


# name -> (config, its count of symmetry orbits)
ORBIT_CONFIGS = {
    "quartic": (TOY_CONFIG, 13),
    # the three pairs of an n = 4, d = 3 family permuted cyclically: a group of order 3
    "cyclic_pairs": ({"n": 4, "d": 3, "truncation": 5, "beta": "griffiths",
                      "I": [[1, 1, 1, 0, 0, 0], [0, 0, 1, 1, 1, 0], [1, 0, 0, 0, 1, 1]]}, 10),
    "no_symmetry": (dict(TOY_CONFIG, I=[[1, 3, 0, 0], [0, 1, 3, 0]]), 21),
    "duplicates": (dict(TOY_CONFIG, beta=[[2, 2, 0, 0], [1, 1, 1, 1], [0, 0, 2, 2],
                                          [2, 2, 0, 0], [1, 1, 1, 1]]), 2),
    "one_member": (dict(TOY_CONFIG, beta=[[0, 0, 2, 2], [1, 0, 1, 2]]), 2),
    # many more orbits than processes
    "many_orbits": ({"n": 4, "d": 4, "truncation": 2, "beta": "griffiths",
                     "I": [[1, 3, 0, 0, 0, 0], [0, 1, 3, 0, 0, 0], [0, 0, 0, 0, 1, 3]]}, 183),
}


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("name", list(ORBIT_CONFIGS))
def test_orbit_rows_equal_the_per_row_functions(monkeypatch, forks, name, split):
    config, orbits = ORBIT_CONFIGS[name]
    fam = periods.family_from_config(config)
    betas = periods.betas_from_config(config, fam)
    assert len(periods.beta_orbits(betas, fam)) == orbits
    if split:
        monkeypatch.setattr(periods, "_POOL_TUPLES", 0)
    assert written_rows(periods.orbit_denominator_profiles, betas, fam) == \
        [str(periods.denominator_profile(period_series(b, fam))) for b in betas]
    assert written_rows(periods.orbit_series_json, betas, fam) == \
        [period_series(b, fam).series.to_json(fam.truncation) for b in betas]
    # two tables, each split over this process and min(CPUs, orbits) - 1 children
    children = min(CPUS, orbits) - 1
    assert len(forks) == (2 * children if split and children else 0)
    assert_no_child_left()


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("command", ["denominators", "periods"])
@pytest.mark.parametrize("name", list(ORBIT_CONFIGS))
def test_streamed_rows_equal_the_reference_document(capsys, monkeypatch, forks, tmp_path, name,
                                                    command, split):
    # the command streams its rows in row order, with the split forced on or off;
    # the reference is built row by row from period_series
    config, orbits = ORBIT_CONFIGS[name]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(config))
    fam = periods.family_from_config(config)
    if command == "periods":
        expected = to_doc_periods_document(fam, config)
    else:
        expected = "monomial,lcm,factorization\n" + "".join(
            f"{b.monomial_str()},{prof.lcm},{prof.factorization_str()}\n"
            for b, prof in ((b, periods.denominator_profile(period_series(b, fam)))
                            for b in periods.betas_from_config(config, fam)))
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0 if split else 10 ** 18)
    assert run(capsys, command, "--config", str(path)) == (0, expected, "")
    assert len(forks) == (min(CPUS, orbits) - 1 if split else 0)
    assert_no_child_left()


class BrokenPipeAfter:
    """A stdout whose reader goes away after it has read ``writes`` writes."""

    def __init__(self, writes, fd):
        self.written = []
        self.writes = writes
        self.fd = fd

    def write(self, text):
        if len(self.written) == self.writes:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        self.written.append(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("command", ["denominators", "periods"])
def test_stdout_closed_after_the_first_rows_is_exit_two(capsys, monkeypatch, forks, toy_config,
                                                        command, split):
    # the head and two rows reach the reader, then the pipe is closed: one error
    # line, exit 2, and every child killed and reaped
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0 if split else 10 ** 18)
    with open(os.devnull, "w") as sink:
        stdout = BrokenPipeAfter(3, sink.fileno())
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main([command, "--config", toy_config])
    assert (code, capsys.readouterr().err) == (2, "error: cannot write stdout: Broken pipe\n")
    assert len(stdout.written) == 3
    assert len(forks) == (TOY_CHILDREN if split else 0)
    assert_no_child_left()


@pytest.mark.parametrize("case", ["ok", "invalid_input", "resource_limit", "fault_before_output",
                                  "fault_mid_stream"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_output_file_appears_only_on_success(capsys, monkeypatch, tmp_path, case, existing):
    # exits 2, 3 and 4 leave no --output file and an existing one as it was, also
    # after the first rows are written; success replaces it, keeping its mode
    argv = {"ok": ["denominators", "--config", "{toy}"],
            "invalid_input": ["denominators", "--config", "{bad}"],
            "resource_limit": ["periods", "--config", "{giant}"],
            "fault_before_output": ["griffiths", "--d", "4", "--n", "2"],
            "fault_mid_stream": ["denominators", "--config", "{toy}"]}[case]
    files = {"toy": TOY_CONFIG, "bad": {"n": 2}, "giant": dict(TOY_CONFIG, truncation=10 ** 19)}
    configs = tmp_path / "configs"
    configs.mkdir()
    for name, config in files.items():
        (configs / f"{name}.json").write_text(json.dumps(config))
    argv = [a.format(**{name: configs / f"{name}.json" for name in files}) for a in argv]
    target = tmp_path / "out" / "table.csv"
    target.parent.mkdir()
    if existing:
        target.write_text("old\n")
        target.chmod(0o640)
    if case == "fault_before_output":
        monkeypatch.setattr(cli, "_cmd_griffiths", failing(RuntimeError("unexpected state")))
    if case == "fault_mid_stream":  # a serial row fails after five rows are written
        def fail_late(orbit, fam):
            if orbit.rows[0] >= 5:
                raise RuntimeError("unexpected state")
            return REAL_PROFILES(orbit, fam)
        monkeypatch.setattr(periods, "orbit_denominator_profiles", fail_late)
    code, out, _ = run(capsys, *argv, "--output", str(target))
    assert (code, out) == ({"ok": 0, "invalid_input": 2, "resource_limit": 3}.get(case, 4), "")
    assert os.listdir(target.parent) == (["table.csv"] if existing or case == "ok" else [])
    if case == "ok":
        assert target.read_text() == TOY_TABLE
    elif existing:
        assert target.read_text() == "old\n"
    if existing:
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_output_to_a_fifo_is_written_in_place(capsys, tmp_path):
    # a path that is not a regular file, such as a FIFO or a device, is written
    # as it is, not replaced by a renamed file
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code = main(["griffiths", "--d", "4", "--n", "2", "--output", str(fifo)])
    reader.join(timeout=30)
    assert code == 0 and stat.S_ISFIFO(fifo.stat().st_mode)
    assert got == [run(capsys, "griffiths", "--d", "4", "--n", "2")[1]]
    assert os.listdir(tmp_path) == ["fifo"]


@pytest.mark.parametrize("truncation", [0, 3, 9])
@pytest.mark.parametrize("command", ["denominators", "periods"])
def test_one_kernel_run_per_orbit(capsys, monkeypatch, tmp_path, command, truncation):
    # the quartic table's 21 rows fall into 13 orbits of the pair swap; a run of
    # either kernel entry point (the terms, or the lcm pass) counts
    runs = []

    def counted(kernel):
        def counted_kernel(beta, *args):
            runs.append(tuple(beta))
            return kernel(beta, *args)
        return counted_kernel

    for name in ("coefficient_terms", "denominator_lcm"):
        monkeypatch.setattr(_coeff_kernel_py, name, counted(getattr(_coeff_kernel_py, name)))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(dict(TOY_CONFIG, truncation=truncation)))
    assert run(capsys, command, "--config", str(path))[0] == 0
    assert len(runs) == len(set(runs)) == 13


@st.composite
def periods_configs(draw):
    """A family config from the kernel-test families, with "griffiths" or an
    explicit list of basis classes (possibly empty, repeated or reordered)."""
    fam = draw(families())
    basis = [b.beta for b in griffiths_basis(fam.d, fam.n)]
    beta = draw(st.one_of(st.just("griffiths"),
                          st.lists(st.sampled_from(basis), max_size=4)))
    return fam, {"n": fam.n, "d": fam.d, "I": [list(a) for a in fam.monomials],
                 "truncation": fam.truncation, "beta": beta}


def to_doc_periods_document(fam, cfg):
    """The `periods` document built from `period_series` and `SparseSeries.to_doc`."""
    betas = periods.betas_from_config(cfg, fam)
    results = []
    for b in betas:
        ps = period_series(b, fam)
        results.append({"beta": list(b.beta), "k": b.k, "monomial": b.monomial_str(),
                        "normalization": ps.normalization,
                        "series": ps.series.to_doc(fam.truncation)})
    doc = {"family": {"n": fam.n, "d": fam.d, "I": [list(a) for a in fam.monomials],
                      "truncation": fam.truncation},
           "results": results}
    return json.dumps(doc, separators=(",", ":")) + "\n"


@settings(max_examples=60, deadline=None)
@given(periods_configs())
def test_periods_document_matches_the_to_doc_document(case):
    fam, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        config, target = pathlib.Path(tmp, "family.json"), pathlib.Path(tmp, "out.json")
        config.write_text(json.dumps(cfg))
        assert main(["periods", "--config", str(config), "--output", str(target)]) == 0
        assert target.read_bytes() == to_doc_periods_document(fam, cfg).encode()


class TestTableShapes:
    def test_toy_truncation_zero_all_ones(self, capsys, tmp_path):
        cfg = dict(TOY_CONFIG, truncation=0)
        path = tmp_path / "t0.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "denominators", "--config", str(path))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "monomial,lcm,factorization"
        assert len(lines) == 22
        assert all(line.endswith(",1,1") for line in lines[1:])

    def test_griffiths_table(self, capsys):
        code, out, _ = run(capsys, "griffiths", "--d", "4", "--n", "2")
        lines = out.strip().split("\n")
        assert lines[0] == "beta,k,monomial"
        assert len(lines) == 22
        assert lines[1] == "0 0 0 0,1,1"
        assert lines[-1] == "2 2 2 2,3,x0^2*x1^2*x2^2*x3^2"

    def test_eq1_emits_canonical_series(self, capsys):
        code, out, _ = run(capsys, "eq1", "--truncation", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["nvars"] == 35 and doc["truncation"] == 1
        assert len(doc["terms"]) == 9
        assert all(t["c"] == "1/1" for t in doc["terms"])

    def test_eq1_output_is_pinned(self, capsys):
        # the writer prints the --truncation label into the series document
        code, out, _ = run(capsys, "eq1", "--truncation", "3")
        assert code == 0 and out.startswith('{"nvars":35,"truncation":3,"terms":[')
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3b703bec39139549b2803d69be78ef0eb5d823c9ddbc590910a47fc7ab6f7064")

    def test_periods_document(self, capsys, tmp_path):
        cfg = dict(TOY_CONFIG, beta=[[0, 0, 0, 0]], truncation=2)
        path = tmp_path / "b0.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "periods", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["k"] == 1
        assert doc["results"][0]["monomial"] == "1"
        assert "(2*pi*i)^1" in doc["results"][0]["normalization"]


class TestFoliationCommands:
    def test_foliation_check_and_solve(self, capsys, tmp_path):
        matrix = tmp_path / "B.json"
        matrix.write_text(json.dumps([["2*d(z)"]]))
        code, out, _ = run(capsys, "foliation-check", "--vars", "z",
                           "--matrix", str(matrix))
        assert code == 0 and out == "integrable: true\n"
        code, out, _ = run(capsys, "solve-linear", "--vars", "z",
                           "--matrix", str(matrix), "--order", "3")
        doc = json.loads(out)
        assert doc["Y"][0][0]["terms"][1] == {"e": [1], "c": "2/1"}

    def test_solve_linear_output_is_pinned(self, capsys, tmp_path):
        # each entry of Y is written with the --order as its truncation label
        matrix = tmp_path / "B.json"
        matrix.write_text(json.dumps([["2*d(z)"]]))
        code, out, _ = run(capsys, "solve-linear", "--vars", "z",
                           "--matrix", str(matrix), "--order", "3")
        assert code == 0
        assert out == ('{"order":3,"Y":[[{"nvars":1,"truncation":3,"terms":[{"e":[0],"c":"1/1"},'
                       '{"e":[1],"c":"2/1"},{"e":[2],"c":"2/1"},{"e":[3],"c":"4/3"}]}]]}\n')
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0209fb82fbbaaa74f3a9c38ef0b13b1f514738be4a4b86c26873fa0254268c7d")

    def test_non_integrable_reported(self, capsys, tmp_path):
        matrix = tmp_path / "B.json"
        matrix.write_text(json.dumps([["x*d(y)"]]))
        code, out, _ = run(capsys, "foliation-check", "--vars", "x,y",
                           "--matrix", str(matrix))
        assert code == 0 and out == "integrable: false\n"
        code, _, err = run(capsys, "solve-linear", "--vars", "x,y",
                           "--matrix", str(matrix), "--order", "3")
        assert code == 2 and "error" in err

    def test_gm_command(self, capsys, tmp_path):
        matrix = tmp_path / "B.json"
        zero = "0"
        rows = [[zero] * 4 for _ in range(4)]
        rows[0][1] = "d(t1)"
        rows[0][2] = "2*d(t2)"
        matrix.write_text(json.dumps(rows))
        code, out, _ = run(capsys, "gm", "--vars", "t1,t2",
                           "--matrix", str(matrix), "--m", "2", "--blocks", "1,2,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["x_vars"] == ["x1", "x2", "x3"]
        assert doc["checks"]["dA_eq_AwedgeA"] is True
        assert doc["checks"]["block_span_matches"] is True
        assert doc["ivhs_block"] == [["d(t1)", "2*d(t2)"]]

    @pytest.mark.parametrize("rows, names, m, blocks, sha256", [
        (seeded_gm_matrix(random.Random(5)), "t1,t2", 2, "1,2,1", GM_SHA256),
        ([["0*d(t1)"]], "t1", 2, "0,1,0",
         "9c36bc11a854c3084dd0233226751a28f0c199e67f57ac372cb98adf0e05c53b"),
        ([["0", "0", "0"], ["d(t1)", "0", "0"], ["0", "d(t1)", "0"]], "t1", 4, "0,1,1,1,0",
         "79a120368e5caccd0daf654570d808385dc5079dce8b10206aa94d05f157e2e1"),
        # TestBlockFoliation.test_weight_four_blocks' matrix: k * d(t1^2 + t2) on the superdiagonal
        ([[f"{k}*(2*t1*d(t1) + d(t2))" if k else "0" for k in row]
          for row in ((0, 2, 0, 0, 0), (0, 0, -1, 0, 0), (0, 0, 0, 3, 0), (0, 0, 0, 0, 1),
                      (0, 0, 0, 0, 0))], "t1,t2", 4, "1,1,1,1,1",
         "b8266f9566c240fbf4ca2aa772cefa8a39c4e410f7d7a1f2d34d2f1c7608a428"),
        # the benchmark's shape: 10x10 over three parameters, blocks 1,8,1
        (json.loads((GOLDEN / "gm_seed11_blocks181.json").read_text()), "t1,t2,t3", 2, "1,8,1",
         "f572bcdf43a5d153d1d90e29d648c73aabb14b18dd114c02cc033afb0c2fbb86"),
    ], ids=["seeded-1,2,1", "empty-outer-0,1,0", "empty-outer-0,1,1,1,0", "weight-four-1,1,1,1,1",
            "seeded-1,8,1"])
    def test_gm_output_is_pinned(self, capsys, tmp_path, rows, names, m, blocks, sha256):
        matrix = tmp_path / "B.json"
        matrix.write_text(json.dumps(rows))
        code, out, _ = run(capsys, "gm", "--vars", names, "--matrix", str(matrix),
                           "--m", str(m), "--blocks", blocks)
        assert code == 0
        assert json.loads(out)["checks"] == {"dA_eq_AwedgeA": True, "block_span_matches": True}
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_sch_command(self, capsys):
        code, out, _ = run(capsys, "sch", "--vars", "x,y",
                           "--field", "D(x)", "--module", "x*D(x) - y*D(y)")
        assert code == 0 and out == "-y\n"
        code, out, _ = run(capsys, "sch", "--vars", "x,y",
                           "--field", "D(x)", "--module", "x*D(x) - y*D(y)",
                           "--point", "5,0")
        assert code == 0 and out == "contains: true\n"

    def test_pcurvature_yes(self, capsys):
        code, out, _ = run(capsys, "pcurvature", "--vars", "x,y",
                           "--field", "x*D(x)", "--omega", "x*d(y) + y*d(x)",
                           "--ideal", "x*y", "--p", "5", "--deg", "3")
        assert code == 0 and out == "YES\n"


# tangency and pcurvature questions whose field, 1-forms or ideal have mixed
# denominators, with their verdicts: YES (exit 0) or UNKNOWN (exit 1)
RATIONAL_TANGENCY = [
    (["tangency", "--vars", "x,y", "--field", "x*D(x) + 2/3*y*D(y)", "--omega",
      "(1/3*x^2 + 5/7*y)*d(x)", "--ideal", "1/3*x^2 + 5/7*y", "--deg", "2"],
     "YES"),
    (["tangency", "--vars", "x,y,z", "--field", "D(x) - 3/5*D(y)", "--omega",
      "2/9*y*d(x) + 4/11*z*d(y)", "--ideal", "1/3*y - 7/2*z", "--ideal", "5/7*z", "--deg",
      "1"],
     "YES"),
    (["tangency", "--vars", "x,y", "--field", "3/4*x*D(x) - 1/6*y*D(y)", "--omega",
      "1/3*x^2*y*d(x) + 5/7*x^3*d(y)", "--omega", "2/15*y^2*d(y)", "--ideal",
      "1/3*x^2 + 5/7*y", "--ideal", "2/5*x*y - 1/6*y^2", "--deg", "3"],
     "UNKNOWN"),
    (["tangency", "--vars", "x,y", "--field", "D(y)", "--omega",
      "1/3*x^2*d(x) + 5/7*y*d(y)", "--ideal", "1/3*x^2 + 5/7*y", "--deg", "3"],
     "UNKNOWN"),
    (["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "d(x)", "--ideal",
      "1 - 1/3*x", "--deg", "4"],
     "UNKNOWN"),
    (["tangency", "--vars", "x,y", "--field", "1/1000003*x*D(x) + 7/999983*D(y)", "--omega",
      "1/3*x^2*d(x) + 5/7*y*d(y)", "--ideal", "1/3*x^2 + 5/7*y", "--deg", "2"],
     "UNKNOWN"),
    (["tangency", "--vars", "x,y", "--field", "x*D(x)", "--omega",
      "(1/3*x^2 + 5/7*y)*(2/9*x - 4/11*y)*d(x)", "--ideal", "1/3*x^2 + 5/7*y", "--ideal",
      "2/9*x^2 - 4/11*x*y", "--deg", "2"],
     "YES"),
    (["tangency", "--vars", "x,y", "--field", "x*D(x)", "--omega",
      "(1/3*x^2 + 5/7*y)*(2/9*x - 4/11*y)*d(x)", "--ideal", "1/3*x^2 + 5/7*y", "--ideal",
      "2/9*x^2 - 4/11*x*y", "--deg", "1"],
     "UNKNOWN"),
    (["tangency", "--vars", "x,y", "--field", "1/1000003*D(x) + 7/999983*y*D(y)", "--omega",
      "(1/3*x^2 + 5/7*y)*d(x) + 11/13*x*d(y)", "--ideal", "1/3*x^2 + 5/7*y", "--ideal",
      "x*y", "--deg", "2"],
     "YES"),
    (["pcurvature", "--vars", "x,y", "--field", "1/3*x*D(x) + 5/7*y*D(y)", "--omega",
      "(1/3*x^2 + 5/7*y)*d(x)", "--ideal", "1/3*x^2 + 5/7*y", "--p", "11", "--deg", "2"],
     "YES"),
    (["pcurvature", "--vars", "x,y", "--field", "D(y)", "--omega",
      "1/3*x^2*d(x) + 5/7*y*d(y)", "--ideal", "1/3*x^2 + 5/7*y", "--p", "13", "--deg", "2"],
     "YES"),
]
RATIONAL_TANGENCY_IDS = [
    "multiple-of-generator-yes", "three-variables-yes", "two-omegas-unknown",
    "not-in-ideal-unknown", "one-not-in-ideal-unknown", "large-denominators-unknown",
    "cofactor-degree-2-yes", "cofactor-degree-1-unknown", "large-denominators-yes",
    "pcurvature-yes", "pcurvature-nilpotent-yes",
]


@pytest.mark.parametrize("argv, verdict", RATIONAL_TANGENCY, ids=RATIONAL_TANGENCY_IDS)
def test_rational_tangency_verdicts(capsys, argv, verdict):
    code = 0 if verdict == "YES" else 1
    assert run(capsys, *argv) == (code, verdict + "\n", "")


@pytest.mark.parametrize("argv", [RATIONAL_TANGENCY[0][0], RATIONAL_TANGENCY[9][0]],
                         ids=["tangency", "pcurvature"])
def test_a_wrong_certificate_is_exit_four(capsys, monkeypatch, argv):
    """Every YES multiplies its cofactors back: one changed solution entry
    makes the command fail its check (exit 4) instead of printing YES."""
    from hodgeloci import ideals

    solve_many = ideals.linalg.solve_many

    def one_entry_off(rows, ncols, rhss, p=None):
        xs = solve_many(rows, ncols, rhss, p=p)
        for x in xs:
            if x is not None:
                x[0] = (x[0] + 1) % p if p else x[0] + 1
        return xs

    monkeypatch.setattr(ideals.linalg, "solve_many", one_entry_off)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert [l for l in err.splitlines() if l.startswith("error:")] == [
        "error: internal: InternalCheckFailed: the cofactors of a YES do not reproduce the "
        "polynomial"]


# stdout SHA-256 and exit code of the benchmark's foliation command lines
# (perfbench/workloads.build_foliation: gm, tangency, pcurvature) at seeds 1-3
FOLIATION_PINS = {
    1: [("gm", 0, "9db490497c852ae92fddb87ea14808ba9b2a695f6a5a9f8aafc8dacc90330e2e"),
        ("tangency", 0, "a115e91c2e84c3078fa06914eff28d07590ddfaa47a55fb4f31dd7c5b3566194"),
        ("pcurvature", 0, "a115e91c2e84c3078fa06914eff28d07590ddfaa47a55fb4f31dd7c5b3566194")],
    2: [("gm", 0, "115058bd7427ecbf870deec1993fa3bb46ba80c8657dbe1b36f0f98c9060b378"),
        ("tangency", 0, "a115e91c2e84c3078fa06914eff28d07590ddfaa47a55fb4f31dd7c5b3566194"),
        ("pcurvature", 0, "a115e91c2e84c3078fa06914eff28d07590ddfaa47a55fb4f31dd7c5b3566194")],
    3: [("gm", 0, "8b7b3224b1220c37c6d21ef9c52603ab32f13b91a9a4dd2460aeffd0b61c9361"),
        ("tangency", 0, "a115e91c2e84c3078fa06914eff28d07590ddfaa47a55fb4f31dd7c5b3566194"),
        ("pcurvature", 0, "a115e91c2e84c3078fa06914eff28d07590ddfaa47a55fb4f31dd7c5b3566194")],
}


@pytest.mark.parametrize("seed", sorted(FOLIATION_PINS))
def test_benchmark_foliation_outputs_are_pinned(capsys, monkeypatch, tmp_path, seed):
    import importlib

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    got = []
    for command in workloads.build_foliation(seed, workloads.FULL, tmp_path):
        code, out, _ = run(capsys, *command.argv)
        got.append((command.argv[0], code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == FOLIATION_PINS[seed]


class TestHypergeoCommands:
    def test_witness_row(self, capsys):
        code, out, _ = run(capsys, "hypergeo-witness", "--N", "2", "--t1", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t1,t2,residual"
        t1, t2, resid = lines[1].split(",")
        assert abs(float(t2) - 0.970562748477) < 1e-6
        assert float(resid) < 1e-8

    def test_locus_table(self, capsys):
        code, out, _ = run(capsys, "hypergeo-locus", "--N", "1", "--grid", "5",
                           "--tol", "1e-8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t1,t2,residual"
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 5
        for line in data:
            t1, t2, resid = (float(x) for x in line.split(","))
            assert abs(t1 - t2) < 1e-7 and resid < 1e-8

    def test_witness_is_the_one_point_locus_table(self, capsys):
        code, out, _ = run(capsys, "hypergeo-witness", "--N", "2", "--t1", "0.5")
        assert (code, out) == run(capsys, "hypergeo-locus", "--N", "2", "--grid", "1")[:2]
        assert out.startswith("t1,t2,residual\n0.5,0.970562748477,")
        assert out.endswith("e-16\n") and out.count("\n") == 2

    def test_witness_skipped_line(self, capsys):
        code, out, err = run(capsys, "hypergeo-witness", "--N", "2", "--t1", "0.9")
        assert (code, err) == (0, "")
        assert out == "t1,t2,residual\n# skipped: t1=0.9 (target ratio out of range)\n"


def test_module_invocation_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps(TOY_CONFIG))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgeloci", "griffiths", "--d", "2", "--n", "2"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0
    assert proc.stdout == "beta,k,monomial\n0 0 0 0,2,1\n"
    bad = subprocess.run(
        [sys.executable, "-m", "hodgeloci", "nonsense"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert bad.returncode == 2


def test_installed_script_is_the_module_entry():
    # the installed script runs the function that python -m hodgeloci runs
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["hodgeloci"].partition(":")
    tree = ast.parse((ROOT / "src" / "hodgeloci" / "__main__.py").read_text())
    calls = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)]
    imported = {alias.name: node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert (module, name) == ("hodgeloci.cli", "run")
    assert calls == [name] and imported[name] == module


# python -c: replace griffiths' body by one that writes, then fails; then the entry
FAILING_ENTRY = """
from hodgeloci import cli
def broken(args, out):
    out.write("partial\\n")
    raise RuntimeError("unexpected state")
cli._cmd_griffiths = broken
cli.run()
"""


@pytest.mark.parametrize("code", [0, 1, 2, 3, 4])
def test_process_entry_keeps_every_exit_code(capsys, monkeypatch, toy_config, tmp_path, code):
    # python -m hodgeloci ends the process with os._exit after main: stdout is
    # flushed first (also what a failing command wrote), a successful --output
    # is renamed into place, and exits 2-4 write one error line and leave no
    # --output file
    argv = {0: ["periods", "--config", toy_config],
            1: ["tangency", "--vars", "x,y", "--field", "D(x)", "--omega", "x*d(y) + y*d(x)",
                "--ideal", "x*y", "--deg", "3"],
            2: ["denominators", "--config", str(tmp_path / "missing.json")],
            3: ["pcurvature", "--vars", "x,y", "--field", "x*D(x)", "--omega", "d(x)",
                "--p", "103", "--deg", "2"],
            4: ["griffiths", "--d", "4", "--n", "2"]}[code]
    entry = ("-c", FAILING_ENTRY) if code == 4 else ("-m", "hodgeloci")
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # stdout holds what is unflushed

    def one_error_line(err):
        lines = err.splitlines()
        return lines[0].startswith("error: ") and sum(l.startswith("error:") for l in lines) == 1

    got, out, err = run_redirected(argv, [], entry)
    assert got == code
    if code == 0:
        assert main(argv) == 0 and out == capsys.readouterr().out
    elif code == 1:
        assert (out, err) == ("UNKNOWN\n", "")
    else:
        assert out == ("partial\n" if code == 4 else "") and one_error_line(err)
    if code == 4:  # the write that the last flush makes fails too: still exit 4
        got, _, err = run_redirected(argv, [">/dev/full"], entry)
        assert got == 4 and one_error_line(err)
    stdout = out
    target = tmp_path / "out" / "result"
    target.parent.mkdir()
    got, out, err = run_redirected(argv + ["--output", str(target)], [], entry)
    assert (got, out) == (code, "")
    if code in (0, 1):
        assert os.listdir(target.parent) == ["result"]
        assert target.read_bytes() == stdout.encode()
    else:
        assert os.listdir(target.parent) == [] and one_error_line(err)


# Run in a fresh interpreter: the hodgeloci modules a command leaves in
# sys.modules, whether it loaded dataclasses, json or fractions (none of which
# the interpreter or the probe loads), which process-pool modules it loaded,
# the prog of every ArgumentParser built, and how many children it forked.  A
# second argument "split" sets the row split's cut to 0.
IMPORT_PROBE = """
import argparse, ast, io, os, sys
preloaded = [m for m in ("dataclasses", "json", "fractions") if m in sys.modules]
POOL = ("multiprocessing", "concurrent.futures")
built = []
init = argparse.ArgumentParser.__init__
def counted_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted_init
from hodgeloci import cli
argv = ast.literal_eval(sys.argv[1])
forks = []
real_fork = os.fork
def fork():
    pid = real_fork()
    forks.extend([pid] if pid else [])
    return pid
os.fork = fork
if sys.argv[2:] == ["split"]:
    from hodgeloci import periods
    periods._POOL_TUPLES = 0
code = None
if argv is None:
    cli.build_parser()
else:
    sys.stdout = io.StringIO()
    code = cli.main(argv)
    sys.stdout = sys.__stdout__
print(repr({"code": code, "preloaded": preloaded,
            "modules": sorted(m for m in sys.modules if m.split(".")[0] == "hodgeloci"),
            "loaded": [m for m in ("dataclasses", "json", "fractions") if m in sys.modules],
            "pool": [m for m in POOL if m in sys.modules],
            "parsers": built, "forks": len(forks)}))
"""
# tangency and pcurvature load no forms: 2-forms and form matrices are gm's
FOLIATION_MODULES = {"_value", "exprparse", "oneforms", "series"}
TANGENCY_ARGS = ["--vars", "x,y", "--field", "x*D(x)", "--omega", "x*d(y) + y*d(x)",
                 "--ideal", "x*y", "--deg", "3"]


# the table commands work on ints only: they load neither series nor fractions
PERIOD_MODULES = {"_value", "periods", "_coeff_kernel_py"}


@pytest.mark.parametrize("argv, code, modules, split, fractions", [
    (None, None, set(), False, False),
    (["hypergeo-locus", "--N", "2", "--grid", "5"], 0, {"_value", "hypergeo"}, False, False),
    (["denominators", "--config", "{config}"], 0, PERIOD_MODULES, False, False),
    (["periods", "--config", "{config}"], 0, PERIOD_MODULES, False, False),
    (["gm", "--vars", "t1,t2", "--matrix", "{matrix}", "--m", "2", "--blocks", "1,2,1"], 0,
     FOLIATION_MODULES | {"forms", "gauss_manin"}, False, False),
    (["tangency"] + TANGENCY_ARGS, 0, FOLIATION_MODULES | {"ideals", "linalg"}, False, False),
    (["pcurvature", "--p", "5"] + TANGENCY_ARGS, 0,
     FOLIATION_MODULES | {"ideals", "linalg", "modp", "pcurvature"}, False, False),
    (["denominators", "--config", "{config}"], 0, PERIOD_MODULES | {"_rowsplit"}, True, False),
    (["sch", "--vars", "x,y", "--field", "x*D(x)", "--module", "y*D(y)"], 0,
     FOLIATION_MODULES | {"sch"}, False, False),
    (["solve-linear", "--vars", "t1,t2", "--matrix", "{matrix}", "--order", "2"], 0,
     FOLIATION_MODULES | {"forms", "solve_linear"}, False, True),
    (["foliation-check", "--vars", "t1,t2", "--matrix", "{matrix}"], 0,
     FOLIATION_MODULES | {"forms"}, False, False),
    (["tangency"] + TANGENCY_ARGS[:3] + ["1/2*x*D(x)"] + TANGENCY_ARGS[4:], 0,
     FOLIATION_MODULES | {"ideals", "linalg"}, False, True),
    (["sch", "--vars", "x,y", "--field", "x*D(x)", "--module", "y*D(y)", "--point", "1,0"], 0,
     FOLIATION_MODULES | {"sch"}, False, True),
], ids=["build_parser", "hypergeo-locus", "denominators", "periods", "gm", "tangency",
        "pcurvature", "denominators-split", "sch", "solve-linear", "foliation-check",
        "tangency-rational", "sch-point"])
def test_command_imports_only_the_modules_it_runs(tmp_path, argv, code, modules, split,
                                                  fractions):
    config = tmp_path / "family.json"
    config.write_text(json.dumps(TOY_CONFIG))
    matrix = tmp_path / "B.json"
    rows = [["0"] * 4 for _ in range(4)]
    rows[0][1], rows[0][2] = "d(t1)", "2*d(t2)"
    matrix.write_text(json.dumps(rows))
    if argv is not None:
        argv = [a.format(config=config, matrix=matrix) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, repr(argv)]
                          + (["split"] if split else []),
                          capture_output=True, text=True, env=env, cwd=str(tmp_path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = ast.literal_eval(proc.stdout)
    assert got["code"] == code and got["preloaded"] == []
    expected = {"hodgeloci", "hodgeloci.cli", "hodgeloci.errors"}
    assert set(got["modules"]) == expected | {f"hodgeloci.{m}" for m in modules}
    # json only where a command reads or writes JSON; fractions only once a
    # rational value appears: a rational in the input, or solve-linear's
    # series solution, whose coefficients have factorial denominators
    command = argv[0] if argv else None
    assert got["loaded"] == [m for m, used in (
        ("json", command in ("denominators", "periods", "gm", "solve-linear",
                             "foliation-check")),
        ("fractions", fractions)) if used]
    assert got["pool"] == []  # the row split forks plain children at any size
    # a valid command line is parsed without argparse: no ArgumentParser is built
    assert got["parsers"] == []
    assert got["forks"] == (TOY_CHILDREN if split else 0)


# Run in a fresh interpreter that does not import argparse itself: the exit
# code of the command line, and which of argparse, gettext and locale were
# loaded before it ran and after
ARGPARSE_PROBE = """
import ast, io, sys
PARSING = ("argparse", "gettext", "locale")
preloaded = [m for m in PARSING if m in sys.modules]
from hodgeloci import cli
sys.stdout = io.StringIO()
code = cli.main(ast.literal_eval(sys.argv[1]))
sys.stdout = sys.__stdout__
print(repr((code, preloaded, [m for m in PARSING if m in sys.modules])))
"""


@pytest.mark.parametrize("argv, code, loaded", [
    (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "1e-8"], 0, []),
    (["tangency", "--vars", "x,y", "--field", "-2*x*D(x) - 2*y*D(y)",
      "--omega", "-1*x*d(y) + y*d(x)", "--ideal", "x*y", "--deg", "3"], 0, []),
    (["griffiths", "--d", "1", "--n", "2"], 2, []),
    # a usage error is argparse's to print, so it loads all three
    (["griffiths", "--d", "4", "--n", "2", "--bogus", "1"], 2,
     ["argparse", "gettext", "locale"]),
], ids=["hypergeo-locus", "tangency", "invalid-input", "usage-error"])
def test_a_valid_command_line_loads_no_argparse(argv, code, loaded):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", ARGPARSE_PROBE, repr(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert ast.literal_eval(proc.stdout) == (code, [], loaded)


# stdout, stderr and exit code of `hodgeloci -h`, of `-h` for every command, of
# no command, of an unknown command and of a missing required option, as the
# command line printed them when it built every subparser up front (Python
# 3.11's argparse, COLUMNS=80)
PARSER_TEXTS = json.loads((GOLDEN / "parser_texts.json").read_text())


@pytest.mark.parametrize("case", PARSER_TEXTS,
                         ids=[" ".join(c["argv"]) or "no-command" for c in PARSER_TEXTS])
def test_parser_text_is_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# Values given after a flag: ones that start with "-" and that argparse reads
# as a value ("-1", "-1.5", "-3*x - y"; also "-.5", which the plain parse leaves
# to argparse) or as an option ("-x", "-h x"), and numbers that int() and
# float() read in ways of their own (spaces, "_", an Arabic-Indic digit)
FLAG_VALUES = ["", "-1", "-1.5", "-.5", "-x", "-3*x - y", "-h x", "x y", "1e-8", "nan",
               " 3 ", "3_0", "\u0663"]
TYPED_VALUES = {int: ["-1", " 3 ", "3_0", "\u0663", "7"],
                float: ["-1", "-1.5", "1e-8", "nan", " 3 ", "3_0", "\u0663"]}


@st.composite
def command_lines(draw):
    """An argv for one ``COMMANDS`` row: its flags and ``--output``, each with
    a value and some left out, in any order, with up to two edits: a flag
    dropped, repeated, abbreviated or unknown, ``--flag=value``, ``-h`` or
    ``--help``, ``--``, a lone value, or a command name that is not one."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = [("--output", {})] + cli.COMMANDS[name][1]

    def value(keywords):
        typed = TYPED_VALUES.get(keywords.get("type"))
        pools = [FLAG_VALUES] + [typed] * 3 if typed else [FLAG_VALUES]
        return draw(st.sampled_from(draw(st.sampled_from(pools))))

    groups = [[flag, value(keywords)] for flag, keywords in flags
              if draw(st.integers(0, 19)) < (19 if keywords.get("required") else 8)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        flag, keywords = draw(st.sampled_from(flags))
        edit = draw(st.sampled_from(["drop", "repeat", "abbreviate", "unknown", "equals",
                                     "help", "dashdash", "lone", "command"]))
        if edit == "drop" and groups:
            groups.pop(draw(st.integers(0, len(groups) - 1)))
        elif edit == "repeat":
            groups.append([flag, value(keywords)])
        elif edit == "abbreviate" and len(flag) > 3:
            groups.append([flag[:-1], value(keywords)])
        elif edit == "unknown":
            groups.append(["--bogus", value(keywords)])
        elif edit == "equals":
            groups.append([f"{flag}={value(keywords)}"])
        elif edit in ("help", "dashdash", "lone"):
            groups.append([draw(st.sampled_from({"help": ["-h", "--help"], "dashdash": ["--"],
                                                 "lone": FLAG_VALUES}[edit]))])
        elif edit == "command":
            name = draw(st.sampled_from([name[:-1], "bogus", "-h"]))
    argv = [name] + [a for group in draw(st.permutations(groups)) for a in group]
    return argv[draw(st.sampled_from([0] * 9 + [1])):]  # now and then no command


@pytest.fixture
def stubbed_commands(monkeypatch, tmp_path):
    """Every ``_cmd_*`` replaced by a stub that records its namespace and exits
    0, the working directory a fresh one (for ``--output``), COLUMNS=80, and the
    argparse parser built after that, as the reference."""
    seen = []

    def stub(args, out):
        seen.append(attributes(args))
        return 0

    for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
        monkeypatch.setattr(cli, attr, stub)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    return _usage.parser(), seen


def attributes(namespace):
    """The attributes of ``namespace`` by name, each as its ``repr``: so nan is
    nan, and 3 is not 3.0."""
    return {name: repr(value) for name, value in vars(namespace).items()}


def argparse_result(parser, capsys, argv):
    """``attributes`` of argparse's namespace of ``argv`` (None if it exits),
    its exit code (None if it does not), and what it wrote to stdout and
    stderr."""
    try:
        namespace, code = attributes(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, int(exc.code or 0)
    out = capsys.readouterr()
    return namespace, code, out.out, out.err


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_plain_parse_is_argparse_or_declines(capsys, stubbed_commands, argv):
    # where the parser takes argv, its namespace is argparse's; where it
    # declines, main exits with argparse's code and texts, or runs argparse's
    # namespace
    reference, seen = stubbed_commands
    namespace, code, out, err = argparse_result(reference, capsys, argv)
    plain = cli._plain_args(argv)
    if plain is not None:
        assert attributes(plain) == namespace
    else:
        del seen[:]
        got = run(capsys, *argv)
        if namespace is None:
            assert got == (code, out, err)
        else:
            assert got == (0, "", "") and seen == [namespace]


def _fail(*args):
    raise AssertionError("argparse was asked to parse a benchmark command line")


def test_benchmark_command_lines_take_the_plain_parse(capsys, monkeypatch, stubbed_commands,
                                                      tmp_path):
    import importlib

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    argvs = [
        ["hypergeo-locus", "--N", "2", "--grid", "200", "--tol", "1e-08"],
        ["gm", "--vars", "t1,t2,t3", "--matrix", "gm_connection.json", "--m", "2",
         "--blocks", "1,8,1"],
        ["tangency", "--vars", "x,y,z",
         "--field", "-1*z*D(x) - 2*y*D(x) - 1*x*D(x) + 1*z*D(z) - 2*y*D(z) + 1*x*D(z)",
         "--omega", "-3*x*d(x) + 6*z^2*d(x) + 5*y*z*d(x) - 3*z*d(y) + 3*x*d(z)",
         "--omega", "3*z*d(y) - 3*z^2*d(y) + 2*y*z*d(z)",
         "--ideal", "3*x + 2*y*z + 1*x^2", "--ideal", "-3*z + 1*y^2 - 2*x*z", "--deg", "6"],
        ["pcurvature", "--vars", "x,y,z", "--field", "1*z*D(x) + 2*y*D(x) - 2*x*D(y)",
         "--omega", "-3*x*d(x) - 6*z^2*d(x) + 3*z*d(y) + 3*x*d(z)",
         "--ideal", "-3*x - 2*y*z - 1*x^2", "--ideal", "3*z + 1*y^2 - 2*x*z",
         "--p", "101", "--deg", "8"],
        ["griffiths", "--d", "4", "--n", "2", "--output", "table.csv"],
    ]
    for seed in (1, 2, 3):
        for build in (workloads.build_quartic, workloads.build_isogeny,
                      workloads.build_foliation):
            argvs += [command.argv for command in build(seed, workloads.FULL, tmp_path)]
    reference, _ = stubbed_commands
    expected = [argparse_result(reference, capsys, argv)[0] for argv in argvs]
    assert None not in expected
    monkeypatch.setattr(_usage, "parser", _fail)
    assert [attributes(cli.build_parser().parse_args(argv)) for argv in argvs] == expected


@pytest.mark.slow
def test_reference_quartic_table_matches_golden(capsys):
    config = json.loads((ROOT / "configs" / "quartic_surfaces_d4.json").read_text())
    assert denominator_table(config) == (GOLDEN / "quartic_d4_D30_denominators.csv").read_text()


# SHA-256 of `denominators` on the quartic config at truncation 40, the stress size
D40_DENOMINATORS_SHA256 = "1140755eab7fbad9dcfc1cd5fc227cbdceea5cccafc1dc7268f146fc6115c102"


@pytest.mark.slow
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_stress_size_denominators_are_pinned(capsys, monkeypatch, forks, tmp_path, split):
    config = json.loads((ROOT / "configs" / "quartic_surfaces_d4.json").read_text())
    path = tmp_path / "family.json"
    path.write_text(json.dumps(dict(config, truncation=40)))
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0 if split else 10 ** 18)
    code, out, err = run(capsys, "denominators", "--config", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == D40_DENOMINATORS_SHA256
    assert len(forks) == (TOY_CHILDREN if split else 0)
    assert_no_child_left()


# SHA-256 of `periods` on the quartic config at truncation 30 (the reference size)
# and 40 (the stress size)
PERIODS_SHA256 = {30: "81e1fe22fd5dd6fbc5ac21dab35b79fcaece4e14c033b4e5877a2335e133030d",
                  40: "006fe4573f12dd95e1b0cec86f351e0a7711a39a9ed9e7ad5ae07303aba95cf8"}


@pytest.mark.slow
@pytest.mark.parametrize("truncation, split", [(30, False), (30, True), (40, True)],
                         ids=["D30-serial", "D30-split", "D40-split"])
def test_quartic_periods_are_pinned(capsys, monkeypatch, forks, tmp_path, truncation, split):
    config = json.loads((ROOT / "configs" / "quartic_surfaces_d4.json").read_text())
    path = tmp_path / "family.json"
    path.write_text(json.dumps(dict(config, truncation=truncation)))
    monkeypatch.setattr(periods, "_POOL_TUPLES", 0 if split else 10 ** 18)
    code, out, err = run(capsys, "periods", "--config", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PERIODS_SHA256[truncation]
    assert len(forks) == (TOY_CHILDREN if split else 0)
    assert_no_child_left()
