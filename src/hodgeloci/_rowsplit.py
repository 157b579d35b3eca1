"""The row split of a large table: ``split_rows`` computes ``[fn(b, fam) for b
in betas]`` in forked child processes.

Child ``i`` of ``workers`` computes ``betas[i::workers]`` and pickles into its
own pipe the first error its rows raised, or else its rows one by one; the
parent reads each pipe to EOF, reaps each child and puts the rows back in
order, so it never holds a share's bytes and its rows at once.  A row error is
raised here as the serial run would raise it (the one of the lowest row); a
child that dies or sends an incomplete stream is ``WorkerFailed`` (exit 4), and
a child that cannot be started is ``ResourceLimit`` (exit 3).  Every child is
reaped on every path, and each ends with ``os._exit``, so it flushes none of
the parent's buffers.  Only ``cli._map_rows`` imports this module, on the split
branch; the command starts no thread before it, so forking is safe, and the
children reuse the loaded package.
"""

from __future__ import annotations

import os
import pickle
import signal

from hodgeloci.errors import ResourceLimit, WorkerFailed


def split_rows(fn, betas, fam, workers: int) -> list:
    """``[fn(b, fam) for b in betas]``, computed by ``workers`` forked children."""
    children = []  # (pid, read end) of each child not yet reaped
    shares = []
    try:
        for first in range(workers):
            children.append(_fork_rows(fn, betas, fam, first, workers))
        for first in range(workers):
            pid, fh = children[0]
            with fh:
                share = _read_share(fh, len(betas[first::workers]))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status or share is None:
                how = (f"exit status {status}" if status >= 0
                       else f"signal {-status} ({signal.Signals(-status).name})")
                lost = " before sending all its rows" if share is None else ""
                raise WorkerFailed(f"row worker {first + 1} of {workers} ended with {how}{lost}")
            shares.append(share)
    finally:
        for pid, fh in children:
            fh.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    failures = [failure for failure, _ in shares if failure]
    if failures:
        raise min(failures)[1]  # row indices differ, so min compares only them
    rows: list = [None] * len(betas)
    for first, (_, share) in enumerate(shares):
        rows[first::workers] = share
    return rows


def _fork_rows(fn, betas, fam, first: int, workers: int):
    """Fork the child that computes ``betas[first::workers]``; return its pid and
    the read end of its pipe.  The child never returns."""
    try:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
    except OSError as exc:
        raise ResourceLimit(f"cannot start a row worker: {exc.strerror or exc}") from None
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    status = 1
    try:
        os.close(r)
        with open(w, "wb") as fh:
            rows, failure = [], None
            for index in range(first, len(betas), workers):
                try:
                    rows.append(fn(betas[index], fam))
                except Exception as exc:  # sent to the parent, which raises it
                    failure = (index, _sendable(exc))
                    break
            pickle.dump(failure, fh, pickle.HIGHEST_PROTOCOL)
            for row in [] if failure else rows:
                pickle.dump(row, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _read_share(fh, count: int):
    """``(failure, rows)`` from a row worker's pipe, read to EOF: ``failure`` is
    ``None`` or ``(row index, exception)``.  ``None`` if the stream is cut short."""
    try:
        failure = pickle.load(fh)
        rows = [] if failure else [pickle.load(fh) for _ in range(count)]
    except (EOFError, pickle.UnpicklingError):
        return None
    return None if fh.read() else (failure, rows)


def _sendable(exc: Exception) -> Exception:
    """``exc`` if it comes back from pickling as itself; otherwise a stand-in that
    ``main`` maps to the same exit code, with the same message on exits 2 and 3."""
    from hodgeloci.cli import _INVALID_INPUT

    try:
        back = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        if type(back) is type(exc) and str(back) == str(exc):
            return exc
    except Exception:  # any failure to pickle or unpickle means a stand-in
        pass
    if isinstance(exc, ResourceLimit):
        return ResourceLimit(str(exc))
    if isinstance(exc, _INVALID_INPUT):
        return ValueError(str(exc))
    return WorkerFailed(f"a row raised {type(exc).__name__}: {exc}")
