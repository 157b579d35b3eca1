"""The row split of a large table: ``split_rows`` computes ``[fn(o, fam) for o
in orbits]`` in forked child processes, where each orbit (``periods.BetaOrbit``)
gives the rows of one kernel run.

Child ``i`` of ``workers`` computes all of ``orbits[i::workers]`` and only then
pickles their rows into its own pipe, one orbit at a time; the parent reads
each pipe to EOF in turn, reaps each child and puts the orbits back in order,
so it never holds a share's bytes and its rows at once.  Every input error is
raised before this module is reached (``periods.beta_orbits`` checks each
beta), so a row that raises here is a fault: its child prints the traceback to
stderr and ends with status 1.  A child that fails or dies, or sends an
incomplete stream, is ``WorkerFailed`` (exit 4), and a child that cannot be
started is ``ResourceLimit`` (exit 3).  Every child is reaped on every path,
and each ends with ``os._exit``, so it flushes none of the parent's buffers.
Only ``periods._map_rows`` imports this module, on the split branch; the command
starts no thread before it, so forking is safe, and the children reuse the
loaded package.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

from hodgeloci.errors import ResourceLimit, WorkerFailed


def split_rows(fn, orbits, fam, workers: int) -> list:
    """``[fn(o, fam) for o in orbits]``, computed by ``workers`` forked children."""
    children = []  # (pid, read end) of each child not yet reaped
    shares = []
    try:
        for first in range(workers):
            children.append(_fork_rows(fn, orbits, fam, first, workers))
        for first in range(workers):
            pid, fh = children[0]
            with fh:
                share = _read_share(fh, len(orbits[first::workers]))
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
    rows: list = [None] * len(orbits)
    for first, share in enumerate(shares):
        rows[first::workers] = share
    return rows


def _fork_rows(fn, orbits, fam, first: int, workers: int):
    """Fork the child that computes ``orbits[first::workers]``; return its pid
    and the read end of its pipe.  The child never returns."""
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
            # every row before the first write: the parent drains one pipe at a time
            rows = [fn(orbits[index], fam) for index in range(first, len(orbits), workers)]
            for row in rows:
                pickle.dump(row, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    except Exception:  # a fault: the parent reports the exit status as WorkerFailed
        import traceback

        sys.stderr.write(traceback.format_exc())  # one write: siblings' do not interleave
        sys.stderr.flush()
    finally:
        os._exit(status)


def _read_share(fh, count: int):
    """The rows of ``count`` orbits from a row worker's pipe, read to EOF;
    ``None`` if the stream is cut short or runs on."""
    try:
        rows = [pickle.load(fh) for _ in range(count)]
    except (EOFError, pickle.UnpicklingError):
        return None
    return None if fh.read() else rows
