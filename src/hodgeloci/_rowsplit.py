"""The row split of a large table: ``split_rows`` computes ``[fn(o, fam) for o
in orbits]`` in forked child processes, where each orbit (``periods.BetaOrbit``)
gives the rows of one kernel run.

The orbits are handed out on demand.  The parent forks every child first, then
writes each orbit's index, in order, as a fixed-size record to one job pipe and
closes it; a child reads the next index whenever it is free, so a slow orbit
holds up only the child that took it.  A child keeps its ``(index, rows)``
pairs until the job pipe is empty and only then pickles them into its own
result pipe, followed by ``None``; the parent reads each result pipe to EOF in
turn, reaps each child, and puts the rows back in orbit order, checking that
every index came back exactly once.  Every input error is raised before this
module is reached (``periods.beta_orbits`` checks each beta), so a row that
raises here is a fault: its child prints the traceback to stderr and ends with
status 1.  A child that fails or dies, or sends an incomplete stream, and an
orbit whose rows come back never or twice are ``WorkerFailed`` (exit 4); a
pipe or child that cannot be made is ``ResourceLimit`` (exit 3).  Every child
is reaped on every path, and each ends with ``os._exit``, so it flushes none of
the parent's buffers.  Only ``periods._map_rows`` imports this module, on the
split branch; the command starts no thread before it, so forking is safe, and
the children reuse the loaded package.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

from hodgeloci.errors import ResourceLimit, WorkerFailed

_RECORD = 8  # bytes of one orbit index in the job pipe
# records per write: POSIX makes a pipe write of at most 512 bytes atomic, so the
# pipe holds whole records only and a child's read of one record gets all of it
_CHUNK = 512 // _RECORD


def split_rows(fn, orbits, fam, workers: int) -> list:
    """``[fn(o, fam) for o in orbits]``, computed by ``workers`` forked children."""
    jobs = []  # the open ends of the job pipe
    children = []  # (pid, read end of its result pipe) of each child not yet reaped
    rows: list = [None] * len(orbits)
    sent = [False] * len(orbits)
    try:
        try:
            jobs += os.pipe()
        except OSError as exc:
            raise ResourceLimit(f"cannot start a row worker: {exc.strerror or exc}") from None
        for _ in range(workers):
            children.append(_fork_rows(fn, orbits, fam, jobs))
        os.close(jobs.pop(0))
        _hand_out(jobs.pop(), len(orbits))
        for number in range(1, workers + 1):
            pid, fh = children[0]
            pairs = _read_pairs(fh)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            fh.close()
            if status or pairs is None:
                how = (f"exit status {status}" if status >= 0
                       else f"signal {-status} ({signal.Signals(-status).name})")
                lost = " before sending all its rows" if pairs is None else ""
                raise WorkerFailed(f"row worker {number} of {workers} ended with {how}{lost}")
            for index, share in pairs:
                if sent[index]:
                    raise WorkerFailed(f"the row workers sent orbit {index + 1} of "
                                       f"{len(orbits)} twice")
                sent[index] = True
                rows[index] = share
    finally:
        # each child is killed before its pipes close: a child that wrote to a
        # closed pipe would print a traceback about it
        for pid, fh in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            fh.close()
        for fd in jobs:
            os.close(fd)
    if not all(sent):
        raise WorkerFailed(f"the row workers sent no rows for orbit {sent.index(False) + 1} "
                           f"of {len(orbits)}")
    return rows


def _hand_out(fd: int, count: int) -> None:
    """Write the indices ``0 .. count - 1`` to the job pipe ``fd`` and close it.
    If every child is gone, the rest are dropped: reading the children's result
    pipes then reports how they ended."""
    try:
        for first in range(0, count, _CHUNK):
            os.write(fd, b"".join(index.to_bytes(_RECORD, "little")
                                  for index in range(first, min(first + _CHUNK, count))))
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)


def _fork_rows(fn, orbits, fam, jobs: list):
    """Fork a child that computes the orbits whose indices it reads from the
    job pipe ``jobs`` (read end, write end); return its pid and the read end of
    its result pipe.  The child never returns."""
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
        os.close(jobs[1])
        pairs = []
        # every row before the first write: the parent drains one result pipe at a time
        while record := os.read(jobs[0], _RECORD):
            index = int.from_bytes(record, "little")
            pairs.append((index, fn(orbits[index], fam)))
        with open(w, "wb") as fh:
            for pair in pairs:
                pickle.dump(pair, fh, pickle.HIGHEST_PROTOCOL)
            pickle.dump(None, fh)
        status = 0
    except Exception:  # a fault: the parent reports the exit status as WorkerFailed
        import traceback

        sys.stderr.write(traceback.format_exc())  # one write: siblings' do not interleave
        sys.stderr.flush()
    finally:
        os._exit(status)


def _read_pairs(fh):
    """The ``(index, rows)`` pairs of a row worker's result pipe, read to EOF;
    ``None`` if the stream ends before its closing ``None`` or runs on after it."""
    pairs = []
    try:
        while (pair := pickle.load(fh)) is not None:
            pairs.append(pair)
    except (EOFError, pickle.UnpicklingError):
        return None
    return None if fh.read() else pairs
