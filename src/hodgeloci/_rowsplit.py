"""The row split of a large table: ``split_rows`` writes the rows of a table's
symmetry orbits (``periods.BetaOrbit``) to a text stream in row order, once
this process and ``workers - 1`` forked children have computed
``texts(index)``, the texts of the rows of each orbit ``orbits[index]``.

It runs in two phases: compute, then write.  The orbits are handed out on
demand through one job file.  Before forking, the parent writes every orbit's
index, in order, as a fixed-size record to an unlinked temporary file and
rewinds it; the parent and every child then take the next index with one
``os.read`` of a record on that shared open file, whenever they are free.
Since Linux 3.14, read(2) updates a shared file offset atomically (POSIX XSI
2.9.7), so each record reaches exactly one process at any table size, and a
slow orbit holds up only the process that took it.  ``periods._write_rows``
splits a table only where ``os.sched_getaffinity`` exists, which in practice
means Linux.

Each process appends the rows of every orbit it takes to its own unlinked
spool file, and records ``index offset lengths`` for it: the orbit, where its
rows start in the spool file, and the byte length of each row.  A child
writes its records to a second unlinked file, its index file, once the job
file is drained, and only then exits with status 0; the parent keeps its own
records in memory.  Once the job file is drained, the parent reaps every
child, reading its index file once it has exited with status 0, and checks
that every orbit was computed exactly once.  Only then does it write ``head`` and every row in row order,
each read back with ``os.pread`` from the spool file that holds it; so no
process holds more than one orbit's rows.

Every input error is raised before this module is reached
(``periods.beta_orbits`` checks each beta), so a row that raises is a fault:
``texts`` raises it as ``WorkerFailed``, which the parent passes on and a
child prints to stderr with its traceback before it ends with status 1.  A
child that fails or dies, an orbit computed never or twice, and a spool or
index file that cannot be read back are ``WorkerFailed`` (exit 4); a job,
spool or index file or a child that cannot be made is ``ResourceLimit``
(exit 3).  Each of these is raised before the first byte is written, so it
leaves ``out`` empty; only a spool file that fails part-way through its
read-back would leave a prefix of the table.  Every child is killed if need
be and reaped, and every file closed, on every path; each child ends with
``os._exit``, so it flushes none of the parent's buffers.  Only
``periods._write_rows`` imports this module, on the split branch; the command
starts no thread before it, so forking is safe, and the children reuse the
loaded package.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile

from hodgeloci.errors import ResourceLimit, WorkerFailed

_RECORD = 8  # bytes of one orbit index in the job file


def split_rows(texts, orbits, workers: int, out, head: str) -> None:
    """Write ``head`` and then the texts ``texts(i)`` of the rows of every
    orbit ``orbits[i]``, in row order, to ``out``, computed by this process
    and ``workers - 1`` forked children."""
    files = []  # every temporary file made here
    children = {}  # pid -> (name, spool fd, index fd) of each child not yet reaped
    try:
        jobs = _file(files, b"".join(i.to_bytes(_RECORD, "little") for i in range(len(orbits))))
        for number in range(1, workers):
            spool, index = _file(files), _file(files)
            try:
                pid = os.fork()
            except OSError as exc:
                raise _cannot_start(exc) from None
            if not pid:
                _child(texts, jobs, spool, index)
            children[pid] = (f"row worker {number} of {workers - 1}", spool, index)
        own = _file(files)
        found = [None] * len(orbits)  # index -> (spool fd, offset, lengths) of each orbit
        _take(found, own, _serve(texts, jobs, own))
        for pid, (name, spool, index) in list(children.items()):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status:
                how = (f"exit status {status}" if status >= 0
                       else f"signal {-status} ({signal.Signals(-status).name})")
                raise WorkerFailed(f"{name} ended with {how} before sending all its rows")
            lines = _read_all(index, 0, os.fstat(index).st_size).splitlines()
            _take(found, spool, [(i, offset, lengths) for i, offset, *lengths
                                 in (map(int, line.split()) for line in lines)])
        if None in found:
            raise WorkerFailed(f"the row workers sent no rows for orbit "
                               f"{found.index(None) + 1} of {len(orbits)}")
        rows = [None] * sum(len(orbit.rows) for orbit in orbits)
        for orbit, (spool, offset, lengths) in zip(orbits, found):
            for row, length in zip(orbit.rows, lengths):
                rows[row] = (spool, offset, length)
                offset += length
        out.write(head)
        for where in rows:
            out.write(_read_all(*where).decode())
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        for file in files:
            file.close()


def _cannot_start(exc: OSError) -> ResourceLimit:
    return ResourceLimit(f"cannot start a row worker: {exc.strerror or exc}")


def _file(files: list, data: bytes = b"") -> int:
    """The fd of a new unlinked temporary file, which joins ``files``,
    holding ``data`` and rewound to its start."""
    try:
        files.append(tempfile.TemporaryFile())
        files[-1].write(data)
        files[-1].seek(0)  # flushes ``data``; from here on, only the fd is used
    except OSError as exc:
        raise _cannot_start(exc) from None
    return files[-1].fileno()


def _take(found: list, spool: int, records) -> None:
    """Enter the ``(index, offset, lengths)`` of each orbit in ``records``,
    whose rows lie in ``spool``, into ``found``."""
    for index, offset, lengths in records:
        if found[index] is not None:
            raise WorkerFailed(f"the row workers sent orbit {index + 1} of {len(found)} twice")
        found[index] = (spool, offset, lengths)


def _serve(texts, jobs: int, spool: int) -> list:
    """A process's work: the rows of each orbit whose index it reads from the
    job file ``jobs``, appended to ``spool``.  Each read moves the offset that
    every process shares past one record.  Returns the orbits' records
    ``(index, offset, lengths)``."""
    records = []
    end = 0
    while record := os.read(jobs, _RECORD):
        index = int.from_bytes(record, "little")
        # a comprehension, whose variable dies with it: a row kept alive into
        # the next orbit's run would add its size to this process's peak
        lengths = [_write_all(spool, text.encode()) for text in texts(index)]
        records.append((index, end, lengths))
        end += sum(lengths)
    return records


def _child(texts, jobs: int, spool: int, index: int) -> None:
    """A forked child's life: ``_serve``, then its records written to the
    index file ``index`` as ``index offset lengths`` lines.  It never returns."""
    status = 1
    try:
        records = _serve(texts, jobs, spool)
        _write_all(index, "".join(f"{i} {offset} {' '.join(map(str, lengths))}\n"
                                  for i, offset, lengths in records).encode())
        status = 0
    except Exception:  # a fault: the parent reports the exit status as WorkerFailed
        import traceback

        sys.stderr.write(traceback.format_exc())  # one write: siblings' do not interleave
        sys.stderr.flush()
    finally:
        os._exit(status)


def _read_all(fd: int, offset: int, length: int) -> bytes:
    """``length`` bytes of the file ``fd`` from ``offset``, over partial reads.
    The spool and index files are this program's own, so a read that fails
    is a fault."""
    parts = []
    while length:
        try:
            data = os.pread(fd, length, offset)
        except OSError as exc:
            raise WorkerFailed(f"cannot read back a spool or index file: "
                               f"{exc.strerror or exc}") from None
        if not data:
            raise WorkerFailed("a spool or index file ends before its records")
        parts.append(data)
        offset += len(data)
        length -= len(data)
    return b"".join(parts)


def _write_all(fd: int, data: bytes) -> int:
    """Write ``data`` to ``fd``, over partial writes, and return its length.
    A spool or index file is only appended to, by the one process that
    writes it, and read back with ``os.pread``, which leaves the shared file
    offset alone."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
    return len(data)
