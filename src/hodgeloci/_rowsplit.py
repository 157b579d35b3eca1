"""The row split of a large table: ``split_rows`` writes the rows of a table's
symmetry orbits (``periods.BetaOrbit``) to a text stream in row order, with
this process and ``workers - 1`` forked children computing ``fn(orbit, fam)``,
the texts of one orbit's rows.

The orbits are handed out on demand through one job pipe, which this process
reads too.  Once every child is forked, the parent writes the table's head,
then each orbit's index, in order, as a fixed-size record, through its own
non-blocking end of the pipe.  While the pipe is full, the parent computes the
next orbit not yet written to it itself; once every index is written, it
closes its end and takes its orbits from the pipe like a child.  So it never
blocks on the pipe, and a slow orbit holds up only the process that took it.

A child writes the rows of each orbit it takes to its own unlinked spool file,
and only then sends the line ``index offset length ...`` (the orbit, where its
rows start in the spool file, the byte length of each row) through its own
result pipe; an empty line ends its stream.  The pipe carries only these
lines, so a child never waits on the parent.  The parent writes each row as
soon as it and every earlier row are done: a row of its own at once, or from
its own spool file when it must wait, and a child's row read back from that
child's spool file.  Between its own orbits, and once the job pipe is empty,
it reads the result pipes; so no process holds more than one orbit's rows.

Every input error is raised before this module is reached
(``periods.beta_orbits`` checks each beta), so a row that raises is a fault: in
a child, the child prints the traceback to stderr and ends with status 1; in
the parent, the exception is raised as ``WorkerFailed``.  A child that fails
or dies, or ends its stream early, and an orbit whose rows come back never or
twice are ``WorkerFailed`` (exit 4); a pipe, spool file or child that cannot be
made is ``ResourceLimit`` (exit 3).  Nothing is written before every child is
forked.  Every child is killed if need be and reaped, and every pipe and spool
file closed, on every path; each child ends with ``os._exit``, so it flushes
none of the parent's buffers.  Only ``periods._write_rows`` imports this
module, on the split branch; the command starts no thread before it, so
forking is safe, and the children reuse the loaded package.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import tempfile

from hodgeloci.errors import ResourceLimit, WorkerFailed

_RECORD = 8  # bytes of one orbit index in the job pipe
# records per write: POSIX makes a pipe write of at most 512 bytes atomic, so the
# pipe holds whole records only and a child's read of one record gets all of it
_CHUNK = 512 // _RECORD


def split_rows(fn, orbits, fam, workers: int, out, head: str) -> None:
    """Write ``head`` and then the texts ``fn(o, fam)`` of every orbit's rows,
    in row order, to ``out``, computed by this process and ``workers - 1``
    forked children."""
    table = _Table(orbits, out)
    jobs = []  # the open ends of the job pipe: the read end, then the write end
    children = {}  # read end of its result pipe -> each child not yet reaped
    try:
        try:
            jobs += os.pipe()
        except OSError as exc:
            raise ResourceLimit(f"cannot start a row worker: {exc.strerror or exc}") from None
        for number in range(1, workers):
            child = _fork(fn, orbits, fam, jobs, number, workers - 1)
            children[child.fd] = child
            table.spools.append(child.spool)
        os.set_blocking(jobs[1], False)
        out.write(head)
        poller = select.poll()
        for fd in children:
            poller.register(fd, select.POLLIN)
        handed = 0  # orbits written to the job pipe or taken before it
        while True:
            index = None
            if len(jobs) == 2:
                handed = _hand_out(jobs[1], handed, len(orbits))
                if handed == len(orbits):
                    os.close(jobs.pop())
                else:  # the pipe is full: take the next orbit not in it
                    index = handed
                    handed += 1
            if len(jobs) == 1:
                record = os.read(jobs[0], _RECORD)
                index = int.from_bytes(record, "little") if record else None
            if index is not None:
                table.own(index, _own_rows(fn, orbits, fam, index))
            if children:
                _collect(poller, children, table, wait=index is None)
            elif index is None:
                break
        table.check_complete()
    finally:
        # each child is killed before its pipes close: a child that wrote to a
        # closed pipe would print a traceback about it
        for child in children.values():
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(child.pid, 0)
            os.close(child.fd)
        for fd in jobs:
            os.close(fd)
        table.close()


def _own_rows(fn, orbits, fam, index: int) -> list:
    """``fn(orbits[index], fam)`` in this process; a row that raises is a fault."""
    try:
        return fn(orbits[index], fam)
    except Exception as exc:
        raise WorkerFailed(f"orbit {index + 1} of {len(orbits)} raised "
                           f"{type(exc).__name__}: {exc}") from exc


def _hand_out(fd: int, first: int, count: int) -> int:
    """Write the indices ``first, first + 1, ...`` below ``count`` to the
    non-blocking job pipe ``fd`` until it is full; the first not written."""
    while first < count:
        last = min(first + _CHUNK, count)
        try:
            os.write(fd, b"".join(i.to_bytes(_RECORD, "little") for i in range(first, last)))
        except BlockingIOError:
            break
        first = last
    return first


def _collect(poller, children: dict, table: "_Table", wait: bool) -> None:
    """Take the lines the children have sent, and reap each child whose
    result pipe has ended; with ``wait``, block until one of them is ready."""
    for fd, _ in poller.poll(None if wait else 0):
        child = children[fd]
        data = os.read(fd, 1 << 16)
        if data:
            child.take(data, table)
            continue
        poller.unregister(fd)
        del children[fd]
        child.reap()


def _read_all(fd: int, offset: int, length: int) -> bytes:
    """``length`` bytes of the file ``fd`` from ``offset``, over partial reads."""
    parts = []
    while length:
        data = os.pread(fd, length, offset)
        if not data:
            raise WorkerFailed("a row worker's spool file ends before its rows")
        parts.append(data)
        offset += len(data)
        length -= len(data)
    return b"".join(parts)


class _Table:
    """The rows of a table as they come in, written to ``out`` in row order."""

    def __init__(self, orbits, out):
        self.orbits = orbits
        self.out = out
        self.done = [False] * len(orbits)
        self.waiting = {}  # row -> (spool fd, offset, length) of a done row not yet written
        self.row = 0  # the first row not yet written
        # every spool file, open until the table is closed: a child's rows can wait
        # for an earlier orbit after the child has ended
        self.spools = []
        self.spool = None  # this process's spool file, made when a row of its own first waits
        self.end = 0  # bytes written to it

    def _take(self, index: int) -> None:
        if self.done[index]:
            raise WorkerFailed(f"the row workers sent orbit {index + 1} of {len(self.orbits)} "
                               "twice")
        self.done[index] = True

    def own(self, index: int, texts) -> None:
        """The texts of orbit ``index``'s rows, computed in this process."""
        self._take(index)
        for row, text in zip(self.orbits[index].rows, texts):
            if row == self.row:
                self.out.write(text)
                self.row += 1
                self._flush()
                continue
            data = text.encode()
            try:
                if self.spool is None:
                    self.spool = tempfile.TemporaryFile()
                    self.spools.append(self.spool)
                _write_all(self.spool.fileno(), data)
            except OSError as exc:
                raise ResourceLimit(f"cannot spool a row: {exc.strerror or exc}") from None
            self.waiting[row] = (self.spool.fileno(), self.end, len(data))
            self.end += len(data)

    def spooled(self, index: int, fd: int, offset: int, lengths) -> None:
        """Orbit ``index``'s rows, ``lengths`` bytes each from ``offset`` on in
        the spool file ``fd``."""
        self._take(index)
        for row, length in zip(self.orbits[index].rows, lengths):
            self.waiting[row] = (fd, offset, length)
            offset += length
        self._flush()

    def _flush(self) -> None:
        while self.row in self.waiting:
            self.out.write(_read_all(*self.waiting.pop(self.row)).decode())
            self.row += 1

    def check_complete(self) -> None:
        if not all(self.done):
            raise WorkerFailed(f"the row workers sent no rows for orbit "
                               f"{self.done.index(False) + 1} of {len(self.orbits)}")

    def close(self) -> None:
        for spool in self.spools:
            spool.close()


class _Child:
    """A forked row worker, as the parent sees it."""

    def __init__(self, pid: int, fd: int, spool, number: int, count: int):
        self.pid = pid
        self.fd = fd  # read end of its result pipe
        self.spool = spool  # its spool file, which the table closes
        self.name = f"row worker {number} of {count}"
        self.pending = b""  # the start of a line not yet complete
        self.ended = False  # whether its stream has ended

    def take(self, data: bytes, table: _Table) -> None:
        """Pass each complete line of ``data`` on to ``table``."""
        *lines, self.pending = (self.pending + data).split(b"\n")
        for line in lines:
            if not line:
                self.ended = True
                continue
            index, offset, *lengths = map(int, line.split())
            table.spooled(index, self.spool.fileno(), offset, lengths)

    def reap(self) -> None:
        """Wait for the child, whose result pipe has ended; ``WorkerFailed``
        unless it ended its stream and exited with status 0."""
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        os.close(self.fd)
        if status or not self.ended:
            how = (f"exit status {status}" if status >= 0
                   else f"signal {-status} ({signal.Signals(-status).name})")
            lost = "" if self.ended else " before sending all its rows"
            raise WorkerFailed(f"{self.name} ended with {how}{lost}")


def _fork(fn, orbits, fam, jobs: list, number: int, count: int) -> _Child:
    """Fork a child that computes the orbits whose indices it reads from the
    job pipe ``jobs`` (read end, write end).  The child never returns."""
    spool = ends = None
    try:
        spool = tempfile.TemporaryFile()
        ends = os.pipe()
        pid = os.fork()
    except OSError as exc:
        for fd in ends or ():
            os.close(fd)
        if spool is not None:
            spool.close()
        raise ResourceLimit(f"cannot start a row worker: {exc.strerror or exc}") from None
    if pid:
        os.close(ends[1])
        return _Child(pid, ends[0], spool, number, count)
    status = 1
    try:
        os.close(ends[0])
        os.close(jobs[1])
        _serve(fn, orbits, fam, jobs[0], spool.fileno(), ends[1])
        status = 0
    except Exception:  # a fault: the parent reports the exit status as WorkerFailed
        import traceback

        sys.stderr.write(traceback.format_exc())  # one write: siblings' do not interleave
        sys.stderr.flush()
    finally:
        os._exit(status)


def _serve(fn, orbits, fam, jobs: int, spool: int, results: int) -> None:
    """A child's work: each orbit whose index it reads from ``jobs``, its rows
    written to ``spool`` and then their line sent to ``results``."""
    end = 0
    while record := os.read(jobs, _RECORD):
        index = int.from_bytes(record, "little")
        start = end
        lengths = []
        for text in fn(orbits[index], fam):
            data = text.encode()
            _write_all(spool, data)
            end += len(data)
            lengths.append(str(len(data)))
        _write_all(results, f"{index} {start} {' '.join(lengths)}\n".encode())
    _write_all(results, b"\n")


def _write_all(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd``, over partial writes.  A spool file is only
    appended to, by the one process that writes it, and read back with
    ``os.pread``, which leaves the shared file offset alone."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
