"""``OutputFile``, the text stream of a command run with ``--output``;
``cli.main`` imports this module only then."""

from __future__ import annotations

import os
import stat

from hodgeloci.errors import WriteFailed


class OutputFile:
    """The ``--output`` path as a text stream, opened at the first byte.  A
    regular file (or a path that does not exist yet) is written under a
    temporary name beside it and renamed over it, with its mode, by
    ``commit``, so a command that fails leaves no file and an existing one as
    it was; ``discard`` removes the temporary file.  Anything else, such as a
    device or a FIFO, is written in place.  An ``OSError`` from a write, a
    close or the rename raises ``WriteFailed``."""

    def __init__(self, path: str):
        self.path = path
        self.stream = None
        self.target = None  # the file the temporary file replaces, through any symlink
        self.tmp = None  # the temporary file's name, while it exists

    def write(self, text: str) -> None:
        try:
            if self.stream is None:
                self._open()
            self.stream.write(text)
        except OSError as exc:
            self._fail(exc)

    def _open(self) -> None:
        target = os.path.realpath(self.path)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            self.stream = open(self.path, "w", encoding="utf-8")
            return
        self.target, self.tmp = target, f"{target}.{os.getpid()}.tmp"
        self.stream = open(self.tmp, "w", encoding="utf-8")
        if mode is not None:
            os.chmod(self.tmp, stat.S_IMODE(mode))

    def commit(self) -> None:
        """Close the file and move it to the path."""
        try:
            if self.stream is None:
                self._open()
            self.stream.close()
            if self.tmp is not None:
                os.replace(self.tmp, self.target)
                self.tmp = None
        except OSError as exc:
            self._fail(exc)

    def discard(self) -> None:
        """Close the file, and remove it if it was not committed.  An
        ``OSError`` here is dropped: the exit code is already set."""
        try:
            if self.stream is not None:
                self.stream.close()
            if self.tmp is not None:
                os.unlink(self.tmp)
        except OSError:
            pass

    def _fail(self, exc: OSError):
        raise WriteFailed(f"cannot write {self.path}: {exc.strerror or exc}") from None
