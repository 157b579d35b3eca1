"""Exception types shared across the package, and ``report``, the one writer
of the command line's stderr lines."""

import sys


def report(text: str) -> None:
    """Write ``text`` to stderr and flush it.  An ``OSError`` is dropped, so
    that a stderr that cannot be written leaves the exit code as the caller
    sets it; escaping, it would end the process with 1, the code of an honest
    UNKNOWN."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        pass


class DenominatorDivisibleByP(ValueError):
    """A rational coefficient is not p-integral: its denominator is divisible by p."""


class NotIntegral(ValueError):
    """An exponent vector does not index an integral pole order."""


class NotIntegrable(ValueError):
    """A connection matrix fails the truncated integrability identity; no consistent solution."""


class TransversalityViolation(ValueError):
    """A block that transversality forces to vanish is nonzero."""

    def __init__(self, block):
        super().__init__(f"nonzero forbidden block at position {block}")
        self.block = block

    def __reduce__(self):
        return type(self), (self.block,)


class OutOfDomain(ValueError):
    """Argument outside the supported real interval."""


class TargetOutOfRange(ValueError):
    """Requested value is not attained on the searchable interval."""


class ResourceLimit(RuntimeError):
    """Input exceeds the configured resource bound."""


class WriteFailed(Exception):
    """A write to a command's output failed: exit 2.  Not an ``OSError``, so
    that it is not read as an input file that cannot be read."""


class WorkerFailed(RuntimeError):
    """A table row raised, in this process or a forked row worker; a row
    worker died or ended before sending all its rows; or a spool or index
    file cannot be read back: a fault, since every input error is raised
    before any row runs."""


class InternalCheckFailed(RuntimeError):
    """An identity the package verifies on its own output does not hold: a bug, not bad input."""


class ParseError(ValueError):
    """Expression syntax error, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        return type(self), (self.message, self.position)
