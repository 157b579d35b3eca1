"""Exception types shared across the package."""


class DenominatorDivisibleByP(ArithmeticError):
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


class OutOfDomain(ValueError):
    """Argument outside the supported real interval."""


class TargetOutOfRange(ValueError):
    """Requested value is not attained on the searchable interval."""


class ResourceLimit(RuntimeError):
    """Input exceeds the configured resource bound."""


class WorkerFailed(RuntimeError):
    """A row worker process died, or could not send back what its rows raised."""


class InternalCheckFailed(RuntimeError):
    """An identity the package verifies on its own output does not hold: a bug, not bad input."""


class ParseError(ValueError):
    """Expression syntax error, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
