"""Exception types shared across the package."""


class HamflowError(Exception):
    """Base class for all package-specific errors."""


class FactorizationFailure(HamflowError):
    """A covariance matrix could not be factorized even after jitter."""


class OutOfRange(HamflowError, ValueError):
    """A time or coordinate argument lies outside its valid domain."""


class NotAutonomous(HamflowError):
    """An operation requiring time-independent Hamiltonians received one that is not."""


class NonFinite(HamflowError):
    """A numerical state left the finite floating-point range.

    ``draws`` lists the rows of the flowed batch whose state did (row 0 when
    one Hamiltonian flows); it is empty when no flow names them.
    """

    def __init__(self, message, draws=()):
        self.draws = tuple(int(d) for d in draws)
        super().__init__(message)


class FailureBudgetExceeded(HamflowError):
    """More samples failed than a run's failure budget allows.

    Carries ``failures``, the (regularity, sample, error text) records of
    every failed sample so far, so that they can be written out before the
    run exits.
    """

    def __init__(self, message, failures=()):
        self.failures = tuple(failures)
        super().__init__(message)


class RefinementOverflow(HamflowError):
    """Curve refinement exceeded the maximum subdivision depth."""


class DegenerateOverlap(HamflowError):
    """A curve lies (mostly) inside the level set it is being intersected with."""


class Unsupported(HamflowError):
    """The requested operation is not defined for this kernel or configuration."""


class ParseError(HamflowError):
    """A configuration document could not be parsed.

    Carries the offending line number when available.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(HamflowError):
    """A configuration value is outside its documented range.

    Carries the name of the offending field.
    """

    def __init__(self, field, message=""):
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)
