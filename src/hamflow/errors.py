"""Exception types shared across the package."""


class HamflowError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(HamflowError, ValueError):
    """A time or coordinate argument lies outside its valid domain."""


class NonFinite(HamflowError):
    """A numerical state left the finite floating-point range.

    ``draws`` lists the rows of the flowed ``PackedBatch`` whose state did,
    and ``state`` is the batch's flowed state, shape (S, P, 2), whose other
    rows are finite: empty and None when no flow raised the error.
    """

    def __init__(self, message, draws=(), state=None):
        self.draws = tuple(int(d) for d in draws)
        self.state = state
        super().__init__(message)


class FailureBudgetExceeded(HamflowError):
    """More samples failed than a run's failure budget allows."""


class RefinementOverflow(HamflowError):
    """Curve refinement would take an image past ``flow.MAX_IMAGE_VERTICES``,
    or cannot split a source segment in double precision."""


class DegenerateOverlap(HamflowError):
    """A curve lies (mostly) inside the level set it is being intersected with."""


class ParseError(HamflowError):
    """A configuration document could not be parsed.

    Carries the offending line number when available.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(HamflowError, ValueError):
    """A configuration or law value is outside its documented range.

    Carries the name of the offending field.
    """

    def __init__(self, field, message=""):
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)
