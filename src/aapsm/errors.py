"""Exception types and the process exit codes they map to."""

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_UNCORRECTABLE = 3
EXIT_INTERNAL = 4


class AapsmError(Exception):
    """Base class for every error raised by this package."""

    exit_code = EXIT_INTERNAL


class InputError(AapsmError):
    """An input that cannot be read or an output that cannot be written, or
    a malformed command-line value."""

    exit_code = EXIT_INPUT_ERROR


class LayoutParseError(AapsmError):
    """Malformed layout file."""

    exit_code = EXIT_INPUT_ERROR

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class LayoutValidationError(AapsmError):
    """Layout data violates a model invariant (overlapping features, bad rules...)."""

    exit_code = EXIT_INPUT_ERROR


class GeometryError(AapsmError):
    """A hand-made graph the planarizer cannot embed: two edges with the same
    two ends, which draw one segment that no perturbation separates.  A
    conflict graph built from a layout never has them."""

    exit_code = EXIT_INPUT_ERROR


class MatchingInfeasibleError(AapsmError):
    """The graph admits no perfect matching."""


class InternalInvariantError(AapsmError):
    """A pipeline invariant failed; indicates a bug rather than bad input."""


class UncorrectableConflictError(AapsmError):
    """Conflicts that cannot be fixed by inserting end-to-end spaces."""

    exit_code = EXIT_UNCORRECTABLE

    def __init__(self, message: str, conflict_ids=()):
        self.conflict_ids = tuple(conflict_ids)
        super().__init__(message)
