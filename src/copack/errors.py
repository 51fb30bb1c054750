class SizeLimitError(ValueError):
    """Raised when an exact/exhaustive routine is asked for more vertices than its limit."""


class GraphFormatError(ValueError):
    """Malformed graph or decomposition text; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class InternalSolverError(AssertionError):
    """A structurally impossible case was reached; signals a solver bug, never swallowed."""
