"""Exception types shared across the package."""


class CliqueCountError(Exception):
    """Base class for errors raised by this package."""


class EdgeListParseError(CliqueCountError):
    """A line of the edge-list input could not be parsed."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SizeLimitError(CliqueCountError):
    """An operation refused to run because a configured size cap was exceeded."""


class CounterOverflowError(CliqueCountError):
    """A clique count exceeded the signed 64-bit range of fast-counter mode.

    Raised only in fast-counter mode; exact mode has no bound.
    """

    def __init__(self, message="clique counter exceeded the fixed-width range; "
                               "rerun in exact counter mode (--exact)"):
        super().__init__(message)


class CountCheckError(CliqueCountError):
    """A finished count disagrees with a total known before the walk."""


class WorkerCrashError(CliqueCountError):
    """A worker process of a forked count died before returning its batch."""

    def __init__(self, message="a worker process died before its roots were "
                               "counted (killed, or out of memory)"):
        super().__init__(message)
