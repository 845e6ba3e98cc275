"""Exception hierarchy.

Every error raised on purpose by this package derives from HyperwalkError,
so callers can catch one type at the CLI boundary.
"""


class HyperwalkError(Exception):
    """Base class for all hyperwalk errors."""


class DomainError(HyperwalkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvariantViolationError(HyperwalkError):
    """Data violates a structural invariant (e.g. point off the hyperboloid)."""


class UsageError(HyperwalkError):
    """An operation was invoked in an unsupported configuration."""


class ConfigError(UsageError):
    """A config file problem; carries the offending key and line number."""

    def __init__(self, message, key=None, line=None):
        loc = ""
        if key is not None:
            loc += f" (key '{key}'"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key = key
        self.line = line


class OverflowGuardError(HyperwalkError):
    """Ambient-coordinate simulation exceeded its representable radius."""
