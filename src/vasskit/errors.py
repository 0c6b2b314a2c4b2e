"""Exception types shared across the toolkit."""


class VasskitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(VasskitError):
    """Syntax or semantic error in an instance or certificate file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(VasskitError):
    """An operation was called outside its stated precondition."""


class BudgetExceededError(VasskitError):
    """A search exhausted its resource budget without an answer.

    Distinct from an unreachable verdict: nothing was decided.
    """


class InternalDefectError(VasskitError):
    """A situation the construction guarantees impossible was reached; a bug."""
