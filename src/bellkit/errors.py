"""Exception types shared across the toolkit."""

from __future__ import annotations


class BellkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(BellkitError):
    """A trial line or input file could not be parsed.

    Carries the 1-based line number when known so ingestion errors point
    at the offending record.
    """

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class DomainError(BellkitError):
    """An argument lies outside its documented domain (e.g. P > 1, eps <= 0)."""


class InvariantError(BellkitError):
    """A cross-field invariant is broken (e.g. correlated count exceeds trials)."""


class EmptyCellError(BellkitError):
    """A setting cell has zero trials, so its correlation coefficient is undefined."""

    def __init__(self, cell: str):
        self.cell = cell
        super().__init__(f"setting cell '{cell}' has zero trials")


class ConfigError(BellkitError):
    """A simulation configuration is invalid."""


class EnumerationCapError(BellkitError):
    """An exhaustive enumeration would exceed the oracle's size cap."""
