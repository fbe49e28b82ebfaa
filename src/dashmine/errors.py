"""Exception types shared across the package."""

from __future__ import annotations


class DashmineError(Exception):
    """Base class for all package errors."""


class MalformedDocument(DashmineError):
    """Input document is not syntactically valid (XML or JSON).

    Carries the position of the failure when the underlying parser
    provides one.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SchemaViolation(DashmineError):
    """Document is well-formed but violates the expected schema.

    ``path`` identifies the offending element, e.g. ``dashboard[0]/zone[2]``.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class EmptyCorpus(DashmineError):
    """An operation that needs a populated corpus received too little data."""


class ManifestMismatch(DashmineError):
    """A feature vector or scaler was combined with a different manifest."""


class TooFewRows(DashmineError):
    """Clustering input has fewer rows than the parameters require."""


class NonFiniteInput(DashmineError):
    """A feature matrix, scaler or clustering input contains NaN or infinite values."""


class FewerThanTwoClusters(DashmineError):
    """Silhouette scoring needs at least two non-noise clusters."""
