"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised on invalid graph operations (unknown vertex, self-loop, ...)."""


class DatabaseError(ReproError):
    """Raised on invalid transaction-database operations."""


class NetworkFormatError(ReproError):
    """Raised when parsing a serialized database network fails."""


class MiningError(ReproError):
    """Raised on invalid mining parameters (e.g. negative thresholds)."""


class BenchConfigError(ReproError):
    """Raised when a benchmark-fleet config or record is invalid."""


class ObservabilityError(ReproError):
    """Raised on invalid metrics/trace operations (bad buckets, merges)."""


class ServeError(ReproError):
    """Raised on invalid serving-layer requests."""


class UnknownEndpointError(ServeError):
    """Raised when an HTTP request names an endpoint the server lacks."""


class BadRequestError(ServeError):
    """Raised when an HTTP request is malformed (maps to a 400 response)."""


class PayloadTooLargeError(BadRequestError):
    """Raised when an HTTP request body exceeds the server's size cap
    (maps to a 413 response)."""


class AnalysisError(ReproError):
    """Raised on invalid static-analysis inputs (bad baseline, unknown rule)."""


class TCIndexError(ReproError):
    """Raised on invalid TC-Tree / warehouse operations."""
