"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema is malformed or an attribute is unknown."""


class ConfigError(ReproError, ValueError):
    """A configuration value is unusable (an unknown kernel backend, a
    non-integer worker count, a mistyped ``FastODConfig`` field)."""


class DataError(ReproError):
    """A relation instance is malformed (ragged rows, bad CSV, ...)."""


class DependencyError(ReproError):
    """A dependency expression is malformed (e.g. repeated attributes
    where the canonical form forbids them)."""


class ParseError(DependencyError):
    """A textual dependency could not be parsed."""


class DiscoveryBudgetExceeded(ReproError):
    """A discovery run exceeded its configured node or time budget.

    The ORDER baseline uses this to report "did not finish" the way the
    paper reports "* 5h" runs.
    """

    def __init__(self, message: str, elapsed_seconds: float = 0.0,
                 nodes_visited: int = 0):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds
        self.nodes_visited = nodes_visited
