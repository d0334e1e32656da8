"""Exception types shared across the toolkit.

The CLI maps these onto distinct exit codes, so the split matters: bad
user input is not the same failure mode as a numerical routine giving up,
and neither is the same as a mathematical verdict coming back negative.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


class ShapeError(ValueError):
    """Dimensions of states, spectra, or matrices do not match."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or lost all precision."""


class ConfigError(ValueError):
    """A run configuration was rejected.

    ``kind`` is one of ``"parse"``, ``"schema"``, ``"invariant"`` so that
    callers can tell a malformed document from a well-formed one that
    violates the schema or an invariant.
    """

    def __init__(self, message: str, kind: str = "schema"):
        super().__init__(message)
        self.kind = kind
