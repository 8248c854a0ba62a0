"""Exception types shared across the package.

Usage errors (malformed input, family mismatch, bad parameters) raise
``UsageError``; resource and truncation outcomes get their own types so
callers can distinguish "retry with a bigger budget" from "you called it
wrong".
"""

from __future__ import annotations


class UsageError(ValueError):
    """Malformed input or a call that violates an operation's contract."""


class ResourceExhausted(RuntimeError):
    """An enumeration exceeded its memory or search budget.

    ``self.progress`` carries whatever partial state is meaningful for the
    operation (BFS layer reached, best value so far, ...).
    """

    def __init__(self, message: str, progress=None):
        super().__init__(message)
        self.progress = progress


class TilingViolation(RuntimeError):
    """Two letter products collided, so the tiling condition fails at level k."""

    def __init__(self, k: int, witness):
        super().__init__(f"tiling condition violated at level {k}: {witness}")
        self.k = k
        self.witness = witness


class NotInTile(UsageError):
    """decode() was asked to factor an element outside the tile."""


class DepthExhausted(RuntimeError):
    """The coupling action found no rewrite depth within max_depth.

    This is a first-class truncation outcome, not a bug: estimators count
    these events and report them as a fraction.
    """

    def __init__(self, max_depth: int):
        super().__init__(f"no rewrite depth <= {max_depth}")
        self.max_depth = max_depth


class WindowExhausted(RuntimeError):
    """An odometer carry ran past the configured window bound."""


class TruncationError(RuntimeError):
    """A truncated orbit (finite Schreier window) was too small for the input."""


class NotApplicable(RuntimeError):
    """The operation's hypothesis fails on this input (e.g. no fat triangle)."""
