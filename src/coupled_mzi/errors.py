"""Semantic exception types shared across the package.

Plain domain violations (out-of-range scalars, bad argument combinations)
raise :class:`ValueError`; the classes below mark conditions that callers
may want to branch on, e.g. for CLI exit codes.
"""

from __future__ import annotations


class CoupledMziError(Exception):
    """Base class for package-specific errors."""


class AmbiguousMeasurementError(CoupledMziError):
    """The measurement is (near-)completely ambiguous: contextual values diverge.

    Raised when ``|visibility * correlation|`` falls at or below the
    divergence threshold, instead of returning huge floats that would poison
    downstream averages.  Carries the offending visibility and correlation
    strength for diagnostics.
    """

    def __init__(self, visibility: float, correlation: float, threshold: float):
        self.visibility = visibility
        self.correlation = correlation
        self.threshold = threshold
        super().__init__(
            f"contextual values diverge: |V * Gamma| = "
            f"{abs(visibility * correlation):.3e} <= {threshold:.0e} "
            f"(V={visibility:.6g}, Gamma={correlation:.6g})"
        )


class PostSelectionImpossibleError(CoupledMziError):
    """Conditioning on a drain whose absorption probability vanishes."""

    def __init__(self, drain: str, probability: float):
        self.drain = drain
        self.probability = probability
        super().__init__(
            f"cannot post-select on drain {drain}: probability "
            f"{probability:.3e} is numerically zero"
        )


class ConfigError(CoupledMziError):
    """Configuration file cannot be parsed or fails validation."""
