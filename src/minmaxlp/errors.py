"""Exception types shared across the package."""


class LPError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(LPError):
    """A problem or solution file could not be parsed.

    The message names the offending field (e.g. ``A[0][1]``).
    """


class GeometryError(LPError):
    """A figure was asked of a program it cannot draw: ``render_svg`` takes
    two-dimensional programs only."""


class TransformError(LPError):
    """A translation or rotation precondition failed."""


class SolverError(LPError):
    """The min-max solver could not produce a certified result."""


class DimensionCapError(SolverError):
    """A stage past the exact backend's cap went to it (by default, only one
    whose piece scales spread past 1e6 or whose simplex raised); the message
    names those causes, ``solver="subgradient"`` and a strict interior point."""


class ReductionError(LPError):
    """A pipeline stage received inputs violating its precondition."""
