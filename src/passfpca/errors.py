"""Exception types shared across the package.

Every error raised by this package derives from :class:`PassFpcaError`, so
callers can catch one base class at an API boundary.  Each subclass also
derives from the matching builtin (``ValueError`` for bad inputs,
``RuntimeError`` for iterative procedures that fail to finish) so the types
behave well in generic code.  :func:`is_integer` and :func:`is_real` are
the type checks behind the integer- and real-valued options.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PassFpcaError",
    "InvalidGridError",
    "DimensionMismatchError",
    "InsufficientSampleError",
    "DegenerateSampleError",
    "AsymmetrySurfaceError",
    "BasisSizeError",
    "ThresholdError",
    "SampleTooLargeError",
    "ConvergenceError",
]


class PassFpcaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGridError(PassFpcaError, ValueError):
    """A grid definition is unusable (too few points, bad spacing)."""


class DimensionMismatchError(PassFpcaError, ValueError):
    """Array shapes are inconsistent with each other or with the grid."""


class InsufficientSampleError(PassFpcaError, ValueError):
    """Too few curves (or grid points) for the requested computation."""


class DegenerateSampleError(PassFpcaError, ValueError):
    """The data carry no usable variation (for example, all pairwise
    differences are numerically zero)."""


class AsymmetrySurfaceError(PassFpcaError, ValueError):
    """A covariance surface violates its symmetry tolerance."""


class BasisSizeError(PassFpcaError, ValueError):
    """A basis dimension is outside the range the grid can support."""


class ThresholdError(PassFpcaError, ValueError):
    """A selection threshold can never be reached by the given sequence."""


class SampleTooLargeError(PassFpcaError, MemoryError):
    """A pairwise computation would need more memory than the machine
    has; raised before the large arrays are allocated."""


class ConvergenceError(PassFpcaError, RuntimeError):
    """An iterative routine stopped at ``max_iter`` without meeting its
    tolerance.

    Attributes
    ----------
    last_iterate : numpy.ndarray
        The final state of the iteration, so callers can inspect or reuse
        it even though the tolerance was not met.
    iterations : int
        Number of iterations performed.
    final_delta : float
        Size of the last update step.
    """

    def __init__(self, message: str, last_iterate: np.ndarray,
                 iterations: int, final_delta: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations
        self.final_delta = final_delta


def is_integer(value) -> bool:
    """True for a Python or numpy integer; ``bool`` does not count."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def is_real(value) -> bool:
    """True for a Python or numpy integer or float; ``bool`` does not
    count."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))
