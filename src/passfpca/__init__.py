"""Robust functional principal component analysis.

The package estimates functional principal components through a pairwise
self-normalized covariance surface that tolerates heavy-tailed and
contaminated curves, recovers the classical eigenvalue ratios from its
shrunken spectrum by a fixed-point iteration, handles pointwise
measurement noise by curve pre-smoothing or by surface smoothing off the
noise-inflated diagonal, and ships a seeded simulation benchmark comparing the
approaches.
"""

from . import (eigenratio, errors, estimators, grid, metrics, pipeline,
               simulate, smoothing)
from .eigenratio import *
from .errors import *
from .estimators import *
from .grid import *
from .metrics import *
from .pipeline import *
from .simulate import *
from .smoothing import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = sorted(name
                 for module in (eigenratio, errors, estimators, grid,
                                metrics, pipeline, simulate, smoothing)
                 for name in module.__all__)
