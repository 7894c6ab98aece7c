"""The estimation pipeline shared by the command line and the harness.

PASS FPCA is one chain of stages: handle measurement noise (curve
pre-smoothing, surface smoothing, or none), estimate a covariance
surface, eigendecompose it, and recover eigenvalue ratios with the
pair-average or the elliptical fixed point.  :class:`Pipeline` runs that
chain on one sample and memoizes every stage, so methods evaluated on
the same sample share their work.  ``fit``, ``ratio`` and the
replication harness all evaluate method identifiers through it.

Method identifiers are a base estimator, optionally followed by
``"@pre_smooth"`` or ``"@smooth_cf"``: ``pass``, ``classical`` and
``mspc`` estimate eigenfunctions; ``pass_mc``, ``pass_elliptical`` and
``classical_ratio`` estimate eigenvalue ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .eigenratio import (
    EigenratioEstimate,
    PairScores,
    eigenratio_elliptical,
    eigenratio_mc,
    pair_scores,
)
from .errors import (
    DimensionMismatchError,
    InsufficientSampleError,
    PassFpcaError,
)
from .estimators import (
    CovarianceSurface,
    EigenSystem,
    eigendecompose,
    mspc,
    pass_covariance,
    sample_covariance,
)
from .grid import FunctionalSample
from .smoothing import (
    SCHEME_PRE_SMOOTH,
    SCHEME_SMOOTH_CF,
    presmooth,
    smooth_surface,
)

__all__ = [
    "EIGENFUNCTION_METHODS",
    "RATIO_METHODS",
    "SolverOptions",
    "Pipeline",
    "parse_method",
]

EIGENFUNCTION_METHODS = ("pass", "classical", "mspc")
RATIO_METHODS = ("pass_mc", "pass_elliptical", "classical_ratio")
_SCHEMES = (SCHEME_PRE_SMOOTH, SCHEME_SMOOTH_CF)


@dataclass(frozen=True)
class SolverOptions:
    """Shared tuning knobs for the estimators inside the pipeline."""

    q: int = 4
    trim_fraction: float = 0.02
    tol: float = 1e-8
    max_iter: int = 500
    basis_size: int = 15

    def __post_init__(self):
        if self.q < 1:
            raise DimensionMismatchError(f"q must be >= 1, got {self.q}")
        if not 0.0 <= self.trim_fraction <= 0.1:
            raise DimensionMismatchError(
                f"trim_fraction must be in [0, 0.1], got "
                f"{self.trim_fraction}")
        if not self.tol > 0.0:
            raise DimensionMismatchError(
                f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise DimensionMismatchError(
                f"max_iter must be >= 1, got {self.max_iter}")
        if self.basis_size < 4:
            raise DimensionMismatchError(
                f"basis_size must be at least 4, got {self.basis_size}")


def parse_method(method: str) -> tuple[str, Optional[str]]:
    """Split a method identifier into its base and smoothing scheme.

    Returns ``(base, scheme)`` with ``scheme`` None when the identifier
    has no ``@`` suffix; raises :class:`DimensionMismatchError` for an
    unknown base or scheme and for ``mspc@smooth_cf``.
    """
    base, at, scheme = method.partition("@")
    scheme_val = scheme if at else None
    if base not in EIGENFUNCTION_METHODS + RATIO_METHODS:
        raise DimensionMismatchError(
            f"unknown method {base!r}; expected one of "
            f"{EIGENFUNCTION_METHODS + RATIO_METHODS}")
    if scheme_val is not None and scheme_val not in _SCHEMES:
        raise DimensionMismatchError(
            f"unknown smoothing scheme {scheme_val!r} in method "
            f"{method!r}; expected one of {_SCHEMES}")
    if base == "mspc" and scheme_val == SCHEME_SMOOTH_CF:
        raise DimensionMismatchError(
            "mspc has no surface-smoothing variant; use no smoothing or "
            "pre_smooth")
    return base, scheme_val


class Pipeline:
    """Lazily computed, memoized estimation stages for one sample.

    Every stage takes the smoothing scheme (None, ``"pre_smooth"`` or
    ``"smooth_cf"``) and decides which curves it is fed: pre-smoothing
    replaces the curves for every stage, while surface smoothing only
    smooths the estimated surface and leaves the raw curves to the pair
    projections and the classical starting ratios.
    """

    def __init__(self, sample: FunctionalSample,
                 opts: Optional[SolverOptions] = None):
        self.sample = sample
        self.opts = opts or SolverOptions()
        self._memo: dict = {}

    def _get(self, key, builder):
        if key not in self._memo:
            self._memo[key] = builder()
        return self._memo[key]

    def curves(self, scheme: Optional[str]) -> FunctionalSample:
        """The curves the projections and classical ratios use."""
        if scheme == SCHEME_PRE_SMOOTH:
            return self._get("curves_pre", lambda: presmooth(self.sample))
        return self.sample

    def surface(self, family: str,
                scheme: Optional[str]) -> CovarianceSurface:
        """PASS (``family="pass"``) or classical covariance surface;
        ``smooth_cf`` smooths the memoized raw surface."""
        def build():
            if scheme == SCHEME_SMOOTH_CF:
                return smooth_surface(self.surface(family, None),
                                      basis_size=self.opts.basis_size)
            estimator = (pass_covariance if family == "pass"
                         else sample_covariance)
            return estimator(self.curves(scheme))
        return self._get(("surface", family, scheme), build)

    def eigensystem(self, family: str,
                    scheme: Optional[str]) -> EigenSystem:
        """Leading ``q`` eigenpairs of ``pass``, ``classical`` or
        ``mspc``."""
        def build():
            if family == "mspc":
                return mspc(self.curves(scheme), self.opts.q)
            return eigendecompose(self.surface(family, scheme), self.opts.q)
        return self._get(("eigen", family, scheme), build)

    def pairscores(self, scheme: Optional[str]) -> PairScores:
        """Trimmed pair projections onto the PASS eigenfunctions."""
        return self._get(("pairscores", scheme), lambda: pair_scores(
            self.curves(scheme), self.eigensystem("pass", scheme),
            self.opts.q, self.opts.trim_fraction))

    def classical_init(self, scheme: Optional[str]) -> Optional[np.ndarray]:
        """Classical eigenvalue ratios of ``curves(scheme)``, the fixed
        point's starting ratios; None when they are undefined."""
        method = ("classical_ratio@" + SCHEME_PRE_SMOOTH
                  if scheme == SCHEME_PRE_SMOOTH else "classical_ratio")

        def build():
            try:
                return self.evaluate(method).ratios
            except PassFpcaError:
                return None
        return self._get(("init", method), build)

    def evaluate(self, method: str,
                 ) -> Union[EigenSystem, EigenratioEstimate]:
        """Run one method identifier.

        Returns the :class:`EigenSystem` of an eigenfunction method or
        the :class:`EigenratioEstimate` of a ratio method.
        """
        base, scheme = parse_method(method)
        if base in EIGENFUNCTION_METHODS:
            return self.eigensystem(base, scheme)
        opts = self.opts
        if base == "classical_ratio":
            vals = self.eigensystem("classical", scheme).eigenvalues
            if np.any(vals <= 0.0):
                raise InsufficientSampleError(
                    "classical eigenvalues are not all positive; ratios "
                    "are undefined")
            return EigenratioEstimate(
                ratios=vals / vals[0], iterations=0, converged=True,
                final_delta=0.0)
        kappa = self.eigensystem("pass", scheme).eigenvalues
        init = self.classical_init(scheme)
        if base == "pass_mc":
            return eigenratio_mc(self.pairscores(scheme), kappa, init=init,
                                 tol=opts.tol, max_iter=opts.max_iter)
        return eigenratio_elliptical(kappa, init=init, tol=opts.tol,
                                     max_iter=opts.max_iter)
