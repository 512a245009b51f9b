"""Cone graphs: one-homogeneous height functions.

A cone is the graph of k(x) = |x| * gamma(x/|x|).  Two kinds are supported:
rotationally symmetric cones (gamma constant, equal to the slope beta, any
dimension) and planar cones with an angular profile gamma(theta) given by
samples on a uniform circle grid (n = 2 only, interpolated with a periodic
cubic spline).

The profile exposes what the solvers and barriers need: gamma on a set of
angles, sampling on radial and polar grids, the scale-invariant mean
curvature r*H[k] of a radial cone (mean convexity is H[k] >= 0) and the
far-field expander tail coefficient of a planar one.  The radial callers read
``beta`` directly: k = beta * |x| and sup |Dk| = |beta|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ParameterError
from .geometry import GridFunction, GridSpec

__all__ = ["ConeProfile"]


@dataclass(frozen=True, eq=False)
class ConeProfile:
    """One-homogeneous cone k(x) = |x| * gamma(x/|x|).

    Radial (gamma identically ``beta``, any n) unless ``gamma_samples`` is
    given: then angular, with the samples on the uniform grid
    theta_j = 2*pi*j/m and n = 2.
    """

    n: int
    beta: float = 0.0
    gamma_samples: np.ndarray | None = None
    _spline: CubicSpline | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.n}")
        if self.gamma_samples is None:
            if not np.isfinite(self.beta):
                raise ParameterError("radial cone slope must be finite")
            return
        if self.n != 2:
            raise ParameterError("angular cones are only supported for n = 2")
        samples = np.asarray(self.gamma_samples, dtype=float)
        if samples.ndim != 1 or samples.size < 8:
            raise ParameterError("angular profile needs at least 8 samples")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("angular samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "gamma_samples", samples)
        m = samples.size
        th = 2.0 * np.pi * np.arange(m + 1) / m
        vals = np.concatenate([samples, samples[:1]])
        object.__setattr__(self, "_spline", CubicSpline(th, vals, bc_type="periodic"))

    # -- constructors --------------------------------------------------------

    @classmethod
    def radial(cls, n: int, beta: float) -> "ConeProfile":
        return cls(n, float(beta))

    @classmethod
    def angular(cls, gamma, m: int = 64) -> "ConeProfile":
        """Planar cone from a callable or sample array for gamma(theta)."""
        if callable(gamma):
            samples = np.asarray(gamma(2.0 * np.pi * np.arange(m) / m), dtype=float)
        else:
            samples = np.asarray(gamma, dtype=float)
        return cls(2, gamma_samples=samples)

    @property
    def kind(self) -> str:
        """'radial' or 'angular', read off ``gamma_samples``."""
        return "radial" if self.gamma_samples is None else "angular"

    # -- values --------------------------------------------------------------

    def gamma(self, theta):
        """gamma at the angles ``theta``."""
        if self.kind == "radial":
            return np.full_like(np.asarray(theta, float), self.beta)
        return self._spline(np.mod(theta, 2.0 * np.pi))

    def on_grid(self, spec: GridSpec) -> GridFunction:
        """Sample k on a radial or polar grid."""
        if spec.polar:
            vals = spec.nodes[:, None] * self.gamma(spec.thetas)[None, :]
            return GridFunction(spec, np.broadcast_to(vals, spec.shape).copy())
        if self.kind == "angular":
            raise ParameterError("angular cone has no radial reduction; use a polar grid")
        return GridFunction(spec, self.beta * spec.nodes)

    # -- derived scalars -----------------------------------------------------

    def scaled_mean_curvature(self) -> float:
        """r * H[k] of a radial cone, (n-1)*beta/sqrt(1+beta^2), the same on
        every ray; its callers take radial cones only."""
        return (self.n - 1) * self.beta / np.sqrt(1.0 + self.beta ** 2)

    def tail_coefficient(self, theta):
        """Coefficient c(theta) of the far-field expander correction
        U ~ k + c/rho of a planar cone.

        Determined by balancing sqrt(1+|Dv|^2) H[v] against (v - rho v_rho)/2
        for v = gamma*rho + c/rho: c = (g+g'')(1+g^2)/(1+g^2+g'^2).  A radial
        cone's tail is ``expander._tail_coeffs``.
        """
        if self.kind == "radial":
            raise ParameterError("radial cones take their tail from the expander profile")
        th = np.mod(theta, 2.0 * np.pi)
        g, gp, gpp = self._spline(th), self._spline(th, 1), self._spline(th, 2)
        return (g + gpp) * (1.0 + g ** 2) / (1.0 + g ** 2 + gp ** 2)
