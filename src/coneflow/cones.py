"""Cone graphs: one-homogeneous height functions.

A cone is the graph of k(x) = |x| * gamma(x/|x|).  Two kinds are supported:
rotationally symmetric cones (gamma constant, equal to the slope beta, any
dimension) and planar cones with an angular profile gamma(theta) given by
samples on a uniform circle grid (n = 2 only, interpolated with a periodic
cubic spline).

The profile exposes what the solvers and barriers need: values and angular
derivatives of gamma, sampling on radial and polar grids, the slope bound
sup |Dk|, the scale-invariant mean curvature r*H[k] (mean convexity is
H[k] >= 0) and the far-field expander tail coefficient.
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

    ``kind`` is 'radial' (gamma identically ``beta``) or 'angular' (``gamma_samples``
    on the uniform grid theta_j = 2*pi*j/m, n = 2 only).
    """

    n: int
    kind: str
    beta: float = 0.0
    gamma_samples: np.ndarray | None = None
    _spline: CubicSpline | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.n}")
        if self.kind == "radial":
            if not np.isfinite(self.beta):
                raise ParameterError("radial cone slope must be finite")
        elif self.kind == "angular":
            if self.n != 2:
                raise ParameterError("angular cones are only supported for n = 2")
            if self.gamma_samples is None:
                raise ParameterError("angular cone needs gamma_samples")
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
        else:
            raise ParameterError(f"unknown cone kind {self.kind!r}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def radial(cls, n: int, beta: float) -> "ConeProfile":
        return cls(n, "radial", beta=float(beta))

    @classmethod
    def angular(cls, gamma, m: int = 64) -> "ConeProfile":
        """Planar cone from a callable or sample array for gamma(theta)."""
        if callable(gamma):
            samples = np.asarray(gamma(2.0 * np.pi * np.arange(m) / m), dtype=float)
        else:
            samples = np.asarray(gamma, dtype=float)
        return cls(2, "angular", gamma_samples=samples)

    # -- profile values ------------------------------------------------------

    def gamma(self, theta=None):
        if self.kind == "radial":
            return self.beta if theta is None else np.full_like(np.asarray(theta, float), self.beta)
        return self._spline(np.mod(theta, 2.0 * np.pi))

    def gamma_prime(self, theta):
        if self.kind == "radial":
            return np.zeros_like(np.asarray(theta, float))
        return self._spline(np.mod(theta, 2.0 * np.pi), 1)

    def gamma_second(self, theta):
        if self.kind == "radial":
            return np.zeros_like(np.asarray(theta, float))
        return self._spline(np.mod(theta, 2.0 * np.pi), 2)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> np.ndarray | float:
        """k at Cartesian point(s) x of shape (n,) or (m, n)."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[-1] != self.n:
            raise ParameterError(f"points must have {self.n} components")
        r = np.sqrt(np.sum(pts ** 2, axis=-1))
        if self.kind == "radial":
            out = self.beta * r
        else:
            theta = np.arctan2(pts[..., 1], pts[..., 0])
            out = np.where(r > 0, r * self._spline(np.mod(theta, 2.0 * np.pi)), 0.0)
        return out if np.asarray(x).ndim > 1 else float(out[0])

    def on_grid(self, spec: GridSpec) -> GridFunction:
        """Sample k on a radial or polar grid."""
        if spec.polar:
            vals = spec.nodes[:, None] * self.gamma(spec.thetas)[None, :]
            return GridFunction(spec, np.broadcast_to(vals, spec.shape).copy())
        if self.kind == "angular":
            raise ParameterError("angular cone has no radial reduction; use a polar grid")
        return GridFunction(spec, self.beta * spec.nodes)

    # -- derived scalars -----------------------------------------------------

    def slope_bound(self, samples: int = 720) -> float:
        """sup |Dk|, exact for radial cones, sampled for angular ones."""
        if self.kind == "radial":
            return abs(self.beta)
        th = 2.0 * np.pi * np.arange(samples) / samples
        return float(np.max(np.sqrt(self.gamma(th) ** 2 + self.gamma_prime(th) ** 2)))

    def scaled_mean_curvature(self, theta=None):
        """r * H[k], constant along rays.

        Radial cones give (n-1)*beta/sqrt(1+beta^2).  Planar angular cones
        give (1+g^2)(g+g'')/W^3 with W^2 = 1+g^2+g'^2, g = gamma(theta).
        """
        if self.kind == "radial":
            value = (self.n - 1) * self.beta / np.sqrt(1.0 + self.beta ** 2)
            return value if theta is None else np.full_like(np.asarray(theta, float), value)
        g = self.gamma(theta)
        gp = self.gamma_prime(theta)
        gpp = self.gamma_second(theta)
        W2 = 1.0 + g ** 2 + gp ** 2
        return (1.0 + g ** 2) * (g + gpp) / W2 ** 1.5

    def tail_coefficient(self, theta=None):
        """Coefficient c of the far-field expander correction U ~ k + c/rho.

        Determined by balancing sqrt(1+|Dv|^2) H[v] against (v - rho v_rho)/2
        for v = gamma*rho + c/rho; equals (n-1)*beta for radial cones and
        (g+g'')(1+g^2)/(1+g^2+g'^2) for planar profiles.
        """
        if self.kind == "radial":
            value = (self.n - 1) * self.beta
            return value if theta is None else np.full_like(np.asarray(theta, float), value)
        g = self.gamma(theta)
        gp = self.gamma_prime(theta)
        gpp = self.gamma_second(theta)
        return (g + gpp) * (1.0 + g ** 2) / (1.0 + g ** 2 + gp ** 2)
