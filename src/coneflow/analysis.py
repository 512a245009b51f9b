"""Measurement tools: decay-rate fits, the graph-area bound, clearing-out times.

The area-bound and clearing-out checks follow a fixed discretization
principle: when an inequality chains pointwise estimates (as the graph-area
bound does), both sides are evaluated on one common quadrature grid, so the
discrete inequality inherits the pointwise chain and can only fail through an
implementation bug, not through quadrature mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import GridFunction, GridSpec

__all__ = [
    "bump",
    "DecayFit",
    "decay_fit",
    "C1Function",
    "Ball",
    "AreaBoundReport",
    "graph_area_bound_check",
    "ClearingOutReport",
    "clearing_out_experiment",
    "clearing_out_scaling",
]


def bump(r: np.ndarray, amplitude: float, radius: float) -> np.ndarray:
    """C^1 compact bump amplitude*cos^2(pi r / (2 radius)) inside r < radius."""
    if not radius > 0:
        raise ParameterError("bump radius must be positive")
    s = np.asarray(r, dtype=float) / radius
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = amplitude * np.cos(np.pi * s[inside] / 2.0) ** 2
    return out


@dataclass
class DecayFit:
    """Power-law fit d ~ constant * t^exponent from log-log least squares."""

    exponent: float
    constant: float
    residual: float
    window: tuple

    def __str__(self):
        return (f"exponent {self.exponent:+.4f}, constant {self.constant:.4g}, "
                f"rms residual {self.residual:.2e} on t in [{self.window[0]:.3g}, "
                f"{self.window[1]:.3g}]")


def _fit_loglog(t: np.ndarray, d: np.ndarray) -> DecayFit:
    lt, ld = np.log(t), np.log(d)
    coef = np.polyfit(lt, ld, 1)
    resid = ld - np.polyval(coef, lt)
    return DecayFit(float(coef[0]), float(np.exp(coef[1])),
                    float(np.sqrt(np.mean(resid ** 2))),
                    (float(np.min(t)), float(np.max(t))))


def decay_fit(t, d) -> DecayFit:
    """Least-squares decay exponent of d(t); requires a full decade window."""
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    if t.size != d.size or t.size < 3:
        raise ParameterError("need at least 3 matching samples")
    if np.any(d <= 0):
        raise ParameterError("decay data must be positive for a log-log fit")
    if np.any(t <= 0):
        raise ParameterError("abscissa must be positive")
    if np.max(t) / np.min(t) < 10.0 * (1 - 1e-12):
        raise ParameterError("fit window must span at least one decade")
    return _fit_loglog(t, d)


# ---------------------------------------------------------------------------
# the graph-area bound


@dataclass(eq=False)
class C1Function:
    """Function on R^n with an analytically supplied gradient.

    Quadrature-based checks need |Du| without finite-difference noise; keeping
    the gradient exact makes the BV/area inequalities sharp to machine level
    on their common grid.
    """

    n: int
    value_fn: object
    grad_fn: object

    def value(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(pts), dtype=float)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_fn(pts), dtype=float)

    def __add__(self, other: "C1Function") -> "C1Function":
        if self.n != other.n:
            raise ParameterError("dimension mismatch")
        return C1Function(self.n,
                          lambda p: self.value(p) + other.value(p),
                          lambda p: self.gradient(p) + other.gradient(p))

    @classmethod
    def from_cone(cls, k) -> "C1Function":
        """Radial cone graph and its gradient (undefined at 0; clamped to 0
        there)."""
        if k.kind != "radial":
            raise ParameterError("C1Function.from_cone takes radial cones")

        def val(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return k.beta * np.sqrt(np.sum(pts ** 2, axis=-1))

        def grad(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            r = np.sqrt(np.sum(pts ** 2, axis=-1))
            safe = np.where(r > 0, r, 1.0)
            return k.beta * pts / safe[:, None] * (r > 0)[:, None]

        return cls(k.n, val, grad)

    @classmethod
    def gaussian_bumps(cls, n: int, centers, amplitudes, widths) -> "C1Function":
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        widths = np.atleast_1d(np.asarray(widths, dtype=float))

        def val(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            out = np.zeros(pts.shape[0])
            for c, a, w in zip(centers, amplitudes, widths):
                out += a * np.exp(-np.sum((pts - c) ** 2, axis=-1) / (2 * w * w))
            return out

        def grad(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            out = np.zeros_like(pts)
            for c, a, w in zip(centers, amplitudes, widths):
                e = a * np.exp(-np.sum((pts - c) ** 2, axis=-1) / (2 * w * w))
                out += -e[:, None] * (pts - c) / (w * w)
            return out

        return cls(n, val, grad)


@dataclass(frozen=True)
class Ball:
    """Disk B_radius(center) with a midpoint polar quadrature rule of 240
    radial by 128 angular cells."""

    center: tuple
    radius: float

    def quadrature(self):
        m_r, m_phi = 240, 128
        c = np.asarray(self.center, dtype=float)
        s = (np.arange(m_r) + 0.5) * (self.radius / m_r)
        phi = 2.0 * np.pi * (np.arange(m_phi) + 0.5) / m_phi
        S, PHI = np.meshgrid(s, phi, indexing="ij")
        pts = np.stack([c[0] + S * np.cos(PHI), c[1] + S * np.sin(PHI)], axis=-1)
        w = S * (self.radius / m_r) * (2.0 * np.pi / m_phi)
        return pts.reshape(-1, 2), w.ravel()


@dataclass
class AreaBoundReport:
    area: float
    bound: float
    bv: float
    ratio: float
    hypothesis_ok: bool
    passed: bool


def graph_area_bound_check(u0: C1Function, k, x, rho: float,
                           G: float) -> AreaBoundReport:
    """Graph area above the raised radial cone k vs the BV bound, on one
    shared grid.

    area  = integral of sqrt(1+|Du0|^2) over {y in B_rho(x) : u0 > k + rho},
    bound = (4 + 3G/rho) * ||u0 - k||_BV over B_1(x) cut to {|u0-k| > eps(|x|)},

    with the far-field closeness threshold eps(r) = 1/(1+r).
    Both sides use the same midpoint quadrature on B_1(x), so the pointwise
    chain (sqrt(1+|Du0|^2) <= (1+G) + |D(u0-k)| and |set| <= integral |u0-k|/rho)
    carries over node by node.  The chain needs eps(|x|) <= rho (otherwise the
    area set is not contained in the BV set); ``hypothesis_ok`` records that.
    """
    if not (0.0 < rho < 1.0):
        raise ParameterError("rho must lie in (0, 1)")
    if G < 1.0:
        raise ParameterError("gradient bound G must be >= 1")
    if u0.n != 2:
        raise ParameterError("area-bound quadrature is implemented for n = 2")
    x = np.asarray(x, dtype=float)
    kf = C1Function.from_cone(k)
    slope = abs(k.beta)
    if slope > G * (1 + 1e-12):
        raise ParameterError(f"cone slope {slope:.3g} exceeds the declared bound G={G}")

    pts, w = Ball(tuple(x), 1.0).quadrature()
    v = u0.value(pts) - kf.value(pts)
    du0 = u0.gradient(pts)
    dv = du0 - kf.gradient(pts)
    in_rho = np.sum((pts - x) ** 2, axis=-1) <= rho * rho
    area_set = in_rho & (v > rho)
    area = float(np.sum(w[area_set] * np.sqrt(1.0 + np.sum(du0[area_set] ** 2, axis=-1))))

    eps = 1.0 / (1.0 + float(np.sqrt(np.sum(x ** 2))))
    bv_set = np.abs(v) > eps
    bv = float(np.sum(w[bv_set] * (np.abs(v[bv_set])
                                   + np.sqrt(np.sum(dv[bv_set] ** 2, axis=-1)))))
    bound = (4.0 + 3.0 * G / rho) * bv
    return AreaBoundReport(area, bound, bv, area / bound if bound > 0 else np.inf,
                           eps <= rho, area <= bound * (1 + 1e-12) + 1e-15)


# ---------------------------------------------------------------------------
# clearing-out


@dataclass
class ClearingOutReport:
    rho: float
    threshold: float
    t0: float | None
    t_cap: float
    passed: bool
    times: np.ndarray
    center_trace: np.ndarray


def clearing_out_experiment(k, height: float, rho: float) -> ClearingOutReport:
    """Time for a spike of width rho to clear the level k + rho*(2+G), with
    G = max(1, slope of k).

    Evolves u0 = k + bump(r, height, rho) with the boundary pinned to the cone
    and reads the first time the center height drops below the threshold
    (linear interpolation between 400 snapshots).  The cap is 10*rho^2, the
    diffusive scale of the spike.
    """
    from .flow import SolverConfig, evolve

    if k.kind != "radial":
        raise ParameterError("clearing-out experiment is radial")
    G = max(1.0, abs(k.beta))
    t_cap = 10.0 * rho * rho
    threshold = rho * (2.0 + G)  # k(0) = 0
    if height <= threshold:
        raise ParameterError("spike must start above the clearing threshold")

    spec = GridSpec.geometric(k.n, h0=rho / 24.0, r_max=max(20.0 * rho, 4.0),
                              ratio=1.04)
    snap_dt = t_cap / 400
    cfg = SolverConfig(dt_init=snap_dt / 8, dt_max=snap_dt, boundary="pin-to-cone",
                       snapshot_dt=snap_dt)
    u0 = GridFunction(spec, k.beta * spec.nodes + bump(spec.nodes, height, rho))
    run = evolve(u0, t_cap, cfg, cone=k)
    trace = np.array([s.values[0] for s in run.snapshots])
    times = run.times
    below = np.nonzero(trace < threshold)[0]
    if below.size == 0:
        return ClearingOutReport(rho, threshold, None, t_cap, False, times, trace)
    j = int(below[0])
    if j == 0:
        t0 = 0.0
    else:
        f = (trace[j - 1] - threshold) / (trace[j - 1] - trace[j])
        t0 = float(times[j - 1] + f * (times[j] - times[j - 1]))
    return ClearingOutReport(rho, threshold, t0, t_cap, t0 <= t_cap, times, trace)


def clearing_out_scaling(k, rhos=(0.05, 0.1, 0.2)) -> dict:
    """Fit t0(rho) ~ rho^p across spike widths; diffusive scaling gives p ~ 2.

    Each member uses spike height 6 * rho, so the family is
    self-similar under the parabolic rescaling u -> u(lam x, lam^2 t) / lam
    (the cone background is invariant too).  In the continuum the clearing
    times then satisfy t0(rho) = rho^2 t0(1) exactly; the measured exponent
    deviates from 2 only through discretisation.  A fixed spike height would
    break this: the threshold grows like rho while the spike mass does not,
    and the measured exponent drifts toward 1.

    The window is narrower than a decade by design (three binary-spaced
    widths), so the fit bypasses the decade gate of decay_fit.
    """
    reports = [clearing_out_experiment(k, 6.0 * float(r), float(r)) for r in rhos]
    if any(rep.t0 is None or rep.t0 <= 0 for rep in reports):
        raise ParameterError("clearing time not reached within 10 rho^2 "
                             "for some width")
    fit = _fit_loglog(np.asarray([rep.rho for rep in reports]),
                      np.asarray([rep.t0 for rep in reports]))
    return {"exponent": fit.exponent, "constant": fit.constant,
            "t0": {rep.rho: rep.t0 for rep in reports}, "reports": reports}
