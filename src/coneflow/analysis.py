"""Measurement tools: decay-rate fits, the graph-area bound, clearing-out
times, and ``ScenarioReport``, the one record that the scenario runners,
the static and lemma barriers, the subsolution's residual check, the
half-space experiment and the area-bound check return.

The area-bound and clearing-out checks follow a fixed discretization
principle: when an inequality chains pointwise estimates (as the graph-area
bound does), both sides are evaluated on one common quadrature grid, so the
discrete inequality inherits the pointwise chain and can only fail through an
implementation bug, not through quadrature mismatch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .flow import SolverConfig, evolve
from .geometry import GridFunction, GridSpec

__all__ = [
    "bump",
    "decay_fit",
    "ScenarioReport",
    "graph_area_bound_check",
    "clearing_out_experiment",
    "clearing_out_scaling",
]


class ScenarioReport(NamedTuple):
    """A check's verdict, the JSON-ready values that it measured (for a
    scenario, what its artifact ``experiment_<name>.json`` carries next to
    ``scenario``, ``passed`` and ``claim``), and its trace: the CSV's
    ``(name, unit)`` columns and one row per snapshot (per sample for the
    static barrier, per label for the lemma barrier), or None for a check
    without one."""

    passed: bool
    summary: dict
    trace: tuple | None


def bump(r: np.ndarray, amplitude: float, radius: float) -> np.ndarray:
    """C^1 compact bump amplitude*cos^2(pi r / (2 radius)) inside r < radius."""
    if not radius > 0:
        raise ParameterError("bump radius must be positive")
    s = np.asarray(r, dtype=float) / radius
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = amplitude * np.cos(np.pi * s[inside] / 2.0) ** 2
    return out


def _fit_loglog(t: np.ndarray, d: np.ndarray) -> float:
    """The exponent p of the log-log least-squares fit d ~ C * t^p."""
    return float(np.polyfit(np.log(t), np.log(d), 1)[0])


def decay_fit(t, d) -> float:
    """Least-squares decay exponent of d(t); requires a full decade window."""
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    if t.size != d.size or t.size < 3:
        raise ParameterError("need at least 3 matching samples")
    # NaN compares false with every bound below, and inf fits to a NaN exponent
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(d))):
        raise ParameterError("decay samples must be finite")
    if np.any(d <= 0):
        raise ParameterError("decay data must be positive for a log-log fit")
    if np.any(t <= 0):
        raise ParameterError("abscissa must be positive")
    if np.max(t) / np.min(t) < 10.0 * (1 - 1e-12):
        raise ParameterError("fit window must span at least one decade")
    return _fit_loglog(t, d)


# ---------------------------------------------------------------------------
# the graph-area bound


def _unit_disk(center) -> tuple:
    """(points, weights) of the midpoint polar rule on the unit disk about
    ``center``: 240 radial by 128 angular cells, the points as (2, M) rows."""
    m_r, m_phi = 240, 128
    h = 1.0 / m_r
    c = np.asarray(center, dtype=float)
    s = (np.arange(m_r) + 0.5) * h
    phi = 2.0 * np.pi * (np.arange(m_phi) + 0.5) / m_phi
    S = s[:, None]
    pts = np.stack([c[0] + S * np.cos(phi), c[1] + S * np.sin(phi)])
    w = np.repeat(s * h * (2.0 * np.pi / m_phi), m_phi)
    return pts.reshape(2, -1), w


def _cone(beta: float, pts: np.ndarray) -> tuple:
    """beta * |y| and its gradient (0 at the origin) at the columns of the
    (d, M) rows ``pts``."""
    r = np.sqrt(np.sum(pts ** 2, axis=0))
    safe = np.where(r > 0, r, 1.0)
    return beta * r, beta * pts / safe * (r > 0)


def _gaussian_bumps(pts: np.ndarray, centers, amplitudes, widths) -> tuple:
    """Sum of a * exp(-|y - c|^2 / (2 w^2)) over the bumps, and its
    gradient, at the columns of the (2, M) rows ``pts``."""
    value = np.zeros(pts.shape[1])
    grad = np.zeros_like(pts)
    for c, a, w in zip(np.atleast_2d(centers), np.atleast_1d(amplitudes),
                       np.atleast_1d(widths)):
        d = pts - c[:, None]
        e = a * np.exp(-(d[0] ** 2 + d[1] ** 2) / (2 * w * w))
        value += e
        np.multiply(-e, d, out=d)
        d /= w * w
        grad += d
    return value, grad


def _gradient_bound(k) -> float:
    """G = max(1, slope of k), the area bound's and clearing-out's G."""
    return max(1.0, abs(k.beta))


def graph_area_bound_check(k, bumps, x, rho: float) -> ScenarioReport:
    """Graph area above the raised radial cone k vs the BV bound, on one
    shared grid.

    The graph is u0 = k + the Gaussian bumps ``(centers, amplitudes,
    widths)``, with its exact gradient, and

    area  = integral of sqrt(1+|Du0|^2) over {y in B_rho(x) : u0 > k + rho},
    bound = (4 + 3G/rho) * ||u0 - k||_BV over B_1(x) cut to {|u0-k| > eps(|x|)},

    with G = max(1, slope of k) and the far-field closeness threshold
    eps(r) = 1/(1+r).
    Both sides use the same midpoint quadrature on B_1(x), so the pointwise
    chain (sqrt(1+|Du0|^2) <= (1+G) + |D(u0-k)| and |set| <= integral |u0-k|/rho)
    carries over node by node.  The chain needs eps(|x|) <= rho (otherwise the
    area set is not contained in the BV set).  The report's summary holds
    the ``area`` and whether that hypothesis holds, ``hypothesis_ok``.
    """
    if not (0.0 < rho < 1.0):
        raise ParameterError("rho must lie in (0, 1)")
    if k.n != 2:
        raise ParameterError("area-bound quadrature is implemented for n = 2")
    if k.kind != "radial":
        raise ParameterError("the area bound is checked over radial cones")
    x = np.asarray(x, dtype=float)

    pts, w = _unit_disk(x)
    bumps_v, bumps_dv = _gaussian_bumps(pts, *bumps)
    cone, dcone = _cone(k.beta, pts)
    # u0 = cone + bumps, and u0 - k is taken from u0 as the chain reads it;
    # each part is dropped once read, which bounds the peak memory
    v = (cone + bumps_v) - cone
    du0 = dcone + bumps_dv
    del bumps_v, bumps_dv, cone
    dv = du0 - dcone
    del dcone
    pts -= x[:, None]
    in_rho = pts[0] ** 2 + pts[1] ** 2 <= rho * rho
    area_set = in_rho & (v > rho)
    du0 = du0[:, area_set]
    area = float(np.sum(w[area_set] * np.sqrt(1.0 + (du0[0] ** 2 + du0[1] ** 2))))

    eps = 1.0 / (1.0 + float(np.sqrt(np.sum(x ** 2))))
    bv_set = np.abs(v) > eps
    dv = dv[:, bv_set]
    bv = float(np.sum(w[bv_set] * (np.abs(v[bv_set]) + np.sqrt(dv[0] ** 2 + dv[1] ** 2))))
    bound = (4.0 + 3.0 * _gradient_bound(k) / rho) * bv
    return ScenarioReport(area <= bound * (1 + 1e-12) + 1e-15,
                          {"area": area, "hypothesis_ok": eps <= rho}, None)


# ---------------------------------------------------------------------------
# clearing-out


def clearing_out_experiment(k, height: float, rho: float) -> float | None:
    """Time for a spike of width rho to clear the level k + rho*(2+G), with
    G = max(1, slope of k), or None when it stays above it through the cap.

    Evolves u0 = k + bump(r, height, rho), whose outer node (past the spike)
    is the cone's and stays pinned, and reads the first time the center
    height drops below the threshold (linear interpolation between 400
    snapshots).  The cap is 10*rho^2, the diffusive scale of the spike.
    """
    if k.kind != "radial":
        raise ParameterError("clearing-out experiment is radial")
    t_cap = 10.0 * rho * rho
    threshold = rho * (2.0 + _gradient_bound(k))  # k(0) = 0
    if height <= threshold:
        raise ParameterError("spike must start above the clearing threshold")

    spec = GridSpec.geometric(k.n, h0=rho / 24.0, r_max=max(20.0 * rho, 4.0),
                              ratio=1.04)
    snap_dt = t_cap / 400
    cfg = SolverConfig(dt_init=snap_dt / 8, dt_max=snap_dt, snapshot_dt=snap_dt)
    u0 = GridFunction(spec, k.beta * spec.nodes + bump(spec.nodes, height, rho))
    run = evolve(u0, t_cap, cfg)
    trace, times = run.values[:, 0], run.times
    below = np.nonzero(trace < threshold)[0]
    if below.size == 0:
        return None
    # the spike starts above the threshold, so j >= 1
    j = int(below[0])
    f = (trace[j - 1] - threshold) / (trace[j - 1] - trace[j])
    return float(times[j - 1] + f * (times[j] - times[j - 1]))


def clearing_out_scaling(k, rhos=(0.05, 0.1, 0.2)) -> float:
    """Fit t0(rho) ~ rho^p across spike widths; diffusive scaling gives p ~ 2.

    Each member uses spike height 6 * rho, so the family is
    self-similar under the parabolic rescaling u -> u(lam x, lam^2 t) / lam
    (the cone background is invariant too).  In the continuum the clearing
    times then satisfy t0(rho) = rho^2 t0(1) exactly; the measured exponent
    deviates from 2 only through discretisation.  A fixed spike height would
    break this: the threshold grows like rho while the spike mass does not,
    and the measured exponent drifts toward 1.

    The window is narrower than a decade by design (three binary-spaced
    widths), so the fit bypasses the decade gate of decay_fit.  Returns the
    fitted exponent p.
    """
    rhos = [float(r) for r in rhos]
    if len({r for r in rhos if r > 0}) < 2:
        raise ParameterError(f"the fit needs two distinct positive widths, got {rhos}")
    t0 = [clearing_out_experiment(k, 6.0 * r, r) for r in rhos]
    if None in t0:
        raise ParameterError("clearing time not reached within 10 rho^2 "
                             "for some width")
    return _fit_loglog(np.asarray(rhos), np.asarray(t0))
