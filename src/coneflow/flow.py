"""Implicit time stepping for graphical mean curvature flow on truncated domains.

The PDE u_t = sqrt(1+|Du|^2) H[u] is advanced with implicit Euler; each step
solves the nonlinear system v - u - dt*rhs(v) = 0 by Newton iteration.  In
radial mode the Jacobian of the reduced operator

    rhs(v) = v_rr/(1+v_r^2) + (n-1) v_r/r        (+ (r v_r - v)/2 with drift)

is tridiagonal, assembled analytically as its three diagonals and solved
directly by LAPACK ``gtsv``; polar mode probes the Jacobian by colored
finite differences (the stencil is local, so a handful of probe vectors
recovers every column) and solves with a sparse LU.

Radial residual, Jacobian and per-step diagnostics share one cached
three-point operator per grid (``geometry._radial_operator``), which also
holds the grid-constant parts of the Jacobian.  Per-step diagnostics
(distance to the cone and to the expander, extremes of H) are opt-in:
``evolve`` records them only when asked, and always records step times,
step sizes and Newton counts.  The polar
column coloring and its scatter indices are cached per grid, and the base
state and every probe go through one stacked speed evaluation.  Both modes
run one Newton loop on raw arrays: the accepted backtracking trial's
residual starts the next iteration (on radial grids its (v_r, v_rr) also
feed the Jacobian and the curvature diagnostics), and a non-finite residual
raises NewtonError at once.

Dirichlet data at the truncation radius comes in three flavors: pinned to the
initial values, pinned to a cone, or pinned to the moving expander (needed for
long runs, where a frozen cone value at r_max lags the true solution by
O(t/r_max) and would dominate the far-field error).

The optional similarity drift term turns the stepper into a solver for the
flow written in self-similar variables, where expanders are stationary; the
expander module uses it for anisotropic profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import GridError, NewtonError, ParameterError, StepFailureError
from .geometry import (GridFunction, GridSpec, grids_match, mean_curvature,
                       _polar_speed, _radial_curvatures, _radial_derivatives,
                       _radial_operator, _radial_speed)

__all__ = [
    "SolverConfig",
    "BoundaryValues",
    "FlowRun",
    "boundary_values_for",
    "step",
    "evolve",
    "comparison_check",
    "ComparisonReport",
    "detect_t_delta",
]

_BOUNDARY_MODES = ("pin-to-initial", "pin-to-cone", "pin-to-expander")


@dataclass(frozen=True)
class SolverConfig:
    """Time-step policy, Newton controls, and boundary mode for a run."""

    dt_init: float = 1e-3
    dt_max: float = 0.1
    dt_min: float = 1e-9
    adaptive: bool = True
    target_newton: tuple = (3, 5)
    newton_tol: float = 1e-10
    newton_max_iter: int = 14
    boundary: str = "pin-to-initial"
    snapshot_dt: float = 0.5
    similarity_drift: bool = False

    def __post_init__(self):
        if self.dt_init <= 0 or self.dt_max <= 0 or self.dt_min <= 0:
            raise ParameterError("time steps must be positive")
        if not (0.0 < self.newton_tol <= 1e-4):
            raise ParameterError("newton_tol must lie in (0, 1e-4]")
        if self.boundary not in _BOUNDARY_MODES:
            raise ParameterError(f"boundary mode must be one of {_BOUNDARY_MODES}")
        if self.snapshot_dt <= 0:
            raise ParameterError("snapshot_dt must be positive")


@dataclass
class BoundaryValues:
    """Dirichlet data at the truncation rings; entries may be callables of t."""

    outer: object
    inner: object = None

    def resolve(self, t: float):
        outer = self.outer(t) if callable(self.outer) else self.outer
        inner = self.inner(t) if callable(self.inner) else self.inner
        return outer, inner


def boundary_values_for(u0: GridFunction, config: SolverConfig, cone=None,
                        profile=None) -> BoundaryValues:
    """Build boundary data for a run from the configured mode.

    pin-to-cone needs ``cone`` (a ConeProfile); pin-to-expander needs
    ``profile`` (an ExpanderProfile, read one radius at a time through
    ``value_at``) and is radial only.
    """
    spec = u0.spec
    needs_inner = (not spec.polar and spec.r_min > 0) or (spec.polar and not spec.through_origin)
    if config.boundary == "pin-to-initial":
        outer = u0.values[-1].copy() if spec.polar else float(u0.values[-1])
        inner = (u0.values[0].copy() if spec.polar else float(u0.values[0])) if needs_inner else None
        return BoundaryValues(outer, inner)
    if config.boundary == "pin-to-cone":
        if cone is None:
            raise ParameterError("pin-to-cone boundary needs the cone")
        if spec.polar:
            outer = spec.r_max * np.asarray(cone.gamma(spec.thetas), dtype=float)
            inner = spec.r_min * np.asarray(cone.gamma(spec.thetas), dtype=float) \
                if needs_inner else None
        else:
            outer = float(cone.beta * spec.r_max)
            inner = float(cone.beta * spec.r_min) if needs_inner else None
        return BoundaryValues(outer, inner)
    # pin-to-expander
    if profile is None:
        raise ParameterError("pin-to-expander boundary needs an expander profile")
    if spec.polar:
        raise ParameterError("pin-to-expander boundary is radial-only")

    def pinned_at(r):
        def value(t):
            s = math.sqrt(t)
            return s * profile.value_at(r / s)
        return value

    return BoundaryValues(pinned_at(spec.r_max), pinned_at(spec.r_min) if needs_inner else None)


# ---------------------------------------------------------------------------
# radial residual and Jacobian, both read from geometry's cached operator


def _radial_residual(spec: GridSpec, v: np.ndarray, u_prev: np.ndarray, dt: float,
                     config: SolverConfig, outer, inner):
    """Implicit Euler residual at v with Dirichlet rows, plus (v_r, v_rr)."""
    p, q = _radial_derivatives(spec, v)
    rhs = _radial_speed(spec, p, q)
    if config.similarity_drift:
        rhs = rhs + 0.5 * (spec.nodes * p - v)
    res = v - u_prev - dt * rhs
    res[-1] = v[-1] - outer
    if inner is not None:
        res[0] = v[0] - inner
    return res, p, q


def _radial_newton_matrix(spec: GridSpec, p: np.ndarray, q: np.ndarray, dt: float,
                          config: SolverConfig, fixed_first: bool):
    """Sub-, main and superdiagonal (lower, diag, upper) of (I - dt*J) for
    the radial reduced operator at a state with derivatives (p, q) =
    (v_r, v_rr); ``lower[i]`` couples row i+1 to v_i, ``upper[i]`` row i to
    v_{i+1}.

    Column i of J (stored as ``J[:, i]``, like the operator table) couples
    row i to (v_{i-1}, v_i, v_{i+1}).  The table's one-sided end rows read
    other nodes, so the end columns computed from them are meaningless, but
    the end rows are Dirichlet rows (or, at r = 0, set explicitly) and get
    replaced.
    """
    op = _radial_operator(spec)
    c, d = op.w, op.d
    one_p2 = 1.0 + p * p
    J = d / one_p2 - 2.0 * p * q * c / one_p2 ** 2 + op.w_over_r
    if spec.nodes[0] == 0.0:
        # n*v_rr(0), with the ghost node v_{-1} = v_1 folded into column v_1
        J[:, 0] = (0.0, spec.n * d[1, 0], spec.n * (d[0, 0] + d[2, 0]))
    if config.similarity_drift:
        # drift (r*v_r - v)/2; at an r=0 node only the -v/2 part survives
        J += 0.5 * spec.nodes * c
        J[1] -= 0.5
    lower = -dt * J[0, 1:]
    diag = 1.0 - dt * J[1]
    upper = -dt * J[2, :-1]
    # Dirichlet rows
    diag[-1] = 1.0
    lower[-1] = 0.0
    if fixed_first:
        diag[0] = 1.0
        upper[0] = 0.0
    return lower, diag, upper


def solve_banded(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with diagonals (lower, diag, upper) by
    LAPACK ``gtsv``.

    This is the routine ``scipy.linalg.solve_banded((1, 1), ...)`` calls,
    without its validating wrapper, so the solution has the same bits.  A
    zero pivot or a non-finite solution raises NewtonError.
    """
    *_, x, info = dgtsv(lower, diag, upper, b)
    if info != 0 or not np.isfinite(x).all():
        raise NewtonError(f"tridiagonal Newton solve failed (gtsv info {info})")
    return x


# ---------------------------------------------------------------------------
# polar residual and colored finite-difference Jacobian


def _polar_residual(spec: GridSpec, v: np.ndarray, u_prev: np.ndarray, dt: float,
                    config: SolverConfig, outer, inner) -> np.ndarray:
    """Implicit Euler residual at v with Dirichlet rings."""
    res = v - u_prev - dt * _polar_speed(spec, v, config.similarity_drift)
    res[-1, :] = v[-1, :] - outer
    if inner is not None:
        res[0, :] = v[0, :] - inner
    return res


class _PolarColoring(NamedTuple):
    """Probe masks and scatter indices of the polar Jacobian of one grid.

    ``masks[c]`` marks the unknowns probed together by color c.  Pair k of
    the sparsity couples row ``rows[k]`` to column ``cols[k]``, and its
    difference quotient sits at flat index ``gather[k]`` of the stacked
    (color, row) quotients.
    """

    masks: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    gather: np.ndarray


@lru_cache(maxsize=32)
def _polar_coloring(spec: GridSpec, fixed_inner: bool) -> _PolarColoring:
    """Greedy column coloring of the polar Jacobian, cached per (grid, inner
    pinning); GridSpec hashes by identity.

    Unknowns are all nodes off the Dirichlet rings.  The residual row of node
    (i, j) reads the 3x3 block around it and, on the innermost ring of a
    through-origin grid, the antipodal ghost nodes (0, j + ntheta/2 +- 1), so
    unknown (i, j) reaches the rows of that block off the Dirichlet rings,
    plus the antipodal rows when i = 0.  Columns are colored in natural
    order with the smallest color no earlier column sharing a row holds
    (Coleman-More sequential coloring); one probe per color then recovers
    every column exactly (Curtis-Powell-Reid).
    """
    nr, nt = spec.nr, spec.ntheta
    first = 1 if fixed_inner else 0
    i, j = np.divmod(np.arange(first * nt, (nr - 1) * nt), nt)
    reach = []
    for di in (-1, 0, 1):
        ii = i + di
        live = (ii >= first) & (ii < nr - 1)
        for dj in (-1, 0, 1):
            reach.append(np.where(live, ii * nt + (j + dj) % nt, -1))
    if spec.through_origin:
        for dj in (-1, 0, 1):
            reach.append(np.where(i == 0, (j + nt // 2 + dj) % nt, -1))
    reach = np.stack(reach, axis=1)
    cols = i * nt + j
    colors = np.empty(cols.size, dtype=np.intp)
    held = [set() for _ in range(nr * nt)]  # colors already reaching each row
    for k, rows_k in enumerate(reach.tolist()):
        rows_k = [row for row in rows_k if row >= 0]
        taken = set().union(*(held[row] for row in rows_k))
        c = 0
        while c in taken:
            c += 1
        colors[k] = c
        for row in rows_k:
            held[row].add(c)
    masks = np.zeros((int(colors.max()) + 1, nr * nt), dtype=bool)
    masks[colors, cols] = True
    pairs = reach >= 0
    rows = reach[pairs]
    pair_colors = np.broadcast_to(colors[:, None], reach.shape)[pairs]
    out = _PolarColoring(masks.reshape((-1,) + spec.shape), rows,
                         np.broadcast_to(cols[:, None], reach.shape)[pairs],
                         pair_colors * (nr * nt) + rows)
    for arr in out:
        arr.setflags(write=False)
    return out


def _polar_newton_lu(u_vals: np.ndarray, spec: GridSpec, dt: float,
                     config: SolverConfig, fixed_inner: bool):
    """Sparse LU of (I - dt*J) at state u_vals, J probed by colored differences.

    The base state and one probe per color go through one stacked speed
    evaluation.  Dirichlet unknowns stay clamped (their Newton update is
    zero), so columns coupling interior rows to boundary unknowns are
    dropped; Dirichlet rows keep the identity.
    """
    coloring = _polar_coloring(spec, fixed_inner)
    ntot = u_vals.size
    eps = 1e-7 * (1.0 + float(np.max(np.abs(u_vals))))
    states = np.empty((1 + len(coloring.masks),) + spec.shape)
    states[0] = u_vals
    states[1:] = u_vals + eps * coloring.masks
    speed = _polar_speed(spec, states, config.similarity_drift)
    vals = ((speed[1:] - speed[0]) / eps).ravel()[coloring.gather]
    keep = vals != 0.0
    diag = np.arange(ntot)
    data = np.concatenate((-dt * vals[keep], np.ones(ntot)))
    rows = np.concatenate((coloring.rows[keep], diag))
    cols = np.concatenate((coloring.cols[keep], diag))
    return splu(csc_matrix((data, (rows, cols)), shape=(ntot, ntot)))


def _apply_boundary(vals: np.ndarray, spec: GridSpec, outer, inner):
    vals = vals.copy()
    if spec.polar:
        vals[-1, :] = outer
        if inner is not None:
            vals[0, :] = inner
    else:
        vals[-1] = outer
        if inner is not None:
            vals[0] = inner
    return vals


def step(u: GridFunction, dt: float, config: SolverConfig,
         boundary: BoundaryValues, t_new: float,
         stats: dict | None = None) -> GridFunction:
    """One implicit Euler step of size dt to time ``t_new``.

    Boundary data is evaluated at ``t_new``.  Raises NewtonError, carrying
    the residual history, on stagnation or on a non-finite residual.
    ``stats``, when given, receives the Newton iteration count and residual
    history of the solve and, on radial grids, the derivatives (u_r, u_rr)
    of the returned state under ``"derivatives"``.
    """
    spec = u.spec
    outer, inner = boundary.resolve(t_new)
    fixed_first = (not spec.polar and spec.r_min > 0) or (spec.polar and not spec.through_origin)
    if fixed_first and inner is None:
        raise ParameterError("grid has an inner boundary ring but no inner boundary value")

    v = _apply_boundary(u.values, spec, outer, inner)
    scale = 1.0 + float(np.max(np.abs(u.values)))
    if spec.polar:
        def residual(w):
            return _polar_residual(spec, w, u.values, dt, config, outer, inner), None

        def solve(w, _, res):
            lu = _polar_newton_lu(w, spec, dt, config, fixed_first)
            return lu.solve(res.ravel()).reshape(spec.shape)
    else:
        def residual(w):
            res, p, q = _radial_residual(spec, w, u.values, dt, config, outer, inner)
            return res, (p, q)

        def solve(w, pq, res):
            return solve_banded(*_radial_newton_matrix(spec, *pq, dt, config, fixed_first),
                                res)
    history = []
    v, derivatives = _newton(v, residual, solve, config, scale, history)
    if stats is not None:
        stats["iters"] = len(history) - 1
        stats["residuals"] = history
        if derivatives is not None:
            stats["derivatives"] = derivatives
    return GridFunction(spec, v)


def _newton(v, residual, solve, config, scale, history):
    """Damped Newton on raw arrays; returns the converged v and the extra
    output of ``residual`` at it.

    ``residual(w)`` returns (residual, extra) and ``solve(w, extra, res)``
    the Newton update.  The accepted backtracking trial is the next iterate,
    so its residual and its norm are reused rather than evaluated again.
    Each residual norm goes to ``history``; a non-finite one raises
    NewtonError, and so does a failed solve, with the history attached.
    """
    res, extra = residual(v)
    res_norm = float(np.max(np.abs(res)))
    for _ in range(config.newton_max_iter):
        history.append(res_norm)
        if not np.isfinite(res_norm):
            raise NewtonError(f"non-finite Newton residual after {len(history) - 1} "
                              "iterations", residuals=history)
        if res_norm <= config.newton_tol * scale:
            return v, extra
        try:
            delta = solve(v, extra, res)
        except NewtonError as err:
            err.residuals = list(history)
            raise
        # backtracking keeps the first steps on kinked (conical) data stable;
        # lam < 0.2 accepts the fourth trial at the latest
        lam = 1.0
        while True:
            v_try = v - lam * delta
            r_try, extra = residual(v_try)
            try_norm = float(np.max(np.abs(r_try)))
            if try_norm < res_norm or lam < 0.2:
                break
            lam *= 0.5
        v, res, res_norm = v_try, r_try, try_norm
    raise NewtonError(f"Newton stalled at residual {history[-1]:.3e} after "
                      f"{config.newton_max_iter} iterations", residuals=history)


@dataclass
class FlowRun:
    """Snapshots and per-step records of one evolution.

    ``step_times``, ``step_sizes`` and ``newton_iters`` get one entry per
    accepted step.  The diagnostics ``sup_u_minus_k``, ``sup_u_minus_U``,
    ``min_H`` and ``max_H`` do too when ``evolve`` ran with
    ``diagnostics=True``, and stay empty otherwise.
    """

    snapshots: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    step_times: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    sup_u_minus_k: list = field(default_factory=list)
    sup_u_minus_U: list = field(default_factory=list)
    min_H: list = field(default_factory=list)
    max_H: list = field(default_factory=list)

    def record_snapshot(self, t: float, u: GridFunction):
        if self.snapshot_times and t <= self.snapshot_times[-1]:
            raise GridError("snapshot times must increase strictly")
        self.snapshot_times.append(float(t))
        self.snapshots.append(u.copy())

    def final(self) -> GridFunction:
        return self.snapshots[-1]

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.snapshot_times)

    def at_time(self, t: float, tol: float = 1e-9) -> GridFunction:
        times = self.times
        idx = int(np.argmin(np.abs(times - t)))
        if abs(times[idx] - t) > tol:
            raise ParameterError(f"no snapshot at t={t} (nearest {times[idx]})")
        return self.snapshots[idx]


def _diagnose(run: FlowRun, t, u_new, derivatives, cone_vals, profile):
    """Append one step's diagnostics; H comes from the step's (u_r, u_rr) on
    radial grids."""
    vals = u_new.values
    spec = u_new.spec
    if cone_vals is not None:
        run.sup_u_minus_k.append(float(np.max(np.abs(vals - cone_vals))))
    else:
        run.sup_u_minus_k.append(np.nan)
    if profile is not None and not spec.polar:
        Uv = np.sqrt(t) * profile.evaluate(spec.nodes / np.sqrt(t))
        run.sup_u_minus_U.append(float(np.max(np.abs(vals - Uv))))
    else:
        run.sup_u_minus_U.append(np.nan)
    if derivatives is not None:
        H = _radial_curvatures(spec, *derivatives)[-1]
    else:
        H = mean_curvature(u_new).values
    run.min_H.append(float(np.min(H)))
    run.max_H.append(float(np.max(H)))


def evolve(u0: GridFunction, T: float, config: SolverConfig, cone=None,
           profile=None, t_start: float = 0.0,
           diagnostics: bool = False) -> FlowRun:
    """Advance u0 by T, snapshotting on the exact cadence grid.

    Steps are clipped to land precisely on multiples of ``snapshot_dt`` (past
    t_start), so runs with equal cadence produce comparable snapshot times.
    Adaptive stepping targets the configured Newton-iteration band; failed
    steps retry with halved dt down to dt_min, then raise StepFailureError.
    Step times, step sizes and Newton counts are always recorded; the
    per-step diagnostics (sup|u - k|, sup|u - U|, min and max H) only with
    ``diagnostics=True``.  They do not feed back into the stepping, so the
    snapshots are the same either way.
    """
    if T <= 0:
        raise ParameterError("evolution horizon T must be positive")
    boundary = boundary_values_for(u0, config, cone, profile)
    cone_vals = cone.on_grid(u0.spec).values if diagnostics and cone is not None else None
    run = FlowRun()
    t_end = t_start + T
    t = t_start
    u = u0.copy()
    run.record_snapshot(t, u)
    dt = min(config.dt_init, config.dt_max)
    next_snap = t_start + config.snapshot_dt
    lo, hi = config.target_newton

    while t < t_end - 1e-12:
        dt_try = min(dt, t_end - t, max(next_snap - t, 1e-13))
        stats = {}
        try:
            u_new = step(u, dt_try, config, boundary, t_new=t + dt_try, stats=stats)
        except NewtonError as err:
            if not config.adaptive or dt_try <= config.dt_min * 1.0000001:
                raise StepFailureError(
                    f"step failed at t={t:.6g} with dt={dt_try:.3e}",
                    t=t, dt=dt_try, residuals=err.residuals) from err
            dt = max(dt_try / 2.0, config.dt_min)
            continue
        t = t + dt_try
        run.step_times.append(float(t))
        run.step_sizes.append(float(dt_try))
        run.newton_iters.append(int(stats["iters"]))
        if diagnostics:
            _diagnose(run, t, u_new, stats.get("derivatives"), cone_vals, profile)
        u = u_new
        if abs(t - next_snap) < 1e-10:
            run.record_snapshot(t, u)
            next_snap = next_snap + config.snapshot_dt
        elif t >= t_end - 1e-12:
            run.record_snapshot(t, u)
        if config.adaptive:
            its = run.newton_iters[-1]
            if its < lo:
                dt = min(dt * 1.4, config.dt_max)
            elif its > hi:
                dt = max(dt * 0.7, config.dt_min)
    return run


@dataclass
class ComparisonReport:
    passed: bool
    first_violation: tuple | None
    margins: np.ndarray

    def __bool__(self):
        return self.passed


def comparison_check(run_a: FlowRun, run_b: FlowRun, tol: float = 1e-8,
                     c_scheme: float = 1.0) -> ComparisonReport:
    """Snapshot-wise ordering u_a >= u_b within a scheme-error allowance.

    The allowance grows like tol + c_scheme*(t - t0)*dx^2, reflecting the
    accumulation of truncation error in the discrete comparison principle.
    """
    spec_a = run_a.snapshots[0].spec
    spec_b = run_b.snapshots[0].spec
    if not grids_match(spec_a, spec_b):
        raise GridError("comparison needs identical grids")
    ta, tb = run_a.times, run_b.times
    if ta.size != tb.size or not np.allclose(ta, tb, atol=1e-9):
        raise GridError("comparison needs identical snapshot times")
    init_gap = float(np.min(run_a.snapshots[0].values - run_b.snapshots[0].values))
    if init_gap < -tol:
        raise ParameterError(f"initial ordering violated by {-init_gap:.3e}")
    dx = spec_a.max_spacing()
    margins = np.empty(ta.size)
    first = None
    for idx, t in enumerate(ta):
        allow = tol + c_scheme * (t - ta[0]) * dx * dx
        gap = run_a.snapshots[idx].values - run_b.snapshots[idx].values
        worst = float(np.min(gap))
        margins[idx] = worst + allow
        if worst < -allow and first is None:
            where = np.unravel_index(int(np.argmin(gap)), gap.shape)
            first = (float(t), float(spec_a.nodes[where[0]]), worst)
    return ComparisonReport(first is None, first, margins)


def detect_t_delta(run: FlowRun, k, delta: float):
    """Earliest snapshot time with u >= k - delta everywhere, else None."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    spec = run.snapshots[0].spec
    kv = k.on_grid(spec).values if hasattr(k, "on_grid") else np.asarray(k)
    for t, snap in zip(run.snapshot_times, run.snapshots):
        if float(np.min(snap.values - kv)) >= -delta:
            return float(t)
    return None
