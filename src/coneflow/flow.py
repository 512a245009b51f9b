"""Implicit time stepping for graphical mean curvature flow of entire graphs.

The PDE u_t = sqrt(1+|Du|^2) H[u] is advanced with implicit Euler; each step
solves the nonlinear system v - u - dt*rhs(v) = 0 by Newton iteration.  In
radial mode the Jacobian of the reduced operator

    rhs(v) = v_rr/(1+v_r^2) + (n-1) v_r/r

is tridiagonal, assembled analytically as its three diagonals and solved
directly by LAPACK ``gtsv``; polar mode probes the Jacobian by colored
finite differences (the stencil is local, so a handful of probe vectors
recovers every column) and solves with a sparse LU.  The polar matrix's CSC
arrays are written straight from the coloring's column-ordered pairs, and
SuperLU factors it in the natural order: the ring-major numbering is
already a band ordering (bandwidth about 2*ntheta, from the periodic wrap),
so no fill-reducing column order is computed per matrix.

Every grid continues across the origin (a radial grid from r = 0, a polar
grid through its antipodal ring), so the truncation ring r = r_max is the
only Dirichlet boundary.  Both grid modes read one cached three-point
operator per grid (``geometry._radial_operator``), which on radial grids
also holds the grid-constant parts of the Jacobian, and share one residual
and one Newton loop.  Per-step diagnostics (distance to the cone and to
the expander, extremes of H) are opt-in: ``evolve`` records them only when
asked, and always records step times, step sizes and Newton counts.  The
polar column coloring and its scatter indices are cached per grid, and the
base state and every probe go through one stacked speed evaluation.  Newton
runs on raw arrays: the accepted backtracking trial's residual starts the
next iteration (on radial grids its (v_r, v_rr, 1+v_r^2) also feed the
Jacobian), and a non-finite residual raises NewtonError at once.  A radial
step costs its number of numpy calls, so its kernels reuse arrays in place,
in the formulas' operation order.

The Dirichlet data comes in three flavors: pinned to the initial values,
pinned to a cone, or pinned to the moving expander (needed for long runs,
where a frozen cone value at r_max lags the true solution by O(t/r_max) and
would dominate the far-field error).

The optional similarity drift term (r v_r - v)/2, polar only, turns the
stepper into a solver for the flow in self-similar variables, where
expanders are stationary; the expander module uses it for anisotropic
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg
from scipy.linalg.lapack import dgtsv
from scipy.sparse import csc_matrix

from .errors import GridError, NewtonError, ParameterError, StepFailureError
from .geometry import (GridFunction, GridSpec, grids_match, mean_curvature,
                       _polar_speed, _radial_derivatives, _radial_operator,
                       _radial_speed)

__all__ = [
    "SolverConfig",
    "FlowRun",
    "boundary_values_for",
    "step",
    "evolve",
    "comparison_check",
    "ComparisonReport",
    "detect_t_delta",
]

_BOUNDARY_MODES = ("pin-to-initial", "pin-to-cone", "pin-to-expander")

# the ring-major numbering is already a band ordering, so SuperLU factors in it
splu = partial(scipy.sparse.linalg.splu, permc_spec="NATURAL")

# Newton iterations before a step fails, the per-step Newton counts adaptive
# runs steer between, and the floor of dt when failed steps halve it
_NEWTON_MAX_ITER, _TARGET_NEWTON, _DT_MIN = 14, (3, 5), 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Time-step policy, Newton controls, and boundary mode for a run."""

    dt_init: float = 1e-3
    dt_max: float = 0.1
    adaptive: bool = True
    newton_tol: float = 1e-10
    boundary: str = "pin-to-initial"
    snapshot_dt: float = 0.5
    similarity_drift: bool = False

    def __post_init__(self):
        if not all(0 < dt < math.inf for dt in (self.dt_init, self.dt_max)):
            raise ParameterError("time steps must be positive and finite")
        if not (0.0 < self.newton_tol <= 1e-4):
            raise ParameterError("newton_tol must lie in (0, 1e-4]")
        if self.boundary not in _BOUNDARY_MODES:
            raise ParameterError(f"boundary mode must be one of {_BOUNDARY_MODES}")
        if not 0 < self.snapshot_dt < math.inf:
            raise ParameterError("snapshot_dt must be positive and finite")


def boundary_values_for(u0: GridFunction, config: SolverConfig, cone=None,
                        profile=None):
    """The outer ring's Dirichlet data, as a function of t, for a run.

    pin-to-cone needs ``cone`` (a ConeProfile); pin-to-expander needs
    ``profile`` (an ExpanderProfile, read one radius at a time through
    ``value_at``) and is radial only.  Every grid continues across the
    origin (``GridSpec`` admits no other layout), so the outer ring is the
    only boundary.  The similarity drift is polar only.
    """
    spec = u0.spec
    if config.similarity_drift and not spec.polar:
        raise ParameterError("the similarity drift runs on polar grids only")
    if config.boundary == "pin-to-expander":
        if profile is None:
            raise ParameterError("pin-to-expander boundary needs an expander profile")
        if spec.polar:
            raise ParameterError("pin-to-expander boundary is radial-only")
        r = spec.r_max

        def outer(t):
            s = math.sqrt(t)
            return s * profile.value_at(r / s)
        return outer
    if config.boundary == "pin-to-initial":
        vals = u0.values
    elif cone is None:
        raise ParameterError("pin-to-cone boundary needs the cone")
    else:
        vals = cone.on_grid(spec).values
    pinned = vals[-1].copy()
    return lambda t: pinned


# ---------------------------------------------------------------------------
# the Newton residual, and the radial Jacobian from geometry's cached operator


def _residual(spec: GridSpec, v: np.ndarray, u_prev: np.ndarray, dt: float,
              config: SolverConfig, outer):
    """Implicit Euler residual at v with the outer ring's Dirichlet rows,
    plus (v_r, v_rr, 1+v_r^2) on radial grids (None on polar grids)."""
    if spec.polar:
        rhs, pq = _polar_speed(spec, v, config.similarity_drift), None
    else:
        pq = _radial_derivatives(spec, v)
        rhs, one_p2 = _radial_speed(spec, *pq)
        pq += (one_p2,)
    res = v - u_prev - dt * rhs
    res[-1] = v[-1] - outer
    return res, pq


def _radial_newton_matrix(spec: GridSpec, p: np.ndarray, q: np.ndarray,
                          one_p2: np.ndarray, dt: float):
    """Sub-, main and superdiagonal (lower, diag, upper) of (I - dt*J) for
    the radial reduced operator at a state with derivatives (p, q) =
    (v_r, v_rr) and one_p2 = 1+v_r^2; ``lower[i]`` couples row i+1 to v_i,
    ``upper[i]`` row i to v_{i+1}.

    Column i of J (stored as ``J[:, i]``, like the operator table) couples
    row i to (v_{i-1}, v_i, v_{i+1}).  The table's one-sided end rows read
    other nodes, so the end columns computed from them are meaningless, but
    both are replaced: by the r = 0 limit and by the Dirichlet row.  The
    diagonals are rows of one (3, N) array A = -dt*J, built in place.
    """
    op = _radial_operator(spec)
    curv = op.w * (2.0 * p * q)
    curv /= one_p2 * one_p2
    A = op.d / one_p2
    A -= curv
    A += op.w_over_r
    A[:, 0] = op.axis_col
    A *= -dt
    diag = A[1]
    diag += 1.0
    diag[-1], A[0, -1] = 1.0, 0.0  # the outer Dirichlet row
    return A[0, 1:], diag, A[2, :-1]


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


class _PolarColoring(NamedTuple):
    """Probe masks and scatter indices of the polar Jacobian of one grid.

    ``masks[c]`` marks the unknowns probed together by color c.  Pair k of
    the sparsity couples row ``rows[k]`` to column ``cols[k]``, and its
    difference quotient sits at flat index ``gather[k]`` of the stacked
    (color, row) quotients.  The pairs are ordered by column and then row,
    and ``diag`` lists the positions of the unknowns' diagonal pairs.
    """

    masks: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    gather: np.ndarray
    diag: np.ndarray


@lru_cache(maxsize=32)
def _polar_coloring(spec: GridSpec) -> _PolarColoring:
    """Greedy column coloring of the polar Jacobian, cached per grid
    (GridSpec hashes by identity).

    Unknowns are all nodes off the outer Dirichlet ring.  The residual row
    of node (i, j) reads the nodes its row of the radial table lists
    (``_radial_operator(spec).rows``, the antipodal ghost included) and the
    two angular neighbours of each, through the angular and mixed
    derivatives; the unknowns among them are the row's sparsity.  Columns
    are colored in natural order with the smallest color no earlier column
    sharing a row holds (Coleman-More sequential coloring); one probe per
    color then recovers every column exactly (Curtis-Powell-Reid).
    """
    nr, nt = spec.nr, spec.ntheta
    size = nr * nt
    unknown = np.arange(size) < (nr - 1) * nt
    ring, j = np.divmod(_radial_operator(spec).rows.reshape(3, size), nt)
    reads = np.concatenate([ring * nt + (j + dj) % nt for dj in (-1, 0, 1)])
    row = np.broadcast_to(np.arange(size), reads.shape)
    live = unknown[row] & unknown[reads]
    # the (row, col) pairs, ordered by column and then row
    cols, rows = np.divmod(np.unique(reads[live] * size + row[live]), size)
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    colors = np.zeros(size, dtype=np.intp)
    held = [set() for _ in range(size)]  # colors already reaching each row
    for col, rows_c in zip(cols[starts].tolist(), np.split(rows, starts[1:])):
        rows_c = rows_c.tolist()
        taken = set().union(*(held[r] for r in rows_c))
        c = 0
        while c in taken:
            c += 1
        colors[col] = c
        for r in rows_c:
            held[r].add(c)
    pair_colors = colors[cols]
    masks = np.zeros((int(pair_colors.max()) + 1, size), dtype=bool)
    masks[pair_colors, cols] = True
    out = _PolarColoring(masks.reshape((-1,) + spec.shape), rows, cols,
                         pair_colors * size + rows, np.flatnonzero(rows == cols))
    for arr in out:
        arr.setflags(write=False)
    return out


def _polar_newton_lu(u_vals: np.ndarray, spec: GridSpec, dt: float,
                     config: SolverConfig):
    """Sparse LU of (I - dt*J) at state u_vals, J probed by colored differences.

    The base state and one probe per color go through one stacked speed
    evaluation.  The outer ring's unknowns stay clamped (their Newton update
    is zero), so columns coupling interior rows to them are dropped; its
    Dirichlet rows keep the identity.

    The CSC arrays are written directly: the coloring's pairs are already
    in column-then-row order and hold every unknown's diagonal, and the
    Dirichlet ring is the last ``ntheta`` columns, identity only.  As in a
    COO build, off-diagonal exact zeros are dropped and each diagonal entry
    is -dt*J_ii + 1.  SuperLU then factors in natural order (``splu``): the
    ring-major numbering is a band ordering of bandwidth about 2*ntheta
    (the periodic wrap), so a fill-reducing column order computed anew for
    every matrix only costs time.
    """
    coloring = _polar_coloring(spec)
    ntot = u_vals.size
    eps = 1e-7 * (1.0 + float(np.max(np.abs(u_vals))))
    states = np.empty((1 + len(coloring.masks),) + spec.shape)
    states[0] = u_vals
    states[1:] = u_vals + eps * coloring.masks
    speed = _polar_speed(spec, states, config.similarity_drift)
    vals = ((speed[1:] - speed[0]) / eps).ravel()[coloring.gather]
    data = -dt * vals
    data[coloring.diag] += 1.0
    keep = vals != 0.0
    keep[coloring.diag] = True
    ring = np.arange(ntot - spec.ntheta, ntot)
    counts = np.bincount(coloring.cols[keep], minlength=ntot)
    counts[ring] = 1
    data = np.concatenate((data[keep], np.ones(spec.ntheta)))
    indices = np.concatenate((coloring.rows[keep], ring))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return splu(csc_matrix((data, indices, indptr), shape=(ntot, ntot)))


def step(u: GridFunction, dt: float, config: SolverConfig, boundary,
         t_new: float, stats: dict | None = None) -> GridFunction:
    """One implicit Euler step of size dt to time ``t_new``.

    ``boundary`` is the outer-ring data of :func:`boundary_values_for`,
    evaluated at ``t_new``.  Raises NewtonError, carrying the residual
    history, on stagnation or on a non-finite residual.
    ``stats``, when given, receives the Newton iteration count and residual
    history of the solve.
    """
    spec = u.spec
    outer = boundary(t_new)
    v = u.values.copy()
    v[-1] = outer
    scale = 1.0 + float(abs(u.values).max())

    def residual(w):
        return _residual(spec, w, u.values, dt, config, outer)

    if spec.polar:
        def solve(w, _, res):
            lu = _polar_newton_lu(w, spec, dt, config)
            return lu.solve(res.ravel()).reshape(spec.shape)
    else:
        def solve(w, pq, res):
            return solve_banded(*_radial_newton_matrix(spec, *pq, dt), res)
    history = []
    v = _newton(v, residual, solve, config, scale, history)
    if stats is not None:
        stats["iters"] = len(history) - 1
        stats["residuals"] = history
    return GridFunction(spec, v)


def _newton(v, residual, solve, config, scale, history):
    """Damped Newton on raw arrays; returns the converged v.

    ``residual(w)`` returns (residual, extra) and ``solve(w, extra, res)``
    the Newton update.  The accepted backtracking trial is the next iterate,
    so its residual and its norm are reused rather than evaluated again.
    Each residual norm goes to ``history``; a non-finite one raises
    NewtonError, and so does a failed solve, with the history attached.
    """
    res, extra = residual(v)
    res_norm = float(abs(res).max())
    for _ in range(_NEWTON_MAX_ITER):
        history.append(res_norm)
        if not np.isfinite(res_norm):
            raise NewtonError(f"non-finite Newton residual after {len(history) - 1} "
                              "iterations", residuals=history)
        if res_norm <= config.newton_tol * scale:
            return v
        try:
            delta = solve(v, extra, res)
        except NewtonError as err:
            err.residuals = list(history)
            raise
        # backtracking keeps the first steps on kinked (conical) data stable;
        # lam < 0.2 accepts the fourth trial at the latest
        lam, v_try = 1.0, v - delta
        while True:
            r_try, extra = residual(v_try)
            try_norm = float(abs(r_try).max())
            if try_norm < res_norm or lam < 0.2:
                break
            lam *= 0.5
            v_try = v - lam * delta
        v, res, res_norm = v_try, r_try, try_norm
    raise NewtonError(f"Newton stalled at residual {history[-1]:.3e} after "
                      f"{_NEWTON_MAX_ITER} iterations", residuals=history)


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


def _diagnose(run: FlowRun, t, u_new, cone_vals, profile):
    """Append one step's diagnostics."""
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
    H = mean_curvature(u_new).values
    run.min_H.append(float(np.min(H)))
    run.max_H.append(float(np.max(H)))


def evolve(u0: GridFunction, T: float, config: SolverConfig, cone=None,
           profile=None, t_start: float = 0.0,
           diagnostics: bool = False) -> FlowRun:
    """Advance u0 by T, snapshotting on the exact cadence grid.

    Steps are clipped to land precisely on multiples of ``snapshot_dt`` (past
    t_start), so runs with equal cadence produce comparable snapshot times.
    Adaptive stepping targets 3 to 5 Newton iterations per step; failed
    steps retry with halved dt down to 1e-9, then raise StepFailureError.
    Step times, step sizes and Newton counts are always recorded; the
    per-step diagnostics (sup|u - k|, sup|u - U|, min and max H) only with
    ``diagnostics=True``.  They do not feed back into the stepping, so the
    snapshots are the same either way.
    """
    if not 0 < T < math.inf:
        raise ParameterError(f"evolution horizon T must be positive and finite, got {T}")
    t_end = t_start + T
    if not t_start < t_end - 1e-12:
        raise ParameterError(f"evolution horizon T={T} is within the 1e-12 landing "
                             f"tolerance of t_start={t_start}: no step would be taken")
    boundary = boundary_values_for(u0, config, cone, profile)
    cone_vals = cone.on_grid(u0.spec).values if diagnostics and cone is not None else None
    run = FlowRun()
    t = t_start
    u = u0.copy()
    run.record_snapshot(t, u)
    dt = min(config.dt_init, config.dt_max)
    next_snap = t_start + config.snapshot_dt
    lo, hi = _TARGET_NEWTON

    while t < t_end - 1e-12:
        dt_try = min(dt, t_end - t, max(next_snap - t, 1e-13))
        stats = {}
        try:
            u_new = step(u, dt_try, config, boundary, t_new=t + dt_try, stats=stats)
        except NewtonError as err:
            if not config.adaptive or dt_try <= _DT_MIN * 1.0000001:
                raise StepFailureError(
                    f"step failed at t={t:.6g} with dt={dt_try:.3e}",
                    t=t, dt=dt_try, residuals=err.residuals) from err
            dt = max(dt_try / 2.0, _DT_MIN)
            continue
        t = t + dt_try
        run.step_times.append(float(t))
        run.step_sizes.append(float(dt_try))
        run.newton_iters.append(int(stats["iters"]))
        if diagnostics:
            _diagnose(run, t, u_new, cone_vals, profile)
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
                dt = max(dt * 0.7, _DT_MIN)
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
    if not (0 <= tol < math.inf and 0 <= c_scheme < math.inf):
        raise ParameterError("tol and c_scheme must be finite and non-negative")
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
    """Earliest snapshot time with u >= k - delta everywhere (k a cone),
    else None."""
    if not delta > 0:
        raise ParameterError("delta must be positive")
    kv = k.on_grid(run.snapshots[0].spec).values
    for t, snap in zip(run.snapshot_times, run.snapshots):
        if float(np.min(snap.values - kv)) >= -delta:
            return float(t)
    return None
