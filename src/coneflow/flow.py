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

The Dirichlet data comes in two flavors: pinned to the initial values, or
pinned to the moving expander (needed for long runs, where a frozen cone
value at r_max lags the true solution by O(t/r_max) and would dominate the
far-field error).

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
from .expander import evaluate_U
from .geometry import (GridFunction, GridSpec, mean_curvature, _polar_derivatives,
                       _polar_speed, _radial_derivatives, _radial_operator,
                       _radial_speed)

__all__ = [
    "SolverConfig",
    "FlowRun",
    "boundary_values_for",
    "step",
    "evolve",
    "comparison_check",
    "detect_t_delta",
]

_BOUNDARY_MODES = ("pin-to-initial", "pin-to-expander")

# the ring-major numbering is already a band ordering, so SuperLU factors in it
splu = partial(scipy.sparse.linalg.splu, permc_spec="NATURAL")

# Newton iterations before a step fails, the per-step Newton counts adaptive
# runs steer between, and the floor of dt when failed steps halve it
_NEWTON_MAX_ITER, _TARGET_NEWTON, _DT_MIN = 14, (3, 5), 1e-9

# the most snapshots one run holds, 25 times criterion 10's 4,000: a finer
# cadence for the horizon is a usage error, raised before the buffer exists
_MAX_SNAPSHOTS = 100_000

# the most steps a run may take at its largest step, 100 times criterion
# 10's 10,000; a smaller step for the horizon is refused before the first one
_MAX_STEPS = 1_000_000

# the comparison allowance _ALLOW_TOL + _ALLOW_C*(t - t0)*dx^2
_ALLOW_TOL, _ALLOW_C = 1e-8, 1.0


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


def boundary_values_for(u0: GridFunction, config: SolverConfig, profile=None):
    """The outer ring's Dirichlet data, as a function of t, for a run.

    pin-to-expander needs ``profile`` (an ExpanderProfile, read one radius
    at a time through ``value_at``) and is radial only.  Every grid
    continues across the origin (``GridSpec`` admits no other layout), so
    the outer ring is the only boundary.  The similarity drift is polar only.
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
    pinned = u0.values[-1].copy()
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

    ``values[j]`` is the state at ``times[j]`` on ``spec``: ``times`` is a
    strictly increasing 1-D array, ``values`` has shape
    ``(times.size, *spec.shape)``, and both are checked (finite values
    included) when the run is built.  ``step_times``, ``step_sizes`` and
    ``newton_iters`` get one entry per accepted step.  The diagnostics
    ``sup_u_minus_k``, ``sup_u_minus_U``, ``min_H`` and ``max_H`` do too
    when ``evolve`` ran with ``diagnostics=True``, and stay empty otherwise.
    """

    spec: GridSpec
    times: np.ndarray
    values: np.ndarray
    step_times: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    sup_u_minus_k: list = field(default_factory=list)
    sup_u_minus_U: list = field(default_factory=list)
    min_H: list = field(default_factory=list)
    max_H: list = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or not self.times.size or np.any(np.diff(self.times) <= 0):
            raise GridError("snapshot times must be nonempty and increase strictly")
        if self.values.shape != self.times.shape + self.spec.shape:
            raise GridError(f"snapshot values of shape {self.values.shape} do not fit "
                            f"{self.times.size} snapshots of grid {self.spec.shape}")
        # min and max propagate NaN: both are finite only if every value is
        if not np.isfinite([self.values.min(), self.values.max()]).all():
            raise GridError("snapshot values must be finite")

    def first_time(self, hits) -> float | None:
        """The earliest snapshot time where ``hits`` (one flag per snapshot)
        holds, else None."""
        hit = np.flatnonzero(hits)
        return float(self.times[hit[0]]) if hit.size else None


def _diagnose(t, u_new, cone_vals, profile):
    """One step's sup|u - k|, sup|u - U|, min H and max H."""
    vals = u_new.values
    sup_k = np.nan if cone_vals is None else float(np.max(np.abs(vals - cone_vals)))
    sup_U = np.nan
    if profile is not None and not u_new.spec.polar:
        sup_U = float(np.max(np.abs(vals - evaluate_U(profile, u_new.spec.nodes, t))))
    H = mean_curvature(u_new).values
    return sup_k, sup_U, float(np.min(H)), float(np.max(H))


def evolve(u0: GridFunction, T: float, config: SolverConfig, cone=None,
           profile=None, t_start: float = 0.0,
           diagnostics: bool = False) -> FlowRun:
    """Advance u0 by T, snapshotting on the exact cadence grid.

    Steps are clipped to land precisely on multiples of ``snapshot_dt`` (past
    t_start), so runs with equal cadence produce comparable snapshot times.
    The snapshots are written as rows of one buffer sized from the cadence,
    and the run holds the rows filled; a horizon of more than 100,000
    cadence intervals is a ParameterError.
    Adaptive stepping targets 3 to 5 Newton iterations per step; failed
    steps retry with halved dt down to 1e-9, then raise StepFailureError.
    A run that needs more than 1,000,000 steps at its largest step (dt_max
    when adaptive, else min(dt_init, dt_max)) is a ParameterError, and so
    is initial data whose slope squared is not finite.
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
    intervals = T / config.snapshot_dt
    if not intervals <= _MAX_SNAPSHOTS:
        raise ParameterError(f"horizon {T} at snapshot_dt {config.snapshot_dt} asks for "
                             f"{intervals:.3g} snapshots, more than the "
                             f"{_MAX_SNAPSHOTS} a run holds")
    dt_top = config.dt_max if config.adaptive else min(config.dt_init, config.dt_max)
    if not T / dt_top <= _MAX_STEPS:
        raise ParameterError(f"horizon {T} at steps of at most {dt_top} needs "
                             f"{T / dt_top:.3g} steps, more than the {_MAX_STEPS} "
                             "a run may take")
    spec = u0.spec
    # the speed and the Newton matrix square the slope, so |Du|^2 must be finite
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.polar:
            ur, ut = _polar_derivatives(spec, u0.values)[:2]
            slope2 = ur ** 2 + (ut / spec.nodes[:, None]) ** 2
        else:
            slope2 = _radial_derivatives(spec, u0.values)[0] ** 2
    if not np.isfinite(slope2).all():
        raise ParameterError("the initial data's slope squared is not finite")
    boundary = boundary_values_for(u0, config, profile)
    cone_vals = cone.on_grid(spec).values if diagnostics and cone is not None else None
    # t_start, every cadence time up to t_end (one may land within 1e-10
    # past it) and t_end itself
    times = np.empty(int(intervals) + 3)
    values = np.empty(times.shape + spec.shape)
    times[0], values[0] = t_start, u0.values
    count = 1
    step_times, step_sizes, newton_iters = [], [], []
    diag = ([], [], [], [])
    t, u = t_start, u0
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
        step_times.append(float(t))
        step_sizes.append(float(dt_try))
        newton_iters.append(int(stats["iters"]))
        if diagnostics:
            for trace, x in zip(diag, _diagnose(t, u_new, cone_vals, profile)):
                trace.append(x)
        u = u_new
        on_cadence = abs(t - next_snap) < 1e-10
        if on_cadence or t >= t_end - 1e-12:
            times[count], values[count] = t, u.values
            count += 1
        if on_cadence:
            next_snap = next_snap + config.snapshot_dt
        if config.adaptive:
            its = newton_iters[-1]
            if its < lo:
                dt = min(dt * 1.4, config.dt_max)
            elif its > hi:
                dt = max(dt * 0.7, _DT_MIN)
    sup_k, sup_U, min_H, max_H = diag
    return FlowRun(spec, times[:count], values[:count], step_times=step_times,
                   step_sizes=step_sizes, newton_iters=newton_iters, sup_u_minus_k=sup_k,
                   sup_u_minus_U=sup_U, min_H=min_H, max_H=max_H)


def _allowance(times: np.ndarray, dx: float) -> np.ndarray:
    """The scheme-error allowance 1e-8 + (t - t0)*dx^2 at ``times``: the
    truncation error the discrete comparison principle accumulates."""
    return _ALLOW_TOL + _ALLOW_C * (times - times[0]) * dx * dx


def comparison_check(upper: np.ndarray, lower: np.ndarray, times, dx: float) -> bool:
    """Snapshot-wise ordering upper >= lower within the scheme-error
    allowance ``_allowance``.

    ``upper`` and ``lower`` are (T, *shape) stacks of snapshots at the T
    ``times``, on one grid of largest spacing ``dx``.
    """
    times = np.asarray(times, dtype=float)
    if upper.shape != lower.shape or upper.shape[:1] != times.shape:
        raise GridError(f"comparison needs snapshot stacks of one shape at the "
                        f"{times.size} times, got {upper.shape} and {lower.shape}")
    init_gap = float(np.min(upper[0] - lower[0]))
    if init_gap < -_ALLOW_TOL:
        raise ParameterError(f"initial ordering violated by {-init_gap:.3e}")
    worst = np.array([np.min(a - b) for a, b in zip(upper, lower)])
    return not np.any(worst < -_allowance(times, dx))


def detect_t_delta(run: FlowRun, k, delta: float):
    """Earliest snapshot time with u >= k - delta everywhere (k a cone),
    else None."""
    if not delta > 0:
        raise ParameterError("delta must be positive")
    kv = k.on_grid(run.spec).values
    return run.first_time([float(np.min(v - kv)) >= -delta for v in run.values])
