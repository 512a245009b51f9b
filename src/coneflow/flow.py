"""Implicit time stepping for graphical mean curvature flow of entire graphs.

The PDE u_t = sqrt(1+|Du|^2) H[u] is advanced with implicit Euler; each step
solves the nonlinear system v - u - dt*rhs(v) = 0 by Newton iteration.  In
radial mode the Jacobian of the reduced operator

    rhs(v) = v_rr/(1+v_r^2) + (n-1) v_r/r

is tridiagonal, assembled analytically as its three diagonals and solved
directly by LAPACK ``gtsv``; polar mode probes the Jacobian by finite
differences on the 3x3 neighbourhood table of ``geometry._radial_operator``
(nine distinct nodes per row, so nine probes recover every column) and
solves it by LAPACK ``gbsv`` in a zigzag band numbering (``_polar_band``).

Every grid continues across the origin (a radial grid from r = 0, a polar
grid through its antipodal ring), so the truncation ring r = r_max is the
only Dirichlet boundary.  Both grid modes read one cached three-point
operator per grid, which on radial grids also holds the grid-constant parts
of the Jacobian, and share one residual and one Newton loop, written in
``step``, whose update (``_newton_update``) is the tridiagonal or the band
solve.  ``evolve`` records step times, step sizes and Newton counts; a
caller measures anything else per step through ``on_step``, so from the
package this module imports only ``errors`` and ``geometry``.  Each polar
iterate's neighbourhood is differentiated once, into its jet; a probe moves
that jet by its entry's cached weights, and the speed is evaluated once, on
ten jets, the iterate's and its nine probes'.  Newton runs on raw arrays:
the accepted backtracking trial's residual and speed data start the next
iteration, and a non-finite residual, a zero pivot or a non-finite update
raises NewtonError at once.  ``step`` returns its final iterate's speed
data beside the state (its values read-only), and the next step, handed it
back as ``carry``, starts from it: on radial grids only row N-2, the one
interior row that reads the moved outer node, is recomputed; polar steps
reuse the speed and its probes while the outer ring is unchanged bit for
bit.  ``evolve``'s slope check of the initial data starts its first radial
step.

A radial step costs its number of numpy calls, not its flops, so its
kernels reuse arrays in place, in the formulas' operation order; an iterate
makes one speed call (``geometry._radial_speed``: one operator lookup and
one stencil pass, where a derivative call, two table reshapes and a second
lookup were), takes its norms by ``np.maximum.reduce``, without
``ndarray.max``'s Python shim, and the returned state is built without a
second finiteness scan.

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
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbsv, dgtsv
from scipy.sparse.linalg import splu  # noqa: F401 (perfbench/tracing.py spans it by name)

from .errors import GridError, NewtonError, ParameterError, StepFailureError
from .geometry import (GridFunction, GridSpec, _neighbourhood, _polar_jet,
                       _polar_quantities, _radial_operator, _radial_speed)

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

# Newton iterations before a step fails, the per-step Newton counts adaptive
# runs steer between, and the floor of dt when failed steps halve it
_NEWTON_MAX_ITER, _TARGET_NEWTON, _DT_MIN = 14, (3, 5), 1e-9

# the most snapshots one run holds, 25 times criterion 10's 4,000: a finer
# cadence for the horizon is a usage error, raised before the buffer exists
_MAX_SNAPSHOTS = 100_000

# the most steps a run may take, 100 times criterion 10's 10,000: a smaller
# largest step for the horizon is refused before the first step, and the
# attempt past it, failed steps included, raises StepFailureError
_MAX_STEPS = 1_000_000

# an adaptive run whose last _FLOOR_STREAK accepted steps all took dt <=
# _FLOOR_DT, below dt_max, cannot progress and raises StepFailureError
_FLOOR_STREAK, _FLOOR_DT = 1000, 10 * _DT_MIN

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
    at a time through ``value_at``, so this module imports no expander
    code), is radial only and holds for t > 0.  Every grid continues across
    the origin (``GridSpec`` admits no other layout), so the outer ring is
    the only boundary.  The similarity drift is polar only.
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


def _speed(spec: GridSpec, v: np.ndarray, drift: bool) -> tuple:
    """The flow speed at v, last in a tuple with what the Newton matrix
    reads: (v_r, v_rr, 1+v_r^2, speed) on radial grids, (probed, eps,
    speed) on polar grids.

    A polar iterate's neighbourhood is differentiated once, into its jet
    (``geometry._polar_jet``), and the speed is evaluated once, on a stack
    of ten jets: slot 0 is v's own, and slots 1-9 are the nine probes, each
    moving one entry of every node's neighbourhood by eps = 1e-7*(1 +
    max|v|) (``_PROBES``).  The jet is linear in the neighbourhood, so a
    probe moves it by eps times that entry's cached weights
    (``_PolarBand.weights``), one broadcast add for all nine.  The speed is
    elementwise in the jet, so slot 0 is the speed of v alone, bit for bit,
    and ``probed`` the nine probes' speeds, to round-off in the jet.
    """
    if spec.polar:
        eps = 1e-7 * (1.0 + float(np.max(np.abs(v))))
        jets = np.empty((6, 10) + spec.shape)
        np.stack(_polar_jet(spec, _neighbourhood(spec, v)), out=jets[:, 0])
        np.add(jets[:, :1], eps * _polar_band(spec).weights, out=jets[:, 1:])
        speeds = _polar_quantities(spec, jets, drift)[1]
        return speeds[1:], eps, speeds[0]
    return _radial_speed(spec, v)


def _residual(spec: GridSpec, v: np.ndarray, u_prev: np.ndarray, dt: float,
              config: SolverConfig, outer, data: tuple | None = None):
    """Implicit Euler residual at v with the outer ring's Dirichlet rows,
    and the speed data (:func:`_speed`) at v it was built from; ``data``,
    when given, is used instead of evaluating it."""
    if data is None:
        data = _speed(spec, v, config.similarity_drift)
    res = v - u_prev
    res -= dt * data[-1]
    res[-1] = v[-1] - outer
    return res, data


@lru_cache(maxsize=128)
def _outer_row(spec: GridSpec) -> tuple:
    """Row N-2 of a radial grid, the one interior row that reads the outer
    node, as Python floats: its weights w, its divisors D, its radius and
    n-1."""
    op = _radial_operator(spec)
    i = spec.nr - 2
    return (*op.w[:, i].tolist(), *op.D[:, i].tolist(), float(op.r_safe[i]),
            float(spec.n - 1))


def _start(spec: GridSpec, u_prev: np.ndarray, v: np.ndarray,
           carry: tuple | None) -> tuple | None:
    """The speed data at v, which is u_prev with the outer ring replaced,
    from ``carry``, the data at u_prev; None when there is none to use.

    On a radial grid row N-2 reads the outer node, so it is recomputed here
    from v[-3:] on Python floats, in the stencil's order (a, b, c) and
    ``_radial_speed``'s operation order, which gives the bits of a full
    evaluation, and written into the carried arrays (every use rewrites it);
    the Dirichlet row N-1 is overwritten in the residual and the Newton
    matrix anyway.  On a polar grid every row may read the outer ring, so
    the data, the nine probes of the Newton matrix included, is used only
    if that ring is unchanged bit for bit.
    """
    if spec.polar:
        return carry if v[-1].tobytes() == u_prev[-1].tobytes() else None
    if carry is not None:
        w0, w1, w2, D0, D1, D2, r, m = _outer_row(spec)
        a, b, c = v[-3:].tolist()
        p = w0 * a + w1 * b + w2 * c
        q = 2.0 * (a / D0 + b / D1 + c / D2)
        one_p2 = p * p + 1.0
        for arr, x in zip(carry, (p, q, one_p2, m * p / r + q / one_p2)):
            arr[-2] = x
    return carry


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
# polar residual and probed finite-difference Jacobian

# probe k perturbs entry divmod(k, 3) of every node's neighbourhood at once
_PROBES = np.eye(9).reshape(9, 3, 3, 1, 1)


class _PolarBand(NamedTuple):
    """Band layout of the polar Newton matrix of one grid, and the jet
    weights its probes move by.

    ``weights`` (6, 9, nr, 1) is the jet (``geometry._polar_jet``) of each
    unit entry of ``_PROBES`` on every ring: what moving that entry of a
    node's neighbourhood by 1 adds to the node's jet.  ``live`` lists the
    flat (probe, row) quotients whose row and table column are both
    unknowns; live pair k's entry sits at flat index ``slots[k]`` of the
    Fortran-ordered LAPACK band array of ``kl`` sub- and ``ku``
    superdiagonals (entry (a, b) of band positions in row kl + ku + a - b of
    column b, below kl rows left for the LU's fill), whose numbering is
    ``order`` (band position -> node).
    """

    weights: np.ndarray
    live: np.ndarray
    order: np.ndarray
    slots: np.ndarray
    kl: int
    ku: int


def _zigzag(nt: int) -> np.ndarray:
    """The band numbering of one ring's angles: theta_0, theta_{nt-1},
    theta_1, theta_{nt-2}, ..., so angular neighbours, the periodic wrap
    included, sit at most two positions apart."""
    half = nt // 2  # every polar grid has an even angular count
    return np.column_stack((np.arange(half), np.arange(nt - 1, half - 1, -1))).ravel()


@lru_cache(maxsize=32)
def _polar_band(spec: GridSpec) -> _PolarBand:
    """The band layout of the polar Jacobian and its probes' jet weights,
    cached per grid (GridSpec hashes by identity).

    Unknowns are all nodes off the outer Dirichlet ring; those among the
    nine nodes a row's neighbourhood table lists are its sparsity.

    The band system keeps the rings in order but numbers each ring's angles
    in zigzag order (:func:`_zigzag`), which brings the periodic wrap's
    neighbours close (Cuthill-McKee's bandwidth reduction): an angular
    neighbour sits at most 2 band positions away and a ring neighbour at
    most ntheta + 2, so kl = ku = ntheta + 2, read off the pairs' extreme
    offsets, where the ring-major numbering needs 2*ntheta - 1.
    """
    nr, nt = spec.nr, spec.ntheta
    size = nr * nt
    unknown = np.arange(size) < (nr - 1) * nt
    cols = _radial_operator(spec).rows.reshape(9, size)
    live = np.flatnonzero(unknown & unknown[cols])
    rows, cols = live % size, cols.ravel()[live]
    order = (np.arange(0, size, nt)[:, None] + _zigzag(nt)).ravel()
    position = np.argsort(order)  # node -> band position
    a, b = position[rows], position[cols]
    kl, ku = int(np.max(a - b)), int(np.max(b - a))
    slots = (kl + ku + a - b) + (2 * kl + ku + 1) * b
    weights = np.stack(_polar_jet(spec, np.broadcast_to(_PROBES, (9, 3, 3, nr, 1))))
    for arr in (weights, live, order, slots):
        arr.setflags(write=False)
    return _PolarBand(weights, live, order, slots, kl, ku)


def _polar_newton_matrix(data: tuple, spec: GridSpec, dt: float) -> tuple:
    """(kl, ku, ab): (I - dt*J) in LAPACK band storage at the state whose
    speed data (probed, eps, speed) :func:`_speed` evaluated, J (the
    similarity drift's included when the data was evaluated with it) by
    forward differences in derivative space.

    Nothing is evaluated here: each probe moved every row's jet as moving
    one entry of its own neighbourhood moves it, as a column probe would
    move that entry, so the quotients (probed - speed)/eps are the columns'
    entries, to round-off in the jet (about 1e-9 of a row's largest).  The
    outer ring's unknowns stay clamped (their Newton update is zero), so
    columns coupling interior rows to them are dropped.  The entries -dt*J
    are scattered into a zeroed band array, and the band's main diagonal
    gets +1, so each Dirichlet row is the identity.  A solve gathers the
    right-hand side through the band's ``order`` and scatters the solution
    back.
    """
    probed, eps, speed = data
    band = _polar_band(spec)
    kl, ku = band.kl, band.ku
    ab = np.zeros((2 * kl + ku + 1, speed.size), order="F")
    ab.ravel(order="F")[band.slots] = -dt * ((probed - speed) / eps).ravel()[band.live]
    ab[kl + ku] += 1.0
    return kl, ku, ab


def solve_band(kl: int, ku: int, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the band system whose LAPACK band storage (``kl`` sub- and
    ``ku`` superdiagonals, over kl zeroed rows for the fill) is ``ab`` by
    LAPACK ``gbsv``, which factors ab in place.

    ``b`` and the solution are in the band's own numbering (for the polar
    Newton matrix, the layout's ``order``).  A zero pivot or a non-finite
    solution raises NewtonError.
    """
    *_, x, info = dgbsv(kl, ku, ab, b, overwrite_ab=True)
    if info != 0 or not np.isfinite(x).all():
        raise NewtonError(f"band Newton solve failed (gbsv info {info})")
    return x


def _newton_update(spec: GridSpec, data: tuple, res: np.ndarray, dt: float) -> np.ndarray:
    """The Newton update at the iterate whose speed data (:func:`_speed`) is
    ``data`` and whose residual is ``res``: the tridiagonal solve on radial
    grids, and on polar grids the band solve, which runs in the band's own
    numbering, so the residual is gathered into it and the update scattered
    back.  A failed solve raises NewtonError."""
    if not spec.polar:
        return solve_banded(*_radial_newton_matrix(spec, *data[:3], dt), res)
    order = _polar_band(spec).order
    delta = np.empty(spec.shape)
    delta.ravel()[order] = solve_band(*_polar_newton_matrix(data, spec, dt),
                                      res.ravel()[order])
    return delta


def step(u: GridFunction, dt: float, config: SolverConfig, boundary,
         t_new: float, stats: dict | None = None, carry: tuple | None = None) -> tuple:
    """One implicit Euler step of size dt to time ``t_new``, by damped
    Newton on raw arrays: the new state, its values read-only, and the speed
    data (:func:`_speed`) of the final Newton iterate.

    ``boundary`` is the outer-ring data of :func:`boundary_values_for`,
    evaluated at ``t_new``.  The accepted backtracking trial is the next
    iterate, so its residual, its norm and its speed data are reused rather
    than evaluated again.  A dt that is not positive and finite, or a
    ``t_new`` that is not finite, is a ParameterError; a non-finite residual
    norm, a failed update (a zero pivot or a non-finite solution) and
    stagnation raise NewtonError, carrying the residual history.  ``stats``,
    when given, receives the Newton iteration count and residual history.

    ``carry``, when given, is the speed data the step to ``u`` returned,
    under the same ``config``, which the caller vouches for; the step starts
    from it instead of evaluating the speed again: on a radial grid only row
    N-2, which reads the moved outer node, is recomputed; on a polar grid
    the speed and its probes are reused as they are while the outer ring is
    unchanged bit for bit, and are evaluated afresh otherwise.
    """
    if not (0 < dt < math.inf and math.isfinite(t_new)):
        raise ParameterError(f"a step needs a positive finite dt and a finite t_new, "
                             f"got dt={dt}, t_new={t_new}")
    spec, u_prev = u.spec, u.values
    outer = boundary(t_new)
    v = u_prev.copy()
    v[-1] = outer
    scale = 1.0 + float(np.maximum.reduce(np.abs(u_prev), axis=None))
    history = []
    res, data = _residual(spec, v, u_prev, dt, config, outer, _start(spec, u_prev, v, carry))
    res_norm = float(np.maximum.reduce(np.abs(res), axis=None))
    for _ in range(_NEWTON_MAX_ITER):
        history.append(res_norm)
        if not math.isfinite(res_norm):
            raise NewtonError(f"non-finite Newton residual after {len(history) - 1} "
                              "iterations", residuals=history)
        if res_norm <= config.newton_tol * scale:
            break
        try:
            delta = _newton_update(spec, data, res, dt)
        except NewtonError as err:
            err.residuals = list(history)
            raise
        # backtracking keeps the first steps on kinked (conical) data stable;
        # lam < 0.2 accepts the fourth trial at the latest
        lam, v_try = 1.0, v - delta
        while True:
            r_try, data = _residual(spec, v_try, u_prev, dt, config, outer)
            try_norm = float(np.maximum.reduce(np.abs(r_try), axis=None))
            if try_norm < res_norm or lam < 0.2:
                break
            lam *= 0.5
            v_try = v - lam * delta
        v, res, res_norm = v_try, r_try, try_norm
    else:
        raise NewtonError(f"Newton stalled at residual {history[-1]:.3e} after "
                          f"{_NEWTON_MAX_ITER} iterations", residuals=history)
    if stats is not None:
        stats["iters"] = len(history) - 1
        stats["residuals"] = history
    # v is a float copy of the checked u.values, and finite: its residual
    # norm is, and each v_i reaches it with unit weight through its own row
    # (a Dirichlet row is v - outer), so GridFunction's checks would hold
    v.setflags(write=False)
    new = GridFunction.__new__(GridFunction)
    new.spec, new.values = spec, v
    return new, data


@dataclass
class FlowRun:
    """Snapshots and per-step records of one evolution.

    ``values[j]`` is the state at ``times[j]`` on ``spec``: ``times`` is a
    strictly increasing 1-D array, ``values`` has shape
    ``(times.size, *spec.shape)``, and both are checked (finite values
    included) when the run is built.  ``step_times``, ``step_sizes`` and
    ``newton_iters`` get one entry per accepted step.
    """

    spec: GridSpec
    times: np.ndarray
    values: np.ndarray
    step_times: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)

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


def _check_run(T: float, config: SolverConfig, t_start: float) -> float:
    """Refuse a run ``evolve`` would not finish: a ``t_start`` not finite,
    or negative on the pin-to-expander boundary, a horizon that is not
    positive and finite or is within the landing tolerance of ``t_start``,
    more snapshots than a run holds, or more steps at the largest step than
    a run may take.  Returns the number of cadence intervals."""
    if not math.isfinite(t_start):
        raise ParameterError(f"t_start must be finite, got {t_start}")
    if config.boundary == "pin-to-expander" and t_start < 0:
        raise ParameterError(f"the expander boundary needs t_start >= 0, got {t_start}")
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
    return intervals


def evolve(u0: GridFunction, T: float, config: SolverConfig, cone=None,
           profile=None, t_start: float = 0.0, on_step=None) -> FlowRun:
    """Advance u0 by T, snapshotting on the exact cadence grid.

    Steps are clipped to land precisely on multiples of ``snapshot_dt`` (past
    t_start), so runs with equal cadence produce comparable snapshot times.
    The snapshots are written as rows of one buffer sized from the cadence,
    and the run holds the rows filled; a horizon of more than 100,000
    cadence intervals is a ParameterError.
    Adaptive stepping targets 3 to 5 Newton iterations per step; failed
    steps retry with halved dt down to 1e-9, then raise StepFailureError.
    An adaptive run whose last 1,000 accepted steps all took dt of at most
    1e-8, below dt_max, cannot progress and raises StepFailureError too.
    A run that needs more than 1,000,000 steps at its largest step (dt_max
    when adaptive, else min(dt_init, dt_max)) is a ParameterError, and so
    is initial data whose slope squared is not finite; a run whose step
    attempts, failed ones included, pass 1,000,000 raises StepFailureError,
    and a t_start not finite, or negative on the pin-to-expander boundary,
    is a ParameterError.  Step times, step sizes and Newton counts are
    recorded; ``on_step(t, u)``, when given, sees each accepted step's time
    and read-only state, and nothing it does or returns feeds back into the
    stepping.  Nothing reads ``cone``: it stays because the benchmark's
    fixed-step workload passes it.  Each attempt starts from the ``carry`` the
    last accepted step returned (the first radial one from the slope check's).
    """
    intervals = _check_run(T, config, t_start)
    t_end = t_start + T
    spec = u0.spec
    u, carry = u0, None
    # the speed and the Newton matrix square the slope, so |Du|^2 must be finite
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.polar:
            ur, ut = _polar_jet(spec, _neighbourhood(spec, u0.values))[:2]
            slope2 = ur ** 2 + (ut / spec.nodes[:, None]) ** 2
        else:
            carry = _radial_speed(spec, u0.values)  # it starts the first step
            slope2 = carry[2]  # 1 + u_r^2, finite exactly where u_r^2 is
    if not np.isfinite(slope2).all():
        raise ParameterError("the initial data's slope squared is not finite")
    boundary = boundary_values_for(u0, config, profile)
    # t_start, every cadence time up to t_end (one may land within 1e-10
    # past it) and t_end itself
    times = np.empty(int(intervals) + 3)
    values = np.empty(times.shape + spec.shape)
    times[0], values[0] = t_start, u0.values
    count = 1
    step_times, step_sizes, newton_iters = [], [], []
    t = t_start
    dt = min(config.dt_init, config.dt_max)
    next_snap = t_start + config.snapshot_dt
    lo, hi = _TARGET_NEWTON
    attempts = floor_streak = 0

    while t < t_end - 1e-12:
        dt_try = min(dt, t_end - t, max(next_snap - t, 1e-13))
        attempts += 1
        if attempts > _MAX_STEPS:
            raise StepFailureError(
                f"{_MAX_STEPS} step attempts, the most a run may take, reached "
                f"only t={t:.6g} of {t_end:.6g}, at dt={dt_try:.3e}", t=t, dt=dt_try)
        stats = {}
        try:
            u, carry = step(u, dt_try, config, boundary, t_new=t + dt_try, stats=stats,
                            carry=carry)
        except NewtonError as err:
            if not config.adaptive or dt_try <= _DT_MIN * 1.0000001:
                raise StepFailureError(
                    f"step failed at t={t:.6g} with dt={dt_try:.3e}",
                    t=t, dt=dt_try, residuals=err.residuals) from err
            dt = max(dt_try / 2.0, _DT_MIN)
            continue
        t = t + dt_try
        at_floor = config.adaptive and dt_try <= _FLOOR_DT and dt_try < config.dt_max
        floor_streak = floor_streak + 1 if at_floor else 0
        if floor_streak >= _FLOOR_STREAK:
            raise StepFailureError(f"{_FLOOR_STREAK} accepted steps in a row at dt <= "
                                   f"{_FLOOR_DT:.0e} reached only t={t:.6g} of {t_end:.6g}",
                                   t=t, dt=dt_try)
        step_times.append(float(t))
        step_sizes.append(float(dt_try))
        newton_iters.append(int(stats["iters"]))
        if on_step is not None:
            on_step(t, u)
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
    return FlowRun(spec, times[:count], values[:count], step_times=step_times,
                   step_sizes=step_sizes, newton_iters=newton_iters)


def _allowance(times: np.ndarray, dx: float) -> np.ndarray:
    """The scheme-error allowance 1e-8 + (t - t0)*dx^2 at ``times``: the
    truncation error the discrete comparison principle accumulates."""
    return _ALLOW_TOL + _ALLOW_C * (times - times[0]) * dx * dx


def comparison_check(upper: np.ndarray, lower: np.ndarray, times, dx: float) -> bool:
    """Snapshot-wise ordering upper >= lower within the scheme-error
    allowance ``_allowance``.

    ``upper`` and ``lower`` are (T, *shape) stacks of snapshots at the T
    ``times``, on one grid of largest spacing ``dx``.  A non-finite
    snapshot value or time is a GridError, and a ``dx`` that is not finite
    and at least 0 a ParameterError: NaN compares false with every bound,
    so either would pass any ordering.
    """
    times = np.asarray(times, dtype=float)
    if upper.shape != lower.shape or upper.shape[:1] != times.shape:
        raise GridError(f"comparison needs snapshot stacks of one shape at the "
                        f"{times.size} times, got {upper.shape} and {lower.shape}")
    if not all(np.isfinite(a).all() for a in (upper, lower, times)):
        raise GridError("comparison needs finite snapshots and times")
    if not 0 <= dx < math.inf:
        raise ParameterError(f"comparison needs a finite dx >= 0, got {dx}")
    init_gap = float(np.min(upper[0] - lower[0]))
    if init_gap < -_ALLOW_TOL:
        raise ParameterError(f"initial ordering violated by {-init_gap:.3e}")
    worst = np.min((upper - lower).reshape(times.size, -1), axis=1)
    return not np.any(worst < -_allowance(times, dx))


def detect_t_delta(run: FlowRun, k, delta: float):
    """Earliest snapshot time with u >= k - delta everywhere (k a cone),
    else None."""
    if not delta > 0:
        raise ParameterError("delta must be positive")
    kv = k.on_grid(run.spec).values
    return run.first_time(np.min((run.values - kv).reshape(run.times.size, -1), axis=1)
                          >= -delta)
