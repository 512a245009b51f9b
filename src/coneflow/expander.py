"""Self-expanding solutions flowing out of rotationally symmetric cones.

The expanding solution with initial cone k(x) = beta*|x| has the form
U(x,t) = sqrt(t) * phi(|x|/sqrt(t)).  Substituting this ansatz into the graph
flow u_t = sqrt(1+|Du|^2) H[u] and reducing radially gives the profile ODE

    phi'' / (1 + phi'^2) + (n-1) phi'/rho = (phi - rho phi')/2,

with smoothness at the axis (phi'(0) = 0) and linear growth phi ~ beta*rho at
infinity.  The derivation is not taken on faith: :func:`solve_expander_profile`
bounds the per-interval ODE defect of the stored profile, and acceptance
criterion 1 evolves U(., 1) with the time-dependent solver and compares it
with the rescaled profile at t = 2.

Matching at infinity uses the refined tail

    phi(rho) = beta*rho + c1/rho + c3/rho^3 + O(rho^-5),
    c1 = (n-1)*beta,   c3 = c1*(1/(1+beta^2) - (n-1)/2),

obtained by balancing the ODE order by order.  The bare linear asymptote
beta*rho is approached only like c1/rho, far too slowly to test against at
moderate radii, so both the shooting target and the far-field acceptance gap
subtract the full tail.

Shooting on a = phi(0) is well posed outward: linearizing the ODE about the
tail shows one mode growing like rho and one decaying like a Gaussian, so
errors in a are amplified only linearly and bisection converges.
Bisection is kept over Brent's method on purpose: near the root the miss is
noisy at the level of the LSODA tolerance, and brentq on the same bracket
moved a by up to 1.9e-11 relative on six (n, beta) pairs while still taking
9 to 22 shots.

The bisection shoots only the midpoints whose sign no earlier shot has
certified.  The system phi' = p, p' = F(rho, phi, p) has dF/dphi =
(1+p^2)/2 > 0, so it is cooperative, and the series start is increasing in
a; by the Kamke-Mueller comparison theorem (W. Walter, Ordinary
Differential Equations, sec. 10) the exact phi(rho_max; a) is strictly
increasing in a, up to blow-up.  So once LSODA's error is below half a
margin M, a shot whose computed miss is at most -M (at least +M) fixes an
undershoot (overshoot) for every a below (above) it.  M is derived from the
tolerances, 1e3*(rtol*|tail(rho_max)| + atol); over 21 (n, beta) pairs
the largest |miss| at and next to the root was 6.1 times that scale at rtol
1e-11 and 2.4 times at 1e-9.
After the bracket, secant shots from its ends and one probe 2M/slope either
side of the root estimate certify a narrow pair (lo, hi); a midpoint at or
below lo undershoots and one at or above hi overshoots without a shot.  The
midpoints, a and every stored array are therefore plain bisection's, bit for
bit, from about 35 shots instead of 52; those left inside (lo, hi) set a's
last bits.

Scipy's ``LSODA`` object is built once per tolerance pair, for its
tolerance checks and its integrator; each shot (:func:`_miss`) resets that
integrator's work arrays and state, as the object's constructor does, then
runs it in one call to rho_max (itask 4, never past it) on a float-level RHS
that takes n - 1 as a float, writes through a memoryview into a per-shot
buffer and stops the call once a slope reaches half the cap.  These are the
steps the public ``LSODA`` object's ``step()`` loop takes, bit for bit,
without its per-step wrapper closures and array conversions.  The stored
profile (:func:`_node_values`) drives the same integrator one step per call
and evaluates the nodes each step passes with scipy's own LSODA
dense-output arithmetic, bit for bit what that dense output returns: it
reads LSODA's orders and step sizes as Python numbers, one ``tolist()``
each, and gathers the Nordsieck array through a per-order index table.
Both stop with a :class:`ShootingError` after
``_MAX_STEPS`` steps: a shot whose step size collapses would otherwise run
on for minutes.  A slope of half the cap is a blow-up: the shot misses by
+/-inf, and the node solve raises.

The numerics are fixed: the module constants below are the one setting
every profile is solved with.  Profiles are cached per ``(n, beta)``, so
every caller in a process shares one solve; their arrays are read-only.

Anisotropic planar cones have no ODE reduction; for those
:func:`relax_angular_expander` marches the flow in similarity variables
(where expanders are stationary) until the time derivative stalls.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import LSODA
from scipy.integrate import solve_ivp  # noqa: F401 (perfbench/tracing.py spans it by name)
from scipy.interpolate import CubicHermiteSpline

from . import flow
from .cones import ConeProfile
from .errors import DomainError, ParameterError, ShootingError
from .geometry import GridFunction, GridSpec

__all__ = [
    "ExpanderProfile",
    "solve_expander_profile",
    "evaluate_U",
    "expander_time_derivative",
    "relax_angular_expander",
    "AngularExpander",
]


# The fixed numerics: the nodes 0, 0.01, ..., rho_max; LSODA's tolerances
# (rtol above its floor of 100 eps); the bounds on the ODE defect and the
# far-field gap; a bracket opening at max(beta, 0.5) and growing by 1.5 per
# undershoot; the slope |phi'| at which a shot has blown up.
_RHO_MAX, _NODE_SPACING = 40.0, 0.01
_ODE_RTOL, _ODE_ATOL = 1e-11, 1e-12
_ODE_TOL, _ASYM_TOL = 1e-8, 1e-4
_BRACKET_START, _BRACKET_GROWTH, _BRACKET_MAX_TRIES, _BISECT_ITERS = 0.5, 1.5, 60, 80
_SLOPE_CAP = 1e7
# LSODA steps per shot or node solve: the longest shot of the battery and
# benchmark profiles takes 840, so 10,000 leaves a factor of 12 (at n = 30
# the a = 1.5 shot holds h at 7.9e-7; 2 million steps reach rho = 1.57)
_MAX_STEPS = 10_000
# the largest h*|dF/dp| of one RK4 substep of the defect check: the
# battery's profiles reach 2.00005 per node interval (n = 3, rho = 0.01)
# and keep two substeps; the (2, 10) profile reaches 20.2 at rho_max
_RK4_SUBSTEP_HL = 1.25
# the most substeps the defect check takes: the count grows like beta^2
# (17 at beta = 10, 40,001 at beta = 500, 160,001 at beta = 1000), and a
# steeper profile is refused before its check runs for minutes
_RK4_MAX_SUBSTEPS = 50_000


def _tail_coeffs(n: int, beta: float) -> tuple:
    c1 = (n - 1) * beta
    c3 = c1 * (1.0 / (1.0 + beta ** 2) - (n - 1) / 2.0)
    return c1, c3


def _tail_value(n: int, beta: float, rho):
    c1, c3 = _tail_coeffs(n, beta)
    return beta * rho + c1 / rho + c3 / rho ** 3


def _tail_slope(n: int, beta: float, rho):
    c1, c3 = _tail_coeffs(n, beta)
    return beta - c1 / rho ** 2 - 3.0 * c3 / rho ** 4


class _SlopeGuard(Exception):
    """Raised by :func:`_ode_rhs` to stop a solve near the slope cap; its
    args are the (rho, p) it was asked at."""


def _ode_rhs(rho, y, nm1, half_cap, out, buf):
    """The profile ODE as a first-order system in (phi, phi'), with n - 1
    given as the float ``nm1``, written through the memoryview ``buf`` of the
    float64 buffer ``out`` of length 2, which is returned: LSODA's wrapper
    reads it as it is, with no new list to convert per call.

    Raises :class:`_SlopeGuard` as soon as it is asked for a slope p that is
    not strictly between -half_cap and half_cap (a NaN slope included).
    """
    # Python floats run the same IEEE double operations as numpy scalars,
    # without their per-operation dispatch; n - 1 is exact as a float
    phi, p = y.tolist()
    if not -half_cap < p < half_cap:
        raise _SlopeGuard(rho, p)
    buf[0] = p
    buf[1] = (1.0 + p * p) * (0.5 * (phi - rho * p) - nm1 * p / rho)
    return out


def _rhs_args(n: int) -> tuple:
    """The extra arguments of :func:`_ode_rhs` for one solve: n - 1, the
    guard at half the slope cap, and a fresh buffer with its memoryview."""
    out = np.empty(2)
    return n - 1.0, _SLOPE_CAP / 2, out, memoryview(out)


def _series_start(a: float, n: int):
    # phi = a + a*rho^2/(4n) + O(rho^4) near the axis, started at rho = 1e-6
    rho0 = 1e-6
    return rho0, [a + a * rho0 ** 2 / (4.0 * n), a * rho0 / (2.0 * n)]


@lru_cache(maxsize=8)
def _lsoda_integrator(rtol: float, atol: float, rho_max: float):
    """scipy's LSODA integrator for solves from the axis to ``rho_max``.  The
    public ``LSODA`` object is built only for its set-up, tolerance
    validation (an rtol under 100 eps is raised to that floor) included; its
    constructor never calls the RHS it is given.  Called with the module
    constants' current values, so a change of tolerance gets its own."""
    return LSODA(_ode_rhs, 0.0, [0.0, 0.0], rho_max,
                 rtol=rtol, atol=atol)._lsoda_solver._integrator


def _lsoda(a: float, n: int):
    """The shared :func:`_lsoda_integrator` reset for a solve from the axis,
    with the start (y0, rho0).  The reset is the ``LSODA`` constructor's own:
    fresh work arrays (which ``call_args`` points at) and zeroed state,
    istate 1, and the critical time rho_max, so no shot sees what an earlier
    one left."""
    rho0, y0 = _series_start(a, n)
    integrator = _lsoda_integrator(_ODE_RTOL, _ODE_ATOL, _RHO_MAX)
    integrator.reset(2, False)
    integrator.rwork[0] = _RHO_MAX
    return integrator, np.array(y0), rho0


@contextmanager
def _istate_unwarned():
    """Keeps scipy's warning on a bad LSODA istate from being shown: the
    ShootingError of a failed solve states the same istate."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "lsoda: ", UserWarning)
        yield


@_istate_unwarned()
def _miss(a: float, n: int, beta: float) -> float:
    """Signed distance of phi(rho_max) from the refined tail; +/-inf on blow-up.

    The :func:`_lsoda` integrator, reset for this shot, is run once, with
    itask 4 (to tout = rho_max, never past the critical time) and at most
    ``_MAX_STEPS`` steps, on :func:`_ode_rhs` with the guard at half the
    slope cap and one buffer for every RHS call of the shot; a shot that
    needs more steps raises with LSODA's istate.

    Same steps: LSODA applies the same critical-time clamp after every
    step, whether itask 4 goes on or itask 5 returns, so the single call
    takes the steps of the public ``LSODA`` object's ``step()`` loop and
    ends on the same Nordsieck state at rho_max, which its dense output
    reproduces exactly.

    A shot that trips the guard has blown up: it misses by +/-inf, by the
    sign of the slope that tripped it, or by NaN for a NaN slope.  The
    guard catches every crossing of the full cap: every accepted state is
    one corrector update away from a state the RHS was evaluated at, and
    the convergence test bounds that update on the rtol*|p| + atol scale.
    So, with rtol far below 1/2 and the cap far above atol, an accepted
    |p| >= cap implies an evaluated |p| >= cap/2.
    """
    integrator, y, rho0 = _lsoda(a, n)
    integrator.call_args[2] = 4  # itask 4: to tout, never past tcrit
    integrator.iwork[5] = _MAX_STEPS  # mxstep: the step bound of the one call
    try:
        y, rho = integrator.run(_ode_rhs, None, y, rho0, _RHO_MAX, _rhs_args(n), ())
    except _SlopeGuard as trip:
        return trip.args[1] * math.inf  # +/-inf by the slope's sign; NaN stays NaN
    if not integrator.success:
        istate = integrator.istate
        raise ShootingError(
            f"profile integration failed at a={a}: LSODA istate {istate} "
            f"({integrator.messages.get(istate, 'unknown istate')}) at "
            f"rho={rho:.3g} after {integrator.iwork[10]} steps "
            f"(n={n}, beta={beta})", scanned=[a])
    return float(y[0] - _tail_value(n, beta, _RHO_MAX))


# for each LSODA order q <= 12: the exponents 0..q of scipy's
# LsodaDenseOutput, and the rwork indices of the (2, q+1) Nordsieck array
# that LSODA stores column by column from rwork[20]
_POWERS = [np.arange(q + 1)[:, None] for q in range(13)]
_NORDSIECK = [20 + 2 * np.arange(q + 1) + np.arange(2)[:, None] for q in range(13)]


@_istate_unwarned()
def _node_values(a: float, n: int, nodes: np.ndarray) -> np.ndarray:
    """(phi, phi') at ``nodes[1:]`` for the axis height a, as a (2, N-1) array.

    The :func:`_lsoda` integrator, reset as for a shot, takes one step per
    call (itask 5, never past rho_max), as the public ``LSODA`` object's
    ``step()`` does, on the same slope guard and RHS buffer, for at most
    ``_MAX_STEPS`` steps.  After each step the nodes in (rho_old, rho]
    (bisecting to the right) are evaluated with scipy's ``LsodaDenseOutput``
    arithmetic in its shapes: the C-ordered Nordsieck array of the last
    step's order, gathered through ``_NORDSIECK``, its last column rescaled
    to the next step size when the order is set to drop, and one ``np.dot``
    per step.
    A tripped guard or a bad istate raises :class:`ShootingError`.
    """
    t_eval = nodes[1:]
    integrator, y, rho = _lsoda(a, n)
    integrator.call_args[2] = 5  # itask 5: one step, never past tcrit
    rwork, iwork = integrator.rwork, integrator.iwork
    args = _rhs_args(n)
    knots = t_eval.tolist()
    values = np.empty((2, t_eval.size))
    i = 0
    try:
        for _ in range(_MAX_STEPS):
            y, rho = integrator.run(_ode_rhs, None, y, rho, _RHO_MAX, args, ())
            if not integrator.success:
                raise ShootingError(f"node solve failed at a={a}: LSODA istate "
                                    f"{integrator.istate} at rho={rho:.3g} (n={n})",
                                    scanned=[a])
            j = bisect_right(knots, rho)
            if j > i:
                order, next_order = iwork[13:15].tolist()
                h_last, h = rwork[10:12].tolist()
                yh = rwork[_NORDSIECK[order]]
                if next_order < order:
                    yh[:, -1] *= (h / h_last) ** order
                values[:, i:j] = np.dot(yh, ((t_eval[i:j] - rho) / h) ** _POWERS[order])
                i = j
            if not rho < _RHO_MAX:
                return values
    except _SlopeGuard as trip:
        raise ShootingError(f"converged shot blew up: |phi'| reached half the slope cap "
                            f"at rho={trip.args[0]:.3g} (n={n})", scanned=[a]) from None
    raise ShootingError(f"profile integration failed at a={a}: {_MAX_STEPS} "
                        f"LSODA steps reached only rho={rho:.3g} (n={n})", scanned=[a])


def _rk4_substeps(rho: np.ndarray, phi: np.ndarray, p: np.ndarray, n: int) -> int:
    """RK4 substeps per node interval for :func:`_rk4_defect`: two, or enough
    to keep each substep's h*|dF/dp| at most ``_RK4_SUBSTEP_HL``.  Past about
    2.8 RK4 is unstable and measures its own growth, not the profile's
    defect; dF/dp reaches -(n-1)/rho at the axis, -(1+beta^2)*rho/2 far out.
    """
    x, phi, p = rho[1:], phi[1:], p[1:]
    dfdp = np.abs(p * (phi - x * p - 2 * (n - 1) * p / x)
                  - (1.0 + p * p) * (0.5 * x + (n - 1) / x))
    hl = float(np.max(np.diff(x) * np.maximum(dfdp[:-1], dfdp[1:])))
    # a NaN node compares false and keeps two; the defect then reads NaN
    return math.ceil(hl / _RK4_SUBSTEP_HL) if 2 * _RK4_SUBSTEP_HL < hl < math.inf else 2


def _rk4_defect(rho: np.ndarray, phi: np.ndarray, p: np.ndarray, n: int,
                substeps: int) -> np.ndarray:
    """Per-interval re-integration defect of the stored profile.

    Each interval [rho_i, rho_i+1] is re-integrated from the stored left state
    with ``substeps`` RK4 substeps; the defect against the stored right state
    measures how well the nodes satisfy the ODE, at an accuracy (O(h^5) per
    interval) far below the defect sizes of interest.  The first interval is
    excluded: it touches the coordinate singularity at the axis.
    """
    y = np.stack([phi[1:-1], p[1:-1]])
    x = rho[1:-1].copy()
    h = (rho[2:] - rho[1:-1]) / substeps

    def f(x_, y_):
        with np.errstate(divide="ignore"):
            drift = 0.5 * (y_[0] - x_ * y_[1]) - (n - 1) * y_[1] / x_
        return np.stack([y_[1], (1.0 + y_[1] ** 2) * drift])

    for _ in range(substeps):
        k1 = f(x, y)
        k2 = f(x + h / 2, y + (h / 2) * k1)
        k3 = f(x + h / 2, y + (h / 2) * k2)
        k4 = f(x + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = x + h
    defect = np.abs(y[0] - phi[2:]) + np.abs(y[1] - p[2:])
    return np.concatenate([[0.0, 0.0], defect])


def _radii(rho) -> np.ndarray:
    """``rho`` as a float array, every entry a radius >= 0: the spline would
    extrapolate past the axis, and a NaN would read NaN."""
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho >= 0.0):
        raise DomainError(f"profile evaluation needs radii >= 0, got {np.min(rho)}")
    return rho


@dataclass(eq=False)
class ExpanderProfile:
    """Solved self-similar profile phi with evaluation helpers.

    ``rho``/``phi``/``phi_prime`` sample the profile on [0, rho_max]; beyond
    rho_max evaluation falls back to the refined tail, and a radius that is
    not >= 0 (NaN included) is a :class:`DomainError`.  ``a`` is the
    shooting parameter phi(0) and ``report`` carries the solve diagnostics
    (defect sup, far-field gap, bracket, bisection and shot counts).
    """

    n: int
    beta: float
    rho: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    a: float
    report: dict = field(default_factory=dict)
    _spline: CubicHermiteSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._spline = CubicHermiteSpline(self.rho, self.phi, self.phi_prime)

    @property
    def rho_max(self) -> float:
        return float(self.rho[-1])

    def evaluate(self, rho) -> np.ndarray:
        rho = _radii(rho)
        out = np.empty(rho.shape)
        inside = rho <= self.rho_max
        out[inside] = self._spline(rho[inside])
        if np.any(~inside):
            out[~inside] = _tail_value(self.n, self.beta, rho[~inside])
        return out

    @cached_property
    def _pieces(self) -> tuple:
        """Spline knots and the four coefficient rows as memoryviews: they
        index to Python floats without copying the arrays."""
        return memoryview(self._spline.x), tuple(map(memoryview, self._spline.c))

    def value_at(self, rho: float) -> float:
        """phi at one radius as a float, bit for bit ``evaluate([rho])[0]``.

        Inside [0, rho_max] it replays scipy's piecewise-polynomial
        evaluation (interval x_i <= rho < x_i+1, the last one closed, and
        the power sum c3 + c2*s + c1*s^2 + c0*s^3 in that order) on floats.
        The tail keeps numpy's power ufunc, which differs from libm's pow
        in the last bit on some inputs.  The radius is not checked: its one
        caller, the pin-to-expander boundary, passes r_max/sqrt(t) > 0 once
        per flow step.
        """
        if not rho <= self.rho_max:
            return float(_tail_value(self.n, self.beta, np.array([rho]))[0])
        knots, (c0, c1, c2, c3) = self._pieces
        i = min(max(bisect_right(knots, rho) - 1, 0), len(knots) - 2)
        s = rho - knots[i]
        z = s * s
        return (0.0 + c3[i]) + c2[i] * s + c1[i] * z + c0[i] * (z * s)

    def evaluate_prime(self, rho) -> np.ndarray:
        rho = _radii(rho)
        out = np.empty(rho.shape)
        inside = rho <= self.rho_max
        out[inside] = self._spline(rho[inside], 1)
        if np.any(~inside):
            out[~inside] = _tail_slope(self.n, self.beta, rho[~inside])
        return out

    def on_grid(self, spec: GridSpec, t: float = 1.0) -> GridFunction:
        return GridFunction(spec, evaluate_U(self, spec.nodes, t))


def solve_expander_profile(k: ConeProfile) -> ExpanderProfile:
    """Shoot for the expanding profile out of a rotationally symmetric cone.

    Bisects the axis height a = phi(0) on the sign of phi(rho_max) minus the
    refined tail, with the fixed numerics of the module constants.
    Postconditions: the per-interval ODE defect stays below 1e-8 and the
    far-field gap |phi - tail| over [rho_max/2, rho_max] below 1e-4.  A
    violation, a shot that stops, or a profile so steep that the defect
    check would take more than ``_RK4_MAX_SUBSTEPS`` RK4 substeps raises
    :class:`ShootingError` naming (n, beta) and what was measured, rather
    than return a dubious profile.

    Profiles are cached per ``(n, beta)``: equal keys return the same
    object, whose ``rho``, ``phi`` and ``phi_prime`` arrays are read-only
    because every caller shares them.
    """
    if k.kind != "radial":
        raise ParameterError("shooting needs a rotationally symmetric cone; "
                             "use relax_angular_expander for angular profiles")
    beta, n = float(k.beta), int(k.n)
    if beta < 0:
        raise ParameterError("expander profiles are computed for slopes beta >= 0")
    return _shoot_profile(n, beta)


_SECANT_SHOTS = 4  # at most; they stop once one lands inside the margin


def _certify_margin(n: int, beta: float) -> float:
    """The |miss| from which a computed shot certifies its sign: 1e3 times
    the tolerance scale rtol*|tail(rho_max)| + atol of phi(rho_max)."""
    return 1e3 * (_ODE_RTOL * abs(_tail_value(n, beta, _RHO_MAX)) + _ODE_ATOL)


def _secant(x0: float, f0: float, x1: float, f1: float):
    """(root, slope) of the line through two shots, or None unless its slope
    is positive and finite, as the miss is increasing in a."""
    slope = (f1 - f0) / (x1 - x0) if x1 != x0 else 0.0
    if not 0.0 < slope < math.inf:
        return None
    return x1 - f1 / slope, slope


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


@lru_cache(maxsize=32)
def _shoot_profile(n: int, beta: float) -> ExpanderProfile:
    """The solve behind :func:`solve_expander_profile`, memoized per key."""
    nodes = np.round(np.arange(0.0, _RHO_MAX + _NODE_SPACING / 2, _NODE_SPACING), 12)
    nodes[-1] = _RHO_MAX

    if beta == 0.0:
        zeros = np.zeros_like(nodes)
        _read_only(nodes, zeros)
        return ExpanderProfile(n, 0.0, nodes, zeros, zeros, 0.0,
                               report={"ode_residual": 0.0, "asym_gap": 0.0,
                                       "bracket": (0.0, 0.0), "bisections": 0,
                                       "shots": 0,
                                       "above_cone_min": 0.0, "udot_min": 0.0})

    scanned = []  # every shot's a, in order
    # the certified pair: every a <= lo_cert undershoots and every
    # a >= hi_cert overshoots (a = 0 is the exact zero profile, below the tail)
    margin = _certify_margin(n, beta)
    lo_cert, hi_cert = 0.0, math.inf

    def shoot(a_try: float) -> float:
        nonlocal lo_cert, hi_cert
        miss = _miss(a_try, n, beta)
        scanned.append(a_try)
        if np.isnan(miss):
            raise ShootingError(f"shot at a={a_try} missed by NaN (n={n}, beta={beta})",
                                scanned=list(scanned))
        if miss <= -margin:
            lo_cert = max(lo_cert, a_try)
        elif miss >= margin:
            hi_cert = min(hi_cert, a_try)
        return miss

    # bracket: a = 0 undershoots (the zero profile is below the tail), then
    # grow until the shot lands above the tail
    a_lo, f_lo = 0.0, -_tail_value(n, beta, _RHO_MAX)
    a_hi = max(beta, _BRACKET_START)
    for _ in range(_BRACKET_MAX_TRIES):
        f_hi = shoot(a_hi)
        if f_hi > 0:
            break
        a_lo, f_lo = a_hi, f_hi
        a_hi *= _BRACKET_GROWTH
    else:
        raise ShootingError(
            f"no overshoot found up to a={a_hi:.3g} (n={n}, beta={beta})", scanned=scanned)

    # locate: secant shots from the finite bracket ends until one lands
    # inside the margin, then one probe on each side of the root estimate,
    # 2*margin/slope away, to certify a narrow (lo_cert, hi_cert)
    if math.isfinite(f_lo) and math.isfinite(f_hi):
        x0, f0, x1, f1 = a_lo, f_lo, a_hi, f_hi
        for _ in range(_SECANT_SHOTS):
            line = _secant(x0, f0, x1, f1)
            if line is None or not lo_cert < line[0] < hi_cert:
                break
            x0, f0, x1, f1 = x1, f1, line[0], shoot(line[0])
            if abs(f1) < margin:
                break
        line = _secant(x0, f0, x1, f1)
        if line is not None:
            root, slope = line
            for probe in (root - 2.0 * margin / slope, root + 2.0 * margin / slope):
                if lo_cert < probe < hi_cert:
                    shoot(probe)

    # bisection; a midpoint whose sign is certified is not shot
    for i in range(_BISECT_ITERS):
        a_mid = 0.5 * (a_lo + a_hi)
        if a_mid == a_lo or a_mid == a_hi:
            break
        if a_mid <= lo_cert:
            over = False
        elif a_mid >= hi_cert:
            over = True
        else:
            over = shoot(a_mid) > 0
        if over:
            a_hi = a_mid
        else:
            a_lo = a_mid
        if a_hi - a_lo <= 1e-15 * max(1.0, a_hi):
            break
    a = 0.5 * (a_lo + a_hi)

    y = _node_values(a, n, nodes)
    phi = np.concatenate([[a], y[0]])
    phi_p = np.concatenate([[0.0], y[1]])

    substeps = _rk4_substeps(nodes, phi, phi_p, n)
    if substeps > _RK4_MAX_SUBSTEPS:
        raise ShootingError(
            f"profile defect check needs {substeps} RK4 substeps per node interval, "
            f"over the bound {_RK4_MAX_SUBSTEPS} (n={n}, beta={beta})", scanned=[a])
    node_res = _rk4_defect(nodes, phi, phi_p, n, substeps)
    ode_residual = float(np.max(node_res[:-1]))  # last node is one-sided anyway
    far = nodes >= _RHO_MAX / 2
    asym_gap = float(np.max(np.abs(phi[far] - _tail_value(n, beta, nodes[far]))))
    report = {
        "ode_residual": ode_residual,
        "asym_gap": asym_gap,
        "bracket": (a_lo, a_hi),
        "bisections": i + 1,
        "shots": len(scanned),
        "above_cone_min": float(np.min(phi - beta * nodes)),
        "udot_min": float(np.min(0.5 * (phi - nodes * phi_p))),
    }
    # written so that a NaN residual or gap fails them too
    if not ode_residual <= _ODE_TOL:
        raise ShootingError(
            f"profile ODE defect {ode_residual:.2e} exceeds {_ODE_TOL:.1e} "
            f"(n={n}, beta={beta})", scanned=[a])
    if not asym_gap <= _ASYM_TOL:
        raise ShootingError(
            f"far-field gap {asym_gap:.2e} exceeds {_ASYM_TOL:.1e} on "
            f"[{_RHO_MAX / 2:.0f}, {_RHO_MAX:.0f}] (n={n}, beta={beta})", scanned=[a])
    _read_only(nodes, phi, phi_p)
    return ExpanderProfile(n, beta, nodes, phi, phi_p, a, report=report)


def evaluate_U(profile: ExpanderProfile, r, t: float) -> np.ndarray:
    """U(x,t) = sqrt(t)*phi(|x|/sqrt(t)) at radii ``r``; t must be positive
    and finite."""
    if not 0 < t < math.inf:
        raise DomainError(f"self-similar evaluation needs t > 0 and finite, got t={t} "
                          "(the t=0 trace is the cone itself)")
    s = np.sqrt(t)
    return s * profile.evaluate(np.asarray(r, dtype=float) / s)


def expander_time_derivative(profile: ExpanderProfile, r, t: float) -> np.ndarray:
    """dU/dt = (phi - rho*phi')/(2*sqrt(t)) at rho = r/sqrt(t); nonnegative."""
    if not 0 < t < math.inf:
        raise DomainError(f"time derivative needs t > 0 and finite, got t={t}")
    s = np.sqrt(t)
    rho = np.asarray(r, dtype=float) / s
    return 0.5 * (profile.evaluate(rho) - rho * profile.evaluate_prime(rho)) / s


@dataclass
class AngularExpander:
    """Stationary similarity-variable solution for an anisotropic planar cone.

    ``newton_iters`` totals the Newton updates over all ``steps`` implicit
    steps; each update is one banded LU solve (LAPACK ``gbsv``).
    """

    solution: GridFunction
    steps: int
    converged: bool
    newton_iters: int

    def center_height(self) -> float:
        """phi(0) estimate: mean of the innermost ring, first order in the ring
        spacing h: the outer ring is pinned at rho_max, not at rho_max - h/2."""
        return float(np.mean(self.solution.values[0]))


_RELAX_TAU_MAX = 40.0  # similarity time at which the relaxation gives up


def relax_angular_expander(k: ConeProfile, rho_max: float = 12.0, nr: int = 72,
                           ntheta: int = 32) -> AngularExpander:
    """Relax the flow in similarity variables to the expanding profile.

    In the variables v(rho,theta) = U/sqrt(t), rho = x/sqrt(t), tau = log t,
    the graph flow becomes v_tau = sqrt(1+|Dv|^2) H[v] + (rho v_rho - v)/2 and
    expanders are its stationary states.  The outer ring is pinned to the
    refined cone tail gamma*rho_max + c(theta)/rho_max, and implicit steps of
    dtau = 0.05 are taken until the update rate drops to 1e-5, or tau = 40.
    Each step is handed the state the previous one returned, so it starts
    from the speed and the nine Jacobian probes that step's final Newton
    iterate evaluated (the pinned ring never moves): it evaluates nothing
    before its first Newton update.  Each Newton iterate differentiates its
    neighbourhood once and moves the jet by cached weights for the probes.

    The cone must be mean convex: a tail coefficient c(theta) <= 0 at any
    of the grid's angles (c has the sign of gamma + gamma'') is a
    ParameterError, raised before the first step.
    """
    if k.kind != "angular":
        raise ParameterError("relaxation targets angular cones; radial cones shoot")
    spec = GridSpec.polar_disk(rho_max, nr, ntheta)
    tail = k.tail_coefficient(spec.thetas)
    if not np.all(tail > 0.0):
        worst = int(np.argmin(tail))
        raise ParameterError(f"cone is not mean convex: the tail coefficient c(theta), "
                             f"of the sign of gamma + gamma'', is {tail[worst]:.3g} "
                             f"at theta = {spec.thetas[worst]:.3g}")
    v = k.on_grid(spec).values.copy()
    v[-1, :] = k.gamma(spec.thetas) * rho_max + tail / rho_max
    u = GridFunction(spec, v)
    dtau = 0.05
    cfg = flow.SolverConfig(boundary="pin-to-initial", adaptive=False, dt_init=dtau,
                            similarity_drift=True)
    bv = flow.boundary_values_for(u, cfg)
    rate = np.inf
    steps = iters = 0
    while steps * dtau < _RELAX_TAU_MAX:
        stats = {}
        u_new = flow.step(u, dtau, cfg, bv, (steps + 1) * dtau, stats=stats)
        iters += stats["iters"]
        rate = float(np.max(np.abs(u_new.values - u.values))) / dtau
        u = u_new
        steps += 1
        if rate <= 1e-5:
            break
    return AngularExpander(u, steps, rate <= 1e-5, iters)
