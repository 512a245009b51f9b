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
tolerances, 1e3*(rtol*|tail(rho_max)| + atol) with rtol at LSODA's floor of
100 eps at least; over 21 (n, beta) pairs the largest |miss| at and next to
the root was 6.1 times that scale at rtol 1e-11 and 2.4 times at 1e-9.
After the bracket, secant shots from its ends and one probe 2M/slope either
side of the root estimate certify a narrow pair (lo, hi); a midpoint at or
below lo undershoots and one at or above hi overshoots without a shot.  The
midpoints, a and every stored array are therefore plain bisection's, bit for
bit, from about 35 shots instead of 52; those left inside (lo, hi) set a's
last bits.

Each shot (:func:`_miss`) builds scipy's ``LSODA`` object for its tolerance
checks and work arrays, then runs that object's own LSODA integrator in one
call to rho_max (itask 4, never past it) on a float-level RHS that stops the
call once a slope reaches half the cap.  These are the steps ``solve_ivp``
takes, bit for bit, without its per-step event search, wrapper closures and
array conversions.  The stored profile (:func:`_node_values`) drives the same
integrator one step per call and evaluates the nodes each step passes
with scipy's own LSODA dense-output arithmetic, bit for bit the
``solve_ivp(t_eval=nodes)`` result.  A shot or node solve that trips the
guard is run again through :func:`_integrate`, the ``solve_ivp`` event
path, which decides exactly whether an accepted step met the cap; that
re-run is the only use of ``solve_ivp``.  Profiles are cached per
``(n, beta, ShootingConfig)``, so every caller in a process shares one
solve; their arrays are read-only.

Anisotropic planar cones have no ODE reduction; for those
:func:`relax_angular_expander` marches the flow in similarity variables
(where expanders are stationary) until the time derivative stalls.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import LSODA, solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .cones import ConeProfile
from .errors import DomainError, ParameterError, ShootingError
from .geometry import GridFunction, GridSpec

__all__ = [
    "ShootingConfig",
    "ExpanderProfile",
    "solve_expander_profile",
    "evaluate_U",
    "expander_time_derivative",
    "relax_angular_expander",
    "AngularExpander",
]


@dataclass(frozen=True)
class ShootingConfig:
    rho_max: float = 40.0
    node_spacing: float = 0.01
    ode_rtol: float = 1e-11
    ode_atol: float = 1e-12
    ode_tol: float = 1e-8
    asym_tol: float = 1e-4
    bracket_start: float = 0.5
    bracket_growth: float = 1.5
    bracket_max_tries: int = 60
    bisect_iters: int = 80
    slope_cap: float = 1e7

    def __post_init__(self):
        # written so that NaN fails them too
        if not 4.0 < self.rho_max < math.inf:
            raise ParameterError("rho_max must be finite and large enough to reach "
                                 "the far-field regime")
        if not 0 < self.node_spacing <= self.rho_max / 100:
            raise ParameterError("node_spacing must be positive and resolve the profile")
        if not (math.isfinite(self.ode_rtol) and math.isfinite(self.ode_atol)):
            raise ParameterError("ode_rtol and ode_atol must be finite")
        if self.bracket_max_tries < 1 or self.bisect_iters < 1:
            raise ParameterError("bracket_max_tries and bisect_iters must be at least 1")
        if not self.slope_cap > 0:
            raise ParameterError("slope_cap must be positive")


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
    """Raised by :func:`_ode_rhs` to stop a solve near the slope cap."""


def _ode_rhs(rho, y, n, half_cap=None):
    """The profile ODE as a first-order system in (phi, phi').

    With ``half_cap`` it raises :class:`_SlopeGuard` as soon as it is asked
    for a slope |p| that is not below ``half_cap`` (a NaN slope included);
    without it, it never raises.
    """
    # Python floats run the same IEEE double operations as numpy scalars,
    # without their per-operation dispatch
    phi, p = y.tolist()
    if half_cap is not None and not abs(p) < half_cap:
        raise _SlopeGuard
    return [p, (1.0 + p * p) * (0.5 * (phi - rho * p) - (n - 1) * p / rho)]


_SERIES_RHO = 1e-6


def _series_start(a: float, n: int):
    # phi = a + a*rho^2/(4n) + O(rho^4) near the axis
    rho0 = _SERIES_RHO
    return rho0, [a + a * rho0 ** 2 / (4.0 * n), a * rho0 / (2.0 * n)]


def _integrate(a: float, n: int, cfg: ShootingConfig, t_eval: np.ndarray):
    """Integrate outward from the axis to the nodes ``t_eval`` through
    solve_ivp; returns its result (status 1 if the slope passed
    ``slope_cap``).  Only a solve whose slope guard tripped comes here, for
    the exact re-run: a shot with ``t_eval=[rho_max]``, the node solve with
    the profile nodes."""
    rho0, y0 = _series_start(a, n)

    def blow_up(rho, y, *_args):
        return cfg.slope_cap - abs(y[1])

    blow_up.terminal = True
    return solve_ivp(_ode_rhs, (rho0, cfg.rho_max), y0, args=(n,), method="LSODA",
                     rtol=cfg.ode_rtol, atol=cfg.ode_atol, t_eval=t_eval, events=blow_up)


def _lsoda(a: float, n: int, cfg: ShootingConfig):
    """scipy's LSODA integrator set up for a solve from the axis, with the
    start (y0, rho0).

    The public ``LSODA`` object is built only for its set-up: tolerance
    validation (including the rtol floor), the work arrays and ``rho_max``
    as the critical time.
    """
    rho0, y0 = _series_start(a, n)
    ode = LSODA(lambda rho, y: _ode_rhs(rho, y, n), rho0, y0, cfg.rho_max,
                rtol=cfg.ode_rtol, atol=cfg.ode_atol)._lsoda_solver
    return ode._integrator, ode._y, rho0


def _miss(a: float, n: int, beta: float, cfg: ShootingConfig) -> float:
    """Signed distance of phi(rho_max) from the refined tail; +/-inf on blow-up.

    Returns bit for bit what solve_ivp with ``t_eval=[rho_max]`` and a
    terminal slope event gives.  The :func:`_lsoda` integrator is run once,
    with itask 4 (to tout = rho_max, never past the critical time) and no
    step limit, on :func:`_ode_rhs` with the guard at ``slope_cap/2``.

    Same steps: LSODA applies the same critical-time clamp after every
    step, whether itask 4 goes on or itask 5 returns, so the single call
    takes the steps solve_ivp's one-step loop takes and ends on the same
    Nordsieck state at rho_max, which its dense output reproduces exactly.

    The guard catches every cap crossing: every accepted state is one
    corrector update away from a state the RHS was evaluated at, and the
    convergence test bounds that update on the rtol*|p| + atol scale.  So,
    with rtol far below 1/2 and the cap far above atol, an accepted
    |p| >= slope_cap implies an evaluated |p| >= slope_cap/2.
    A shot that never trips the guard therefore never met the terminal
    event; one that trips it (or meets a NaN slope) is run again through
    :func:`_integrate`, the solve_ivp event path itself, which decides
    between blow-up and a finite landing.
    """
    integrator, y, rho0 = _lsoda(a, n, cfg)
    integrator.call_args[2] = 4  # itask 4: to tout, never past tcrit
    integrator.iwork[5] = np.iinfo(np.int32).max  # mxstep: no limit in the one call
    try:
        y, _ = integrator.run(_ode_rhs, None, y, rho0, cfg.rho_max,
                              (n, cfg.slope_cap / 2), ())
    except _SlopeGuard:
        sol = _integrate(a, n, cfg, t_eval=[cfg.rho_max])
        if sol.status == 1:
            return np.inf if sol.y_events[0][0][1] > 0 else -np.inf
        if not sol.success:
            raise ShootingError(f"profile integration failed at a={a}: {sol.message}",
                                scanned=[a]) from None
        y = sol.y[:, -1]
    else:
        if not integrator.success:
            istate = integrator.istate
            raise ShootingError(
                f"profile integration failed at a={a}: LSODA istate {istate} "
                f"({integrator.messages.get(istate, 'unknown istate')})", scanned=[a])
    return float(y[0] - _tail_value(n, beta, cfg.rho_max))


# exponents 0..q of scipy's LsodaDenseOutput for each LSODA order q <= 12
_POWERS = [np.arange(q + 1)[:, None] for q in range(13)]


def _node_values(a: float, n: int, cfg: ShootingConfig, nodes: np.ndarray) -> np.ndarray:
    """(phi, phi') at ``nodes[1:]`` for the axis height a, as a (2, N-1) array.

    Returns bit for bit the ``y`` of :func:`_integrate` with
    ``t_eval=nodes[1:]``.  The :func:`_miss` integrator takes one step per
    call (itask 5, never past rho_max), as solve_ivp's stepper does, on the
    same slope guard.  After each step the nodes in (rho_old, rho] (found
    as solve_ivp finds them, bisecting to the right) are evaluated with
    scipy's ``LsodaDenseOutput`` arithmetic in its shapes: the Nordsieck
    array of the last step's order, its last column rescaled to the next
    step size when the order is set to drop, and one ``np.dot`` per step.
    A tripped guard or a bad istate re-runs the solve through
    :func:`_integrate`, which raises on a blow-up or a failed integration.
    """
    t_eval = nodes[1:]
    integrator, y, rho = _lsoda(a, n, cfg)
    integrator.call_args[2] = 5  # itask 5: one step, never past tcrit
    rwork, iwork = integrator.rwork, integrator.iwork
    args = (n, cfg.slope_cap / 2)
    knots = t_eval.tolist()
    out = np.empty((2, t_eval.size))
    i = 0
    try:
        while rho < cfg.rho_max:
            y, rho = integrator.run(_ode_rhs, None, y, rho, cfg.rho_max, args, ())
            if not integrator.success:
                break
            j = bisect_right(knots, rho)
            if j > i:
                order, h = iwork[13], rwork[11]
                yh = np.reshape(rwork[20:20 + (order + 1) * 2], (2, order + 1),
                                order="F").copy()
                if iwork[14] < order:
                    yh[:, -1] *= (h / rwork[10]) ** order
                out[:, i:j] = np.dot(yh, ((t_eval[i:j] - rho) / h) ** _POWERS[order])
                i = j
        else:
            return out
    except _SlopeGuard:
        pass
    sol = _integrate(a, n, cfg, t_eval=t_eval)
    if not sol.success or sol.status == 1:
        where = sol.t[-1] if sol.t.size else 0.0
        raise ShootingError(f"converged shot blew up at rho={where:.3g}", scanned=[a])
    return sol.y


def _rk4_defect(rho: np.ndarray, phi: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """Per-interval re-integration defect of the stored profile.

    Each interval [rho_i, rho_i+1] is re-integrated from the stored left state
    with two RK4 substeps; the defect against the stored right state measures
    how well the nodes satisfy the ODE, at an accuracy (O(h^5) per interval)
    far below the defect sizes of interest.  The first interval is excluded:
    it touches the coordinate singularity at the axis.
    """
    y = np.stack([phi[1:-1], p[1:-1]])
    x = rho[1:-1].copy()
    h_full = rho[2:] - rho[1:-1]

    def f(x_, y_):
        with np.errstate(divide="ignore"):
            drift = 0.5 * (y_[0] - x_ * y_[1]) - (n - 1) * y_[1] / x_
        return np.stack([y_[1], (1.0 + y_[1] ** 2) * drift])

    for _ in range(2):
        h = h_full / 2.0
        k1 = f(x, y)
        k2 = f(x + h / 2, y + (h / 2) * k1)
        k3 = f(x + h / 2, y + (h / 2) * k2)
        k4 = f(x + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = x + h
    defect = np.abs(y[0] - phi[2:]) + np.abs(y[1] - p[2:])
    return np.concatenate([[0.0, 0.0], defect])


@dataclass(eq=False)
class ExpanderProfile:
    """Solved self-similar profile phi with evaluation helpers.

    ``rho``/``phi``/``phi_prime`` sample the profile on [0, rho_max]; beyond
    rho_max evaluation falls back to the refined tail.  ``a`` is the
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
    node_residual: np.ndarray | None = None
    _spline: CubicHermiteSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._spline = CubicHermiteSpline(self.rho, self.phi, self.phi_prime)

    @property
    def rho_max(self) -> float:
        return float(self.rho[-1])

    def evaluate(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
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
        in the last bit on some inputs.
        """
        if not rho <= self.rho_max:
            return float(_tail_value(self.n, self.beta, np.array([rho]))[0])
        knots, (c0, c1, c2, c3) = self._pieces
        i = min(max(bisect_right(knots, rho) - 1, 0), len(knots) - 2)
        s = rho - knots[i]
        z = s * s
        return (0.0 + c3[i]) + c2[i] * s + c1[i] * z + c0[i] * (z * s)

    def evaluate_prime(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        out = np.empty(rho.shape)
        inside = rho <= self.rho_max
        out[inside] = self._spline(rho[inside], 1)
        if np.any(~inside):
            out[~inside] = _tail_slope(self.n, self.beta, rho[~inside])
        return out

    def time_derivative_profile(self, rho) -> np.ndarray:
        """(phi - rho*phi')/2, the upward drift of the expander at t = 1."""
        rho = np.asarray(rho, dtype=float)
        return 0.5 * (self.evaluate(rho) - rho * self.evaluate_prime(rho))

    def on_grid(self, spec: GridSpec, t: float = 1.0) -> GridFunction:
        return GridFunction(spec, evaluate_U(self, spec.nodes, t))

    def cone(self) -> ConeProfile:
        return ConeProfile.radial(self.n, self.beta)


def solve_expander_profile(k: ConeProfile, config: ShootingConfig | None = None) -> ExpanderProfile:
    """Shoot for the expanding profile out of a rotationally symmetric cone.

    Bisects the axis height a = phi(0) on the sign of phi(rho_max) minus the
    refined tail.  Postconditions checked here: the per-interval ODE defect
    stays below ``ode_tol`` and the far-field gap |phi - tail| over
    [rho_max/2, rho_max] stays below ``asym_tol``; violations raise with a
    suggested remedy rather than returning a dubious profile.

    Profiles are cached per ``(n, beta, config)``: equal keys return the same
    object, whose ``rho``, ``phi``, ``phi_prime`` and ``node_residual`` arrays
    are read-only because every caller shares them.
    """
    if k.kind != "radial":
        raise ParameterError("shooting needs a rotationally symmetric cone; "
                             "use relax_angular_expander for angular profiles")
    beta, n = float(k.beta), int(k.n)
    if beta < 0:
        raise ParameterError("expander profiles are computed for slopes beta >= 0")
    return _shoot_profile(n, beta, config or ShootingConfig())


# LSODA runs at rtol >= 100*eps: scipy raises a smaller one to that floor
_RTOL_FLOOR = 100 * np.finfo(float).eps
_SECANT_SHOTS = 4  # at most; they stop once one lands inside the margin


def _certify_margin(n: int, beta: float, cfg: ShootingConfig) -> float:
    """The |miss| from which a computed shot certifies its sign: 1e3 times
    the tolerance scale rtol*|tail(rho_max)| + atol of phi(rho_max)."""
    rtol = max(cfg.ode_rtol, _RTOL_FLOOR)
    return 1e3 * (rtol * abs(_tail_value(n, beta, cfg.rho_max)) + cfg.ode_atol)


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
def _shoot_profile(n: int, beta: float, cfg: ShootingConfig) -> ExpanderProfile:
    """The solve behind :func:`solve_expander_profile`, memoized per key."""
    nodes = np.round(np.arange(0.0, cfg.rho_max + cfg.node_spacing / 2, cfg.node_spacing), 12)
    nodes[-1] = cfg.rho_max

    if beta == 0.0:
        zeros = np.zeros_like(nodes)
        _read_only(nodes, zeros)
        return ExpanderProfile(n, 0.0, nodes, zeros, zeros, 0.0,
                               report={"ode_residual": 0.0, "asym_gap": 0.0,
                                       "bracket": (0.0, 0.0), "bisections": 0,
                                       "shots": 0,
                                       "above_cone_min": 0.0, "udot_min": 0.0},
                               node_residual=zeros)

    scanned = []  # every shot's a, in order
    # the certified pair: every a <= lo_cert undershoots and every
    # a >= hi_cert overshoots (a = 0 is the exact zero profile, below the tail)
    margin = _certify_margin(n, beta, cfg)
    lo_cert, hi_cert = 0.0, math.inf

    def shoot(a_try: float) -> float:
        nonlocal lo_cert, hi_cert
        miss = _miss(a_try, n, beta, cfg)
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
    a_lo, f_lo = 0.0, -_tail_value(n, beta, cfg.rho_max)
    a_hi = max(beta, cfg.bracket_start)
    for _ in range(cfg.bracket_max_tries):
        f_hi = shoot(a_hi)
        if f_hi > 0:
            break
        a_lo, f_lo = a_hi, f_hi
        a_hi *= cfg.bracket_growth
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
    for i in range(cfg.bisect_iters):
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

    y = _node_values(a, n, cfg, nodes)
    phi = np.concatenate([[a], y[0]])
    phi_p = np.concatenate([[0.0], y[1]])

    node_res = _rk4_defect(nodes, phi, phi_p, n)
    ode_residual = float(np.max(node_res[:-1]))  # last node is one-sided anyway
    far = nodes >= cfg.rho_max / 2
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
    if not ode_residual <= cfg.ode_tol:
        raise ShootingError(
            f"profile ODE defect {ode_residual:.2e} exceeds {cfg.ode_tol:.1e}; "
            "reduce node_spacing or tighten ode_rtol", scanned=[a])
    if not asym_gap <= cfg.asym_tol:
        raise ShootingError(
            f"far-field gap {asym_gap:.2e} exceeds {cfg.asym_tol:.1e} on "
            f"[{cfg.rho_max / 2:.0f}, {cfg.rho_max:.0f}]; increase rho_max", scanned=[a])
    _read_only(nodes, phi, phi_p, node_res)
    return ExpanderProfile(n, beta, nodes, phi, phi_p, a, report=report, node_residual=node_res)


def evaluate_U(profile: ExpanderProfile, r, t: float) -> np.ndarray:
    """U(x,t) = sqrt(t)*phi(|x|/sqrt(t)) at radii ``r``; t must be positive."""
    if t <= 0:
        raise DomainError(f"self-similar evaluation needs t > 0, got t={t} "
                          "(the t=0 trace is the cone itself)")
    s = np.sqrt(t)
    return s * profile.evaluate(np.asarray(r, dtype=float) / s)


def expander_time_derivative(profile: ExpanderProfile, r, t: float) -> np.ndarray:
    """dU/dt = (phi - rho*phi')/(2*sqrt(t)) at rho = r/sqrt(t); nonnegative."""
    if t <= 0:
        raise DomainError("time derivative needs t > 0")
    s = np.sqrt(t)
    return profile.time_derivative_profile(np.asarray(r, dtype=float) / s) / s


@dataclass
class AngularExpander:
    """Stationary similarity-variable solution for an anisotropic planar cone.

    ``newton_iters`` totals the Newton updates over all ``steps`` implicit
    steps; each update factors one sparse LU.
    """

    cone: ConeProfile
    solution: GridFunction
    stationary_rate: float
    steps: int
    converged: bool
    newton_iters: int

    def center_height(self) -> float:
        """phi(0) estimate: mean of the innermost ring (second-order accurate)."""
        return float(np.mean(self.solution.values[0]))


def relax_angular_expander(k: ConeProfile, rho_max: float = 12.0, nr: int = 72,
                           ntheta: int = 32, tau_max: float = 40.0, dtau: float = 0.05,
                           stationary_tol: float = 1e-5) -> AngularExpander:
    """Relax the flow in similarity variables to the expanding profile.

    In the variables v(rho,theta) = U/sqrt(t), rho = x/sqrt(t), tau = log t,
    the graph flow becomes v_tau = sqrt(1+|Dv|^2) H[v] + (rho v_rho - v)/2 and
    expanders are its stationary states.  The outer ring is pinned to the
    refined cone tail gamma*rho_max + c(theta)/rho_max, and implicit steps are
    taken until the update rate drops below ``stationary_tol``.
    """
    from . import flow

    if k.kind != "angular":
        raise ParameterError("relaxation targets angular cones; radial cones shoot")
    spec = GridSpec.polar_disk(rho_max, nr, ntheta)
    v = k.on_grid(spec).values.copy()
    v[-1, :] = k.gamma(spec.thetas) * rho_max + k.tail_coefficient(spec.thetas) / rho_max
    u = GridFunction(spec, v)
    cfg = flow.SolverConfig(boundary="pin-to-initial", adaptive=False, dt_init=dtau,
                            similarity_drift=True)
    bv = flow.boundary_values_for(u, cfg)
    rate = np.inf
    steps = iters = 0
    while steps * dtau < tau_max:
        stats = {}
        u_new = flow.step(u, dtau, cfg, bv, (steps + 1) * dtau, stats=stats)
        iters += stats["iters"]
        rate = float(np.max(np.abs(u_new.values - u.values))) / dtau
        u = u_new
        steps += 1
        if rate <= stationary_tol:
            break
    return AngularExpander(k, u, rate, steps, rate <= stationary_tol, iters)
