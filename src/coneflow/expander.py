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
errors in a are amplified only linearly and plain bisection converges.
Bisection is kept over Brent's method on purpose: near the root the miss is
noisy at the level of the LSODA tolerance, and brentq on the same bracket
moved a by up to 1.9e-11 relative on six (n, beta) pairs while still taking
9 to 22 shots.
Each shot (:func:`_miss`) builds scipy's ``LSODA`` object for its tolerance
checks and work arrays, then runs that object's own LSODA integrator
one step at a time (itask 5, never past rho_max) with the float-level
:func:`_ode_rhs`.  These are the steps ``solve_ivp`` takes, bit for bit,
without its event search, wrapper closures and array conversions, four to
five times cheaper; the slope cap is checked after every accepted step.  One
integrator call to rho_max would be faster still, but it hides the accepted
states that the exact blow-up check reads, so it was not taken.  Profiles
are cached per ``(n, beta, ShootingConfig)``, so every caller in a process
shares one solve; their arrays are read-only.

Anisotropic planar cones have no ODE reduction; for those
:func:`relax_angular_expander` marches the flow in similarity variables
(where expanders are stationary) until the time derivative stalls.
"""

from __future__ import annotations

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
        if self.rho_max <= 4.0:
            raise ParameterError("rho_max too small to reach the far-field regime")
        if self.node_spacing <= 0 or self.node_spacing > self.rho_max / 100:
            raise ParameterError("node_spacing must be positive and resolve the profile")


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


def _ode_rhs(rho, y, n):
    # Python floats run the same IEEE double operations as numpy scalars,
    # without their per-operation dispatch
    phi, p = y.tolist()
    return [p, (1.0 + p * p) * (0.5 * (phi - rho * p) - (n - 1) * p / rho)]


_SERIES_RHO = 1e-6


def _series_start(a: float, n: int):
    # phi = a + a*rho^2/(4n) + O(rho^4) near the axis
    rho0 = _SERIES_RHO
    return rho0, [a + a * rho0 ** 2 / (4.0 * n), a * rho0 / (2.0 * n)]


def _integrate(a: float, n: int, cfg: ShootingConfig, t_eval: np.ndarray):
    """Integrate outward from the axis to the nodes ``t_eval``; returns the
    solve_ivp result (status 1 if the slope passed ``slope_cap``)."""
    rho0, y0 = _series_start(a, n)

    def blow_up(rho, y, *_args):
        return cfg.slope_cap - abs(y[1])

    blow_up.terminal = True
    return solve_ivp(_ode_rhs, (rho0, cfg.rho_max), y0, args=(n,), method="LSODA",
                     rtol=cfg.ode_rtol, atol=cfg.ode_atol, t_eval=t_eval, events=blow_up)


def _miss(a: float, n: int, beta: float, cfg: ShootingConfig) -> float:
    """Signed distance of phi(rho_max) from the refined tail; +/-inf on blow-up.

    Returns bit for bit what solve_ivp with ``t_eval=[rho_max]`` and a
    terminal slope event gives.  The public ``LSODA`` object is built only
    for its set-up: tolerance validation (including the rtol floor), the
    work arrays and ``rho_max`` as the critical time.  Its own integrator is
    then run with itask 5 (one step, never past the critical time), exactly
    as ``LSODA.step`` runs it, but with :func:`_ode_rhs` passed straight to
    the C stepper.  Its floats are the doubles scipy's wrappers would have
    converted, so the stepper takes the same steps.  Skipping the wrapper
    closures, the ``np.asarray`` of every RHS value and the per-step state
    copy about halves the cost of a shot.

    The end state is the stepper's own (solve_ivp's dense output at the
    final step's end reproduces it exactly), and a slope past ``slope_cap``
    is caught after the same accepted step the terminal event would catch
    it.  Integrating to rho_max in a single C call would be faster still,
    but it hides the accepted states, so that check could no longer be
    exact.
    """
    rho0, y0 = _series_start(a, n)
    rho_max, slope_cap = cfg.rho_max, cfg.slope_cap
    ode = LSODA(lambda rho, y: _ode_rhs(rho, y, n), rho0, y0, rho_max,
                rtol=cfg.ode_rtol, atol=cfg.ode_atol)._lsoda_solver
    integrator = ode._integrator
    integrator.call_args[2] = 5
    y, rho, args = ode._y, rho0, (n,)
    while rho < rho_max:
        y, rho = integrator.run(_ode_rhs, None, y, rho, rho_max, args, ())
        if not integrator.success:
            istate = integrator.istate
            raise ShootingError(
                f"profile integration failed at a={a}: LSODA istate {istate} "
                f"({integrator.messages.get(istate, 'unknown istate')})", scanned=[a])
        if slope_cap - abs(y[1]) <= 0:
            return np.inf if y[1] > 0 else -np.inf
    return float(y[0] - _tail_value(n, beta, rho_max))


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
    rho_max evaluation falls back to the refined tail (see
    :meth:`extrapolated`).  ``a`` is the shooting parameter phi(0) and
    ``report`` carries the solve diagnostics (defect sup, far-field gap,
    bracket, bisection and shot counts).
    """

    n: int
    beta: float
    rho: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    a: float
    report: dict = field(default_factory=dict)
    node_residual: np.ndarray | None = None
    _spline: CubicHermiteSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._spline is None:
            self._spline = CubicHermiteSpline(self.rho, self.phi, self.phi_prime)

    @property
    def rho_max(self) -> float:
        return float(self.rho[-1])

    def extrapolated(self, rho) -> np.ndarray:
        """True where evaluation uses the far-field tail instead of the spline."""
        return np.asarray(rho, dtype=float) > self.rho_max

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

    def shoot(a_try: float) -> float:
        miss = _miss(a_try, n, beta, cfg)
        scanned.append(a_try)
        if np.isnan(miss):
            raise ShootingError(f"shot at a={a_try} missed by NaN (n={n}, beta={beta})",
                                scanned=list(scanned))
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

    for i in range(cfg.bisect_iters):
        a_mid = 0.5 * (a_lo + a_hi)
        if a_mid == a_lo or a_mid == a_hi:
            break
        f_mid = shoot(a_mid)
        if f_mid > 0:
            a_hi = a_mid
        else:
            a_lo = a_mid
        if a_hi - a_lo <= 1e-15 * max(1.0, a_hi):
            break
    a = 0.5 * (a_lo + a_hi)

    sol = _integrate(a, n, cfg, t_eval=nodes[1:])
    if not sol.success or sol.status == 1:
        where = sol.t[-1] if sol.t.size else 0.0
        raise ShootingError(f"converged shot blew up at rho={where:.3g}", scanned=[a])
    phi = np.concatenate([[a], sol.y[0]])
    phi_p = np.concatenate([[0.0], sol.y[1]])

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
    if ode_residual > cfg.ode_tol:
        raise ShootingError(
            f"profile ODE defect {ode_residual:.2e} exceeds {cfg.ode_tol:.1e}; "
            "reduce node_spacing or tighten ode_rtol", scanned=[a])
    if asym_gap > cfg.asym_tol:
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

    ``newton_iters`` and ``lu_factorizations`` total the Newton updates and
    sparse LU factorizations over all ``steps`` implicit steps.
    """

    cone: ConeProfile
    solution: GridFunction
    stationary_rate: float
    steps: int
    converged: bool
    newton_iters: int
    lu_factorizations: int

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
    # every Newton update factors one sparse LU of the probed Jacobian
    return AngularExpander(k, u, rate, steps, rate <= stationary_tol, iters, iters)
