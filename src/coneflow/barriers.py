"""Barrier constructions for curvature flow over mean convex cones.

Three families live here, plus the measurement tools that certify them:

* static power barriers w = k - r^(-alpha), whose curvature has a closed form
  (no finite differences; at r = 1e4 the power-law tail would drown in FD
  roundoff otherwise);
* the inverse-power normal-speed flow db/dt = -|F| * sqrt(1 + |Db|^2) with
  |F| = (r^2 + b^2)^(-(n-2)/4), run for unit time from r = 10 to r = 400 and
  realized twice: as a graphical upwind march of the curve (r, b) (for
  sup/curvature certificates; its H is geometry's radial formula on the
  per-call stencil ``_d1_d2``) and, for the residual checks of the
  evolution equations of g, h, H, |A|^2 and nu, as a Lagrangian particle
  flow of the profile curve that only those checks integrate;
* max-type subsolutions B = max(U - m, b_scaled - delta/2) glued from an
  expanding soliton and a scaled flow barrier.

The log-heat-kernel machinery (psi = -(n/2) log t - |X|^2/(4t) and its
parabolic defect identity) and the half-space decay experiment sit at the
bottom since they share the same surface-derivative helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .analysis import DecayFit, bump, decay_fit
from .cones import ConeProfile
from .errors import CertificationError, DomainError, ParameterError
from .expander import ExpanderProfile, evaluate_U, expander_time_derivative
from .flow import FlowRun, SolverConfig, evolve
from .geometry import (
    GridFunction,
    GridSpec,
    _d1_d2,
    _radial_curvatures,
    _radial_derivatives,
    mean_curvature,
    radial_rhs,
)

__all__ = [
    "StaticBarrier",
    "static_barrier_w",
    "wk_difference_fit",
    "LemmaBarrierResult",
    "lemma_barrier_flow",
    "evolution_equation_residuals",
    "ScaledBarrier",
    "Subsolution",
    "HeatSupersolution",
    "PsiIdentityReport",
    "psi_identity_residual",
    "HalfSpaceReport",
    "half_space_experiment",
]


# ---------------------------------------------------------------------------
# static power barriers


def _power_barrier_parts(beta: float, alpha: float, r: np.ndarray):
    w = beta * r - r ** (-alpha)
    wr = beta + alpha * r ** (-alpha - 1.0)
    wrr = -alpha * (alpha + 1.0) * r ** (-alpha - 2.0)
    return w, wr, wrr


@dataclass(eq=False)
class StaticBarrier:
    """Sampled w = k - r^(-alpha) with exact derivatives and curvature."""

    cone: ConeProfile
    alpha: float
    r: np.ndarray
    w: np.ndarray
    w_r: np.ndarray
    H: np.ndarray
    r0: float | None

    @property
    def certified(self) -> bool:
        return self.r0 is not None


def static_barrier_w(k: ConeProfile, alpha: float, points: int = 400,
                     require_mean_convex: bool = True) -> StaticBarrier:
    """Static lower barrier k - r^(-alpha) on a log grid over [1, 1e4].

    Reports the smallest sampled radius r0 past which H[w] > 0 holds through
    1e4, or r0 = None when the curvature stays nonpositive at the far end.
    A cone with H = 0 (a plane through the origin) keeps H[w] < 0 for large r
    whenever alpha > n-2, which is the documented failure mode; pass
    require_mean_convex=False to probe it.
    """
    if k.kind != "radial":
        raise ParameterError("static power barriers are built over radial cones")
    if not 0 < alpha < math.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if require_mean_convex and k.scaled_mean_curvature() <= 0:
        raise ParameterError("cone is not strictly mean convex; pass "
                             "require_mean_convex=False to sample anyway")
    r = np.geomspace(1.0, 1e4, points)
    w, wr, wrr = _power_barrier_parts(k.beta, alpha, r)
    H = _radial_curvatures(k.n, r, wr, wrr)
    pos = H > 0
    if not pos[-1]:
        r0 = None
    else:
        bad = np.nonzero(~pos)[0]
        r0 = float(r[bad[-1] + 1]) if bad.size else float(r[0])
    return StaticBarrier(k, alpha, r, w, wr, H, r0)


def wk_difference_fit(k: ConeProfile, alpha: float, points: int = 160) -> dict:
    """Decay rate of the graph-speed difference between w and the cone,
    fitted over r in [1e3, 1e4].

    The graphical flow speed is W*H = u_rr/(1+u_r^2) + (n-1)u_r/r; for
    w = k - r^(-alpha) the difference from the cone's speed is exactly

        alpha * r^(-alpha-2) * [(n-1) - (alpha+1)/(1+w_r^2)],

    so the log-log fit should sit near exponent -(alpha+2).
    """
    if k.kind != "radial":
        raise ParameterError("radial cones only")
    r = np.geomspace(1e3, 1e4, points)
    _, wr, wrr = _power_barrier_parts(k.beta, alpha, r)
    diff = wrr / (1.0 + wr * wr) + (k.n - 1) * (wr - k.beta) / r
    fit = decay_fit(r, np.abs(diff))
    coef = alpha * ((k.n - 1) - (alpha + 1.0) / (1.0 + k.beta ** 2))
    return {"fit": fit, "predicted_exponent": -(alpha + 2.0),
            "predicted_coefficient": coef}


# ---------------------------------------------------------------------------
# the inverse-power speed flow, graphical form


# both realizations of the flow barrier run over [_R_INNER, _R_OUTER] for
# time _HORIZON; the graphical march keeps its steps under the CFL cap _CFL
_R_INNER, _R_OUTER, _HORIZON, _CFL = 10.0, 400.0, 1.0, 0.4


def _speed(r: np.ndarray, b: np.ndarray, alpha: float):
    return (r * r + b * b) ** (-alpha)


def _upwind_rate(r: np.ndarray, b: np.ndarray, alpha: float):
    """db/dt = -|F| sqrt(1+|Db|^2) with Godunov-type one-sided gradients."""
    F = _speed(r, b, alpha)
    dr = np.diff(r)
    dm = np.empty_like(b)
    dp = np.empty_like(b)
    dm[1:] = (b[1:] - b[:-1]) / dr
    dp[:-1] = dm[1:]
    dm[0] = dp[0]
    dp[-1] = dm[-1]
    grad2 = np.maximum(dm, 0.0) ** 2 + np.minimum(dp, 0.0) ** 2
    return -F * np.sqrt(1.0 + grad2), F


def _lagrangian_velocity(s, R, Z, alpha):
    Rs, Zs = _d1_d2(s, np.stack((R, Z), axis=1))[0].T
    q = np.sqrt(Rs * Rs + Zs * Zs)
    Fmag = (R * R + Z * Z) ** (-alpha)
    # velocity -F nu = |F| nu with nu = (Z_s, -R_s)/q the downward normal
    return Fmag * Zs / q, -Fmag * Rs / q


def _integrate_lagrangian(k: ConeProfile, s: np.ndarray, steps: int,
                          alpha: float) -> tuple:
    """Particle trajectories (R, Z)(s, t) of the profile curve at the
    ``steps + 1`` levels t = j * _HORIZON / steps, by classical RK4."""
    nt = steps
    dt = _HORIZON / nt
    R = np.empty((nt + 1, s.size))
    Z = np.empty((nt + 1, s.size))
    R[0] = s
    Z[0] = k.beta * s
    for j in range(nt):
        r0, z0 = R[j], Z[j]
        k1 = _lagrangian_velocity(s, r0, z0, alpha)
        k2 = _lagrangian_velocity(s, r0 + 0.5 * dt * k1[0], z0 + 0.5 * dt * k1[1],
                                  alpha)
        k3 = _lagrangian_velocity(s, r0 + 0.5 * dt * k2[0], z0 + 0.5 * dt * k2[1],
                                  alpha)
        k4 = _lagrangian_velocity(s, r0 + dt * k3[0], z0 + dt * k3[1], alpha)
        R[j + 1] = r0 + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        Z[j + 1] = z0 + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
    return R, Z


def _flow_exponent(k: ConeProfile) -> float:
    """alpha = (n-2)/4 of the speed |F| = (r^2 + b^2)^(-alpha) over ``k``,
    after the checks both realizations of the flow share."""
    if k.kind != "radial":
        raise ParameterError("the flow barrier is built over radial cones")
    if k.n < 3:
        raise ParameterError("the inverse-power speed needs n >= 3")
    if k.scaled_mean_curvature() <= 0:
        raise ParameterError("cone must be strictly mean convex")
    return (k.n - 2) / 4.0


@dataclass(eq=False)
class LemmaBarrierResult:
    """The graphical realization of the flow barrier, certified.

    The graphical barrier at unit time is the curve (``r``, ``b``) over
    r in [10, 400]; ``k_values`` is the cone on the same radii.
    """

    cone: ConeProfile
    r: np.ndarray
    b: np.ndarray
    k_values: np.ndarray
    r_cut: float
    certified: tuple
    min_gap: float
    H_min: float
    m1: float
    R1: float
    deficit_fit: DecayFit
    passed: bool

    def scaled(self, lam: float) -> "ScaledBarrier":
        """The parabolic rescaling b_lam(x) = lam * b(x / lam), exact on the
        scaled radii lam * r (no interpolation)."""
        if not self.passed:
            raise CertificationError("cannot scale an uncertified barrier",
                                     witness={"passed": self.passed})
        if not (0 < lam * float(self.r[-1]) < math.inf
                and np.all(np.diff(lam * self.r) > 0)):
            raise ParameterError(f"lam must be positive and finite, with lam * r distinct "
                                 f"and finite; got {lam}")
        lo, hi = self.certified
        return ScaledBarrier(self.cone, lam, self.m1, self.R1, lam * self.r, lam * self.b,
                             (lam * lo, lam * hi))


def lemma_barrier_flow(k: ConeProfile, points: int = 600) -> LemmaBarrierResult:
    """March the inverse-power speed flow from the cone for unit time over
    r in [10, 400].

    The graphical form runs Heun steps with Godunov-type upwind gradients
    under a CFL cap.  The inner edge is an inflow boundary for the truncated
    domain, so a pollution collar of width 2 * max|F| is excluded from
    every certificate (b < k, H[b] > 0, deficit decay and monotonicity).
    """
    alpha = _flow_exponent(k)
    r = np.geomspace(_R_INNER, _R_OUTER, points)
    kv = k.beta * r
    f0 = _speed(_R_INNER, k.beta * _R_INNER, alpha)
    hmin = float(np.min(np.diff(r)))
    dt = min(_CFL * hmin / (f0 * 1.5), _HORIZON / 64.0)
    nt = int(math.ceil(_HORIZON / dt))
    dt = _HORIZON / nt

    f_run_max = f0
    b = kv
    for _ in range(nt):
        rate1, F1 = _upwind_rate(r, b, alpha)
        b1 = b + dt * rate1
        rate2, F2 = _upwind_rate(r, b1, alpha)
        b = b + 0.5 * dt * (rate1 + rate2)
        f_run_max = max(f_run_max, float(np.max(F1)), float(np.max(F2)))

    r_cut = _R_INNER + 2.0 * f_run_max * _HORIZON
    il = int(np.searchsorted(r, r_cut))
    iu = points - 3
    if iu - il < 16:
        raise CertificationError("certified window too small after the "
                                 "pollution cut", witness={"r_cut": r_cut})
    gap = kv - b
    H = _radial_curvatures(k.n, r, *_d1_d2(r, b))
    min_gap = float(np.min(gap[il:iu]))
    H_min = float(np.min(H[il:iu]))
    mono = bool(np.all(np.diff(gap[il:iu]) <= 1e-12 * np.max(gap)))
    lo = r[il] * 1.3
    hi = r[iu - 1] / 1.05
    sel = (r >= lo) & (r <= hi)
    fit = decay_fit(r[sel], gap[sel])
    want = -(k.n - 2) / 2.0
    passed = (min_gap > 0 and H_min > 0 and mono
              and abs(fit.exponent - want) <= 0.2 * abs(want))
    return LemmaBarrierResult(k, r, b, kv, r_cut, (float(r[il]), float(r[iu - 1])),
                              min_gap, H_min, float(gap[il]), float(r[il]), fit,
                              bool(passed))


# ---------------------------------------------------------------------------
# evolution-equation residuals along the Lagrangian path


def _profile_geometry(s, R, Z, n, alpha):
    """Geometric record of one stored profile-curve level.

    The surface of revolution has one profile direction and n-1 rotational
    directions; the rotational block is isotropic, so a single representative
    component (g_th = R^2, h_th = R Z_s / q) with multiplicity n-1 carries it.
    Derivatives of the speed F = -(R^2+Z^2)^(-alpha) are exact chain
    rules in the stored coordinates, not finite differences.
    """
    d1, d2 = _d1_d2(s, np.stack((R, Z), axis=1))
    (Rs, Zs), (Rss, Zss) = d1.T, d2.T
    q2 = Rs * Rs + Zs * Zs
    q = np.sqrt(q2)
    nu_r = Zs / q
    nu_z = -Rs / q
    g_ss = q2
    g_th = R * R
    h_ss = (Zss * Rs - Rss * Zs) / q
    h_th = R * Zs / q
    ks = h_ss / g_ss
    kt = h_th / g_th
    H = ks + (n - 1) * kt
    A2 = ks * ks + (n - 1) * kt * kt
    trA3 = ks ** 3 + (n - 1) * kt ** 3
    X2 = R * R + Z * Z
    F = -X2 ** (-alpha)
    XdotXs = R * Rs + Z * Zs
    Xnu = (R * Zs - Z * Rs) / q
    F_s = -2.0 * alpha * F * XdotXs / X2
    Fcov_ss = (4.0 * alpha * (alpha + 1.0) * F * XdotXs ** 2 / X2 ** 2
               - 2.0 * alpha * F * (g_ss - Xnu * h_ss) / X2)
    Fcov_th = -2.0 * alpha * F * (g_th - Xnu * h_th) / X2
    lapF = Fcov_ss / g_ss + (n - 1) * Fcov_th / g_th
    return {"g_ss": g_ss, "g_th": g_th, "h_ss": h_ss, "h_th": h_th,
            "H": H, "A2": A2, "trA3": trA3, "F": F, "F_s": F_s,
            "Fcov_ss": Fcov_ss, "Fcov_th": Fcov_th, "lapF": lapF,
            "nu_r": nu_r, "nu_z": nu_z, "Rs": Rs, "Zs": Zs, "X2": X2}


def evolution_equation_residuals(k: ConeProfile, points: int, steps: int,
                                 t_stride: int) -> dict:
    """Check the five evolution equations along the particle flow of the
    lemma barrier over ``k``.

    The profile curve starts as the cone on ``points`` geometric labels over
    r in [10, 400] and takes ``steps`` RK4 steps to unit time; every
    ``t_stride``-th interior level is sampled.  Time derivatives at fixed
    particle label come from centered differences of the stored levels; the
    right-hand sides are evaluated analytically at the middle level.  Each residual is the sup over sampled interior nodes
    and times, normalized by the larger of the two sides' sup scales, so a
    value of 1e-2 means one percent of the equation's own size.  The three
    nodes at either end of the curve feel the one-sided stencil and are
    left out.
    """
    alpha = _flow_exponent(k)
    if steps < 2:
        raise ParameterError("need at least three stored levels")
    s = np.geomspace(_R_INNER, _R_OUTER, points)
    R, Z = _integrate_lagrangian(k, s, steps, alpha)
    n, dt = k.n, _HORIZON / steps
    sl = slice(3, points - 3)

    keys = ["g_ss", "g_th", "h_ss", "h_th", "H", "A2", "nu_r", "nu_z"]
    num = {key: 0.0 for key in ["metric", "second_form", "mean_curvature",
                                "a_squared", "normal"]}
    den = dict(num)
    a_ratio = 0.0
    samples = 0
    for j in range(1, steps, max(1, t_stride)):
        gm = _profile_geometry(s, R[j - 1], Z[j - 1], n, alpha)
        g0 = _profile_geometry(s, R[j], Z[j], n, alpha)
        gp = _profile_geometry(s, R[j + 1], Z[j + 1], n, alpha)
        lhs = {key: (gp[key] - gm[key]) / (2.0 * dt) for key in keys}
        rhs = {
            "g_ss": -2.0 * g0["F"] * g0["h_ss"],
            "g_th": -2.0 * g0["F"] * g0["h_th"],
            "h_ss": g0["Fcov_ss"] - g0["F"] * g0["h_ss"] ** 2 / g0["g_ss"],
            "h_th": g0["Fcov_th"] - g0["F"] * g0["h_th"] ** 2 / g0["g_th"],
            "H": g0["lapF"] + g0["F"] * g0["A2"],
            "A2": (2.0 * g0["F"] * g0["trA3"]
                   + 2.0 * (g0["h_ss"] * g0["Fcov_ss"] / g0["g_ss"] ** 2
                            + (n - 1) * g0["h_th"] * g0["Fcov_th"] / g0["g_th"] ** 2)),
            "nu_r": g0["F_s"] / g0["g_ss"] * g0["Rs"],
            "nu_z": g0["F_s"] / g0["g_ss"] * g0["Zs"],
        }
        groups = {"metric": ["g_ss", "g_th"], "second_form": ["h_ss", "h_th"],
                  "mean_curvature": ["H"], "a_squared": ["A2"],
                  "normal": ["nu_r", "nu_z"]}
        for gname, members in groups.items():
            for kq in members:
                err = np.max(np.abs(lhs[kq][sl] - rhs[kq][sl]))
                scale = max(np.max(np.abs(lhs[kq][sl])),
                            np.max(np.abs(rhs[kq][sl])))
                num[gname] = max(num[gname], float(err))
                den[gname] = max(den[gname], float(scale))
        ratio = np.abs(lhs["A2"][sl]) * g0["X2"][sl] ** 1.5 / np.abs(g0["F"][sl])
        a_ratio = max(a_ratio, float(np.max(ratio)))
        samples += 1

    out = {key: (num[key] / den[key] if den[key] > 0 else 0.0) for key in num}
    out["a_evolution_ratio"] = a_ratio
    out["max"] = max(out[key] for key in
                     ["metric", "second_form", "mean_curvature", "a_squared",
                      "normal"])
    out["levels_sampled"] = samples
    return out


# ---------------------------------------------------------------------------
# scaling and the max-type subsolution


@dataclass(eq=False)
class ScaledBarrier:
    """A certified flow barrier after parabolic rescaling by lam
    (:meth:`LemmaBarrierResult.scaled`): the curve (``r``, ``b``) and its
    certified window, read between the nodes through a cubic spline."""

    cone: ConeProfile
    lam: float
    m1: float
    R1: float
    r: np.ndarray
    b: np.ndarray
    certified: tuple
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self._spline = CubicSpline(self.r, self.b)

    @property
    def domain(self) -> tuple:
        return (float(self.r[0]), float(self.r[-1]))

    def evaluate(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        lo, hi = self.domain
        if np.any(r < lo - 1e-12) or np.any(r > hi + 1e-12):
            raise DomainError(f"barrier sampled outside [{lo:.3g}, {hi:.3g}]")
        return np.asarray(self._spline(r), dtype=float)


@dataclass(eq=False)
class Subsolution:
    """B(x, t) = max(U(x, t) - m, b_lam(x) - delta/2).

    The expander branch solves the flow exactly; the barrier branch is static
    with H >= 0 on its certified region, so each branch is a subsolution and
    the max inherits it.  Construction enforces the gluing inequalities
    lam * m1 > m and lam * R1 > R (deficit and hole scales of the barrier
    strictly dominate those of the perturbation).
    """

    profile: ExpanderProfile
    barrier: ScaledBarrier
    m: float
    delta: float
    R: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.m, self.delta, self.R)):
            raise ParameterError("m, delta, R must be positive and finite")
        if self.barrier.lam * self.barrier.m1 <= self.m:
            raise ParameterError(
                f"need lam*m1 > m (got {self.barrier.lam * self.barrier.m1:.4g}"
                f" <= {self.m:.4g})")
        if self.barrier.lam * self.barrier.R1 <= self.R:
            raise ParameterError(
                f"need lam*R1 > R (got {self.barrier.lam * self.barrier.R1:.4g}"
                f" <= {self.R:.4g})")
        pc, bc = self.profile.cone(), self.barrier.cone
        if pc.n != bc.n or abs(pc.beta - bc.beta) > 1e-12:
            raise ParameterError("expander and barrier belong to different cones")

    def _branches(self, r, t: float):
        """(U - m, b_lam - delta/2) at r; the barrier branch is -inf off its
        domain."""
        if t < 0:
            raise DomainError("subsolution defined for t >= 0")
        r = np.asarray(r, dtype=float)
        # U extends continuously to t = 0 as the cone itself
        if t == 0:
            ub = self.barrier.cone.beta * r - self.m
        else:
            ub = evaluate_U(self.profile, r, t) - self.m
        bb = np.full(r.shape, -np.inf)
        lo, hi = self.barrier.domain
        inside = (r >= lo) & (r <= hi)
        if inside.any():
            bb[inside] = self.barrier.evaluate(r[inside]) - self.delta / 2
        return ub, bb

    def evaluate(self, r, t: float) -> np.ndarray:
        return np.maximum(*self._branches(r, t))

    def branch(self, r, t: float) -> np.ndarray:
        """0 where the expander branch is active, 1 where the barrier wins."""
        ub, bb = self._branches(r, t)
        return (bb > ub).astype(int)

    def residual_report(self, spec: GridSpec, times) -> dict:
        """Branch-wise flow residuals more than two nodes from the gluing
        crease.

        Expander branch: |d/dt U - W H[U - m]| on active nodes (pure
        discretization error of the sampled soliton).  Barrier branch: the
        static branch is a subsolution iff H >= 0, so the report carries the
        minimum sampled curvature on active certified nodes.
        """
        r = spec.nodes
        exp_res, bar_min_H = 0.0, np.inf
        clo, chi = self.barrier.certified
        for t in times:
            active = self.branch(r, t)
            ub = evaluate_U(self.profile, r, t) - self.m
            crease = np.zeros_like(active, dtype=bool)
            switches = np.nonzero(np.diff(active) != 0)[0]
            for i in switches:
                crease[max(0, i - 2):i + 4] = True
            e_mask = (active == 0) & ~crease
            e_mask[:2] = e_mask[-2:] = False
            if e_mask.any():
                udot = expander_time_derivative(self.profile, r, t)
                rhs = radial_rhs(GridFunction(spec, ub)).values
                exp_res = max(exp_res, float(np.max(np.abs(udot - rhs)[e_mask])))
            b_mask = (active == 1) & ~crease & (r >= clo) & (r <= chi)
            if b_mask.any():
                bvals = self.barrier.evaluate(np.clip(r, *self.barrier.domain))
                Hb = mean_curvature(GridFunction(spec, bvals)).values
                bar_min_H = min(bar_min_H, float(np.min(Hb[b_mask])))
        return {"expander_residual": exp_res,
                "barrier_min_H": None if math.isinf(bar_min_H) else bar_min_H,
                "subsolution_ok": math.isinf(bar_min_H) or bar_min_H > -1e-10}


# ---------------------------------------------------------------------------
# log-heat-kernel identity and the half-space experiment


@dataclass(frozen=True)
class HeatSupersolution:
    """Majorant a * Phi + epsilon built from the ambient Gaussian kernel."""

    n: int
    a: float
    epsilon: float

    def phi(self, r, z, t: float) -> np.ndarray:
        if t <= 0:
            raise DomainError("kernel needs t > 0")
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        return (4.0 * np.pi * t) ** (-self.n / 2.0) * np.exp(-(r * r + z * z)
                                                             / (4.0 * t))

    def majorant(self, u: GridFunction, t: float) -> np.ndarray:
        return self.a * self.phi(u.spec.nodes, u.values, t) + self.epsilon


@dataclass
class PsiIdentityReport:
    sup_residual: float
    per_time: np.ndarray
    times: np.ndarray
    spacing: float


_PSI_BLOCK = 8  # interior snapshots per stack; 64 cost 5.5 MB more peak RSS, no time


def psi_identity_residual(run: FlowRun, outer_margin: int = 3) -> PsiIdentityReport:
    """Defect of the parabolic identity for psi = -(n/2) log t - |X|^2/(4t).

    Along the flow, d/dt psi - (surface Laplacian) psi - |grad psi|^2 equals
    <X, nu>^2 / (4 t^2) pointwise.  The time derivative at fixed surface
    point (normal parametrization) differs from the fixed-x derivative by the
    tangential drift of the graph parametrization,

        d/dt|_normal = d/dt|_x - (u_t u_r / W^2) * d/dr[psi on the graph],

    which is applied before comparing.  Outer nodes feel the one-sided FD
    stencil and boundary pinning, so the last ``outer_margin`` of them are
    excluded (0 keeps every node).  Blocks of snapshots are evaluated as
    one (node, snapshot) stack, each time's log a scalar: every time gets
    the bits it gets alone.
    """
    times = run.times
    if times.size < 3:
        raise ParameterError("need at least three snapshots")
    if times[0] <= 0:
        raise DomainError("identity checks need snapshots at t > 0")
    spec = run.snapshots[0].spec
    if spec.polar:
        raise ParameterError("implemented for radial runs")
    if not 0 <= outer_margin < spec.nr:
        raise ParameterError(f"outer_margin must lie in [0, {spec.nr}), got {outer_margin}")
    span = times[2:] - times[:-2]
    if np.any(np.abs((times[2:] - times[1:-1]) - (times[1:-1] - times[:-2])) > 1e-9 * span):
        raise ParameterError("uniform snapshot cadence required")
    n = spec.n
    r = spec.nodes[:, None]
    r2, r_safe = r * r, np.where(r > 0, r, 1.0)
    log_terms = np.array([-(n / 2.0) * np.log(t) for t in times])
    per_time = np.empty(times.size - 2)
    for j0 in range(0, times.size - 2, _PSI_BLOCK):
        blk = slice(j0, min(j0 + _PSI_BLOCK, times.size - 2) + 2)
        U = np.stack([s.values for s in run.snapshots[blk]], axis=1)
        psi = log_terms[blk] - (r2 + U * U) / (4.0 * times[blk])
        t0, dt2 = times[blk][1:-1], span[j0:blk.stop - 2]
        u0, f0 = U[:, 1:-1], psi[:, 1:-1]
        dpsi_graph = (psi[:, 2:] - psi[:, :-2]) / dt2
        udot = (U[:, 2:] - U[:, :-2]) / dt2
        p, q = _radial_derivatives(spec, u0)
        W2 = 1.0 + p * p
        fr, frr = _radial_derivatives(spec, f0)
        fr_over_r = np.where(r > 0, fr / r_safe, frr)
        lap = (frr - (p * q / W2) * fr) / W2 + (n - 1) * fr_over_r / W2
        grad2 = fr * fr / W2
        dpsi_normal = dpsi_graph - udot * p * fr / W2
        Xnu = (r * p - u0) / np.sqrt(W2)
        resid = np.abs(dpsi_normal - lap - grad2 - Xnu ** 2 / (4.0 * t0 * t0))
        per_time[j0:blk.stop - 2] = resid[:spec.nr - outer_margin].max(axis=0)
    return PsiIdentityReport(float(np.max(per_time)), per_time,
                             times[1:-1], spec.max_spacing())


@dataclass
class HalfSpaceReport:
    supersolution: HeatSupersolution
    times: np.ndarray
    sup_trace: np.ndarray
    margins: np.ndarray
    margin_times: np.ndarray
    ordering_ok: bool
    first_below: float | None
    threshold: float
    passed: bool
    run: FlowRun


def half_space_experiment(horizon: float = 50.0,
                          threshold: float = 0.05) -> HalfSpaceReport:
    """Flow a compact bump over the flat cone k = 0 on R^2 and majorize it.

    The unit bump of radius 5 sits on r in [0, 75] with its far edge pinned.
    The coefficient a is fixed at the snapshot nearest t0 = 0.1 by
    a = sup (u - epsilon)_+ / Phi(X, t0) with epsilon = 0.025; afterwards
    a*Phi + epsilon must stay above u at every snapshot, while sup u drains
    below the threshold.
    """
    n, t0, epsilon = 2, 0.1, 0.025
    spec = GridSpec.uniform(n, 0.0, 75.0, 1501)
    config = SolverConfig(dt_init=1e-3, dt_max=0.1, snapshot_dt=0.1,
                          boundary="pin-to-initial")
    r = spec.nodes
    u0 = GridFunction(spec, bump(r, 1.0, 5.0))
    run = evolve(u0, horizon, config, cone=ConeProfile.radial(n, 0.0))
    times = run.times
    i0 = int(np.argmin(np.abs(times - t0)))
    t_fix = float(times[i0])
    u_fix = run.snapshots[i0].values
    phi_fix = HeatSupersolution(n, 1.0, epsilon).phi(r, u_fix, t_fix)
    over = u_fix > epsilon
    a = float(np.max((u_fix[over] - epsilon) / phi_fix[over])) if over.any() else 0.0
    hs = HeatSupersolution(n, a, epsilon)

    margins = []
    for j in range(i0, times.size):
        t = float(times[j])
        uj = run.snapshots[j].values
        margins.append(float(np.min(hs.majorant(run.snapshots[j], t) - uj)))
    margins = np.asarray(margins)
    sup_trace = np.asarray([float(np.max(s.values)) for s in run.snapshots])
    below = np.nonzero(sup_trace <= threshold)[0]
    first_below = float(times[below[0]]) if below.size else None
    ordering_ok = bool(np.all(margins >= -1e-9))
    passed = ordering_ok and first_below is not None
    return HalfSpaceReport(hs, times, sup_trace, margins, times[i0:],
                           ordering_ok, first_below, threshold, passed, run)

