"""Barrier constructions for curvature flow over mean convex cones.

Three families live here, plus the measurement tools that certify them:

* static power barriers w = k - r^(-alpha), whose curvature has a closed form
  (no finite differences; at r = 1e4 the power-law tail would drown in FD
  roundoff otherwise);
* the inverse-power normal-speed flow db/dt = -|F| * sqrt(1 + |Db|^2) with
  |F| = (r^2 + b^2)^(-(n-2)/4), run for unit time from r = 10 to r = 400
  once, as a Lagrangian particle flow of the profile curve on one label
  table (the labels never move): the lemma barrier certifies its final
  level as the graph (r, b) (its H is geometry's radial formula on the
  per-call stencil ``_d1_d2``), and the residual checks of the evolution
  equations of g, h, H, |A|^2 and nu read its stored levels;
* max-type subsolutions B = max(U - m, b_scaled - delta/2) glued from an
  expanding soliton and the flow barrier over its cone, scaled.

The log-heat-kernel machinery (psi = -(n/2) log t - |X|^2/(4t) and its
parabolic defect identity) and the half-space decay experiment sit at the
bottom since they share the same surface-derivative helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .analysis import ScenarioReport, bump, decay_fit
from .cones import ConeProfile
from .errors import CertificationError, DomainError, ParameterError
from .expander import ExpanderProfile, evaluate_U, expander_time_derivative
from .flow import FlowRun, SolverConfig, evolve
from .geometry import (
    GridFunction,
    GridSpec,
    _apply_d1,
    _apply_stencil,
    _d1_d2,
    _radial_curvatures,
    _radial_derivatives,
    _stencil,
    _whole,
    mean_curvature,
    radial_rhs,
)

__all__ = [
    "static_barrier_w",
    "lemma_barrier_flow",
    "evolution_equation_residuals",
    "Subsolution",
    "PsiIdentityReport",
    "psi_identity_residual",
    "half_space_experiment",
]


# ---------------------------------------------------------------------------
# static power barriers


def _power_barrier_parts(beta: float, alpha: float, r: np.ndarray):
    w = beta * r - r ** (-alpha)
    wr = beta + alpha * r ** (-alpha - 1.0)
    wrr = -alpha * (alpha + 1.0) * r ** (-alpha - 2.0)
    return w, wr, wrr


def _sample_count(points, name: str, least: int) -> int:
    """A construction's count ``points``, refused unless a whole number of
    at least ``least``."""
    points = _whole(points, name, ParameterError)
    if points < least:
        raise ParameterError(f"need at least {least} sample points, got {points}")
    return points


def static_barrier_w(k: ConeProfile, alpha: float, points: int = 400,
                     fit_points: int = 160) -> ScenarioReport:
    """Static lower barrier k - r^(-alpha) on a log grid over [1, 1e4], and
    the decay of its graph-speed difference from the cone over [1e3, 1e4].

    ``passed`` is whether a radius r0 certifies: the smallest sampled radius
    past which H[w] > 0 holds through 1e4, or r0 = None when the curvature
    stays nonpositive at the far end.  r0 is only as fine as the samples: at
    (n, beta, alpha) = (2, 0.1, 2), 3 points read r0 = 1.0 where 400 read
    3.40.  At least 2 points are needed, so that both ends of [1, 1e4] are
    sampled.  The cone must be strictly mean convex.  With alpha > n-2 a cone
    too shallow for the dip keeps H[w] < 0 out to 1e4: (n, beta, alpha) =
    (3, 1e-13, 2) reads r0 = None, while beta = 1e-11 certifies from 4668.

    The graphical flow speed is W*H = u_rr/(1+u_r^2) + (n-1)u_r/r; for
    w = k - r^(-alpha), with s = w_r - beta = alpha * r^(-alpha-1), the
    difference from the cone's speed is exactly

        alpha * r^(-alpha-2) * [c + (n-1) s (2 beta + s)] / (1+w_r^2),
        c = (n-1)(1+beta^2) - (alpha+1),

    and is evaluated in this form, so no cancellation of the two speeds
    drowns it when c = 0.  Its log-log fit on ``fit_points`` radii,
    ``gap_exponent``, should sit near ``predicted_exponent`` = -(alpha+2),
    or -(2 alpha + 3) when c is exactly 0 (alpha = 3 at (n, beta) = (3, 1)
    reads -9.000, where the difference of the two speeds read -0.907).  The
    fit takes at least 3 points, as ``decay_fit`` does; an alpha steep
    enough for the difference to underflow to 0 there (from 79 at (n, beta)
    = (3, 1)) is refused.  The summary holds r0 and both exponents; the
    trace holds one row of r, w and H[w] per sample.
    """
    if k.kind != "radial":
        raise ParameterError("static power barriers are built over radial cones")
    if not 0 < alpha < math.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    r = np.geomspace(1.0, 1e4, _sample_count(points, "points", 2))
    r_fit = np.geomspace(1e3, 1e4, _sample_count(fit_points, "fit_points", 3))
    k.require_mean_convex()
    w, wr, wrr = _power_barrier_parts(k.beta, alpha, r)
    H = _radial_curvatures(k.n, r, wr, wrr)
    pos = H > 0
    if not pos[-1]:
        r0 = None
    else:
        bad = np.nonzero(~pos)[0]
        r0 = float(r[bad[-1] + 1]) if bad.size else float(r[0])
    c = (k.n - 1) * (1.0 + k.beta ** 2) - (alpha + 1.0)
    slope = alpha * r_fit ** (-alpha - 1.0)
    diff = (alpha * r_fit ** (-alpha - 2.0) * (c + (k.n - 1) * slope * (2.0 * k.beta + slope))
            / (1.0 + (k.beta + slope) ** 2))
    if not np.all(diff):
        raise ParameterError(f"alpha = {alpha} is too steep: the w - k speed difference "
                             f"underflows to 0 on [1e3, 1e4]")
    return ScenarioReport(
        r0 is not None,
        {"r0": r0, "gap_exponent": decay_fit(r_fit, np.abs(diff)),
         "predicted_exponent": -(2.0 * alpha + 3.0) if c == 0 else -(alpha + 2.0)},
        ([("r", "length"), ("w", "height"), ("H", "1/length")], list(zip(r, w, H))))


# ---------------------------------------------------------------------------
# the inverse-power speed flow as a particle flow of the profile curve


# the flow runs over [_R_INNER, _R_OUTER] for time _HORIZON; the lemma
# barrier takes _LEMMA_STEPS RK4 steps (its time error is below 1e-12 from
# 4 on), and its certificates and the residual checks leave out the
# _END_CUT labels at either end, which feel the one-sided stencil
_R_INNER, _R_OUTER, _HORIZON = 10.0, 400.0, 1.0
_LEMMA_STEPS, _END_CUT = 8, 3


def _lagrangian_velocity(table, R, Z, alpha):
    """The particle velocity at (R, Z), its tangent read through the label
    table ``table`` of :func:`_stencil` (first derivative only)."""
    rows, w, _ = table
    Rs, Zs = _apply_d1(w, np.stack((R, Z))[:, rows])
    q = np.sqrt(Rs * Rs + Zs * Zs)
    Fmag = (R * R + Z * Z) ** (-alpha)
    # velocity -F nu = |F| nu with nu = (Z_s, -R_s)/q the downward normal
    return Fmag * Zs / q, -Fmag * Rs / q


def _integrate_lagrangian(k: ConeProfile, s: np.ndarray, table: tuple,
                          steps: int, alpha: float) -> tuple:
    """Particle trajectories (R, Z)(s, t) of the profile curve at the
    ``steps + 1`` levels t = j * _HORIZON / steps, by classical RK4.  The
    labels ``s`` never move, so every stage reads their one table
    ``table`` = ``_stencil(s)``."""
    nt = steps
    dt = _HORIZON / nt
    R = np.empty((nt + 1, s.size))
    Z = np.empty((nt + 1, s.size))
    R[0] = s
    Z[0] = k.beta * s
    for j in range(nt):
        r0, z0 = R[j], Z[j]
        k1 = _lagrangian_velocity(table, r0, z0, alpha)
        k2 = _lagrangian_velocity(table, r0 + 0.5 * dt * k1[0], z0 + 0.5 * dt * k1[1],
                                  alpha)
        k3 = _lagrangian_velocity(table, r0 + 0.5 * dt * k2[0], z0 + 0.5 * dt * k2[1],
                                  alpha)
        k4 = _lagrangian_velocity(table, r0 + dt * k3[0], z0 + dt * k3[1], alpha)
        R[j + 1] = r0 + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        Z[j + 1] = z0 + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
    return R, Z


def _flow_exponent(k: ConeProfile) -> float:
    """alpha = (n-2)/4 of the speed |F| = (r^2 + b^2)^(-alpha) over ``k``,
    after the cone checks of the lemma barrier and the residual checks."""
    if k.kind != "radial":
        raise ParameterError("the flow barrier is built over radial cones")
    if k.n < 3:
        raise ParameterError("the inverse-power speed needs n >= 3")
    k.require_mean_convex()
    return (k.n - 2) / 4.0


def lemma_barrier_flow(k: ConeProfile, points: int = 600) -> ScenarioReport:
    """Flow the cone for unit time as particles on ``points`` geometric
    labels over r in [10, 400], and certify the final level as a graph.

    The particles take _LEMMA_STEPS RK4 steps and carry their own domain,
    so no inflow collar is cut; radii that do not strictly increase are no
    graph (a CertificationError).  Every certificate (b < k, H[b] > 0,
    deficit decay and monotonicity) leaves out the three labels at either
    end, so the certified window is [R1, r[-4]] with R1 = r[3]; the decay
    is fitted on [1.3 R1, r[-4] / 1.05], which spans the decade
    ``decay_fit`` needs from 26 labels on.  A cone whose deficit k - b
    rounds to 0 there, as at (n, beta) = (20, 1), is a ParameterError.
    The summary holds ``min_gap``, ``H_min``, ``deficit_exponent``, the
    deficit ``m1`` at R1 and ``R1``; the trace one row of r, b and k - b
    per label.
    """
    alpha = _flow_exponent(k)
    points = _sample_count(points, "points", 26)
    s = np.geomspace(_R_INNER, _R_OUTER, points)
    R, Z = _integrate_lagrangian(k, s, _stencil(s), _LEMMA_STEPS, alpha)
    r, b = R[-1], Z[-1]
    if not np.all(np.diff(r) > 0):
        raise CertificationError("the flowed radii do not strictly increase",
                                 witness={"r": r})
    cut = slice(_END_CUT, points - _END_CUT)
    gap = k.beta * r - b
    H = _radial_curvatures(k.n, r, *_d1_d2(r, b))
    lo, hi = float(r[cut][0]), float(r[cut][-1])
    min_gap, H_min = float(np.min(gap[cut])), float(np.min(H[cut]))
    mono = bool(np.all(np.diff(gap[cut]) <= 1e-12 * np.max(gap)))
    sel = (r >= lo * 1.3) & (r <= hi / 1.05)
    if np.any(gap[sel] <= 0):
        raise ParameterError(f"the flow barrier cannot resolve the cone (n, beta) = "
                             f"({k.n}, {k.beta}): k - b rounds to <= 0 on "
                             f"{np.count_nonzero(gap <= 0)} of {points} labels")
    exponent = decay_fit(r[sel], gap[sel])
    want = -(k.n - 2) / 2.0
    passed = min_gap > 0 and H_min > 0 and mono and abs(exponent - want) <= 0.2 * abs(want)
    return ScenarioReport(bool(passed), {"min_gap": min_gap, "H_min": H_min,
                                         "deficit_exponent": exponent,
                                         "m1": float(gap[cut][0]), "R1": lo},
                          ([("r", "length"), ("b", "height"), ("k_minus_b", "height")],
                           np.column_stack((r, b, gap))))


# ---------------------------------------------------------------------------
# evolution-equation residuals along the Lagrangian path


def _profile_geometry(table, R, Z, n, alpha):
    """Geometric record of one stored profile-curve level, or of a stack of
    levels (labels on the last axis), its derivatives read through the label
    table ``table`` of :func:`_stencil`.

    The surface of revolution has one profile direction and n-1 rotational
    directions; the rotational block is isotropic, so a single representative
    component (g_th = R^2, h_th = R Z_s / q) with multiplicity n-1 carries it.
    Derivatives of the speed F = -(R^2+Z^2)^(-alpha) are exact chain
    rules in the stored coordinates, not finite differences.
    """
    rows, w, D = table
    (Rs, Zs), (Rss, Zss) = _apply_stencil(w, D, np.stack((R, Z))[..., rows])
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


# each of the five evolution equations and the quantities whose residuals
# it pools
_GROUPS = {"metric": ("g_ss", "g_th"), "second_form": ("h_ss", "h_th"),
           "mean_curvature": ("H",), "a_squared": ("A2",),
           "normal": ("nu_r", "nu_z")}


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
    left out, so at least 7 labels are needed.
    """
    alpha = _flow_exponent(k)
    points = _whole(points, "points", ParameterError)
    steps = _whole(steps, "steps", ParameterError)
    t_stride = _whole(t_stride, "t_stride", ParameterError)
    if points < 2 * _END_CUT + 1:
        raise ParameterError(f"need at least seven labels (three end nodes "
                             f"are cut from each side), got {points}")
    if steps < 2:
        raise ParameterError("need at least three stored levels")
    if t_stride < 1:
        raise ParameterError(f"t_stride must be at least 1, got {t_stride}")
    s = np.geomspace(_R_INNER, _R_OUTER, points)
    table = _stencil(s)
    R, Z = _integrate_lagrangian(k, s, table, steps, alpha)
    n, dt = k.n, _HORIZON / steps
    sl = slice(_END_CUT, points - _END_CUT)

    levels = np.arange(1, steps, t_stride)
    gm, g0, gp = (_profile_geometry(table, R[j], Z[j], n, alpha)
                  for j in (levels - 1, levels, levels + 1))
    lhs = {key: (gp[key] - gm[key]) / (2.0 * dt) for members in _GROUPS.values()
           for key in members}
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
    out = {}
    for gname, members in _GROUPS.items():
        pairs = [(lhs[kq][:, sl], rhs[kq][:, sl]) for kq in members]
        err = max(float(np.max(np.abs(a - b))) for a, b in pairs)
        scale = max(float(np.max(np.abs(side))) for pair in pairs for side in pair)
        out[gname] = err / scale if scale > 0 else 0.0
    ratio = np.abs(lhs["A2"][:, sl]) * g0["X2"][:, sl] ** 1.5 / np.abs(g0["F"][:, sl])
    out["a_evolution_ratio"] = float(np.max(ratio))
    out["max"] = max(out[key] for key in _GROUPS)
    return out


# ---------------------------------------------------------------------------
# scaling and the max-type subsolution


@dataclass(eq=False)
class Subsolution:
    """B(x, t) = max(U(x, t) - m, b_lam(x) - delta/2).

    The lemma barrier ``barrier`` is flowed over the expander's own cone
    ``ConeProfile.radial(profile.n, profile.beta)``, and must certify (a
    CertificationError otherwise).  b_lam(x) = lam * b(x / lam) is its
    parabolic rescaling, exact on the scaled radii lam * r and read between
    them through the cubic spline ``spline``; its certified window [R1,
    r[-4]] scales with it.  The expander branch solves the flow exactly; the
    barrier branch is static with H >= 0 on its certified region, so each
    branch is a subsolution and the max inherits it.  Construction enforces
    the gluing inequalities lam * m1 > m and lam * R1 > R (deficit and hole
    scales of the barrier strictly dominate those of the perturbation).
    """

    profile: ExpanderProfile
    lam: float
    m: float
    delta: float
    R: float
    barrier: ScenarioReport = field(init=False, repr=False)
    spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        lam = self.lam
        barrier = lemma_barrier_flow(ConeProfile.radial(self.profile.n, self.profile.beta))
        if not barrier.passed:
            raise CertificationError("cannot scale an uncertified barrier",
                                     witness={"passed": barrier.passed})
        r, b, _ = barrier.trace[1].T
        if not (0 < lam * float(r[-1]) < math.inf and np.all(np.diff(lam * r) > 0)):
            raise ParameterError(f"lam must be positive and finite, with lam * r distinct "
                                 f"and finite; got {lam}")
        if not all(0 < v < math.inf for v in (self.m, self.delta, self.R)):
            raise ParameterError("m, delta, R must be positive and finite")
        m1, R1 = barrier.summary["m1"], barrier.summary["R1"]
        if lam * m1 <= self.m:
            raise ParameterError(f"need lam*m1 > m (got {lam * m1:.4g} <= {self.m:.4g})")
        if lam * R1 <= self.R:
            raise ParameterError(f"need lam*R1 > R (got {lam * R1:.4g} <= {self.R:.4g})")
        self.barrier = barrier
        self.spline = CubicSpline(lam * r, lam * b)

    @property
    def domain(self) -> tuple:
        """The scaled barrier's radii (lam * r[0], lam * r[-1])."""
        return (float(self.spline.x[0]), float(self.spline.x[-1]))

    def _branches(self, r, t: float):
        """(U - m, b_lam - delta/2) at r; the barrier branch is -inf off its
        domain."""
        if t < 0:
            raise DomainError("subsolution defined for t >= 0")
        r = np.asarray(r, dtype=float)
        # U extends continuously to t = 0 as the cone itself
        if t == 0:
            ub = self.profile.beta * r - self.m
        else:
            ub = evaluate_U(self.profile, r, t) - self.m
        bb = np.full(r.shape, -np.inf)
        lo, hi = self.domain
        inside = (r >= lo) & (r <= hi)
        if inside.any():
            bb[inside] = self.spline(r[inside]) - self.delta / 2
        return ub, bb

    def evaluate(self, r, t: float) -> np.ndarray:
        return np.maximum(*self._branches(r, t))

    def residual_report(self, spec: GridSpec, times) -> ScenarioReport:
        """Branch-wise flow residuals more than two nodes from the gluing
        crease.

        Expander branch: ``expander_residual``, the sup of |d/dt U - W H[U - m]|
        on active nodes (pure discretization error of the sampled soliton).
        Barrier branch: the static branch is a subsolution iff H >= 0, so
        ``barrier_min_H`` is the minimum sampled curvature on active certified
        nodes (None if none is), and ``passed`` whether it is above -1e-10.
        """
        r = spec.nodes
        exp_res, bar_min_H = 0.0, np.inf
        clo = self.lam * self.barrier.summary["R1"]
        chi = self.lam * self.barrier.trace[1][-1 - _END_CUT, 0]
        for t in times:
            ub, bb = self._branches(r, t)
            active = (bb > ub).astype(int)  # 1 where the barrier branch wins
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
                bvals = self.spline(np.clip(r, *self.domain))
                Hb = mean_curvature(GridFunction(spec, bvals)).values
                bar_min_H = min(bar_min_H, float(np.min(Hb[b_mask])))
        return ScenarioReport(math.isinf(bar_min_H) or bar_min_H > -1e-10,
                              {"expander_residual": exp_res,
                               "barrier_min_H": None if math.isinf(bar_min_H) else bar_min_H},
                              None)


# ---------------------------------------------------------------------------
# log-heat-kernel identity and the half-space experiment


def _heat_kernel(n: int, r, z, t: float) -> np.ndarray:
    """The ambient Gaussian kernel (4 pi t)^(-n/2) exp(-(r^2 + z^2)/(4t))."""
    if t <= 0:
        raise DomainError("kernel needs t > 0")
    return (4.0 * np.pi * t) ** (-n / 2.0) * np.exp(-(r * r + z * z) / (4.0 * t))


@dataclass
class PsiIdentityReport:
    """The sup of the identity's defect over the interior snapshots."""

    sup_residual: float


# interior snapshots per stack (64 cost 5.5 MB more peak RSS, no time), and
# the outer nodes left out, which feel the one-sided stencil and the pinning
_PSI_BLOCK, _PSI_OUTER_MARGIN = 8, 3


def psi_identity_residual(run: FlowRun) -> PsiIdentityReport:
    """Defect of the parabolic identity for psi = -(n/2) log t - |X|^2/(4t).

    Along the flow, d/dt psi - (surface Laplacian) psi - |grad psi|^2 equals
    <X, nu>^2 / (4 t^2) pointwise.  The time derivative at fixed surface
    point (normal parametrization) differs from the fixed-x derivative by the
    tangential drift of the graph parametrization,

        d/dt|_normal = d/dt|_x - (u_t u_r / W^2) * d/dr[psi on the graph],

    which is applied before comparing, with the last three nodes left out.
    Blocks of snapshots are evaluated as one (node, snapshot) stack, each
    time's log a scalar: every time gets the bits it gets alone.
    """
    times = run.times
    if times.size < 3:
        raise ParameterError("need at least three snapshots")
    if times[0] <= 0:
        raise DomainError("identity checks need snapshots at t > 0")
    spec = run.spec
    if spec.polar:
        raise ParameterError("implemented for radial runs")
    span = times[2:] - times[:-2]
    if np.any(np.abs((times[2:] - times[1:-1]) - (times[1:-1] - times[:-2])) > 1e-9 * span):
        raise ParameterError("uniform snapshot cadence required")
    n = spec.n
    r = spec.nodes[:, None]
    r2, r_safe = r * r, np.where(r > 0, r, 1.0)
    log_terms = np.array([-(n / 2.0) * np.log(t) for t in times])
    sup = 0.0
    for j0 in range(0, times.size - 2, _PSI_BLOCK):
        blk = slice(j0, min(j0 + _PSI_BLOCK, times.size - 2) + 2)
        U = run.values[blk].T
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
        sup = np.maximum(sup, resid[:spec.nr - _PSI_OUTER_MARGIN].max())
    return PsiIdentityReport(float(sup))


def half_space_experiment(horizon: float = 50.0,
                          threshold: float = 0.05) -> ScenarioReport:
    """Flow a compact bump over the flat cone k = 0 on R^2 and majorize it.

    The unit bump of radius 5 sits on r in [0, 75] with its far edge pinned.
    The coefficient a is fixed at the snapshot nearest t0 = 0.1 by
    a = sup (u - epsilon)_+ / Phi(X, t0) with epsilon = 0.025; afterwards
    a*Phi + epsilon must stay above u at every snapshot, while sup u drains
    below the threshold.  The report's summary holds whether the majorant
    stays above u from the snapshot nearest t0 on, ``ordering_ok``, and the
    first snapshot time at which sup u is at most the threshold,
    ``first_below``.
    """
    n, t0, epsilon = 2, 0.1, 0.025
    spec = GridSpec.uniform(n, 0.0, 75.0, 1501)
    config = SolverConfig(dt_init=1e-3, dt_max=0.1, snapshot_dt=0.1,
                          boundary="pin-to-initial")
    r = spec.nodes
    u0 = GridFunction(spec, bump(r, 1.0, 5.0))
    run = evolve(u0, horizon, config)
    times = run.times
    i0 = int(np.argmin(np.abs(times - t0)))
    t_fix = float(times[i0])
    u_fix = run.values[i0]
    phi_fix = _heat_kernel(n, r, u_fix, t_fix)
    over = u_fix > epsilon
    a = float(np.max((u_fix[over] - epsilon) / phi_fix[over])) if over.any() else 0.0

    margins = np.asarray([float(np.min(a * _heat_kernel(n, r, u, float(t)) + epsilon - u))
                          for t, u in zip(times[i0:], run.values[i0:])])
    sup_trace = run.values.max(axis=1)
    first_below = run.first_time(sup_trace <= threshold)
    ordering_ok = bool(np.all(margins >= -1e-9))
    return ScenarioReport(ordering_ok and first_below is not None,
                          {"ordering_ok": ordering_ok, "first_below": first_below}, None)

