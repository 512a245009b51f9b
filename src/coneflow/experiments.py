"""Scenario-level experiments combining the flow, expanders and barriers.

Each experiment measures one claim about graphs flowing out of a mean convex
cone: two-sided perturbations get sandwiched between time-shifted copies of
the expanding soliton, families under a common envelope converge uniformly,
and glued subsolutions stay below the flow while it recovers the cone level.

Each runner returns one ``analysis.ScenarioReport``: its verdict, the values
that the CLI's JSON artifact carries and the trace CSV's columns and rows,
which the CLI writes as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ScenarioReport, bump
from .barriers import Subsolution, lemma_barrier_flow
from .cones import ConeProfile
from .errors import ParameterError
from .expander import ExpanderProfile, evaluate_U, solve_expander_profile
from .flow import (FlowRun, SolverConfig, _allowance, comparison_check,
                   detect_t_delta, evolve)
from .geometry import GridFunction, GridSpec

__all__ = [
    "run_main_theorem",
    "run_family_uniform",
    "subsolution_dominance_experiment",
    "Scenario",
    "SCENARIOS",
]

# the family's deviation must drop under _FAMILY_THRESHOLD within the
# horizon, and the flow must dominate the subsolution within _DOMINANCE_SLACK
_FAMILY_THRESHOLD, _DOMINANCE_SLACK = 0.05, 1e-6


def _expander_gap(run: FlowRun, profile: ExpanderProfile) -> np.ndarray:
    """sup|u - U(., t)| at every snapshot of ``run``."""
    return np.array([float(np.max(np.abs(
        v - evaluate_U(profile, run.spec.nodes, max(t, 1e-12)))))
        for t, v in zip(run.times, run.values)])


def _mean_convex_cone(n: int, beta: float) -> ConeProfile:
    """The radial cone (n, beta), refused unless strictly mean convex."""
    k = ConeProfile.radial(n, beta)
    if k.scaled_mean_curvature() <= 0:
        raise ParameterError(f"the cone (n={n}, beta={beta}) must be strictly "
                             "mean convex")
    return k


def _bisect_upper_shift(profile: ExpanderProfile, u0: GridFunction) -> float:
    """Smallest T in (1e-6, 64] with U(., T) >= u0 on the grid, by 60
    bisection steps in T."""
    r = u0.spec.nodes

    def clearance(T):
        return float(np.min(evaluate_U(profile, r, T) - u0.values))

    lo, hi = 1e-6, 64.0
    if clearance(hi) < 0:
        raise ParameterError("expander does not cover the data by T=64.0; "
                             "the perturbation is too large")
    if clearance(lo) >= 0:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if clearance(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def run_main_theorem(n: int = 2, beta: float = 1.0, amplitude: float = 1.0,
                     radius: float = 5.0, delta: float = 0.2,
                     r_max: float = 75.0, nodes: int = 1501,
                     horizon: float = 50.0, snapshot_dt: float = 0.5,
                     dt_max: float = 0.025, threshold: float = 0.05) -> ScenarioReport:
    """Two-sided bump perturbations settle onto the expanding soliton.

    For each sign the run is sandwiched between soliton rails sampled at its
    snapshot times: above by U(., t + T_up) + eps with T_up found by
    bisection, below by U(., sigma + t - t_delta) - eps once the solution
    has recovered to k - delta (eps = 2*delta, sigma = (delta/(2a))^2 so the
    lower rail starts half a delta clear).  The sup|u - U| trace must drop
    under the threshold within the horizon.  The summary keys each side's
    times and checks by ``"1"`` and ``"-1"``, and the trace holds both
    sides' sup|u - U| at the snapshots.
    """
    if not 0 < threshold < math.inf:
        raise ParameterError("threshold must be positive and finite")
    if not 0 < delta < math.inf:
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    k = _mean_convex_cone(n, beta)
    profile = solve_expander_profile(k)
    spec = GridSpec.uniform(n, 0.0, r_max, nodes)
    cfg = SolverConfig(dt_init=1e-3, dt_max=dt_max, snapshot_dt=snapshot_dt,
                       boundary="pin-to-expander")
    eps = 2.0 * delta
    sigma = (delta / (2.0 * profile.a)) ** 2
    dx = spec.max_spacing()
    sides, traces = {}, []
    for sign in (+1, -1):
        u0 = GridFunction(spec, k.beta * spec.nodes
                          + sign * bump(spec.nodes, amplitude, radius))
        run = evolve(u0, horizon, cfg, profile=profile)
        times = run.times
        trace = _expander_gap(run, profile)
        traces.append((times, trace))
        t_flat = run.first_time(trace <= threshold)

        t_up = _bisect_upper_shift(profile, u0)
        upper_rail = np.array([evaluate_U(profile, spec.nodes, float(t) + t_up) + eps
                               for t in times])
        upper = comparison_check(upper_rail, run.values, times, dx)

        t_delta = detect_t_delta(run, k, delta)
        lower = False
        if t_delta is not None:
            tail = slice(int(np.searchsorted(times, t_delta)), None)
            lower_rail = np.array([
                evaluate_U(profile, spec.nodes, sigma + (float(t) - t_delta)) - eps
                for t in times[tail]])
            lower = comparison_check(run.values[tail], lower_rail, times[tail], dx)
        sides[str(sign)] = {"t_flat": t_flat, "t_delta": t_delta,
                            "upper_ok": bool(upper), "lower_ok": bool(lower)}
    (times, above), (_, below) = traces
    passed = all(side["t_flat"] is not None and side["upper_ok"]
                 and side["lower_ok"] for side in sides.values())
    return ScenarioReport(
        passed, {"threshold": threshold, "sides": sides},
        ([("t", "time"), ("sup_above", "height"), ("sup_below", "height")],
         list(zip(times, above, below))))


def run_family_uniform(n: int = 2, beta: float = 1.0, count: int = 5,
                       envelope_amp: float = 0.5, seed: int = 0,
                       r_max: float = 40.0, nodes: int = 801,
                       horizon: float = 12.0, snapshot_dt: float = 0.5,
                       dt_max: float = 0.05) -> ScenarioReport:
    """A family under one decaying envelope converges uniformly.

    Members are k + envelope * sin(omega_i r + phase_i) with the envelope
    amp * exp(-r); the rail runs from k +- envelope must sandwich every member
    at every snapshot, and the family deviation max_i sup|u_i - U| must obey
    the rail bound (sum of rail deviations plus twice the scheme allowance)
    while dropping under 0.05 within the horizon.  The trace holds the
    family deviation and the rail sum at the snapshots.  A cone that is not
    strictly mean convex is a ParameterError, as in ``run_main_theorem``.
    """
    if count < 5:
        raise ParameterError("family experiments need at least 5 members")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    k = _mean_convex_cone(n, beta)
    profile = solve_expander_profile(k)
    spec = GridSpec.uniform(n, 0.0, r_max, nodes)
    r = spec.nodes
    envelope = envelope_amp * np.exp(-r)
    cfg = SolverConfig(dt_init=1e-3, dt_max=dt_max, snapshot_dt=snapshot_dt,
                       boundary="pin-to-expander")

    rng = np.random.default_rng(seed)
    members = []
    for _ in range(count):
        omega = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        members.append((omega, phase))

    def member_values(omega, phase):
        return k.beta * r + envelope * np.sin(omega * r + phase)

    run_hi = evolve(GridFunction(spec, k.beta * r + envelope), horizon, cfg,
                    profile=profile)
    run_lo = evolve(GridFunction(spec, k.beta * r - envelope), horizon, cfg,
                    profile=profile)
    times = run_hi.times

    rail = _expander_gap(run_hi, profile) + _expander_gap(run_lo, profile)
    family = np.zeros_like(rail)
    dx = spec.max_spacing()
    sandwich_ok = True
    for omega, phase in members:
        run_i = evolve(GridFunction(spec, member_values(omega, phase)), horizon,
                       cfg, profile=profile)
        sandwich_ok &= comparison_check(run_hi.values, run_i.values, times, dx)
        sandwich_ok &= comparison_check(run_i.values, run_lo.values, times, dx)
        family = np.maximum(family, _expander_gap(run_i, profile))

    bound_ok = bool(np.all(family <= rail + 2.0 * _allowance(times, dx)))
    t_uniform = run_hi.first_time(family <= _FAMILY_THRESHOLD)
    passed = sandwich_ok and bound_ok and t_uniform is not None
    return ScenarioReport(
        bool(passed), {"t_uniform": t_uniform, "sandwich_ok": sandwich_ok,
                       "bound_ok": bound_ok},
        ([("t", "time"), ("family_sup", "height"), ("rail_sup", "height")],
         list(zip(times, family, rail))))


def subsolution_dominance_experiment(n: int = 3, beta: float = 1.0,
                                     m: float = 0.2, delta: float = 0.1,
                                     R: float = 5.0, lam: float = 1.0,
                                     clearance: float = 0.05,
                                     r_max: float = 150.0, nodes: int = 1501,
                                     horizon: float = 2.0,
                                     snapshot_dt: float = 0.05) -> ScenarioReport:
    """The glued subsolution stays below the flow while it recovers the cone.

    u0 = k - (m - clearance) * bump(r/R) dips only inside the barrier's hole
    and stays a strict clearance above B(., 0) = max(k - m, b_lam - delta/2).
    The clearance matters: data touching the subsolution at a point would
    make the dominance check measure nothing but the solver's O(sqrt(dt))
    startup lag along the sqrt(t) rise of the soliton branch.  The flow must
    dominate B(., t) at every snapshot within 1e-6, and the recovery time to
    u >= k - delta must be finite.  There is no trace.
    """
    k = ConeProfile.radial(n, beta)
    profile = solve_expander_profile(k)
    if not (0 < clearance < m):
        raise ParameterError("need 0 < clearance < m")
    sub = Subsolution(profile, lemma_barrier_flow(k), lam, m, delta, R)
    spec = GridSpec.uniform(n, 0.0, r_max, nodes)
    r = spec.nodes
    u0 = GridFunction(spec, k.beta * r - bump(r, m - clearance, R))
    gap0 = u0.values - sub.evaluate(r, 0.0)
    if float(np.min(gap0)) < -1e-12:
        raise ParameterError("initial data fails to dominate the subsolution")
    cfg = SolverConfig(dt_init=1e-4, dt_max=snapshot_dt, snapshot_dt=snapshot_dt,
                       boundary="pin-to-expander")
    run = evolve(u0, horizon, cfg, profile=profile)
    margin = min(float(np.min(v - sub.evaluate(r, float(t))))
                 for t, v in zip(run.times, run.values))
    t_delta = detect_t_delta(run, k, delta)
    passed = margin >= -_DOMINANCE_SLACK and t_delta is not None
    return ScenarioReport(bool(passed), {"dominance_margin": float(margin),
                                         "t_delta": t_delta}, None)


# ---------------------------------------------------------------------------
# scenario registry for the CLI


@dataclass(frozen=True)
class Scenario:
    """Experiment configuration with a one-line claim tag, named by its
    ``SCENARIOS`` key.

    ``runner`` names the experiment function in this module.  It is looked up
    at call time, so a rebound module attribute (a profiler's wrapper, say)
    is what runs.  ``quick_overrides`` holds the (key, value) settings of quick
    mode; the settings passed to :meth:`run` win over them.
    """

    runner: str
    claim: str
    quick_overrides: tuple = ()

    def function(self):
        """The runner, read from this module's namespace at call time."""
        return globals()[self.runner]

    def run(self, quick: bool = False, **settings):
        kw = dict(self.quick_overrides) if quick else {}
        kw.update(settings)
        return self.function()(**kw)


SCENARIOS = {
    "main-theorem": Scenario(
        "run_main_theorem",
        "two-sided bump perturbations settle onto the expander",
        quick_overrides=(("horizon", 10.0), ("nodes", 601), ("r_max", 40.0),
                         ("dt_max", 0.05), ("threshold", 0.25))),
    "family-uniform": Scenario(
        "run_family_uniform",
        "a family under one envelope converges uniformly",
        quick_overrides=(("horizon", 8.0), ("nodes", 401))),
    "subsolution": Scenario(
        "subsolution_dominance_experiment",
        "the glued subsolution is dominated while the flow recovers the cone",
        quick_overrides=(("nodes", 751), ("horizon", 1.0))),
}
