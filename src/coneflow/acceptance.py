"""Acceptance harness: one verdict per shipped claim.

Every numerical claim the package makes is pinned here as a criterion
function that returns PASS or FAIL with a measured number.  run_acceptance
executes them in order and prints one line each; the suite passes only if
all criteria do.  Tolerances are calibration results confirmed by the
refinement studies in the test suite, not aspirations.

Criterion functions take a ``quick`` flag.  Quick mode shrinks grids and
horizons for smoke runs (CLI ``coneflow --quick suite``); the recorded
verdict of the package is always the full mode, which is what the tests
execute.  Criteria 5, 11 and 14 run the experiment scenarios and take their
quick settings from ``experiments.SCENARIOS``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import (C1Function, clearing_out_scaling, decay_fit,
                       graph_area_bound_check)
from .barriers import (evolution_equation_residuals, half_space_experiment,
                       lemma_barrier_flow, psi_identity_residual,
                       static_barrier_w, wk_difference_fit)
from .cones import ConeProfile
from .errors import ParameterError
from .expander import evaluate_U, solve_expander_profile
from .experiments import SCENARIOS
from .flow import FlowRun, SolverConfig, evolve
from .geometry import GridFunction, GridSpec


# ---------------------------------------------------------------------------
# criteria


def expander_self_similarity(quick: bool = False):
    """Evolving U(.,1) for one unit of time reproduces sqrt(2) phi(r/sqrt2)."""
    prof = solve_expander_profile(ConeProfile.radial(2, 1.0))
    spec = GridSpec.uniform(2, 0.0, 200.0, 2001)
    cfg = SolverConfig(dt_init=1e-3, dt_max=4e-3 if quick else 2e-3,
                       snapshot_dt=0.25, boundary="pin-to-expander")
    started = time.perf_counter()
    run = evolve(prof.on_grid(spec, 1.0), 1.0, cfg, cone=prof.cone(),
                 profile=prof, t_start=1.0)
    elapsed = time.perf_counter() - started
    err = float(np.max(np.abs(run.final().values
                              - evaluate_U(prof, spec.nodes, 2.0))))
    ok = err <= 1e-3 and elapsed <= 60.0
    return ok, f"sup err {err:.2e} (tol 1e-03), solve {elapsed:.1f}s (cap 60s)"


_COMBOS = tuple((n, b) for n in (2, 3) for b in (0.5, 1.0, 2.0))


def cone_dominance(quick: bool = False):
    """U stays above the cone on grids and snapshots, and above 0 at r=0."""
    nodes = 501 if quick else 2001
    times = np.concatenate([[0.01], np.linspace(0.05, 2.0,
                                                8 if quick else 40)])
    r = np.linspace(0.0, 100.0, nodes)
    worst = math.inf
    origin_ok = True
    for n, beta in _COMBOS:
        prof = solve_expander_profile(ConeProfile.radial(n, beta))
        for t in times:
            u = evaluate_U(prof, r, float(t))
            worst = min(worst, float(np.min(u - beta * r)))
            origin_ok = origin_ok and u[0] > 0.0
    ok = worst >= -1e-8 and origin_ok
    return ok, (f"min(U - k) {worst:.2e} (floor -1e-08) over "
                f"{len(_COMBOS)} cones, U(0,t) > 0: {origin_ok}")


def profile_monotonicity(quick: bool = False):
    """The self-similar time derivative (phi - rho phi')/2 never dips below 0."""
    worst = math.inf
    origin_min = math.inf
    for n, beta in _COMBOS:
        prof = solve_expander_profile(ConeProfile.radial(n, beta))
        drift = 0.5 * (prof.phi - prof.rho * prof.phi_prime)
        worst = min(worst, float(drift.min()))
        origin_min = min(origin_min, float(drift[0]))
    ok = worst >= -1e-8 and origin_min > 0.0
    return ok, (f"min drift {worst:.2e} (floor -1e-08), "
                f"min at rho=0 {origin_min:.3f} (> 0)")


def sup_decay_rate(quick: bool = False):
    """sup_r |U(.,t+1) - U(.,t)| decays like t^(-1/2)."""
    prof = solve_expander_profile(ConeProfile.radial(2, 1.0))
    r = np.linspace(0.0, 300.0, 1001 if quick else 3001)
    ts = np.linspace(5.0, 50.0, 16 if quick else 46)
    d = np.array([float(np.max(np.abs(evaluate_U(prof, r, t + 1.0)
                                      - evaluate_U(prof, r, t))))
                  for t in ts])
    fit = decay_fit(ts, d)
    ok = abs(fit.exponent + 0.5) <= 0.1
    return ok, f"exponent {fit.exponent:+.3f} (want -0.5 +- 0.1)"


def two_sided_convergence(quick: bool = False):
    """Bump perturbations of either sign converge to U inside the sandwich."""
    rep = SCENARIOS["main-theorem"].run(quick)
    flats = {s: "none" if rep.sides[s].t_flat is None else f"{rep.sides[s].t_flat:.1f}"
             for s in (+1, -1)}
    checks = all(bool(rep.sides[s].upper) and bool(rep.sides[s].lower)
                 for s in (+1, -1))
    return rep.passed, (f"sup|u-U| <= {rep.threshold} at t = "
                        f"{flats[+1]} (+) / {flats[-1]} (-), "
                        f"sandwich checks {'pass' if checks else 'FAIL'}")


def hyperplane_stability(quick: bool = False):
    """A bump over the flat cone drains; its heat majorant stays above it."""
    if quick:
        rep = half_space_experiment(horizon=15.0, threshold=0.2)
    else:
        rep = half_space_experiment()
    below = "none" if rep.first_below is None else f"{rep.first_below:.1f}"
    return rep.passed, (f"sup u <= {rep.threshold} at t = {below}, "
                        f"majorant ordering after t0: {rep.ordering_ok}")


def static_barrier(quick: bool = False):
    """The power-law graph under the cone is mean convex with the right gap."""
    k = ConeProfile.radial(3, 1.0)
    pts = 120 if quick else 400
    sb = static_barrier_w(k, 0.5, points=pts)
    fit = wk_difference_fit(k, 0.5, points=60 if quick else 160)
    exp = fit["fit"].exponent
    ok = sb.r0 is not None and abs(exp + 2.5) <= 0.15
    r0 = "none" if sb.r0 is None else f"{sb.r0:.2f}"
    return ok, (f"r0 = {r0} with H[w] > 0 through 1e4, "
                f"w-k exponent {exp:+.3f} (want -2.5 +- 0.15)")


def lemma_barrier(quick: bool = False):
    """The curvature-driven barrier flow stays below the cone, mean convex."""
    res = lemma_barrier_flow(ConeProfile.radial(3, 1.0), 300 if quick else 600)
    return bool(res.passed), (
        f"min(k - b) {res.min_gap:.2e} (> 0), min H {res.H_min:.2e} (> 0), "
        f"deficit exponent {res.deficit_fit.exponent:+.3f} (want -0.5 +- 0.1)")


def evolution_equations(quick: bool = False):
    """All five evolution equations hold along the flow, and tighten."""
    k = ConeProfile.radial(3, 1.0)
    # (labels, RK4 steps) of the base path, doubled for the fine one
    points, steps = (120, 100) if quick else (240, 200)
    r0 = evolution_equation_residuals(k, points, steps, 10)
    r1 = evolution_equation_residuals(k, 2 * points, 2 * steps, 20)
    groups = ["metric", "second_form", "mean_curvature", "a_squared", "normal"]
    base_ok = all(r0[g] <= 1e-2 for g in groups)
    factors = [r0[g] / r1[g] if r1[g] > 0 else math.inf for g in groups]
    refine_ok = all(f >= 2.0 for f in factors)
    ratio = max(r0["a_evolution_ratio"], r1["a_evolution_ratio"])
    ratio_ok = math.isfinite(ratio) and ratio <= 10.0
    ok = base_ok and refine_ok and ratio_ok
    return ok, (f"max residual {r0['max']:.1e} (tol 1e-02), "
                f"refinement factor {min(factors):.1f} (>= 2), "
                f"|dA2/dt| |X|^3 / |F| <= {ratio:.2f} (bounded)")


def _plane_run(c: float, spec: GridSpec, times) -> FlowRun:
    """Snapshots of the static plane at height c (exact flow is constant)."""
    run = FlowRun()
    for t in times:
        run.record_snapshot(float(t),
                            GridFunction(spec, np.full_like(spec.nodes, c)))
    return run


def psi_identity(quick: bool = False):
    """The monotonicity-density identity holds at second order on cone runs."""
    k = ConeProfile.radial(2, 1.0)
    prof = solve_expander_profile(k)
    horizon = 0.1 if quick else 1.0
    sups = {}
    for nn in (201, 401):
        spec = GridSpec.uniform(2, 0.0, 20.0, nn)
        cfg = SolverConfig(dt_init=1e-4, dt_max=1e-4, snapshot_dt=2.5e-4,
                           boundary="pin-to-expander", newton_tol=1e-12,
                           adaptive=False)
        run = evolve(prof.on_grid(spec, 1.0), horizon, cfg, cone=k,
                     profile=prof, t_start=1.0)
        sups[nn] = psi_identity_residual(run).sup_residual
    order = math.log2(sups[201] / sups[401])

    c = 3.0
    spec = GridSpec.uniform(2, 0.0, 10.0, 201)
    times = np.arange(1.0, 2.0 + 1e-12, 1e-3)
    plane_sup = psi_identity_residual(_plane_run(c, spec, times)).sup_residual
    ok = order >= 1.8 and plane_sup <= 1e-4
    return ok, (f"refinement order {order:.2f} (>= 1.8), "
                f"plane residual {plane_sup:.1e} (tol 1e-04)")


def subsolution_dominance(quick: bool = False):
    """Flows started above the glued subsolution stay above it."""
    rep = SCENARIOS["subsolution"].run(quick)
    t_delta = "none" if rep.t_delta is None else f"{rep.t_delta:.2f}"
    return rep.passed, (f"min(u - B) {rep.dominance_margin:+.2e} "
                        f"(floor -1e-06), t_delta = {t_delta} (finite)")


def area_bv_bound(quick: bool = False, trials: int | None = None):
    """Randomized graphs obey area <= (4 + 3G/rho) * BV on the shared grid.

    ``trials`` overrides the count (25 quick, 100 full); the draws are one
    seeded sequence, so a smaller count checks a prefix of the full set.
    """
    if trials is None:
        trials = 25 if quick else 100
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(2026)
    passes = nonempty = 0
    for _ in range(trials):
        beta = float(rng.uniform(0.3, 2.0))
        k = ConeProfile.radial(2, beta)
        theta = rng.uniform(0.0, 2 * np.pi)
        x = float(rng.uniform(2.0, 6.0)) * np.array([np.cos(theta),
                                                     np.sin(theta)])
        rho = float(rng.uniform(0.3, 0.9))
        nb = int(rng.integers(1, 4))
        u0 = (C1Function.from_cone(k)
              + C1Function.gaussian_bumps(
                  2, x + rng.uniform(-1.2, 1.2, size=(nb, 2)),
                  rng.uniform(-2.0, 2.0, size=nb),
                  rng.uniform(0.25, 1.2, size=nb)))
        rep = graph_area_bound_check(u0, k, x, rho, max(1.0, beta))
        passes += rep.passed and rep.hypothesis_ok
        nonempty += rep.area > 0
    ok = passes == trials
    return ok, (f"{passes}/{trials} bound checks pass "
                f"({nonempty} with nonempty area set)")


def clearing_out(quick: bool = False):
    """Clearing times of self-similar spikes scale like the width squared."""
    rhos = (0.1, 0.2) if quick else (0.05, 0.1, 0.2)
    out = clearing_out_scaling(ConeProfile.radial(2, 1.0), rhos=rhos)
    exp = out["exponent"]
    ok = 1.5 <= exp <= 2.5
    return ok, f"t0(rho) exponent {exp:.3f} (want 1.5 .. 2.5)"


def family_uniformity(quick: bool = False):
    """A five-member family under one envelope converges at a shared time."""
    rep = SCENARIOS["family-uniform"].run(quick)
    t_u = "none" if rep.t_uniform is None else f"{rep.t_uniform:.1f}"
    return rep.passed, (f"family sup <= {rep.threshold} at t = {t_u}, "
                        f"sandwich {rep.sandwich_ok}, rail bound {rep.bound_ok}")


CRITERIA = (
    (1, "expander-self-similarity", expander_self_similarity),
    (2, "cone-dominance", cone_dominance),
    (3, "profile-monotonicity", profile_monotonicity),
    (4, "sup-decay-rate", sup_decay_rate),
    (5, "two-sided-convergence", two_sided_convergence),
    (6, "hyperplane-stability", hyperplane_stability),
    (7, "static-barrier", static_barrier),
    (8, "lemma-barrier-flow", lemma_barrier),
    (9, "evolution-equations", evolution_equations),
    (10, "psi-identity", psi_identity),
    (11, "subsolution-dominance", subsolution_dominance),
    (12, "area-bv-bound", area_bv_bound),
    (13, "clearing-out-scaling", clearing_out),
    (14, "family-uniformity", family_uniformity),
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{self.number:2d}/14] {verdict} {self.name}: "
                f"{self.detail} [{self.seconds:.1f}s]")


@dataclass
class AcceptanceReport:
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        good = sum(r.passed for r in self.results)
        total_s = sum(r.seconds for r in self.results)
        verdict = "PASS" if self.passed else "FAIL"
        return (f"acceptance {verdict}: {good}/{len(self.results)} criteria "
                f"in {total_s:.0f}s")


def run_acceptance(quick: bool = False) -> AcceptanceReport:
    """Run every criterion and print one verdict line each."""
    report = AcceptanceReport()
    for number, name, fn in CRITERIA:
        started = time.perf_counter()
        try:
            ok, detail = fn(quick)
        except Exception as exc:  # a crash is a failed criterion, not a crash
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        res = CriterionResult(number, name, bool(ok), detail,
                              time.perf_counter() - started)
        report.results.append(res)
        print(res.line(), flush=True)
    print(report.summary())
    return report
