import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from coneflow import acceptance, barriers, cli
from coneflow.barriers import (Subsolution, _heat_kernel,
                               evolution_equation_residuals,
                               half_space_experiment, lemma_barrier_flow,
                               psi_identity_residual, static_barrier_w,
                               wk_difference_fit)
from coneflow.cones import ConeProfile
from coneflow.errors import (CertificationError, DomainError, ParameterError)
from coneflow.expander import evaluate_U
from coneflow.experiments import SCENARIOS
from coneflow.flow import FlowRun, SolverConfig, evolve
from coneflow.geometry import GridSpec, _radial_derivatives

K3 = ConeProfile.radial(3, 1.0)


@pytest.fixture(scope="module")
def lemma_result():
    return lemma_barrier_flow(K3, points=300)


# -- static power-law barrier --------------------------------------------------

def test_static_barrier_values_and_derivative():
    sb = static_barrier_w(K3, 0.5, points=200)
    assert np.allclose(sb.w, sb.r - sb.r ** -0.5)
    # derivative field against central differences of the closed form
    eps = 1e-6
    mid = sb.r[50]
    fd = ((mid + eps - (mid + eps) ** -0.5)
          - (mid - eps - (mid - eps) ** -0.5)) / (2 * eps)
    assert sb.w_r[50] == pytest.approx(fd, rel=1e-8)


def test_static_barrier_certified_region():
    sb = static_barrier_w(K3, 0.5)
    assert sb.r0 is not None
    assert sb.r0 <= 1.0 + 1e-12
    assert np.all(sb.H[sb.r >= sb.r0] > 0.0)


def test_static_barrier_flat_background_fails_far_out():
    # against a plane, a steep power dip turns mean-concave at large radius
    sb = static_barrier_w(ConeProfile.radial(3, 0.0), 2.0,
                          require_mean_convex=False)
    assert sb.r0 is None
    assert not sb.certified


def test_static_barrier_r0_matches_the_exact_root():
    # with s = r^(-alpha-1), r*(1+w_r^2)^(3/2)*H[w] is the cubic
    # g(s) = (n-1)(beta+alpha*s)(1+(beta+alpha*s)^2) - alpha(alpha+1)s, so
    # sign H = sign g; at (2, 0.1, 2) H < 0 exactly on r in (1.1752, 3.3810)
    # and r0 is the first sample past the larger root (a flipped w_rr sign
    # reads r0 = 1.0)
    n, beta, alpha = 2, 0.1, 2.0
    x = np.array([beta, alpha])  # beta + alpha*s, coefficients low to high
    g = P.polysub((n - 1) * P.polyadd(x, P.polypow(x, 3)), [0.0, alpha * (alpha + 1)])
    s = P.polyroots(g)
    s = s.real[(s.imag == 0) & (s.real > 0)]
    roots = np.sort(s ** (-1.0 / (alpha + 1)))
    assert roots == pytest.approx([1.17521, 3.38102], abs=1e-5)
    sb = static_barrier_w(ConeProfile.radial(n, beta), alpha)
    assert np.array_equal(np.sign(sb.H), np.sign(P.polyval(sb.r ** (-alpha - 1), g)))
    i = int(np.searchsorted(sb.r, roots[1]))
    assert sb.r0 == sb.r[i]
    assert sb.r[i - 1] < roots[1] <= sb.r0
    assert (sb.r[i - 1], sb.r0) == pytest.approx((3.3213, 3.3988), abs=1e-4)


def test_wk_difference_fit_closed_form():
    out = wk_difference_fit(K3, 0.5)
    fit = out["fit"]
    assert out["predicted_exponent"] == pytest.approx(-2.5)
    # alpha [(n-1) - (alpha+1)/(1+beta^2)] = 0.5 * (2 - 0.75)
    assert out["predicted_coefficient"] == pytest.approx(0.625)
    assert fit.exponent == pytest.approx(-2.5, abs=1e-3)
    assert fit.constant == pytest.approx(0.625, rel=1e-3)


# -- flowing barrier -----------------------------------------------------------

def test_lemma_barrier_certificates(lemma_result):
    res = lemma_result
    assert res.passed
    assert res.min_gap > 0.0            # stays strictly below the cone
    assert res.H_min > 0.0              # mean convex on the certified region
    assert res.deficit_fit.exponent == pytest.approx(-0.5, abs=0.1)
    # the deficit k - b is nonincreasing over the certified window
    lo, hi = res.certified
    gap = res.k_values - res.b
    assert np.all(np.diff(gap[(res.r >= lo) & (res.r <= hi)]) <= 1e-12 * np.max(gap))
    assert res.r_cut >= 10.0            # inflow collar excluded


def test_lemma_barrier_rejects_bad_setups():
    # the graphical barrier and the particle flow share the cone checks
    for cone in (ConeProfile.radial(2, 1.0),   # needs n >= 3
                 ConeProfile.radial(3, 0.0)):  # not mean convex
        with pytest.raises(ParameterError):
            lemma_barrier_flow(cone)
        with pytest.raises(ParameterError):
            evolution_equation_residuals(cone, 120, 100, 10)
    with pytest.raises(ParameterError):  # fewer than three levels
        evolution_equation_residuals(K3, 120, 1, 10)


def test_only_the_residual_checks_integrate_the_particle_flow(monkeypatch, tmp_path):
    # the Lagrangian path has one reader, the evolution-equation residuals:
    # the graphical barrier, the subsolution built on it and the barrier
    # command integrate none, and criterion 9 integrates its two paths
    calls = []
    integrate = barriers._integrate_lagrangian

    def counted(k, s, steps, alpha):
        calls.append((s.size, steps))
        return integrate(k, s, steps, alpha)

    monkeypatch.setattr(barriers, "_integrate_lagrangian", counted)
    lemma_barrier_flow(K3, points=300)
    assert SCENARIOS["subsolution"].run(quick=True).passed
    assert cli.dispatch(["--out", str(tmp_path), "barrier"]) == 0
    assert calls == []
    ok, _ = acceptance.evolution_equations(quick=True)
    assert ok
    assert calls == [(120, 100), (240, 200)]


def test_uncertified_barrier_cannot_be_scaled(lemma_result, profile31):
    with pytest.raises(CertificationError):
        Subsolution(profile31, dataclasses.replace(lemma_result, passed=False), 1.0,
                    m=0.2, delta=0.1, R=5.0)


def test_evolution_equations_against_lagrangian():
    out = evolution_equation_residuals(K3, 120, 100, 10)
    for group in ("metric", "second_form", "mean_curvature", "a_squared",
                  "normal"):
        assert out[group] <= 1e-2
    assert math.isfinite(out["a_evolution_ratio"])
    assert out["a_evolution_ratio"] <= 10.0
    assert out["levels_sampled"] >= 3


def test_evolution_residuals_shrink_under_refinement():
    coarse = evolution_equation_residuals(K3, 120, 100, 10)
    fine = evolution_equation_residuals(K3, 240, 200, 20)
    assert fine["max"] < coarse["max"] / 2.0


# -- rescaling and the glued subsolution ---------------------------------------

def _sub(profile, lemma, lam=1.0, m=0.2, delta=0.1, R=5.0):
    return Subsolution(profile, lemma, lam, m=m, delta=delta, R=R)


def test_scale_barrier_exact_homothety(lemma_result, profile31):
    lam = 2.5
    spline = _sub(profile31, lemma_result, lam).spline
    assert np.allclose(spline.x, lam * lemma_result.r)
    assert np.allclose(spline(spline.x), lam * lemma_result.b)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan, 1e308, 5e-324])
def test_scaling_needs_a_positive_finite_factor(lemma_result, profile31, lam):
    # the last two overflow the radii and round them together
    with pytest.raises(ParameterError, match="lam must be positive"):
        _sub(profile31, lemma_result, lam)


def test_scaled_barrier_domain_guard(lemma_result, profile31):
    # the barrier branch lives on the scaled radii only: finite there and
    # -inf (absent from the max) past either end
    sub = _sub(profile31, lemma_result, 2.0)
    lo, hi = sub.domain
    assert (lo, hi) == (2.0 * lemma_result.r[0], 2.0 * lemma_result.r[-1])
    _, bb = sub._branches(np.array([0.9 * lo, lo, 0.5 * (lo + hi), hi, 1.5 * hi]), 0.25)
    assert np.array_equal(np.isfinite(bb), [False, True, True, True, False])


def test_scaled_barrier_homogeneity(lemma_result, profile31):
    one = _sub(profile31, lemma_result, 1.0).spline
    two = _sub(profile31, lemma_result, 2.0).spline
    r = np.linspace(one.x[0] * 1.05, one.x[-1] * 0.95, 40)
    assert np.allclose(two(2.0 * r), 2.0 * one(r), rtol=1e-10, atol=1e-12)


def test_subsolution_invariants(lemma_result, profile31):
    with pytest.raises(ParameterError):
        _sub(profile31, lemma_result, m=lemma_result.m1 * 1.5)
    with pytest.raises(ParameterError):
        _sub(profile31, lemma_result, R=lemma_result.R1 * 1.5)
    with pytest.raises(ParameterError):
        _sub(profile31, lemma_result, delta=-0.1)


def test_subsolution_time_zero_is_shifted_cone(lemma_result, profile31):
    sub = _sub(profile31, lemma_result)
    r = np.linspace(0.0, 30.0, 61)
    vals = sub.evaluate(r, 0.0)
    shifted_cone = r - 0.2
    # outside the barrier's reach the t=0 trace is exactly cone - m
    assert np.all(vals >= shifted_cone - 1e-12)
    with pytest.raises(DomainError):
        sub.evaluate(r, -0.5)


def test_subsolution_is_pointwise_max(lemma_result, profile31):
    sub = _sub(profile31, lemma_result)
    lo, hi = sub.domain
    r = np.linspace(lo * 1.1, hi * 0.9, 101)
    t = 0.25
    vals = sub.evaluate(r, t)
    expander_branch = evaluate_U(profile31, r, t) - sub.m
    barrier_branch = sub.spline(r) - sub.delta / 2.0
    assert np.allclose(vals, np.maximum(expander_branch, barrier_branch))


def test_subsolution_branches_off_the_barrier_domain(lemma_result, profile31):
    # off its domain the barrier branch is absent: B = U - m, branch 0
    sub = _sub(profile31, lemma_result)
    lo, hi = sub.domain
    r = np.linspace(0.0, 1.2 * hi, 301)
    t = 0.25
    inside = (r >= lo) & (r <= hi)
    assert inside.any() and not inside.all()
    ub = evaluate_U(profile31, r, t) - sub.m
    bb = sub.spline(r[inside]) - sub.delta / 2.0
    want_B = ub.copy()
    want_B[inside] = np.maximum(ub[inside], bb)
    want_branch = np.zeros(r.size, dtype=int)
    want_branch[inside] = bb > ub[inside]
    assert np.array_equal(sub.evaluate(r, t), want_B)
    assert np.array_equal(sub.branch(r, t), want_branch)


def test_subsolution_residual_report(lemma_result, profile31):
    sub = _sub(profile31, lemma_result)
    spec = GridSpec.uniform(3, 0.0, 0.8 * sub.domain[1], 501)
    rep = sub.residual_report(spec, np.linspace(0.1, 1.0, 4))
    assert rep["subsolution_ok"]
    assert rep["barrier_min_H"] > 0.0


# -- heat-kernel majorant and the density identity ------------------------------

def test_heat_supersolution_shapes():
    x = np.linspace(0.0, 10.0, 11)
    z = np.zeros(11)
    phi = _heat_kernel(2, x, z, 1.0)
    assert np.all(phi > 0.0)
    assert np.all(np.diff(phi) <= 0.0)  # radially decreasing
    assert phi[0] == pytest.approx(1.0 / (4.0 * np.pi))
    with pytest.raises(DomainError):
        _heat_kernel(2, x, z, 0.0)


def _constant_run(c, spec, times):
    return FlowRun(spec, times, np.full((len(times),) + spec.shape, c))


def test_psi_identity_plane_closed_form():
    spec = GridSpec.uniform(2, 0.0, 10.0, 201)
    times = np.arange(1.0, 2.0 + 1e-12, 1e-3)
    rep = psi_identity_residual(_constant_run(3.0, spec, times))
    assert rep.sup_residual <= 1e-4


def test_psi_identity_input_validation():
    spec = GridSpec.uniform(2, 0.0, 10.0, 101)
    with pytest.raises(ParameterError):
        psi_identity_residual(_constant_run(1.0, spec, [1.0, 1.1]))
    with pytest.raises(DomainError):
        psi_identity_residual(_constant_run(1.0, spec, [0.0, 0.5, 1.0]))
    with pytest.raises(ParameterError):
        psi_identity_residual(_constant_run(1.0, spec, [1.0, 1.3, 1.4]))
    late = np.arange(1.0, 1.03 + 1e-12, 1e-3)  # past the first stacked block
    late[20] += 3e-4
    with pytest.raises(ParameterError, match="cadence"):
        psi_identity_residual(_constant_run(1.0, spec, late))


def test_psi_identity_outer_margin_bounds():
    spec = GridSpec.uniform(2, 0.0, 10.0, 101)
    run = _constant_run(3.0, spec, np.arange(1.0, 1.01 + 1e-12, 1e-3))
    every = psi_identity_residual(run, outer_margin=0)
    assert every.per_time.shape == (9,)
    assert np.all(every.per_time >= psi_identity_residual(run).per_time)
    for bad in (-1, spec.nr):
        with pytest.raises(ParameterError, match="outer_margin"):
            psi_identity_residual(run, outer_margin=bad)


def _frozen_psi_per_time(run, outer_margin):
    """psi_identity_residual's per-time residuals as first written: one
    snapshot at a time, psi written out per snapshot."""
    times = run.times
    spec = run.spec
    n, r = spec.n, spec.nodes

    def psi(z, t):
        return -(n / 2.0) * np.log(t) - (r * r + z * z) / (4.0 * t)
    sups = []
    for j in range(1, times.size - 1):
        tm, t0, tp = times[j - 1], times[j], times[j + 1]
        um, u0, up = (run.values[i] for i in (j - 1, j, j + 1))
        f0 = psi(u0, t0)
        dpsi_graph = (psi(up, tp) - psi(um, tm)) / (tp - tm)
        udot = (up - um) / (tp - tm)
        p, q = _radial_derivatives(spec, u0)
        W2 = 1.0 + p * p
        fr, frr = _radial_derivatives(spec, f0)
        with np.errstate(divide="ignore", invalid="ignore"):
            fr_over_r = np.where(r > 0, fr / np.where(r > 0, r, 1.0), frr)
        lap = (frr - (p * q / W2) * fr) / W2 + (n - 1) * fr_over_r / W2
        grad2 = fr * fr / W2
        dpsi_normal = dpsi_graph - udot * p * fr / W2
        Xnu = (r * p - u0) / np.sqrt(W2)
        resid = np.abs(dpsi_normal - lap - grad2 - Xnu ** 2 / (4.0 * t0 * t0))
        sups.append(float(np.max(resid[:resid.size - outer_margin])))
    return np.asarray(sups)


def test_psi_identity_blocks_bit_identical_to_per_snapshot(profile21):
    # the criterion-10 run pattern on a small grid; 21 interior snapshots
    # leave a partial last block
    spec = GridSpec.uniform(2, 0.0, 20.0, 101)
    cfg = SolverConfig(dt_init=1e-3, dt_max=1e-3, snapshot_dt=1e-3,
                       boundary="pin-to-expander", newton_tol=1e-12,
                       adaptive=False)
    run = evolve(profile21.on_grid(spec, 1.0), 0.022, cfg,
                 profile=profile21, t_start=1.0)
    assert run.times.size == 23
    for margin in (0, 3, 10):
        rep = psi_identity_residual(run, outer_margin=margin)
        want = _frozen_psi_per_time(run, margin)
        assert np.array_equal(rep.per_time, want)
        assert rep.sup_residual == float(np.max(want))


def test_half_space_majorant_quick():
    rep = half_space_experiment(horizon=10.0, threshold=0.2)
    assert rep.ordering_ok
    assert rep.first_below is not None and rep.first_below <= 10.0
    assert rep.passed
    assert rep.a > 0.0


def test_half_space_fails_before_the_bump_drains():
    # criterion 6's negative control: at horizon 2 sup u is still above the
    # 0.05 threshold, so the verdict fails while the majorant ordering holds
    rep = half_space_experiment(horizon=2.0)
    assert rep.first_below is None
    assert rep.ordering_ok
    assert not rep.passed
    assert rep.sup_trace[-1] > rep.threshold
