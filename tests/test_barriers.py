import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.interpolate import CubicSpline

from coneflow import acceptance, barriers, cli, experiments, geometry
from coneflow.analysis import ScenarioReport
from coneflow.barriers import (Subsolution, _heat_kernel,
                               evolution_equation_residuals,
                               half_space_experiment, lemma_barrier_flow,
                               psi_identity_residual, static_barrier_w)
from coneflow.cones import ConeProfile
from coneflow.errors import (CertificationError, DomainError, ParameterError)
from coneflow.expander import evaluate_U, expander_time_derivative, solve_expander_profile
from coneflow.experiments import SCENARIOS, subsolution_dominance_experiment
from coneflow.flow import FlowRun, SolverConfig, evolve
from coneflow.geometry import (GridFunction, GridSpec, _radial_derivatives,
                               mean_curvature, radial_rhs)

K3 = ConeProfile.radial(3, 1.0)


def _d1_d2(x, y):
    """A frozen copy of the per-call stencil geometry once had: the table
    of ``x`` built for this call and applied along axis 0 of ``y``."""
    rows, w, D = geometry._stencil(x)
    return geometry._apply_stencil(geometry._trailing(w, y.ndim),
                                   geometry._trailing(D, y.ndim), y[rows])


def _samples(report):
    """The columns of a barrier's trace as arrays: the static barrier's
    sampled r, w and H[w], the lemma barrier's r, b and k - b."""
    return np.array(report.trace[1]).T


@pytest.fixture(scope="module")
def lemma_result():
    return lemma_barrier_flow(K3, points=300)


# -- static power-law barrier --------------------------------------------------

def test_static_barrier_values_and_derivative():
    r, w, _ = _samples(static_barrier_w(K3, 0.5, points=200))
    assert np.allclose(w, r - r ** -0.5)
    # the derivative behind H against central differences of the closed form
    eps = 1e-6
    mid = r[50]
    fd = ((mid + eps - (mid + eps) ** -0.5)
          - (mid - eps - (mid - eps) ** -0.5)) / (2 * eps)
    w_r = barriers._power_barrier_parts(K3.beta, 0.5, r)[1]
    assert w_r[50] == pytest.approx(fd, rel=1e-8)


def test_static_barrier_certified_region():
    sb = static_barrier_w(K3, 0.5)
    r, _, H = _samples(sb)
    r0 = sb.summary["r0"]
    assert sb.passed and r0 is not None
    assert r0 <= 1.0 + 1e-12
    assert np.all(H[r >= r0] > 0.0)


def test_static_barrier_flat_background_fails_far_out():
    # against a strictly mean convex cone too shallow for the dip, a steep
    # power dip stays mean-concave out to 1e4; a steeper cone certifies
    sb = static_barrier_w(ConeProfile.radial(3, 1e-13), 2.0)
    assert not sb.passed and sb.summary["r0"] is None
    sb = static_barrier_w(ConeProfile.radial(3, 1e-11), 2.0)
    assert sb.passed and sb.summary["r0"] == pytest.approx(4668.45, rel=1e-5)


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
    r, _, H = _samples(sb)
    r0 = sb.summary["r0"]
    assert np.array_equal(np.sign(H), np.sign(P.polyval(r ** (-alpha - 1), g)))
    i = int(np.searchsorted(r, roots[1]))
    assert r0 == r[i]
    assert r[i - 1] < roots[1] <= r0
    assert (r[i - 1], r0) == pytest.approx((3.3213, 3.3988), abs=1e-4)
    # r0 is only as fine as the samples: three of them step over the dip
    coarse = static_barrier_w(ConeProfile.radial(n, beta), alpha, points=3)
    assert coarse.summary["r0"] == 1.0


def test_wk_difference_fit_closed_form():
    out = static_barrier_w(K3, 0.5).summary
    assert out["predicted_exponent"] == pytest.approx(-2.5)
    assert out["gap_exponent"] == pytest.approx(-2.5, abs=1e-3)


def test_steep_static_barrier_is_refused_before_the_fit():
    # from alpha = 79 at (3, 1) the w - k speed difference underflows to 0
    # on [1e3, 1e4]: the alpha is refused by name, not by decay_fit's
    # log-log guard, and 78.9 still fits
    with pytest.raises(ParameterError, match=r"alpha = 79.0 .*underflows to 0"):
        static_barrier_w(K3, 79.0)
    out = static_barrier_w(K3, 78.9).summary
    assert out["gap_exponent"] == pytest.approx(-80.9, abs=0.05)


def test_static_speed_difference_is_the_closed_form():
    # at (n, beta) = (3, 1), alpha = 3 zeroes the bracket's constant
    # (n-1)(1+beta^2) - (alpha+1), and the difference decays as
    # r^(-2 alpha - 3); taken as the difference of the two speeds it
    # cancelled to rounding noise, which fit -0.907 (and -4.858 at 2.9)
    zero = static_barrier_w(K3, 3.0).summary
    assert zero["predicted_exponent"] == -9.0
    assert zero["gap_exponent"] == pytest.approx(-9.0, abs=1e-6)
    near = static_barrier_w(K3, 2.9).summary
    assert near["predicted_exponent"] == pytest.approx(-4.9)
    assert near["gap_exponent"] == pytest.approx(-4.9, abs=1e-6)


# -- flowing barrier -----------------------------------------------------------

def test_lemma_barrier_certificates(lemma_result):
    res = lemma_result.summary
    assert lemma_result.passed
    assert sorted(res) == ["H_min", "R1", "deficit_exponent", "m1", "min_gap"]
    assert res["min_gap"] > 0.0         # stays strictly below the cone
    assert res["H_min"] > 0.0           # mean convex on the certified region
    assert res["deficit_exponent"] == pytest.approx(-0.5, abs=0.1)
    # the trace is the certified graph: r, b and the deficit k - b per label
    columns, rows = lemma_result.trace
    assert columns == [("r", "length"), ("b", "height"), ("k_minus_b", "height")]
    r, b, gap = _samples(lemma_result)
    assert rows.shape == (300, 3)
    assert gap.tobytes() == (K3.beta * r - b).tobytes()
    # the deficit k - b is nonincreasing over the certified window, which
    # starts at R1 with the deficit m1; the particles carry their own
    # domain: only the three end labels on each side are cut, and the radii
    # are the particles' own
    lo, hi = res["R1"], r[-4]
    assert lo == r[3] and res["m1"] == gap[3]
    assert np.all(np.diff(gap[(r >= lo) & (r <= hi)]) <= 1e-12 * np.max(gap))
    assert res["min_gap"] == np.min(gap[3:-3])
    assert r[0] == pytest.approx(10.1889, abs=1e-4)
    assert np.all(np.diff(r) > 0)


@pytest.mark.parametrize("points", [300, 600])
def test_lemma_barrier_converges_to_the_refined_particle_flow(points):
    # a 9,600-label particle run, splined, is the refined curve: the lemma
    # barrier lies on it to 1e-9 at its own radii (a first-order upwind
    # march of the graph was off by 3.5e-5 and 2.6e-5 at 300 and 600 points)
    _, R, Z = barriers._integrate_lagrangian(K3, 9600, 16, 0.25)
    r, b, _ = _samples(lemma_barrier_flow(K3, points))
    assert np.max(np.abs(b - CubicSpline(R[-1], Z[-1])(r))) <= 1e-9


def test_lemma_barrier_refuses_a_level_that_is_no_graph(monkeypatch):
    integrate = barriers._integrate_lagrangian

    def folded(*args):
        table, R, Z = integrate(*args)
        R[-1, 10], R[-1, 11] = R[-1, 11], R[-1, 10]
        return table, R, Z

    monkeypatch.setattr(barriers, "_integrate_lagrangian", folded)
    with pytest.raises(CertificationError, match="strictly increase"):
        lemma_barrier_flow(K3, 300)


@pytest.mark.parametrize("n, beta", [(20, 1.0), (10, 10.0), (7, 1000.0)])
def test_lemma_barrier_names_a_cone_it_cannot_resolve(n, beta):
    # a steep or high-dimensional cone barely moves: the deficit k - b rounds
    # to 0 in the fit window, and the refusal names the cone and the count
    # of such labels rather than the log-log fit the caller never asked for
    with pytest.raises(ParameterError,
                       match=rf"cannot resolve the cone \(n, beta\) = \({n}, {beta}\): "
                             r"k - b rounds to <= 0 on [1-9]\d* of 600 labels"):
        lemma_barrier_flow(ConeProfile.radial(n, beta))


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
    for points in (2, 6):  # the three end nodes on each side leave none
        with pytest.raises(ParameterError, match="points must be at least 7"):
            evolution_equation_residuals(K3, points, 4, 1)
    assert math.isfinite(evolution_equation_residuals(K3, 7, 4, 1)["max"])


@pytest.mark.parametrize("fn,args,match", [
    (lemma_barrier_flow, (K3, 300.5), "points must be a whole number"),
    (lemma_barrier_flow, (K3, True), "points must be a whole number"),
    (evolution_equation_residuals, (K3, 120.5, 100, 10), "points must be a whole"),
    (evolution_equation_residuals, (K3, 120, 100.5, 10), "steps must be a whole"),
    (evolution_equation_residuals, (K3, 120, 100, 2.5), "t_stride must be a whole"),
    (evolution_equation_residuals, (K3, 120, 100, 0), "t_stride must be at least 1"),
    (static_barrier_w, (K3, 0.5, 10.5), "points must be a whole number"),
    (static_barrier_w, (K3, 0.5, 400, 10.5), "fit_points must be a whole number"),
    (static_barrier_w, (K3, 0.5, 1), "points must be at least 2"),
    (static_barrier_w, (K3, 0.5, 0), "points must be at least 2"),
    (static_barrier_w, (K3, 0.5, -1), "points must be at least 2"),
    (static_barrier_w, (K3, 0.5, 400, 2), "fit_points must be at least 3"),
    (static_barrier_w, (K3, 0.5, 400, -1), "fit_points must be at least 3"),
    (lemma_barrier_flow, (K3, 1), "points must be at least 26"),
    (lemma_barrier_flow, (K3, 0), "points must be at least 26"),
    (lemma_barrier_flow, (K3, -5), "points must be at least 26"),
    (lemma_barrier_flow, (K3, 25), "points must be at least 26"),
], ids=["lemma-float", "lemma-bool", "residual-points", "residual-steps",
        "residual-stride", "residual-stride-zero", "static", "wk-fit", "static-1",
        "static-0", "static-neg", "wk-fit-2", "wk-fit-neg", "lemma-1", "lemma-0",
        "lemma-neg", "lemma-25"])
def test_barrier_counts_are_whole_numbers(fn, args, match):
    # a count that is not a whole number, a count below the construction's
    # least or a stride below one is the caller's slip: a ParameterError,
    # not numpy's TypeError, IndexError or ValueError nor a silent stride of
    # one (the static barrier samples both ends of [1, 1e4], the fit takes
    # what decay_fit takes, and the lemma barrier's deficit fit spans a
    # decade from 26 labels on)
    with pytest.raises(ParameterError, match=match):
        fn(*args)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.inf, math.nan])
def test_power_barriers_share_the_alpha_check(alpha):
    # the difference fit refuses the exponents the static barrier refuses,
    # whatever its sample count; it returned exponent -1.0 for alpha = -1
    for fit_points in (160, 3):
        with pytest.raises(ParameterError, match="alpha must be positive and finite"):
            static_barrier_w(K3, alpha, fit_points=fit_points)


def test_every_flow_barrier_integrates_the_one_particle_flow(monkeypatch, tmp_path):
    # the flow barrier has one realization: each lemma barrier (alone, under
    # the subsolution scenario and in the barrier command) makes one call of
    # _LEMMA_STEPS steps and certifies its final level as it is, and
    # criterion 9 integrates its two paths
    calls = []
    integrate = barriers._integrate_lagrangian

    def counted(k, points, steps, alpha):
        table, R, Z = integrate(k, points, steps, alpha)
        calls.append((points, steps, R[-1], Z[-1]))
        return table, R, Z

    monkeypatch.setattr(barriers, "_integrate_lagrangian", counted)
    r, b, _ = _samples(lemma_barrier_flow(K3, points=300))
    assert [c[:2] for c in calls] == [(300, barriers._LEMMA_STEPS)]
    assert r.tobytes() == calls[0][2].tobytes()
    assert b.tobytes() == calls[0][3].tobytes()
    calls.clear()
    assert SCENARIOS["subsolution"].run(quick=True).passed
    assert cli.dispatch(["--out", str(tmp_path), "barrier"]) == 0
    assert [c[:2] for c in calls] == [(600, barriers._LEMMA_STEPS)] * 2
    calls.clear()
    ok, _ = acceptance.evolution_equations(quick=True)
    assert ok
    assert [c[:2] for c in calls] == [(120, 100), (240, 200)]


def test_one_residual_check_builds_one_label_table(monkeypatch):
    # the labels never move: one table serves every RK4 stage and every
    # sampled level, and the lemma barrier reads its H off the same table
    # (a per-call stencil on the final level built a second one)
    calls = []
    build = geometry._stencil

    def counted(x):
        calls.append(x.size)
        return build(x)

    for module in (geometry, barriers):
        monkeypatch.setattr(module, "_stencil", counted, raising=False)
    evolution_equation_residuals(K3, 120, 100, 10)
    assert calls == [120]
    calls.clear()
    lemma_barrier_flow(K3, 300)
    assert calls == [300]


def _frozen_velocity(s, R, Z, alpha):
    # the per-call velocity: _d1_d2 rebuilds the table and takes y'' too
    Rs, Zs = _d1_d2(s, np.stack((R, Z), axis=1))[0].T
    q = np.sqrt(Rs * Rs + Zs * Zs)
    Fmag = (R * R + Z * Z) ** (-alpha)
    return Fmag * Zs / q, -Fmag * Rs / q


def _frozen_integrate(k, s, steps, alpha):
    dt = 1.0 / steps
    R = np.empty((steps + 1, s.size))
    Z = np.empty((steps + 1, s.size))
    R[0] = s
    Z[0] = k.beta * s
    for j in range(steps):
        r0, z0 = R[j], Z[j]
        k1 = _frozen_velocity(s, r0, z0, alpha)
        k2 = _frozen_velocity(s, r0 + 0.5 * dt * k1[0], z0 + 0.5 * dt * k1[1], alpha)
        k3 = _frozen_velocity(s, r0 + 0.5 * dt * k2[0], z0 + 0.5 * dt * k2[1], alpha)
        k4 = _frozen_velocity(s, r0 + dt * k3[0], z0 + dt * k3[1], alpha)
        R[j + 1] = r0 + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        Z[j + 1] = z0 + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
    return R, Z


def test_particle_flow_matches_the_per_call_stencil_bit_for_bit():
    # quick criterion 9's base path, integrated on one label table and on
    # the frozen per-call _d1_d2, and the profile derivatives of its levels
    s = np.geomspace(10.0, 400.0, 120)
    table, R, Z = barriers._integrate_lagrangian(K3, 120, 100, 0.25)
    want_R, want_Z = _frozen_integrate(K3, s, 100, 0.25)
    assert R.tobytes() == want_R.tobytes()
    assert Z.tobytes() == want_Z.tobytes()
    for j in (0, 50, 100):
        g = barriers._profile_geometry(table, R[j], Z[j], 3, 0.25)
        d1, d2 = _d1_d2(s, np.stack((R[j], Z[j]), axis=1))
        (Rs, Zs), (Rss, Zss) = d1.T, d2.T
        h_ss = (Zss * Rs - Rss * Zs) / np.sqrt(Rs * Rs + Zs * Zs)
        for got, want in ((g["Rs"], Rs), (g["Zs"], Zs), (g["h_ss"], h_ss)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_uncertified_barrier_cannot_be_scaled(lemma_result, profile31, monkeypatch):
    monkeypatch.setattr(barriers, "lemma_barrier_flow",
                        lambda k: lemma_result._replace(passed=False))
    with pytest.raises(CertificationError, match="uncertified barrier"):
        Subsolution(profile31, 1.0, m=0.2, delta=0.1, R=5.0)


def test_evolution_equations_against_lagrangian():
    out = evolution_equation_residuals(K3, 120, 100, 10)
    for group in ("metric", "second_form", "mean_curvature", "a_squared",
                  "normal"):
        assert out[group] <= 1e-2
    assert math.isfinite(out["a_evolution_ratio"])
    assert out["a_evolution_ratio"] <= 10.0


def test_evolution_residuals_shrink_under_refinement():
    coarse = evolution_equation_residuals(K3, 120, 100, 10)
    fine = evolution_equation_residuals(K3, 240, 200, 20)
    assert fine["max"] < coarse["max"] / 2.0


def _frozen_residuals_per_level(k, points, steps, t_stride):
    # the residual check as a loop over the sampled levels, one level of
    # _profile_geometry at a time, with running maxima from 0
    alpha = barriers._flow_exponent(k)
    table, R, Z = barriers._integrate_lagrangian(k, points, steps, alpha)
    n, dt = k.n, 1.0 / steps
    sl = slice(3, points - 3)
    keys = [kq for members in barriers._GROUPS.values() for kq in members]
    num = dict.fromkeys(barriers._GROUPS, 0.0)
    den = dict(num)
    a_ratio = 0.0
    for j in range(1, steps, t_stride):
        gm = barriers._profile_geometry(table, R[j - 1], Z[j - 1], n, alpha)
        g0 = barriers._profile_geometry(table, R[j], Z[j], n, alpha)
        gp = barriers._profile_geometry(table, R[j + 1], Z[j + 1], n, alpha)
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
        for gname, members in barriers._GROUPS.items():
            for kq in members:
                err = np.max(np.abs(lhs[kq][sl] - rhs[kq][sl]))
                scale = max(np.max(np.abs(lhs[kq][sl])), np.max(np.abs(rhs[kq][sl])))
                num[gname] = max(num[gname], float(err))
                den[gname] = max(den[gname], float(scale))
        ratio = np.abs(lhs["A2"][sl]) * g0["X2"][sl] ** 1.5 / np.abs(g0["F"][sl])
        a_ratio = max(a_ratio, float(np.max(ratio)))
    out = {key: (num[key] / den[key] if den[key] > 0 else 0.0) for key in num}
    out["a_evolution_ratio"] = a_ratio
    out["max"] = max(out[key] for key in barriers._GROUPS)
    return out


@pytest.mark.parametrize("points, steps, t_stride",
                         [(120, 100, 10), (240, 200, 20), (7, 2, 1), (50, 30, 1)])
def test_residuals_over_stacked_levels_equal_the_per_level_loop(points, steps, t_stride):
    # every sampled level at once: maxima are exact, so the dicts are equal
    got = evolution_equation_residuals(K3, points, steps, t_stride)
    assert got == _frozen_residuals_per_level(K3, points, steps, t_stride)


# -- rescaling and the glued subsolution ---------------------------------------

def _sub(profile, lam=1.0, m=0.2, delta=0.1, R=5.0):
    return Subsolution(profile, lam, m=m, delta=delta, R=R)


def test_subsolution_flows_the_barrier_of_its_own_cone(profile31):
    # the barrier is the lemma barrier over the expander's cone, so the two
    # branches cannot belong to different cones
    for profile in (profile31, solve_expander_profile(ConeProfile.radial(4, 2.0))):
        got = _sub(profile, m=0.05).barrier
        want = lemma_barrier_flow(ConeProfile.radial(profile.n, profile.beta))
        assert got.passed and got.summary == want.summary
        assert got.trace[1].tobytes() == want.trace[1].tobytes()


def test_scale_barrier_exact_homothety(profile31):
    lam = 2.5
    sub = _sub(profile31, lam)
    r, b, _ = _samples(sub.barrier)
    assert np.allclose(sub.spline.x, lam * r)
    assert np.allclose(sub.spline(sub.spline.x), lam * b)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan, 1e308, 5e-324])
def test_scaling_needs_a_positive_finite_factor(profile31, lam):
    # the last two overflow the radii and round them together
    with pytest.raises(ParameterError, match="lam must be positive"):
        _sub(profile31, lam)


def test_scaled_barrier_domain_guard(profile31):
    # the barrier branch lives on the scaled radii only: finite there and
    # -inf (absent from the max) past either end
    sub = _sub(profile31, 2.0)
    lo, hi = sub.domain
    r = _samples(sub.barrier)[0]
    assert (lo, hi) == (2.0 * r[0], 2.0 * r[-1])
    _, bb = sub._branches(np.array([0.9 * lo, lo, 0.5 * (lo + hi), hi, 1.5 * hi]), 0.25)
    assert np.array_equal(np.isfinite(bb), [False, True, True, True, False])


def test_scaled_barrier_homogeneity(profile31):
    one = _sub(profile31, 1.0).spline
    two = _sub(profile31, 2.0).spline
    r = np.linspace(one.x[0] * 1.05, one.x[-1] * 0.95, 40)
    assert np.allclose(two(2.0 * r), 2.0 * one(r), rtol=1e-10, atol=1e-12)


def test_subsolution_invariants(profile31):
    barrier = _sub(profile31).barrier.summary
    with pytest.raises(ParameterError, match="need lam\\*m1 > m"):
        _sub(profile31, m=barrier["m1"] * 1.5)
    with pytest.raises(ParameterError, match="need lam\\*R1 > R"):
        _sub(profile31, R=barrier["R1"] * 1.5)
    with pytest.raises(ParameterError):
        _sub(profile31, delta=-0.1)


def test_subsolution_time_zero_is_shifted_cone(profile31):
    sub = _sub(profile31)
    r = np.linspace(0.0, 30.0, 61)
    vals = sub.evaluate(r, 0.0)
    shifted_cone = r - 0.2
    # outside the barrier's reach the t=0 trace is exactly cone - m
    assert np.all(vals >= shifted_cone - 1e-12)
    with pytest.raises(DomainError):
        sub.evaluate(r, -0.5)


def test_subsolution_is_pointwise_max(profile31):
    sub = _sub(profile31)
    lo, hi = sub.domain
    r = np.linspace(lo * 1.1, hi * 0.9, 101)
    t = 0.25
    vals = sub.evaluate(r, t)
    expander_branch = evaluate_U(profile31, r, t) - sub.m
    barrier_branch = sub.spline(r) - sub.delta / 2.0
    assert np.allclose(vals, np.maximum(expander_branch, barrier_branch))


def test_subsolution_branches_off_the_barrier_domain(profile31):
    # off its domain the barrier branch is absent: B = U - m, and the
    # barrier branch wins nowhere there
    sub = _sub(profile31)
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
    ub_got, bb_got = sub._branches(r, t)
    assert np.array_equal((bb_got > ub_got).astype(int), want_branch)
    assert np.all(bb_got[~inside] == -np.inf)


def test_subsolution_takes_a_column_of_times(profile31):
    # one row per time, a t = 0 row (the shifted cone) among them, bit for
    # bit the per-time calls; a negative entry anywhere is refused
    sub = _sub(profile31)
    r = np.linspace(0.0, 1.2 * sub.domain[1], 777)
    times = np.array([0.0, 0.05, 0.3, 1.0, 2.5])
    want = np.stack([sub.evaluate(r, float(t)) for t in times])
    got = sub.evaluate(r, times[:, None])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for i in range(times.size):
        bad = times.copy()
        bad[i] = -0.5
        with pytest.raises(DomainError, match="t >= 0"):
            sub.evaluate(r, bad[:, None])


@pytest.mark.parametrize("kw", [{"m": math.nan}, {"delta": -1.0}, {"R": math.inf},
                                {"lam": -1.0}], ids=["m-nan", "delta-neg", "R-inf", "lam-neg"])
def test_subsolution_refuses_its_scalars_before_the_barrier_flows(profile31, monkeypatch, kw):
    # each of these flowed the 600-label lemma barrier before it was refused
    calls = []
    flow = barriers.lemma_barrier_flow
    monkeypatch.setattr(barriers, "lemma_barrier_flow", lambda k: calls.append(k) or flow(k))
    with pytest.raises(ParameterError, match="must be positive and finite"):
        _sub(profile31, **kw)
    assert calls == []


@pytest.mark.parametrize("kw", [{"clearance": 0.5}, {"clearance": math.nan},
                                {"beta": 0.0}, {"m": math.nan}],
                         ids=["clearance-0.5", "clearance-nan", "beta-0", "m-nan"])
def test_dominance_refuses_its_usage_errors_before_the_profile_solve(monkeypatch, kw):
    # each of these solved the expander profile before it was refused
    calls = []
    monkeypatch.setattr(experiments, "solve_expander_profile", calls.append)
    with pytest.raises(ParameterError):
        subsolution_dominance_experiment(**kw)
    assert calls == []


def test_dominance_refuses_n2_after_the_profile_solve(monkeypatch):
    # n = 2 is strictly mean convex: its refusal lives in the lemma barrier,
    # whose speed needs n >= 3, so the profile is solved first
    calls = []
    solve = experiments.solve_expander_profile
    monkeypatch.setattr(experiments, "solve_expander_profile",
                        lambda k: calls.append(k) or solve(k))
    with pytest.raises(ParameterError, match="n >= 3"):
        subsolution_dominance_experiment(n=2)
    assert len(calls) == 1


def _frozen_residual_report(sub, spec, times):
    # the residual check as a loop over times, one row of masks at a time,
    # the barrier branch's spline and H taken anew per time
    r = spec.nodes
    exp_res, bar_min_H = 0.0, np.inf
    clo = sub.lam * sub.barrier.summary["R1"]
    chi = sub.lam * sub.barrier.trace[1][-4, 0]
    lo, hi = sub.domain
    inside = (r >= lo) & (r <= hi)
    for t in times:
        ub = evaluate_U(sub.profile, r, t) - sub.m
        bb = np.full(r.shape, -np.inf)
        bb[inside] = sub.spline(r[inside]) - sub.delta / 2
        active = (bb > ub).astype(int)
        crease = np.zeros_like(active, dtype=bool)
        for i in np.nonzero(np.diff(active) != 0)[0]:
            crease[max(0, i - 2):i + 4] = True
        e_mask = (active == 0) & ~crease
        e_mask[:2] = e_mask[-2:] = False
        if e_mask.any():
            udot = expander_time_derivative(sub.profile, r, t)
            rhs = radial_rhs(GridFunction(spec, ub)).values
            exp_res = max(exp_res, float(np.max(np.abs(udot - rhs)[e_mask])))
        b_mask = (active == 1) & ~crease & (r >= clo) & (r <= chi)
        if b_mask.any():
            bvals = sub.spline(np.clip(r, lo, hi))
            Hb = mean_curvature(GridFunction(spec, bvals)).values
            bar_min_H = min(bar_min_H, float(np.min(Hb[b_mask])))
    return ScenarioReport(math.isinf(bar_min_H) or bar_min_H > -1e-10,
                          {"expander_residual": exp_res,
                           "barrier_min_H": None if math.isinf(bar_min_H) else bar_min_H},
                          None)


@pytest.mark.parametrize("beta, lam", [(1.0, 1.0), (1.0, 2.0), (0.5, 1.0), (0.5, 2.0)])
def test_residual_report_over_a_column_equals_the_per_time_loop(beta, lam):
    # masks, maxima and minima are exact, so the reports are equal, on the
    # CLI's grid and with eight, four, one and no times
    profile = solve_expander_profile(ConeProfile.radial(3, beta))
    sub = _sub(profile, lam, m=0.2 if beta == 1.0 else 0.05)
    spec = GridSpec.uniform(3, 0.0, 0.8 * sub.domain[1], 1001)
    for times in (np.linspace(0.05, 1.0, 8), np.linspace(0.1, 1.0, 4), np.array([0.3]),
                  np.array([])):
        assert sub.residual_report(spec, times) == _frozen_residual_report(sub, spec, times)


def test_subsolution_residual_report(profile31):
    sub = _sub(profile31)
    spec = GridSpec.uniform(3, 0.0, 0.8 * sub.domain[1], 501)
    rep = sub.residual_report(spec, np.linspace(0.1, 1.0, 4))
    assert rep.passed is True and rep.trace is None
    assert sorted(rep.summary) == ["barrier_min_H", "expander_residual"]
    assert rep.summary["barrier_min_H"] > 0.0


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
    # each 3-snapshot window is one interior snapshot evaluated alone
    want = _frozen_psi_per_time(run, 3)
    for j in range(want.size):
        window = FlowRun(spec, run.times[j:j + 3], run.values[j:j + 3])
        assert psi_identity_residual(window).sup_residual == want[j]
    assert psi_identity_residual(run).sup_residual == float(np.max(want))


def test_half_space_majorant_quick():
    rep = half_space_experiment(horizon=10.0, threshold=0.2)
    assert rep.summary["ordering_ok"]
    assert rep.summary["first_below"] is not None and rep.summary["first_below"] <= 10.0
    assert rep.passed and rep.trace is None


def test_half_space_fails_before_the_bump_drains():
    # criterion 6's negative control: at horizon 2 sup u is still above the
    # 0.05 threshold, so the verdict fails while the majorant ordering holds
    rep = half_space_experiment(horizon=2.0)
    assert rep.summary == {"ordering_ok": True, "first_below": None}
    assert not rep.passed
