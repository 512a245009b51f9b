import numpy as np
import pytest
from scipy.integrate import LSODA, solve_ivp

from coneflow import acceptance, expander, flow
from coneflow.cones import ConeProfile
from coneflow.errors import DomainError, ShootingError
from coneflow.expander import (ShootingConfig, evaluate_U,
                               expander_time_derivative,
                               relax_angular_expander, solve_expander_profile)
from coneflow.geometry import GridSpec

# Axis heights a = U(0,1) computed by an independent oracle: explicit Heun
# stepping of the conservative flux form of the radial graph flow from the
# cone data, Richardson-extrapolated over h in {0.05, 0.025, 0.0125}.  The
# n=2 oracle converges at second order (tight); the n=3 axis treatment is
# closer to first order, so the extrapolated values carry a few 1e-5.
ORACLE_A = {
    (2, 1.0): (1.709095732, 1e-7),
    (3, 1.0): (2.205699795, 5e-5),
    (3, 2.0): (4.280453700, 5e-5),
}

# shooting-solver regression pins (same path as the package, frozen)
REGRESSION_A = {
    (2, 1.0): 1.7090957539,
    (3, 1.0): 2.20568655,
    (3, 2.0): 4.28042808,
}


@pytest.mark.parametrize("n,beta", sorted(ORACLE_A))
def test_axis_height_against_independent_oracle(n, beta):
    prof = solve_expander_profile(ConeProfile.radial(n, beta))
    want, tol = ORACLE_A[(n, beta)]
    assert abs(prof.a - want) <= tol


@pytest.mark.parametrize("n,beta", sorted(REGRESSION_A))
def test_axis_height_regression(n, beta):
    prof = solve_expander_profile(ConeProfile.radial(n, beta))
    assert prof.a == pytest.approx(REGRESSION_A[(n, beta)], abs=5e-9)


def test_profile_starts_flat(profile21):
    assert profile21.phi[0] == pytest.approx(profile21.a)
    assert profile21.phi_prime[0] == pytest.approx(0.0, abs=1e-12)


def test_profile_ode_defect_small(profile21):
    # the stored node residual is the shooting solver's own defect measure
    assert profile21.node_residual is not None
    assert np.max(np.abs(profile21.node_residual)) < 1e-7


def test_profile_above_cone(profile21):
    gap = profile21.phi - profile21.beta * profile21.rho
    assert np.min(gap) > 0.0


def test_tail_evaluation_continuous(profile21):
    # crossing rho_max switches to the asymptotic tail; no jump
    rm = profile21.rho_max
    eps = 1e-7
    below = profile21.evaluate(np.array([rm - eps]))[0]
    above = profile21.evaluate(np.array([rm + eps]))[0]
    assert abs(above - below) < 1e-6


def test_tail_matches_refined_asymptote(profile21):
    # phi ~ beta rho + c1/rho with c1 = (n-1) beta / ... fixed by the flow;
    # far past rho_max the deviation from the linear cone decays like 1/rho
    rho = np.array([60.0, 120.0, 240.0])
    gap = profile21.evaluate(rho) - profile21.beta * rho
    ratio = gap[:-1] / gap[1:]
    assert np.allclose(ratio, 2.0, rtol=0.02)


def test_evaluate_U_rejects_nonpositive_time(profile21):
    with pytest.raises(DomainError):
        evaluate_U(profile21, np.array([1.0]), 0.0)
    with pytest.raises(DomainError):
        evaluate_U(profile21, np.array([1.0]), -1.0)


def test_parabolic_homogeneity_exact(profile21):
    r = np.linspace(0.0, 30.0, 301)
    for lam in (0.5, 1.7, 4.0):
        left = evaluate_U(profile21, lam * r, lam ** 2 * 1.3)
        right = lam * evaluate_U(profile21, r, 1.3)
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


def test_time_derivative_matches_fd(profile21):
    r = np.linspace(0.0, 10.0, 101)
    t, dt = 1.5, 1e-5
    fd = (evaluate_U(profile21, r, t + dt)
          - evaluate_U(profile21, r, t - dt)) / (2 * dt)
    an = expander_time_derivative(profile21, r, t)
    assert np.allclose(an, fd, rtol=1e-6, atol=1e-8)


def test_time_derivative_positive(profile21):
    r = np.linspace(0.0, 50.0, 501)
    ud = expander_time_derivative(profile21, r, 2.0)
    assert np.min(ud) > 0.0


def test_on_grid_is_time_slice(profile21):
    spec = GridSpec.uniform(2, 0.0, 20.0, 101)
    gf = profile21.on_grid(spec, 4.0)
    assert np.allclose(gf.values, evaluate_U(profile21, spec.nodes, 4.0))


def test_cone_roundtrip(profile21):
    k = profile21.cone()
    assert k.kind == "radial"
    assert k.n == 2 and k.beta == 1.0


def test_angular_relaxation_consistent_with_radial(monkeypatch):
    # the 2-d relaxation solved over an isotropic cone must reproduce the
    # 1-d shooting value at the axis, up to the coarse-grid error
    factorizations = []
    factor = flow.splu
    monkeypatch.setattr(flow, "splu",
                        lambda M: factorizations.append(M.shape) or factor(M))
    k = ConeProfile.angular(lambda th: np.ones_like(th), m=16)
    ang = relax_angular_expander(k, rho_max=8.0, nr=40, ntheta=16,
                                 tau_max=20.0)
    assert ang.converged
    # the run reports its solver work
    assert ang.lu_factorizations == len(factorizations) >= ang.steps
    assert ang.newton_iters == ang.lu_factorizations
    assert ang.center_height() == pytest.approx(1.7090957539, abs=0.05)
    above = ang.solution.values - k.on_grid(ang.solution.spec).values
    assert np.min(above) > -1e-8


# ---------------------------------------------------------------------------
# shooting: the direct LSODA stepping against frozen oracles.  The RHS and the
# step loop below are the package's earlier forms, kept here verbatim so the
# oracles do not move with the code under test.


def _seed_ode_rhs(rho, y, n):
    """The profile ODE on numpy scalars, as first written."""
    phi, p = y
    return [p, (1.0 + p * p) * (0.5 * (phi - rho * p) - (n - 1) * p / rho)]


def _seed_miss(a, n, beta, cfg):
    """The shot as the public LSODA class steps it, one ``step()`` a time."""
    rho0, y0 = expander._series_start(a, n)
    solver = LSODA(lambda rho, y: _seed_ode_rhs(rho, y, n), rho0, y0, cfg.rho_max,
                   rtol=cfg.ode_rtol, atol=cfg.ode_atol)
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise ShootingError(message, scanned=[a])
        if cfg.slope_cap - abs(solver.y[1]) <= 0:
            return np.inf if solver.y[1] > 0 else -np.inf
    return float(solver.y[0] - expander._tail_value(n, beta, cfg.rho_max))


def _miss_via_solve_ivp(a, n, beta, cfg):
    """The shot as solve_ivp computes it: t_eval at rho_max, blow-up event."""
    rho0, y0 = expander._series_start(a, n)

    def blow_up(rho, y, *_args):
        return cfg.slope_cap - abs(y[1])

    blow_up.terminal = True
    sol = solve_ivp(_seed_ode_rhs, (rho0, cfg.rho_max), y0, args=(n,),
                    method="LSODA", rtol=cfg.ode_rtol, atol=cfg.ode_atol,
                    t_eval=[cfg.rho_max], events=blow_up)
    if sol.status == 1:
        return np.inf if sol.y_events[0][0][1] > 0 else -np.inf
    if not sol.success:
        raise ShootingError(sol.message, scanned=[a])
    return float(sol.y[0][-1] - expander._tail_value(n, beta, cfg.rho_max))


def test_ode_rhs_bit_identical_to_numpy_scalars():
    rng = np.random.default_rng(20)
    rho = np.geomspace(1e-6, 40.0, 400)
    phi = rng.uniform(-50.0, 50.0, rho.size)
    p = rng.choice([-1.0, 1.0], rho.size) * 10.0 ** rng.uniform(-12.0, 7.0, rho.size)
    for n in (2, 3, 4):
        for r, y in zip(rho.tolist(), np.stack([phi, p], axis=1)):
            got = expander._ode_rhs(r, y, n)
            want = _seed_ode_rhs(r, y, n)
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n,beta", [(2, 0.5), (2, 1.0), (3, 1.0), (3, 2.0)])
def test_miss_bit_identical_to_solve_ivp(n, beta):
    # positive and negative axis heights; with a slope cap of 2 the shots far
    # from the root blow up, with the default cap they all land finite
    grid = np.geomspace(0.05, 50.0, 9)
    for cap in (1e7, 2.0):
        cfg = ShootingConfig(slope_cap=cap)
        for a in np.concatenate([grid, -grid]).tolist():
            want = _miss_via_solve_ivp(a, n, beta, cfg)
            assert _seed_miss(a, n, beta, cfg) == want
            assert expander._miss(a, n, beta, cfg) == want


def test_miss_blow_up_bit_identical_to_solve_ivp():
    # with a slope cap of 2, shots of the (2, 1) profile (root a ~ 1.709)
    # blow up upward far above the root and downward for a << 0; the rest
    # land finite
    cfg = ShootingConfig(slope_cap=2.0)
    got = []
    for a in (-20.0, -5.0, -2.0, 0.5, 1.8, 5.0, 20.0):
        want = _miss_via_solve_ivp(a, 2, 1.0, cfg)
        assert expander._miss(a, 2, 1.0, cfg) == want
        got.append(want)
    assert np.inf in got and -np.inf in got
    assert np.isfinite(got).any()


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
def test_miss_below_rtol_floor_matches_clamped_oracles():
    # LSODA's constructor raises an rtol under 100*eps to that floor; the
    # direct stepping must inherit the clamp, not pass 1e-15 to the stepper
    cfg = ShootingConfig(ode_rtol=1e-15)
    for a in (0.5, 1.0, 1.709, 3.0):
        want = _miss_via_solve_ivp(a, 2, 1.0, cfg)
        assert np.isfinite(want)
        assert _seed_miss(a, 2, 1.0, cfg) == want
        assert expander._miss(a, 2, 1.0, cfg) == want


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small",
                            "ignore:.*Excess accuracy requested")
def test_failed_shot_raises_with_scanned():
    # rtol below the floor with atol = 0 makes LSODA stop with a bad istate
    cfg = ShootingConfig(ode_rtol=1e-20, ode_atol=0.0)
    with pytest.raises(ShootingError):
        _miss_via_solve_ivp(1.0, 2, 1.0, cfg)
    with pytest.raises(ShootingError,
                       match=r"integration failed at a=1.0: LSODA istate -2 "
                             r"\(Excess accuracy requested") as info:
        expander._miss(1.0, 2, 1.0, cfg)
    assert info.value.scanned == [1.0]
    with pytest.raises(ShootingError, match="Excess accuracy") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0), cfg)
    assert info.value.scanned == [1.0]


def test_nan_miss_raises_with_scanned(monkeypatch):
    # a NaN miss compares false with 0 and used to count as an undershoot
    expander._shoot_profile.cache_clear()
    calls = []

    def fake_miss(a, n, beta, cfg):
        calls.append(a)
        return np.nan if abs(a - 1.7) < 0.05 else a - 1.7

    monkeypatch.setattr(expander, "_miss", fake_miss)
    # bracket 1.0, 1.5, 2.25; bisection 1.875, then 1.6875 lands in the hole
    with pytest.raises(ShootingError, match="NaN") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert info.value.scanned == calls == [1.0, 1.5, 2.25, 1.875, 1.6875]
    # a NaN while bracketing stops the scan at once
    calls.clear()
    monkeypatch.setattr(expander, "_miss", lambda a, *_: calls.append(a) or np.nan)
    with pytest.raises(ShootingError, match="NaN") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert info.value.scanned == calls == [1.0]
    assert expander._shoot_profile.cache_info().currsize == 0


def test_report_counts_shots(monkeypatch):
    expander._shoot_profile.cache_clear()
    calls = []
    shot = expander._miss
    monkeypatch.setattr(expander, "_miss",
                        lambda *args: calls.append(args[0]) or shot(*args))
    prof = solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert prof.report["shots"] == len(calls) == 52
    assert solve_expander_profile(ConeProfile.radial(2, 0.0)).report["shots"] == 0


def test_value_at_bit_identical_to_evaluate(profile21):
    # spline branch: random radii, every knot, both ends; tail branch past
    # rho_max, where numpy's power ufunc must be kept
    rm = profile21.rho_max
    rng = np.random.default_rng(21)
    inside = np.concatenate([rng.uniform(0.0, rm, 2000), profile21.rho,
                             [0.0, np.nextafter(rm, 0.0), rm]])
    outside = np.concatenate([[np.nextafter(rm, np.inf)],
                              rng.uniform(rm, 1e4, 2000), np.geomspace(rm, 1e8, 200)[1:]])
    for rho in (inside, outside):
        want = profile21.evaluate(rho)
        got = np.array([profile21.value_at(r) for r in rho.tolist()])
        assert got.tobytes() == want.tobytes()
    assert type(profile21.value_at(1.0)) is float
    assert type(profile21.value_at(2 * rm)) is float


# ---------------------------------------------------------------------------
# the shared profile cache


def test_profile_cache_returns_same_object():
    prof = solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert solve_expander_profile(ConeProfile.radial(2, 1)) is prof
    assert solve_expander_profile(ConeProfile.radial(2, 1.0),
                                  ShootingConfig()) is prof


def test_profile_cache_keys_on_config():
    prof = solve_expander_profile(ConeProfile.radial(2, 1.0))
    other = solve_expander_profile(ConeProfile.radial(2, 1.0),
                                   ShootingConfig(asym_tol=2e-4))
    assert other is not prof
    # asym_tol only gates the postcondition; the shots are the same
    assert other.a == prof.a


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_profile_arrays_read_only(beta):
    prof = solve_expander_profile(ConeProfile.radial(2, beta))
    for arr in (prof.rho, prof.phi, prof.phi_prime, prof.node_residual):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        prof.phi[0] = 0.0


def test_criteria_share_one_solve_per_profile():
    # criteria 1, 5 and 14 all use the (2, 1) expander: one uncached solve
    expander._shoot_profile.cache_clear()
    for criterion in (acceptance.expander_self_similarity,
                      acceptance.two_sided_convergence,
                      acceptance.family_uniformity):
        ok, detail = criterion(quick=True)
        assert ok, detail
    info = expander._shoot_profile.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 2
