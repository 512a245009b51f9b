import importlib.util
import json
import math
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.integrate import LSODA, solve_ivp

from coneflow import acceptance, expander, flow
from coneflow.cones import ConeProfile
from coneflow.errors import DomainError, ParameterError, ShootingError
from coneflow.expander import (evaluate_U, expander_time_derivative,
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
    # the report's residual is the shooting solver's own defect measure
    nodes, phi, p = profile21.rho, profile21.phi, profile21.phi_prime
    substeps = expander._rk4_substeps(nodes, phi, p, 2)
    defect = expander._rk4_defect(nodes, phi, p, 2, substeps)
    assert profile21.report["ode_residual"] == np.max(defect[:-1])
    assert np.max(defect) < 1e-7


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


def test_evaluate_U_rejects_nan_and_infinite_time(profile21):
    # NaN passed t <= 0 and read NaN; t = inf read U = inf and dU/dt = 0
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="t > 0 and finite"):
            evaluate_U(profile21, np.array([1.0]), t)
        with pytest.raises(DomainError, match="t > 0 and finite"):
            expander_time_derivative(profile21, np.array([1.0]), t)


def test_evaluate_U_takes_a_column_of_times(profile21):
    # one row per time, bit for bit one call per time, on radii that reach
    # the tail past rho_max at every time; dU/dt broadcasts the same way
    r = np.linspace(0.0, 300.0, 1001)
    times = np.array([1e-12, 0.01, 0.5, 1.0, 7.3, 50.0, 1e4])
    for fn in (evaluate_U, expander_time_derivative):
        want = np.stack([fn(profile21, r, float(t)) for t in times])
        got = fn(profile21, r, times[:, None])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_evaluate_U_refuses_a_bad_entry_anywhere_in_a_column(profile21, bad):
    times = np.array([[0.5], [1.0], [2.0]])
    times[1, 0] = bad
    for fn in (evaluate_U, expander_time_derivative):
        with pytest.raises(DomainError, match="t > 0 and finite"):
            fn(profile21, np.array([1.0, 2.0]), times)


def test_profile_evaluation_rejects_radii_off_the_half_line(profile21):
    # the spline used to extrapolate past the axis: phi(-1) read 1.92277
    # and phi'(-1) -0.42738, plausible next to phi(1) = 1.92046
    for rho in (-1.0, -1e-300, math.nan, np.array([0.0, 2.0, -3.0]),
                np.array([1.0, math.nan])):
        for fn in (profile21.evaluate, profile21.evaluate_prime):
            with pytest.raises(DomainError, match="radii >= 0"):
                fn(rho)
    for fn in (evaluate_U, expander_time_derivative):
        with pytest.raises(DomainError, match="radii >= 0"):
            fn(profile21, np.array([-1.0]), 1.0)
    # the axis itself, signed either way, is on the half-line
    assert profile21.evaluate(-0.0) == profile21.evaluate(0.0) == profile21.a
    assert profile21.evaluate_prime(np.array([-0.0, 0.0])).tolist() == [0.0, 0.0]


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


def test_angular_relaxation_consistent_with_radial(monkeypatch):
    # the 2-d relaxation solved over an isotropic cone must reproduce the
    # 1-d shooting value at the axis, up to the coarse-grid error
    monkeypatch.setattr(expander, "_RELAX_TAU_MAX", 20.0)
    solves = []
    solve = flow.solve_band
    monkeypatch.setattr(flow, "solve_band",
                        lambda *args: solves.append(args[2].shape) or solve(*args))
    k = ConeProfile.angular(lambda th: np.ones_like(th), m=16)
    ang = relax_angular_expander(k, rho_max=8.0, nr=40, ntheta=16)
    assert ang.converged
    # the run reports its solver work
    assert ang.newton_iters == len(solves) >= ang.steps
    assert ang.center_height() == pytest.approx(1.7090957539, abs=0.05)
    above = ang.solution.values - k.on_grid(ang.solution.spec).values
    assert np.min(above) > -1e-8


def test_angular_relaxation_rejects_a_cone_that_is_not_mean_convex(monkeypatch):
    # gamma + gamma'' = 1 - 1.5 cos 2theta < 0 at theta = 0: outside the
    # theorem, refused before any step; a(m^2 - 1) = 0.8 stays mean convex
    steps = []
    take = flow.step
    monkeypatch.setattr(flow, "step", lambda *a, **kw: steps.append(1) or take(*a, **kw))
    monkeypatch.setattr(expander, "_RELAX_TAU_MAX", 0.1)
    k = ConeProfile.angular(lambda th: 1.0 + 0.5 * np.cos(2 * th), m=64)
    with pytest.raises(ParameterError, match="not mean convex"):
        relax_angular_expander(k, rho_max=6.0, nr=10, ntheta=8)
    assert not steps
    k = ConeProfile.angular(lambda th: 1.0 + 0.1 * np.cos(3 * th), m=64)
    assert relax_angular_expander(k, rho_max=6.0, nr=10, ntheta=8).steps == 2


def _recorded_workload(name, size, workdir):
    """The benchmark workload ``name`` built at the seed its reference file
    records and run once, with the science numbers that file holds for
    ``size`` ("full" or "tiny").  Only reads ``perfbench/``."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    loader = importlib.util.spec_from_file_location("perfbench_workloads",
                                                    bench / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    reference = json.loads((bench / "reference.json").read_text())
    workload = workloads.WORKLOADS[name](reference["seed"], size == "tiny", str(workdir))
    workload.setup()
    workload.run()
    return workload, reference[size][name]


def test_polar_relax_benchmark_keeps_its_recorded_center_height(tmp_path):
    # the benchmark's polar-relax workload at the seed its reference file
    # records: the center height must match the file within the benchmark's
    # own 1e-12 relative check, so a change that moves the science number
    # fails here before the benchmark runs
    workload, recorded = _recorded_workload("polar-relax", "full", tmp_path)
    want = recorded["center_height"]
    assert abs(workload.science["center_height"] - want) <= 1e-12 * abs(want)
    assert all(ok for _, ok in workload.checks())


@pytest.mark.parametrize("name", ["expander-sweep", "radial-fixed-dt"])
def test_tiny_profile_benchmarks_keep_their_recorded_science(tmp_path, name):
    # the expander-sweep axis heights, and the radial-fixed-dt axis height
    # and psi sups, of the tiny workloads at the recorded seed: a change to
    # a profile's bits fails here, within the benchmark's own 1e-12
    # relative check, before the benchmark runs
    workload, recorded = _recorded_workload(name, "tiny", tmp_path)
    assert workload.science.keys() == recorded.keys()
    for key, want in recorded.items():
        assert abs(workload.science[key] - want) <= 1e-12 * abs(want), key
    assert all(ok for _, ok in workload.checks())


def _sparse_lu_solve(kl, ku, ab, b):
    """The band system solved by SuperLU in its default (COLAMD) column
    order, an independent reference for flow.solve_band."""
    n = ab.shape[1]
    i, j = np.indices(ab.shape)
    rows = i - (kl + ku) + j
    keep = (ab != 0.0) & (rows >= 0) & (rows < n)
    M = scipy.sparse.csc_matrix((ab[keep], (rows[keep], j[keep])), shape=(n, n))
    return scipy.sparse.linalg.splu(M).solve(b)


def test_angular_relaxation_matches_default_column_order(monkeypatch):
    # gbsv's banded LU and SuperLU's COLAMD order round the Newton updates
    # differently, so the relaxations agree to round-off, with the same
    # solver work
    monkeypatch.setattr(expander, "_RELAX_TAU_MAX", 2.0)
    k = ConeProfile.angular(lambda th: 1.0 + 0.08 * np.cos(2 * th), m=16)
    kw = dict(rho_max=6.0, nr=16, ntheta=8)
    natural = relax_angular_expander(k, **kw)
    solves = []
    monkeypatch.setattr(flow, "solve_band",
                        lambda *args: solves.append(1) or _sparse_lu_solve(*args))
    colamd = relax_angular_expander(k, **kw)
    assert len(solves) == colamd.newton_iters
    assert (natural.steps, natural.newton_iters) == (colamd.steps,
                                                     colamd.newton_iters)
    ref = colamd.solution.values
    gap = np.max(np.abs(natural.solution.values - ref))
    assert gap <= 1e-12 * np.max(np.abs(ref))


def test_angular_relaxation_matches_ring_major_numbering(monkeypatch):
    # the band system numbers each ring's angles in zigzag order; numbered
    # ring-major instead (kl = ku = 2*ntheta - 1), the LU pivots in another
    # order, so the relaxations agree to round-off, with the same solver work
    monkeypatch.setattr(expander, "_RELAX_TAU_MAX", 2.0)
    k = ConeProfile.angular(lambda th: 1.0 + 0.08 * np.cos(2 * th), m=16)
    kw = dict(rho_max=6.0, nr=16, ntheta=8)
    zigzag = relax_angular_expander(k, **kw)
    # each relaxation builds a fresh grid, so its band layout is built anew
    monkeypatch.setattr(flow, "_zigzag", np.arange)
    ring_major = relax_angular_expander(k, **kw)
    band = flow._polar_band(ring_major.solution.spec)
    assert np.array_equal(band.order, np.arange(16 * 8))
    assert band.kl == band.ku == 2 * 8 - 1
    assert (zigzag.steps, zigzag.newton_iters) == (ring_major.steps,
                                                   ring_major.newton_iters)
    ref = ring_major.solution.values
    assert np.max(np.abs(zigzag.solution.values - ref) / np.abs(ref)) <= 1e-12


# ---------------------------------------------------------------------------
# shooting: the direct LSODA stepping against frozen oracles.  The RHS and the
# step loop below are the package's earlier forms, kept here verbatim so the
# oracles do not move with the code under test, and so are the shooting
# values they run with.

_SEED_VALUES = dict(rho_max=40.0, node_spacing=0.01, ode_rtol=1e-11, ode_atol=1e-12,
                    bracket_start=0.5, bracket_growth=1.5, bracket_max_tries=60,
                    bisect_iters=80, slope_cap=1e7)


def _seed_config(**values):
    return SimpleNamespace(**{**_SEED_VALUES, **values})


def _seed_nodes(cfg):
    """The profile nodes 0, node_spacing, ..., rho_max."""
    nodes = np.round(np.arange(0.0, cfg.rho_max + cfg.node_spacing / 2,
                               cfg.node_spacing), 12)
    nodes[-1] = cfg.rho_max
    return nodes


@pytest.fixture
def shooting(monkeypatch):
    """``shooting(**values)`` sets expander's shooting constants, named in
    lower case (``slope_cap`` sets ``_SLOPE_CAP``), for the rest of the test
    and returns the whole setting for the frozen oracles.  The profile cache
    is keyed by (n, beta) alone, so each call and the teardown empty it."""

    def use(**values):
        for name, value in values.items():
            monkeypatch.setattr(expander, f"_{name.upper()}", value)
        expander._shoot_profile.cache_clear()
        return _seed_config(**values)

    yield use
    expander._shoot_profile.cache_clear()


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
    out = np.empty(2)
    buf = memoryview(out)
    for n in (2, 3, 4):
        for r, y in zip(rho.tolist(), np.stack([phi, p], axis=1)):
            got = expander._ode_rhs(r, y, float(n - 1), math.inf, out, buf)
            want = _seed_ode_rhs(r, y, n)
            assert got is out
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n,beta", [(2, 0.5), (2, 1.0), (3, 1.0), (3, 2.0), (4, 1.0)])
def test_miss_bit_identical_to_solve_ivp(shooting, n, beta):
    # positive and negative axis heights; with a slope cap of 2 or 5 the shots
    # far from the root blow up, with the default cap they all land finite.
    # A shot that meets half the cap has blown up, even where the oracle's
    # accepted slopes stay below the full cap; every other miss is the
    # oracle's, and an oracle blow-up is the same signed inf
    grid = np.geomspace(0.05, 50.0, 9)
    for cap in (1e7, 2.0, 5.0):
        cfg = shooting(slope_cap=cap)
        for a in np.concatenate([grid, -grid]).tolist():
            want = _miss_via_solve_ivp(a, n, beta, cfg)
            assert _seed_miss(a, n, beta, cfg) == want
            got = expander._miss(a, n, beta)
            assert got == want or (cap < 1e7 and np.isinf(got) and np.isfinite(want))


def test_miss_blow_up_bit_identical_to_solve_ivp(shooting):
    # with a slope cap of 2, shots of the (2, 1) profile (root a ~ 1.709)
    # blow up upward far above the root and downward for a << 0, as the
    # oracle's do; a = -2 and 1.8 land in the oracle at a slope between 1
    # and 2 and meet half the cap, a blow-up here; a = 0.5 lands in both
    cfg = shooting(slope_cap=2.0)
    for a in (-20.0, -5.0, 0.5, 5.0, 20.0):
        want = _miss_via_solve_ivp(a, 2, 1.0, cfg)
        assert expander._miss(a, 2, 1.0) == want
        assert np.isinf(want) == (a != 0.5)
    for a in (-2.0, 1.8):
        assert np.isfinite(_miss_via_solve_ivp(a, 2, 1.0, cfg))
        assert expander._miss(a, 2, 1.0) == math.copysign(math.inf, a)


def _max_accepted_slope(a, n, cfg):
    """max |phi'| over the accepted steps of a shot, as ``LSODA.step`` takes them."""
    rho0, y0 = expander._series_start(a, n)
    solver = LSODA(lambda rho, y: _seed_ode_rhs(rho, y, n), rho0, y0, cfg.rho_max,
                   rtol=cfg.ode_rtol, atol=cfg.ode_atol)
    top = 0.0
    while solver.status == "running":
        solver.step()
        top = max(top, abs(solver.y[1]))
    return top


def test_guard_trips_at_half_cap_and_on_nan():
    def rhs(rho, p, half_cap):
        out = np.empty(2)
        return expander._ode_rhs(rho, np.array([2.0, p]), 1.0, half_cap, out,
                                 memoryview(out))

    # strictly inside (-half_cap, half_cap), signed zeros and subnormals
    # included, the guard lets the oracle's value through
    for p in (0.99, -0.99, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
              0.0, -0.0, 5e-324, -5e-324, 2.5e-310):
        below = rhs(1.0, p, 1.0)
        want = _seed_ode_rhs(1.0, np.array([2.0, p]), 2)
        assert below.tobytes() == np.array(want).tobytes()
        assert below.tobytes() == rhs(1.0, p, math.inf).tobytes()
    # at +/-half_cap exactly, beyond it, at +/-inf and on NaN it trips
    for p in (1.0, -1.0, 5.0, -5.0, np.inf, -np.inf, np.nan):
        with pytest.raises(expander._SlopeGuard) as info:
            rhs(3.0, p, 1.0)
        rho, slope = info.value.args
        assert rho == 3.0 and (slope == p or np.isnan(p) and np.isnan(slope))


def test_guard_margin_shot_is_a_blow_up(shooting):
    # a cap between max|p| and 2 max|p| of a landing shot: both oracles
    # land finite, but the shot meets half the cap and has blown up upward
    a, n, beta = 1.709, 2, 1.0
    top = _max_accepted_slope(a, n, _seed_config())
    cfg = shooting(slope_cap=1.5 * top)
    assert np.isfinite(_seed_miss(a, n, beta, cfg))
    assert np.isfinite(_miss_via_solve_ivp(a, n, beta, cfg))
    assert expander._miss(a, n, beta) == np.inf


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
def test_miss_below_rtol_floor_matches_clamped_oracles(shooting):
    # LSODA's constructor raises an rtol under 100*eps to that floor; the
    # direct stepping must inherit the clamp, not pass 1e-15 to the stepper
    cfg = shooting(ode_rtol=1e-15)
    for a in (0.5, 1.0, 1.709, 3.0):
        want = _miss_via_solve_ivp(a, 2, 1.0, cfg)
        assert np.isfinite(want)
        assert _seed_miss(a, 2, 1.0, cfg) == want
        assert expander._miss(a, 2, 1.0) == want


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small",
                            "ignore:.*Excess accuracy requested")
def test_failed_shot_raises_with_scanned(shooting):
    # rtol below the floor with atol = 0 makes LSODA stop with a bad istate
    cfg = shooting(ode_rtol=1e-20, ode_atol=0.0)
    with pytest.raises(ShootingError):
        _miss_via_solve_ivp(1.0, 2, 1.0, cfg)
    with pytest.raises(ShootingError,
                       match=r"integration failed at a=1.0: LSODA istate -2 "
                             r"\(Excess accuracy requested") as info:
        expander._miss(1.0, 2, 1.0)
    assert info.value.scanned == [1.0]
    with pytest.raises(ShootingError, match="Excess accuracy") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert info.value.scanned == [1.0]
    # the node solve raises with its istate too
    with pytest.raises(ShootingError, match=r"node solve failed at a=1.0: LSODA istate -2 "
                                            r"at rho=\S+ \(n=2\)$") as info:
        expander._node_values(1.0, 2, _seed_nodes(cfg))
    assert info.value.scanned == [1.0]


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small",
                            "ignore:.*Excess accuracy requested")
def test_shots_share_one_lsoda_setup_without_leaks(shooting):
    # every shot and node solve resets the one LSODA set-up of its
    # tolerances; after a shot that trips the guard, one that fails with a
    # bad istate, one that stops at the step bound and a node solve, the
    # next shot is still the fresh public LSODA object's, bit for bit
    a, n, beta = 1.709, 2, 1.0
    steps = expander._MAX_STEPS

    def next_shot_is_fresh():
        cfg = shooting(slope_cap=1e7, ode_rtol=1e-11, ode_atol=1e-12, max_steps=steps)
        assert expander._miss(a, n, beta) == _seed_miss(a, n, beta, cfg)

    next_shot_is_fresh()
    assert expander._lsoda(a, n)[0] is expander._lsoda(0.5, 3)[0]
    shooting(slope_cap=2.0)
    assert expander._miss(5.0, n, beta) == math.inf
    next_shot_is_fresh()
    shooting(ode_rtol=1e-20, ode_atol=0.0)
    with pytest.raises(ShootingError, match="istate -2"):
        expander._miss(a, n, beta)
    next_shot_is_fresh()
    shooting(max_steps=100)
    with pytest.raises(ShootingError, match="istate -1"):
        expander._miss(a, n, beta)
    next_shot_is_fresh()
    expander._node_values(a, n, _seed_nodes(_seed_config()))
    next_shot_is_fresh()


def test_nan_miss_raises_with_scanned(monkeypatch):
    # a NaN miss compares false with 0 and used to count as an undershoot
    expander._shoot_profile.cache_clear()
    real_miss = expander._miss
    calls = []

    def fake_miss(a, n, beta):
        calls.append(a)
        return np.nan if abs(a - 1.7) < 0.05 else a - 1.7

    monkeypatch.setattr(expander, "_miss", fake_miss)
    # bracket 1.0, 1.5, 2.25; the first secant shot, 1.7, lands in the hole
    with pytest.raises(ShootingError, match="NaN") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert info.value.scanned == calls == [1.0, 1.5, 2.25, 1.7]
    # a NaN while bracketing stops the scan at once
    calls.clear()
    monkeypatch.setattr(expander, "_miss", lambda a, *_: calls.append(a) or np.nan)
    with pytest.raises(ShootingError, match="NaN") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert info.value.scanned == calls == [1.0]
    assert expander._shoot_profile.cache_info().currsize == 0
    # a real shot whose slope turns NaN trips the guard and misses by NaN
    monkeypatch.setattr(expander, "_miss", real_miss)
    real_rhs = expander._ode_rhs

    def poisoned(rho, y, nm1, half_cap, out, buf):
        dy = real_rhs(rho, y, nm1, half_cap, out, buf)
        if rho >= 1.0:
            dy[1] = math.nan
        return dy

    monkeypatch.setattr(expander, "_ode_rhs", poisoned)
    assert np.isnan(expander._miss(1.0, 2, 1.0))
    with pytest.raises(ShootingError, match=r"shot at a=1.0 missed by NaN") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert info.value.scanned == [1.0]
    assert expander._shoot_profile.cache_info().currsize == 0


@pytest.mark.parametrize("component", [0, 1])
def test_nan_profile_node_raises_shooting_error(monkeypatch, component):
    # a NaN node compares false with both postcondition tolerances and used
    # to escape as an untyped ValueError from the spline
    expander._shoot_profile.cache_clear()
    real = expander._node_values

    def poisoned(*args):
        y = real(*args)
        y[component, 500] = np.nan
        return y

    monkeypatch.setattr(expander, "_node_values", poisoned)
    with pytest.raises(ShootingError, match="ODE defect nan") as info:
        solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert info.value.scanned == [pytest.approx(1.7090957539, abs=5e-9)]
    assert expander._shoot_profile.cache_info().currsize == 0


def _nodes_via_solve_ivp(a, n, cfg):
    """The node solve as solve_ivp computes it: t_eval at the profile nodes,
    blow-up event.  Returns the profile nodes and the solve_ivp result."""
    nodes = _seed_nodes(cfg)
    rho0, y0 = expander._series_start(a, n)

    def blow_up(rho, y, *_args):
        return cfg.slope_cap - abs(y[1])

    blow_up.terminal = True
    return nodes, solve_ivp(_seed_ode_rhs, (rho0, cfg.rho_max), y0, args=(n,),
                            method="LSODA", rtol=cfg.ode_rtol, atol=cfg.ode_atol,
                            t_eval=nodes[1:], events=blow_up)


@pytest.mark.parametrize("n,a,cap", [
    (2, 1.7090957539, 1e7),
    (2, 1.5, 1e7),
    (2, 0.8762797460, 1e7),
    (3, 2.20568655, 1e7),
    (3, 4.28042808, 1e7),
    (4, 2.6151274846, 1e7),
    (4, 4.0, 1e7),
    (2, 1.7090957539, 1.5),
], ids=["2-1-root", "2-1-off-root", "2-0.5-root", "3-1-root", "3-2-root",
        "4-1-root", "4-1-off-root", "2-1-cap-fallback"])
def test_node_values_bit_identical_to_solve_ivp(shooting, n, a, cap):
    # the stepper loop against solve_ivp's t_eval output at the profile
    # roots of the (n, beta) in each id and off them; under a cap of 1.5
    # solve_ivp lands (max |phi'| is 0.9994), but the node solve meets half
    # the cap, where the solve_ivp fallback used to run, and now raises
    cfg = shooting(slope_cap=cap)
    nodes, want = _nodes_via_solve_ivp(a, n, cfg)
    assert want.status == 0
    if cap < 2.0:
        with pytest.raises(ShootingError, match="converged shot blew up") as info:
            expander._node_values(a, n, nodes)
        assert info.value.scanned == [a]
        return
    got = expander._node_values(a, n, nodes)
    assert got.shape == want.y.shape and got.tobytes() == want.y.tobytes()


def test_nordsieck_table_gathers_the_fortran_ordered_history():
    # for every LSODA order the table gathers rwork's Nordsieck entries
    # into the (2, q+1) array scipy's dense output reshapes, C-ordered
    rwork = np.random.default_rng(13).standard_normal(20 + 2 * 13 + 8)
    for q in range(13):
        want = np.reshape(rwork[20:20 + 2 * (q + 1)], (2, q + 1), order="F")
        got = rwork[expander._NORDSIECK[q]]
        assert got.shape == (2, q + 1) and got.flags.c_contiguous
        assert got.tobytes() == want.copy().tobytes()
    assert len(expander._NORDSIECK) == len(expander._POWERS) == 13


def test_node_values_blow_up_raises_as_solve_ivp_stops(shooting):
    # a = 5 under a cap of 2 stops solve_ivp at the cap; the node solve
    # raises at the first slope of half the cap, before solve_ivp stops
    cfg = shooting(slope_cap=2.0)
    nodes, want = _nodes_via_solve_ivp(5.0, 2, cfg)
    assert want.status == 1
    with pytest.raises(ShootingError, match=r"converged shot blew up: \|phi'\| reached half "
                                            r"the slope cap at rho=\S+ \(n=2\)$") as info:
        expander._node_values(5.0, 2, nodes)
    assert info.value.scanned == [5.0]
    tripped_at = re.search(r"rho=(\S+)", str(info.value)).group(1)
    assert float(tripped_at) <= want.t_events[0][0]


def _seed_shoot_profile(n, beta, cfg):
    """The profile solve with plain bisection, every midpoint shot, as
    first written: the bracket grows from a = 0 until a shot overshoots,
    then bisection runs to ``bisect_iters`` or a width of 1e-15.  The
    defect takes two RK4 substeps per interval."""
    misses = []

    def shoot(a):
        misses.append(expander._miss(a, n, beta))
        return misses[-1]

    a_lo, a_hi = 0.0, max(beta, cfg.bracket_start)
    for _ in range(cfg.bracket_max_tries):
        if shoot(a_hi) > 0:
            break
        a_lo, a_hi = a_hi, a_hi * cfg.bracket_growth
    for i in range(cfg.bisect_iters):
        a_mid = 0.5 * (a_lo + a_hi)
        if a_mid == a_lo or a_mid == a_hi:
            break
        if shoot(a_mid) > 0:
            a_hi = a_mid
        else:
            a_lo = a_mid
        if a_hi - a_lo <= 1e-15 * max(1.0, a_hi):
            break
    a = 0.5 * (a_lo + a_hi)
    nodes = _seed_nodes(cfg)
    y = expander._node_values(a, n, nodes)
    phi = np.concatenate([[a], y[0]])
    phi_p = np.concatenate([[0.0], y[1]])
    defect = expander._rk4_defect(nodes, phi, phi_p, n, 2)
    return SimpleNamespace(a=a, bracket=(a_lo, a_hi), bisections=i + 1, misses=misses,
                           arrays=(nodes, phi, phi_p), ode_residual=np.max(defect[:-1]))


# the six pairs of the seed-0 expander sweep, then the slope-capped config
# whose first bracket shot blows up
_SWEEP_PAIRS = [(2, 0.5273923374642908), (2, 1.353957342752774), (2, 2.2081947047872386),
                (3, 0.40330552710570583), (3, 1.4626540478400545), (3, 2.382551115455544)]


@pytest.mark.parametrize("n,beta,capped", [(n, b, False) for n, b in _SWEEP_PAIRS]
                         + [(2, 1.0, True)])
def test_certified_bisection_bit_identical_to_plain_bisection(shooting, n, beta, capped):
    cfg = shooting(slope_cap=2.0, bracket_start=5.0) if capped else shooting()
    want = _seed_shoot_profile(n, beta, cfg)
    expander._shoot_profile.cache_clear()
    prof = solve_expander_profile(ConeProfile.radial(n, beta))
    assert prof.a == want.a
    assert prof.report["bracket"] == want.bracket
    assert prof.report["bisections"] == want.bisections
    got = (prof.rho, prof.phi, prof.phi_prime)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want.arrays]
    assert prof.report["ode_residual"] == want.ode_residual
    if capped:
        # an infinite bracket end skips the locate phase: no shot is saved
        assert want.misses[0] == np.inf
        assert prof.report["shots"] == len(want.misses)
    else:
        assert prof.report["shots"] <= 40 < len(want.misses)


@pytest.mark.parametrize("n,beta", sorted(REGRESSION_A))
def test_computed_miss_increasing_outside_margin(n, beta):
    # the premise of the certified signs: a shot with |miss| >= margin
    # fixes the sign of every shot beyond it on its side
    root = solve_expander_profile(ConeProfile.radial(n, beta)).a
    margin = expander._certify_margin(n, beta)
    offsets = np.geomspace(1e-13, 1e-2, 23)
    grid = np.concatenate([root * (1.0 - offsets[::-1]), root * (1.0 + offsets)])
    miss = np.array([expander._miss(a, n, beta) for a in grid.tolist()])
    sure = np.abs(miss) >= margin
    assert np.all(np.diff(miss[sure]) > 0)
    assert np.any(miss[sure] < 0) and np.any(miss[sure] > 0) and not np.all(sure)
    for i in np.flatnonzero(sure):
        beyond = miss[:i] if miss[i] < 0 else miss[i + 1:]
        assert np.all((beyond <= 0) if miss[i] < 0 else (beyond > 0))


def test_report_counts_shots(monkeypatch):
    expander._shoot_profile.cache_clear()
    calls = []
    shot = expander._miss
    monkeypatch.setattr(expander, "_miss",
                        lambda *args: calls.append(args[0]) or shot(*args))
    prof = solve_expander_profile(ConeProfile.radial(2, 1.0))
    assert prof.report["shots"] == len(calls) == 34
    assert solve_expander_profile(ConeProfile.radial(2, 0.0)).report["shots"] == 0


def test_stalled_shot_raises_at_the_step_bound():
    # at n = 30 the a = 1.5 bracket shot holds h at 7.9e-7, so it would take
    # some 50 million steps to reach rho_max; the step bound stops it with
    # LSODA's istate
    started = time.perf_counter()
    with pytest.raises(ShootingError, match=r"a=1.5: LSODA istate -1 \(Excess work done.*"
                                            r"after 10000 steps \(n=30, beta=1.0\)") as info:
        solve_expander_profile(ConeProfile.radial(30, 1.0))
    assert time.perf_counter() - started < 2.0
    assert info.value.scanned == [1.5]


def test_node_solve_stops_at_the_step_bound(shooting):
    # the (2, 1) node solve takes 665 steps; under a bound of 100 it raises,
    # and so does a shot
    nodes = _seed_nodes(shooting(max_steps=100))
    with pytest.raises(ShootingError, match=r"100 LSODA steps reached only rho=") as info:
        expander._node_values(1.7090957539, 2, nodes)
    assert info.value.scanned == [1.7090957539]
    with pytest.raises(ShootingError, match=r"istate -1 .* after 100 steps"):
        expander._miss(1.7090957539, 2, 1.0)


def test_steep_profile_defect_is_converged():
    # at beta = 10, h*|dF/dp| reaches 20.2 at rho_max, where two RK4
    # substeps grow a false defect of 6.8e-6; the derived count measures
    # the profile's own, and doubling it moves that by less than 1e-10
    prof = solve_expander_profile(ConeProfile.radial(2, 10.0))
    args = (prof.rho, prof.phi, prof.phi_prime, 2)
    substeps = expander._rk4_substeps(*args)
    assert substeps > 2
    doubled = float(np.max(expander._rk4_defect(*args, 2 * substeps)[:-1]))
    assert prof.report["ode_residual"] <= 1e-8
    assert abs(doubled - prof.report["ode_residual"]) < 1e-10
    # every battery profile keeps two substeps, so its node residual stays
    for n, beta in acceptance._COMBOS:
        other = solve_expander_profile(ConeProfile.radial(n, beta))
        assert expander._rk4_substeps(other.rho, other.phi, other.phi_prime, n) == 2


def test_defect_check_substeps_are_bounded(shooting, monkeypatch):
    # the substep count grows like beta^2 (160,001 at beta = 1000, where the
    # check ran for 43 s); over the bound the solve raises before the check
    # runs.  The (2, 10) profile needs 17
    shooting(rk4_max_substeps=17)
    prof = solve_expander_profile(ConeProfile.radial(2, 10.0))
    assert expander._rk4_substeps(prof.rho, prof.phi, prof.phi_prime, 2) == 17
    shooting(rk4_max_substeps=16)

    def no_check(*args):
        raise AssertionError("the defect check ran")

    monkeypatch.setattr(expander, "_rk4_defect", no_check)
    with pytest.raises(ShootingError, match=r"needs 17 RK4 substeps per node interval, "
                                            r"over the bound 16 \(n=2, beta=10.0\)$") as info:
        solve_expander_profile(ConeProfile.radial(2, 10.0))
    assert info.value.scanned == [prof.a]


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


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_profile_arrays_read_only(beta):
    prof = solve_expander_profile(ConeProfile.radial(2, beta))
    for arr in (prof.rho, prof.phi, prof.phi_prime):
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
