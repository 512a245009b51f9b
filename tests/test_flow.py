import numpy as np
import pytest
from scipy.linalg import solve_banded

from coneflow import flow
from coneflow.cones import ConeProfile
from coneflow.errors import (GridError, NewtonError, ParameterError,
                             StepFailureError)
from coneflow.expander import evaluate_U
from coneflow.flow import (FlowRun, SolverConfig, boundary_values_for,
                           comparison_check, detect_t_delta, evolve, step,
                           _radial_newton_matrix, _radial_residual)
from coneflow.geometry import (GridFunction, GridSpec, mean_curvature,
                               radial_rhs, _radial_derivatives)


def _uniform(n, r_max, count):
    return GridSpec.uniform(n, 0.0, r_max, count)


def test_plane_is_stationary():
    spec = _uniform(2, 10.0, 101)
    u0 = GridFunction(spec, np.full(101, 3.0))
    cfg = SolverConfig(dt_init=0.01, dt_max=0.1, snapshot_dt=0.5,
                       boundary="pin-to-initial")
    run = evolve(u0, 2.0, cfg)
    drift = np.max(np.abs(run.final().values - 3.0))
    assert drift < 1e-10


def test_horizon_must_be_positive():
    spec = _uniform(2, 5.0, 51)
    cfg = SolverConfig(dt_init=0.01, dt_max=0.1, snapshot_dt=0.5)
    with pytest.raises(ParameterError):
        evolve(GridFunction(spec, np.zeros(51)), 0.0, cfg)


def test_snapshot_cadence_exact(cone21):
    spec = _uniform(2, 20.0, 201)
    u0 = cone21.on_grid(spec)
    cfg = SolverConfig(dt_init=1e-3, dt_max=0.037, snapshot_dt=0.25,
                       boundary="pin-to-cone")
    run = evolve(u0, 1.0, cfg, cone=cone21)
    assert np.allclose(run.times, np.arange(0.0, 1.0 + 1e-12, 0.25),
                       atol=1e-12)


def test_expander_is_self_similar_coarse(cone21, profile21):
    # scaled-down version of the headline check: evolve U(.,1) for half a
    # unit of time and compare against the exact rescaling
    spec = _uniform(2, 60.0, 601)
    u0 = profile21.on_grid(spec, 1.0)
    cfg = SolverConfig(dt_init=1e-3, dt_max=5e-3, snapshot_dt=0.25,
                       boundary="pin-to-expander")
    run = evolve(u0, 0.5, cfg, cone=cone21, profile=profile21, t_start=1.0)
    err = np.max(np.abs(run.final().values
                        - evaluate_U(profile21, spec.nodes, 1.5)))
    assert err < 5e-3


def test_cone_flow_lifts_origin(cone21, profile21):
    # flowing the cone itself grows a positive cap resembling a sqrt(t)
    spec = _uniform(2, 40.0, 401)
    cfg = SolverConfig(dt_init=1e-4, dt_max=5e-3, snapshot_dt=0.25,
                       boundary="pin-to-expander")
    run = evolve(cone21.on_grid(spec), 1.0, cfg, cone=cone21,
                 profile=profile21)
    center = run.final().values[0]
    assert center > 0.5 * profile21.a  # solver lag keeps it below a exactly
    assert center < 1.05 * profile21.a
    assert np.all(np.asarray(run.min_H) > -1e-10)


def test_boundary_modes_pin_last_node(cone21, profile21):
    spec = _uniform(2, 30.0, 301)
    u0 = cone21.on_grid(spec)
    for boundary, value_at in (
            ("pin-to-initial", lambda t: u0.values[-1]),
            ("pin-to-cone", lambda t: u0.values[-1]),
            ("pin-to-expander",
             lambda t: float(evaluate_U(profile21, spec.nodes[-1:], t)[0]))):
        cfg = SolverConfig(dt_init=1e-3, dt_max=0.01, snapshot_dt=0.2,
                           boundary=boundary)
        run = evolve(u0, 0.4, cfg, cone=cone21, profile=profile21)
        t_end = run.times[-1]
        assert run.final().values[-1] == pytest.approx(value_at(t_end),
                                                       rel=1e-9)


def test_unknown_boundary_rejected():
    with pytest.raises(ParameterError):
        SolverConfig(dt_init=1e-3, dt_max=0.01, snapshot_dt=0.1,
                     boundary="clamp")


def test_newton_breakdown_raises():
    spec = _uniform(2, 10.0, 51)
    u0 = GridFunction(spec, np.ones(51))
    cfg = SolverConfig(dt_init=1.0, dt_max=1.0, dt_min=0.9, adaptive=False,
                       newton_tol=1e-30, newton_max_iter=1, snapshot_dt=1.0)
    with pytest.raises((NewtonError, StepFailureError)):
        evolve(u0, 2.0, cfg, cone=ConeProfile.radial(2, 0.0))


def test_diagnostics_track_profile(cone21, profile21):
    spec = _uniform(2, 20.0, 201)
    cfg = SolverConfig(dt_init=1e-3, dt_max=0.01, snapshot_dt=0.2)
    run = evolve(cone21.on_grid(spec), 0.4, cfg, cone=cone21,
                 profile=profile21)
    assert len(run.step_times) == len(run.sup_u_minus_U)
    assert np.all(np.isfinite(run.sup_u_minus_U))
    assert np.all(np.isfinite(run.sup_u_minus_k))


def test_comparison_check_ordered_pair(cone21):
    spec = _uniform(2, 10.0, 101)
    cfg = SolverConfig(dt_init=1e-2, dt_max=0.05, snapshot_dt=0.5)
    lo = evolve(GridFunction(spec, spec.nodes.copy()), 1.0, cfg, cone=cone21)
    hi = evolve(GridFunction(spec, spec.nodes + 0.5), 1.0, cfg, cone=cone21)
    rep = comparison_check(hi, lo)
    assert bool(rep)
    assert rep.first_violation is None
    assert len(rep.margins) == len(hi.times)
    with pytest.raises(ParameterError):
        comparison_check(lo, hi)  # initial ordering violated


def test_comparison_check_grid_mismatch(cone21):
    cfg = SolverConfig(dt_init=1e-2, dt_max=0.05, snapshot_dt=0.5)
    a = evolve(GridFunction(_uniform(2, 10.0, 101),
                            _uniform(2, 10.0, 101).nodes + 1.0),
               1.0, cfg, cone=cone21)
    b = evolve(GridFunction(_uniform(2, 10.0, 51),
                            _uniform(2, 10.0, 51).nodes.copy()),
               1.0, cfg, cone=cone21)
    with pytest.raises(GridError):
        comparison_check(a, b)


def test_detect_t_delta_semantics(cone21):
    spec = _uniform(2, 10.0, 101)
    k = cone21.on_grid(spec).values
    run = FlowRun()
    # dips 0.30, 0.08, 0.02 below the cone at successive snapshots
    for t, dip in ((0.0, 0.30), (1.0, 0.08), (2.0, 0.02)):
        vals = k - dip * np.exp(-spec.nodes ** 2)
        run.record_snapshot(t, GridFunction(spec, vals))
    assert detect_t_delta(run, cone21, 0.1) == pytest.approx(1.0)
    assert detect_t_delta(run, cone21, 0.05) == pytest.approx(2.0)
    assert detect_t_delta(run, cone21, 0.5) == pytest.approx(0.0)
    assert detect_t_delta(run, cone21, 0.001) is None


def test_at_time_lookup(cone21):
    spec = _uniform(2, 10.0, 101)
    cfg = SolverConfig(dt_init=1e-2, dt_max=0.05, snapshot_dt=0.5)
    run = evolve(cone21.on_grid(spec), 1.0, cfg, cone=cone21)
    snap = run.at_time(0.5)
    assert snap.spec.nodes.size == 101
    with pytest.raises(ParameterError):
        run.at_time(0.31)


def test_polar_evolution_smoke():
    spec = GridSpec.polar_disk(4.0, 24, 16)
    bump = 0.2 * np.cos(2 * spec.thetas)[None, :] * np.exp(-spec.nodes[:, None] ** 2)
    u0 = GridFunction(spec, np.broadcast_to(1.0 + bump, spec.shape).copy())
    cfg = SolverConfig(dt_init=1e-3, dt_max=5e-3, snapshot_dt=0.05,
                       boundary="pin-to-initial")
    run = evolve(u0, 0.1, cfg)
    final = run.final().values
    assert np.all(np.isfinite(final))
    # anisotropy diffuses away: angular oscillation shrinks
    osc0 = np.ptp(u0.values[0])
    osc1 = np.ptp(final[0])
    assert osc1 < osc0


@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("r_min", [0.0, 0.5])
def test_radial_newton_matrix_matches_fd_jacobian(drift, r_min):
    # r_min > 0 pins the first node (fixed_first); r_min = 0 uses the even
    # extension there
    spec = GridSpec.uniform(2, r_min, 6.0, 25)
    r = spec.nodes
    v = np.sqrt(1.0 + r ** 2) + 0.1 * np.cos(r)
    u_prev = v - 0.01 * np.exp(-r)
    cfg = SolverConfig(similarity_drift=drift)
    dt, outer = 0.05, float(v[-1])
    inner = float(v[0]) if r_min > 0 else None

    def residual(w):
        return _radial_residual(spec, w, u_prev, dt, cfg, outer, inner)

    res, p, q = residual(v)
    ab = _radial_newton_matrix(spec, p, q, dt, cfg, fixed_first=r_min > 0)
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    eps = 1e-7
    fd = np.empty_like(dense)
    for j in range(r.size):
        w = v.copy()
        w[j] += eps
        fd[:, j] = (residual(w)[0] - res) / eps
    assert np.max(np.abs(dense - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_nonfinite_newton_update_raises(monkeypatch, cone21):
    spec = _uniform(2, 10.0, 41)
    u0 = cone21.on_grid(spec)
    cfg = SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.1,
                       boundary="pin-to-cone", adaptive=False)
    monkeypatch.setattr(flow, "solve_banded",
                        lambda l_and_u, ab, b: np.full_like(b, np.nan))
    bv = boundary_values_for(u0, cfg, cone=cone21)
    with pytest.raises(NewtonError) as err:
        step(u0, 1e-2, cfg, bv, 1e-2)
    # the first non-finite residual stops the solve
    history = err.value.residuals
    assert len(history) == 2
    assert np.isfinite(history[0]) and not np.isfinite(history[1])
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, cfg, cone=cone21)
    assert failure.value.residuals


# -- reference: the radial step and diagnostics as first written, before the
# residual, Jacobian and diagnostics shared one operator and one set of
# derivatives per iterate.  Every iterate's residual comes from radial_rhs
# (three per one-iteration step), the Jacobian from its own stencil, and the
# diagnostics from mean_curvature and a fresh cone sample per step.


def _reference_matrix(spec, v, dt, drift, fixed_first):
    r = spec.nodes
    N = r.size
    c = np.zeros((N, 3))
    d = np.zeros((N, 3))
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    c[1:-1, 0] = -hp / (hm * (hm + hp))
    c[1:-1, 1] = (hp - hm) / (hm * hp)
    c[1:-1, 2] = hm / (hp * (hm + hp))
    d[1:-1, 0] = 2.0 / (hm * (hm + hp))
    d[1:-1, 1] = -2.0 / (hm * hp)
    d[1:-1, 2] = 2.0 / (hp * (hm + hp))
    if r[0] == 0.0:
        d[0, 1] = -2.0 / r[1] ** 2
        d[0, 2] = 2.0 / r[1] ** 2
    p, q = _radial_derivatives(spec, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
    one_p2 = 1.0 + p * p
    J = np.zeros((N, 3))
    for sidx in range(3):
        J[:, sidx] = d[:, sidx] / one_p2 \
            - 2.0 * p * q * c[:, sidx] / one_p2 ** 2 \
            + (spec.n - 1) * c[:, sidx] * inv_r
    if r[0] == 0.0:
        J[0, :] = spec.n * d[0, :]
    if drift:
        J += 0.5 * r[:, None] * c
        J[:, 1] -= 0.5
    ab = np.zeros((3, N))
    ab[1, :] = 1.0 - dt * J[:, 1]
    ab[0, 1:] = -dt * J[:-1, 2]
    ab[2, :-1] = -dt * J[1:, 0]
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    if fixed_first:
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
    return ab


def _reference_step(u, dt, config, boundary, t_new):
    spec = u.spec
    outer, inner = boundary.resolve(t_new)
    fixed_first = spec.r_min > 0

    def residual(v):
        rhs = radial_rhs(GridFunction(spec, v)).values
        if config.similarity_drift:
            p = _radial_derivatives(spec, v)[0]
            rhs = rhs + 0.5 * (spec.nodes * p - v)
        res = v - u.values - dt * rhs
        res[-1] = v[-1] - outer
        if inner is not None:
            res[0] = v[0] - inner
        return res

    v = u.values.copy()
    v[-1] = outer
    if inner is not None:
        v[0] = inner
    scale = 1.0 + float(np.max(np.abs(u.values)))
    for it in range(config.newton_max_iter):
        res = residual(v)
        res_norm = float(np.max(np.abs(res)))
        if res_norm <= config.newton_tol * scale:
            return GridFunction(spec, v), it
        ab = _reference_matrix(spec, v, dt, config.similarity_drift, fixed_first)
        delta = solve_banded((1, 1), ab, res)
        lam = 1.0
        for _ in range(5):
            if float(np.max(np.abs(residual(v - lam * delta)))) < res_norm \
                    or lam < 0.2:
                break
            lam *= 0.5
        v = v - lam * delta
    raise NewtonError("reference Newton stalled")


def _reference_evolve(u0, T, config, cone, profile, t_start=0.0):
    boundary = boundary_values_for(u0, config, cone, profile, t_start)
    spec = u0.spec
    out = {"snapshots": [u0.values.copy()], "newton_iters": [], "min_H": [],
           "max_H": [], "sup_u_minus_k": [], "sup_u_minus_U": []}
    t, u = t_start, u0.copy()
    dt = min(config.dt_init, config.dt_max)
    next_snap = t_start + config.snapshot_dt
    lo, hi = config.target_newton
    while t < t_start + T - 1e-12:
        dt_try = min(dt, t_start + T - t, max(next_snap - t, 1e-13))
        try:
            u_new, its = _reference_step(u, dt_try, config, boundary, t + dt_try)
        except NewtonError:
            dt = max(dt_try / 2.0, config.dt_min)
            continue
        t = t + dt_try
        vals = u_new.values
        out["newton_iters"].append(its)
        out["sup_u_minus_k"].append(
            float(np.max(np.abs(vals - cone.on_grid(spec).values))))
        out["sup_u_minus_U"].append(
            float(np.max(np.abs(vals - np.sqrt(t) * profile.evaluate(
                spec.nodes / np.sqrt(t))))) if profile is not None else np.nan)
        H = mean_curvature(u_new).values
        out["min_H"].append(float(np.min(H)))
        out["max_H"].append(float(np.max(H)))
        u = u_new
        if abs(t - next_snap) < 1e-10:
            out["snapshots"].append(u.values.copy())
            next_snap = next_snap + config.snapshot_dt
        elif t >= t_start + T - 1e-12:
            out["snapshots"].append(u.values.copy())
        if config.adaptive:
            if its < lo:
                dt = min(dt * 1.4, config.dt_max)
            elif its > hi:
                dt = max(dt * 0.7, config.dt_min)
    return out


def _bump(spec, height):
    return height * np.exp(-(spec.nodes - 1.0) ** 2)


@pytest.mark.parametrize("case", ["expander-origin-adaptive", "cone-drift",
                                  "annulus"])
def test_radial_flow_bit_identical_to_reference(case, cone21, profile21):
    if case == "expander-origin-adaptive":
        spec = _uniform(2, 20.0, 101)
        u0 = cone21.on_grid(spec)
        cfg = SolverConfig(dt_init=1e-3, dt_max=0.05, snapshot_dt=0.1,
                           boundary="pin-to-expander")
        args = (u0, 0.3, cfg, cone21, profile21)
    elif case == "cone-drift":
        spec = GridSpec.geometric(2, 0.05, 8.0)
        u0 = GridFunction(spec, cone21.on_grid(spec).values + _bump(spec, 0.3))
        cfg = SolverConfig(dt_init=1e-2, dt_max=0.1, snapshot_dt=0.25,
                           boundary="pin-to-cone", similarity_drift=True)
        args = (u0, 0.5, cfg, cone21, None)
    else:
        spec = GridSpec.uniform(2, 0.5, 10.0, 80)
        u0 = GridFunction(spec, cone21.on_grid(spec).values + _bump(spec, 0.5))
        cfg = SolverConfig(dt_init=5e-3, dt_max=5e-3, snapshot_dt=0.05,
                           boundary="pin-to-expander", adaptive=False)
        args = (u0, 0.2, cfg, cone21, profile21)
    ref = _reference_evolve(*args, t_start=1.0 if case == "annulus" else 0.0)
    run = evolve(*args, t_start=1.0 if case == "annulus" else 0.0)
    assert np.array_equal(np.array([s.values for s in run.snapshots]),
                          np.array(ref["snapshots"]))
    for key in ("newton_iters", "min_H", "max_H", "sup_u_minus_k",
                "sup_u_minus_U"):
        assert np.array_equal(getattr(run, key), ref[key], equal_nan=True), key
