import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix

from coneflow import expander, flow, geometry
from coneflow.analysis import bump
from coneflow.cones import ConeProfile
from coneflow.errors import (GridError, NewtonError, ParameterError,
                             StepFailureError)
from coneflow.expander import evaluate_U, relax_angular_expander
from coneflow.flow import (FlowRun, SolverConfig, boundary_values_for,
                           comparison_check, detect_t_delta, evolve, step,
                           _radial_newton_matrix, _residual)
from coneflow.geometry import (GridFunction, GridSpec, graph_rhs,
                               mean_curvature, radial_rhs, _neighbourhood,
                               _polar_jet, _radial_derivatives)


def _uniform(n, r_max, count):
    return GridSpec.uniform(n, 0.0, r_max, count)


def _diagnostics(cone, profile):
    """(traces, on_step): an observer for ``evolve`` that records each
    accepted step's sup|u - k|, sup|u - U| (NaN without a profile), min H
    and max H, in the command line's expressions and order."""
    traces = {"sup_u_minus_k": [], "sup_u_minus_U": [], "min_H": [], "max_H": []}

    def on_step(t, u):
        vals = u.values
        traces["sup_u_minus_k"].append(
            float(np.max(np.abs(vals - cone.on_grid(u.spec).values))))
        traces["sup_u_minus_U"].append(np.nan if profile is None else float(
            np.max(np.abs(vals - evaluate_U(profile, u.spec.nodes, t)))))
        H = mean_curvature(u).values
        traces["min_H"].append(float(np.min(H)))
        traces["max_H"].append(float(np.max(H)))

    return traces, on_step


def test_plane_is_stationary():
    spec = _uniform(2, 10.0, 101)
    u0 = GridFunction(spec, np.full(101, 3.0))
    cfg = SolverConfig(dt_init=0.01, dt_max=0.1, snapshot_dt=0.5,
                       boundary="pin-to-initial")
    run = evolve(u0, 2.0, cfg)
    drift = np.max(np.abs(run.values[-1] - 3.0))
    assert drift < 1e-10


def test_horizon_must_be_positive():
    spec = _uniform(2, 5.0, 51)
    cfg = SolverConfig(dt_init=0.01, dt_max=0.1, snapshot_dt=0.5)
    u0 = GridFunction(spec, np.zeros(51))
    # a horizon inside the 1e-12 landing tolerance would take no step and
    # record no snapshot at t_start + T
    for T, t_start in ((0.0, 0.0), (1e-13, 0.0), (1e-12, 0.0), (1e-11, 1e6)):
        with pytest.raises(ParameterError):
            evolve(u0, T, cfg, t_start=t_start)
    assert evolve(u0, 2e-12, cfg).times.tolist() == [0.0, 2e-12]


def test_start_time_must_be_finite_and_not_before_the_expander(profile21):
    # the expander boundary sqrt(t)*phi(r_max/sqrt(t)) raised a bare
    # ValueError from t_start = -1 and ZeroDivisionError from a first step
    # landing on t = 0, and a NaN start was blamed on the landing tolerance;
    # each is refused before the first step
    spec = _uniform(2, 5.0, 51)
    u0 = profile21.on_grid(spec, 1.0)
    expander_pin = SolverConfig(dt_init=1e-3, dt_max=1e-3, snapshot_dt=0.5,
                                boundary="pin-to-expander")
    for t_start in (-1.0, -1e-3):
        with pytest.raises(ParameterError, match="expander boundary needs t_start >= 0"):
            evolve(u0, 0.01, expander_pin, profile=profile21, t_start=t_start)
    for t_start in (math.nan, math.inf, -math.inf):
        for cfg in (expander_pin, SolverConfig()):
            with pytest.raises(ParameterError, match="t_start must be finite"):
                evolve(u0, 0.01, cfg, profile=profile21, t_start=t_start)
    # pinned to the initial data, a run may start before t = 0
    run = evolve(u0, 0.01, SolverConfig(snapshot_dt=0.5), t_start=-1.0)
    assert run.times[-1] == pytest.approx(-0.99)


def test_step_attempts_past_the_bound_raise(monkeypatch):
    # the plan, 1 / 0.1 = 10 steps at dt_max, fits under the bound; growing
    # by 1.4 per step from dt_init = 1e-9 takes some 55 steps to reach dt_max
    monkeypatch.setattr(flow, "_MAX_STEPS", 20)
    calls = []
    real = flow.step
    monkeypatch.setattr(flow, "step",
                        lambda *args, **kw: calls.append(args[1]) or real(*args, **kw))
    spec = _uniform(2, 5.0, 51)
    cfg = SolverConfig(dt_init=1e-9, dt_max=0.1, snapshot_dt=0.5)
    with pytest.raises(StepFailureError, match="20 step attempts") as err:
        evolve(GridFunction(spec, np.zeros(51)), 1.0, cfg)
    assert len(calls) == 20
    assert err.value.t == pytest.approx(sum(calls)) and err.value.t < 1e-5
    assert err.value.dt == pytest.approx(calls[-1] * 1.4)


def test_a_run_held_at_the_dt_floor_stops(monkeypatch, profile21):
    # `evolve --set r_max=0.001`: the data sits a unit above the pinned
    # expander value one cell from the edge, so Newton converges only at dt
    # near the floor; the run stops after _FLOOR_STREAK such steps instead
    # of stepping on until _MAX_STEPS attempts
    calls = []
    real = flow.step
    monkeypatch.setattr(flow, "step",
                        lambda *args, **kw: calls.append(args[1]) or real(*args, **kw))
    spec = _uniform(2, 0.001, 1501)
    u0 = GridFunction(spec, spec.nodes + bump(spec.nodes, 1.0, 5.0))
    cfg = SolverConfig(dt_init=1e-3, dt_max=0.025, boundary="pin-to-expander")
    with pytest.raises(StepFailureError, match="1000 accepted steps in a row") as err:
        evolve(u0, 10.0, cfg, profile=profile21)
    assert err.value.t < 1e-5 and err.value.dt <= 1e-8
    assert len(calls) < 2 * flow._FLOOR_STREAK


def test_an_adaptive_run_capped_near_the_floor_runs_on():
    # steps at a dt_max near the floor are the configured step, not a stall
    spec = _uniform(2, 5.0, 51)
    cfg = SolverConfig(dt_init=2e-9, dt_max=2e-9, snapshot_dt=1e-6)
    run = evolve(GridFunction(spec, np.zeros(51)), 3e-6, cfg)
    assert len(run.step_times) == 1500 > flow._FLOOR_STREAK
    assert run.times[-1] == pytest.approx(3e-6)


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0, 1.0], np.zeros((3, 11))),
    ([0.0, 2.0, 1.0], np.zeros((3, 11))),
    ([[0.0, 1.0]], np.zeros((2, 11))),
    ([0.0, 1.0], np.zeros((3, 11))),
    ([0.0, 1.0], np.zeros((2, 12))),
    ([0.0, 1.0], np.where(np.arange(11) == 4, np.nan, np.zeros((2, 11)))),
    ([0.0, 1.0], np.full((2, 11), np.inf)),
    ([0.0, 1.0], np.where(np.arange(11) == 10, -np.inf, np.zeros((2, 11)))),
    ([], np.zeros((0, 11))),
], ids=["repeated-time", "decreasing-time", "2d-times", "row-count",
        "grid-shape", "nan", "inf", "minus-inf", "empty"])
def test_flow_run_checks_times_shape_and_values(times, values):
    # a run's times, shape and values are checked when it is built
    spec = _uniform(2, 5.0, 11)
    with pytest.raises(GridError):
        FlowRun(spec, times, values)


def test_evolve_snapshots_the_cadence_and_the_horizon():
    spec = _uniform(2, 5.0, 51)
    u0 = GridFunction(spec, 1.0 + np.exp(-spec.nodes ** 2))
    cfg = SolverConfig(dt_init=0.05, dt_max=0.05, snapshot_dt=0.5)
    run = evolve(u0, 1.05, cfg)
    assert np.allclose(run.times, [0.0, 0.5, 1.0, 1.05], rtol=0, atol=1e-12)
    assert run.values.shape == (4, 51)
    # the run holds its own copy of the initial data
    first = u0.values.copy()
    u0.values[:] = 7.0
    assert np.array_equal(run.values[0], first)


@pytest.mark.parametrize("r_min, drift, error", [(0.5, False, GridError),
                                                 (0.0, True, ParameterError)],
                         ids=["radial-annulus", "radial-drift"])
def test_flow_solves_entire_graphs_only(r_min, drift, error):
    # a radial grid must reach the axis (the grid rejects any other layout
    # when it is built), and the similarity drift is polar only (rejected
    # before the first step)
    cfg = SolverConfig(dt_init=0.01, similarity_drift=drift)
    with pytest.raises(error):
        spec = GridSpec.uniform(2, r_min, 5.0, 21)
        evolve(GridFunction(spec, spec.nodes.copy()), 0.1, cfg)


def test_snapshot_cadence_exact(cone21):
    spec = _uniform(2, 20.0, 201)
    u0 = cone21.on_grid(spec)
    cfg = SolverConfig(dt_init=1e-3, dt_max=0.037, snapshot_dt=0.25,
                       boundary="pin-to-initial")
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
    err = np.max(np.abs(run.values[-1]
                        - evaluate_U(profile21, spec.nodes, 1.5)))
    assert err < 5e-3


def test_cone_flow_lifts_origin(cone21, profile21):
    # flowing the cone itself grows a positive cap resembling a sqrt(t)
    spec = _uniform(2, 40.0, 401)
    cfg = SolverConfig(dt_init=1e-4, dt_max=5e-3, snapshot_dt=0.25,
                       boundary="pin-to-expander")
    diag, on_step = _diagnostics(cone21, profile21)
    run = evolve(cone21.on_grid(spec), 1.0, cfg, profile=profile21,
                 on_step=on_step)
    center = run.values[-1][0]
    assert center > 0.5 * profile21.a  # solver lag keeps it below a exactly
    assert center < 1.05 * profile21.a
    assert len(diag["min_H"]) == len(run.step_times)
    assert np.all(np.asarray(diag["min_H"]) > -1e-10)


def test_boundary_modes_pin_last_node(cone21, profile21):
    spec = _uniform(2, 30.0, 301)
    u0 = cone21.on_grid(spec)
    for boundary, value_at in (
            ("pin-to-initial", lambda t: u0.values[-1]),
            ("pin-to-expander",
             lambda t: float(evaluate_U(profile21, spec.nodes[-1:], t)[0]))):
        cfg = SolverConfig(dt_init=1e-3, dt_max=0.01, snapshot_dt=0.2,
                           boundary=boundary)
        run = evolve(u0, 0.4, cfg, cone=cone21, profile=profile21)
        t_end = run.times[-1]
        assert run.values[-1][-1] == pytest.approx(value_at(t_end), rel=1e-9)


def test_expander_boundary_values_bit_identical_to_evaluate(profile21):
    # the scalar pin-to-expander path gives the float the array path gives;
    # small t puts r/sqrt(t) past rho_max, on the tail
    spec = GridSpec.uniform(2, 0.0, 30.0, 60)
    cfg = SolverConfig(dt_init=1e-3, dt_max=0.01, snapshot_dt=0.2,
                       boundary="pin-to-expander")
    outer = boundary_values_for(GridFunction(spec, np.zeros(60)), cfg,
                                profile=profile21)
    ts = np.concatenate([np.geomspace(1e-3, 0.5, 40), np.linspace(0.5, 9.0, 200)])
    r = spec.r_max
    tail = 0
    for t in ts.tolist():
        value = outer(t)
        tail += r / np.sqrt(t) > profile21.rho_max
        want = float(np.sqrt(t) * profile21.evaluate(np.array([r / np.sqrt(t)]))[0])
        assert type(value) is float and value == want
    assert 0 < tail < len(ts)


def test_unknown_boundary_rejected():
    # there is no pin-to-cone mode: data equal to the cone at r_max is
    # pinned there by pin-to-initial
    for mode in ("clamp", "pin-to-cone"):
        with pytest.raises(ParameterError, match="boundary mode must be one of"):
            SolverConfig(dt_init=1e-3, dt_max=0.01, snapshot_dt=0.1, boundary=mode)


@pytest.mark.parametrize("mode", ["pin-to-initial"])
@pytest.mark.parametrize("spec", [
    GridSpec.uniform(2, 0.0, 5.0, 21), GridSpec.polar_disk(4.0, 10, 16)],
    ids=["radial-origin", "disk"])
def test_boundary_values_match_per_mode_formulas(spec, mode):
    # the outer ring's data equals the initial data's, bit for bit, at every t
    cone = ConeProfile.radial(2, 1.3) if not spec.polar else \
        ConeProfile.angular(lambda th: 1.0 + 0.2 * np.cos(2 * th))
    u0 = GridFunction(spec, cone.on_grid(spec).values + 0.1)
    outer = boundary_values_for(u0, SolverConfig(boundary=mode))
    for t in (0.0, 2.5):
        assert np.array_equal(outer(t), u0.values[-1])


_DISK = pytest.mark.parametrize("spec", [GridSpec.polar_disk(4.0, 10, 16)],
                                ids=["disk"])


@_DISK
def test_polar_evolve_builds_the_stencil_once(monkeypatch, spec):
    # every residual and probe of the run reads one cached table per grid
    geometry._radial_operator.cache_clear()
    built = []
    stencil = geometry._stencil

    def counted(x):
        built.append(x.size)
        return stencil(x)

    monkeypatch.setattr(geometry, "_stencil", counted)
    u0 = _polar_case(spec)
    run = evolve(u0, 0.05, SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.05))
    assert len(run.step_times) == 5 and sum(run.newton_iters) >= 5
    assert built == [spec.nr + 1]  # the antipodal ghost ring's node


def test_newton_breakdown_raises(monkeypatch):
    monkeypatch.setattr(flow, "_DT_MIN", 0.9)
    monkeypatch.setattr(flow, "_NEWTON_MAX_ITER", 1)
    spec = _uniform(2, 10.0, 51)
    u0 = GridFunction(spec, np.ones(51))
    cfg = SolverConfig(dt_init=1.0, dt_max=1.0, adaptive=False,
                       newton_tol=1e-30, snapshot_dt=1.0)
    with pytest.raises((NewtonError, StepFailureError)):
        evolve(u0, 2.0, cfg, cone=ConeProfile.radial(2, 0.0))


def test_diagnostics_track_profile(cone21, profile21):
    spec = _uniform(2, 20.0, 201)
    cfg = SolverConfig(dt_init=1e-3, dt_max=0.01, snapshot_dt=0.2)
    diag, on_step = _diagnostics(cone21, profile21)
    run = evolve(cone21.on_grid(spec), 0.4, cfg, profile=profile21,
                 on_step=on_step)
    assert len(run.step_times) == len(diag["sup_u_minus_U"])
    assert np.all(np.isfinite(diag["sup_u_minus_U"]))
    assert np.all(np.isfinite(diag["sup_u_minus_k"]))


def test_diagnostics_are_opt_in(cone21, profile21):
    # an observer only watches the run: with one, every snapshot, time,
    # step size and Newton count is the same as without, and it sees each
    # accepted step once, at its time, with the state read-only
    spec = GridSpec.geometric(2, 0.05, 20.0)
    u0 = GridFunction(spec, cone21.on_grid(spec).values + _bump(spec, 0.5))
    cfg = SolverConfig(dt_init=1e-3, dt_max=0.05, snapshot_dt=0.1,
                       boundary="pin-to-expander")
    seen = []

    def on_step(t, u):
        seen.append((t, u.values.flags.writeable))
        return "ignored"

    on = evolve(u0, 0.3, cfg, profile=profile21, on_step=on_step)
    off = evolve(u0, 0.3, cfg, profile=profile21)
    assert np.array_equal(on.values, off.values)
    assert np.array_equal(on.times, off.times)
    for key in ("step_times", "step_sizes", "newton_iters"):
        assert getattr(on, key) == getattr(off, key), key
    assert len(on.step_times) > 1
    assert seen == [(t, False) for t in on.step_times]


def test_comparison_check_ordered_pair(cone21):
    spec = _uniform(2, 10.0, 101)
    cfg = SolverConfig(dt_init=1e-2, dt_max=0.05, snapshot_dt=0.5)
    lo = evolve(GridFunction(spec, spec.nodes.copy()), 1.0, cfg, cone=cone21)
    hi = evolve(GridFunction(spec, spec.nodes + 0.5), 1.0, cfg, cone=cone21)
    dx = spec.max_spacing()
    assert comparison_check(hi.values, lo.values, hi.times, dx) is True
    with pytest.raises(ParameterError):
        comparison_check(lo.values, hi.values, hi.times, dx)  # initial ordering violated


def test_comparison_check_reports_the_first_violation():
    # u_a dips 0.5 below u_b at t = 2 and 0.25 at t = 3; the allowance
    # 1e-8 + (t - t0)*dx^2 covers the first dip from dx^2 = 0.25 on and the
    # second from dx^2 = 0.0834 on
    a = np.zeros((4, 101))
    a[2, 40], a[3, 60] = -0.5, -0.25
    b = np.zeros((4, 101))
    times = [0.0, 1.0, 2.0, 3.0]
    for dx2, ordered in [(0.0, False), (0.24, False), (0.25, True)]:
        assert comparison_check(a, b, times, np.sqrt(dx2)) is ordered
    a[2, 40] = 0.0
    for dx2, ordered in [(0.083, False), (0.0834, True)]:
        assert comparison_check(a, b, times, np.sqrt(dx2)) is ordered


@pytest.mark.parametrize("where", ["upper", "lower", "times"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_comparison_check_refuses_nonfinite_snapshots(where, bad):
    # a NaN compares false with every bound, so a NaN snapshot or time
    # passed an ordering that is violated by 0.5
    data = {"upper": np.zeros((3, 11)), "lower": np.zeros((3, 11)),
            "times": np.array([0.0, 1.0, 2.0])}
    data["upper"][2, 4] = -0.5
    data[where][2 if where == "times" else (2, 3)] = bad
    with pytest.raises(GridError, match="finite snapshots and times"):
        comparison_check(data["upper"], data["lower"], data["times"], 0.1)


@pytest.mark.parametrize("dx", [math.nan, math.inf, -0.1])
def test_comparison_check_refuses_a_bad_spacing(dx):
    # dx = NaN or inf made the allowance NaN or inf and passed a violated
    # ordering
    upper, lower = np.zeros((3, 11)), np.zeros((3, 11))
    upper[2, 4] = -0.5
    with pytest.raises(ParameterError, match="finite dx >= 0"):
        comparison_check(upper, lower, [0.0, 1.0, 2.0], dx)


def test_comparison_check_grid_mismatch(cone21):
    cfg = SolverConfig(dt_init=1e-2, dt_max=0.05, snapshot_dt=0.5)
    a = evolve(GridFunction(_uniform(2, 10.0, 101),
                            _uniform(2, 10.0, 101).nodes + 1.0),
               1.0, cfg, cone=cone21)
    b = evolve(GridFunction(_uniform(2, 10.0, 51),
                            _uniform(2, 10.0, 51).nodes.copy()),
               1.0, cfg, cone=cone21)
    dx = a.spec.max_spacing()
    with pytest.raises(GridError):
        comparison_check(a.values, b.values, a.times, dx)
    with pytest.raises(GridError):
        comparison_check(a.values, a.values, a.times[:-1], dx)


def test_detect_t_delta_semantics(cone21):
    spec = _uniform(2, 10.0, 101)
    k = cone21.on_grid(spec).values
    # dips 0.30, 0.08, 0.02 below the cone at successive snapshots
    dips = np.array([0.30, 0.08, 0.02])[:, None]
    run = FlowRun(spec, [0.0, 1.0, 2.0], k - dips * np.exp(-spec.nodes ** 2))
    assert detect_t_delta(run, cone21, 0.1) == pytest.approx(1.0)
    assert detect_t_delta(run, cone21, 0.05) == pytest.approx(2.0)
    assert detect_t_delta(run, cone21, 0.5) == pytest.approx(0.0)
    assert detect_t_delta(run, cone21, 0.001) is None
    for delta in (0.0, float("nan")):
        with pytest.raises(ParameterError):
            detect_t_delta(run, cone21, delta)


def test_comparison_and_t_delta_read_polar_stacks_per_snapshot(cone21):
    # (T, nr, ntheta) stacks against a reference that reads one snapshot at
    # a time; dips at single nodes of later snapshots flip the ordering as
    # the allowance grows with dx, and move the first recovered snapshot
    spec = GridSpec.polar_disk(4.0, 10, 16)
    times = np.array([0.0, 0.5, 1.0, 1.5])
    kv = cone21.on_grid(spec).values
    lower = kv + np.random.default_rng(3).uniform(0.0, 0.01, times.shape + spec.shape)
    upper = lower.copy()
    upper[2, 4, 7] -= 0.2
    upper[3, 9, 0] -= 0.1
    outcomes = set()
    for dx in (0.0, 0.3, 0.45, 0.5, 1.0):
        worst = [np.min(a - b) for a, b in zip(upper, lower)]
        want = not np.any(np.array(worst) < -flow._allowance(times, dx))
        assert comparison_check(upper, lower, times, dx) is want
        outcomes.add(want)
    assert outcomes == {True, False}
    dipped = kv - np.array([0.3, 0.08, 0.02, 0.0])[:, None, None] * np.exp(
        -spec.nodes[:, None] ** 2 - np.cos(spec.thetas) ** 2)
    dipped[3, 5, 11] -= 0.2
    run = FlowRun(spec, times, dipped)
    for delta in (0.001, 0.05, 0.1, 0.25, 0.5):
        hits = [float(np.min(v - kv)) >= -delta for v in run.values]
        assert detect_t_delta(run, cone21, delta) == run.first_time(hits)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", [
    GridSpec.uniform(2, 0.0, 5.0, 21), GridSpec.polar_disk(4.0, 10, 16)],
    ids=["radial-origin", "disk"])
def test_data_slope_with_overflowing_square_is_rejected_before_a_step(monkeypatch,
                                                                      spec):
    # a slope of 1e200, radial on the radial grid and angular (u_theta/r) on
    # the disk, squares to inf without a numpy warning
    def no_step(*args, **kwargs):
        raise AssertionError("the flow took a step")
    monkeypatch.setattr(flow, "step", no_step)
    x = spec.nodes if not spec.polar else spec.nodes[:, None] * np.cos(spec.thetas)
    u0 = GridFunction(spec, 1e200 * x)
    with pytest.raises(ParameterError, match="slope squared is not finite"):
        evolve(u0, 0.1, SolverConfig(dt_init=1e-3, dt_max=1e-2, snapshot_dt=0.05))


def test_polar_evolution_smoke():
    spec = GridSpec.polar_disk(4.0, 24, 16)
    bump = 0.2 * np.cos(2 * spec.thetas)[None, :] * np.exp(-spec.nodes[:, None] ** 2)
    u0 = GridFunction(spec, np.broadcast_to(1.0 + bump, spec.shape).copy())
    cfg = SolverConfig(dt_init=1e-3, dt_max=5e-3, snapshot_dt=0.05,
                       boundary="pin-to-initial")
    run = evolve(u0, 0.1, cfg)
    final = run.values[-1]
    assert np.all(np.isfinite(final))
    # anisotropy diffuses away: angular oscillation shrinks
    osc0 = np.ptp(u0.values[0])
    osc1 = np.ptp(final[0])
    assert osc1 < osc0


@pytest.mark.parametrize("spec", [GridSpec.uniform(2, 0.0, 6.0, 25),
                                  GridSpec.geometric(2, 0.05, 6.0, ratio=1.2)],
                         ids=["uniform", "geometric"])
def test_radial_newton_matrix_matches_fd_jacobian(spec):
    # the r = 0 row uses the even extension, and the geometric grid's rows
    # the nonuniform weights
    r = spec.nodes
    v = np.sqrt(1.0 + r ** 2) + 0.1 * np.cos(r)
    u_prev = v - 0.01 * np.exp(-r)
    cfg = SolverConfig()
    dt, outer = 0.05, float(v[-1])

    def residual(w):
        return _residual(spec, w, u_prev, dt, cfg, outer)

    res, (p, q, one_p2, _) = residual(v)
    lower, diag, upper = _radial_newton_matrix(spec, p, q, one_p2, dt)
    dense = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
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
                       boundary="pin-to-initial", adaptive=False)
    monkeypatch.setattr(flow, "solve_banded",
                        lambda lower, diag, upper, b: np.full_like(b, np.nan))
    bv = boundary_values_for(u0, cfg)
    with pytest.raises(NewtonError) as err:
        step(u0, 1e-2, cfg, bv, 1e-2)
    # the first non-finite residual stops the solve
    history = err.value.residuals
    assert len(history) == 2
    assert np.isfinite(history[0]) and not np.isfinite(history[1])
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, cfg, cone=cone21)
    assert failure.value.residuals


@pytest.mark.parametrize("N", [8, 9, 50, 201, 401])
@pytest.mark.parametrize("dirichlet", [False, True])
def test_solve_banded_matches_scipy(N, dirichlet):
    # the direct gtsv call gives scipy.linalg.solve_banded's bits
    rng = np.random.default_rng(N + 1000 * dirichlet)
    for _ in range(5):
        lower, upper = rng.normal(size=(2, N - 1))
        diag = rng.normal(size=N) + 2.5 * rng.choice((-1.0, 1.0), size=N)
        if dirichlet:
            diag[[0, -1]] = 1.0
            upper[0] = lower[-1] = 0.0
        b = rng.normal(size=N)
        ab = np.zeros((3, N))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
        inputs = [a.copy() for a in (lower, diag, upper, b)]
        x = flow.solve_banded(lower, diag, upper, b)
        assert np.array_equal(x, solve_banded((1, 1), ab, b))
        for before, after in zip(inputs, (lower, diag, upper, b)):
            assert np.array_equal(before, after)  # inputs left untouched


def test_singular_tridiagonal_solve_raises():
    # a zero first column leaves gtsv a zero pivot whatever it swaps
    N = 12
    lower, upper, diag = np.ones(N - 1), np.ones(N - 1), np.full(N, 3.0)
    diag[0] = lower[0] = 0.0
    with pytest.raises(NewtonError, match="info 1"):
        flow.solve_banded(lower, diag, upper, np.ones(N))
    with pytest.raises(NewtonError):
        flow.solve_banded(np.zeros(N - 1), np.zeros(N), np.zeros(N - 1), np.ones(N))


def test_singular_newton_matrix_fails_the_step(monkeypatch, cone21):
    # a singular Newton matrix is a failed step: NewtonError with the
    # residual history, StepFailureError from evolve after dt halving
    spec = _uniform(2, 10.0, 41)
    u0 = cone21.on_grid(spec)
    cfg = SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.1,
                       boundary="pin-to-initial", adaptive=False)
    monkeypatch.setattr(flow, "_radial_newton_matrix",
                        lambda spec, *args: (np.zeros(spec.nr - 1),
                                             np.zeros(spec.nr),
                                             np.zeros(spec.nr - 1)))
    with pytest.raises(NewtonError) as err:
        step(u0, 1e-2, cfg, boundary_values_for(u0, cfg), 1e-2)
    history = err.value.residuals
    assert len(history) == 1 and np.isfinite(history[0])
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, cfg, cone=cone21)
    assert failure.value.residuals == history
    monkeypatch.setattr(flow, "_DT_MIN", 2.5e-3)
    halving = SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.1,
                           boundary="pin-to-initial")
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, halving, cone=cone21)
    assert failure.value.dt == pytest.approx(2.5e-3)


# -- reference: the radial step and diagnostics as first written, before the
# residual, Jacobian and diagnostics shared one operator and one set of
# derivatives per iterate.  Every iterate's residual comes from radial_rhs
# (three per one-iteration step), the Jacobian from its own stencil, and the
# diagnostics from mean_curvature and a fresh cone sample per step.


# the step controls as first set, kept with the reference
_REF_NEWTON_MAX_ITER = 14
_REF_TARGET_NEWTON = (3, 5)
_REF_DT_MIN = 1e-9


def _reference_matrix(spec, v, dt):
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
    J[0, :] = spec.n * d[0, :]
    ab = np.zeros((3, N))
    ab[1, :] = 1.0 - dt * J[:, 1]
    ab[0, 1:] = -dt * J[:-1, 2]
    ab[2, :-1] = -dt * J[1:, 0]
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    return ab


def _reference_step(u, dt, config, boundary, t_new):
    spec = u.spec
    outer = boundary(t_new)

    def residual(v):
        res = v - u.values - dt * radial_rhs(GridFunction(spec, v)).values
        res[-1] = v[-1] - outer
        return res

    v = u.values.copy()
    v[-1] = outer
    scale = 1.0 + float(np.max(np.abs(u.values)))
    for it in range(_REF_NEWTON_MAX_ITER):
        res = residual(v)
        res_norm = float(np.max(np.abs(res)))
        if res_norm <= config.newton_tol * scale:
            return GridFunction(spec, v), it
        ab = _reference_matrix(spec, v, dt)
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
    boundary = boundary_values_for(u0, config, profile=profile)
    spec = u0.spec
    out = {"snapshots": [u0.values.copy()], "newton_iters": [], "min_H": [],
           "max_H": [], "sup_u_minus_k": [], "sup_u_minus_U": []}
    t, u = t_start, GridFunction(u0.spec, u0.values.copy())
    dt = min(config.dt_init, config.dt_max)
    next_snap = t_start + config.snapshot_dt
    lo, hi = _REF_TARGET_NEWTON
    while t < t_start + T - 1e-12:
        dt_try = min(dt, t_start + T - t, max(next_snap - t, 1e-13))
        try:
            u_new, its = _reference_step(u, dt_try, config, boundary, t + dt_try)
        except NewtonError:
            dt = max(dt_try / 2.0, _REF_DT_MIN)
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
                dt = max(dt * 0.7, _REF_DT_MIN)
    return out


def _bump(spec, height):
    return height * np.exp(-(spec.nodes - 1.0) ** 2)


def _rejected_steps(monkeypatch):
    """The step sizes of every step attempt that raises NewtonError."""
    rejected = []
    take = flow.step

    def record(u, dt, *args, **kwargs):
        try:
            return take(u, dt, *args, **kwargs)
        except NewtonError:
            rejected.append(dt)
            raise

    monkeypatch.setattr(flow, "step", record)
    return rejected


@pytest.mark.parametrize("case", ["expander-origin-adaptive", "cone-geometric",
                                  "criterion-10", "adaptive-rejecting"])
def test_radial_flow_bit_identical_to_reference(monkeypatch, case, cone21, profile21):
    # every step of evolve starts from the speed its predecessor's last
    # Newton iterate computed (row N-2 recomputed for the moved outer node);
    # the reference evaluates every residual afresh
    if case == "expander-origin-adaptive":
        spec = _uniform(2, 20.0, 101)
        u0 = cone21.on_grid(spec)
        cfg = SolverConfig(dt_init=1e-3, dt_max=0.05, snapshot_dt=0.1,
                           boundary="pin-to-expander")
        args = (u0, 0.3, cfg, cone21, profile21)
    elif case == "cone-geometric":
        # the bump is 1e-22 at r_max = 8: the outer value is the cone's
        spec = GridSpec.geometric(2, 0.05, 8.0)
        u0 = GridFunction(spec, cone21.on_grid(spec).values + _bump(spec, 0.3))
        assert u0.values[-1] == cone21.beta * spec.r_max
        cfg = SolverConfig(dt_init=1e-2, dt_max=0.1, snapshot_dt=0.25,
                           boundary="pin-to-initial")
        args = (u0, 0.5, cfg, cone21, None)
    elif case == "criterion-10":
        # criterion 10's fixed-step run on its coarser grid, shortened
        spec = _uniform(2, 20.0, 201)
        cfg = SolverConfig(dt_init=1e-4, dt_max=1e-4, snapshot_dt=2.5e-4,
                           boundary="pin-to-expander", newton_tol=1e-12,
                           adaptive=False)
        args = (profile21.on_grid(spec, 1.0), 2e-3, cfg, cone21, profile21, 1.0)
    else:
        # an oscillation the first step of 0.25 cannot take: Newton stalls,
        # and the retry at half the step starts from the same state
        spec = _uniform(2, 20.0, 101)
        wave = 8.0 * np.sin(10.0 * spec.nodes) * np.exp(-(spec.nodes - 3.0) ** 2)
        u0 = GridFunction(spec, cone21.on_grid(spec).values + wave)
        cfg = SolverConfig(dt_init=0.5, dt_max=0.5, snapshot_dt=0.25,
                           boundary="pin-to-initial")
        args = (u0, 0.5, cfg, cone21, None)
    ref = _reference_evolve(*args)
    rejected = _rejected_steps(monkeypatch)
    diag, on_step = _diagnostics(*args[3:5])
    run = evolve(*args, on_step=on_step)
    assert bool(rejected) == (case == "adaptive-rejecting")
    assert np.array_equal(run.values, np.array(ref["snapshots"]))
    assert np.array_equal(run.newton_iters, ref["newton_iters"])
    for key in ("min_H", "max_H", "sup_u_minus_k", "sup_u_minus_U"):
        assert len(diag[key]) == len(ref[key]), key
        assert np.array_equal(diag[key], ref[key], equal_nan=True), key


def test_step_states_carry_their_speed_safely(cone21, profile21):
    # a returned state's values are read-only; replacing them drops what it
    # carries, and a step from it equals a step from a fresh copy
    spec = _uniform(2, 20.0, 101)
    cfg = SolverConfig(dt_init=1e-3, boundary="pin-to-expander")
    bv = boundary_values_for(cone21.on_grid(spec), cfg, profile=profile21)
    u = step(profile21.on_grid(spec, 1.0), 1e-3, cfg, bv, 1.001)
    with pytest.raises(ValueError):
        u.values[3] = 0.0
    want = step(GridFunction(spec, u.values.copy()), 1e-3, cfg, bv, 1.002)
    for _ in range(2):  # the carried data is not used up by a step
        assert np.array_equal(step(u, 1e-3, cfg, bv, 1.002).values, want.values)
    # values replaced (even by read-only ones), or made writable and
    # edited, are evaluated afresh
    replaced = u.values * 1.01
    replaced.setflags(write=False)
    u.values = replaced
    fresh = step(GridFunction(spec, u.values.copy()), 1e-3, cfg, bv, 1.002)
    assert np.array_equal(step(u, 1e-3, cfg, bv, 1.002).values, fresh.values)
    u = step(u, 1e-3, cfg, bv, 1.002)
    u.values.setflags(write=True)
    u.values[50] += 1e-3
    fresh = step(GridFunction(spec, u.values.copy()), 1e-3, cfg, bv, 1.003)
    assert np.array_equal(step(u, 1e-3, cfg, bv, 1.003).values, fresh.values)


# -- polar Newton matrix: exact oracles.  The reference assembly below is the
# polar Jacobian as first written: a hand-derived angular coloring times
# three radial classes, one rhs evaluation per color through graph_rhs, and
# the sparsity rows listed per unknown.


def _reference_rhs(spec, vals, drift):
    speed = graph_rhs(GridFunction(spec, vals)).values
    if drift:
        ur = _polar_jet(spec, _neighbourhood(spec, vals))[0]
        speed = speed + 0.5 * (spec.nodes[:, None] * ur - vals)
    return speed


def _reference_theta_colors(ntheta):
    half = ntheta // 2
    forbidden = set()
    for e in (-2, -1, 0, 1, 2):
        forbidden.add(e % ntheta)
        forbidden.add((half + e) % ntheta)
    for L in range(5, ntheta + 1):
        ok = True
        for c in range(L):
            members = [j for j in range(ntheta) if j % L == c]
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    if (members[b] - members[a]) % ntheta in forbidden \
                            or (members[a] - members[b]) % ntheta in forbidden:
                        ok = False
            if not ok:
                break
        if ok:
            return L
    return ntheta


def _reference_rows_for(spec, i, j):
    nr, nt = spec.nr, spec.ntheta
    rows = []
    for di in (-1, 0, 1):
        ii = i + di
        if ii < 0 or ii >= nr - 1:
            continue
        for dj in (-1, 0, 1):
            rows.append(ii * nt + (j + dj) % nt)
    if i == 0:
        jj = (j + nt // 2) % nt
        for dj in (-1, 0, 1):
            rows.append((jj + dj) % nt)
    return rows


def _reference_polar_matrix(u_vals, spec, dt, drift):
    nr, nt = spec.nr, spec.ntheta
    ntot = nr * nt
    L = _reference_theta_colors(nt)
    base = _reference_rhs(spec, u_vals, drift)
    eps = 1e-7 * (1.0 + float(np.max(np.abs(u_vals))))
    rows_idx, cols_idx, data = [], [], []
    for ci in range(3):
        for cj in range(L):
            mask = np.zeros((nr, nt), dtype=bool)
            mask[ci::3, cj::L] = True
            mask[-1, :] = False
            if not mask.any():
                continue
            pert = u_vals + eps * mask
            dr_flat = ((_reference_rhs(spec, pert, drift) - base) / eps).ravel()
            for i, j in zip(*np.nonzero(mask)):
                for row in _reference_rows_for(spec, int(i), int(j)):
                    if dr_flat[row] != 0.0:
                        rows_idx.append(row)
                        cols_idx.append(i * nt + j)
                        data.append(-dt * dr_flat[row])
    for idx in range(ntot):
        rows_idx.append(idx)
        cols_idx.append(idx)
        data.append(1.0)
    return csc_matrix((data, (rows_idx, cols_idx)), shape=(ntot, ntot))


def _polar_case(spec):
    """An anisotropic initial state on the polar grid ``spec``."""
    r, th = spec.nodes[:, None], spec.thetas[None, :]
    vals = r * (1.0 + 0.1 * np.cos(2 * th)) \
        + 0.3 * np.exp(-r ** 2) * np.cos(3 * th) + 0.5
    return GridFunction(spec, vals)


def _band_to_dense(kl, ku, ab, order):
    """The matrix whose LAPACK band storage is ``ab``, in the band numbering
    ``order`` (band position -> node), returned in the natural ring-major
    numbering; the kl rows left for the LU's fill must arrive zeroed."""
    assert not ab[:kl].any()
    n = ab.shape[1]
    i, j = np.indices((n, n))
    band = (i - j <= kl) & (j - i <= ku)
    M = np.zeros((n, n))
    M[band] = ab[(kl + ku + i - j)[band], j[band]]
    natural = np.empty_like(M)
    natural[np.ix_(order, order)] = M
    return natural


def _captured_newton_solves(monkeypatch, u0, cfg, steps):
    """Every (state, matrix, residual, update) of the polar Newton loop's
    solves while taking ``steps`` fixed implicit steps from u0, all in the
    natural ring-major numbering: the state is the iterate whose speed data
    the update received (the state ``flow._speed`` evaluated that data at,
    or for a carried start the step's starting iterate, which equals it),
    the matrix is the band array the band solve received, expanded through
    the band's order, and the residual and the update are what the update
    received and returned."""
    seen, states = [], []
    order = flow._polar_band(u0.spec).order
    solve, speed = flow.solve_band, flow._speed
    update, carried = flow._newton_update, flow._carried

    def capture_state(spec, v, drift):
        data = speed(spec, v, drift)
        states.append((data, v.copy()))
        return data

    def capture_start(u, v, drift):
        data = carried(u, v, drift)
        states.append((data, v.copy()))
        return data

    def capture_matrix(kl, ku, ab, b):
        seen[-1].append(_band_to_dense(kl, ku, ab, order))
        return solve(kl, ku, ab, b)

    def capture_update(spec, data, res, dt):
        seen.append([next(v for d, v in reversed(states) if d is data)])
        delta = update(spec, data, res, dt)
        seen[-1] += [res.ravel().copy(), delta.ravel().copy()]
        return delta

    monkeypatch.setattr(flow, "_speed", capture_state)
    monkeypatch.setattr(flow, "_carried", capture_start)
    monkeypatch.setattr(flow, "solve_band", capture_matrix)
    monkeypatch.setattr(flow, "_newton_update", capture_update)
    bv = boundary_values_for(u0, cfg)
    u = u0
    for k in range(steps):
        u = step(u, cfg.dt_init, cfg, bv, (k + 1) * cfg.dt_init)
    return seen


def _assert_rows_match(got, want):
    """Each row of ``got`` equals ``want``'s within 1e-8 of that row's
    largest entry (a zero row exactly).  The probes move each node's jet by
    its cached weights instead of differentiating a moved state, which
    rounds the quotients differently, by about 1e-9 of their row's largest;
    a misplaced or missing entry is off by O(1) of it."""
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-8 * scale)


@pytest.mark.parametrize("drift", [False, True])
@_DISK
def test_polar_newton_matrix_matches_dense_jacobian(monkeypatch, spec, drift):
    # I - dt*J with J built one column at a time, Dirichlet rows and columns
    # left to the identity: the same entries within 1e-8 of each row's
    # largest, and the identity rows exactly
    u0 = _polar_case(spec)
    cfg = SolverConfig(dt_init=0.05, similarity_drift=drift)
    (v, M, *_), *_ = _captured_newton_solves(monkeypatch, u0, cfg, 1)
    ntot = v.size
    base = _reference_rhs(spec, v, drift)
    eps = 1e-7 * (1.0 + float(np.max(np.abs(v))))
    unknown = np.ones(spec.shape, dtype=bool)
    unknown[-1] = False
    J = np.zeros((ntot, ntot))
    for col in np.flatnonzero(unknown):
        w = v.ravel().copy()
        w[col] += eps
        J[:, col] = ((_reference_rhs(spec, w.reshape(spec.shape), drift)
                      - base) / eps).ravel()
    J[~unknown.ravel()] = 0.0
    _assert_rows_match(M - np.eye(ntot), -0.05 * J)


@pytest.mark.parametrize("drift", [False, True])
@_DISK
def test_polar_newton_matrix_matches_reference(monkeypatch, spec, drift):
    # every Newton matrix of three steps against the colored reference
    # assembly, within 1e-8 of each row's largest entry
    u0 = _polar_case(spec)
    cfg = SolverConfig(dt_init=0.05, similarity_drift=drift)
    seen = _captured_newton_solves(monkeypatch, u0, cfg, 3)
    assert len(seen) >= 3
    eye = np.eye(spec.nr * spec.ntheta)
    for v, M, *_ in seen:
        _assert_rows_match(M - eye,
                           _reference_polar_matrix(v, spec, 0.05, drift).toarray() - eye)


def _pairs(band, size):
    """(rows, cols) of the band's live pairs in flat ring-major nodes: the
    row from the live quotient index, the column from the band slot."""
    return band.live % size, band.order[band.slots // (2 * band.kl + band.ku + 1)]


@pytest.mark.parametrize("nr", [8, 24])
def test_polar_neighbourhoods_hold_nine_distinct_nodes(nr):
    # nine probes, each moving one neighbourhood entry of every node, give
    # each row the difference quotient of one column only if the row's nine
    # neighbourhood nodes are distinct; the live pairs are then the stencil
    # rule, read through the table, each with its own band slot
    for nt in range(8, 65, 2):
        spec = GridSpec.polar_disk(4.0, nr, nt)
        table = geometry._radial_operator(spec).rows
        assert table.shape == (3, 3, nr, nt)
        nodes = np.sort(table.reshape(9, -1), axis=0)
        assert np.all(np.diff(nodes, axis=0) > 0)
        band = flow._polar_band(spec)
        assert band is flow._polar_band(spec)
        unknown = np.ones(spec.shape, dtype=bool)
        unknown[-1] = False
        expected = {(row, i * nt + j) for i, j in zip(*np.nonzero(unknown))
                    for row in _reference_rows_for(spec, int(i), int(j))}
        ntot = nr * nt
        rows, cols = _pairs(band, ntot)
        assert np.array_equal(cols, table.ravel()[band.live])
        assert set(zip(rows.tolist(), cols.tolist())) == expected
        assert len(expected) == rows.size
        assert np.unique(band.slots).size == band.slots.size


def _relaxation_state(spec):
    """A relaxation's state: an anisotropic cone plus a tilted bump."""
    r, th = spec.nodes[:, None], spec.thetas[None, :]
    cone = ConeProfile.angular(lambda t: 1.0 + 0.1 * np.cos(2 * t), m=64)
    return cone.on_grid(spec).values + 0.5 * np.exp(-r ** 2 / 4) * (1 + 0.3 * r * np.cos(th))


@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("shape", [(10, 8), (24, 16)], ids=["10x8", "24x16"])
def test_polar_newton_matrix_matches_complex_step_jacobian(shape, drift):
    # an exact oracle: the speed is analytic in the state, so the imaginary
    # part of the speed with one neighbourhood entry of every node moved by
    # i*h, over h, is each row's entry of that entry's column of J to
    # round-off (no difference is taken); read at the live quotients it is J
    # at every pair.  The probed entries, forward
    # differences, must match it within 1e-5 of their row's largest entry.
    # The state is a relaxation's: an anisotropic cone on the benchmark's
    # disk of radius 12, plus a tilted bump.
    spec = GridSpec.polar_disk(12.0, *shape)
    u = _relaxation_state(spec)
    band = flow._polar_band(spec)
    nb = _neighbourhood(spec, u)
    h = 1e-30
    exact = (geometry._polar_speed(spec, nb + 1j * h * flow._PROBES, drift).imag
             / h).ravel()[band.live]
    dt = 0.05
    kl, ku, ab = flow._polar_newton_matrix(flow._speed(spec, u, drift), spec, dt)
    rows, cols = _pairs(band, u.size)
    probed = (ab.ravel(order="F")[band.slots] - (rows == cols)) / -dt
    scale = np.zeros(u.size)
    np.maximum.at(scale, rows, np.abs(exact))
    assert np.all(np.abs(probed - exact) <= 1e-5 * scale[rows])


@pytest.mark.parametrize("shape", [(10, 8), (24, 16), (72, 32)])
def test_polar_band_layout(shape):
    # the band numbering keeps each ring contiguous and numbers its angles in
    # zigzag order, so angular neighbours (the periodic wrap included) sit at
    # most 2 positions apart and a ring neighbour at most ntheta + 2; each
    # pair has its own slot inside the band, and the Dirichlet ring's rows
    # and columns are the identity's
    nr, nt = shape
    spec = GridSpec.polar_disk(4.0, nr, nt)
    band = flow._polar_band(spec)
    assert band.kl == band.ku == nt + 2
    assert np.array_equal(np.sort(band.order), np.arange(nr * nt))
    assert np.array_equal(band.order.reshape(nr, nt) // nt,
                          np.broadcast_to(np.arange(nr)[:, None], (nr, nt)))
    position = np.argsort(band.order)
    angles = position.reshape(nr, nt)
    assert np.abs(angles - np.roll(angles, 1, axis=1)).max() == 2
    assert np.unique(band.slots).size == band.slots.size
    ldab = 2 * band.kl + band.ku + 1
    band_row, band_col = np.divmod(band.slots, ldab)[::-1]
    rows = _pairs(band, nr * nt)[0]
    assert np.array_equal(band_row, band.kl + band.ku + position[rows] - band_col)
    assert band_row.min() >= band.kl and band_row.max() < ldab
    u = _polar_case(spec).values
    kl, ku, ab = flow._polar_newton_matrix(flow._speed(spec, u, False), spec, 0.01)
    assert (kl, ku, ab.shape) == (band.kl, band.ku, (ldab, u.size))
    assert ab.flags.f_contiguous
    M = _band_to_dense(kl, ku, ab, band.order)
    ring = slice((nr - 1) * nt, None)
    assert np.array_equal(M[ring], np.eye(u.size)[ring])
    assert np.array_equal(M[:, ring], np.eye(u.size)[:, ring])


def test_nonfinite_polar_newton_update_raises(monkeypatch):
    # a non-finite update fails the band solve, before any trial is taken
    u0 = _polar_case(GridSpec.polar_disk(4.0, 10, 16))
    cfg = SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.1, adaptive=False)
    gbsv = flow.dgbsv

    def nan_solution(*args, **kwargs):
        lub, piv, x, info = gbsv(*args, **kwargs)
        return lub, piv, np.full_like(x, np.nan), info

    monkeypatch.setattr(flow, "dgbsv", nan_solution)
    with pytest.raises(NewtonError, match="info 0") as err:
        step(u0, 1e-2, cfg, boundary_values_for(u0, cfg), 1e-2)
    history = err.value.residuals
    assert len(history) == 1 and np.isfinite(history[0])
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, cfg)
    assert failure.value.residuals
    # adaptive runs halve dt down to the floor before giving up
    monkeypatch.setattr(flow, "_DT_MIN", 2.5e-3)
    halving = SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.1)
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, halving)
    assert failure.value.dt == pytest.approx(2.5e-3)


@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("shape", [(10, 8), (24, 16)], ids=["10x8", "24x16"])
def test_polar_band_solve_matches_dense_solve(monkeypatch, shape, drift):
    # gbsv factors the band in its own numbering, with row pivoting
    # inside the band only; gathered into it and scattered back, each Newton
    # update solves the natural-numbering system as a dense solve does
    spec = GridSpec.polar_disk(4.0, *shape)
    u0 = _polar_case(spec)
    cfg = SolverConfig(dt_init=0.01, similarity_drift=drift)
    seen = _captured_newton_solves(monkeypatch, u0, cfg, 3)
    assert len(seen) >= 3
    for _, M, res, delta in seen:
        x = np.linalg.solve(M, res)
        assert np.max(np.abs(delta - x)) <= 1e-12 * np.max(np.abs(x))


def test_singular_polar_newton_matrix_fails_the_step(monkeypatch):
    # a singular polar Newton matrix is a failed step, as on radial grids:
    # NewtonError with the residual history, StepFailureError from evolve
    # after dt halving
    u0 = _polar_case(GridSpec.polar_disk(4.0, 10, 16))
    cfg = SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.1, adaptive=False)
    build = flow._polar_newton_matrix

    def singular(*args):
        kl, ku, ab = build(*args)
        ab[:] = 0.0
        return kl, ku, ab

    monkeypatch.setattr(flow, "_polar_newton_matrix", singular)
    with pytest.raises(NewtonError, match="gbsv info 1") as err:
        step(u0, 1e-2, cfg, boundary_values_for(u0, cfg), 1e-2)
    history = err.value.residuals
    assert len(history) == 1 and np.isfinite(history[0])
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, cfg)
    assert failure.value.residuals == history
    monkeypatch.setattr(flow, "_DT_MIN", 2.5e-3)
    halving = SolverConfig(dt_init=1e-2, dt_max=1e-2, snapshot_dt=0.1)
    with pytest.raises(StepFailureError) as failure:
        evolve(u0, 0.1, halving)
    assert failure.value.dt == pytest.approx(2.5e-3)


def _accepted_steps(monkeypatch):
    """(bound, stats) of every step that returns, the bound being
    newton_tol * (1 + max|u|) at the step's starting state u."""
    accepted = []
    take = flow.step

    def record(u, dt, config, boundary, t_new, stats=None):
        stats = {} if stats is None else stats
        u_new = take(u, dt, config, boundary, t_new, stats=stats)
        scale = 1.0 + float(np.max(np.abs(u.values)))
        accepted.append((config.newton_tol * scale, stats))
        return u_new

    monkeypatch.setattr(flow, "step", record)
    return accepted


def _assert_newton_contract(accepted):
    assert accepted
    for bound, stats in accepted:
        assert stats["residuals"][-1] <= bound
        assert stats["iters"] == len(stats["residuals"]) - 1
    assert any(stats["iters"] > 1 for _, stats in accepted)


def test_radial_steps_keep_the_newton_contract(monkeypatch, cone21):
    # every accepted step ends converged, and counts one update per residual
    spec = _uniform(2, 10.0, 101)
    u0 = GridFunction(spec, cone21.on_grid(spec).values + _bump(spec, 0.5))
    cfg = SolverConfig(dt_init=1e-2, snapshot_dt=0.25, boundary="pin-to-initial")
    accepted = _accepted_steps(monkeypatch)
    evolve(u0, 0.5, cfg, cone=cone21)
    _assert_newton_contract(accepted)


def test_polar_relaxation_steps_keep_the_newton_contract(monkeypatch):
    k = ConeProfile.angular(lambda th: 1.0 + 0.08 * np.cos(2 * th), m=16)
    accepted = _accepted_steps(monkeypatch)
    monkeypatch.setattr(expander, "_RELAX_TAU_MAX", 0.5)
    relax_angular_expander(k, rho_max=6.0, nr=12, ntheta=8)
    assert len(accepted) == 10
    _assert_newton_contract(accepted)


@_DISK
def test_polar_step_reuses_its_speed_only_for_the_same_ring_and_drift(spec):
    # a moved outer ring, or a step without the drift the speed was
    # computed with, evaluates the speed afresh
    with_drift = SolverConfig(dt_init=1e-2, similarity_drift=True)
    u0 = _polar_case(spec)
    bv = boundary_values_for(u0, with_drift)
    u = step(u0, 1e-2, with_drift, bv, 1e-2)
    for config, boundary in ((SolverConfig(dt_init=1e-2), bv),
                             (with_drift, lambda t: bv(t) + 0.01)):
        got, want = {}, {}
        fresh = step(GridFunction(spec, u.values.copy()), 1e-2, config, boundary, 2e-2,
                     stats=want)
        assert np.array_equal(step(u, 1e-2, config, boundary, 2e-2, stats=got).values,
                              fresh.values)
        assert got["residuals"] == want["residuals"]


def test_polar_relaxation_bit_identical_without_carried_speed(monkeypatch):
    # each relaxation step starts from the speed of its predecessor's last
    # iterate; fed fresh copies, which carry nothing, every step evaluates it
    k = ConeProfile.angular(lambda th: 1.0 + 0.08 * np.cos(2 * th), m=16)
    carried = relax_angular_expander(k, rho_max=6.0, nr=10, ntheta=8)
    take = flow.step
    monkeypatch.setattr(flow, "step", lambda u, *args, **kwargs: take(
        GridFunction(u.spec, u.values.copy()), *args, **kwargs))
    fresh = relax_angular_expander(k, rho_max=6.0, nr=10, ntheta=8)
    assert carried.converged and carried.steps > 10
    assert np.array_equal(carried.solution.values, fresh.solution.values)
    for key in ("steps", "newton_iters"):
        assert getattr(carried, key) == getattr(fresh, key), key


def _counted(monkeypatch, name, states):
    """Replace flow's binding ``name`` with a wrapper recording ``states``
    of each call's second argument: the number of states the call
    evaluates, or what stands for it."""
    calls = []
    real = getattr(flow, name)

    def counted(spec, vals, *args):
        calls.append(states(vals))
        return real(spec, vals, *args)

    monkeypatch.setattr(flow, name, counted)
    return calls


def test_radial_run_makes_one_stencil_pass_per_newton_iterate(monkeypatch, cone21,
                                                             profile21):
    # the slope check's pass starts the first step, and each later step the
    # speed its predecessor's last trial computed: with no backtracking,
    # one full pass per Newton iteration plus one
    passes = _counted(monkeypatch, "_radial_derivatives", np.ndim)
    spec = _uniform(2, 20.0, 201)
    cfg = SolverConfig(dt_init=1e-4, dt_max=1e-4, snapshot_dt=2.5e-4,
                       boundary="pin-to-expander", newton_tol=1e-12, adaptive=False)
    run = evolve(profile21.on_grid(spec, 1.0), 5e-3, cfg, cone=cone21,
                 profile=profile21, t_start=1.0)
    assert len(run.step_times) == 60  # 1e-4, 1e-4, 5e-5 per cadence interval
    assert passes == [1] * (sum(run.newton_iters) + 1)


def _relaxation_calls(monkeypatch, name, states):
    """(result, counts) of a 10x8 relaxation run with flow's ``name``
    counted as in :func:`_counted`."""
    calls = _counted(monkeypatch, name, states)
    k = ConeProfile.angular(lambda th: 1.0 + 0.08 * np.cos(2 * th), m=16)
    res = relax_angular_expander(k, rho_max=6.0, nr=10, ntheta=8)
    assert res.converged and res.newton_iters > res.steps
    return res, calls


def test_polar_relaxation_evaluates_each_iterate_once(monkeypatch):
    # each iterate's speed is evaluated once, as one nonlinear evaluation
    # of ten jets (the iterate and its nine probes): the first step's start
    # plus one per Newton trial, none for a factorization
    res, calls = _relaxation_calls(monkeypatch, "_polar_quantities",
                                   lambda jets: len(jets[0]))
    assert calls == [10] * (res.newton_iters + 1)


def test_polar_relaxation_differentiates_one_neighbourhood_per_iterate(monkeypatch):
    # the probes move the iterate's jet by cached weights, so each iterate's
    # neighbourhood is differentiated alone, once; the nine unit entries
    # are differentiated once per grid, for the weights
    res, calls = _relaxation_calls(monkeypatch, "_polar_jet",
                                   lambda nb: int(np.prod(nb.shape[:-4])))
    assert sorted(calls) == [1] * (res.newton_iters + 1) + [9]


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("shape", [(10, 8), (24, 16)], ids=["10x8", "24x16"])
def test_polar_speed_stack_changes_no_bits(shape, drift):
    # the iterate shares one stack of jets with its nine probes: slot 0 is
    # its speed alone, bit for bit, and the probes' quotients are those of
    # the nine moved neighbourhoods (nb + eps*_PROBES) within 1e-8 of each
    # row's largest
    spec = GridSpec.polar_disk(12.0, *shape)
    u = _relaxation_state(spec)
    probed, eps, speed = flow._speed(spec, u, drift)
    nb = _neighbourhood(spec, u)
    assert eps == 1e-7 * (1.0 + float(np.max(np.abs(u))))
    assert _same_bits(speed, geometry._polar_speed(spec, nb, drift))
    moved = geometry._polar_speed(spec, nb + eps * flow._PROBES, drift)
    _assert_rows_match(np.moveaxis((probed - speed) / eps, 0, -1),
                       np.moveaxis((moved - speed) / eps, 0, -1))


@pytest.mark.parametrize("shape", [(10, 8), (24, 16)], ids=["10x8", "24x16"])
def test_polar_jet_moves_by_its_cached_weights(shape):
    # the jet is linear in the neighbourhood: moving entry k of every node
    # by c moves it by c times entry k's cached weights, to round-off, and
    # leaves every part whose weight is zero with its bits
    spec = GridSpec.polar_disk(12.0, *shape)
    weights = flow._polar_band(spec).weights
    assert weights.shape == (6, 9, spec.nr, 1)
    nb = np.random.default_rng(5).normal(size=(3, 3) + spec.shape)
    base = np.array(geometry._polar_jet(spec, nb))
    c = 0.37
    for k in range(9):
        moved = np.array(geometry._polar_jet(spec, nb + c * flow._PROBES[k]))
        w = np.broadcast_to(weights[:, k], base.shape)
        assert _same_bits(moved[w == 0.0], base[w == 0.0])
        assert np.any(w != 0.0)
        scale = np.abs(base).max(axis=(1, 2), keepdims=True) + c * np.abs(w)
        assert np.all(np.abs(moved - base - c * w) <= 1e-13 * scale)


def test_a_carried_polar_step_starts_with_its_jacobian_probed(monkeypatch):
    # a relaxation step starts from the data its predecessor's last iterate
    # evaluated, probes included: the same bits as a fresh evaluation at v
    starts = []
    carried = flow._carried

    def record(u, v, drift):
        extra = carried(u, v, drift)
        starts.append((v.copy(), extra))
        return extra

    monkeypatch.setattr(flow, "_carried", record)
    monkeypatch.setattr(expander, "_RELAX_TAU_MAX", 0.2)
    k = ConeProfile.angular(lambda th: 1.0 + 0.08 * np.cos(2 * th), m=16)
    res = relax_angular_expander(k, rho_max=6.0, nr=10, ntheta=8)
    spec = res.solution.spec
    assert len(starts) == res.steps == 4 and starts[0][1] is None
    for v, carried in starts[1:]:
        fresh = flow._speed(spec, v, True)
        assert carried[1] == fresh[1]
        assert _same_bits(carried[0], fresh[0]) and _same_bits(carried[2], fresh[2])
