import inspect

import numpy as np
import pytest

from coneflow import experiments
from coneflow.analysis import bump
from coneflow.errors import ParameterError
from coneflow.experiments import (SCENARIOS, Scenario, restrict_run,
                                  run_family_uniform, run_main_theorem,
                                  run_one_sided,
                                  subsolution_dominance_experiment,
                                  synthetic_expander_run)
from coneflow.geometry import GridSpec


def test_bump_shape():
    r = np.linspace(0.0, 10.0, 1001)
    b = bump(r, 2.0, 5.0)
    assert b[0] == pytest.approx(2.0)
    assert np.all(b[r >= 5.0] == 0.0)
    assert np.all(b >= 0.0)
    # C^1 at the support edge: slope vanishes approaching r = 5
    i = np.searchsorted(r, 5.0)
    edge_slope = (b[i - 1] - b[i - 2]) / (r[1] - r[0])
    assert abs(edge_slope) < 0.05


def test_synthetic_run_values(profile21):
    spec = GridSpec.uniform(2, 0.0, 20.0, 101)
    times = [0.5, 1.0, 1.5]
    run = synthetic_expander_run(profile21, spec, times, lambda t: t + 1.0,
                                 offset=0.25)
    assert run.times[1] == 1.0
    snap = run.snapshots[1]
    want = np.sqrt(2.0) * profile21.evaluate(spec.nodes / np.sqrt(2.0)) + 0.25
    assert np.allclose(snap.values, want)
    with pytest.raises(ParameterError):
        synthetic_expander_run(profile21, spec, [0.0], lambda t: t)


def test_restrict_run(profile21):
    spec = GridSpec.uniform(2, 0.0, 20.0, 101)
    run = synthetic_expander_run(profile21, spec, [0.5, 1.0, 1.5, 2.0],
                                 lambda t: t)
    cut = restrict_run(run, 1.0)
    assert np.allclose(cut.times, [1.0, 1.5, 2.0])
    with pytest.raises(ParameterError):
        restrict_run(run, 5.0)


def test_scenario_registry_complete():
    runners = {name: sc.function() for name, sc in SCENARIOS.items()}
    assert runners == {"main-theorem": run_main_theorem,
                       "one-sided": run_one_sided,
                       "family-uniform": run_family_uniform,
                       "subsolution": subsolution_dominance_experiment}
    for name, sc in SCENARIOS.items():
        assert isinstance(sc, Scenario)
        assert sc.name == name
        assert sc.claim
        params = inspect.signature(runners[name]).parameters
        for key, _ in sc.quick_overrides:
            assert key in params, (name, key)


def test_scenario_runner_looked_up_at_call_time(monkeypatch):
    calls = []

    def stub(seed=None, **kw):
        calls.append(dict(kw, seed=seed))
        return "stub report"

    monkeypatch.setattr(experiments, "run_family_uniform", stub)
    sc = SCENARIOS["family-uniform"]
    assert sc.run(quick=True) == "stub report"
    # settings pass through as given and win over the quick ones
    assert sc.run(True, seed=7, nodes=11) == "stub report"
    assert sc.run(seed=3) == "stub report"
    assert calls == [{"seed": None, "horizon": 8.0, "nodes": 401},
                     {"seed": 7, "horizon": 8.0, "nodes": 11},
                     {"seed": 3}]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_pass_in_quick_mode(name):
    rep = SCENARIOS[name].run(quick=True)
    assert rep.passed


def test_family_needs_five_members():
    with pytest.raises(ParameterError):
        run_family_uniform(count=3, horizon=2.0, nodes=201)


def test_family_seed_reproducible():
    a = run_family_uniform(horizon=3.0, nodes=201, r_max=20.0, seed=11)
    b = run_family_uniform(horizon=3.0, nodes=201, r_max=20.0, seed=11)
    assert np.array_equal(a.family_trace, b.family_trace)
    assert a.t_uniform == b.t_uniform
