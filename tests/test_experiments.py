import inspect

import numpy as np
import pytest

from coneflow import experiments
from coneflow.analysis import bump
from coneflow.errors import DomainError, ParameterError
from coneflow.experiments import (SCENARIOS, Scenario,
                                  run_family_uniform, run_main_theorem,
                                  subsolution_dominance_experiment)


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


def test_main_theorem_lower_rail_starts_after_time_zero():
    # delta = 1e-300 underflows the lower rail's shift sigma = (delta/2a)^2
    # to 0, so the rail would start at U(., 0), which evaluate_U rejects
    with pytest.raises(DomainError, match="t > 0"):
        SCENARIOS["main-theorem"].run(quick=True, delta=1e-300)


def test_scenario_registry_complete():
    runners = {name: sc.function() for name, sc in SCENARIOS.items()}
    assert runners == {"main-theorem": run_main_theorem,
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
