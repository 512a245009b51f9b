import numpy as np
import pytest
from hypothesis import given, strategies as st

from coneflow import analysis
from coneflow.analysis import (clearing_out_experiment, clearing_out_scaling,
                               decay_fit, graph_area_bound_check)
from coneflow.cones import ConeProfile
from coneflow.errors import ParameterError


# -- decay_fit ---------------------------------------------------------------

def test_decay_fit_recovers_power_law():
    t = np.linspace(2.0, 40.0, 30)
    assert decay_fit(t, 3.0 * t ** -0.5) == pytest.approx(-0.5, abs=1e-10)


@given(st.floats(-2.0, -0.1), st.floats(0.1, 10.0))
def test_decay_fit_homogeneity(p, c):
    t = np.linspace(1.0, 20.0, 25)
    assert decay_fit(t, c * t ** p) == pytest.approx(p, abs=1e-8)


def test_decay_fit_needs_a_decade():
    t = np.linspace(5.0, 20.0, 10)  # 4x window only
    with pytest.raises(ParameterError):
        decay_fit(t, t ** -1.0)


def test_decay_fit_rejects_nonpositive():
    t = np.linspace(1.0, 20.0, 10)
    d = t ** -1.0
    d[3] = 0.0
    with pytest.raises(ParameterError):
        decay_fit(t, d)


# -- the area bound ----------------------------------------------------------

# no bumps: u0 is the cone itself
NO_BUMPS = (np.empty((0, 2)), [], [])


def test_ball_quadrature_weights():
    center = np.array([2.0, -1.0])
    pts, w = analysis._unit_disk(center)
    assert w.sum() == pytest.approx(np.pi, rel=1e-6)
    assert np.all(np.sqrt(np.sum((pts - center) ** 2, axis=1)) <= 1.0)


def test_c1_function_algebra_and_gradient():
    # two bumps sum their values, and the analytic gradient matches
    # central differences
    centers, amps, widths = [[0.0, 0.0], [1.0, 0.0]], [2.0, -1.0], [1.0, 0.5]
    pt = np.array([[0.3, -0.2]])
    value, grad = analysis._gaussian_bumps(pt, centers, amps, widths)
    parts = [analysis._gaussian_bumps(pt, [c], [a], [w])[0][0]
             for c, a, w in zip(centers, amps, widths)]
    assert value[0] == pytest.approx(sum(parts))
    eps = 1e-6
    for d in range(2):
        e = np.zeros((1, 2))
        e[0, d] = eps
        fd = (analysis._gaussian_bumps(pt + e, centers, amps, widths)[0][0]
              - analysis._gaussian_bumps(pt - e, centers, amps, widths)[0][0]) / (2 * eps)
        assert grad[0, d] == pytest.approx(fd, abs=1e-6)


def test_c1_function_from_cone_takes_radial_cones_only():
    k = ConeProfile.angular(lambda th: 1.0 + 0.1 * np.cos(2 * th), m=16)
    with pytest.raises(ParameterError, match="radial"):
        graph_area_bound_check(k, NO_BUMPS, np.array([3.0, 0.0]), 0.5, 2.0)


def test_area_bound_validation():
    k = ConeProfile.radial(2, 1.0)
    x = np.array([3.0, 0.0])
    with pytest.raises(ParameterError):
        graph_area_bound_check(k, NO_BUMPS, x, 1.5, 2.0)  # rho outside (0,1)
    with pytest.raises(ParameterError):
        graph_area_bound_check(k, NO_BUMPS, x, 0.5, 0.5)  # G below the cone slope
    with pytest.raises(ParameterError, match="n = 2"):
        graph_area_bound_check(ConeProfile.radial(3, 1.0), NO_BUMPS, x, 0.5, 2.0)


def test_area_bound_pass_with_large_bump():
    k = ConeProfile.radial(2, 1.0)
    rep = graph_area_bound_check(k, ([[3.0, 0.0]], [2.0], [0.8]),
                                 np.array([3.0, 0.0]), 0.5, 1.0)
    assert rep.hypothesis_ok
    assert rep.area > 0.0
    assert rep.passed


def test_area_bound_evaluates_the_gradient_once(monkeypatch):
    k = ConeProfile.radial(2, 1.0)
    bumps = ([[3.0, 0.0]], [2.0], [0.8])
    x = np.array([3.0, 0.0])
    want = graph_area_bound_check(k, bumps, x, 0.5, 1.0)
    calls = []
    evaluate = analysis._gaussian_bumps

    def counted(pts, *args):
        calls.append(len(pts))
        return evaluate(pts, *args)

    monkeypatch.setattr(analysis, "_gaussian_bumps", counted)
    assert graph_area_bound_check(k, bumps, x, 0.5, 1.0) == want
    assert len(calls) == 1


def test_area_bound_trivial_when_no_excess():
    k = ConeProfile.radial(2, 1.0)
    rep = graph_area_bound_check(k, NO_BUMPS, np.array([4.0, 0.0]), 0.6, 1.0)
    assert rep.area == 0.0
    assert rep.passed


# -- clearing out ------------------------------------------------------------

def test_clearing_out_validation():
    k = ConeProfile.radial(2, 1.0)
    with pytest.raises(ParameterError):
        clearing_out_experiment(k, height=0.1, rho=0.2)  # starts below level


def test_clearing_out_single_width():
    # the spike clears within the cap 10 rho^2
    k = ConeProfile.radial(2, 1.0)
    t0 = clearing_out_experiment(k, height=1.2, rho=0.2)
    assert t0 is not None
    assert 0.0 < t0 <= 10.0 * 0.2 ** 2


def test_clearing_out_scaling_quick():
    exponent = clearing_out_scaling(ConeProfile.radial(2, 1.0), rhos=(0.1, 0.2))
    assert 1.5 <= exponent <= 2.5
