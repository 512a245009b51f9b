import numpy as np
import pytest
from hypothesis import given, strategies as st

from coneflow.analysis import (Ball, C1Function, clearing_out_experiment,
                               clearing_out_scaling, decay_fit,
                               graph_area_bound_check)
from coneflow.cones import ConeProfile
from coneflow.errors import ParameterError


# -- decay_fit ---------------------------------------------------------------

def test_decay_fit_recovers_power_law():
    t = np.linspace(2.0, 40.0, 30)
    fit = decay_fit(t, 3.0 * t ** -0.5)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-10)
    assert fit.constant == pytest.approx(3.0, rel=1e-10)
    assert fit.residual < 1e-12


@given(st.floats(-2.0, -0.1), st.floats(0.1, 10.0))
def test_decay_fit_homogeneity(p, c):
    t = np.linspace(1.0, 20.0, 25)
    fit = decay_fit(t, c * t ** p)
    assert fit.exponent == pytest.approx(p, abs=1e-8)


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

def test_ball_quadrature_weights():
    ball = Ball(np.array([2.0, -1.0]), 0.7)
    pts, w = ball.quadrature()
    assert w.sum() == pytest.approx(np.pi * 0.49, rel=1e-6)
    assert np.all(np.sqrt(np.sum((pts - ball.center) ** 2, axis=1)) <= 0.7)


def test_c1_function_algebra_and_gradient():
    f = C1Function.gaussian_bumps(2, [[0.0, 0.0]], [2.0], [1.0])
    g = C1Function.gaussian_bumps(2, [[1.0, 0.0]], [-1.0], [0.5])
    s = f + g
    pt = np.array([[0.3, -0.2]])
    assert s.value(pt)[0] == pytest.approx(f.value(pt)[0] + g.value(pt)[0])
    # analytic gradient against central differences
    eps = 1e-6
    for d in range(2):
        e = np.zeros((1, 2))
        e[0, d] = eps
        fd = (s.value(pt + e)[0] - s.value(pt - e)[0]) / (2 * eps)
        assert s.gradient(pt)[0, d] == pytest.approx(fd, abs=1e-6)


def test_c1_function_from_cone_takes_radial_cones_only():
    k = ConeProfile.angular(lambda th: 1.0 + 0.1 * np.cos(2 * th), m=16)
    with pytest.raises(ParameterError, match="radial"):
        C1Function.from_cone(k)


def test_area_bound_validation():
    k = ConeProfile.radial(2, 1.0)
    u0 = C1Function.from_cone(k)
    x = np.array([3.0, 0.0])
    with pytest.raises(ParameterError):
        graph_area_bound_check(u0, k, x, 1.5, 2.0)  # rho outside (0,1)
    with pytest.raises(ParameterError):
        graph_area_bound_check(u0, k, x, 0.5, 0.5)  # G below the cone slope


def test_area_bound_pass_with_large_bump():
    k = ConeProfile.radial(2, 1.0)
    u0 = C1Function.from_cone(k) + C1Function.gaussian_bumps(
        2, [[3.0, 0.0]], [2.0], [0.8])
    rep = graph_area_bound_check(u0, k, np.array([3.0, 0.0]), 0.5, 1.0)
    assert rep.hypothesis_ok
    assert rep.area > 0.0
    assert rep.passed
    assert rep.area <= rep.bound * (1 + 1e-9)


def test_area_bound_evaluates_the_gradient_once():
    k = ConeProfile.radial(2, 1.0)
    u0 = C1Function.from_cone(k) + C1Function.gaussian_bumps(
        2, [[3.0, 0.0]], [2.0], [0.8])
    calls = []

    def grad(p):
        calls.append(len(p))
        return u0.gradient(p)

    counted = C1Function(2, u0.value, grad)
    x = np.array([3.0, 0.0])
    rep = graph_area_bound_check(counted, k, x, 0.5, 1.0)
    assert len(calls) == 1
    assert rep == graph_area_bound_check(u0, k, x, 0.5, 1.0)


def test_area_bound_trivial_when_no_excess():
    k = ConeProfile.radial(2, 1.0)
    rep = graph_area_bound_check(C1Function.from_cone(k), k,
                                 np.array([4.0, 0.0]), 0.6, 1.0)
    assert rep.area == 0.0
    assert rep.passed


# -- clearing out ------------------------------------------------------------

def test_clearing_out_validation():
    k = ConeProfile.radial(2, 1.0)
    with pytest.raises(ParameterError):
        clearing_out_experiment(k, height=0.1, rho=0.2)  # starts below level


def test_clearing_out_single_width():
    k = ConeProfile.radial(2, 1.0)
    rep = clearing_out_experiment(k, height=1.2, rho=0.2)
    assert rep.t0 is not None
    assert 0.0 < rep.t0 <= rep.t_cap
    assert rep.passed


def test_clearing_out_scaling_quick():
    out = clearing_out_scaling(ConeProfile.radial(2, 1.0), rhos=(0.1, 0.2))
    assert 1.5 <= out["exponent"] <= 2.5
    assert set(out["t0"]) == {0.1, 0.2}
