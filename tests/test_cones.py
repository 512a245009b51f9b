import numpy as np
import pytest

from coneflow.analysis import C1Function
from coneflow.cones import ConeProfile
from coneflow.errors import ParameterError
from coneflow.geometry import GridSpec


def test_radial_constructor_validation():
    with pytest.raises(ParameterError):
        ConeProfile.radial(0, 1.0)
    with pytest.raises(ParameterError):
        ConeProfile.radial(2, float("nan"))
    assert ConeProfile.radial(3, 1.5).kind == "radial"


def test_angular_constructor_validation():
    with pytest.raises(ParameterError):
        ConeProfile.angular(lambda th: np.ones_like(th), m=4)
    with pytest.raises(ParameterError):
        ConeProfile(3, gamma_samples=np.ones(16))
    with pytest.raises(ParameterError):
        ConeProfile.angular(np.r_[np.ones(15), np.nan])
    assert ConeProfile.angular(np.ones(16)).kind == "angular"


def test_radial_evaluate_matches_formula():
    # a radial cone's Cartesian values are beta * |x|, the origin included
    k = ConeProfile.radial(3, 1.5)
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0],
                    [0.0, 0.0, 0.0]])
    want = 1.5 * np.sqrt(np.sum(pts ** 2, axis=1))
    assert np.allclose(C1Function.from_cone(k).value(pts), want)


def test_angular_matches_profile_samples():
    gamma = lambda th: 1.0 + 0.3 * np.cos(2 * th)
    k = ConeProfile.angular(gamma, m=64)
    th = 2.0 * np.pi * np.arange(64) / 64
    # the spline interpolates its samples, periodically in theta
    assert np.allclose(k.gamma(th), gamma(th), rtol=1e-12)
    assert np.allclose(k.gamma(th + 2.0 * np.pi), gamma(th), rtol=1e-12)
    # and a polar grid samples k = rho * gamma(theta) ring by ring
    spec = GridSpec.polar_disk(3.0, 8, 16)
    vals = k.on_grid(spec).values
    assert np.allclose(vals, spec.nodes[:, None] * k.gamma(spec.thetas)[None, :])


def test_on_grid_matches_evaluate():
    k = ConeProfile.radial(2, 0.7)
    spec = GridSpec.uniform(2, 0.0, 5.0, 51)
    gf = k.on_grid(spec)
    assert np.allclose(gf.values, 0.7 * spec.nodes)
    with pytest.raises(ParameterError):
        ConeProfile.angular(np.ones(16)).on_grid(spec)


def test_tail_coefficient_is_angular_only():
    # gamma = 1 + a cos(2 theta): c = (g + g'')(1 + g^2)/(1 + g^2 + g'^2)
    a = 0.1
    k = ConeProfile.angular(lambda th: 1.0 + a * np.cos(2 * th), m=256)
    th = np.linspace(0.0, 2.0 * np.pi, 17)
    g, gp, gpp = 1.0 + a * np.cos(2 * th), -2 * a * np.sin(2 * th), -4 * a * np.cos(2 * th)
    want = (g + gpp) * (1.0 + g ** 2) / (1.0 + g ** 2 + gp ** 2)
    assert np.allclose(k.tail_coefficient(th), want, atol=1e-4)
    with pytest.raises(ParameterError):
        ConeProfile.radial(2, 1.0).tail_coefficient(th)
