import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coneflow import acceptance, analysis
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


@pytest.mark.parametrize("where,value", [("d", np.nan), ("d", np.inf), ("t", np.nan),
                                         ("t", np.inf)])
def test_decay_fit_rejects_nonfinite_samples(where, value):
    # a NaN or inf in d fitted to a NaN exponent; a NaN in t passed every
    # guard and failed inside LAPACK with a LinAlgError
    t = np.linspace(1.0, 20.0, 10)
    d = t ** -1.0
    (d if where == "d" else t)[4] = value
    with pytest.raises(ParameterError, match="finite"):
        decay_fit(t, d)


# -- the area bound ----------------------------------------------------------

# no bumps: u0 is the cone itself
NO_BUMPS = (np.empty((0, 2)), [], [])


def test_ball_quadrature_weights():
    center = np.array([2.0, -1.0])
    pts, w = analysis._unit_disk(center)
    assert w.sum() == pytest.approx(np.pi, rel=1e-6)
    assert np.all(np.sqrt(np.sum((pts - center[:, None]) ** 2, axis=0)) <= 1.0)


def test_c1_function_algebra_and_gradient():
    # two bumps sum their values, and the analytic gradient matches
    # central differences
    centers, amps, widths = [[0.0, 0.0], [1.0, 0.0]], [2.0, -1.0], [1.0, 0.5]
    pt = np.array([[0.3], [-0.2]])
    value, grad = analysis._gaussian_bumps(pt, centers, amps, widths)
    parts = [analysis._gaussian_bumps(pt, [c], [a], [w])[0][0]
             for c, a, w in zip(centers, amps, widths)]
    assert value[0] == pytest.approx(sum(parts))
    eps = 1e-6
    for d in range(2):
        e = np.zeros((2, 1))
        e[d, 0] = eps
        fd = (analysis._gaussian_bumps(pt + e, centers, amps, widths)[0][0]
              - analysis._gaussian_bumps(pt - e, centers, amps, widths)[0][0]) / (2 * eps)
        assert grad[d, 0] == pytest.approx(fd, abs=1e-6)


def test_c1_function_from_cone_takes_radial_cones_only():
    k = ConeProfile.angular(lambda th: 1.0 + 0.1 * np.cos(2 * th), m=16)
    with pytest.raises(ParameterError, match="radial"):
        graph_area_bound_check(k, NO_BUMPS, np.array([3.0, 0.0]), 0.5)


def test_area_bound_validation():
    k = ConeProfile.radial(2, 1.0)
    x = np.array([3.0, 0.0])
    with pytest.raises(ParameterError):
        graph_area_bound_check(k, NO_BUMPS, x, 1.5)  # rho outside (0,1)
    with pytest.raises(ParameterError, match="n = 2"):
        graph_area_bound_check(ConeProfile.radial(3, 1.0), NO_BUMPS, x, 0.5)


def test_area_bound_pass_with_large_bump():
    k = ConeProfile.radial(2, 1.0)
    rep = graph_area_bound_check(k, ([[3.0, 0.0]], [2.0], [0.8]),
                                 np.array([3.0, 0.0]), 0.5)
    assert rep.summary["hypothesis_ok"]
    assert rep.summary["area"] > 0.0
    assert rep.passed


def test_area_bound_evaluates_the_gradient_once(monkeypatch):
    k = ConeProfile.radial(2, 1.0)
    bumps = ([[3.0, 0.0]], [2.0], [0.8])
    x = np.array([3.0, 0.0])
    want = graph_area_bound_check(k, bumps, x, 0.5)
    calls = []
    evaluate = analysis._gaussian_bumps

    def counted(pts, *args):
        calls.append(len(pts))
        return evaluate(pts, *args)

    monkeypatch.setattr(analysis, "_gaussian_bumps", counted)
    assert graph_area_bound_check(k, bumps, x, 0.5) == want
    assert len(calls) == 1


# The (M, 2) point layout the area bound was first written in, frozen: the
# (2, M) rows must give every point, weight and report bit for bit.

def _frozen_unit_disk(center):
    m_r, m_phi = 240, 128
    h = 1.0 / m_r
    c = np.asarray(center, dtype=float)
    s = (np.arange(m_r) + 0.5) * h
    phi = 2.0 * np.pi * (np.arange(m_phi) + 0.5) / m_phi
    S, PHI = np.meshgrid(s, phi, indexing="ij")
    pts = np.stack([c[0] + S * np.cos(PHI), c[1] + S * np.sin(PHI)], axis=-1)
    w = S * h * (2.0 * np.pi / m_phi)
    return pts.reshape(-1, 2), w.ravel()


def _frozen_cone(beta, pts):
    r = np.sqrt(np.sum(pts ** 2, axis=-1))
    safe = np.where(r > 0, r, 1.0)
    return beta * r, beta * pts / safe[:, None] * (r > 0)[:, None]


def _frozen_gaussian_bumps(pts, centers, amplitudes, widths):
    value = np.zeros(pts.shape[0])
    grad = np.zeros_like(pts)
    for c, a, w in zip(np.atleast_2d(centers), np.atleast_1d(amplitudes),
                       np.atleast_1d(widths)):
        e = a * np.exp(-np.sum((pts - c) ** 2, axis=-1) / (2 * w * w))
        value += e
        grad += -e[:, None] * (pts - c) / (w * w)
    return value, grad


def _frozen_area_bound(k, bumps, x, rho, G):
    x = np.asarray(x, dtype=float)
    pts, w = _frozen_unit_disk(x)
    bumps_v, bumps_dv = _frozen_gaussian_bumps(pts, *bumps)
    cone, dcone = _frozen_cone(k.beta, pts)
    v = (cone + bumps_v) - cone
    du0 = dcone + bumps_dv
    dv = du0 - dcone
    in_rho = np.sum((pts - x) ** 2, axis=-1) <= rho * rho
    area_set = in_rho & (v > rho)
    area = float(np.sum(w[area_set] * np.sqrt(1.0 + np.sum(du0[area_set] ** 2, axis=-1))))
    eps = 1.0 / (1.0 + float(np.sqrt(np.sum(x ** 2))))
    bv_set = np.abs(v) > eps
    bv = float(np.sum(w[bv_set] * (np.abs(v[bv_set])
                                   + np.sqrt(np.sum(dv[bv_set] ** 2, axis=-1)))))
    bound = (4.0 + 3.0 * G / rho) * bv
    return analysis.ScenarioReport(area <= bound * (1 + 1e-12) + 1e-15,
                                   {"area": area, "hypothesis_ok": eps <= rho}, None)


@pytest.mark.parametrize("center", [(0.0, 0.0), (2.0, -1.0), (-4.3, 5.7), (1e-3, 3.9)])
def test_unit_disk_rows_match_the_frozen_layout(center):
    pts, w = analysis._unit_disk(center)
    want_pts, want_w = _frozen_unit_disk(center)
    assert pts.shape == (2, want_w.size)
    assert pts.tobytes() == np.ascontiguousarray(want_pts.T).tobytes()
    assert w.tobytes() == want_w.tobytes()


def test_area_bound_draws_match_the_frozen_layout(monkeypatch):
    # criterion 12's own seeded draws (the quick prefix of 25), each checked
    # by the product and by the frozen (M, 2) code, with the graph's parts
    # compared at the quadrature points
    pairs = []
    check = acceptance.graph_area_bound_check

    def both(k, bumps, x, rho):
        pts, _ = analysis._unit_disk(x)
        for got, want in zip(analysis._gaussian_bumps(pts, *bumps)
                             + analysis._cone(k.beta, pts),
                             _frozen_gaussian_bumps(pts.T, *bumps)
                             + _frozen_cone(k.beta, pts.T)):
            assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()
        rep = check(k, bumps, x, rho)
        # criterion 12 passed G = max(1, beta) for its positive slopes
        pairs.append((rep, _frozen_area_bound(k, bumps, x, rho, max(1.0, k.beta))))
        return rep

    monkeypatch.setattr(acceptance, "graph_area_bound_check", both)
    ok, _ = acceptance.area_bv_bound(quick=True)
    assert ok and len(pairs) == 25
    assert any(want.summary["area"] > 0 for _, want in pairs)
    for rep, want in pairs:
        assert rep == want


def test_area_bound_trivial_when_no_excess():
    k = ConeProfile.radial(2, 1.0)
    rep = graph_area_bound_check(k, NO_BUMPS, np.array([4.0, 0.0]), 0.6)
    assert rep.summary["area"] == 0.0
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


@pytest.mark.parametrize("rhos", [(0.1,), (0.1, 0.1), (0.1, math.nan)])
def test_clearing_out_scaling_needs_two_widths(rhos):
    # one width gave exponent 1.41 from a rank-deficient fit, with a warning
    with pytest.raises(ParameterError, match="two distinct positive widths"):
        clearing_out_scaling(ConeProfile.radial(2, 1.0), rhos=rhos)


def test_clearing_out_scaling_quick():
    exponent = clearing_out_scaling(ConeProfile.radial(2, 1.0), rhos=(0.1, 0.2))
    assert 1.5 <= exponent <= 2.5
