import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from coneflow.errors import GridError
from coneflow.geometry import (GridFunction, GridSpec, geometric_state,
                               grids_match, mean_curvature, _d1_d2,
                               _radial_derivatives)


def test_uniform_spec_basics():
    spec = GridSpec.uniform(2, 0.0, 10.0, 101)
    assert spec.nodes.size == 101
    assert spec.nodes[0] == 0.0 and spec.nodes[-1] == 10.0
    assert spec.max_spacing() == pytest.approx(0.1)
    assert not spec.polar


def test_geometric_spec_monotone():
    spec = GridSpec.geometric(2, h0=0.01, r_max=5.0, ratio=1.05)
    d = np.diff(spec.nodes)
    assert np.all(d > 0)
    # spacing grows geometrically except the final node, clipped to r_max
    assert np.all(np.diff(d[:-1]) > -1e-15)
    assert spec.nodes[0] == 0.0
    assert spec.nodes[-1] == pytest.approx(5.0)


def test_grid_function_shape_mismatch():
    spec = GridSpec.uniform(2, 0.0, 1.0, 11)
    with pytest.raises(GridError):
        GridFunction(spec, np.zeros(10))


def test_grids_match():
    a = GridSpec.uniform(2, 0.0, 1.0, 11)
    b = GridSpec.uniform(2, 0.0, 1.0, 11)
    c = GridSpec.uniform(2, 0.0, 1.0, 12)
    assert grids_match(a, b)
    assert not grids_match(a, c)


def test_plane_has_zero_curvature():
    spec = GridSpec.uniform(3, 0.0, 5.0, 201)
    H = mean_curvature(GridFunction(spec, np.full(201, 2.5))).values
    assert np.max(np.abs(H)) < 1e-11


@pytest.mark.parametrize("n,beta", [(2, 1.0), (3, 0.5), (4, 2.0)])
def test_cone_curvature_closed_form(n, beta):
    # linear profiles are differentiated exactly by the 3-point stencils,
    # so away from the origin kink the match is at rounding level
    spec = GridSpec.uniform(n, 0.0, 20.0, 401)
    r = spec.nodes
    H = mean_curvature(GridFunction(spec, beta * r)).values
    expected = (n - 1) * beta / (r[1:] * np.sqrt(1.0 + beta ** 2))
    assert np.allclose(H[1:], expected, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_paraboloid_curvature_exact(n):
    # quadratics are also exact for the stencils, including the even
    # extension through the origin
    spec = GridSpec.uniform(n, 0.0, 3.0, 151)
    r = spec.nodes
    H = mean_curvature(GridFunction(spec, 0.5 * r ** 2)).values
    W = np.sqrt(1.0 + r ** 2)
    expected = 1.0 / W ** 3 + (n - 1) / W
    assert np.allclose(H, expected, rtol=1e-10)
    assert H[0] == pytest.approx(n, rel=1e-10)


def test_geometric_state_invariants_radial():
    spec = GridSpec.uniform(3, 0.0, 8.0, 257)
    r = spec.nodes
    u = GridFunction(spec, np.sqrt(1.0 + r ** 2))
    state = geometric_state(u)
    state.check()
    assert np.all(state.W >= 1.0)


def test_geometric_state_cone_relation():
    # a cone has vanishing profile curvature, so H^2 = (n-1) |A|^2
    n, beta = 3, 1.5
    spec = GridSpec.uniform(n, 0.0, 10.0, 301)
    u = GridFunction(spec, beta * spec.nodes)
    state = geometric_state(u)
    inner = slice(1, -1)
    assert np.allclose(state.H[inner] ** 2, (n - 1) * state.A2[inner],
                       rtol=1e-9)


def test_polar_grid_validation():
    with pytest.raises(GridError):
        GridSpec.polar_disk(0.0, 8, 16)
    spec = GridSpec.polar_disk(4.0, 16, 24)
    assert spec.polar
    assert spec.shape == (16, 24)


def test_polar_matches_radial_curvature():
    # rotationally symmetric data on the polar grid against the closed-form
    # curvature of the hyperboloid graph sqrt(1+r^2); the innermost rings
    # lean on the through-origin stagger and are the least accurate
    spec = GridSpec.polar_disk(6.0, 48, 32)
    rr = spec.nodes[:, None]
    u = GridFunction(spec, np.broadcast_to(np.sqrt(1.0 + rr ** 2),
                                           spec.shape).copy())
    H_polar = mean_curvature(u).values
    r = spec.nodes
    ur = r / np.sqrt(1.0 + r ** 2)
    urr = 1.0 / (1.0 + r ** 2) ** 1.5
    W = np.sqrt(1.0 + ur ** 2)
    expected = urr / W ** 3 + ur / (r * W)
    err = np.abs(H_polar - expected[:, None])
    assert np.max(err[4:, :]) < 2e-3
    assert np.max(err) < 2e-2


@given(st.floats(0.2, 3.0), st.integers(2, 4))
def test_state_normal_is_unit(beta, n):
    spec = GridSpec.uniform(n, 0.0, 5.0, 101)
    state = geometric_state(GridFunction(spec, beta * spec.nodes))
    norms = np.sqrt(np.sum(state.nu ** 2, axis=-1))
    assert np.allclose(norms, 1.0, atol=1e-12)


_ORACLE_GRIDS = {
    "uniform-origin": GridSpec.uniform(2, 0.0, 5.0, 33),
    "geometric": GridSpec.geometric(3, 0.05, 4.0),
    "annulus": GridSpec.uniform(2, 0.5, 5.0, 33),
}


@pytest.mark.parametrize("grid", sorted(_ORACLE_GRIDS))
@given(data=st.data())
def test_radial_operator_matches_d1_d2(grid, data):
    # the cached operator must reproduce _d1_d2 on the even extension bit
    # for bit, so switching to it moves no result
    spec = _ORACLE_GRIDS[grid]
    r = spec.nodes
    v = data.draw(hnp.arrays(np.float64, r.size,
                             elements=st.floats(-1e3, 1e3)))
    p, q = _radial_derivatives(spec, v)
    if r[0] == 0.0:
        ref_p, ref_q = _d1_d2(np.concatenate(([-r[1]], r)),
                              np.concatenate(([v[1]], v)))
        ref_p, ref_q = ref_p[1:], ref_q[1:]
    else:
        ref_p, ref_q = _d1_d2(r, v)
    assert np.array_equal(p, ref_p)
    assert np.array_equal(q, ref_q)
