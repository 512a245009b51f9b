import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from coneflow import geometry
from coneflow.barriers import lemma_barrier_flow
from coneflow.cones import ConeProfile
from coneflow.errors import GridError
from coneflow.geometry import (GridFunction, GridSpec, grids_match,
                               mean_curvature, radial_rhs, _d1_d2,
                               _polar_derivatives, _radial_curvatures,
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


def test_polar_grid_validation():
    # an r = 0 ring and an odd angular count leave no antipodal ghost ring
    for nodes, nt in ((np.linspace(0.0, 2.0, 10), 12), (np.linspace(0.5, 2.0, 10), 15)):
        with pytest.raises(GridError, match="antipodal"):
            GridSpec(2, nodes, 2.0 * np.pi * np.arange(nt) / nt)
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


# -- exact oracle of the polar curvature and flow speed.  Scherk's minimal
# graph u = log(cos y / cos x) has H = 0, and u = xy has the Cartesian mean
# curvature ((1+u_y^2)u_xx - 2u_x u_y u_xy + (1+u_x^2)u_yy)/W^3 = -2xy/W^3
# with W = sqrt(1 + x^2 + y^2), so its speed W*H is -2xy/W^2; u = xy is
# homogeneous of degree 2, so the similarity drift (r u_r - u)/2 adds xy/2.
# On the unit disk the interior error (all but the one-sided outer ring)
# falls at second order; the cross term h[1] enters both graphs at first
# order, so a wrong sign there is off by O(1).

def _polar_curvature_errors(nr, ntheta):
    spec = GridSpec.polar_disk(1.0, nr, ntheta)
    r, th = spec.nodes[:, None], spec.thetas[None, :]
    x, y = r * np.cos(th), r * np.sin(th)
    scherk, saddle = np.log(np.cos(y) / np.cos(x)), x * y
    W2 = 1.0 + x * x + y * y
    got_want = [
        (mean_curvature(GridFunction(spec, scherk)).values, 0.0),
        (mean_curvature(GridFunction(spec, saddle)).values, -2.0 * x * y / W2 ** 1.5),
        (geometry._polar_speed(spec, scherk), 0.0),
        (geometry._polar_speed(spec, saddle), -2.0 * x * y / W2),
        (geometry._polar_speed(spec, saddle, drift=True), -2.0 * x * y / W2 + x * y / 2),
    ]
    return [float(np.max(np.abs(got - want)[:-1])) for got, want in got_want]


def _polar_rows_within_bounds():
    """Per oracle row: the fine error within its bound at order >= 1.8."""
    coarse = _polar_curvature_errors(41, 64)
    fine = _polar_curvature_errors(81, 128)
    # W reaches 1.6 on Scherk's disk and scales its speed error
    bounds = (2e-3, 2e-3, 4e-3, 2e-3, 2e-3)
    return [e_fine <= bound and np.log2(e_coarse / e_fine) >= 1.8
            for e_coarse, e_fine, bound in zip(coarse, fine, bounds)]


def test_polar_curvature_converges_on_exact_graphs():
    assert all(_polar_rows_within_bounds())


def _polar_quantities_copy(cross_sign=1.0, g01=True):
    """geometry._polar_quantities as written, with the sign of the cross
    term h[1] and the presence of the metric's g[1] as knobs."""
    def quantities(spec, vals):
        r = spec.nodes[:, None]
        ur, ut, urr, utt, urt = _polar_derivatives(spec, vals)
        W = np.sqrt(1.0 + ur ** 2 + (ut / r) ** 2)
        g = (1.0 + ur ** 2, ur * ut if g01 else 0.0, r ** 2 + ut ** 2)
        h = (urr / W, cross_sign * (urt - ut / r) / W, (r * ur + utt) / W)
        det = g[0] * g[2] - g[1] ** 2
        return ur, W, (g[2] * h[0] - 2.0 * g[1] * h[1] + g[0] * h[2]) / det
    return quantities


def test_polar_quantities_copy_is_faithful():
    spec = GridSpec.polar_disk(1.0, 21, 32)
    r, th = spec.nodes[:, None], spec.thetas[None, :]
    vals = np.log(np.cos(r * np.sin(th)) / np.cos(r * np.cos(th)))
    for got, want in zip(_polar_quantities_copy()(spec, vals),
                         geometry._polar_quantities(spec, vals)):
        assert np.array_equal(got, want)


# the defect table of the polar oracle: each row is the copy above with one
# defect, and every oracle row catches it.  The other rows of the table live
# with their oracles: the radial speed defects fail the u = r^2/2 oracle
# (test_quadratic_oracle_catches_speed_defects), the one-update Newton
# defect the Newton contract tests (test_*_keep_the_newton_contract in
# test_flow.py), and the two expander-ODE defects
# test_axis_height_against_independent_oracle in test_expander.py.
@pytest.mark.parametrize("defect", [{"cross_sign": -1.0}, {"g01": False}],
                         ids=["h01-sign-flipped", "g01-dropped"])
def test_polar_oracle_catches_defects(monkeypatch, defect):
    monkeypatch.setattr(geometry, "_polar_quantities", _polar_quantities_copy(**defect))
    assert not any(_polar_rows_within_bounds())


def _frozen_d1_d2(x, y):
    """The nonuniform three-point formulas written out, as a reference that
    does not read geometry's weight table."""
    x = x.reshape((-1,) + (1,) * (y.ndim - 1))
    d1 = np.empty_like(y)
    d2 = np.empty_like(y)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    d1[1:-1] = (-hp / (hm * (hm + hp))) * y[:-2] \
        + ((hp - hm) / (hm * hp)) * y[1:-1] \
        + (hm / (hp * (hm + hp))) * y[2:]
    d2[1:-1] = 2.0 * (y[:-2] / (hm * (hm + hp))
                      - y[1:-1] / (hm * hp)
                      + y[2:] / (hp * (hm + hp)))
    h1, h2 = x[1] - x[0], x[2] - x[1]
    d1[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2))) * y[0] \
        + ((h1 + h2) / (h1 * h2)) * y[1] - (h1 / (h2 * (h1 + h2))) * y[2]
    d2[0] = 2.0 * (y[0] / (h1 * (h1 + h2)) - y[1] / (h1 * h2) + y[2] / (h2 * (h1 + h2)))
    g1, g2 = x[-1] - x[-2], x[-2] - x[-3]
    d1[-1] = ((2 * g1 + g2) / (g1 * (g1 + g2))) * y[-1] \
        - ((g1 + g2) / (g1 * g2)) * y[-2] + (g1 / (g2 * (g1 + g2))) * y[-3]
    d2[-1] = 2.0 * (y[-1] / (g1 * (g1 + g2)) - y[-2] / (g1 * g2) + y[-3] / (g2 * (g1 + g2)))
    return d1, d2


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_d1_d2_matches_frozen_formulas(ndim):
    rng = np.random.default_rng(ndim)
    for _ in range(25):
        N = int(rng.integers(8, 60))
        x = np.cumsum(rng.uniform(0.01, 2.0, N)) - rng.uniform(0.0, 5.0)
        y = rng.normal(size=(N, 3, 4)[:ndim]) * 10.0 ** rng.uniform(-3, 3)
        _assert_same_bits(_d1_d2(x, y), _frozen_d1_d2(x, y))


_ORACLE_GRIDS = {
    "uniform-origin": GridSpec.uniform(2, 0.0, 5.0, 33),
    "geometric": GridSpec.geometric(3, 0.05, 4.0),
}


@pytest.mark.parametrize("grid", sorted(_ORACLE_GRIDS))
@given(data=st.data())
def test_radial_operator_matches_d1_d2(grid, data):
    # the cached operator reproduces the frozen formulas (on the even
    # extension at r = 0) bit for bit
    spec = _ORACLE_GRIDS[grid]
    r = spec.nodes
    v = data.draw(hnp.arrays(np.float64, r.size,
                             elements=st.floats(-1e3, 1e3)))
    want = _frozen_d1_d2(np.concatenate(([-r[1]], r)),
                         np.concatenate(([v[1]], v)))
    want = tuple(d[1:] for d in want)
    _assert_same_bits(_radial_derivatives(spec, v), want)


@pytest.mark.parametrize("grid", sorted(_ORACLE_GRIDS))
def test_radial_derivatives_of_a_stack_match_its_columns(grid):
    # trailing stack axes, here a strided view as psi_identity_residual
    # passes, give every column the bits it gets alone
    spec = _ORACLE_GRIDS[grid]
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(spec.nr, 7)) * 10.0 ** rng.uniform(-3, 3, 7)
    got = _radial_derivatives(spec, stack[:, 1:-1])
    for k in range(5):
        _assert_same_bits(tuple(d[:, k] for d in got),
                          _radial_derivatives(spec, stack[:, k + 1].copy()))


# -- exact oracle of the radial flow speed.  The three-point stencil is exact
# on quadratics, so u = r^2/2 has u_r = r and u_rr = 1 up to round-off, and
# the speed is n at r = 0 and 1/(1+r^2) + (n-1) elsewhere.  Each defect row
# below is a monkeypatched _radial_speed that the oracle must catch.

_QUADRATIC_GRIDS = {
    "uniform": lambda n: GridSpec.uniform(n, 0.0, 5.0, 41),
    "geometric": lambda n: GridSpec.geometric(n, 0.05, 5.0),
}


def _quadratic_speed_error(spec):
    r = spec.nodes
    got = radial_rhs(GridFunction(spec, 0.5 * r * r)).values
    want = np.where(r > 0, 1.0 / (1.0 + r * r) + (spec.n - 1), float(spec.n))
    return float(np.max(np.abs(got - want)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("grid", sorted(_QUADRATIC_GRIDS))
def test_radial_speed_exact_on_quadratics(grid, n):
    assert _quadratic_speed_error(_QUADRATIC_GRIDS[grid](n)) <= 1e-12


def _wrong_dimension(speed):
    # (n-1) u_r/r becomes (n-2) u_r/r off the axis
    def mutant(spec, p, q):
        s, one_p2 = speed(spec, p, q)
        s[1:] -= p[1:] / spec.nodes[1:]
        return s, one_p2
    return mutant


def _slowed(speed):
    def mutant(spec, p, q):
        s, one_p2 = speed(spec, p, q)
        return 0.99 * s, one_p2
    return mutant


@pytest.mark.parametrize("defect", [_wrong_dimension, _slowed],
                         ids=["n-2", "speed-x0.99"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("grid", sorted(_QUADRATIC_GRIDS))
def test_quadratic_oracle_catches_speed_defects(monkeypatch, grid, n, defect):
    monkeypatch.setattr(geometry, "_radial_speed", defect(geometry._radial_speed))
    assert _quadratic_speed_error(_QUADRATIC_GRIDS[grid](n)) > 1e-3


def test_radial_rhs_needs_a_grid_from_the_axis():
    # the speed continues across r = 0, and so does every radial grid: one
    # that stops short of the axis is rejected when it is built
    with pytest.raises(GridError, match="r = 0"):
        GridSpec.uniform(2, 0.5, 5.0, 33)


def test_barrier_curvature_matches_frozen_formulas():
    # the barrier curve's H is the frozen three-point table followed by the
    # written-out H = q/W^3 + (n-1) p/(r W), bit for bit, and H_min is its
    # minimum over the certified window
    res = lemma_barrier_flow(ConeProfile.radial(3, 1.0), 300)
    r, b = res.r, res.b
    p, q = _frozen_d1_d2(r, b)
    W = np.sqrt(1.0 + p * p)
    want = q / W ** 3 + (3 - 1) * (p / (r * W))
    assert np.array_equal(_radial_curvatures(3, r, *_d1_d2(r, b)), want)
    lo, hi = res.certified
    assert res.H_min == float(np.min(want[(r >= lo) & (r <= hi)]))


def _frozen_polar_derivatives(spec, vals):
    """The polar derivatives as first written: radial axis moved first, the
    antipodal ghost ring prepended, and the frozen three-point formulas on
    [-r_0, r...]."""
    nt = spec.ntheta
    v = np.moveaxis(vals, -2, 0)
    dtheta = 2.0 * np.pi / nt
    up = np.roll(v, -1, axis=-1)
    um = np.roll(v, 1, axis=-1)
    ut = (up - um) / (2.0 * dtheta)
    utt = (up - 2.0 * v + um) / dtheta ** 2
    re = np.concatenate(([-spec.nodes[0]], spec.nodes))
    v = np.concatenate((np.roll(v[:1], nt // 2, axis=-1), v))
    ute = np.concatenate((np.roll(ut[:1], nt // 2, axis=-1), ut))
    ur, urr = _frozen_d1_d2(re, v)
    urt, _ = _frozen_d1_d2(re, ute)
    ur, urr, urt = ur[1:], urr[1:], urt[1:]
    return tuple(np.moveaxis(d, 0, -2) for d in (ur, ut, urr, utt, urt))


_POLAR_SPECS = pytest.mark.parametrize("spec", [GridSpec.polar_disk(1.0, 12, 16)],
                                       ids=["disk"])


@_POLAR_SPECS
def test_polar_derivatives_match_frozen_formulas(spec):
    vals = np.random.default_rng(7).normal(size=(3,) + spec.shape)
    _assert_same_bits(_polar_derivatives(spec, vals),
                      _frozen_polar_derivatives(spec, vals))


@_POLAR_SPECS
def test_polar_derivatives_match_frozen_formulas_unstacked(spec):
    vals = np.random.default_rng(7).normal(size=spec.shape)
    _assert_same_bits(_polar_derivatives(spec, vals),
                      _frozen_polar_derivatives(spec, vals))


@pytest.mark.parametrize("n, r0, thetas, builds", [
    (2, 0.0, None, True),
    (3, 0.5, None, False),
    (2, 1.0 / 24, 2.0 * np.pi * np.arange(16) / 16, True),
], ids=["radial-origin", "radial-annulus", "disk"])
def test_grids_continue_across_the_origin(n, r0, thetas, builds):
    # a radial grid reads its ghost node across the axis, so it starts at
    # r = 0; a polar grid crosses the origin through its antipodal ring
    nodes = np.linspace(r0, 1.0, 12)
    if builds:
        assert GridSpec(n, nodes, thetas).nodes[0] == r0
    else:
        with pytest.raises(GridError, match="r = 0"):
            GridSpec(n, nodes, thetas)
