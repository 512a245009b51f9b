"""Differential geometry of graphical hypersurfaces over radial and polar grids.

A hypersurface in R^{n+1} is represented as the graph of a height function u.
Two grid modes are supported: rotationally symmetric graphs u(r) over radii
r >= 0 in any dimension n, and full graphs u(r, theta) over a polar grid in
the plane (n = 2).

Orientation convention: the downward unit normal nu = (Du, -1)/sqrt(1+|Du|^2)
is used throughout, so convex graphs have positive mean curvature.  In
particular H[beta*|x|] = (n-1)*beta/(r*sqrt(1+beta^2)) > 0 for beta > 0, and a
lower hemisphere of radius R has H = n/R.

Derivatives are second-order centered differences on possibly non-uniform
grids; boundary nodes fall back to one-sided stencils and are lower accuracy
(see :func:`interior_mask`).  A radial grid whose first node sits at r = 0
uses the even extension u(-r) = u(r), and polar grids flagged as passing
through the origin use the antipodal continuation u(-r, theta) = u(r,
theta+pi) across the innermost ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GridError

__all__ = [
    "GridSpec",
    "GridFunction",
    "GeometricState",
    "grids_match",
    "mean_curvature",
    "divergence_form_rhs",
    "geometric_state",
    "graph_rhs",
    "radial_rhs",
    "interior_mask",
]

_MIN_NODES = 8


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Radial or polar computational grid.

    Instances hash and compare by identity (the node arrays make value
    equality ill-defined); use :func:`grids_match` to compare layouts.

    ``nodes`` holds strictly increasing radii with r_min >= 0.  ``thetas``
    switches the grid to polar mode (n must equal 2) and must sample [0, 2pi)
    uniformly.  ``through_origin`` marks a polar grid whose innermost ring is
    meant to continue across r = 0 (antipodal ghost ring); it requires an even
    number of angular nodes.
    """

    n: int
    nodes: np.ndarray
    thetas: np.ndarray | None = None
    through_origin: bool = False

    def __post_init__(self):
        if int(self.n) < 1:
            raise GridError(f"dimension n must be a positive integer, got {self.n}")
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < _MIN_NODES:
            raise GridError(f"need at least {_MIN_NODES} radial nodes, got {nodes.size}")
        if not np.all(np.isfinite(nodes)):
            raise GridError("radial nodes must be finite")
        if nodes[0] < 0:
            raise GridError("radial nodes must satisfy r >= 0")
        if np.any(np.diff(nodes) <= 0):
            raise GridError("radial nodes must be strictly increasing (no duplicates)")
        if self.thetas is not None:
            if self.n != 2:
                raise GridError("polar grids are only supported for n = 2")
            th = np.asarray(self.thetas, dtype=float)
            th.setflags(write=False)
            object.__setattr__(self, "thetas", th)
            nt = th.size
            if nt < 8:
                raise GridError("need at least 8 angular nodes")
            expected = 2.0 * np.pi * np.arange(nt) / nt
            if not np.allclose(th, expected, rtol=0, atol=1e-12 * 2 * np.pi):
                raise GridError("angular nodes must sample [0, 2pi) uniformly from 0")
            if self.through_origin:
                if nt % 2:
                    raise GridError("through-origin polar grids need an even angular count")
                if nodes[0] <= 0:
                    raise GridError("through-origin polar grids must not contain r = 0")
        elif self.through_origin:
            raise GridError("through_origin applies to polar grids only")

    # -- conveniences -------------------------------------------------------

    @property
    def polar(self) -> bool:
        return self.thetas is not None

    @property
    def nr(self) -> int:
        return self.nodes.size

    @property
    def ntheta(self) -> int:
        return 0 if self.thetas is None else self.thetas.size

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def shape(self) -> tuple:
        return (self.nr,) if not self.polar else (self.nr, self.ntheta)

    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @classmethod
    def uniform(cls, n: int, r_min: float, r_max: float, count: int) -> "GridSpec":
        return cls(n, np.linspace(r_min, r_max, count))

    @classmethod
    def geometric(cls, n: int, h0: float, r_max: float, ratio: float = 1.03,
                  include_origin: bool = True) -> "GridSpec":
        """Geometrically stretched radial grid with first spacing ``h0``."""
        if h0 <= 0 or ratio <= 1:
            raise GridError("need h0 > 0 and ratio > 1")
        radii = [0.0] if include_origin else [h0]
        r, h = radii[-1], h0
        while r < r_max:
            r += h
            radii.append(min(r, r_max))
            h *= ratio
        return cls(n, np.array(radii))

    @classmethod
    def polar_disk(cls, r_max: float, nr: int, ntheta: int = 32) -> "GridSpec":
        """Polar grid on a disk; rings staggered at (i+1/2)*h away from r=0."""
        h = r_max / nr
        radii = (np.arange(nr) + 0.5) * h
        thetas = 2.0 * np.pi * np.arange(ntheta) / ntheta
        return cls(2, radii, thetas, through_origin=True)

    @classmethod
    def polar_annulus(cls, r_min: float, r_max: float, nr: int, ntheta: int = 32) -> "GridSpec":
        if r_min <= 0:
            raise GridError("annulus needs r_min > 0")
        thetas = 2.0 * np.pi * np.arange(ntheta) / ntheta
        return cls(2, np.linspace(r_min, r_max, nr), thetas)


@dataclass(eq=False)
class GridFunction:
    """Finite values sampled on a :class:`GridSpec`."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise GridError(f"values shape {vals.shape} does not match grid {self.spec.shape}")
        if not np.all(np.isfinite(vals)):
            raise GridError("grid function values must be finite")
        self.values = vals

    @classmethod
    def from_callable(cls, spec: GridSpec, f) -> "GridFunction":
        if spec.polar:
            r = spec.nodes[:, None]
            th = spec.thetas[None, :]
            return cls(spec, np.broadcast_to(f(r, th), spec.shape).copy())
        return cls(spec, np.broadcast_to(f(spec.nodes), spec.shape).copy())

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.spec, values)

    def copy(self) -> "GridFunction":
        return GridFunction(self.spec, self.values.copy())


@dataclass(eq=False)
class GeometricState:
    """Pointwise geometric data of a graph.

    Radial mode stores profile-plane quantities: ``X`` and ``nu`` have
    components (distance from axis, height); ``g`` and ``h`` hold the radial
    entry and the coefficient of the round angular block, i.e.
    g = diag(g[...,0], g[...,1]*sigma) on (radial, sphere) directions; and
    ``kappa`` holds the two distinct principal curvatures (profile,
    rotational).  Polar mode stores the full 3-vector ``X``/``nu`` and 2x2
    ``g``/``h`` in (r, theta) coordinates.
    """

    spec: GridSpec
    X: np.ndarray
    nu: np.ndarray
    g: np.ndarray
    h: np.ndarray
    H: np.ndarray
    A2: np.ndarray
    W: np.ndarray
    X_dot_nu: np.ndarray
    kappa: np.ndarray | None = None

    @property
    def X_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.X ** 2, axis=-1))

    def invariant_violations(self) -> dict:
        """Largest deviation from each structural invariant (all should be ~0)."""
        dev = {}
        dev["unit_normal"] = float(np.max(np.abs(np.sqrt(np.sum(self.nu ** 2, axis=-1)) - 1.0)))
        scale = np.maximum(1.0, np.abs(self.H))
        if self.spec.polar:
            det = self.g[..., 0, 0] * self.g[..., 1, 1] - self.g[..., 0, 1] ** 2
            tr = (self.g[..., 1, 1] * self.h[..., 0, 0]
                  - 2.0 * self.g[..., 0, 1] * self.h[..., 0, 1]
                  + self.g[..., 0, 0] * self.h[..., 1, 1]) / det
            dev["trace"] = float(np.max(np.abs(tr - self.H) / scale))
        else:
            r = self.spec.nodes
            pos = r > 0
            tr = (self.h[pos, 0] / self.g[pos, 0]
                  + (self.spec.n - 1) * self.h[pos, 1] / np.where(self.g[pos, 1] > 0, self.g[pos, 1], 1.0))
            dev["trace"] = float(np.max(np.abs(tr - self.H[pos]) / scale[pos])) if pos.any() else 0.0
        a2_scale = np.maximum(1.0, self.A2)
        dev["cauchy_schwarz"] = float(np.max((self.H ** 2 / self.spec.n - self.A2) / a2_scale))
        dev["a2_nonneg"] = float(np.max(-self.A2 / a2_scale))
        return dev

    def check(self) -> None:
        dev = self.invariant_violations()
        if dev["unit_normal"] > 1e-12:
            raise GridError(f"normal not unit length (off by {dev['unit_normal']:.2e})")
        if dev["trace"] > 1e-10:
            raise GridError(f"H differs from trace of h against g (off by {dev['trace']:.2e})")
        if dev["cauchy_schwarz"] > 1e-10 or dev["a2_nonneg"] > 1e-12:
            raise GridError("second fundamental form inconsistent (|A|^2 bounds violated)")


def grids_match(a: GridSpec, b: GridSpec) -> bool:
    """Same dimension and node layout (exact node equality)."""
    if a is b:
        return True
    if a.n != b.n or a.polar != b.polar or a.through_origin != b.through_origin:
        return False
    if not np.array_equal(a.nodes, b.nodes):
        return False
    if a.polar and not np.array_equal(a.thetas, b.thetas):
        return False
    return True


# ---------------------------------------------------------------------------
# finite differences


def _d1_d2(x: np.ndarray, y: np.ndarray):
    """First and second derivative of y(x), centered inside, one-sided at ends.

    Works along axis 0 for 2-d ``y``.  The one-sided first derivative is
    second order; the one-sided second derivative is the parabola through the
    outermost three nodes (first order on non-uniform grids).
    """
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


class _RadialOperator(NamedTuple):
    """Three-point derivative table of one radial grid.

    Row i of the derivatives reads the nodes ``rows[:, i]`` = (a, b, c):
    u_r = w[0]*u_a + w[1]*u_b + w[2]*u_c and
    u_rr = 2*(u_a/D[0] + u_b/D[1] + u_c/D[2]).  Interior rows (and an r = 0
    row, whose ghost node u(-r_1) = u(r_1) is read as node 1) use
    (a, b, c) = (i-1, i, i+1); the ends use the one-sided rows of
    :func:`_d1_d2`, with (0, 1, 2) first and (N-1, N-2, N-3) last.  Signs are
    folded into ``w`` and ``D`` and the second derivative keeps the division
    form of :func:`_d1_d2` (multiplying by a reciprocal rounds differently),
    so the results are bit-identical to it.
    """

    rows: np.ndarray
    w: np.ndarray
    D: np.ndarray


@lru_cache(maxsize=128)
def _radial_operator(spec: GridSpec) -> _RadialOperator:
    """The derivative table of a radial grid, cached per GridSpec (by identity)."""
    r = spec.nodes
    N = r.size
    x = np.concatenate(([-r[1]], r)) if r[0] == 0.0 else r
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    rows = np.empty((3, N), dtype=np.intp)
    w = np.empty((3, N))
    D = np.empty((3, N))
    # centered rows; on an r = 0 grid they start at node 0 with the ghost
    lo = 0 if r[0] == 0.0 else 1
    i = np.arange(lo, N - 1)
    rows[:, lo:-1] = (i - 1, i, i + 1)
    w[:, lo:-1] = (-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp)))
    D[:, lo:-1] = (hm * (hm + hp), -(hm * hp), hp * (hm + hp))
    if lo == 0:
        rows[0, 0] = 1
    else:
        h1, h2 = r[1] - r[0], r[2] - r[1]
        rows[:, 0] = (0, 1, 2)
        w[:, 0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2),
                   -(h1 / (h2 * (h1 + h2))))
        D[:, 0] = (h1 * (h1 + h2), -(h1 * h2), h2 * (h1 + h2))
    g1, g2 = r[-1] - r[-2], r[-2] - r[-3]
    rows[:, -1] = (N - 1, N - 2, N - 3)
    w[:, -1] = ((2 * g1 + g2) / (g1 * (g1 + g2)), -((g1 + g2) / (g1 * g2)),
                g1 / (g2 * (g1 + g2)))
    D[:, -1] = (g1 * (g1 + g2), -(g1 * g2), g2 * (g1 + g2))
    for arr in (rows, w, D):
        arr.setflags(write=False)
    return _RadialOperator(rows, w, D)


def _radial_derivatives(spec: GridSpec, vals: np.ndarray):
    """(u_r, u_rr) on a radial grid, using the even extension when r_min = 0."""
    op = _radial_operator(spec)
    ya, yb, yc = vals[op.rows]
    w, D = op.w, op.D
    p = w[0] * ya + w[1] * yb + w[2] * yc
    q = 2.0 * (ya / D[0] + yb / D[1] + yc / D[2])
    return p, q


def _theta_derivatives(spec: GridSpec, vals: np.ndarray):
    dtheta = 2.0 * np.pi / spec.ntheta
    up = np.roll(vals, -1, axis=1)
    um = np.roll(vals, 1, axis=1)
    ut = (up - um) / (2.0 * dtheta)
    utt = (up - 2.0 * vals + um) / dtheta ** 2
    return ut, utt


def _polar_extended(spec: GridSpec, vals: np.ndarray):
    """Radial node/value arrays with the antipodal ghost ring prepended."""
    if not spec.through_origin:
        return spec.nodes, vals
    ghost = np.roll(vals[0], spec.ntheta // 2)
    return np.concatenate(([-spec.nodes[0]], spec.nodes)), np.vstack([ghost, vals])


def _polar_derivatives(spec: GridSpec, vals: np.ndarray):
    """(u_r, u_theta, u_rr, u_thth, u_rth) on a polar grid."""
    re, ve = _polar_extended(spec, vals)
    ur, urr = _d1_d2(re, ve)
    ut, utt = _theta_derivatives(spec, vals)
    ute = np.vstack([np.roll(ut[0], spec.ntheta // 2), ut]) if spec.through_origin else ut
    urt, _ = _d1_d2(re, ute)
    if spec.through_origin:
        return ur[1:], ut, urr[1:], utt, urt[1:]
    return ur, ut, urr, utt, urt


# ---------------------------------------------------------------------------
# curvature operators


def _radial_curvatures(spec: GridSpec, p: np.ndarray, q: np.ndarray):
    """(W, profile curvature, rotational curvature, H) from (u_r, u_rr)."""
    r = spec.nodes
    W = np.sqrt(1.0 + p * p)
    kprof = q / W ** 3
    if r[0] == 0.0:
        krot = np.empty_like(p)
        krot[1:] = p[1:] / (r[1:] * W[1:])
        krot[0] = q[0]  # L'Hopital limit u_r/r -> u_rr at the axis
    else:
        krot = p / (r * W)
    H = kprof + (spec.n - 1) * krot
    return W, kprof, krot, H


def _radial_speed(spec: GridSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """u_rr/(1+u_r^2) + (n-1) u_r/r from (u_r, u_rr); n*u_rr at an r = 0 node."""
    r = spec.nodes
    if r[0] == 0.0:
        rhs = np.empty_like(p)
        rhs[1:] = q[1:] / (1.0 + p[1:] ** 2) + (spec.n - 1) * p[1:] / r[1:]
        rhs[0] = spec.n * q[0]
        return rhs
    return q / (1.0 + p * p) + (spec.n - 1) * p / r


def _radial_quantities(u: GridFunction):
    p, q = _radial_derivatives(u.spec, u.values)
    return (p, q) + _radial_curvatures(u.spec, p, q)


def _polar_quantities(u: GridFunction):
    spec = u.spec
    r = spec.nodes[:, None]
    ur, ut, urr, utt, urt = _polar_derivatives(spec, u.values)
    W2 = 1.0 + ur ** 2 + (ut / r) ** 2
    W = np.sqrt(W2)
    g = np.empty(spec.shape + (2, 2))
    g[..., 0, 0] = 1.0 + ur ** 2
    g[..., 0, 1] = g[..., 1, 0] = ur * ut
    g[..., 1, 1] = r ** 2 + ut ** 2
    h = np.empty_like(g)
    h[..., 0, 0] = urr / W
    h[..., 0, 1] = h[..., 1, 0] = (urt - ut / r) / W
    h[..., 1, 1] = (r * ur + utt) / W
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    H = (g[..., 1, 1] * h[..., 0, 0] - 2.0 * g[..., 0, 1] * h[..., 0, 1]
         + g[..., 0, 0] * h[..., 1, 1]) / det
    return ur, ut, urr, utt, urt, W, g, h, det, H


def mean_curvature(u: GridFunction) -> GridFunction:
    """Mean curvature H of the graph of ``u`` (downward normal).

    Radial mode evaluates the rotationally reduced divergence form
    H = u_rr/(1+u_r^2)^{3/2} + (n-1) u_r/(r sqrt(1+u_r^2)), with the
    regularized limit n*u_rr(0) at an r = 0 node.  Polar mode contracts the
    full second fundamental form against the inverse metric.  Boundary nodes
    use one-sided stencils and carry lower accuracy.
    """
    if u.spec.polar:
        H = _polar_quantities(u)[-1]
    else:
        H = _radial_quantities(u)[-1]
    return GridFunction(u.spec, H)


def divergence_form_rhs(u: GridFunction) -> GridFunction:
    """sqrt(1+|Du|^2) * H[u] computed by differencing the flux Du/sqrt(1+|Du|^2).

    Deliberately a different discrete operator from :func:`graph_rhs` (which
    expands the derivatives analytically before discretizing); the two agree
    to second order and serve as mutual cross-checks.
    """
    spec = u.spec
    if spec.polar:
        r = spec.nodes[:, None]
        ur, ut, *_ = _polar_derivatives(spec, u.values)
        W = np.sqrt(1.0 + ur ** 2 + (ut / r) ** 2)
        re, fre = _polar_extended(spec, r * ur / W)
        dflux_r = _d1_d2(re, fre)[0]
        if spec.through_origin:
            dflux_r = dflux_r[1:]
        dflux_t = _theta_derivatives(spec, ut / W)[0]
        H = dflux_r / r + dflux_t / r ** 2
        return GridFunction(spec, W * H)
    r = spec.nodes
    p, _ = _radial_derivatives(spec, u.values)
    W = np.sqrt(1.0 + p * p)
    f = p / W
    if r[0] == 0.0:
        re = np.concatenate(([-r[1]], r))
        fe = np.concatenate(([-f[1]], f))  # the flux is odd in r
        df = _d1_d2(re, fe)[0][1:]
        frac = np.empty_like(f)
        frac[1:] = f[1:] / r[1:]
        frac[0] = df[0]
        H = df + (spec.n - 1) * frac
    else:
        H = _d1_d2(r, f)[0] + (spec.n - 1) * f / r
    return GridFunction(spec, W * H)


def radial_rhs(u: GridFunction, check_origin: bool = False,
               origin_slope_tol: float = 1e-6) -> GridFunction:
    """Full flow speed sqrt(1+|Du|^2)*H[u] in the radial reduction.

    Equals u_rr/(1+u_r^2) + (n-1) u_r/r, with the regularized limit
    n*u_rr(0) at an r = 0 node.  ``check_origin`` additionally requires the
    one-sided slope at the axis to vanish within ``origin_slope_tol``, which
    is the smoothness contract for data meant to be C^1 at the tip; leave it
    off for Lipschitz (conical) data, which the first implicit step smooths.
    """
    spec = u.spec
    if spec.polar:
        raise GridError("radial_rhs requires a radial grid; use graph_rhs for polar mode")
    if check_origin and spec.nodes[0] == 0.0:
        slope = (u.values[1] - u.values[0]) / spec.nodes[1]
        if abs(slope) > origin_slope_tol:
            raise GridError(
                f"axis slope {slope:.3e} exceeds {origin_slope_tol:.1e}; data not smooth at r=0")
    p, q = _radial_derivatives(spec, u.values)
    return GridFunction(spec, _radial_speed(spec, p, q))


def graph_rhs(u: GridFunction) -> GridFunction:
    """Flow speed sqrt(1+|Du|^2)*H[u] on either grid mode (compact stencil)."""
    if not u.spec.polar:
        return radial_rhs(u)
    _, _, _, _, _, W, _, _, _, H = _polar_quantities(u)
    return GridFunction(u.spec, W * H)


def geometric_state(u: GridFunction) -> GeometricState:
    """Full first/second fundamental data of the graph of ``u``."""
    spec = u.spec
    if spec.polar:
        r = spec.nodes[:, None]
        th = spec.thetas[None, :]
        ur, ut, urr, utt, urt, W, g, h, det, H = _polar_quantities(u)
        gx = ur * np.cos(th) - (ut / r) * np.sin(th)
        gy = ur * np.sin(th) + (ut / r) * np.cos(th)
        rc = np.broadcast_to(r * np.cos(th), spec.shape)
        rs = np.broadcast_to(r * np.sin(th), spec.shape)
        X = np.stack([rc, rs, u.values], axis=-1)
        nu = np.stack([gx / W, gy / W, -1.0 / W], axis=-1)
        ginv_h00 = (g[..., 1, 1] * h[..., 0, 0] - g[..., 0, 1] * h[..., 0, 1]) / det
        ginv_h01 = (g[..., 1, 1] * h[..., 0, 1] - g[..., 0, 1] * h[..., 1, 1]) / det
        ginv_h10 = (g[..., 0, 0] * h[..., 0, 1] - g[..., 0, 1] * h[..., 0, 0]) / det
        ginv_h11 = (g[..., 0, 0] * h[..., 1, 1] - g[..., 0, 1] * h[..., 0, 1]) / det
        A2 = ginv_h00 ** 2 + ginv_h11 ** 2 + 2.0 * ginv_h01 * ginv_h10
        Xnu = (r * ur - u.values) / W
        state = GeometricState(spec, X, nu, g, h, H, A2, W, Xnu)
    else:
        r = spec.nodes
        p, q, W, kprof, krot, H = _radial_quantities(u)
        A2 = kprof ** 2 + (spec.n - 1) * krot ** 2
        X = np.stack([r, u.values], axis=-1)
        nu = np.stack([p / W, -1.0 / W], axis=-1)
        g = np.stack([1.0 + p * p, r ** 2], axis=-1)
        h = np.stack([q / W, r * p / W], axis=-1)
        Xnu = (r * p - u.values) / W
        state = GeometricState(spec, X, nu, g, h, H, A2, W, Xnu,
                               kappa=np.stack([kprof, krot], axis=-1))
    state.check()
    return state


def interior_mask(spec: GridSpec) -> np.ndarray:
    """Nodes where stencils are centered (full second-order accuracy).

    An r = 0 radial node counts as interior (even extension), as does the
    innermost ring of a through-origin polar grid (antipodal extension).
    """
    if spec.polar:
        mask = np.ones(spec.shape, dtype=bool)
        mask[-1, :] = False
        if not spec.through_origin:
            mask[0, :] = False
        return mask
    mask = np.ones(spec.shape, dtype=bool)
    mask[-1] = False
    if spec.nodes[0] != 0.0:
        mask[0] = False
    return mask
