"""Differential geometry of graphical hypersurfaces over radial and polar grids.

A hypersurface in R^{n+1} is represented as the graph of a height function u.
Two grid modes are supported: rotationally symmetric graphs u(r) over radii
r >= 0 in any dimension n, and full graphs u(r, theta) over a polar grid in
the plane (n = 2).

Orientation convention: the downward unit normal nu = (Du, -1)/sqrt(1+|Du|^2)
is used throughout, so convex graphs have positive mean curvature.  In
particular H[beta*|x|] = (n-1)*beta/(r*sqrt(1+beta^2)) > 0 for beta > 0, and a
lower hemisphere of radius R has H = n/R.

Every radial derivative reads one three-point weight table, built by
``_stencil`` for any node vector: centered differences inside (second order
on non-uniform grids) and one-sided rows, of lower accuracy, at the ends.
``_radial_operator`` caches it per grid for the flow, and ``_d1_d2``
applies it per call along axis 0 of any stack (the barrier profile curves,
which keep plain arrays).  One gather and a sum along the row's nodes give
every state of a stack the bits it gets alone.  The flow solves entire
graphs, so every grid continues across the origin: a radial grid starts at
r = 0 and reads its ghost by the even extension u(-r) = u(r), a polar grid
by the antipodal continuation u(-r, theta) = u(r, theta+pi) across its
innermost ring (angular derivatives are periodic differences).  The outer
ring is a grid's only one-sided row.  The flow's polar Jacobian coloring
reads its sparsity from the same table, so these rules are written here
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GridError

__all__ = [
    "GridSpec",
    "GridFunction",
    "grids_match",
    "mean_curvature",
    "graph_rhs",
    "radial_rhs",
]

_MIN_NODES = 8


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Radial or polar computational grid.

    Instances hash and compare by identity (the node arrays make value
    equality ill-defined); use :func:`grids_match` to compare layouts.

    ``nodes`` holds strictly increasing radii.  Every grid continues across
    the origin, so its one boundary is the outer ring: a radial grid starts
    at r = 0, and a polar grid (``thetas`` given, n = 2, sampling [0, 2pi)
    uniformly) starts at r > 0 and crosses the origin through the antipodal
    ghost ring, so it needs an even angular count.
    """

    n: int
    nodes: np.ndarray
    thetas: np.ndarray | None = None

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
        if np.any(np.diff(nodes) <= 0):
            raise GridError("radial nodes must be strictly increasing (no duplicates)")
        if self.thetas is None:
            if nodes[0] != 0:
                raise GridError("a radial grid continues across the axis: "
                                "its first node must be r = 0")
        else:
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
            if nt % 2 or nodes[0] <= 0:
                raise GridError("a polar grid crosses the origin through its antipodal "
                                "ring: it needs an even angular count and r > 0")

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
    def geometric(cls, n: int, h0: float, r_max: float, ratio: float = 1.03) -> "GridSpec":
        """Geometrically stretched radial grid from r = 0, first spacing ``h0``."""
        if h0 <= 0 or ratio <= 1:
            raise GridError("need h0 > 0 and ratio > 1")
        radii, r, h = [0.0], 0.0, h0
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
        return cls(2, radii, thetas)


@dataclass(eq=False)
class GridFunction:
    """Finite values sampled on a :class:`GridSpec`."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise GridError(f"values shape {vals.shape} does not match grid {self.spec.shape}")
        if not np.isfinite(vals).all():
            raise GridError("grid function values must be finite")
        self.values = vals

    def copy(self) -> "GridFunction":
        return GridFunction(self.spec, self.values.copy())


def grids_match(a: GridSpec, b: GridSpec) -> bool:
    """Same dimension and node layout (exact node equality)."""
    if a is b:
        return True
    if a.n != b.n or a.polar != b.polar:
        return False
    if not np.array_equal(a.nodes, b.nodes):
        return False
    if a.polar and not np.array_equal(a.thetas, b.thetas):
        return False
    return True


# ---------------------------------------------------------------------------
# finite differences


def _stencil(x: np.ndarray):
    """The three-point derivative table (rows, w, D) of strictly increasing
    nodes ``x``.

    Row i reads the nodes ``rows[:, i]`` = (a, b, c):
    y'_i = w[0]*y_a + w[1]*y_b + w[2]*y_c and
    y''_i = 2*(y_a/D[0] + y_b/D[1] + y_c/D[2]).  Interior rows are centered,
    (a, b, c) = (i-1, i, i+1); the ends are one-sided, (0, 1, 2) first and
    (N-1, N-2, N-3) last.  The one-sided first derivative is second order;
    the one-sided second derivative is the parabola through the outermost
    three nodes (first order on non-uniform grids).  Signs are folded into
    ``w`` and ``D``, and the second derivative keeps the division form
    (multiplying by a reciprocal would round differently).
    """
    N = x.size
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    i = np.arange(1, N - 1)
    rows = np.empty((3, N), dtype=np.intp)
    w = np.empty((3, N))
    D = np.empty((3, N))
    rows[:, 1:-1] = (i - 1, i, i + 1)
    w[:, 1:-1] = (-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp)))
    D[:, 1:-1] = (hm * (hm + hp), -(hm * hp), hp * (hm + hp))
    # one-sided ends: spacings (a, b) walk inward from end node j in steps
    # of k, and the first-derivative weights change sign with k
    for j, k, a, b in ((0, 1, hm[0], hp[0]), (N - 1, -1, hp[-1], hm[-1])):
        rows[:, j] = (j, j + k, j + 2 * k)
        w[:, j] = (-k * (2 * a + b) / (a * (a + b)), k * ((a + b) / (a * b)),
                   -k * (a / (b * (a + b))))
        D[:, j] = (a * (a + b), -(a * b), b * (a + b))
    return rows, w, D


def _apply_d1(w: np.ndarray, Y: np.ndarray):
    """y' alone from a :func:`_stencil` table's weights and the values ``Y``
    its rows gather, whose axis -w.ndim holds each row's nodes (a, b, c)."""
    return np.add.reduce(w * Y, -w.ndim)


def _apply_stencil(w: np.ndarray, D: np.ndarray, Y: np.ndarray):
    """(y', y'') as in :func:`_apply_d1`, overwriting ``Y``.  The sums run
    in the order (a, b, c), the bits of the terms written out; the 2 stays
    outside (halving D would round subnormal quotients differently)."""
    d1 = _apply_d1(w, Y)
    return d1, 2.0 * np.add.reduce(np.divide(Y, D, out=Y), -w.ndim)


def _trailing(table: np.ndarray, ndim: int) -> np.ndarray:
    """A (3, N) table with a unit axis per trailing axis of ndim-d data."""
    return table if ndim == 1 else table.reshape(table.shape + (1,) * (ndim - 1))


def _d1_d2(x: np.ndarray, y: np.ndarray):
    """First and second derivative of y(x) along axis 0 (:func:`_stencil`)."""
    rows, w, D = _stencil(x)
    return _apply_stencil(_trailing(w, y.ndim), _trailing(D, y.ndim), y[rows])


class _RadialOperator(NamedTuple):
    """The :func:`_stencil` table of one grid's radii, plus Jacobian parts.

    Every grid continues across the origin, so the outer ring is its only
    boundary: the table is that of [-r_g, r...] with the ghost row dropped,
    and the innermost row is the centered (ghost, 0, 1).  On a radial grid
    (r_g = r_1) the ghost u(-r_1) = u(r_1) is read as node 1; on a polar
    grid (r_g = r_0) it is ring 0 turned by pi.  Polar ``rows`` have shape
    (3, nr, ntheta) and index the flattened (nr, ntheta) state.  ``d`` =
    2/D, ``w_over_r`` = (n-1) w/r (zero at r = 0) and ``axis_col`` (the
    r = 0 row n*v_rr(0), ghost folded into v_1) are the radial Newton
    Jacobian's fixed parts; ``r_safe`` has 1 at r = 0.
    """

    rows: np.ndarray
    w: np.ndarray
    D: np.ndarray
    d: np.ndarray
    w_over_r: np.ndarray
    r_safe: np.ndarray
    axis_col: np.ndarray


@lru_cache(maxsize=128)
def _radial_operator(spec: GridSpec) -> _RadialOperator:
    """The radial derivative table of a grid, cached per GridSpec (by identity)."""
    r = spec.nodes
    rows, w, D = _stencil(np.concatenate(([-r[0] if spec.polar else -r[1]], r)))
    rows, w, D = rows[:, 1:] - 1, w[:, 1:], D[:, 1:]  # the ghost is -1
    if spec.polar:
        nt = spec.ntheta
        j = np.arange(nt)
        rows = np.where(rows[..., None] < 0, (j + nt // 2) % nt, rows[..., None] * nt + j)
    else:
        rows = np.abs(rows)
    r_safe = np.where(r > 0, r, 1.0)
    d = 2.0 / D
    op = _RadialOperator(rows, w, D, d, (spec.n - 1) * w * np.where(r > 0, 1.0 / r_safe, 0.0),
                         r_safe, np.array((0.0, spec.n * d[1, 0], spec.n * (d[0, 0] + d[2, 0]))))
    for arr in op:
        arr.setflags(write=False)
    return op


def _radial_derivatives(spec: GridSpec, vals: np.ndarray):
    """(u_r, u_rr) on a radial grid, by the even extension at r = 0;
    ``vals`` may carry trailing stack axes."""
    op = _radial_operator(spec)
    return _apply_stencil(_trailing(op.w, vals.ndim), _trailing(op.D, vals.ndim),
                          vals[op.rows])


def _polar_derivatives(spec: GridSpec, vals: np.ndarray):
    """(u_r, u_theta, u_rr, u_thth, u_rth) on a polar grid.

    ``vals`` is one state (nr, ntheta) or a stack (K, nr, ntheta) of states;
    the radial axis is the second to last and the angular axis the last.
    Radial derivatives gather through the cached table's flat indices (the
    antipodal ghost ring included), so a state gets the same bits alone or
    inside a stack.
    """
    op = _radial_operator(spec)
    w, D = op.w[..., None], op.D[..., None]
    flat = vals.shape[:-2] + (-1,)
    dtheta = 2.0 * np.pi / spec.ntheta
    up = np.roll(vals, -1, axis=-1)
    um = np.roll(vals, 1, axis=-1)
    ut = (up - um) / (2.0 * dtheta)
    utt = (up - 2.0 * vals + um) / dtheta ** 2
    ur, urr = _apply_stencil(w, D, vals.reshape(flat)[..., op.rows])
    urt = _apply_d1(w, ut.reshape(flat)[..., op.rows])
    return ur, ut, urr, utt, urt


# ---------------------------------------------------------------------------
# curvature operators


def _radial_curvatures(n: int, r: np.ndarray, p: np.ndarray,
                       q: np.ndarray) -> np.ndarray:
    """Mean curvature H of a rotation graph in R^{n+1} from (u_r, u_rr) at
    the radii ``r``: the profile curvature plus (n-1) times the rotational
    one, whose limit u_r/r -> u_rr (L'Hopital) is taken where r = 0."""
    W = np.sqrt(1.0 + p * p)
    axis = r == 0.0
    krot = np.where(axis, q, p / (np.where(axis, 1.0, r) * W))
    return q / W ** 3 + (n - 1) * krot


def _radial_speed(spec: GridSpec, p: np.ndarray, q: np.ndarray):
    """The flow speed u_rr/(1+u_r^2) + (n-1) u_r/r from (u_r, u_rr) on a
    radial grid from r = 0, where it is n*u_rr, and 1+u_r^2 (which the
    Newton Jacobian reuses)."""
    one_p2 = p * p
    one_p2 += 1.0
    speed = (spec.n - 1) * p
    speed /= _radial_operator(spec).r_safe
    speed += q / one_p2
    speed[0] = spec.n * q[0]
    return speed, one_p2


def _polar_quantities(spec: GridSpec, vals: np.ndarray):
    """(u_r, W, H) on a polar grid, H contracting the second fundamental
    form h against the metric g; ``vals`` may be a stack, as in
    :func:`_polar_derivatives`."""
    r = spec.nodes[:, None]
    ur, ut, urr, utt, urt = _polar_derivatives(spec, vals)
    W = np.sqrt(1.0 + ur ** 2 + (ut / r) ** 2)
    g = (1.0 + ur ** 2, ur * ut, r ** 2 + ut ** 2)
    h = (urr / W, (urt - ut / r) / W, (r * ur + utt) / W)
    det = g[0] * g[2] - g[1] ** 2
    H = (g[2] * h[0] - 2.0 * g[1] * h[1] + g[0] * h[2]) / det
    return ur, W, H


def _polar_speed(spec: GridSpec, vals: np.ndarray, drift: bool = False) -> np.ndarray:
    """Flow speed sqrt(1+|Du|^2)*H on a polar grid, plus the similarity drift
    (r u_r - u)/2 when ``drift``, for one state or a stack (K, nr, ntheta).

    Only elementwise IEEE operations follow the stencil gathers, so each
    state of a stack gets the bits it gets alone.
    """
    ur, W, H = _polar_quantities(spec, vals)
    speed = W * H
    if drift:
        speed = speed + 0.5 * (spec.nodes[:, None] * ur - vals)
    return speed


def mean_curvature(u: GridFunction) -> GridFunction:
    """Mean curvature H of the graph of ``u`` (downward normal).

    Radial mode evaluates the rotationally reduced divergence form
    H = u_rr/(1+u_r^2)^{3/2} + (n-1) u_r/(r sqrt(1+u_r^2)), with the
    regularized limit n*u_rr(0) at the axis node r = 0.  Polar mode
    contracts the full second fundamental form against the inverse metric.
    The outer ring uses one-sided stencils and carries lower accuracy.
    """
    spec = u.spec
    if spec.polar:
        H = _polar_quantities(spec, u.values)[-1]
    else:
        H = _radial_curvatures(spec.n, spec.nodes,
                               *_radial_derivatives(spec, u.values))
    return GridFunction(spec, H)


def radial_rhs(u: GridFunction) -> GridFunction:
    """Full flow speed sqrt(1+|Du|^2)*H[u] in the radial reduction.

    Equals u_rr/(1+u_r^2) + (n-1) u_r/r, with the regularized limit
    n*u_rr(0) at r = 0, where every radial grid starts.
    """
    spec = u.spec
    if spec.polar:
        raise GridError("radial_rhs requires a radial grid; use graph_rhs for polar mode")
    return GridFunction(spec, _radial_speed(spec, *_radial_derivatives(spec, u.values))[0])


def graph_rhs(u: GridFunction) -> GridFunction:
    """Flow speed sqrt(1+|Du|^2)*H[u] on either grid mode (compact stencil)."""
    if not u.spec.polar:
        return radial_rhs(u)
    return GridFunction(u.spec, _polar_speed(u.spec, u.values))

