"""Sampled charts of curves and surfaces and their tubular-layer geometry.

A geometry is a single rectangular chart, periodic where the underlying
manifold closes. Built-in families carry closed-form positions, normals and
principal curvatures; user-sampled geometry goes through a fourth-order
finite-difference pipeline for tangents, normals and the shape operator.

Conventions:
  * normals point toward the local center of curvature for the convex model
    shapes, so circles, spheres, cylinders and tori all have positive
    principal curvatures (1/R etc.);
  * spheres are charted by colatitude measured from the south pole, which
    makes the normal at colatitude theta have z-component +cos(theta);
  * chart directions are either periodic, Dirichlet (interior nodes only,
    boundary values eliminated), or carry a coordinate pole where the metric
    density vanishes (nodes staggered half a cell off the pole, zero flux
    through the pole edge).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmbeddingError, GeometryError

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
POLE_POLE = "pole-pole"
POLE_DIRICHLET = "pole-dirichlet"


class _Closure(NamedTuple):
    extra: float  # cells beyond n that the n nodes span
    first: float  # offset of the first node from the left end, in cells
    dirichlet_ends: tuple[int, ...]  # eliminated Dirichlet ends: 0 left, 1 right
    pole: bool  # the ends that are not Dirichlet carry a coordinate pole
    boundary: str  # the boundary-record text


#: what each closure implies: node layout, eliminated ends, pole, record text
_CLOSURES = {
    PERIODIC: _Closure(0.0, 0.0, (), False, "periodic identification"),
    DIRICHLET: _Closure(1.0, 1.0, (0, 1), False, "Dirichlet rows eliminated at both ends"),
    POLE_POLE: _Closure(0.0, 0.5, (), True, "zero-flux pole closure at both ends"),
    POLE_DIRICHLET: _Closure(
        0.5, 0.5, (1,), True, "zero-flux pole at left end, Dirichlet at right end"
    ),
}


@dataclass(frozen=True)
class ChartAxis:
    """One chart direction: node layout plus boundary behaviour."""

    name: str
    n: int
    h: float
    node0: float
    closure: str

    @property
    def nodes(self) -> np.ndarray:
        return self.node0 + self.h * np.arange(self.n)

    @property
    def periodic(self) -> bool:
        return self.closure == PERIODIC

    @property
    def dirichlet_ends(self) -> tuple[int, ...]:
        return _CLOSURES[self.closure].dirichlet_ends

    @property
    def pole(self) -> bool:
        return _CLOSURES[self.closure].pole

    @property
    def boundary(self) -> str:
        return _CLOSURES[self.closure].boundary


def _make_axis(name, n, closure, extent, left=0.0):
    if closure not in _CLOSURES:
        raise GeometryError(f"unknown closure {closure!r}")
    rule = _CLOSURES[closure]
    h = extent / (n + rule.extra)
    return ChartAxis(name, int(n), float(h), float(left + rule.first * h), closure)


# ---------------------------------------------------------------------------
# finite differences (fourth order, one-sided at non-periodic ends)
# ---------------------------------------------------------------------------

_D1_EDGE = np.array(
    [
        [-25.0, 48.0, -36.0, 16.0, -3.0],
        [-3.0, -10.0, 18.0, -6.0, 1.0],
    ]
) / 12.0

_D2_EDGE = np.array(
    [
        [45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
        [10.0, -15.0, -4.0, 14.0, -6.0, 1.0],
    ]
) / 12.0


def grid_deriv1(arr, axis, ax):
    """Fourth-order first derivative along grid axis `axis`, the chart axis ax."""
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    h = ax.h
    if ax.periodic:
        out = (
            np.roll(a, 2, 0) - 8.0 * np.roll(a, 1, 0) + 8.0 * np.roll(a, -1, 0) - np.roll(a, -2, 0)
        ) / (12.0 * h)
    else:
        n = a.shape[0]
        if n < 5:
            raise GeometryError("need at least 5 nodes per direction for derivatives")
        out = np.empty_like(a)
        out[2:-2] = (a[:-4] - 8.0 * a[1:-3] + 8.0 * a[3:-1] - a[4:]) / (12.0 * h)
        for r in range(2):
            out[r] = np.tensordot(_D1_EDGE[r], a[:5], axes=(0, 0)) / h
            out[-1 - r] = -np.tensordot(_D1_EDGE[r], a[::-1][:5], axes=(0, 0)) / h
    return np.moveaxis(out, 0, axis)


def grid_deriv2(arr, axis, ax):
    """Fourth-order second derivative along grid axis `axis`, the chart axis ax."""
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, 0)
    h = ax.h
    if ax.periodic:
        out = (
            -np.roll(a, 2, 0)
            + 16.0 * np.roll(a, 1, 0)
            - 30.0 * a
            + 16.0 * np.roll(a, -1, 0)
            - np.roll(a, -2, 0)
        ) / (12.0 * h * h)
    else:
        n = a.shape[0]
        if n < 6:
            raise GeometryError("need at least 6 nodes per direction for second derivatives")
        out = np.empty_like(a)
        out[2:-2] = (
            -a[:-4] + 16.0 * a[1:-3] - 30.0 * a[2:-2] + 16.0 * a[3:-1] - a[4:]
        ) / (12.0 * h * h)
        for r in range(2):
            out[r] = np.tensordot(_D2_EDGE[r], a[:6], axes=(0, 0)) / (h * h)
            out[-1 - r] = np.tensordot(_D2_EDGE[r], a[::-1][:6], axes=(0, 0)) / (h * h)
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# geometry families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometryFamily:
    """A named geometry with shape parameters.

    kind: one of segment, circle, ellipse, catenary-curve, plane-rectangle,
    bumped-plane, sphere-cap, full-sphere, cylinder-section, torus,
    user-sampled. For user-sampled geometry, `samples` holds positions on the
    chart grid (shape (n1[, n2], d)) and `closures` the per-direction closure.
    """

    kind: str
    params: dict = field(default_factory=dict)
    samples: np.ndarray | None = None
    closures: tuple[str, ...] | None = None

    @property
    def ambient_dim(self) -> int:
        """2 for the curve families, 3 for the surfaces; user-sampled
        geometry has the dimension of its sample points."""
        if self.kind == "user-sampled":
            return self.samples.shape[-1]
        return 2 if self.kind in ("segment", "circle", "ellipse", "catenary-curve") else 3

    def label(self) -> str:
        p = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({p})"


def _require(params, *names):
    vals = []
    for nm in names:
        if nm not in params:
            raise GeometryError(f"missing geometry parameter {nm!r}")
        v = float(params[nm])
        if not np.isfinite(v) or v <= 0:
            raise GeometryError(f"geometry parameter {nm!r} must be positive, got {v}")
        vals.append(v)
    return vals


def _build_segment(params, grid):
    (length,) = _require(params, "length")
    (ax,) = (_make_axis("s", grid[0], DIRICHLET, length),)
    s = ax.nodes
    x = np.stack([s, np.zeros_like(s)], -1)
    tan = np.broadcast_to(np.array([[1.0, 0.0]]), (ax.n, 1, 2)).reshape(ax.n, 1, 2)
    nrm = np.broadcast_to(np.array([0.0, 1.0]), (ax.n, 2))
    kap = np.zeros((ax.n, 1))
    return (ax,), x, np.array(tan), np.array(nrm), kap, None


def _build_circle(params, grid):
    (radius,) = _require(params, "radius")
    ax = _make_axis("theta", grid[0], PERIODIC, 2.0 * np.pi)
    t = ax.nodes
    x = radius * np.stack([np.cos(t), np.sin(t)], -1)
    tan = radius * np.stack([-np.sin(t), np.cos(t)], -1)[:, None, :]
    nrm = -np.stack([np.cos(t), np.sin(t)], -1)
    kap = np.full((ax.n, 1), 1.0 / radius)
    return (ax,), x, tan, nrm, kap, None


def _build_ellipse(params, grid):
    a, b = _require(params, "a", "b")
    ax = _make_axis("t", grid[0], PERIODIC, 2.0 * np.pi)
    t = ax.nodes
    x = np.stack([a * np.cos(t), b * np.sin(t)], -1)
    tan = np.stack([-a * np.sin(t), b * np.cos(t)], -1)[:, None, :]
    speed = np.sqrt(a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2)
    nrm = -np.stack([b * np.cos(t), a * np.sin(t)], -1) / speed[:, None]
    kap = (a * b / speed**3)[:, None]
    return (ax,), x, tan, nrm, kap, None


def _build_catenary(params, grid):
    a, length = _require(params, "a", "length")
    ax = _make_axis("x", grid[0], DIRICHLET, length, left=-0.5 * length)
    t = ax.nodes
    sh, ch = np.sinh(t / a), np.cosh(t / a)
    x = np.stack([t, a * ch], -1)
    tan = np.stack([np.ones_like(t), sh], -1)[:, None, :]
    nrm = np.stack([-sh, np.ones_like(t)], -1) / ch[:, None]
    kap = (1.0 / (a * ch**2))[:, None]
    return (ax,), x, tan, nrm, kap, None


def _build_plane(params, grid):
    lx, ly = _require(params, "lx", "ly")
    ax1 = _make_axis("x", grid[0], DIRICHLET, lx)
    ax2 = _make_axis("y", grid[1], DIRICHLET, ly)
    X, Y = np.meshgrid(ax1.nodes, ax2.nodes, indexing="ij")
    z = np.zeros_like(X)
    x = np.stack([X, Y, z], -1)
    tan = np.zeros((ax1.n, ax2.n, 2, 3))
    tan[..., 0, 0] = 1.0
    tan[..., 1, 1] = 1.0
    nrm = np.zeros((ax1.n, ax2.n, 3))
    nrm[..., 2] = 1.0
    kap = np.zeros((ax1.n, ax2.n, 2))
    return (ax1, ax2), x, tan, nrm, kap, None


def _build_bumped_plane(params, grid):
    lx, ly, amp, width = _require(params, "lx", "ly", "amplitude", "width")
    cx = float(params.get("cx", 0.5 * lx))
    cy = float(params.get("cy", 0.5 * ly))
    ax1 = _make_axis("x", grid[0], DIRICHLET, lx)
    ax2 = _make_axis("y", grid[1], DIRICHLET, ly)
    X, Y = np.meshgrid(ax1.nodes, ax2.nodes, indexing="ij")
    u, v = X - cx, Y - cy
    e = amp * np.exp(-(u * u + v * v) / (2.0 * width**2))
    fx = -u / width**2 * e
    fy = -v / width**2 * e
    fxx = (u * u / width**2 - 1.0) / width**2 * e
    fyy = (v * v / width**2 - 1.0) / width**2 * e
    fxy = u * v / width**4 * e
    x = np.stack([X, Y, e], -1)
    tan = np.zeros((ax1.n, ax2.n, 2, 3))
    tan[..., 0, 0] = 1.0
    tan[..., 0, 2] = fx
    tan[..., 1, 1] = 1.0
    tan[..., 1, 2] = fy
    s = np.sqrt(1.0 + fx * fx + fy * fy)
    nrm = np.stack([-fx, -fy, np.ones_like(fx)], -1) / s[..., None]
    hform = np.empty((ax1.n, ax2.n, 2, 2))
    hform[..., 0, 0] = fxx / s
    hform[..., 0, 1] = fxy / s
    hform[..., 1, 0] = fxy / s
    hform[..., 1, 1] = fyy / s
    g = _matmul(tan, np.swapaxes(tan, -1, -2))
    L = np.linalg.solve(g, hform)
    kap = _curvatures_from_forms(g, hform)
    return (ax1, ax2), x, tan, nrm, kap, L


def _sphere_fields(radius, th, ph):
    T, P = np.meshgrid(th, ph, indexing="ij")
    st, ct = np.sin(T), np.cos(T)
    sp, cp = np.sin(P), np.cos(P)
    x = radius * np.stack([st * cp, st * sp, -ct], -1)
    tan = np.empty(T.shape + (2, 3))
    tan[..., 0, :] = radius * np.stack([ct * cp, ct * sp, st], -1)
    tan[..., 1, :] = radius * np.stack([-st * sp, st * cp, np.zeros_like(st)], -1)
    nrm = np.stack([-st * cp, -st * sp, ct], -1)
    kap = np.full(T.shape + (2,), 1.0 / radius)
    return x, tan, nrm, kap


def _build_full_sphere(params, grid):
    (radius,) = _require(params, "radius")
    ax1 = _make_axis("theta", grid[0], POLE_POLE, np.pi)
    ax2 = _make_axis("phi", grid[1], PERIODIC, 2.0 * np.pi)
    x, tan, nrm, kap = _sphere_fields(radius, ax1.nodes, ax2.nodes)
    return (ax1, ax2), x, tan, nrm, kap, None


def _build_sphere_cap(params, grid):
    radius, theta_max = _require(params, "radius", "theta_max")
    if theta_max >= np.pi:
        raise GeometryError("sphere-cap needs theta_max < pi; use full-sphere instead")
    ax1 = _make_axis("theta", grid[0], POLE_DIRICHLET, theta_max)
    ax2 = _make_axis("phi", grid[1], PERIODIC, 2.0 * np.pi)
    x, tan, nrm, kap = _sphere_fields(radius, ax1.nodes, ax2.nodes)
    return (ax1, ax2), x, tan, nrm, kap, None


def _build_cylinder(params, grid):
    radius, length = _require(params, "radius", "length")
    ax1 = _make_axis("phi", grid[0], PERIODIC, 2.0 * np.pi)
    ax2 = _make_axis("z", grid[1], DIRICHLET, length)
    P, Z = np.meshgrid(ax1.nodes, ax2.nodes, indexing="ij")
    cp, sp = np.cos(P), np.sin(P)
    x = np.stack([radius * cp, radius * sp, Z], -1)
    tan = np.empty(P.shape + (2, 3))
    tan[..., 0, :] = radius * np.stack([-sp, cp, np.zeros_like(cp)], -1)
    tan[..., 1, :] = np.broadcast_to(np.array([0.0, 0.0, 1.0]), P.shape + (3,))
    nrm = -np.stack([cp, sp, np.zeros_like(cp)], -1)
    kap = np.stack([np.full(P.shape, 1.0 / radius), np.zeros(P.shape)], -1)
    return (ax1, ax2), x, tan, nrm, kap, None


def _build_torus(params, grid):
    R, r = _require(params, "major", "minor")
    if r >= R:
        raise GeometryError(f"torus needs minor < major, got {r} >= {R}")
    ax1 = _make_axis("theta", grid[0], PERIODIC, 2.0 * np.pi)
    ax2 = _make_axis("phi", grid[1], PERIODIC, 2.0 * np.pi)
    T, P = np.meshgrid(ax1.nodes, ax2.nodes, indexing="ij")
    ct, st = np.cos(T), np.sin(T)
    cp, sp = np.cos(P), np.sin(P)
    w = R + r * ct
    x = np.stack([w * cp, w * sp, r * st], -1)
    tan = np.empty(T.shape + (2, 3))
    tan[..., 0, :] = np.stack([-r * st * cp, -r * st * sp, r * ct], -1)
    tan[..., 1, :] = np.stack([-w * sp, w * cp, np.zeros_like(w)], -1)
    nrm = -np.stack([ct * cp, ct * sp, st], -1)
    kap = np.stack([np.full(T.shape, 1.0 / r), ct / w], -1)
    return (ax1, ax2), x, tan, nrm, kap, None


_BUILDERS: dict[str, Callable] = {
    "segment": _build_segment,
    "circle": _build_circle,
    "ellipse": _build_ellipse,
    "catenary-curve": _build_catenary,
    "plane-rectangle": _build_plane,
    "bumped-plane": _build_bumped_plane,
    "sphere-cap": _build_sphere_cap,
    "full-sphere": _build_full_sphere,
    "cylinder-section": _build_cylinder,
    "torus": _build_torus,
}

FAMILY_KINDS = tuple(_BUILDERS) + ("user-sampled",)


def _curvatures_from_forms(g, hform):
    """Principal curvatures as eigenvalues of g^{-1} h, via the symmetric
    generalized form g^{-1/2} h g^{-1/2} (sorted ascending)."""
    if g.shape[-1] == 1:
        return (hform[..., 0, 0] / g[..., 0, 0])[..., None]
    gl, gv = np.linalg.eigh(g)
    g_isqrt = np.einsum("...ik,...k,...jk->...ij", gv, 1.0 / np.sqrt(gl), gv)
    sym = np.einsum("...ik,...kl,...lj->...ij", g_isqrt, hform, g_isqrt)
    return np.linalg.eigvalsh(sym)


def _mean_curvatures(kappa):
    """Binomial-normalized elementary symmetric functions of the principal
    curvatures of a curve (one) or a surface (two)."""
    if kappa.shape[-1] == 1:
        return kappa.copy()
    k1, k2 = kappa[..., 0], kappa[..., 1]
    return np.stack([0.5 * (k1 + k2), k1 * k2], -1)


@dataclass(frozen=True)
class HypersurfacePatch:
    """Sampled single-chart hypersurface with first/second fundamental data."""

    ambient_dim: int
    axes: tuple[ChartAxis, ...]
    x: np.ndarray  # (*grid, d)
    tangents: np.ndarray  # (*grid, dim, d)
    normal: np.ndarray  # (*grid, d)
    metric: np.ndarray  # (*grid, dim, dim)
    metric_inv: np.ndarray
    sqrt_g: np.ndarray  # (*grid,)
    weingarten: np.ndarray  # (*grid, dim, dim)
    kappa: np.ndarray  # (*grid, dim)
    mean_curv: np.ndarray  # (*grid, dim)
    rho_m: float
    family: GeometryFamily

    @property
    def dim(self) -> int:
        return self.ambient_dim - 1

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.grid_shape))

    @property
    def closures(self) -> tuple[str, ...]:
        return tuple(ax.closure for ax in self.axes)

    @property
    def cell_area(self) -> float:
        out = 1.0
        for ax in self.axes:
            out *= ax.h
        return out

    def surface_weights(self) -> np.ndarray:
        """Node weights of the discrete surface measure, flattened."""
        return (self.sqrt_g * self.cell_area).reshape(-1)

    def label(self) -> str:
        return f"{self.family.label()}[{'x'.join(str(n) for n in self.grid_shape)}]"


def _matmul(A, B):
    """A @ B over the last two axes of stacks of small chart matrices, by
    explicit products: the even-indexed terms summed, then the odd ones (the
    order of np.einsum's loop, so g = t t^T keeps its bits)."""
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
    out = np.empty(shape)
    for i, j in np.ndindex(shape[-2:]):
        terms = [A[..., i, k] * B[..., k, j] for k in range(A.shape[-1])]
        out[..., i, j] = sum(terms[0::2]) + sum(terms[1::2])
    return out


def _det_adj(g):
    """Determinant and adjugate of stacked symmetric 1x1 or 2x2 matrices in
    closed form: a d - b^2 and [[d, -b], [-b, a]]; g^-1 is adj / det."""
    if g.shape[-1] == 1:
        return g[..., 0, 0].copy(), np.ones_like(g)
    a, b, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    adj = np.stack([np.stack([d, -b], -1), np.stack([-b, a], -1)], -2)
    return a * d - b * b, adj


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _sampled_fields(samples, closures, grid, params):
    x = np.asarray(samples, dtype=float)
    d = x.shape[-1]
    gshape = x.shape[:-1]
    naxes = len(gshape)
    if naxes != d - 1:
        raise GeometryError(
            f"sampled positions must be a {d - 1}-dim chart grid of R^{d} points"
        )
    if closures is None:
        closures = (DIRICHLET,) * naxes
    spacings = [
        _require(params, f"h{k + 1}")[0] if f"h{k + 1}" in params else 1.0 / gshape[k]
        for k in range(naxes)
    ]
    axes = []
    for k in range(naxes):
        closure = closures[k]
        if closure not in (PERIODIC, DIRICHLET):
            raise GeometryError("user-sampled charts support periodic or dirichlet closure")
        extent = spacings[k] * (gshape[k] + _CLOSURES[closure].extra)
        axes.append(_make_axis(f"x{k + 1}", gshape[k], closure, extent))
    tan = np.stack([grid_deriv1(x, k, axes[k]) for k in range(naxes)], axis=-2)
    if d == 2:
        t = tan[..., 0, :]
        nrm = np.stack([-t[..., 1], t[..., 0]], -1)
    else:
        nrm = np.cross(tan[..., 0, :], tan[..., 1, :])
    nlen = np.linalg.norm(nrm, axis=-1)
    if np.any(nlen < 1e-14):
        bad = np.unravel_index(int(np.argmin(nlen)), gshape)
        raise GeometryError(f"degenerate parametrization at node {bad}: zero normal")
    nrm = nrm / nlen[..., None]
    for k in range(naxes):
        dots = np.sum(nrm * np.roll(nrm, -1, axis=k), axis=-1)
        if not axes[k].periodic:
            sl = [slice(None)] * naxes
            sl[k] = slice(0, gshape[k] - 1)
            dots = dots[tuple(sl)]
        if np.any(dots <= 0.0):
            raise GeometryError(
                "sampled input is not orientable on this chart (normal flips "
                f"across grid direction {k + 1})"
            )
    hess = np.empty(gshape + (naxes, naxes, d))
    for k in range(naxes):
        hess[..., k, k, :] = grid_deriv2(x, k, axes[k])
    if naxes == 2:
        m = grid_deriv1(grid_deriv1(x, 0, axes[0]), 1, axes[1])
        hess[..., 0, 1, :] = m
        hess[..., 1, 0, :] = m
    hform = np.einsum("...abd,...d->...ab", hess, nrm)
    g = _matmul(tan, np.swapaxes(tan, -1, -2))
    L = np.linalg.solve(g, hform)
    kap = _curvatures_from_forms(g, hform)
    return tuple(axes), x, tan, nrm, kap, L


def build_patch(family: GeometryFamily, grid_sizes) -> HypersurfacePatch:
    """Build a sampled chart with metric, normal and curvature data; the
    metric's determinant and inverse in closed form (at most two axes).

    grid_sizes: one int per chart direction (>= 8 each). Ignored for
    user-sampled geometry, whose grid comes with the samples.
    """
    if family.kind == "user-sampled":
        if family.samples is None:
            raise GeometryError("user-sampled geometry needs position samples")
        axes, x, tan, nrm, kap, L = _sampled_fields(
            family.samples, family.closures, grid_sizes, family.params
        )
    else:
        if family.kind not in _BUILDERS:
            raise GeometryError(f"unknown geometry family {family.kind!r}")
        grid = tuple(int(n) for n in np.atleast_1d(grid_sizes))
        for n in grid:
            if n < 8:
                raise GeometryError(f"grid sizes must be >= 8 per direction, got {n}")
        axes, x, tan, nrm, kap, L = _BUILDERS[family.kind](family.params, grid)

    x = np.ascontiguousarray(x, dtype=float)
    tan = np.ascontiguousarray(tan, dtype=float)
    nrm = np.ascontiguousarray(nrm, dtype=float)
    kap = np.ascontiguousarray(kap, dtype=float)
    d = x.shape[-1]

    nlen = np.linalg.norm(nrm, axis=-1)
    if np.max(np.abs(nlen - 1.0)) > 1e-12:
        raise GeometryError("normal field is not unit length")

    g = _matmul(tan, np.swapaxes(tan, -1, -2))
    detg, adj = _det_adj(g)
    if np.any(detg < 1e-14):
        bad = np.unravel_index(int(np.argmin(detg)), x.shape[:-1])
        raise GeometryError(
            f"degenerate parametrization at node {bad}: det g = {detg.min():.3e}"
        )
    g_inv = adj / detg[..., None, None]
    sqrt_g = np.sqrt(detg)
    if L is None:
        L = np.zeros(kap.shape + (kap.shape[-1],))
        for mu in range(kap.shape[-1]):
            L[..., mu, mu] = kap[..., mu]
    L = np.ascontiguousarray(L, dtype=float)

    if not np.all(np.isfinite(kap)):
        raise GeometryError("non-finite principal curvatures")
    kap_sup = float(np.max(np.abs(kap)))
    rho_m = np.inf if kap_sup == 0.0 else 1.0 / kap_sup

    Kmu = _mean_curvatures(kap)
    _freeze(x, tan, nrm, g, g_inv, sqrt_g, L, kap, Kmu)
    return HypersurfacePatch(
        ambient_dim=d,
        axes=tuple(axes),
        x=x,
        tangents=tan,
        normal=nrm,
        metric=g,
        metric_inv=g_inv,
        sqrt_g=sqrt_g,
        weingarten=L,
        kappa=kap,
        mean_curv=Kmu,
        rho_m=float(rho_m),
        family=family,
    )


# ---------------------------------------------------------------------------
# layer geometry
# ---------------------------------------------------------------------------


def layer_factors(kappa, eps, u):
    """The per-direction factors 1 - eps*u*kappa of the layer map Jacobian."""
    kappa = np.asarray(kappa, dtype=float)
    return 1.0 - eps * np.asarray(u, dtype=float) * kappa


@dataclass(frozen=True)
class LayerGeometry:
    """Tubular-layer metric data on (chart grid) x (transverse grid)."""

    patch: HypersurfacePatch
    eps: float
    u: np.ndarray  # (m,)
    h_u: float
    metric: np.ndarray  # (*grid, m, dim, dim), surface block of the layer metric
    metric_inv: np.ndarray
    log_jac: np.ndarray  # (*grid, m): (1/2) sum_mu ln(1 - eps*u*kappa_mu)

    @property
    def m_u(self) -> int:
        return self.u.size

    @property
    def n_dof(self) -> int:
        return self.patch.n_nodes * self.m_u

    def full_weights(self) -> np.ndarray:
        """Weights of the discrete eps-independent measure on chart x layer."""
        ws = self.patch.surface_weights()
        return np.repeat(ws, self.m_u) * self.h_u

    def ambient_points(self) -> np.ndarray:
        """Layer points x + eps*u*n, shape (*grid, m, d)."""
        p = self.patch
        return (
            p.x[..., None, :]
            + self.eps * self.u[..., None] * p.normal[..., None, :]
        )


def transverse_nodes(m_u: int) -> tuple[np.ndarray, float]:
    """Uniform interior nodes of (-1, 1) with eliminated Dirichlet ends."""
    if m_u < 3 or m_u % 2 == 0:
        raise GeometryError("transverse node count must be odd and >= 3")
    h = 2.0 / (m_u + 1)
    return -1.0 + h * np.arange(1, m_u + 1), h


def layer_geometry(patch: HypersurfacePatch, eps: float, m_u: int) -> LayerGeometry:
    """Layer metric G = g M M (M = I - eps u L), its inverse in closed form
    and the log-Jacobian on the product grid."""
    if not np.isfinite(eps) or eps <= 0:
        raise EmbeddingError(f"layer half-width must be positive and finite, got {eps}")
    if eps >= patch.rho_m:
        raise EmbeddingError(
            f"eps >= rho_m ({eps} >= {patch.rho_m:.6g}): layer metric singular"
        )
    u, h_u = transverse_nodes(m_u)
    fac = layer_factors(patch.kappa[..., None, :], eps, u[:, None])
    dim = patch.dim
    eye = np.eye(dim)
    M = eye - eps * u[:, None, None] * patch.weingarten[..., None, :, :]
    G = _matmul(patch.metric[..., None, :, :], _matmul(M, M))
    G = 0.5 * (G + np.swapaxes(G, -1, -2))
    detG, adj = _det_adj(G)
    G_inv = adj / detG[..., None, None]
    J = 0.5 * np.sum(np.log(fac), axis=-1)
    _freeze(G, G_inv, J)
    return LayerGeometry(
        patch=patch,
        eps=float(eps),
        u=u,
        h_u=h_u,
        metric=G,
        metric_inv=G_inv,
        log_jac=J,
    )


def v_eff(kappa) -> np.ndarray:
    """Curvature-induced effective potential -1/2 sum k^2 + 1/4 (sum k)^2."""
    kappa = np.asarray(kappa, dtype=float)
    s = np.sum(kappa, axis=-1)
    return -0.5 * np.sum(kappa * kappa, axis=-1) + 0.25 * s * s


# ---------------------------------------------------------------------------
# embedding diagnosis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingReport:
    passed: bool
    eps: float
    rho_m: float
    rho_ok: bool
    injectivity_ok: bool
    clearance: float
    margin: float
    offending_pair: tuple | None
    reason: str


def _chart_arclengths(patch):
    """Shared per-axis cumulative arclength profiles (averaged over the grid
    lines, so that nodes on neighbouring lines stay chart-close even when the
    line lengths differ), plus per-axis periods for closed directions."""
    x = patch.x
    naxes = len(patch.axes)
    coords = np.zeros(patch.grid_shape + (naxes,))
    periods = np.zeros(naxes)
    for k, ax in enumerate(patch.axes):
        seg = np.linalg.norm(np.roll(x, -1, axis=k) - x, axis=-1)
        seg = np.moveaxis(seg, k, 0)
        profile = seg.reshape(seg.shape[0], -1).mean(axis=1)
        s = np.concatenate([[0.0], np.cumsum(profile[:-1])])
        shape = [1] * naxes
        shape[k] = ax.n
        coords[..., k] = s.reshape(shape)
        if ax.periodic:
            periods[k] = float(np.sum(profile))
    return coords.reshape(-1, naxes), periods


#: cells per search radius on each axis of the _close_pairs cell list, and the
#: most candidate pairs it expands at a time (a block of 2**15 stays in cache:
#: check_embedding ran 25-35% faster on the torus clouds than with 1e6)
CELLS_PER_RADIUS = 2
PAIR_BLOCK = 1 << 15


def _close_pairs(pts, r):
    """The point pairs within r, in blocks: (a, b) index arrays with a != b,
    each unordered pair once, where the squared distance summed over the
    axes in order is at most r*r.

    A cell list (Hockney & Eastwood, Computer Simulation Using Particles,
    1981): the points are binned into cubes of side r/2, so the two points of
    a pair within r lie at most 2 cells apart on each axis. Sorted by cell
    key, the last axis varying fastest, the cells at one offset on the other
    axes and within reach on the last hold a run of the sorted points, which
    two searchsorted calls on the occupied cells (np.unique) bound. Each point
    is matched with the runs of one half of the offsets, against the points
    that follow it, and the candidate pairs are expanded and measured at most
    PAIR_BLOCK at a time.
    """
    n, d = pts.shape
    lo = pts.min(axis=0)
    span = float(np.max(pts.max(axis=0) - lo))
    # at most 2**(60 // d) cells per axis keep the int64 cell keys exact
    side = max(r / CELLS_PER_RADIUS, span / 2 ** (60 // d))
    reach = min(CELLS_PER_RADIUS, int(np.ceil(r / side)))
    # a slightly wider cell keeps the rounding of the binning from putting
    # the points of a pair within r more than `reach` cells apart
    side *= 1.0 + 1e-6
    # `reach` empty cells pad each end of an axis, so no offset wraps round
    cell = np.floor((pts - lo) / side).astype(np.int64) + reach
    extent = cell.max(axis=0) + reach + 1
    strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1)
    keys = cell @ strides
    order = np.argsort(keys, kind="stable")
    cells, first = np.unique(keys[order], return_index=True)
    bound = np.append(first, n)  # cells [c, e) hold the sorted points bound[c]:bound[e]
    cell_of = np.repeat(np.arange(cells.size), np.diff(bound))
    pos = np.arange(n)
    # offsets on the leading axes in lexicographic order; the second half
    # starts at zero and is the half space whose cells follow a point's own
    lead = np.array(list(itertools.product(range(-reach, reach + 1), repeat=d - 1)))
    lead = lead[len(lead) // 2 :]
    rows = []  # (sorted point, first and end sorted position of its run)
    for shift in lead @ strides[:-1]:
        start = bound[np.searchsorted(cells, cells + shift - reach)][cell_of]
        end = bound[np.searchsorted(cells, cells + shift + reach, side="right")][cell_of]
        start = np.maximum(start, pos + 1)
        live = end > start
        rows.append((pos[live], start[live], end[live]))
    row_pt, row_start, row_end = (np.concatenate(c) for c in zip(*rows))
    row_len = row_end - row_start
    ends = np.cumsum(row_len)
    cols = [np.ascontiguousarray(c) for c in pts[order].T]
    i, done = 0, 0
    while i < ends.size:
        j = max(i + 1, int(np.searchsorted(ends, done + PAIR_BLOCK, side="right")))
        lens = row_len[i:j]
        a = np.repeat(row_pt[i:j], lens)
        b = np.arange(a.size) + np.repeat(row_start[i:j] - (ends[i:j] - lens - done), lens)
        dist2 = np.zeros(a.size)
        for c in cols:
            diff = c[a] - c[b]
            dist2 += diff * diff
        near = dist2 <= r * r
        yield order[a[near]], order[b[near]]
        i, done = j, int(ends[j - 1])


def _clearance(schart, period, plo, phi, cutoff, radius):
    """Minimum layer clearance over chart-separated node pairs.

    For every node pair i < j whose chart distance exceeds `cutoff`, the
    smallest ambient distance between their extreme layer points plo, phi (the
    offsets x -/+ eps*n). Returns (clearance, i, j) with the lexicographically
    first (i, j) among equal clearances; (inf, -1, -1) when no pair passes the
    cutoff.

    A cell list over the 2n layer points (point a belongs to node a mod n,
    `_close_pairs`) lists the pairs within a search radius that starts at
    `radius` (> 0) and doubles until a chart-distant pair lies within it or
    the radius covers the point cloud. Every pair within the radius is
    listed, so the minimum over the listed pairs is the minimum over all
    pairs, and each listed pair is measured by the same formulas as an
    all-pairs scan: the result is that scan's, bit for bit.
    """
    n = schart.shape[0]
    pts = np.concatenate([plo, phi])
    diam = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    r = radius
    while True:
        best, bkey = np.inf, -1
        # the relative slack keeps the search's rounding from dropping a
        # pair that the formulas below place within r
        for a, b in _close_pairs(pts, r * (1.0 + 1e-9)):
            a, b = a % n, b % n
            i, j = np.minimum(a, b), np.maximum(a, b)
            keep = i < j
            i, j = i[keep], j[keep]
            dk = np.abs(schart[i] - schart[j])
            for k in range(schart.shape[1]):
                if period[k] > 0.0:
                    dk[..., k] = np.minimum(dk[..., k], period[k] - dk[..., k])
            far = np.sum(dk * dk, axis=-1) > cutoff * cutoff
            i, j = i[far], j[far]
            if i.size == 0:
                continue
            m = np.full(i.size, np.inf)
            pbs = (plo[j], phi[j])
            for pa in (plo[i], phi[i]):
                for pb in pbs:
                    dd = pa - pb
                    np.minimum(m, np.sum(dd * dd, axis=-1), out=m)
            low = m.min()
            key = int(np.min((i * n + j)[m == low]))
            if low < best or (low == best and key < bkey):
                best, bkey = low, key
        # once r covers the cloud, every pair has been listed
        if bkey >= 0 and (best <= r * r or r >= diam):
            return np.sqrt(best), bkey // n, bkey % n
        if r >= diam:
            return np.inf, -1, -1
        r *= 2.0


#: injectivity heuristic of check_embedding, in units of eps: nodes farther
#: apart in chart distance than the cutoff must keep their layer points the
#: margin apart; at most the sample count of nodes (by a fixed stride) is probed
EMBEDDING_MARGIN = 0.5
EMBEDDING_CHART_CUTOFF = 3.0
EMBEDDING_SAMPLES = 4096


def check_embedding(patch: HypersurfacePatch, eps: float) -> EmbeddingReport:
    """Diagnose whether the layer of half-width eps can be embedded.

    The eps < rho_m condition is exact; global injectivity is probed by a
    sampling heuristic: any two sampled nodes whose chart distance exceeds
    3*eps must keep their extreme layer points at least eps/2 apart in
    ambient space. The closest such pair is found by a cell-list radius
    search that starts at the margin eps/2 and doubles (`_clearance`), with
    the same result as an all-pairs scan. It needs numpy only.
    """
    if not np.isfinite(eps) or eps <= 0:
        raise EmbeddingError(f"layer half-width must be positive and finite, got {eps}")
    margin = EMBEDDING_MARGIN * eps
    rho_ok = eps < patch.rho_m
    if not rho_ok:
        return EmbeddingReport(
            passed=False,
            eps=eps,
            rho_m=patch.rho_m,
            rho_ok=False,
            injectivity_ok=False,
            clearance=0.0,
            margin=margin,
            offending_pair=None,
            reason="eps >= rho_m (layer metric singular)",
        )
    schart, periods = _chart_arclengths(patch)
    x = patch.x.reshape(-1, patch.ambient_dim)
    n = patch.normal.reshape(-1, patch.ambient_dim)
    ns = x.shape[0]
    stride = max(1, int(np.ceil(ns / EMBEDDING_SAMPLES)))
    sel = np.arange(0, ns, stride)
    plo = x[sel] - eps * n[sel]
    phi = x[sel] + eps * n[sel]
    clearance, bi, bj = _clearance(
        schart[sel], periods, plo, phi, EMBEDDING_CHART_CUTOFF * eps, margin
    )
    ok = clearance >= margin
    pair = None
    if not ok:
        gi = np.unravel_index(int(sel[bi]), patch.grid_shape)
        gj = np.unravel_index(int(sel[bj]), patch.grid_shape)
        pair = (gi, gj)
    return EmbeddingReport(
        passed=bool(rho_ok and ok),
        eps=eps,
        rho_m=patch.rho_m,
        rho_ok=True,
        injectivity_ok=bool(ok),
        clearance=float(clearance),
        margin=margin,
        offending_pair=pair,
        reason="" if ok else "sampled layer points of chart-distant nodes lie within the margin",
    )


# ---------------------------------------------------------------------------
# intrinsic differential helpers (used for curvature regularity reports and
# the correction potentials)
# ---------------------------------------------------------------------------


def _coef_like(coef, f):
    """Append singleton axes so a chart coefficient broadcasts against f."""
    missing = np.asarray(f).ndim - coef.ndim
    return coef.reshape(coef.shape + (1,) * missing) if missing > 0 else coef


def surface_gradient_sq(patch, f, metric_inv=None):
    """|grad f|_g^2 on the chart; f may carry trailing non-grid axes."""
    inv = patch.metric_inv if metric_inv is None else metric_inv
    naxes = len(patch.axes)
    df = [grid_deriv1(f, k, ax) for k, ax in enumerate(patch.axes)]
    out = np.zeros_like(np.asarray(f, dtype=float))
    for a in range(naxes):
        for b in range(naxes):
            out = out + _coef_like(inv[..., a, b], f) * df[a] * df[b]
    return out


def surface_laplacian(patch, f, metric_inv=None):
    """Laplace-Beltrami of f: |g|^{-1/2} d_mu (|g|^{1/2} inv^{mu nu} d_nu f)."""
    inv = patch.metric_inv if metric_inv is None else metric_inv
    naxes = len(patch.axes)
    sg_b = _coef_like(patch.sqrt_g, f)
    df = [grid_deriv1(f, k, ax) for k, ax in enumerate(patch.axes)]
    out = np.zeros_like(np.asarray(f, dtype=float))
    for a in range(naxes):
        flux = np.zeros_like(out)
        for b in range(naxes):
            flux = flux + _coef_like(inv[..., a, b], f) * df[b]
        flux = sg_b * flux
        out = out + grid_deriv1(flux, a, patch.axes[a])
    return out / sg_b


def curvature_regularity_report(patch) -> dict:
    """Sup-norms of |grad kappa|_g and of Laplace-Beltrami kappa per direction.

    Reported (never enforced); unbounded values signal geometry too rough for
    the correction potentials to be meaningful.
    """
    grad_sup, lap_sup = [], []
    for mu in range(patch.dim):
        k = patch.kappa[..., mu]
        grad_sup.append(float(np.sqrt(np.max(surface_gradient_sq(patch, k)))))
        lap_sup.append(float(np.max(np.abs(surface_laplacian(patch, k)))))
    return {"kappa_grad_sup": grad_sup, "kappa_laplace_sup": lap_sup}
