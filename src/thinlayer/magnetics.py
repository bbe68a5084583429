"""Ambient vector potentials pulled back to layer coordinates.

The gauge with vanishing transverse component is enforced by subtracting the
gradient of the transverse antiderivative (composite Simpson in u, fourth
order centered differences along the chart). The surface trace of the fixed
potential and the curvature-projected field are what the effective surface
Hamiltonian consumes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .geometry import HypersurfacePatch, LayerGeometry, grid_deriv1


def _eval_polynomial(components, pts):
    out = np.zeros_like(pts)
    for i, terms in enumerate(components):
        acc = np.zeros(pts.shape[0])
        for coeff, exps in terms:
            term = np.full(pts.shape[0], float(coeff))
            for k, p in enumerate(exps):
                if p:
                    term = term * pts[:, k] ** p
            acc += term
        out[:, i] = acc
    return out


def _poly_partial(terms, j):
    """d/dy_j of a monomial list [(coeff, exps), ...]."""
    out = []
    for coeff, exps in terms:
        p = exps[j]
        if p:
            new = list(exps)
            new[j] = p - 1
            out.append((coeff * p, tuple(new)))
    return out


@dataclass(frozen=True)
class AmbientField:
    """Vector potential in Cartesian ambient coordinates with its field."""

    dim: int
    label: str
    _potential: object
    _bfield: object  # d=3: (N,)->(N,3); d=2: (N,)->(N,)

    def vector_potential(self, pts: np.ndarray) -> np.ndarray:
        return self._potential(np.atleast_2d(np.asarray(pts, dtype=float)))

    def field_strength(self, pts: np.ndarray) -> np.ndarray:
        """Magnetic field: a 3-vector field for d=3, a scalar for d=2."""
        return self._bfield(np.atleast_2d(np.asarray(pts, dtype=float)))


def _require_inside(axes, pts, what, pad=0.0):
    """Raise a FieldError naming the first point p for which p - pad or
    p + pad leaves the box of a sampled grid."""
    lo = np.array([a[0] for a in axes])
    hi = np.array([a[-1] for a in axes])
    outside = np.any((pts - pad < lo) | (pts + pad > hi), axis=1)
    if np.any(outside):
        bad = pts[int(np.argmax(outside))]
        raise FieldError(f"{what} undefined at ambient point {bad}")


def zero_field(dim: int) -> AmbientField:
    zero_b = (lambda p: np.zeros((p.shape[0], 3))) if dim == 3 else (
        lambda p: np.zeros(p.shape[0])
    )
    return AmbientField(dim, "zero", lambda p: np.zeros_like(p), zero_b)


def constant_field(dim: int, b) -> AmbientField:
    """Uniform field in the symmetric gauge.

    d=3: b is a 3-vector and A(y) = b x y / 2. d=2: b is the scalar
    out-of-plane strength and A(y) = b (-y2, y1) / 2.
    """
    b = np.asarray(b, dtype=float)
    if dim in (2, 3) and b.size != (3 if dim == 3 else 1):
        raise FieldError(
            f"constant field b in R^{dim} must be {'a 3-vector' if dim == 3 else 'a number'}, "
            f"got {b.tolist()}"
        )
    if dim == 3:
        b = b.reshape(3)

        def pot(p):
            return 0.5 * np.cross(np.broadcast_to(b, p.shape), p)

        return AmbientField(3, f"constant(b={b.tolist()})", pot,
                            lambda p: np.broadcast_to(b, (p.shape[0], 3)).copy())
    if dim == 2:
        b = float(b.reshape(()))

        def pot(p):
            return 0.5 * b * np.stack([-p[:, 1], p[:, 0]], -1)

        return AmbientField(2, f"constant(b={b:g})", pot,
                            lambda p: np.full(p.shape[0], b))
    raise FieldError(f"constant field supports d in (2, 3), got {dim}")


def polynomial_field(dim: int, components) -> AmbientField:
    """Explicit gauge with polynomial components.

    components[i] is a list of (coeff, exponents) monomials for A_i(y), with
    at most dim exponents; missing trailing exponents are 0.
    """
    comp = [
        [(float(c), tuple(int(p) for p in e)) for c, e in terms]
        for terms in components
    ]
    if len(comp) != dim:
        raise FieldError(f"need {dim} potential components, got {len(comp)}")
    for i, terms in enumerate(comp):
        for j, (c, e) in enumerate(terms):
            if len(e) > dim:
                raise FieldError(
                    f"potential components[{i}][{j}] has exponents {list(e)}: more "
                    f"than the {dim} coordinates of R^{dim}"
                )
            terms[j] = (c, e + (0,) * (dim - len(e)))

    def pot(p):
        return _eval_polynomial(comp, p)

    if dim == 3:
        curl_terms = [
            (_poly_partial(comp[2], 1), _poly_partial(comp[1], 2)),
            (_poly_partial(comp[0], 2), _poly_partial(comp[2], 0)),
            (_poly_partial(comp[1], 0), _poly_partial(comp[0], 1)),
        ]

        def bfield(p):
            out = np.empty((p.shape[0], 3))
            for i, (plus, minus) in enumerate(curl_terms):
                out[:, i] = (
                    _eval_polynomial([plus], p)[:, 0]
                    - _eval_polynomial([minus], p)[:, 0]
                )
            return out

    else:
        d1a2 = _poly_partial(comp[1], 0)
        d2a1 = _poly_partial(comp[0], 1)

        def bfield(p):
            return _eval_polynomial([d1a2], p)[:, 0] - _eval_polynomial([d2a1], p)[:, 0]

    return AmbientField(dim, "linear-gauge", pot, bfield)


def sampled_field(dim: int, grid_axes, values) -> AmbientField:
    """Vector potential sampled on a rectangular ambient grid (linear interp)."""
    axes = [np.asarray(a, dtype=float) for a in grid_axes]
    values = np.asarray(values, dtype=float)
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(axes, values, method="linear", bounds_error=True)
    delta = 0.25 * min(float(np.min(np.diff(a))) for a in axes)

    def pot(p):
        _require_inside(axes, p, "vector potential")
        return interp(p)

    def bfield(p):
        # the centered differences reach delta beyond p
        _require_inside(axes, p, "field", delta)

        def partial(j):
            lo = p.copy()
            hi = p.copy()
            lo[:, j] -= delta
            hi[:, j] += delta
            return (interp(hi) - interp(lo)) / (2.0 * delta)

        if dim == 3:
            d = [partial(j) for j in range(3)]
            return np.stack(
                [
                    d[1][:, 2] - d[2][:, 1],
                    d[2][:, 0] - d[0][:, 2],
                    d[0][:, 1] - d[1][:, 0],
                ],
                -1,
            )
        d = [partial(j) for j in range(2)]
        return d[0][:, 1] - d[1][:, 0]

    return AmbientField(dim, "sampled", pot, bfield)


@dataclass(frozen=True)
class ScalarPotential:
    """Optional ambient electric potential, evaluated on layer or surface."""

    _func: object

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals = self._func(pts)
        if not np.all(np.isfinite(vals)):
            bad = pts[int(np.argmax(~np.isfinite(vals)))]
            raise FieldError(f"singular scalar potential at ambient point {bad}")
        return vals

    def on_surface(self, patch: HypersurfacePatch) -> np.ndarray:
        pts = patch.x.reshape(-1, patch.ambient_dim)
        return self(pts).reshape(patch.grid_shape)

    def on_layer(self, layer: LayerGeometry) -> np.ndarray:
        pts = layer.ambient_points()
        shape = pts.shape[:-1]
        return self(pts.reshape(-1, pts.shape[-1])).reshape(shape)


def zero_potential() -> ScalarPotential:
    return ScalarPotential(lambda p: np.zeros(p.shape[0]))


def polynomial_potential(terms) -> ScalarPotential:
    """Sum of (coeff, exponents) monomials; a term may not have more exponents
    than the points it is evaluated at have coordinates."""
    tt = [(float(c), tuple(int(p) for p in e)) for c, e in terms]

    def func(p):
        for i, (_, e) in enumerate(tt):
            if len(e) > p.shape[1]:
                raise FieldError(
                    f"electric terms[{i}] has exponents {list(e)}: more than the "
                    f"{p.shape[1]} coordinates of R^{p.shape[1]}"
                )
        return _eval_polynomial([tt], p)[:, 0]

    return ScalarPotential(func)


def sampled_potential(grid_axes, values) -> ScalarPotential:
    axes = [np.asarray(a, dtype=float) for a in grid_axes]
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(
        axes, np.asarray(values, dtype=float), method="linear", bounds_error=True
    )

    def func(p):
        _require_inside(axes, p, "scalar potential")
        return interp(p)

    return ScalarPotential(func)


# ---------------------------------------------------------------------------
# pull-back and gauge fixing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawLayerPotential:
    """Chart components of the pulled-back potential before gauge fixing."""

    layer: LayerGeometry
    a_surf: np.ndarray  # (*grid, m, dim)
    a_trans: np.ndarray  # (*grid, m)
    a_surf0: np.ndarray  # (*grid, dim): surface trace at u = 0


@dataclass(frozen=True)
class GaugeFixedPotential:
    """Pulled-back potential with the transverse component removed.

    sup_quad is the layer sup of |a'|^2 in the surface metric, for the
    rescaled transverse Taylor remainder a' = (a_surf(x, u) - a_surf(x, 0)) / eps:
    the quantity whose boundedness the comparison operators need. It enters
    the comparison offset as (eps + eps^2) sup_quad, one of its four terms.
    """

    layer: LayerGeometry
    a_surf: np.ndarray  # (*grid, m, dim)
    a_surf0: np.ndarray  # (*grid, dim)
    sup_quad: float

    def is_zero(self) -> bool:
        # tolerate round-off left behind by the gauge-fix differentiation
        return (
            float(np.max(np.abs(self.a_surf), initial=0.0)) <= 1e-13
            and float(np.max(np.abs(self.a_surf0), initial=0.0)) <= 1e-13
        )


def pullback(field: AmbientField, layer: LayerGeometry) -> RawLayerPotential:
    """Chart components (D L)^T A(L(x, u)) of the ambient potential."""
    patch = layer.patch
    a_surf0 = surface_trace_potential(field, patch)
    pts = layer.ambient_points()
    flat = pts.reshape(-1, patch.ambient_dim)
    A = field.vector_potential(flat).reshape(pts.shape)
    # tangential projections t_nu . A, then contract with (1 - eps u L)^nu_mu
    p_nu = np.einsum("...nd,...md->...mn", patch.tangents, A)
    eye = np.eye(patch.dim)
    M = eye - layer.eps * layer.u[:, None, None] * patch.weingarten[..., None, :, :]
    a_surf = np.einsum("...mnk,...mn->...mk", M, p_nu)
    a_trans = layer.eps * np.einsum("...d,...md->...m", patch.normal, A)
    return RawLayerPotential(layer, a_surf, a_trans, a_surf0)


def surface_trace_potential(field: AmbientField, patch: HypersurfacePatch) -> np.ndarray:
    """Chart components of the potential restricted to the surface (u = 0)."""
    if field.dim != patch.ambient_dim:
        raise FieldError(
            f"field dimension {field.dim} != ambient dimension {patch.ambient_dim}"
        )
    A0 = field.vector_potential(patch.x.reshape(-1, patch.ambient_dim)).reshape(
        patch.x.shape
    )
    return np.einsum("...nd,...d->...n", patch.tangents, A0)


def _cumulative_simpson(f, h):
    """Antiderivative of f along the last axis (>= 3 nodes, step h) by
    composite Simpson, starting at 0: step [x_j, x_j+1] integrates the
    parabola through x_j, x_j+1, x_j+2 for even j and through x_j-1, x_j,
    x_j+1 for odd j and for the last step (the equal-step case of
    scipy.integrate.cumulative_simpson, bit for bit)."""
    f1, f2, f3 = f[..., :-2], f[..., 1:-1], f[..., 2:]
    forward = h / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    mirrored = h / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    steps = np.zeros(f.shape)  # slot 0 is the starting 0, slot j + 1 step j
    steps[..., 1:-1:2] = forward[..., ::2]
    steps[..., 2::2] = mirrored[..., ::2]
    steps[..., -1] = mirrored[..., -1]
    return np.cumsum(steps, axis=-1)


def gauge_fix(raw: RawLayerPotential) -> GaugeFixedPotential:
    """Remove the transverse component by a gauge transformation.

    Subtracts the chart gradient of theta(x, u) = int_0^u a_trans(x, t) dt;
    the transverse component vanishes identically afterwards and the surface
    trace is untouched (theta(x, 0) = 0).
    """
    layer = raw.layer
    patch = layer.patch
    j0 = layer.m_u // 2  # u = 0 node (transverse grid is odd)
    running = _cumulative_simpson(raw.a_trans, layer.h_u)
    theta = running - running[..., j0 : j0 + 1]
    grad = np.stack([grid_deriv1(theta, k, ax) for k, ax in enumerate(patch.axes)], axis=-1)
    fixed = raw.a_surf - grad
    a_surf0 = raw.a_surf0
    a_prime = (fixed - a_surf0[..., None, :]) / layer.eps
    inv = np.broadcast_to(patch.metric_inv[..., None, :, :], a_prime.shape + (patch.dim,))
    quad = np.einsum("...mi,...mij,...mj->...m", a_prime, inv, a_prime)
    return GaugeFixedPotential(
        layer=layer,
        a_surf=fixed,
        a_surf0=a_surf0,
        sup_quad=float(np.max(quad)) if quad.size else 0.0,
    )


def layer_potential(field: AmbientField, layer: LayerGeometry) -> GaugeFixedPotential:
    """Gauge-fixed layer potential of an ambient field; the zero field takes
    the same pull-back and gauge fix and comes out exactly zero."""
    return gauge_fix(pullback(field, layer))


# ---------------------------------------------------------------------------
# effective surface field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveField:
    """Surface data surviving the thin-layer limit."""

    alpha: np.ndarray  # (*grid, dim): surface trace of the potential
    b_eff: np.ndarray | None  # (*grid): normal field component (d=3 only)
    flux: float | None  # circulation of alpha over a closed curve (d=2)
    gauged_out: bool  # open curve: the trace can be removed by a gauge

    def is_zero(self) -> bool:
        return not np.any(self.alpha)


def effective_field(field: AmbientField, patch: HypersurfacePatch) -> EffectiveField:
    """Project the ambient field onto the surface.

    d=3: the normal component n.B evaluated on the surface; d=2: the chart
    circulation of the trace (the flux through a closed curve), or a
    gauged-out flag for open curves.
    """
    if patch.ambient_dim not in (2, 3):
        raise FieldError("effective fields are defined for ambient d in (2, 3)")
    alpha = surface_trace_potential(field, patch)
    if patch.ambient_dim == 3:
        B = field.field_strength(patch.x.reshape(-1, 3)).reshape(patch.x.shape)
        b_eff = np.einsum("...d,...d->...", patch.normal, B)
        return EffectiveField(alpha, b_eff, None, False)
    ax = patch.axes[0]
    if ax.periodic:
        flux = float(np.sum(alpha[..., 0]) * ax.h)
        return EffectiveField(alpha, None, flux, False)
    return EffectiveField(alpha, None, None, True)


def effective_field_from_chart(alpha: np.ndarray, patch: HypersurfacePatch) -> np.ndarray:
    """Normal field recovered from the chart 2-form of the surface trace.

    Computes (d alpha)_{12} / sqrt|g| by centered differences; for d=3 this
    must agree with the direct n.B projection up to discretization error.
    """
    if patch.dim != 2:
        raise FieldError("chart-route field recovery needs a 2d surface")
    d1a2 = grid_deriv1(alpha[..., 1], 0, patch.axes[0])
    d2a1 = grid_deriv1(alpha[..., 0], 1, patch.axes[1])
    return (d1a2 - d2a1) / patch.sqrt_g
