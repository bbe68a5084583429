"""Hermitian discretizations of the layer operator, the effective surface
Hamiltonian and the decoupled two-sided comparison operators.

All operators act on the eps-independent measure (surface measure times du)
and are stored in symmetric scaling: the assembled matrix is W^{1/2} A W^{-1/2}
for the divergence-form operator A and the diagonal weight matrix W of the
discrete inner product, so plain Euclidean orthonormality of eigenvectors is
weighted orthonormality of the physical ones.

Discretization scheme:
  * divergence form with edge-midpoint coefficients; gauge covariance enters
    through unit link phases exp(-i integral of the potential along the edge),
    midpoint quadrature;
  * per chart direction, a Richardson-corrected fourth-order combination
    (4 A_h - A_2h) / 3 of narrow and double hops (wide-hop phases are products
    of the narrow ones, so covariance is exact); directions with a coordinate
    pole stay second order with zero-flux pole edges;
  * mixed-metric terms are the symmetrized centered-difference form (second
    order, Hermitian by construction), taken from the same neighbour windows
    as the edges: rolled on periodic axes, sliced on bounded ones;
  * the transverse operator is the spectral sine-basis matrix on the uniform
    interior grid, whose eigenvalues are exactly (m pi / 2)^2 and whose
    eigenvectors are the sampled sine modes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .geometry import (
    DIRICHLET,
    PERIODIC,
    POLE_DIRICHLET,
    POLE_POLE,
    HypersurfacePatch,
    LayerGeometry,
    surface_gradient_sq,
    surface_laplacian,
    v_eff,
)
from .magnetics import EffectiveField, GaugeFixedPotential, ScalarPotential

#: lowest transverse Dirichlet energy on (-1, 1); eps^-2 times this is the
#: diverging offset removed by renormalization
TRANSVERSE_GROUND_ENERGY = (np.pi / 2.0) ** 2

HERMITICITY_TOL = 1e-12


def transverse_matrix(m_u: int) -> np.ndarray:
    """Spectral stiffness matrix of -d^2/du^2 on the interior grid.

    Exact Dirichlet eigenvalues (m pi/2)^2 with the sampled sine modes as
    eigenvectors; dense (m_u x m_u), symmetric.
    """
    basis = sine_modes(m_u)
    T = (basis * transverse_energies(m_u)) @ basis.T
    return 0.5 * (T + T.T)


def sine_modes(m_u: int) -> np.ndarray:
    """The orthonormal DST-I matrix: column j samples the sine mode j + 1 at
    the interior nodes. Symmetric and its own inverse."""
    j = np.arange(1, m_u + 1)
    return np.sqrt(2.0 / (m_u + 1)) * np.sin(np.outer(j, j) * np.pi / (m_u + 1))


def transverse_energies(m_u: int) -> np.ndarray:
    return (np.arange(1, m_u + 1) * np.pi / 2.0) ** 2


@dataclass(frozen=True)
class DofMap:
    """Flat indexing of (chart nodes) x (transverse nodes), surface-major."""

    grid_shape: tuple[int, ...]
    m_u: int
    closures: tuple[str, ...]
    axis_names: tuple[str, ...]

    def boundary_record(self) -> list[str]:
        rec = []
        labels = {
            PERIODIC: "periodic identification",
            DIRICHLET: "Dirichlet rows eliminated at both ends",
            POLE_POLE: "zero-flux pole closure at both ends",
            POLE_DIRICHLET: "zero-flux pole at left end, Dirichlet at right end",
        }
        for name, closure in zip(self.axis_names, self.closures):
            rec.append(f"chart axis {name}: {labels[closure]}")
        if self.m_u > 1:
            rec.append("transverse axis u: Dirichlet rows eliminated at u = -1, 1")
        return rec


@dataclass(frozen=True)
class SurfaceBlock:
    """Surface factor S of a decoupled layer operator S (x) I + I (x) T/eps^2.

    floor bounds the spectrum of S from below: the kinetic part is
    nonnegative, so it is the smallest value of the diagonal potential.
    """

    matrix: sp.csr_array
    floor: float


@dataclass
class AssembledOperator:
    """Hermitian sparse operator with its inner-product weights and metadata.

    Layer operators keep the surface factor of their decoupled comparison
    operator (exact for the comparison operators themselves), which the
    eigensolver uses as a preconditioner; surface and explicit operators
    carry None.
    """

    matrix: sp.csr_array
    weights: np.ndarray
    dofmap: DofMap
    kind: str
    eps: float | None
    geometry: str
    field_label: str
    meta: dict = field(default_factory=dict)
    surface_block: SurfaceBlock | None = field(default=None, repr=False)

    @property
    def n_dof(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.matrix)

    def hermiticity_residual(self) -> float:
        d = (self.matrix - self.matrix.conj().T).tocoo()
        if d.nnz == 0:
            return 0.0
        scale = max(float(np.abs(self.matrix.data).max()), 1e-300)
        return float(np.abs(d.data).max()) / scale

    @staticmethod
    def from_matrix(matrix, weights=None, kind="custom", eps=None) -> "AssembledOperator":
        """Wrap an explicit Hermitian matrix (mainly for tests and harnesses)."""
        M = sp.csr_array(matrix)
        n = M.shape[0]
        w = np.ones(n) if weights is None else np.asarray(weights, float)
        dof = DofMap((n,), 1, (DIRICHLET,), ("i",))
        return AssembledOperator(
            matrix=M,
            weights=w,
            dofmap=dof,
            kind=kind,
            eps=eps,
            geometry="explicit",
            field_label="none",
        )

    def export_matrix_market(self, basepath) -> tuple[str, str]:
        """Write <base>.mtx (coordinate format) plus a JSON dof-map sidecar."""
        from scipy.io import mmwrite

        base = str(basepath)
        mtx = base + ".mtx"
        sidecar = base + ".json"
        mmwrite(mtx, self.matrix.tocoo())
        payload = {
            "kind": self.kind,
            "eps": self.eps,
            "geometry": self.geometry,
            "field": self.field_label,
            "n_dof": self.n_dof,
            "nnz": int(self.matrix.nnz),
            "grid_shape": list(self.dofmap.grid_shape),
            "m_u": self.dofmap.m_u,
            "closures": list(self.dofmap.closures),
            "ordering": "surface nodes row-major, transverse index fastest",
            "boundary": self.dofmap.boundary_record(),
            "scaling": "matrix is W^(1/2) A W^(-1/2); weights in this file",
            "weights_cell": self.meta.get("weights_cell"),
        }
        with open(sidecar, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        return mtx, sidecar


# ---------------------------------------------------------------------------
# surface stencil assembly
# ---------------------------------------------------------------------------


#: chart-axis ends that are eliminated Dirichlet boundaries (0 left, 1 right);
#: pole ends carry zero flux and periodic axes have no ends
_DIRICHLET_ENDS = {PERIODIC: (), DIRICHLET: (0, 1), POLE_POLE: (), POLE_DIRICHLET: (1,)}


def _is_pole_axis(ax):
    return ax.closure in (POLE_POLE, POLE_DIRICHLET)


def _interp_edges_periodic(F, axis):
    return (
        -np.roll(F, 1, axis) + 9.0 * F + 9.0 * np.roll(F, -1, axis) - np.roll(F, -2, axis)
    ) / 16.0


def _interp_edges_bounded(F, axis, order):
    Fm = np.moveaxis(F, axis, 0)
    n = Fm.shape[0]
    out = 0.5 * (Fm[:-1] + Fm[1:])
    if order == 4 and n >= 4:
        out[1:-1] = (-Fm[:-3] + 9.0 * Fm[1:-2] + 9.0 * Fm[2:-1] - Fm[3:]) / 16.0
    return np.moveaxis(out, 0, axis)


def _take(arr, axis, sl):
    idx = [slice(None)] * arr.ndim
    idx[axis] = sl
    return arr[tuple(idx)]


#: per end (0 left, 1 right): indices of the end node and its inner neighbour
_END_NODES = ((0, 1), (-1, -2))


def _ghost_coef(F, axis, side):
    """Edge coefficient at an eliminated Dirichlet boundary (2-pt extrapolation,
    clamped to stay positive)."""
    f0, f1 = (_take(F, axis, i) for i in _END_NODES[side])
    val = 1.5 * f0 - 0.5 * f1
    return np.where(val > 0, val, f0)


# ---------------------------------------------------------------------------
# divergence-form edge triplets
#
# One edge couples dofs gi <-> gj with off-diagonal magnitude coff (already
# weight-normalized) and diagonal additions di, dj. theta is the line integral
# of the vector potential along the edge; the off-diagonal entry picks up the
# unit phase exp(-i theta).
# ---------------------------------------------------------------------------


def _diag_triplets(gi, gj, coff, di, dj, theta):
    n = gi.size
    rows = np.empty(4 * n, np.int64)
    cols = np.empty(4 * n, np.int64)
    rows[0::4] = gi
    cols[0::4] = gj
    rows[1::4] = gj
    cols[1::4] = gi
    rows[2::4] = gi
    cols[2::4] = gi
    rows[3::4] = gj
    cols[3::4] = gj
    if theta is None:
        vals = np.empty(4 * n, np.float64)
        vals[0::4] = -coff
        vals[1::4] = -coff
    else:
        vals = np.empty(4 * n, np.complex128)
        off = -coff * np.exp(-1j * theta)
        vals[0::4] = off
        vals[1::4] = np.conj(off)
    vals[2::4] = di
    vals[3::4] = dj
    return rows, cols, vals


def _hop(arr, k, ax, offset, count):
    """arr `offset` nodes along chart axis k from the first node of each hop:
    every node on a periodic axis, the first `count` on a bounded one."""
    if ax.periodic:
        return np.roll(arr, -offset, k)
    return _take(arr, k, slice(offset, offset + count))


def _surface_operator(patch, inv, alpha, m):
    """Scaled surface stencil on (chart grid) x (m transverse slabs).

    inv: (*grid, m, dim, dim) inverse-metric coefficients; alpha: chart
    components of the potential, (*grid, m, dim) or None; an all-zero alpha
    counts as None and keeps the matrix real. Returns a csr_array of size
    (n_surface * m).
    """
    gshape = patch.grid_shape
    ns = patch.n_nodes
    if alpha is not None and not np.any(alpha):
        alpha = None

    I = np.arange(ns, dtype=np.int64).reshape(gshape)
    sg_m = np.broadcast_to(patch.sqrt_g[..., None], gshape + (m,))
    isqrt_sg = 1.0 / np.sqrt(patch.sqrt_g)
    isg2 = isqrt_sg**2
    # (rows, cols, vals) blocks, duplicates summed by the COO -> CSR build;
    # the ghost diagonals go after every edge
    entries, ghosts = [], []
    slab = np.arange(m, dtype=np.int64)

    def slabs(surf):
        return (surf[..., None] * m + slab).reshape(-1)

    def emit_edges(ei, ej, coef, theta, scale, hop_h):
        # ei, ej: (*eshape) surface indices; coef/theta: (*eshape, m)
        if np.any(coef <= 0.0):
            raise AssemblyError("non-positive edge coefficient in assembly")
        c = scale * coef / hop_h**2
        si = isqrt_sg.reshape(-1)[ei]
        sj = isqrt_sg.reshape(-1)[ej]
        coff = (c * (si * sj)[..., None]).reshape(-1)
        di = (c * (si * si)[..., None]).reshape(-1)
        dj = (c * (sj * sj)[..., None]).reshape(-1)
        th = None if theta is None else theta.reshape(-1)
        entries.append(_diag_triplets(slabs(ei), slabs(ej), coff, di, dj, th))

    def ghost(k, node, coef):
        # diagonal of the ghost edge at end node `node` of axis k; coef:
        # (*eshape, m) without the weight normalization
        idx = slabs(_take(I, k, node))
        ghosts.append((idx, idx, (coef * _take(isg2, k, node)[..., None]).reshape(-1)))

    for k, ax in enumerate(patch.axes):
        h, n = ax.h, ax.n
        fourth = not _is_pole_axis(ax)
        scale1 = 4.0 / 3.0 if fourth else 1.0
        Fnode = sg_m * inv[..., k, k]

        def hop(arr, offset, count):
            return _hop(arr, k, ax, offset, count)

        def interp(F):
            if ax.periodic:
                return _interp_edges_periodic(F, k)
            return _interp_edges_bounded(F, k, 4 if fourth else 2)

        # narrow hops, then the ghost edges of the eliminated Dirichlet ends
        # (value 0 beyond them)
        th = None if alpha is None else h * interp(alpha[..., k])
        emit_edges(hop(I, 0, n - 1), hop(I, 1, n - 1), interp(Fnode), th, scale1, h)
        for side in _DIRICHLET_ENDS[ax.closure]:
            ghost(k, _END_NODES[side][0], scale1 * _ghost_coef(Fnode, k, side) / h**2)
        if not fourth:
            continue
        # Richardson double hops (wide-hop phases are sums of narrow ones)
        thw = None if th is None else hop(th, 0, n - 2) + hop(th, 1, n - 2)
        emit_edges(
            hop(I, 0, n - 2), hop(I, 2, n - 2), hop(Fnode, 1, n - 2), thw, -1.0 / 3.0, 2.0 * h
        )
        for side in _DIRICHLET_ENDS[ax.closure]:
            # double-hop sublattices meet the eliminated boundary in two
            # ways: the sublattice through the first node reflects
            # oddly across it (doubled diagonal), the one through the
            # second node has a lattice point exactly on it (plain
            # ghost edge, coefficient at the first node)
            first, second = _END_NODES[side]
            ghost(k, first, (-1.0 / 3.0) * 2.0 * _ghost_coef(Fnode, k, side) / (4.0 * h**2))
            ghost(k, second, (-1.0 / 3.0) * _take(Fnode, k, first) / (4.0 * h**2))

    if len(gshape) == 2:
        off_scale = float(np.max(np.abs(inv[..., 0, 1])))
        diag_scale = float(np.max(np.abs(inv)))
        if off_scale > 1e-12 * diag_scale:
            for a, b, v in _mixed_terms(patch, inv, alpha, I, sg_m, isqrt_sg):
                v = v.reshape(-1)
                entries += [(slabs(a), slabs(b), v), (slabs(b), slabs(a), np.conj(v))]

    rows, cols, vals = (np.concatenate(part) for part in zip(*entries, *ghosts))
    dtype = np.float64 if alpha is None else np.complex128
    return sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(ns * m,) * 2, dtype=dtype))


def _mixed_terms(patch, inv, alpha, I, sg_m, isqrt_sg):
    """Mixed-metric terms: centered covariant differences in the two chart
    directions multiplied under the node coefficient
    base = sqrt|g| G^{01} / (4 h0 h1).

    For each sign pair (s0, s1), over the nodes c whose neighbours
    a = c + s0 e0 and b = c + s1 e1 both exist (the narrow-hop windows of
    both axes), yields the surface indices a, b and the (*window, m) entries
    s0 s1 base_c w_a w_b exp(i (theta_a - theta_b)) at (a, b), with
    w = |g|^{-1/4} and theta_a the midpoint phase of the hop c -> a; the
    conjugate entries belong at (b, a).
    """
    if any(_is_pole_axis(ax) for ax in patch.axes):
        raise AssemblyError(
            "mixed metric terms on a chart with a coordinate pole are not supported"
        )
    ax0, ax1 = patch.axes
    base = sg_m * inv[..., 0, 1] / (4.0 * ax0.h * ax1.h)

    if alpha is not None:
        a0, a1 = alpha[..., 0], alpha[..., 1]

    def at(arr, o0, o1):
        # arr at hop offsets o0 along axis 0 and o1 along axis 1
        return _hop(_hop(arr, 0, ax0, o0, ax0.n - 1), 1, ax1, o1, ax1.n - 1)

    for s0 in (1, -1):
        for s1 in (1, -1):
            # hop offsets of c and of its neighbour along each axis
            (c0, n0), (c1, n1) = ((0, 1) if s > 0 else (1, 0) for s in (s0, s1))
            v = s0 * s1 * at(base, c0, c1)
            v = v * at(isqrt_sg, n0, c1)[..., None] * at(isqrt_sg, c0, n1)[..., None]
            if alpha is not None:
                th_a = s0 * (ax0.h * (0.5 * (at(a0, c0, c1) + at(a0, n0, c1))))
                th_b = s1 * (ax1.h * (0.5 * (at(a1, c0, c1) + at(a1, c0, n1))))
                v = v * np.exp(1j * (th_a - th_b))
            yield at(I, n0, c1), at(I, c0, n1), v


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def transverse_curvature_potential(kappa, eps, u):
    """Closed-form transverse potential from the layer Jacobian factor.

    -1/2 sum (k/(1-eps u k))^2 + 1/4 (sum k/(1-eps u k))^2, converging
    uniformly to the effective potential as eps -> 0.
    """
    kappa = np.asarray(kappa, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.ndim:
        kap = kappa[..., None, :]
        uu = u[:, None]
    else:
        kap, uu = kappa, u
    return v_eff(kap / (1.0 - eps * uu * kap))


@dataclass(frozen=True)
class PotentialGrids:
    """Potential of the transformed layer operator and its comparison pieces."""

    v: np.ndarray  # (*grid, m): full potential entering the layer operator
    v1: np.ndarray  # (*grid, m): surface correction (intrinsic-metric version)
    v2: np.ndarray  # (*grid, m): closed-form transverse curvature potential
    veff: np.ndarray  # (*grid): effective surface potential
    sup_v1: float
    sup_v2_gap: float  # sup |v2 - veff|

    @property
    def sup_veff(self) -> float:
        return float(np.max(np.abs(self.veff)))


def potential_grids(layer: LayerGeometry) -> PotentialGrids:
    patch = layer.patch
    J = layer.log_jac
    v2 = transverse_curvature_potential(patch.kappa, layer.eps, layer.u)
    veff = v_eff(patch.kappa)
    v1 = surface_laplacian(patch, J) + surface_gradient_sq(patch, J)
    v1_layer = surface_laplacian(patch, J, metric_inv=layer.metric_inv) + surface_gradient_sq(
        patch, J, metric_inv=layer.metric_inv
    )
    v = v1_layer + v2
    return PotentialGrids(
        v=v,
        v1=v1,
        v2=v2,
        veff=veff,
        sup_v1=float(np.max(np.abs(v1))),
        sup_v2_gap=float(np.max(np.abs(v2 - veff[..., None]))),
    )


@dataclass(frozen=True)
class ComparisonConstants:
    """Explicit constants of the two-sided decoupled comparison operators."""

    eps: float
    rho_m: float
    c_lower: float  # (1 - eps/rho)^2
    c_upper: float  # (1 + eps/rho)^2
    scale_minus: float  # (1 - eps) / c_upper
    scale_plus: float  # (1 + eps) / c_lower
    offset: float  # admissible O(eps) zero-order bound
    sup_v1: float
    sup_v2_gap: float
    sup_taylor_quad: float
    sup_veff: float


def _width_ratio(layer: LayerGeometry) -> float:
    """eps / rho_m, 0 on a flat chart: it fixes the metric-sandwich constants
    (1 -/+ eps/rho_m)^2 between a layer operator and its comparison operators."""
    return 0.0 if not np.isfinite(layer.patch.rho_m) else layer.eps / layer.patch.rho_m


def comparison_constants(
    layer: LayerGeometry, pots: PotentialGrids, pot: GaugeFixedPotential
) -> ComparisonConstants:
    eps = layer.eps
    ratio = _width_ratio(layer)
    c_lower = (1.0 - ratio) ** 2
    c_upper = (1.0 + ratio) ** 2
    scale_minus = (1.0 - eps) / c_upper
    scale_plus = (1.0 + eps) / c_lower
    sup_scale_dev = max(abs(scale_minus - 1.0), abs(scale_plus - 1.0))
    offset = (
        pots.sup_v1 / c_lower
        + pots.sup_v2_gap
        + (eps + eps * eps) * pot.sup_quad
        + sup_scale_dev * pots.sup_veff
    )
    if offset < 0.0:
        raise AssemblyError(f"comparison offset must be nonnegative, got {offset}")
    return ComparisonConstants(
        eps=eps,
        rho_m=layer.patch.rho_m,
        c_lower=c_lower,
        c_upper=c_upper,
        scale_minus=scale_minus,
        scale_plus=scale_plus,
        offset=offset,
        sup_v1=pots.sup_v1,
        sup_v2_gap=pots.sup_v2_gap,
        sup_taylor_quad=pot.sup_quad,
        sup_veff=pots.sup_veff,
    )


# ---------------------------------------------------------------------------
# operator factories
# ---------------------------------------------------------------------------


def _surface_block(patch, alpha, electric) -> SurfaceBlock:
    """Magnetic Laplace-Beltrami operator with link phases from alpha (None
    or all zeros for no field) plus v_eff and the surface trace of the
    electric potential: the effective operator, and with the trace phases
    a_surf0 the surface factor of the decoupled comparison operators."""
    S = _surface_operator(
        patch,
        patch.metric_inv[..., None, :, :],
        None if alpha is None else alpha[..., None, :],
        1,
    )
    V = v_eff(patch.kappa)
    if electric is not None:
        V = V + electric.on_surface(patch)
    return SurfaceBlock(S + sp.csr_array(sp.diags_array(V.reshape(-1))), float(np.min(V)))


def _check_hermitian(op: AssembledOperator):
    res = op.hermiticity_residual()
    if res > HERMITICITY_TOL:
        raise AssemblyError(
            f"assembled {op.kind} operator has Hermiticity residual {res:.3e}"
        )
    op.meta["hermiticity_residual"] = res


def _dofmap(patch, m) -> DofMap:
    return DofMap(patch.grid_shape, m, patch.closures, tuple(ax.name for ax in patch.axes))


def _layer_operator(layer, Hsurf, V, kind, field_label, meta, block) -> AssembledOperator:
    """Hsurf + I (x) T/eps^2 + diag(V) on the product grid, checked Hermitian;
    meta gets the transverse node count and the weight cell."""
    patch = layer.patch
    m = layer.m_u
    T = transverse_matrix(m) / layer.eps**2
    Ht = sp.csr_array(
        sp.kron(sp.eye_array(patch.n_nodes, format="csr"), sp.csr_array(T), format="csr")
    )
    op = AssembledOperator(
        matrix=Hsurf + Ht + sp.csr_array(sp.diags_array(V.reshape(-1))),
        weights=layer.full_weights(),
        dofmap=_dofmap(patch, m),
        kind=kind,
        eps=layer.eps,
        geometry=patch.label(),
        field_label=field_label,
        meta={"m_u": m, "weights_cell": patch.cell_area * layer.h_u, **meta},
        surface_block=block,
    )
    _check_hermitian(op)
    return op


def assemble_full(
    layer: LayerGeometry,
    pot: GaugeFixedPotential,
    electric: ScalarPotential | None = None,
) -> AssembledOperator:
    """Transformed layer operator on the product grid.

    Surface part in divergence form with the layer inverse metric and link
    phases from the gauge-fixed potential, spectral transverse stiffness
    scaled by eps^-2, and the diagonal potential (plus an optional ambient
    electric potential sampled on the layer).
    """
    if not isinstance(pot, GaugeFixedPotential):
        raise AssemblyError("assemble_full needs a gauge-fixed potential")
    if pot.layer is not layer:
        raise AssemblyError("potential was fixed on a different layer")
    patch = layer.patch
    alpha = None if pot.is_zero() else pot.a_surf
    Hsurf = _surface_operator(patch, layer.metric_inv, alpha, layer.m_u)
    V = potential_grids(layer).v
    if electric is not None:
        V = V + electric.on_layer(layer)
    meta = {
        "electric": None if electric is None else electric.label,
        # kinetic part is nonnegative, transverse block bounded below by
        # the ground energy: a cheap certified spectral floor
        "spectral_lower_bound": float(np.min(V))
        + TRANSVERSE_GROUND_ENERGY / layer.eps**2,
    }
    block = _surface_block(patch, pot.a_surf0, electric)
    return _layer_operator(layer, Hsurf, V, "full-H", pot.field_label, meta, block)


def assemble_effective(
    patch: HypersurfacePatch,
    eff: EffectiveField | None = None,
    electric: ScalarPotential | None = None,
) -> AssembledOperator:
    """Effective surface Hamiltonian: magnetic Laplace-Beltrami plus the
    curvature potential (plus the surface trace of the electric potential)."""
    alpha = None
    label = "zero"
    if eff is not None and not eff.is_zero():
        alpha = eff.alpha
        label = "alpha-eff"
    block = _surface_block(patch, alpha, electric)
    op = AssembledOperator(
        matrix=block.matrix,
        weights=patch.surface_weights(),
        dofmap=_dofmap(patch, 1),
        kind="h-eff",
        eps=None,
        geometry=patch.label(),
        field_label=label,
        meta={
            "m_u": 1,
            "electric": None if electric is None else electric.label,
            "weights_cell": patch.cell_area,
            "spectral_lower_bound": block.floor,
        },
    )
    _check_hermitian(op)
    return op


def assemble_comparison(
    layer: LayerGeometry,
    pot: GaugeFixedPotential,
    sign: int,
    electric: ScalarPotential | None = None,
) -> tuple[AssembledOperator, ComparisonConstants]:
    """Decoupled comparison operator bounding the layer operator from one side.

    sign=+1 gives the upper operator, sign=-1 the lower one: the effective
    surface operator with trace link phases, scaled by the metric-sandwich
    constant, plus the exact transverse term, offset by +/- the explicit
    zero-order constant.
    """
    if sign not in (1, -1):
        raise AssemblyError("comparison sign must be +1 or -1")
    patch = layer.patch
    consts = comparison_constants(layer, potential_grids(layer), pot)
    scale = consts.scale_plus if sign > 0 else consts.scale_minus
    base = _surface_block(patch, pot.a_surf0, electric)
    Hsurf = sp.csr_array(
        sp.kron(scale * base.matrix, sp.eye_array(layer.m_u, format="csr"), format="csr")
    )
    meta = {
        "scale": scale,
        "offset": consts.offset,
        "spectral_lower_bound": scale * min(0.0, base.floor)
        + TRANSVERSE_GROUND_ENERGY / layer.eps**2
        + sign * consts.offset,
    }
    block = SurfaceBlock(
        sp.csr_array(
            scale * base.matrix
            + sign * consts.offset * sp.eye_array(patch.n_nodes, format="csr")
        ),
        scale * base.floor + sign * consts.offset,
    )
    op = _layer_operator(
        layer,
        Hsurf,
        np.full(Hsurf.shape[0], float(sign) * consts.offset),
        "H0+" if sign > 0 else "H0-",
        pot.field_label,
        meta,
        block,
    )
    return op, consts


def renormalize(op: AssembledOperator) -> AssembledOperator:
    """Subtract the diverging lowest transverse energy eps^-2 (pi/2)^2.

    The spectrum shifts exactly; eigenvectors are untouched.
    """
    if op.kind not in ("full-H", "H0+", "H0-"):
        raise AssemblyError(f"cannot renormalize operator of kind {op.kind!r}")
    if op.eps is None:
        raise AssemblyError("operator has no layer half-width")
    shift = TRANSVERSE_GROUND_ENERGY / op.eps**2
    H = op.matrix - sp.csr_array(
        sp.diags_array(np.full(op.matrix.shape[0], shift))
    ).astype(op.matrix.dtype)
    meta = dict(op.meta)
    meta["renormalization_shift"] = shift
    if meta.get("spectral_lower_bound") is not None:
        meta["spectral_lower_bound"] = meta["spectral_lower_bound"] - shift
    return AssembledOperator(
        matrix=sp.csr_array(H),
        weights=op.weights,
        dofmap=op.dofmap,
        kind=op.kind + "-renormalized",
        eps=op.eps,
        geometry=op.geometry,
        field_label=op.field_label,
        meta=meta,
        surface_block=op.surface_block,
    )
