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
    eigenvectors are the sampled sine modes;
  * each operator is one COO -> CSR build: every off-diagonal entry one
    triplet, the diagonal one dense vector summed before the build.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .geometry import (
    DIRICHLET,
    ChartAxis,
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

    axes: tuple[ChartAxis, ...]
    m_u: int

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    @property
    def closures(self) -> tuple[str, ...]:
        return tuple(ax.closure for ax in self.axes)

    def boundary_record(self) -> list[str]:
        rec = [f"chart axis {ax.name}: {ax.boundary}" for ax in self.axes]
        if self.m_u > 1:
            rec.append("transverse axis u: Dirichlet rows eliminated at u = -1, 1")
        return rec


@dataclass(frozen=True)
class AssembledOperator:
    """Hermitian sparse operator with what the eigensolver reads of it: a
    certified spectral floor (None: the solver takes Gershgorin's), the
    transverse energy `renormalize` subtracted, and for layer operators the
    surface factor S of their decoupled comparison operator
    S (x) I + I (x) T/eps^2 (exact for the comparison operators themselves),
    the effective operator with the trace link phases, which the eigensolver
    inverts as a preconditioner. Surface and explicit operators carry None.
    """

    matrix: sp.csr_array
    dofmap: DofMap
    kind: str
    eps: float | None
    spectral_lower_bound: float | None = None
    renormalization_shift: float = 0.0
    surface_block: AssembledOperator | None = field(default=None, repr=False)

    @property
    def n_dof(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.matrix)

    def hermiticity_residual(self) -> float:
        """max |M - M^H| / max |M| over the stored entries M_ij, each mirror
        M_ji read by one lookup (0 where it is not stored): no transpose."""
        M = self.matrix
        if M.nnz == 0:  # scipy returns an empty lookup as a sparse array
            return 0.0
        rows = np.arange(M.shape[0], dtype=M.indices.dtype)
        d = M[M.indices, np.repeat(rows, np.diff(M.indptr))]
        np.subtract(M.data, np.conj(d, out=d), out=d)
        scale = max(float(np.max(np.abs(M.data), initial=0.0)), 1e-300)
        return float(np.max(np.abs(d), initial=0.0)) / scale

    @staticmethod
    def from_matrix(matrix) -> AssembledOperator:
        """Wrap an explicit Hermitian matrix (mainly for tests and harnesses)."""
        M = sp.csr_array(matrix)
        n = M.shape[0]
        return AssembledOperator(
            M, DofMap((ChartAxis("i", n, 1.0, 1.0, DIRICHLET),), 1), "custom", None
        )


# ---------------------------------------------------------------------------
# surface stencil assembly
# ---------------------------------------------------------------------------


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


def _slabs(surf, m):
    """The dofs of surface nodes `surf` on each of the m transverse slabs."""
    return (surf[..., None] * m + np.arange(m, dtype=surf.dtype)).reshape(-1)


def _hop(arr, k, ax, offset, count):
    """arr `offset` nodes along chart axis k from the first node of each hop:
    every node on a periodic axis, the first `count` on a bounded one."""
    if ax.periodic:
        return np.roll(arr, -offset, k)
    return _take(arr, k, slice(offset, offset + count))


def _surface_operator(patch, inv, alpha, m):
    """Scaled surface stencil on (chart grid) x (m transverse slabs): its
    off-diagonal COO triplets and its summed diagonal, for `_csr`.

    inv: (*grid, m, dim, dim) inverse-metric coefficients; alpha: chart
    components of the potential, (*grid, m, dim) or None; an all-zero alpha
    counts as None and keeps the entries real. Returns a list of (rows,
    cols, vals) blocks, int32 indices below 2^31 dofs, and the dense
    (n_surface * m,) diagonal. An edge i <-> j with weight-normalized
    coefficient c puts -c w_i w_j exp(-i theta) at (i, j), its conjugate at
    (j, i) and c w_i^2, c w_j^2 on the diagonal, w = |g|^{-1/4} and theta
    the line integral of the potential along the edge.
    """
    gshape = patch.grid_shape
    ns = patch.n_nodes
    if alpha is not None and not np.any(alpha):
        alpha = None

    I = np.arange(ns, dtype=np.int32 if ns * m < 2**31 else np.int64).reshape(gshape)
    sg_m = np.broadcast_to(patch.sqrt_g[..., None], gshape + (m,))
    isqrt_sg = 1.0 / np.sqrt(patch.sqrt_g)
    isg2 = isqrt_sg**2
    entries = []
    diag = np.zeros(ns * m)

    def add_diag(idx, vals):
        np.add(diag, np.bincount(idx, vals.reshape(-1), minlength=diag.size), out=diag)

    def emit_edges(ei, ej, coef, theta, scale, hop_h):
        # ei, ej: (*eshape) surface indices; coef/theta: (*eshape, m)
        if np.any(coef <= 0.0):
            raise AssemblyError("non-positive edge coefficient in assembly")
        c = scale * coef / hop_h**2
        si = isqrt_sg.reshape(-1)[ei]
        sj = isqrt_sg.reshape(-1)[ej]
        off = -(c * (si * sj)[..., None]).reshape(-1)
        if theta is not None:
            off = off * np.exp(-1j * theta.reshape(-1))
        a, b = _slabs(ei, m), _slabs(ej, m)
        entries.extend([(a, b, off), (b, a, np.conj(off))])
        add_diag(a, c * (si * si)[..., None])
        add_diag(b, c * (sj * sj)[..., None])

    def ghost(k, node, coef):
        # diagonal of the ghost edge at end node `node` of axis k; coef:
        # (*eshape, m) without the weight normalization
        add_diag(_slabs(_take(I, k, node), m), coef * _take(isg2, k, node)[..., None])

    for k, ax in enumerate(patch.axes):
        h, n = ax.h, ax.n
        fourth = not ax.pole
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
        for side in ax.dirichlet_ends:
            ghost(k, _END_NODES[side][0], scale1 * _ghost_coef(Fnode, k, side) / h**2)
        if not fourth:
            continue
        # Richardson double hops (wide-hop phases are sums of narrow ones)
        thw = None if th is None else hop(th, 0, n - 2) + hop(th, 1, n - 2)
        emit_edges(
            hop(I, 0, n - 2), hop(I, 2, n - 2), hop(Fnode, 1, n - 2), thw, -1.0 / 3.0, 2.0 * h
        )
        for side in ax.dirichlet_ends:
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
                a, b, v = _slabs(a, m), _slabs(b, m), v.reshape(-1)
                entries.extend([(a, b, v), (b, a, np.conj(v))])

    return entries, diag


def _csr(entries, diag):
    """One COO -> CSR build of the off-diagonal triplet blocks `entries`
    (emptied, so the parts are freed before the build) plus diag(diag)."""
    n = diag.size
    idx = np.arange(n, dtype=entries[0][0].dtype)
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries, (idx, idx, diag)))
    del entries[:]
    return sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))


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
    if any(ax.pole for ax in patch.axes):
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


def _diagonal_potential(layer: LayerGeometry) -> np.ndarray:
    """Diagonal potential of the transformed layer operator, (*grid, m): the
    Jacobian terms of log J in the layer metric plus the closed-form
    transverse curvature potential."""
    patch, J, inv = layer.patch, layer.log_jac, layer.metric_inv
    v1 = surface_laplacian(patch, J, inv) + surface_gradient_sq(patch, J, inv)
    return v1 + transverse_curvature_potential(patch.kappa, layer.eps, layer.u)


@dataclass(frozen=True)
class ComparisonConstants:
    """Explicit constants of the two-sided decoupled comparison operators."""

    c_lower: float  # (1 - eps/rho_m)^2, 1 on a flat chart
    c_upper: float  # (1 + eps/rho_m)^2
    scale_minus: float  # (1 - eps) / c_upper
    scale_plus: float  # (1 + eps) / c_lower
    offset: float  # admissible O(eps) zero-order bound
    sup_v1: float  # sup |V1|: the Jacobian terms of log J in the surface metric
    sup_v2_gap: float  # sup |V2 - v_eff|: transverse curvature potential


def comparison_constants(
    layer: LayerGeometry, pot: GaugeFixedPotential, electric: ScalarPotential | None = None
) -> ComparisonConstants:
    """Scale factors and offset of the comparison operators H0-/+ of a layer.

    The metric sandwich takes the ratio eps/rho_m (0 on a flat chart). The
    offset is the sum of four terms: sup|V1| / c_lower, sup|V2 - v_eff|,
    (eps + eps^2) sup_quad of the gauge-fixed potential's Taylor remainder,
    and max|scale -/+ - 1| times sup|v_eff|. An electric potential V adds
    two more: sup|V(layer) - V(surface)|, as the layer samples V at
    x + eps u n, and max|scale -/+ - 1| times sup|V(surface)|, as the
    comparison operators scale its surface trace.
    """
    eps = layer.eps
    patch = layer.patch
    ratio = eps / patch.rho_m if np.isfinite(patch.rho_m) else 0.0
    c_lower = (1.0 - ratio) ** 2
    c_upper = (1.0 + ratio) ** 2
    scale_minus = (1.0 - eps) / c_upper
    scale_plus = (1.0 + eps) / c_lower
    sup_scale_dev = max(abs(scale_minus - 1.0), abs(scale_plus - 1.0))
    J = layer.log_jac
    sup_v1 = float(np.max(np.abs(surface_laplacian(patch, J) + surface_gradient_sq(patch, J))))
    veff = v_eff(patch.kappa)
    v2 = transverse_curvature_potential(patch.kappa, eps, layer.u)
    sup_v2_gap = float(np.max(np.abs(v2 - veff[..., None])))
    offset = (
        sup_v1 / c_lower
        + sup_v2_gap
        + (eps + eps * eps) * pot.sup_quad
        + sup_scale_dev * float(np.max(np.abs(veff)))
    )
    if electric is not None:
        trace = electric.on_surface(patch)
        offset += float(np.max(np.abs(electric.on_layer(layer) - trace[..., None])))
        offset += sup_scale_dev * float(np.max(np.abs(trace)))
    if not offset >= 0.0:
        raise AssemblyError(f"comparison offset must be nonnegative, got {offset}")
    return ComparisonConstants(
        c_lower=c_lower,
        c_upper=c_upper,
        scale_minus=scale_minus,
        scale_plus=scale_plus,
        offset=offset,
        sup_v1=sup_v1,
        sup_v2_gap=sup_v2_gap,
    )


# ---------------------------------------------------------------------------
# operator factories
# ---------------------------------------------------------------------------


def _surface_block(patch, alpha, electric) -> AssembledOperator:
    """Magnetic Laplace-Beltrami operator with link phases from alpha (None
    or all zeros for no field) plus v_eff and the surface trace of the
    electric potential: the effective operator, and with the trace phases
    a_surf0 the surface factor of the decoupled comparison operators. The
    kinetic part is nonnegative, so the smallest value of the potential is
    a spectral floor."""
    entries, diag = _surface_operator(
        patch, patch.metric_inv[..., None, :, :], None if alpha is None else alpha[..., None, :], 1
    )
    V = v_eff(patch.kappa)
    if electric is not None:
        V = V + electric.on_surface(patch)
    diag += V.reshape(-1)
    return AssembledOperator(
        _csr(entries, diag), DofMap(patch.axes, 1), "h-eff", None, float(np.min(V))
    )


def _check_hermitian(op: AssembledOperator):
    res = op.hermiticity_residual()
    if not res <= HERMITICITY_TOL:
        raise AssemblyError(
            f"assembled {op.kind} operator has Hermiticity residual {res:.3e}"
        )


def _layer_operator(layer, entries, diag, V, kind, floor, block) -> AssembledOperator:
    """A surface part on the product grid (off-diagonal triplets, dense
    diagonal) + I (x) T/eps^2 + diag(V), the diagonal summed in that order,
    in one COO -> CSR build; checked Hermitian."""
    m = layer.m_u
    T = transverse_matrix(m) / layer.eps**2
    i, j = (ix.astype(entries[0][0].dtype) for ix in np.nonzero(~np.eye(m, dtype=bool)))
    node = np.arange(0, diag.size, m, dtype=i.dtype)[:, None]
    entries.append(((node + i).ravel(), (node + j).ravel(), np.tile(T[i, j], node.size)))
    diag += np.tile(np.diag(T), node.size)
    diag += V.reshape(-1)
    op = AssembledOperator(
        _csr(entries, diag), DofMap(layer.patch.axes, m), kind, layer.eps, floor,
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
    entries, diag = _surface_operator(patch, layer.metric_inv, alpha, layer.m_u)
    V = _diagonal_potential(layer)
    if electric is not None:
        V = V + electric.on_layer(layer)
    # kinetic part is nonnegative, transverse block bounded below by the
    # ground energy: a cheap certified spectral floor
    floor = float(np.min(V)) + TRANSVERSE_GROUND_ENERGY / layer.eps**2
    block = _surface_block(patch, pot.a_surf0, electric)
    return _layer_operator(layer, entries, diag, V, "full-H", floor, block)


def assemble_effective(
    patch: HypersurfacePatch,
    eff: EffectiveField | None = None,
    electric: ScalarPotential | None = None,
) -> AssembledOperator:
    """Effective surface Hamiltonian: magnetic Laplace-Beltrami plus the
    curvature potential (plus the surface trace of the electric potential)."""
    op = _surface_block(patch, None if eff is None or eff.is_zero() else eff.alpha, electric)
    _check_hermitian(op)
    return op


def assemble_comparison(
    layer: LayerGeometry,
    pot: GaugeFixedPotential,
    sign: int,
    electric: ScalarPotential | None = None,
) -> AssembledOperator:
    """Decoupled comparison operator bounding the layer operator from one side.

    sign=+1 gives the upper operator, sign=-1 the lower one: the effective
    surface operator with trace link phases, scaled by the metric-sandwich
    constant, plus the exact transverse term, offset by +/- the explicit
    zero-order constant.
    """
    if sign not in (1, -1):
        raise AssemblyError("comparison sign must be +1 or -1")
    patch = layer.patch
    consts = comparison_constants(layer, pot, electric)
    scale = consts.scale_plus if sign > 0 else consts.scale_minus
    shift = sign * consts.offset
    base = _surface_block(patch, pot.a_surf0, electric)
    # scale * base (x) I: each surface entry on every slab
    m = layer.m_u
    S = (scale * base.matrix).tocoo()
    off = S.row != S.col
    entries = [(_slabs(S.row[off], m), _slabs(S.col[off], m), np.repeat(S.data[off], m))]
    ground = TRANSVERSE_GROUND_ENERGY / layer.eps**2
    floor = scale * min(0.0, base.spectral_lower_bound) + ground + shift
    block = replace(
        base,
        matrix=sp.csr_array(scale * base.matrix + shift * sp.eye_array(patch.n_nodes, format="csr")),
        spectral_lower_bound=scale * base.spectral_lower_bound + shift,
    )
    kind = "H0+" if sign > 0 else "H0-"
    diag = np.repeat(S.diagonal(), m)
    V = np.full(diag.size, shift)
    return _layer_operator(layer, entries, diag, V, kind, floor, block)


def renormalize(op: AssembledOperator) -> AssembledOperator:
    """Subtract the diverging lowest transverse energy eps^-2 (pi/2)^2 from a
    layer operator that has not been renormalized.

    The spectrum shifts exactly; eigenvectors are untouched.
    """
    if op.eps is None or op.renormalization_shift:
        raise AssemblyError(
            f"cannot renormalize {op.kind} operator: it needs a layer half-width "
            "and no earlier renormalization"
        )
    shift = TRANSVERSE_GROUND_ENERGY / op.eps**2
    return replace(
        op,
        matrix=op.matrix - shift * sp.eye_array(op.n_dof, dtype=op.matrix.dtype, format="csr"),
        kind=op.kind + "-renormalized",
        spectral_lower_bound=op.spectral_lower_bound - shift,
        renormalization_shift=shift,
    )
