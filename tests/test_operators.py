import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dst

from thinlayer import (
    AssemblyError,
    GeometryFamily,
    TRANSVERSE_GROUND_ENERGY,
    TransverseMode,
    assemble_comparison,
    assemble_effective,
    assemble_full,
    build_patch,
    comparison_constants,
    constant_field,
    effective_field,
    gauge_fix,
    layer_geometry,
    layer_potential,
    lowest_eigenpairs,
    polynomial_field,
    potential_grids,
    pullback,
    renormalize,
    transverse_curvature_potential,
    transverse_energies,
    transverse_matrix,
    zero_field,
)
from thinlayer.operators import sine_modes


# ---------------------------------------------------------------------------
# transverse block
# ---------------------------------------------------------------------------


def test_transverse_matrix_has_exact_sine_spectrum():
    T = transverse_matrix(17)
    vals = np.linalg.eigvalsh(T)
    want = np.sort(transverse_energies(17))
    assert np.max(np.abs(vals - want)) < 1e-10
    assert want[0] == pytest.approx(TRANSVERSE_GROUND_ENERGY, abs=1e-15)
    assert TRANSVERSE_GROUND_ENERGY == pytest.approx(2.467401, abs=5e-7)


@pytest.mark.parametrize("m", [3, 9, 17])
def test_sine_modes_are_the_orthonormal_dst_and_their_own_inverse(m):
    S = sine_modes(m)
    assert np.max(np.abs(S - dst(np.eye(m), type=1, norm="ortho"))) < 1e-14
    assert np.max(np.abs(S @ S - np.eye(m))) < 1e-14


def test_transverse_ground_mode_is_sampled_cosine():
    m = 17
    T = transverse_matrix(m)
    u = -1.0 + 2.0 * np.arange(1, m + 1) / (m + 1)
    chi = np.cos(0.5 * np.pi * u)
    r = T @ chi - TRANSVERSE_GROUND_ENERGY * chi
    assert np.max(np.abs(r)) < 1e-12


# ---------------------------------------------------------------------------
# assembly structure
# ---------------------------------------------------------------------------


def test_flat_operator_is_exact_kron_sum(segment_patch):
    eps, m = 0.2, 9
    lay = layer_geometry(segment_patch, eps, m)
    H = assemble_full(lay, layer_potential(zero_field(2), lay))
    S = assemble_effective(segment_patch).matrix  # curvature potential is zero
    T = transverse_matrix(m) / eps**2
    K = sp.csr_array(sp.kron(S, sp.eye_array(m, format="csr"), format="csr")) + sp.csr_array(
        sp.kron(sp.eye_array(segment_patch.n_nodes, format="csr"), sp.csr_array(T), format="csr")
    )
    diff = (H.matrix - K).tocoo()
    assert diff.nnz == 0
    assert not H.is_complex


@pytest.mark.parametrize("b", [None, [0.0, 0.0, 1.0]])
def test_flat_plane_layer_surface_part_is_exact_kron(b):
    # flat layer, u-independent potential: every transverse slab carries the
    # same surface stencil, bit for bit
    eps, m = 0.2, 7
    plane = build_patch(GeometryFamily("plane-rectangle", {"lx": 1.0, "ly": 1.5}), (12, 14))
    lay = layer_geometry(plane, eps, m)
    if b is None:
        pot, eff = layer_potential(zero_field(3), lay), None
    else:
        f = constant_field(3, b)
        pot, eff = gauge_fix(pullback(f, lay)), effective_field(f, plane)
    H = assemble_full(lay, pot)
    S = assemble_effective(plane, eff).matrix  # curvature potential is zero
    T = transverse_matrix(m) / eps**2
    K = sp.csr_array(sp.kron(S, sp.eye_array(m, format="csr"), format="csr")) + sp.csr_array(
        sp.kron(sp.eye_array(plane.n_nodes, format="csr"), sp.csr_array(T), format="csr")
    )
    assert (H.matrix - K).tocoo().nnz == 0
    assert H.is_complex == (b is not None)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_sheared_cylinder_effective_spectrum_second_order(b):
    """Periodic x Dirichlet user-sampled chart with a mixed metric: the unit
    cylinder of length L charted by (cos(t + 0.8 z), sin(t + 0.8 z), z). In
    the axial field b e_z (flux pi b, n.B = 0) its effective spectrum is
    (m - b/2)^2 + (k pi / L)^2 - 1/4."""
    L = 1.3
    exact = np.sort(
        [(m - 0.5 * b) ** 2 + (k * np.pi / L) ** 2 - 0.25 for m in range(-3, 4) for k in (1, 2)]
    )
    errors = []
    for nt, nz in ((32, 16), (64, 32), (128, 64)):
        t = 2.0 * np.pi * np.arange(nt) / nt
        z = L / (nz + 1) * np.arange(1, nz + 1)
        T, Z = np.meshgrid(t, z, indexing="ij")
        x = np.stack([np.cos(T + 0.8 * Z), np.sin(T + 0.8 * Z), Z], -1)
        fam = GeometryFamily(
            "user-sampled", {"h1": 2.0 * np.pi / nt, "h2": L / (nz + 1)},
            samples=x, closures=("periodic", "dirichlet"),
        )
        patch = build_patch(fam, None)
        heff = assemble_effective(patch, effective_field(constant_field(3, [0.0, 0.0, b]), patch))
        vals = lowest_eigenpairs(heff, 5, dense_cutoff=0).values
        errors.append(np.abs(vals - exact[:5]))
    errors = np.array(errors)
    if b == 0.0:
        assert np.all(errors[:, 0] < 1e-4)  # the z-only mode sees no mixed term
    assert errors[-1].max() < 2.5e-2
    assert np.all(errors[:-1] / errors[1:] > 3.3)  # second order


@pytest.mark.parametrize("family,grid,field", [
    ("circle", (48,), None),
    ("torus", (16, 16), None),
    ("full-sphere", (16, 32), (3, [0.0, 0.0, 1.0])),
    ("bumped-plane", (12, 12), (3, [0.4, -0.3, 0.8])),
])
def test_hermiticity_across_geometries(family, grid, field):
    params = {
        "circle": {"radius": 1.0},
        "torus": {"major": 2.0, "minor": 0.5},
        "full-sphere": {"radius": 1.0},
        "bumped-plane": {"lx": 2.0, "ly": 2.0, "amplitude": 0.3, "width": 0.5},
    }[family]
    p = build_patch(GeometryFamily(family, params), grid)
    lay = layer_geometry(p, 0.05, 9)
    if field is None:
        pot = layer_potential(zero_field(p.ambient_dim), lay)
    else:
        pot = gauge_fix(pullback(constant_field(*field), lay))
    H = assemble_full(lay, pot)
    assert H.hermiticity_residual() <= 1e-13


def test_zero_field_operators_are_real():
    # the zero field takes the general pull-back and gauge fix; only an exact
    # is_zero() keeps the layer operator on real arithmetic
    for family, params, grid in (
        ("circle", {"radius": 1.0}, (64,)),
        ("torus", {"major": 2.0, "minor": 0.5}, (16, 16)),
        ("sphere-cap", {"radius": 1.0, "theta_max": 1.0}, (12, 16)),
    ):
        p = build_patch(GeometryFamily(family, params), grid)
        lay = layer_geometry(p, 0.1, 5)
        pot = layer_potential(zero_field(p.ambient_dim), lay)
        assert pot.is_zero(), family
        assert assemble_full(lay, pot).matrix.dtype == np.float64, family
        assert assemble_effective(p).matrix.dtype == np.float64, family


def test_unfixed_gauge_rejected(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    raw = pullback(constant_field(2, 1.0), lay)
    with pytest.raises(AssemblyError, match="gauge"):
        assemble_full(lay, raw)


@pytest.mark.parametrize("kind", ["full-H", "full-H-renormalized", "h-eff", "H0+", "H0-"])
@pytest.mark.parametrize("family, params, grid", [
    ("circle", {"radius": 1.0}, (64,)),
    ("torus", {"major": 2.0, "minor": 0.5}, (16, 16)),
    ("full-sphere", {"radius": 1.0}, (12, 24)),
    ("bumped-plane", {"lx": 2.0, "ly": 2.0, "amplitude": 0.3, "width": 0.5}, (16, 16)),
])
def test_spectral_lower_bound_is_below_the_lowest_eigenvalue(family, params, grid, kind):
    # the eigensolver relies on this floor (the symmetric-mode LU without
    # pivoting, the LOBPCG shift), so the oracle is a dense eigvalsh; the zero
    # field is the tight case (a field only raises the kinetic energy)
    p = build_patch(GeometryFamily(family, params), grid)
    field = zero_field(p.ambient_dim)
    if kind == "h-eff":
        op = assemble_effective(p, effective_field(field, p))
    else:
        lay = layer_geometry(p, 0.1, 5)
        pot = layer_potential(field, lay)
        if kind in ("H0+", "H0-"):
            op, _ = assemble_comparison(lay, pot, 1 if kind == "H0+" else -1)
        else:
            op = assemble_full(lay, pot)
            if kind == "full-H-renormalized":
                op = renormalize(op)
    assert op.kind == kind
    H = op.matrix.toarray()
    lam1 = float(np.linalg.eigvalsh(H)[0])
    # constant curvature attains the floor (constant surface mode), so allow
    # the dense solve's round-off, relative to the operator norm
    slack = 1e-14 * float(np.max(np.sum(np.abs(H), axis=1)))
    assert op.meta["spectral_lower_bound"] <= lam1 + slack


# ---------------------------------------------------------------------------
# spectra of model operators
# ---------------------------------------------------------------------------


def test_circle_bound_state_below_zero():
    # dense oracle at coarse resolution first, then the production grid
    for grid, m_u, cutoff in ((32, 9, 10_000), (128, 33, 4000)):
        p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (grid,))
        lay = layer_geometry(p, 0.1, m_u)
        H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
        lam1 = lowest_eigenpairs(H, 1, dense_cutoff=cutoff).values[0]
        assert lam1 < 0.0


def test_circle_effective_spectrum_closed_form(circle_patch):
    heff = assemble_effective(circle_patch)
    vals = lowest_eigenpairs(heff, 4).values
    want = np.array([-0.25, 0.75, 0.75, 3.75])
    assert np.max(np.abs(vals - want)) < 5e-4


def test_circle_flux_shifts_momenta(circle_patch):
    eff = effective_field(constant_field(2, 1.0), circle_patch)
    assert eff.flux == pytest.approx(np.pi, abs=1e-12)
    heff = assemble_effective(circle_patch, eff)
    vals = lowest_eigenpairs(heff, 3).values
    # flux pi: eigenvalues (n - 1/2)^2 - 1/4
    assert vals[0] == pytest.approx(0.0, abs=5e-4)
    assert vals[1] == pytest.approx(0.0, abs=5e-4)
    assert vals[2] == pytest.approx(2.0, abs=2e-3)


def test_sphere_umbilic_spectrum(sphere_patch):
    heff = assemble_effective(sphere_patch)
    vals = lowest_eigenpairs(heff, 4).values
    assert vals[0] == pytest.approx(0.0, abs=1e-8)
    assert np.max(np.abs(vals[1:] - 2.0)) < 2e-2  # coarse session grid


def test_gauge_shift_leaves_spectrum(sphere_patch=None):
    p = build_patch(GeometryFamily("plane-rectangle", {"lx": 1.0, "ly": 1.0}), (8, 8))
    lay = layer_geometry(p, 0.1, 9)
    base = [[(1.0, (0, 0, 1))], [(0.5, (1, 0, 0))], []]
    shift = [[(2.0, (1, 0, 0))], [(-1.0, (0, 0, 1))], [(-1.0, (0, 1, 0))]]
    a1 = polynomial_field(3, base)
    a2 = polynomial_field(3, [b + s for b, s in zip(base, shift)])
    v1 = lowest_eigenpairs(assemble_full(lay, gauge_fix(pullback(a1, lay))), 6).values
    v2 = lowest_eigenpairs(assemble_full(lay, gauge_fix(pullback(a2, lay))), 6).values
    assert np.max(np.abs(v1 - v2)) < 1e-9


def test_diamagnetic_ground_state_shift(circle_patch):
    base = lowest_eigenpairs(assemble_effective(circle_patch), 1).values[0]
    eff = effective_field(constant_field(2, 1.0), circle_patch)
    with_field = lowest_eigenpairs(assemble_effective(circle_patch, eff), 1).values[0]
    assert with_field >= base - 1e-10


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_potential_grids_flat(segment_patch):
    lay = layer_geometry(segment_patch, 0.2, 9)
    pots = potential_grids(lay)
    for arr in (pots.v, pots.v1, pots.v2):
        assert np.max(np.abs(arr)) < 1e-14
    assert np.max(np.abs(pots.veff)) < 1e-14


def test_v2_circle_closed_form_values():
    kap = np.array([1.0])
    v = transverse_curvature_potential(kap, 0.1, 1.0)
    assert v == pytest.approx(-0.25 / 0.81, abs=1e-12)
    v0 = transverse_curvature_potential(kap, 1e-9, 0.7)
    assert v0 == pytest.approx(-0.25, abs=1e-8)


def test_v2_converges_to_veff_uniformly(torus_patch):
    sups = []
    eps_list = (0.1, 0.05, 0.025)
    for eps in eps_list:
        lay = layer_geometry(torus_patch, eps, 9)
        pots = potential_grids(lay)
        sups.append(pots.sup_v2_gap)
    from thinlayer import fit_rate

    fit = fit_rate(np.array(eps_list), np.array(sups))
    assert fit.slope >= 0.9
    assert sups[0] > sups[1] > sups[2]


def test_v1_vanishes_on_circle_and_scales_on_torus(circle_patch, torus_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    assert potential_grids(lay).sup_v1 < 1e-12
    sups = [
        potential_grids(layer_geometry(torus_patch, eps, 9)).sup_v1
        for eps in (0.1, 0.05)
    ]
    assert sups[1] < 0.7 * sups[0]


# ---------------------------------------------------------------------------
# renormalization
# ---------------------------------------------------------------------------


def test_renormalize_shifts_spectrum_exactly(circle_patch):
    lay = layer_geometry(circle_patch, 0.5, 9)
    H = assemble_full(lay, layer_potential(zero_field(2), lay))
    Hren = renormalize(H)
    v = lowest_eigenpairs(H, 5, dense_cutoff=10_000).values
    vr = lowest_eigenpairs(Hren, 5, dense_cutoff=10_000).values
    shift = TRANSVERSE_GROUND_ENERGY / 0.5**2
    assert np.max(np.abs((v - shift) - vr)) < 1e-12
    with pytest.raises(AssemblyError):
        renormalize(Hren)
    with pytest.raises(AssemblyError):
        renormalize(assemble_effective(circle_patch))


def test_flat_renormalized_matches_interval_spectrum(segment_patch):
    lay = layer_geometry(segment_patch, 0.1, 17)
    Hren = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    vals = lowest_eigenpairs(Hren, 3).values
    want = np.array([1.0, 4.0, 9.0]) * np.pi**2
    assert np.max(np.abs(vals / want - 1.0)) < 1e-3


# ---------------------------------------------------------------------------
# comparison operators
# ---------------------------------------------------------------------------


def test_comparison_constants_flat_are_unit(segment_patch):
    lay = layer_geometry(segment_patch, 0.2, 9)
    pot = layer_potential(zero_field(2), lay)
    pots = potential_grids(lay)
    c = comparison_constants(lay, pots, pot)
    assert c.c_lower == pytest.approx(1.0)
    assert c.c_upper == pytest.approx(1.0)
    assert c.scale_minus == pytest.approx(0.8)
    assert c.scale_plus == pytest.approx(1.2)
    assert c.offset == pytest.approx(0.0, abs=1e-14)
    op, _ = assemble_comparison(lay, pot, +1)
    assert op.kind == "H0+"


def test_comparison_constants_scale_linearly(circle_patch):
    ratios = []
    offsets = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        lay = layer_geometry(circle_patch, eps, 9)
        pot = layer_potential(zero_field(2), lay)
        c = comparison_constants(lay, potential_grids(lay), pot)
        ratios.append((c.scale_plus - 1.0) / eps)
        ratios.append((1.0 - c.scale_minus) / eps)
        offsets.append(c.offset / eps)
    assert np.max(ratios) < 20.0
    assert np.max(offsets) < 20.0


@pytest.mark.parametrize("family,grid,m_u", [
    ("circle", (96,), 9),
    ("torus", (24, 24), 9),
])
def test_sandwich_ordering(family, grid, m_u):
    params = {"circle": {"radius": 1.0}, "torus": {"major": 2.0, "minor": 0.5}}[family]
    p = build_patch(GeometryFamily(family, params), grid)
    lay = layer_geometry(p, 0.1, m_u)
    pot = layer_potential(zero_field(p.ambient_dim), lay)
    H = assemble_full(lay, pot)
    lo, _ = assemble_comparison(lay, pot, -1)
    hi, _ = assemble_comparison(lay, pot, +1)
    n = 10
    specs = [lowest_eigenpairs(op, n, tol=1e-12) for op in (lo, H, hi)]
    if family == "torus":
        # all three carry a surface factor on a two-axis chart
        assert [s.meta["method"] for s in specs] == ["lobpcg"] * 3
    vl, vm, vh = (s.values for s in specs)
    assert np.max(vl - vm) <= 1e-10
    assert np.max(vm - vh) <= 1e-10


def test_comparison_gap_shrinks_linearly(circle_patch):
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        lay = layer_geometry(circle_patch, eps, 9)
        pot = layer_potential(zero_field(2), lay)
        lo, _ = assemble_comparison(lay, pot, -1)
        hi, _ = assemble_comparison(lay, pot, +1)
        l1 = lowest_eigenpairs(lo, 1).values[0]
        h1 = lowest_eigenpairs(hi, 1).values[0]
        gaps.append(h1 - l1)
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert gaps[2] < 0.6 * gaps[1]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_matrix_market_roundtrip(tmp_path, circle_patch):
    import json

    from scipy.io import mmread

    heff = assemble_effective(circle_patch)
    mtx, sidecar = heff.export_matrix_market(tmp_path / "op")
    back = sp.csr_array(mmread(mtx))
    diff = (back - heff.matrix).tocoo()
    assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-15
    meta = json.loads((tmp_path / "op.json").read_text())
    assert meta["kind"] == "h-eff"
    assert meta["grid_shape"] == [96]
    assert "boundary" in meta


# ---------------------------------------------------------------------------
# electric potential
# ---------------------------------------------------------------------------


def test_electric_potential_enters_both_operators(segment_patch):
    from thinlayer import polynomial_potential

    w = polynomial_potential([(3.0, (1, 0))])  # 3 * y1
    heff_plain = assemble_effective(segment_patch)
    heff = assemble_effective(segment_patch, electric=w)
    s = segment_patch.axes[0].nodes
    diag_shift = (heff.matrix - heff_plain.matrix).diagonal()
    assert np.max(np.abs(diag_shift - 3.0 * s)) < 1e-12

    # a potential varying across the layer: its surface trace misses the
    # transverse sampling by O(eps^2), which must shrink along the sweep
    w2 = polynomial_potential([(3.0, (1, 0)), (2.0, (0, 2))])
    heff2 = assemble_effective(segment_patch, electric=w2)
    mu = lowest_eigenpairs(heff2, 1).values[0]
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        lay = layer_geometry(segment_patch, eps, 9)
        H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay), electric=w2))
        lam = lowest_eigenpairs(H, 1).values[0]
        gaps.append(abs(lam - mu))
    assert gaps[0] > gaps[1] > gaps[2]


def test_singular_electric_potential_rejected(segment_patch):
    from thinlayer import FieldError, ScalarPotential

    w = ScalarPotential("custom", "inverse", lambda p: 1.0 / p[:, 0])
    lay = layer_geometry(segment_patch, 0.999 * segment_patch.axes[0].node0, 9)
    bad = ScalarPotential("custom", "nan", lambda p: np.full(p.shape[0], np.nan))
    with pytest.raises(FieldError, match="singular"):
        bad.on_surface(segment_patch)
    # finite on this chart: accepted
    w.on_surface(segment_patch)


def test_gauge_covariance_on_curved_chart_is_second_order():
    # on a curved chart the link-phase quadrature is only midpoint-exact, so
    # the spectra under a quadratic gauge shift agree at O(h^2)
    base = [[(1.0, (0, 0, 1))], [(0.5, (1, 0, 0))], []]
    grad_phi = [[(2.0, (1, 0, 0))], [(-1.0, (0, 0, 1))], [(-1.0, (0, 1, 0))]]
    shifted = [b + s for b, s in zip(base, grad_phi)]

    def diff(n):
        p = build_patch(
            GeometryFamily(
                "bumped-plane", {"lx": 1.0, "ly": 1.0, "amplitude": 0.2, "width": 0.3}
            ),
            (n, n),
        )
        lay = layer_geometry(p, 0.05, 9)
        vals = []
        for comps in (base, shifted):
            f = polynomial_field(3, comps)
            H = assemble_full(lay, gauge_fix(pullback(f, lay)))
            spec = lowest_eigenpairs(H, 4, tol=1e-12)
            vals.append(spec.values)
        return float(np.max(np.abs(vals[0] - vals[1])))

    d1, d2 = diff(10), diff(20)
    assert d2 < d1 / 2.5


def test_sphere_cap_effective_operator_assembles():
    p = build_patch(
        GeometryFamily("sphere-cap", {"radius": 1.0, "theta_max": 1.2}), (16, 24)
    )
    op = assemble_effective(p)
    assert op.hermiticity_residual() <= 1e-13
    lam = lowest_eigenpairs(op, 1).values[0]
    assert lam > 0.0  # Dirichlet cap with vanishing curvature potential


def test_dof_map_indexing(circle_patch):
    # surface node major, transverse index fastest
    eps, m = 0.1, 9
    lay = layer_geometry(circle_patch, eps, m)
    op = assemble_full(lay, layer_potential(zero_field(2), lay))
    mode = TransverseMode.from_count(m)
    T = transverse_matrix(m) / eps**2
    for s in (0, 5, circle_patch.n_nodes - 1):
        e = np.zeros(circle_patch.n_nodes)
        e[s] = 1.0
        v = mode.embed(e)
        assert v.shape == (op.n_dof,)
        assert np.array_equal(np.flatnonzero(v), np.arange(s * m, s * m + m))
        # the transverse stiffness couples exactly these rows
        blk = op.matrix[s * m : s * m + m, s * m : s * m + m].toarray()
        off = ~np.eye(m, dtype=bool)
        assert np.allclose(blk[off], T[off], rtol=1e-12, atol=0.0)
    # a block of surface vectors embeds column by column
    block = np.eye(circle_patch.n_nodes)[:, [0, 5, 7]]
    cols = np.stack([mode.embed(block[:, j]) for j in range(3)], -1)
    assert np.array_equal(mode.embed(block), cols)
    rec = op.dofmap.boundary_record()
    assert any("periodic" in r for r in rec)
    assert any("transverse" in r for r in rec)


def test_mixed_metric_stencil_exact_on_quadratics():
    # sheared flat chart: constant metric with a nonzero off-diagonal entry;
    # centered differences are exact on chart-quadratic functions, so the
    # assembled operator must reproduce -g^{mu nu} d_mu d_nu psi exactly away
    # from the eliminated boundary
    n1, n2 = 20, 18
    h1, h2 = 0.07, 0.06
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([np.cos(0.4), np.sin(0.4), 0.0])
    c1 = h1 * np.arange(1, n1 + 1)
    c2 = h2 * np.arange(1, n2 + 1)
    X1, X2 = np.meshgrid(c1, c2, indexing="ij")
    pos = X1[..., None] * u + X2[..., None] * v
    fam = GeometryFamily(
        "user-sampled",
        {"h1": h1, "h2": h2},
        samples=pos,
        closures=("dirichlet", "dirichlet"),
    )
    p = build_patch(fam, (n1, n2))
    assert abs(p.metric[0, 0, 0, 1] - u @ v) < 1e-13  # genuinely mixed chart
    op = assemble_effective(p)

    a, b, c, d = 0.7, -0.4, 0.3, 0.2
    psi = a * X1**2 + b * X1 * X2 + c * X2**2 + d * X1
    ginv = p.metric_inv[0, 0]
    exact = -(2 * a * ginv[0, 0] + 2 * b * ginv[0, 1] + 2 * c * ginv[1, 1])
    w = np.sqrt(op.weights)
    applied = (op.matrix @ (w * psi.reshape(-1))) / w
    applied = applied.reshape(n1, n2)
    interior = applied[3:-3, 3:-3]
    assert np.max(np.abs(interior - exact)) < 1e-10 * max(1.0, abs(exact))
