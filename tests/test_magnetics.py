import numpy as np
import pytest

from thinlayer import (
    FieldError,
    GeometryFamily,
    RawLayerPotential,
    build_patch,
    constant_field,
    effective_field,
    effective_field_from_chart,
    gauge_fix,
    layer_geometry,
    polynomial_field,
    polynomial_potential,
    pullback,
    sampled_field,
    sampled_potential,
    surface_trace_potential,
    zero_field,
)


def test_zero_field_pulls_back_to_zero(circle_patch):
    lay = layer_geometry(circle_patch, 0.2, 9)
    raw = pullback(zero_field(2), lay)
    assert not np.any(raw.a_surf)
    assert not np.any(raw.a_trans)


def test_segment_shifted_symmetric_gauge(segment_patch):
    # A = (-y2, 0): along the axis the trace vanishes; off the surface the
    # chart component is -eps*u (normal is +e2)
    lay = layer_geometry(segment_patch, 0.3, 9)
    f = polynomial_field(2, [[(-1.0, (0, 1))], []])
    raw = pullback(f, lay)
    assert np.max(np.abs(raw.a_surf0)) < 1e-15
    expected = -0.3 * lay.u
    assert np.max(np.abs(raw.a_surf[..., 0] - expected)) < 1e-14


def test_sphere_trace_against_symbolic_chain_rule(sphere_patch):
    """Sixteen sample nodes checked against an independent sympy evaluation of
    (d position / d phi) . A(position)."""
    sympy = pytest.importorskip("sympy")
    th_s, ph_s = sympy.symbols("theta phi", real=True)
    pos = (
        sympy.sin(th_s) * sympy.cos(ph_s),
        sympy.sin(th_s) * sympy.sin(ph_s),
        -sympy.cos(th_s),
    )
    A = (-pos[1] / 2, pos[0] / 2, 0)
    t_phi = [sympy.diff(c, ph_s) for c in pos]
    expr = sympy.simplify(sum(a * t for a, t in zip(A, t_phi)))
    f = constant_field(3, [0.0, 0.0, 1.0])
    alpha = surface_trace_potential(f, sphere_patch)
    rng = np.random.default_rng(5)
    for _ in range(16):
        i = rng.integers(0, sphere_patch.grid_shape[0])
        j = rng.integers(0, sphere_patch.grid_shape[1])
        th = sphere_patch.axes[0].nodes[i]
        ph = sphere_patch.axes[1].nodes[j]
        want = float(expr.subs({th_s: th, ph_s: ph}))
        assert alpha[i, j, 1] == pytest.approx(want, abs=1e-12)
        assert alpha[i, j, 1] == pytest.approx(0.5 * np.sin(th) ** 2, abs=1e-12)


def test_gauge_fix_zeroes_transverse_and_keeps_trace(sphere_patch):
    lay = layer_geometry(sphere_patch, 0.1, 9)
    f = polynomial_field(3, [[(0.3, (0, 1, 1))], [(1.0, (0, 0, 2))], [(0.5, (2, 0, 0))]])
    raw = pullback(f, lay)
    assert np.max(np.abs(raw.a_trans)) > 1e-3  # genuinely oblique potential
    fixed = gauge_fix(raw)
    assert np.max(np.abs(fixed.a_surf0 - raw.a_surf0)) < 1e-15
    j0 = lay.m_u // 2
    # the gauge function vanishes at u = 0, so the middle slab is untouched
    assert np.array_equal(fixed.a_surf[..., j0, :], raw.a_surf[..., j0, :])


def test_gauge_fix_idempotent(sphere_patch):
    lay = layer_geometry(sphere_patch, 0.1, 9)
    f = constant_field(3, [0.3, -0.2, 0.9])
    fixed = gauge_fix(pullback(f, lay))
    # the fixed potential, read as a raw one with no transverse part
    no_trans = np.zeros(fixed.a_surf.shape[:-1])
    twice = gauge_fix(RawLayerPotential(lay, fixed.a_surf, no_trans, fixed.a_surf0))
    assert np.max(np.abs(twice.a_surf - fixed.a_surf)) < 1e-13
    assert twice.sup_quad == pytest.approx(fixed.sup_quad, rel=1e-12)


def test_pure_gauge_normal_potential_vanishes_after_fixing():
    # A = (0, 0, y3) over a flat patch with normal e3: the pulled-back
    # potential is purely transverse and must disappear entirely
    p = build_patch(GeometryFamily("plane-rectangle", {"lx": 1.0, "ly": 1.0}), (12, 12))
    lay = layer_geometry(p, 0.2, 9)
    f = polynomial_field(3, [[], [], [(1.0, (0, 0, 1))]])
    raw = pullback(f, lay)
    assert np.max(np.abs(raw.a_surf)) < 1e-15
    fixed = gauge_fix(raw)
    assert np.max(np.abs(fixed.a_surf)) < 1e-14
    assert fixed.is_zero()


def _discrete_two_form(alpha_surf, lay):
    """d(alpha) on the chart x transverse grid by centered differences."""
    from thinlayer.geometry import grid_deriv1

    patch = lay.patch
    d1a2 = grid_deriv1(alpha_surf[..., 1], 0, patch.axes[0].h, patch.axes[0].periodic)
    d2a1 = grid_deriv1(alpha_surf[..., 0], 1, patch.axes[1].h, patch.axes[1].periodic)
    return d1a2 - d2a1


def test_field_two_form_invariant_under_gauge_fix(sphere_patch):
    lay = layer_geometry(sphere_patch, 0.1, 17)
    f = constant_field(3, [0.0, 0.0, 1.0])
    raw = pullback(f, lay)
    fixed = gauge_fix(raw)
    b_raw = _discrete_two_form(raw.a_surf, lay)
    b_fix = _discrete_two_form(fixed.a_surf, lay)
    scale = np.max(np.abs(b_raw))
    assert np.max(np.abs(b_raw - b_fix)) < 5e-3 * scale


def test_fixed_potential_reproduces_pulled_back_two_form():
    errs = {}
    for n in (24, 48):
        p = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (n, 2 * n))
        lay = layer_geometry(p, 0.1, 9)
        f = constant_field(3, [0.0, 0.0, 1.0])
        fixed = gauge_fix(pullback(f, lay))
        got = _discrete_two_form(fixed.a_surf, lay)
        # pull back the constant 2-form beta = dy1 ^ dy2 through the layer map
        eps, u = lay.eps, lay.u
        eye = np.eye(2)
        M = eye - eps * u[:, None, None] * p.weingarten[..., None, :, :]
        t_amb = np.einsum("...mvk,...kd->...mvd", M.swapaxes(-1, -2), p.tangents)
        want = (
            t_amb[..., 0, 0] * t_amb[..., 1, 1] - t_amb[..., 0, 1] * t_amb[..., 1, 0]
        )
        errs[n] = np.max(np.abs(got - want))
    assert errs[48] < errs[24] / 3.0  # second-order chart differences
    assert errs[48] < 5e-3


def test_effective_field_sphere_cosine(sphere_patch):
    eff = effective_field(constant_field(3, [0.0, 0.0, 1.0]), sphere_patch)
    th = sphere_patch.axes[0].nodes
    assert np.max(np.abs(eff.b_eff - np.cos(th)[:, None])) < 1e-12


def test_effective_field_cylinder_axis_aligned():
    p = build_patch(
        GeometryFamily("cylinder-section", {"radius": 1.0, "length": 2.0}), (16, 12)
    )
    eff = effective_field(constant_field(3, [0.0, 0.0, 1.0]), p)
    assert np.max(np.abs(eff.b_eff)) < 1e-14


def test_circle_flux_quadrature(circle_patch):
    eff = effective_field(constant_field(2, 1.0), circle_patch)
    assert eff.flux == pytest.approx(np.pi, abs=1e-12)
    assert not eff.gauged_out


def test_open_curve_reports_gauged_out(segment_patch):
    eff = effective_field(constant_field(2, 1.0), segment_patch)
    assert eff.gauged_out
    assert eff.flux is None


def test_two_beff_routes_agree_at_second_order():
    errs = {}
    for n in (24, 48):
        p = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (n, 2 * n))
        f = constant_field(3, [0.0, 0.0, 1.0])
        eff = effective_field(f, p)
        other = effective_field_from_chart(eff.alpha, p)
        errs[n] = np.max(np.abs(other - eff.b_eff))
    assert errs[48] < errs[24] / 3.0


def test_taylor_remainder_width_independent(sphere_patch):
    # for a linear-gauge field the remainder depends on the width only through
    # the evaluation point, so successive halvings differ by O(eps)
    f = constant_field(3, [0.0, 0.0, 1.0])
    sups = []
    for eps in (0.2, 0.1, 0.05):
        lay = layer_geometry(sphere_patch, eps, 9)
        fixed = gauge_fix(pullback(f, lay))
        sups.append((fixed.a_surf - fixed.a_surf0[..., None, :]) / eps)
    d1 = np.max(np.abs(sups[0] - sups[1]))
    d2 = np.max(np.abs(sups[1] - sups[2]))
    assert d1 < 1.0 * 0.2
    assert d2 < 0.6 * d1


def test_sampled_field_interpolation_and_bounds():
    axes = [np.linspace(-2, 2, 21)] * 2
    Y1, Y2 = np.meshgrid(*axes, indexing="ij")
    vals = np.stack([-0.5 * Y2, 0.5 * Y1], -1)
    f = sampled_field(2, axes, vals)
    pts = np.array([[0.3, -0.4], [1.0, 1.0]])
    assert np.allclose(f.vector_potential(pts), 0.5 * np.stack([-pts[:, 1], pts[:, 0]], -1), atol=1e-12)
    assert np.allclose(f.field_strength(pts), 1.0, atol=1e-8)
    with pytest.raises(FieldError, match="undefined at"):
        f.vector_potential(np.array([[5.0, 0.0]]))


def test_out_of_grid_error_names_the_offending_point():
    axes = [np.linspace(-1, 1, 5)] * 2
    f = sampled_field(2, axes, np.zeros((5, 5, 2)))
    w = sampled_potential(axes, np.zeros((5, 5)))
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [3.0, 0.0]])
    for call in (f.vector_potential, f.field_strength, w):
        with pytest.raises(FieldError, match=r"undefined at ambient point \[3\. 0\.\]"):
            call(pts)
    # the field's centered differences leave the grid from its edge
    with pytest.raises(FieldError, match=r"field undefined at ambient point \[1\. 0\.\]"):
        f.field_strength(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_field_dimension_must_match_the_surface(circle_patch):
    sphere = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (8, 16))
    for f, patch in ((constant_field(2, 1.0), sphere),
                     (constant_field(3, [0.0, 0.0, 1.0]), circle_patch)):
        with pytest.raises(FieldError, match="field dimension"):
            effective_field(f, patch)
        with pytest.raises(FieldError, match="field dimension"):
            pullback(f, layer_geometry(patch, 0.1, 5))


def test_polynomial_field_strength_closed_forms():
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 3))
    y0, y1, y2 = pts.T
    # A = (y1 y2^2, y0^2 y2, y0 y1)
    f3 = polynomial_field(3, [[(1.0, (0, 1, 2))], [(1.0, (2, 0, 1))], [(1.0, (1, 1, 0))]])
    want = np.stack([y0 - y0**2, 2.0 * y1 * y2 - y1, 2.0 * y0 * y2 - y2**2], -1)
    assert np.max(np.abs(f3.field_strength(pts) - want)) < 1e-14
    # A = (y0 y1^2, y0^3)
    f2 = polynomial_field(2, [[(1.0, (1, 2))], [(1.0, (3, 0))]])
    want2 = 3.0 * y0**2 - 2.0 * y0 * y1
    assert np.max(np.abs(f2.field_strength(pts[:, :2]) - want2)) < 1e-14


def test_sampled_field_curl_in_three_dimensions():
    # A = M y is reproduced exactly by linear interpolation and centered
    # differences, so the sampled curl is the constant curl of M y
    M = np.array([[0.0, 0.3, -0.7], [1.1, 0.2, 0.5], [0.4, -0.6, 0.0]])
    axes = [np.linspace(-1.0, 1.0, 9)] * 3
    Y = np.stack(np.meshgrid(*axes, indexing="ij"), -1)
    f = sampled_field(3, axes, Y @ M.T)
    pts = np.random.default_rng(5).uniform(-0.8, 0.8, (6, 3))
    B = np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]])
    assert np.max(np.abs(f.field_strength(pts) - B)) < 1e-12


def test_polynomial_electric_potential_on_layer(segment_patch):
    lay = layer_geometry(segment_patch, 0.25, 9)
    w = polynomial_potential([(2.0, (0, 2))])  # 2 * y2^2
    on_layer = w.on_layer(lay)
    expected = 2.0 * (0.25 * lay.u) ** 2
    assert np.max(np.abs(on_layer - expected[None, :])) < 1e-14
    assert np.max(np.abs(w.on_surface(segment_patch))) < 1e-15


def test_beff_against_jacobian_transformation_oracle(sphere_patch):
    """Third, fully explicit route: transform the ambient 2-form component
    triple by det(DL) (DL)^{-1} at u = 0 and divide by sqrt|g|. For a unit
    field along z the triple is (0, 0, 1)."""
    f = constant_field(3, [0.0, 0.0, 1.0])
    eff = effective_field(f, sphere_patch)
    gamma = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(11)
    eps = 0.07  # the transverse column scale cancels in the surface component
    for _ in range(12):
        i = rng.integers(0, sphere_patch.grid_shape[0])
        j = rng.integers(0, sphere_patch.grid_shape[1])
        M = np.column_stack(
            [
                sphere_patch.tangents[i, j, 0],
                sphere_patch.tangents[i, j, 1],
                eps * sphere_patch.normal[i, j],
            ]
        )
        transformed = np.linalg.det(M) * np.linalg.solve(M, gamma)
        b_oracle = transformed[2] / sphere_patch.sqrt_g[i, j]
        assert b_oracle == pytest.approx(eff.b_eff[i, j], abs=1e-12)
