import numpy as np
import pytest

from thinlayer import (
    EmbeddingError,
    GeometryError,
    GeometryFamily,
    build_patch,
    check_embedding,
    curvature_regularity_report,
    layer_factors,
    layer_geometry,
    v_eff,
)

from conftest import hairpin_samples


# ---------------------------------------------------------------------------
# closed-form curvature data
# ---------------------------------------------------------------------------


def test_circle_curvature_and_radius():
    p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (64,))
    assert np.allclose(p.kappa, 1.0, atol=1e-14)
    assert p.rho_m == pytest.approx(1.0)
    assert np.max(np.abs(np.linalg.norm(p.normal, axis=-1) - 1.0)) < 1e-12


def test_sphere_radius_two_curvatures():
    p = build_patch(GeometryFamily("full-sphere", {"radius": 2.0}), (16, 16))
    assert np.allclose(p.kappa, 0.5, atol=1e-14)
    assert np.allclose(p.mean_curv[..., 0], 0.5, atol=1e-14)
    assert np.allclose(p.mean_curv[..., 1], 0.25, atol=1e-14)


def test_torus_outer_equator_values(torus_patch):
    # node (0, 0) sits on the outer equator
    kap = np.sort(torus_patch.kappa[0, 0])
    assert kap == pytest.approx([1.0 / 2.5, 2.0], abs=1e-14)
    assert torus_patch.rho_m == pytest.approx(0.5)


def _fd_weingarten_oracle(x, h1, h2):
    """Independent curvature computation on periodic sampled positions:
    plain second-order differences and a pointwise 2x2 eigensolve."""

    def d(arr, axis, h):
        return (np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2 * h)

    t1, t2 = d(x, 0, h1), d(x, 1, h2)
    n = np.cross(t1, t2)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    g = np.empty(x.shape[:2] + (2, 2))
    g[..., 0, 0] = np.sum(t1 * t1, -1)
    g[..., 0, 1] = g[..., 1, 0] = np.sum(t1 * t2, -1)
    g[..., 1, 1] = np.sum(t2 * t2, -1)
    hf = np.empty_like(g)
    hf[..., 0, 0] = np.sum(d(t1, 0, h1) * n, -1)
    hf[..., 0, 1] = hf[..., 1, 0] = np.sum(d(t1, 1, h2) * n, -1)
    hf[..., 1, 1] = np.sum(d(t2, 1, h2) * n, -1)
    kappa = np.sort(np.linalg.eigvals(np.linalg.solve(g, hf)).real, axis=-1)
    return kappa


@pytest.mark.parametrize("n,tol", [(64, 0.02), (128, 0.005)])
def test_torus_against_fd_oracle(n, tol):
    p = build_patch(GeometryFamily("torus", {"major": 2.0, "minor": 0.5}), (n, n))
    kap_oracle = _fd_weingarten_oracle(p.x, p.axes[0].h, p.axes[1].h)
    kap_closed = np.sort(p.kappa, axis=-1)
    assert np.max(np.abs(np.sort(kap_oracle, axis=-1) - kap_closed)) < tol


def test_sampled_pipeline_matches_closed_form_ellipse():
    errs = []
    for n in (64, 128):
        t = 2 * np.pi * np.arange(n) / n
        samples = np.stack([1.3 * np.cos(t), 0.7 * np.sin(t)], -1)
        fam = GeometryFamily(
            "user-sampled",
            {"h1": 2 * np.pi / n},
            samples=samples,
            closures=("periodic",),
        )
        p = build_patch(fam, (n,))
        speed = np.sqrt(1.3**2 * np.sin(t) ** 2 + 0.7**2 * np.cos(t) ** 2)
        kap_exact = 1.3 * 0.7 / speed**3
        errs.append(np.max(np.abs(p.kappa[:, 0] - kap_exact)))
    assert errs[0] < 2e-4
    # fourth-order differences: better than second order under doubling
    assert errs[1] < errs[0] / 4.0


def test_sampled_catenary_open_chart():
    a = 0.8
    for n, tol in ((64, 2e-4), (128, 2e-5)):
        xs = np.linspace(-1.0, 1.0, n)
        samples = np.stack([xs, a * np.cosh(xs / a)], -1)
        fam = GeometryFamily(
            "user-sampled",
            {"h1": xs[1] - xs[0]},
            samples=samples,
            closures=("dirichlet",),
        )
        p = build_patch(fam, (n,))
        kap_exact = 1.0 / (a * np.cosh(xs / a) ** 2)
        assert np.max(np.abs(p.kappa[:, 0] - kap_exact)) < tol


def test_bumped_plane_self_consistent_with_sampled_route():
    fam = GeometryFamily(
        "bumped-plane",
        {"lx": 2.0, "ly": 2.0, "amplitude": 0.3, "width": 0.4},
    )
    p = build_patch(fam, (48, 48))
    fam_s = GeometryFamily(
        "user-sampled",
        {"h1": p.axes[0].h, "h2": p.axes[1].h},
        samples=np.array(p.x),
        closures=("dirichlet", "dirichlet"),
    )
    ps = build_patch(fam_s, (48, 48))
    assert np.max(np.abs(np.sort(p.kappa, -1) - np.sort(ps.kappa, -1))) < 2e-3


def test_weingarten_eigenvalues_match_kappa(torus_patch):
    ev = np.sort(np.linalg.eigvals(torus_patch.weingarten).real, axis=-1)
    assert np.allclose(ev, np.sort(torus_patch.kappa, -1), atol=1e-12)


def test_mean_curvatures_binomial_weights(torus_patch):
    k1, k2 = torus_patch.kappa[..., 0], torus_patch.kappa[..., 1]
    assert np.allclose(torus_patch.mean_curv[..., 0], 0.5 * (k1 + k2), atol=1e-14)
    assert np.allclose(torus_patch.mean_curv[..., 1], k1 * k2, atol=1e-14)


def test_grid_size_and_parameter_validation():
    with pytest.raises(GeometryError):
        build_patch(GeometryFamily("circle", {"radius": 1.0}), (6,))
    with pytest.raises(GeometryError):
        build_patch(GeometryFamily("circle", {"radius": -2.0}), (16,))
    with pytest.raises(GeometryError):
        build_patch(GeometryFamily("torus", {"major": 0.5, "minor": 0.6}), (16, 16))


@pytest.mark.parametrize("h1", [-0.04, 0.0, np.nan])
def test_sampled_chart_spacing_must_be_finite_and_positive(h1):
    # a negative spacing used to build a patch with negative surface weights,
    # zero or nan one that failed later as "non-finite principal curvatures"
    t = 2 * np.pi * np.arange(64) / 64
    samples = np.stack([np.cos(t), np.sin(t)], -1)
    fam = GeometryFamily("user-sampled", {"h1": h1}, samples=samples, closures=("periodic",))
    with pytest.raises(GeometryError, match="'h1' must be positive"):
        build_patch(fam, None)


def test_degenerate_sampled_input_rejected():
    samples = np.zeros((32, 2))
    samples[:, 0] = np.linspace(0, 1, 32) ** 2  # stalls at the left end
    fam = GeometryFamily("user-sampled", {}, samples=samples, closures=("dirichlet",))
    with pytest.raises(GeometryError, match="degenerate|orientable"):
        build_patch(fam, (32,))


def test_normal_flip_across_grid_rejected():
    # half a circle declared periodic: the tangent reverses across the seam,
    # so the derived normal flips between the last and first node
    t = np.linspace(0.0, np.pi, 64, endpoint=False)
    samples = np.stack([np.cos(t), np.sin(t)], -1)
    fam = GeometryFamily("user-sampled", {}, samples=samples, closures=("periodic",))
    with pytest.raises(GeometryError, match="orientable|flips"):
        build_patch(fam, (64,))


# ---------------------------------------------------------------------------
# layer geometry
# ---------------------------------------------------------------------------


def test_flat_layer_is_trivial(segment_patch):
    lay = layer_geometry(segment_patch, 0.3, 9)
    assert np.allclose(lay.metric, segment_patch.metric[..., None, :, :], atol=1e-15)
    assert np.allclose(lay.log_jac, 0.0, atol=1e-15)
    fac = layer_factors(segment_patch.kappa[..., None, :], 0.3, lay.u[:, None])
    assert np.allclose(np.prod(fac, axis=-1), 1.0, atol=1e-15)


def test_circle_layer_closed_form_at_edge():
    # evaluated at the layer edge u = 1 via the closed-form helper
    kap = np.array([1.0])
    assert layer_factors(kap, 0.1, 1.0)[0] == pytest.approx(0.9, abs=1e-15)


def test_determinant_identity_torus(torus_patch):
    lay = layer_geometry(torus_patch, 0.05, 9)
    det = np.linalg.det(lay.metric)
    fac = layer_factors(torus_patch.kappa[..., None, :], 0.05, lay.u[:, None])
    formula = torus_patch.sqrt_g[..., None] ** 2 * np.prod(fac, axis=-1) ** 2
    assert np.max(np.abs(det / formula - 1.0)) < 1e-10


def test_log_jac_matches_metric_determinant(torus_patch):
    lay = layer_geometry(torus_patch, 0.08, 9)
    det_ratio = np.linalg.det(lay.metric) / torus_patch.sqrt_g[..., None] ** 2
    assert np.max(np.abs(0.25 * np.log(det_ratio) - lay.log_jac)) < 1e-12


def test_metric_sandwich_eigenvalues(torus_patch):
    eps = 0.1
    lay = layer_geometry(torus_patch, eps, 9)
    ratio = eps / torus_patch.rho_m
    c_lo, c_hi = (1 - ratio) ** 2, (1 + ratio) ** 2
    g = torus_patch.metric[..., None, :, :]
    gl, gv = np.linalg.eigh(g)
    g_isqrt = np.einsum("...ik,...k,...jk->...ij", gv, 1.0 / np.sqrt(gl), gv)
    sym = np.einsum("...ik,...kl,...lj->...ij", g_isqrt, lay.metric, g_isqrt)
    ev = np.linalg.eigvalsh(sym)
    assert ev.min() >= c_lo - 1e-12
    assert ev.max() <= c_hi + 1e-12


def test_layer_rejects_width_beyond_curvature_radius(circle_patch):
    with pytest.raises(EmbeddingError, match="rho_m"):
        layer_geometry(circle_patch, 1.0, 9)
    with pytest.raises(GeometryError):
        layer_geometry(circle_patch, 0.1, 8)  # transverse count must be odd


def test_layer_rejects_nonfinite_width(circle_patch):
    # NaN passes both eps <= 0 and eps >= rho_m unnoticed
    for eps in (np.nan, -np.inf, np.inf):
        with pytest.raises(EmbeddingError, match="positive and finite"):
            layer_geometry(circle_patch, eps, 9)


# ---------------------------------------------------------------------------
# effective potential forms
# ---------------------------------------------------------------------------


def test_v_eff_closed_forms():
    assert v_eff(np.array([1.0])) == pytest.approx(-0.25, abs=1e-15)
    assert v_eff(np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)
    assert v_eff(np.array([0.5, 0.0])) == pytest.approx(-0.0625, abs=1e-15)


def test_v_eff_general_matches_dimension_reductions():
    rng = np.random.default_rng(3)
    k2 = rng.normal(size=(40, 1))
    assert np.max(np.abs(v_eff(k2) - (-0.25 * k2[:, 0] ** 2))) < 1e-14
    k3 = rng.normal(size=(40, 2))
    reduced = -0.25 * (k3[:, 0] - k3[:, 1]) ** 2
    assert np.max(np.abs(v_eff(k3) - reduced)) < 1e-14


def test_regularity_report_finite(torus_patch):
    rep = curvature_regularity_report(torus_patch)
    assert all(np.isfinite(rep["kappa_grad_sup"]))
    assert all(np.isfinite(rep["kappa_laplace_sup"]))
    # the minor-circle curvature is constant; its gradient must be tiny
    assert rep["kappa_grad_sup"][0] < 1e-8


# ---------------------------------------------------------------------------
# embedding diagnosis
# ---------------------------------------------------------------------------


def test_embedding_circle_pass_and_fail(circle_patch):
    ok = check_embedding(circle_patch, 0.5)
    assert ok.passed and ok.rho_ok and ok.injectivity_ok
    bad = check_embedding(circle_patch, 1.0)
    assert not bad.passed and not bad.rho_ok
    assert "rho_m" in bad.reason


def test_embedding_hairpin_fails_by_pair():
    samples = hairpin_samples()
    fam = GeometryFamily("user-sampled", {}, samples=samples, closures=("dirichlet",))
    p = build_patch(fam, (samples.shape[0],))
    assert p.rho_m > 0.2  # curvature alone does not veto this width
    rep = check_embedding(p, 0.2)
    assert not rep.passed and rep.rho_ok and not rep.injectivity_ok
    assert rep.offending_pair is not None
    (i,), (j,) = rep.offending_pair
    # confirm the reported overlap by direct distance computation
    combos = [
        np.linalg.norm((p.x[i] + si * 0.2 * p.normal[i]) - (p.x[j] + sj * 0.2 * p.normal[j]))
        for si in (-1, 1)
        for sj in (-1, 1)
    ]
    assert min(combos) == pytest.approx(rep.clearance, rel=1e-12)
    assert rep.clearance < 0.1  # default margin is eps/2


def test_embedding_rejects_nonpositive_width(circle_patch):
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(EmbeddingError):
            check_embedding(circle_patch, eps)


def test_embedding_of_the_benchmark_geometries():
    # the clearances and pairs of the former all-pairs scan, kept bit for bit;
    # the sphere's failed verdict is the heuristic's known defect at the
    # pole-clustered rings, not an overlap of the layer
    torus = build_patch(GeometryFamily("torus", {"major": 2.0, "minor": 0.5}), (64, 64))
    rep = check_embedding(torus, 0.1)
    assert rep.passed and rep.clearance == 0.25064816180317345
    assert rep.offending_pair is None
    sphere = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (200, 400))
    rep = check_embedding(sphere, 0.1)
    assert not rep.passed and rep.rho_ok and not rep.injectivity_ok
    assert rep.clearance == 0.004368579924146944
    assert rep.offending_pair == ((0, 0), (0, 360))


def test_sphere_cap_and_catenary_builtins():
    cap = build_patch(
        GeometryFamily("sphere-cap", {"radius": 1.0, "theta_max": 1.2}), (16, 24)
    )
    assert np.allclose(cap.kappa, 1.0, atol=1e-14)
    assert cap.closures == ("pole-dirichlet", "periodic")
    assert cap.axes[0].nodes[0] == pytest.approx(0.5 * cap.axes[0].h)
    cat = build_patch(GeometryFamily("catenary-curve", {"a": 0.8, "length": 2.0}), (32,))
    want = 1.0 / (0.8 * np.cosh(cat.axes[0].nodes / 0.8) ** 2)
    assert np.max(np.abs(cat.kappa[:, 0] - want)) < 1e-14
    assert np.max(np.abs(np.linalg.norm(cat.normal, axis=-1) - 1.0)) < 1e-12
