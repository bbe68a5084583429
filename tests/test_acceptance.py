"""Acceptance criteria, one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements. Stated runtime budgets are asserted where given.
"""
import time

import numpy as np
import pytest

from thinlayer import (
    GeometryFamily,
    SweepSpec,
    assemble_comparison,
    assemble_effective,
    assemble_full,
    build_patch,
    comparison_constants,
    constant_field,
    effective_field,
    effective_field_from_chart,
    fit_rate,
    gap_bound_report,
    gauge_fix,
    layer_geometry,
    layer_potential,
    lowest_eigenpairs,
    polynomial_field,
    pullback,
    renormalize,
    run_sweep,
    transverse_curvature_potential,
    zero_field,
)


def _report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def circle_sweep_report():
    spec = SweepSpec(
        family=GeometryFamily("circle", {"radius": 1.0}),
        grid=(256,),
        field=zero_field(2),
        epsilons=(0.2, 0.1, 0.05, 0.025),
        m_u=17,
        n_pairs=1,
        tol=1e-12,
        grid_doubling=True,
    )
    t0 = time.perf_counter()
    report = run_sweep(spec)
    report.meta["wall_time"] = time.perf_counter() - t0
    return report


def test_criterion_1_flat_exactness():
    t0 = time.perf_counter()
    patch = build_patch(GeometryFamily("segment", {"length": 1.0}), (200,))
    heff = assemble_effective(patch)
    mu = lowest_eigenpairs(heff, 3, tol=1e-12).values
    worst_rel = 0.0
    worst_gap = 0.0
    for eps in (0.2, 0.05):
        lay = layer_geometry(patch, eps, 17)
        hren = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
        lam = lowest_eigenpairs(hren, 3, tol=1e-12).values
        want = (np.arange(1, 4) * np.pi) ** 2
        worst_rel = max(worst_rel, float(np.max(np.abs(lam / want - 1.0))))
        worst_gap = max(worst_gap, float(np.max(np.abs(lam - mu))))
    elapsed = time.perf_counter() - t0
    assert worst_rel < 1e-3
    assert worst_gap < 1e-8  # identical discrete operators up to solver noise
    assert elapsed < 10.0
    _report(
        1,
        f"flat strip 200x17: max rel eigenvalue error {worst_rel:.2e}, "
        f"max gap to the effective operator {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_circle_effective_spectrum():
    t0 = time.perf_counter()
    patch = build_patch(GeometryFamily("circle", {"radius": 1.0}), (256,))
    vals = lowest_eigenpairs(assemble_effective(patch), 4, tol=1e-12).values
    want = np.array([-0.25, 0.75, 0.75, 3.75])
    err = float(np.max(np.abs(vals - want)))
    elapsed = time.perf_counter() - t0
    assert err < 5e-4
    assert elapsed < 5.0
    _report(2, f"circle effective spectrum at 256 nodes: max error {err:.2e}, {elapsed:.1f}s")


def test_criterion_3_eigenvalue_convergence(circle_sweep_report):
    report = circle_sweep_report
    gaps = [r.cluster_gap for r in report.rows if r.n == 1 and not r.skipped]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    fit = report.fits["cluster_gap"]
    assert 0.9 <= fit.slope <= 2.3
    assert report.meta["wall_time"] < 120.0
    _report(
        3,
        f"circle eigenvalue gaps {['%.3e' % g for g in gaps]} "
        f"fit slope {fit.slope:.3f} in [0.9, 2.3], {report.meta['wall_time']:.0f}s",
    )


def test_criterion_4_eigenfunction_convergence(circle_sweep_report):
    report = circle_sweep_report
    vals = [r.efunc for r in report.rows if r.n == 1 and not r.skipped]
    assert all(a > b for a, b in zip(vals, vals[1:])), vals
    fit = report.fits["efunc"]
    assert fit.slope >= 0.9
    _report(
        4,
        f"eigenfunction discrepancies, unitary-minimized per cluster, decreasing, "
        f"slope {fit.slope:.3f} >= 0.9",
    )


def test_criterion_5_resolvent_difference_decay(circle_sweep_report):
    report = circle_sweep_report
    vals = [r.resolvent for r in report.rows if r.n == 1 and not r.skipped]
    assert all(a > b for a, b in zip(vals, vals[1:])), vals
    fit = report.fits["resolvent"]
    assert fit.slope >= 0.9
    _report(
        5,
        f"resolvent-difference norms {['%.3e' % v for v in vals]} at k={report.k:.3f}, "
        f"slope {fit.slope:.3f} >= 0.9",
    )


@pytest.mark.parametrize(
    "family,params,grid,m_u",
    [
        ("circle", {"radius": 1.0}, (128,), 17),
        ("torus", {"major": 2.0, "minor": 0.5}, (24, 24), 9),
    ],
)
def test_criterion_6_sandwich_inequality(family, params, grid, m_u):
    patch = build_patch(GeometryFamily(family, params), grid)
    lay = layer_geometry(patch, 0.1, m_u)
    pot = layer_potential(zero_field(patch.ambient_dim), lay)
    H = assemble_full(lay, pot)
    lo = assemble_comparison(lay, pot, -1)
    hi = assemble_comparison(lay, pot, +1)
    vl = lowest_eigenpairs(lo, 10, tol=1e-12).values
    vm = lowest_eigenpairs(H, 10, tol=1e-12).values
    vh = lowest_eigenpairs(hi, 10, tol=1e-12).values
    low_viol = float(np.max(vl - vm))
    high_viol = float(np.max(vm - vh))
    assert low_viol <= 1e-10
    assert high_viol <= 1e-10
    _report(
        6,
        f"{family}: lambda_n(lower) <= lambda_n(H) <= lambda_n(upper) for n <= 10, "
        f"worst violations {max(low_viol, 0):.1e} / {max(high_viol, 0):.1e}",
    )


def test_criterion_7_gauge_covariance():
    base = [[(1.0, (0, 0, 1)), (-0.5, (0, 1, 0))], [(0.5, (1, 0, 0))], []]
    # phi = y1^2 - y2 y3 (quadratic): grad phi = (2 y1, -y3, -y2)
    grad_phi = [[(2.0, (1, 0, 0))], [(-1.0, (0, 0, 1))], [(-1.0, (0, 1, 0))]]
    shifted = [b + s for b, s in zip(base, grad_phi)]

    def spectrum_diff(n_side):
        p = build_patch(
            GeometryFamily("plane-rectangle", {"lx": 1.0, "ly": 1.0}), (n_side, n_side)
        )
        lay = layer_geometry(p, 0.1, 9)
        out = []
        for comps in (base, shifted):
            f = polynomial_field(3, comps)
            H = assemble_full(lay, gauge_fix(pullback(f, lay)))
            out.append(lowest_eigenpairs(H, 6, tol=1e-12).values)
        return float(np.max(np.abs(out[0] - out[1]))), p.axes[0].h

    diff_c, h_c = spectrum_diff(16)
    diff_f, h_f = spectrum_diff(32)
    c_measured = diff_f / h_f**2
    tol = max(1e-9, c_measured * h_c**2)
    assert diff_c <= tol
    _report(
        7,
        f"quadratic gauge shift: spectra agree to {diff_c:.2e} "
        f"(tolerance max(1e-9, C h^2) = {tol:.2e})",
    )


def test_criterion_8_effective_field_identity():
    patch = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (48, 96))
    f = constant_field(3, [0.0, 0.0, 1.0])
    eff = effective_field(f, patch)
    th = patch.axes[0].nodes
    err_direct = float(np.max(np.abs(eff.b_eff - np.cos(th)[:, None])))
    assert err_direct < 1e-6

    def route_gap(n):
        p = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (n, 2 * n))
        e = effective_field(f, p)
        return float(np.max(np.abs(effective_field_from_chart(e.alpha, p) - e.b_eff)))

    g1, g2 = route_gap(24), route_gap(48)
    assert g2 < g1 / 3.0  # second-order agreement of the two routes
    _report(
        8,
        f"b_eff = cos(theta) to {err_direct:.1e} on the analytic route; "
        f"chart route gap {g1:.2e} -> {g2:.2e} under doubling",
    )


def test_criterion_9_transverse_potential_convergence(torus_patch):
    eps_list = (0.1, 0.05, 0.025)
    sups = []
    for eps in eps_list:
        lay = layer_geometry(torus_patch, eps, 9)
        sups.append(comparison_constants(lay, layer_potential(zero_field(3), lay)).sup_v2_gap)
    fit = fit_rate(np.array(eps_list), np.array(sups))
    assert fit.slope >= 0.9
    spot = transverse_curvature_potential(np.array([1.0]), 0.1, 1.0)
    assert abs(spot - (-0.25 / 0.81)) < 1e-12
    _report(
        9,
        f"sup|V2 - V_eff| = {['%.3e' % s for s in sups]} slope {fit.slope:.3f}; "
        f"circle spot value matches -0.25/0.81 to {abs(spot + 0.25 / 0.81):.1e}",
    )


def test_criterion_10_transverse_gap_bound():
    flat = build_patch(GeometryFamily("segment", {"length": 1.0}), (200,))
    circ = build_patch(GeometryFamily("circle", {"radius": 1.0}), (256,))
    flat_dev = 0.0
    margins = {}
    for eps in (0.1, 0.05):
        lay = layer_geometry(flat, eps, 17)
        H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
        rep = gap_bound_report(lay, H, tol=1e-13)
        bound = 3.0 * np.pi**2 / (4.0 * eps**2)
        flat_dev = max(flat_dev, abs(rep.margin - bound))
        margins[("flat", eps)] = rep.margin
        assert rep.margin >= 0.0
        lay_c = layer_geometry(circ, eps, 17)
        Hc = renormalize(assemble_full(lay_c, layer_potential(zero_field(2), lay_c)))
        rep_c = gap_bound_report(lay_c, Hc, tol=1e-13)
        margins[("circle", eps)] = rep_c.margin
        assert rep_c.margin >= 0.0
    assert flat_dev <= 1e-9
    _report(
        10,
        f"transverse gap margins nonnegative {dict((f'{k[0]}@{k[1]}', round(v, 3)) for k, v in margins.items())}; "
        f"flat deviation from 3 pi^2 / 4 eps^2 is {flat_dev:.1e}",
    )


def test_criterion_11_sphere_umbilic_spectrum():
    patch = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (220, 440))
    vals = lowest_eigenpairs(assemble_effective(patch), 9, tol=1e-11).values
    want = np.array([0.0] + [2.0] * 3 + [6.0] * 5)
    err = float(np.max(np.abs(vals - want)))
    assert err < 1e-3
    _report(
        11,
        f"unit sphere effective spectrum {{0, 2x3, 6x5}}: max error {err:.2e} "
        "(vanishing curvature potential on the umbilic surface)",
    )


def test_criterion_12_flux_on_closed_curve():
    patch = build_patch(GeometryFamily("circle", {"radius": 1.0}), (256,))
    eff = effective_field(constant_field(2, 1.0), patch)
    assert eff.flux == pytest.approx(np.pi, abs=1e-12)
    lam1 = lowest_eigenpairs(assemble_effective(patch, eff), 1, tol=1e-12).values[0]
    assert abs(lam1 - 0.0) < 5e-4
    _report(
        12,
        f"unit circle with flux pi: lowest effective eigenvalue {lam1:.2e} "
        "(oracle (n - 1/2)^2 - 1/4 = 0)",
    )
