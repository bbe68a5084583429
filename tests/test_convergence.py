import json

import numpy as np
import pytest

from thinlayer import (
    ConvergenceReport,
    FitError,
    FitResult,
    GeometryFamily,
    SolverError,
    SweepRow,
    SweepSpec,
    ThinLayerError,
    TransverseMode,
    assemble_full,
    build_patch,
    constant_field,
    fit_rate,
    gap_bound_report,
    layer_geometry,
    layer_potential,
    renormalize,
    run_sweep,
    sweep_acceptance,
    zero_field,
)
from thinlayer.cli import main


# ---------------------------------------------------------------------------
# transverse mode
# ---------------------------------------------------------------------------


def test_ground_mode_unit_norm_and_projector():
    mode = TransverseMode.from_count(17)
    assert abs(np.linalg.norm(mode.chi_scaled) - 1.0) < 1e-12
    rng = np.random.default_rng(0)
    v = rng.standard_normal(12 * 17)
    p1 = mode.apply_p1(v)
    assert np.max(np.abs(mode.apply_p1(p1) - p1)) < 1e-12
    q = mode.apply_q(v)
    assert np.max(np.abs(mode.project_ground(q))) < 1e-12
    assert np.linalg.norm(p1) ** 2 + np.linalg.norm(q) ** 2 == pytest.approx(
        np.linalg.norm(v) ** 2, rel=1e-12
    )


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_fit_rate_exact_powers():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    fit = fit_rate(eps, eps)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    fit2 = fit_rate(eps, eps**2)
    assert fit2.slope == pytest.approx(2.0, abs=1e-12)
    assert fit2.band95[0] <= 2.0 <= fit2.band95[1]


def test_fit_rate_excludes_nonpositive_and_refuses():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    vals = np.array([0.2, 0.1, 0.05, 0.0])
    fit = fit_rate(eps, vals)
    assert fit.excluded == (3,)
    assert fit.n_used == 3
    with pytest.raises(FitError):
        fit_rate(eps, np.array([0.1, 0.0, 0.0, -1.0]))


# ---------------------------------------------------------------------------
# transverse gap bound
# ---------------------------------------------------------------------------


def test_gap_bound_flat_matches_formula_exactly(segment_patch):
    eps = 0.1
    lay = layer_geometry(segment_patch, eps, 17)
    H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    rep = gap_bound_report(lay, H, dense_cutoff=4000)
    bound = 3.0 * np.pi**2 / (4.0 * eps**2)
    assert abs(rep.margin - bound) < 1e-9
    assert rep.rq_min_sampled >= bound


def test_gap_bound_scales_with_width(segment_patch):
    bounds = []
    for eps in (0.2, 0.1):
        lay = layer_geometry(segment_patch, eps, 9)
        H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
        bounds.append(gap_bound_report(lay, H, dense_cutoff=4000).bound)
    assert bounds[1] / bounds[0] == pytest.approx(4.0, rel=1e-12)


def test_gap_bound_circle_positive(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    assert gap_bound_report(lay, H, dense_cutoff=4000).margin > 0.0


def test_gap_bound_rejects_unrenormalized(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    H = assemble_full(lay, layer_potential(zero_field(2), lay))
    with pytest.raises(ThinLayerError, match="renormalized"):
        gap_bound_report(lay, H)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_flat_sweep_is_exact(segment_patch):
    spec = SweepSpec(
        family=GeometryFamily("segment", {"length": 1.0}),
        grid=(64,),
        field=zero_field(2),
        epsilons=(0.2, 0.1, 0.05),
        m_u=9,
        n_pairs=1,
        grid_doubling=True,
    )
    report = run_sweep(spec)
    assert report.fits["cluster_gap"] == "exact"
    assert report.fits["efunc"] == "exact"
    assert report.fits["leakage"] == "exact"
    res = report.fits["resolvent"]
    assert res.slope == pytest.approx(2.0, abs=0.05)
    ok, problems = sweep_acceptance(report)
    assert ok, problems
    for r in report.rows:
        assert r.gap < 1e-10


def test_circle_sweep_rates_and_monotonicity():
    spec = SweepSpec(
        family=GeometryFamily("circle", {"radius": 1.0}),
        grid=(96,),
        field=zero_field(2),
        epsilons=(0.2, 0.1, 0.05),
        m_u=9,
        n_pairs=1,
    )
    report = run_sweep(spec)
    gaps = [r.cluster_gap for r in report.rows if r.n == 1]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    fit = report.fits["cluster_gap"]
    assert 0.9 <= fit.slope <= 2.3
    assert report.fits["leakage"].slope >= 0.9
    assert report.fits["resolvent"].slope >= 0.9
    res = [r.resolvent for r in report.rows if r.n == 1]
    assert res[0] > res[1] > res[2]
    ok, problems = sweep_acceptance(report)
    assert ok, problems
    # renormalization bookkeeping is recorded for the widest row
    assert report.meta["transverse_shift_at_largest_eps"] == pytest.approx(
        (np.pi / 2) ** 2 / 0.2**2
    )


def test_sweep_with_flux_keeps_complex_operator():
    spec = SweepSpec(
        family=GeometryFamily("circle", {"radius": 1.0}),
        grid=(96,),
        field=constant_field(2, 1.0),
        epsilons=(0.2, 0.1, 0.05),
        m_u=9,
        n_pairs=1,
        grid_doubling=False,
    )
    report = run_sweep(spec)
    gaps = [r.cluster_gap for r in report.rows if r.n == 1]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    # flux pi/(2 pi)^2... the effective ground state sits at 0 for this flux
    assert report.rows[0].mu == pytest.approx(0.0, abs=5e-3)


def test_in_plane_field_sweep_with_a_real_effective_operator():
    # B = e_x is tangent to the plane: n.B = 0 gauges the effective field
    # out, so h_eff is real while the layer, and the vectors of the power
    # iteration that h_eff's resolvent takes, are complex
    spec = SweepSpec(
        family=GeometryFamily("plane-rectangle", {"lx": 1.0, "ly": 1.0}),
        grid=(16, 16),
        field=constant_field(3, [1.0, 0.0, 0.0]),
        epsilons=(0.1, 0.05, 0.025, 0.0125),
        m_u=5,
        grid_doubling=False,
    )
    ok, problems = sweep_acceptance(run_sweep(spec))
    assert ok, problems


def test_sweep_rejects_nonmonotone_epsilons(segment_patch):
    spec = SweepSpec(
        family=GeometryFamily("segment", {"length": 1.0}),
        grid=(16,),
        field=zero_field(2),
        epsilons=(0.1, 0.2),
        m_u=9,
    )
    with pytest.raises(ThinLayerError, match="decreasing"):
        run_sweep(spec)


def test_sweep_requires_embedding_at_largest_width():
    from thinlayer import EmbeddingError

    spec = SweepSpec(
        family=GeometryFamily("circle", {"radius": 0.5}),
        grid=(96,),
        field=zero_field(2),
        epsilons=(0.9, 0.2),
        m_u=9,
        grid_doubling=False,
    )
    with pytest.raises(EmbeddingError, match="largest"):
        run_sweep(spec)


def test_sweep_skips_rows_where_embedding_fails(tmp_path, monkeypatch):
    # failure modes are monotone in the width for the model families, so a
    # mid-sweep embedding failure is staged through the check itself
    import thinlayer.convergence as conv

    real_check = conv.check_embedding

    def staged(patch, eps):
        rep = real_check(patch, eps)
        if abs(eps - 0.1) < 1e-12:
            return type(rep)(
                passed=False,
                eps=eps,
                rho_m=rep.rho_m,
                rho_ok=True,
                injectivity_ok=False,
                clearance=0.0,
                margin=rep.margin,
                offending_pair=((0,), (48,)),
                reason="staged overlap",
            )
        return rep

    monkeypatch.setattr(conv, "check_embedding", staged)
    cfg = {
        "schema": 1,
        "geometry": {"family": "circle", "params": {"radius": 1.0}, "grid": [96]},
        "field": {"kind": "zero"},
        "sweep": {"epsilons": [0.2, 0.1, 0.05], "m_u": 9, "grid_doubling": False},
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    main(["converge", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path),
          "--threads", "1"])
    rows = [line.split(",") for line in (tmp_path / "converge.csv").read_text().splitlines()[1:]]
    assert sorted(float(r[0]) for r in rows) == [0.05, 0.1, 0.2]
    skipped = [r for r in rows if r[-1].startswith("skipped:")]
    assert len(skipped) == 1 and float(skipped[0][0]) == 0.1
    assert skipped[0][-1] == "skipped:staged overlap"


def test_sweep_acceptance_slope_windows_and_tags():
    def fit(slope):
        return FitResult(slope, 0.0, 0.0, (slope, slope), 0.0, 4, ())

    def verdict(**fits):
        good = {"cluster_gap": fit(2.0), "efunc": fit(3.0), "resolvent": fit(0.95)}
        return sweep_acceptance(ConvergenceReport([], {**good, **fits}, 1.0, {}))

    assert verdict() == (True, [])
    assert verdict(cluster_gap=fit(2.5)) == (
        False, ["cluster_gap: slope 2.500 outside [0.9, 2.3]"]
    )
    assert verdict(cluster_gap=fit(0.85)) == (
        False, ["cluster_gap: slope 0.850 outside [0.9, 2.3]"]
    )
    assert verdict(resolvent=fit(0.5)) == (False, ["resolvent: slope 0.500 below 0.9"])
    # the window bounds only the cluster gap; the other slopes only have a floor
    assert verdict(efunc=fit(3.5), resolvent=fit(2.6)) == (True, [])
    assert verdict(cluster_gap="exact", resolvent="exact") == (True, [])
    assert verdict(efunc="insufficient") == (
        False, ["efunc: not enough usable points for a rate fit"]
    )
    flagged = SweepRow(eps=0.1, n=1, flags=["discretization"])
    report = ConvergenceReport([flagged], {"cluster_gap": fit(2.0)}, 1.0, {})
    assert sweep_acceptance(report) == (False, ["1 flagged or skipped rows"])


def test_failed_discretization_estimate_is_recorded(monkeypatch):
    import thinlayer.convergence as conv

    real_row = conv._solve_row

    def staged(spec, patch, eff_spec, eps):
        if patch.grid_shape == (96,) and abs(eps - 0.1) < 1e-12:
            raise SolverError("staged doubled-grid failure")
        return real_row(spec, patch, eff_spec, eps)

    base = dict(
        family=GeometryFamily("circle", {"radius": 1.0}),
        grid=(48,),
        field=zero_field(2),
        epsilons=(0.2, 0.1),
        m_u=9,
        grid_doubling=True,
    )
    assert "disc_estimate_failures" not in run_sweep(SweepSpec(**base)).summary()["meta"]
    monkeypatch.setattr(conv, "_solve_row", staged)
    report = run_sweep(SweepSpec(**base, threads=2))
    rows = {r.eps: r for r in report.rows}
    assert np.isfinite(rows[0.2].disc_est) and np.isnan(rows[0.1].disc_est)
    assert report.summary()["meta"]["disc_estimate_failures"] == [
        {"eps": 0.1, "reason": "SolverError: staged doubled-grid failure"}
    ]

    def broken(spec, patch, *args):
        if patch.grid_shape == (96,):
            raise ValueError("programming error")
        return real_row(spec, patch, *args)

    monkeypatch.setattr(conv, "_solve_row", broken)
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(**base))


def test_failed_doubled_grid_effective_solve_is_recorded_for_every_row(monkeypatch):
    import thinlayer.convergence as conv

    real_pairs = conv._effective_pairs

    def staged(spec, patch):
        if patch.grid_shape == (96,):
            raise SolverError("staged doubled-grid h-eff failure")
        return real_pairs(spec, patch)

    monkeypatch.setattr(conv, "_effective_pairs", staged)
    report = run_sweep(
        SweepSpec(
            family=GeometryFamily("circle", {"radius": 1.0}),
            grid=(48,),
            field=zero_field(2),
            epsilons=(0.2, 0.1),
            m_u=9,
            grid_doubling=True,
        )
    )
    assert all(np.isnan(r.disc_est) for r in report.rows)
    reason = "SolverError: staged doubled-grid h-eff failure"
    assert report.summary()["meta"]["disc_estimate_failures"] == [
        {"eps": 0.2, "reason": reason},
        {"eps": 0.1, "reason": reason},
    ]


def test_doubled_grid_effective_solve_runs_once(monkeypatch):
    import thinlayer.convergence as conv

    real_solve = conv.lowest_eigenpairs
    doubled = []

    def counting(op, *args, **kwargs):
        if op.kind == "h-eff" and op.n_dof == 96:
            doubled.append(op.n_dof)
        return real_solve(op, *args, **kwargs)

    monkeypatch.setattr(conv, "lowest_eigenpairs", counting)
    report = run_sweep(
        SweepSpec(
            family=GeometryFamily("circle", {"radius": 1.0}),
            grid=(48,),
            field=zero_field(2),
            epsilons=(0.2, 0.1, 0.05, 0.025),
            m_u=9,
            grid_doubling=True,
        )
    )
    assert all(np.isfinite(r.disc_est) for r in report.rows)
    assert len(doubled) == 1


def test_effective_resolvent_factored_once_with_threads(monkeypatch):
    import time

    import thinlayer.convergence as conv

    # each resolvent call factors H + k once; the h-eff eigensolve factors
    # H - sigma as well, which is not counted here
    real_resolvent = conv.resolvent
    heff_factors = []

    def slow_resolvent(op, k, lambda_min):
        if op.n_dof == 48:  # the 48-node h-eff; layer operators are larger
            heff_factors.append(k)
            time.sleep(0.2)  # widen the window in which rows could race
        return real_resolvent(op, k, lambda_min)

    monkeypatch.setattr(conv, "resolvent", slow_resolvent)
    run_sweep(
        SweepSpec(
            family=GeometryFamily("circle", {"radius": 1.0}),
            grid=(48,),
            field=zero_field(2),
            epsilons=(0.2, 0.1, 0.05, 0.025),
            m_u=9,
            grid_doubling=False,
            threads=2,
        )
    )
    assert len(heff_factors) == 1


@pytest.mark.parametrize("grid_doubling", [False, True])
def test_sweep_threads_match_sequential(grid_doubling):
    base = dict(
        family=GeometryFamily("circle", {"radius": 1.0}),
        grid=(64,),
        field=zero_field(2),
        epsilons=(0.2, 0.1),
        m_u=9,
        n_pairs=1,
        grid_doubling=grid_doubling,
    )
    seq = run_sweep(SweepSpec(**base, threads=1))
    par = run_sweep(SweepSpec(**base, threads=2))
    for a, b in zip(seq.rows, par.rows):
        assert a.lam == b.lam and a.gap == b.gap and a.resolvent == b.resolvent
        np.testing.assert_equal(a.disc_est, b.disc_est)
    assert all(np.isfinite(r.disc_est) == grid_doubling for r in par.rows)


def test_eigen_shift_exactness_on_sweep_operator(circle_patch):
    from thinlayer import TRANSVERSE_GROUND_ENERGY, lowest_eigenpairs

    lay = layer_geometry(circle_patch, 0.5, 9)
    H = assemble_full(lay, layer_potential(zero_field(2), lay))
    Hren = renormalize(H)
    v = lowest_eigenpairs(H, 3, dense_cutoff=10_000).values
    vr = lowest_eigenpairs(Hren, 3, dense_cutoff=10_000).values
    assert np.max(np.abs(v - vr - TRANSVERSE_GROUND_ENERGY / 0.25)) < 1e-12


def test_sandwich_reasserted_across_sweep_widths(circle_patch):
    from thinlayer import assemble_comparison, lowest_eigenpairs

    for eps in (0.2, 0.1, 0.05):
        lay = layer_geometry(circle_patch, eps, 9)
        pot = layer_potential(zero_field(2), lay)
        vm = lowest_eigenpairs(assemble_full(lay, pot), 3).values
        vl = lowest_eigenpairs(assemble_comparison(lay, pot, -1), 3).values
        vh = lowest_eigenpairs(assemble_comparison(lay, pot, +1), 3).values
        assert np.max(vl - vm) <= 1e-10 and np.max(vm - vh) <= 1e-10


@pytest.mark.parametrize("scale", [5e-2, 1e-7])
def test_cluster_discrepancy_is_rotation_invariant_and_the_largest_angle(scale):
    # inside a degenerate cluster each solver returns an arbitrary orthonormal
    # basis; the discrepancy of a 2-vector cluster must not see it, and at a
    # small angle it must keep its digits
    from scipy.linalg import subspace_angles

    from thinlayer.convergence import _cluster_discrepancy

    rng = np.random.default_rng(4)

    def orthonormal(a):
        return np.linalg.qr(a)[0]

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    E = orthonormal(gaussian(40, 2))
    Y = orthonormal(E + scale * gaussian(40, 2))
    reported = _cluster_discrepancy(E, Y)
    rotated = _cluster_discrepancy(E, Y @ orthonormal(gaussian(2, 2)))
    assert abs(rotated - reported) <= 1e-14
    theta_max = float(np.max(subspace_angles(E, Y)))
    assert reported == pytest.approx(2.0 * np.sin(theta_max / 2.0), rel=1e-10)


@pytest.mark.parametrize("b, doublet", [(0.0, (2, 3)), (1.0, (1, 2))])
def test_circle_doublet_efunc_converges_and_ignores_the_seed(b, doublet):
    # B = 0: the doublet above the ground state; B = 1 (half a flux quantum
    # through the unit circle): the ground doublet
    eps = (0.1, 0.05, 0.025, 0.0125)
    efunc = {}
    for seed in (1, 2):
        report = run_sweep(SweepSpec(
            family=GeometryFamily("circle", {"radius": 1.0}),
            grid=(256,),
            field=zero_field(2) if b == 0.0 else constant_field(2, b),
            epsilons=eps,
            m_u=17,
            n_pairs=3,
            tol=1e-12,
            seed=seed,
            grid_doubling=False,
        ))
        assert sweep_acceptance(report) == (True, [])
        rows = {n: [r.efunc for r in report.rows if r.n == n] for n in doublet}
        assert rows[doublet[0]] == rows[doublet[1]]  # one value per cluster
        efunc[seed] = np.array(rows[doublet[0]])
    assert fit_rate(eps, efunc[1]).slope >= 2.0
    np.testing.assert_allclose(efunc[1], efunc[2], rtol=0, atol=1e-10)


def test_missed_cluster_partner_flags_the_row(monkeypatch):
    # a Lanczos run that misses one partner of a doublet returns the next
    # level in its place; position matching must not trust that row
    import thinlayer.convergence as conv
    from thinlayer import Spectrum

    real_solve = conv.lowest_eigenpairs

    def missing_partner(op, n_pairs, **kwargs):
        if op.eps != 0.1:
            return real_solve(op, n_pairs, **kwargs)
        spec = real_solve(op, n_pairs + 1, **kwargs)
        keep = [0] + list(range(2, n_pairs + 1))
        return Spectrum(spec.values[keep], spec.vectors[:, keep], spec.residuals[keep])

    monkeypatch.setattr(conv, "lowest_eigenpairs", missing_partner)
    eps = (0.2, 0.1, 0.05, 0.025)
    report = run_sweep(SweepSpec(
        family=GeometryFamily("circle", {"radius": 1.0}),
        grid=(96,),
        field=constant_field(2, 1.0),  # half a flux quantum: a ground doublet
        epsilons=eps,
        m_u=9,
        n_pairs=1,
        grid_doubling=False,
    ))
    assert [(r.eps, r.flags) for r in report.rows] == [
        (0.2, []), (0.1, ["cluster-match"]), (0.05, []), (0.025, [])
    ]
    for name in ("cluster_gap", "efunc", "leakage", "resolvent"):
        assert list(report.observable_values(name)[0]) == [0.2, 0.05, 0.025]
        assert report.fits[name].n_used == 3
    ok, problems = sweep_acceptance(report)
    assert not ok and "1 flagged or skipped rows" in problems
    # a cluster that reaches the last solved value may be cut
    mu = np.array([0.0, 1.0, 1.0])
    assert conv._cluster_mismatch(mu, mu, [1, 2])
    assert not conv._cluster_mismatch(mu, mu, [0])


def test_torus_sweep_end_to_end():
    # exercises the 2d-surface pipeline: curvature-line metric, correction
    # potentials with chart derivatives, and the resolvent comparison
    spec = SweepSpec(
        family=GeometryFamily("torus", {"major": 2.0, "minor": 0.5}),
        grid=(24, 24),
        field=zero_field(3),
        epsilons=(0.2, 0.1, 0.05),
        m_u=9,
        n_pairs=1,
        grid_doubling=False,
    )
    report = run_sweep(spec)
    gaps = [r.cluster_gap for r in report.rows if r.n == 1]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert 0.9 <= report.fits["cluster_gap"].slope <= 2.3
    assert report.fits["resolvent"].slope >= 0.9
    ok, problems = sweep_acceptance(report)
    assert ok, problems
