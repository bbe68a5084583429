import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from thinlayer import (
    AssembledOperator,
    GeometryFamily,
    SolverError,
    assemble_comparison,
    assemble_effective,
    assemble_full,
    build_patch,
    constant_field,
    effective_field,
    gauge_fix,
    gershgorin_bounds,
    layer_geometry,
    layer_potential,
    lowest_eigenpairs,
    opnorm_estimate,
    pullback,
    renormalize,
    resolvent,
    zero_field,
)
from thinlayer.convergence import TransverseMode
from thinlayer.eigensolve import LOBPCG_MAXITER, RESOLVENT_RTOL
from thinlayer.operators import SurfaceBlock


def test_interval_laplacian_classical_value():
    p = build_patch(GeometryFamily("segment", {"length": 1.0}), (199,))
    lam1 = lowest_eigenpairs(assemble_effective(p), 1).values[0]
    assert abs(lam1 - np.pi**2) / np.pi**2 < 1e-3


def test_identity_matrix_pairs():
    op = AssembledOperator.from_matrix(sp.eye_array(40, format="csr"))
    spec = lowest_eigenpairs(op, 3)
    assert spec.meta["method"] == "dense"  # ARPACK's Krylov basis would span it
    assert np.allclose(spec.values, 1.0, atol=1e-12)
    gram = spec.vectors.T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_circle_effective_ground_state(circle_patch):
    p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (256,))
    lam1 = lowest_eigenpairs(assemble_effective(p), 1).values[0]
    assert abs(lam1 + 0.25) < 5e-4


def test_curve_layer_below_4000_dofs_takes_shift_invert():
    # 3,944 dofs: a dense eigh takes seconds, the banded LU a fraction of one
    p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (232,))
    lay = layer_geometry(p, 0.1, 17)
    H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    assert H.n_dof == 3944
    spec = lowest_eigenpairs(H, 7, tol=1e-12)
    assert spec.meta["method"] == "shift-invert-lanczos"
    assert np.max(spec.residuals) < 1e-9


def test_dense_and_iterative_paths_agree(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    assert H.n_dof < 4000
    meta = dict(H.meta)
    dense = lowest_eigenpairs(H, 5, dense_cutoff=10_000)
    assert H.meta == meta  # the solver writes nothing onto its operator
    sparse = lowest_eigenpairs(H, 5, dense_cutoff=100)
    assert sparse.meta["method"] == "shift-invert-lanczos"
    assert H.meta == meta
    assert np.max(np.abs(dense.values - sparse.values)) < 1e-8


def test_seed_independence(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    vals = [
        lowest_eigenpairs(H, 3, dense_cutoff=100, seed=s, tol=1e-12).values
        for s in (1, 2, 3)
    ]
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-10
    assert np.max(np.abs(vals[0] - vals[2])) < 1e-10


def test_residuals_and_orthonormality(sphere_patch):
    heff = assemble_effective(sphere_patch)
    spec = lowest_eigenpairs(heff, 6, tol=1e-10)
    hi = gershgorin_bounds(heff.matrix)[1]
    assert np.max(spec.residuals) < 1e-8 * max(1.0, abs(hi))
    gram = spec.vectors.conj().T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10
    assert np.isrealobj(spec.values)


def test_complex_degenerate_clusters_come_back_orthonormal():
    # half a flux quantum through the unit circle: every level above the
    # ground pair is doubly degenerate, and ARPACK's non-Hermitian driver,
    # which complex input takes, left the Gram error of a cluster at 2.9e-2
    p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (256,))
    heff = assemble_effective(p, effective_field(constant_field(2, 1.0), p))
    assert heff.is_complex
    spec = lowest_eigenpairs(heff, 7)
    assert spec.meta["method"] == "shift-invert-lanczos"
    gram = spec.vectors.conj().T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12
    hi = gershgorin_bounds(heff.matrix)[1]
    assert np.max(spec.residuals) < spec.meta["tol"] * max(1.0, abs(hi))
    exact = np.linalg.eigvalsh(heff.matrix.toarray())[:7]
    assert np.max(np.abs(spec.values - exact)) < 1e-10


# ---------------------------------------------------------------------------
# 2-D layers: LOBPCG with the decoupled preconditioner; everything else: LU
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_torus():
    return build_patch(GeometryFamily("torus", {"major": 2.0, "minor": 0.5}), (16, 16))


def _torus_layer(patch, eps, m_u=9, b=1.0):
    lay = layer_geometry(patch, eps, m_u)
    pot = gauge_fix(pullback(constant_field(3, [0.0, 0.0, b]), lay))
    return renormalize(assemble_full(lay, pot))


def _on_lu(op, n_pairs):
    # the same matrix without its decoupled factor takes the sparse LU
    spec = lowest_eigenpairs(dataclasses.replace(op, surface_block=None), n_pairs)
    assert spec.meta["method"] == "shift-invert-lanczos"
    return spec


def test_lobpcg_and_lu_paths_agree_on_complex_torus_layer(small_torus):
    op = _torus_layer(small_torus, 0.05)
    assert op.is_complex
    lob = lowest_eigenpairs(op, 4)
    assert lob.meta["method"] == "lobpcg" and lob.meta["block_size"] == 4
    assert 0 < lob.meta["iterations"] < LOBPCG_MAXITER
    assert np.max(np.abs(lob.values - _on_lu(op, 4).values)) < 1e-9
    assert np.max(lob.residuals) <= lob.meta["residual_target"]
    assert lob.meta["residual_target"] >= lob.meta["tol"]


def test_torus_layer_preconditioner_factors_one_surface_lu(small_torus):
    # at eps 0.05 every excited transverse mode block is diagonally dominant
    # (Gershgorin ratio below DIAGONAL_MAX_RATIO): only the ground mode's
    # surface block is factored
    op = _torus_layer(small_torus, 0.05, m_u=17)
    lob = lowest_eigenpairs(op, 4)
    assert lob.meta["method"] == "lobpcg" and lob.meta["surface_lus"] == 1
    assert np.max(np.abs(lob.values - _on_lu(op, 4).values)) < 1e-9
    assert np.max(lob.residuals) <= lob.meta["residual_target"]


def test_lobpcg_resolves_an_exactly_degenerate_pair_cut_by_the_block(small_torus):
    # zero field: the rotation symmetry makes pairs exactly degenerate, and a
    # block of 4 holds only one of the pair at -0.0078
    op = _torus_layer(small_torus, 0.05, b=0.0)
    lob = lowest_eigenpairs(op, 4)
    lu = _on_lu(op, 5)
    assert abs(lu.values[4] - lu.values[3]) < 1e-9
    assert np.max(np.abs(lob.values - lu.values[:4])) < 1e-9
    assert np.max(lob.residuals) <= lob.meta["residual_target"]


def test_lobpcg_is_deterministic_across_calls_and_threads(small_torus):
    from concurrent.futures import ThreadPoolExecutor

    op = _torus_layer(small_torus, 0.05, m_u=5)
    first = lowest_eigenpairs(op, 3, seed=7)
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(lambda _: lowest_eigenpairs(op, 3, seed=7), range(2)))
    for spec in threaded + [lowest_eigenpairs(op, 3, seed=7)]:
        assert np.array_equal(spec.values, first.values)
        assert np.array_equal(spec.residuals, first.residuals)


def test_lobpcg_iterations_do_not_grow_as_eps_halves(small_torus):
    # the comparison operators bound the layer operator with eps-uniform
    # constants, so the preconditioned iteration counts do not grow as eps
    # shrinks. The random start block alone moves a count between about 30
    # and 60, so compare medians over five seeds; each halving may add 5
    medians = []
    for eps in (0.05, 0.025, 0.0125):
        op = _torus_layer(small_torus, eps)
        metas = [lowest_eigenpairs(op, 4, seed=seed).meta for seed in range(1, 6)]
        assert all(meta["method"] == "lobpcg" for meta in metas)
        medians.append(np.median([meta["iterations"] for meta in metas]))
    for wide, narrow in zip(medians, medians[1:]):
        assert narrow <= wide + 5, medians


def test_lobpcg_raises_when_it_misses_the_residual_target(small_torus, monkeypatch):
    import thinlayer.eigensolve as es

    monkeypatch.setattr(es, "LOBPCG_MAXITER", 2)
    pattern = r"LOBPCG missed the residual target .* within \d+ iterations"
    with (
        pytest.raises(SolverError, match=pattern) as info,
        pytest.warns(UserWarning, match="requested tolerance"),
    ):
        es._lobpcg_pairs(_torus_layer(small_torus, 0.05, m_u=5), 4, 1e-10, 42)
    assert info.value.residuals.shape == (4,)


def test_missed_lobpcg_target_raises_from_lowest_eigenpairs(small_torus, monkeypatch):
    import thinlayer.eigensolve as es

    op = _torus_layer(small_torus, 0.05, m_u=5)
    monkeypatch.setattr(es, "LOBPCG_MAXITER", 2)
    with pytest.raises(SolverError, match="LOBPCG missed the residual target") as info:
        lowest_eigenpairs(op, 4)
    assert info.value.residuals.shape == (4,)
    assert np.max(info.value.residuals) > 0


@pytest.mark.filterwarnings("ignore:Exited:UserWarning")  # raised at the spy
def test_restarted_lobpcg_sums_iterations_over_its_chunks(small_torus, monkeypatch):
    import thinlayer.eigensolve as es

    op = _torus_layer(small_torus, 0.05)
    chunks, lobpcg = [], es.spla.lobpcg

    def spy(*args, maxiter, **kwargs):
        chunks.append(maxiter + 1)  # steps run, the first included
        return lobpcg(*args, maxiter=maxiter, **kwargs)

    monkeypatch.setattr(es, "LOBPCG_RESTART", 5)
    monkeypatch.setattr(es.spla, "lobpcg", spy)
    spec = lowest_eigenpairs(op, 4)
    assert spec.meta["method"] == "lobpcg" and len(chunks) > 1 and set(chunks) == {5}
    # the count runs on across restarts, within the one budget
    assert 5 < spec.meta["iterations"] <= min(sum(chunks), es.LOBPCG_MAXITER)
    assert np.max(spec.residuals) <= spec.meta["residual_target"]
    assert np.max(np.abs(spec.values - _on_lu(op, 4).values)) < 1e-9


@pytest.mark.parametrize("factor", [1e-6, -1.0])  # weak / indefinite
def test_lobpcg_on_wrong_surface_block_matches_lu(small_torus, factor, monkeypatch):
    # a weak preconditioner costs iterations, never the answer; an indefinite
    # one costs the solve, which raises
    import thinlayer.eigensolve as es

    op = _torus_layer(small_torus, 0.025)
    block = op.surface_block
    wrong = dataclasses.replace(
        op, surface_block=SurfaceBlock(factor * block.matrix, block.floor)
    )
    if factor < 0:
        # the mode-0 block -S + d_0 I is indefinite, and its Gershgorin ratio
        # is negative: only the row-positivity guard keeps it off the diagonal
        superlu, factored_rows = es._superlu, []

        def spy(A):
            factored_rows.append(np.min(A.diagonal().real))
            return superlu(A)

        with monkeypatch.context() as patch:
            patch.setattr(es, "_superlu", spy)
            es._decoupled_inverse(wrong, es._certified_shift(op), op.matrix.dtype)
        assert min(factored_rows) < 0
        # the indefinite preconditioner stalls LOBPCG
        with pytest.raises(SolverError, match="LOBPCG missed the residual target"):
            lowest_eigenpairs(wrong, 4)
    else:
        spec = lowest_eigenpairs(wrong, 4)
        assert spec.meta["method"] == "lobpcg"
        assert np.max(np.abs(spec.values - _on_lu(op, 4).values)) < 1e-9


@pytest.fixture(scope="module")
def zero_field_shell(sphere_patch):
    lay = layer_geometry(sphere_patch, 0.1, 9)
    op = renormalize(assemble_full(lay, layer_potential(zero_field(3), lay)))
    return op, _on_lu(op, 12).values


@pytest.mark.parametrize("n_pairs", [6, 12])
def test_blocks_that_cut_sphere_clusters_match_lu(zero_field_shell, n_pairs):
    # with no field the shell's levels l = 0, 1, 2, 3 are near-degenerate
    # clusters of 1, 3, 5, 7: 6 pairs cut the l = 2 cluster, 12 the l = 3 one
    op, lu_values = zero_field_shell
    spec = lowest_eigenpairs(op, n_pairs)
    assert spec.meta["method"] == "lobpcg"
    assert np.max(np.abs(spec.values - lu_values[:n_pairs])) < 1e-9
    hi = gershgorin_bounds(op.matrix)[1]
    assert np.max(spec.residuals) <= max(1e-10, 16 * 2.0**-53 * hi)


def test_pole_clustered_shell_keeps_every_mode_lu(zero_field_shell):
    # the pole rows of S carry off-diagonal sums far above the transverse
    # gaps, so no mode block of the shell is diagonally dominant
    from thinlayer.eigensolve import _certified_shift, _decoupled_inverse

    op, _ = zero_field_shell
    _, surface_lus = _decoupled_inverse(op, _certified_shift(op), op.matrix.dtype)
    assert surface_lus == op.dofmap.m_u


def test_layer_near_rho_m_takes_lobpcg(small_torus):
    # at eps/rho_m = 0.9 the sandwich constants leave a weak but spectrally
    # equivalent preconditioner: more iterations, the same path
    op = _torus_layer(small_torus, 0.45, m_u=5)
    assert 0.45 / small_torus.rho_m == pytest.approx(0.9)
    spec = lowest_eigenpairs(op, 4)
    assert spec.meta["method"] == "lobpcg"
    assert spec.meta["iterations"] <= LOBPCG_MAXITER
    assert np.max(np.abs(spec.values - _on_lu(op, 4).values)) < 1e-9


def test_circle_layer_stays_on_lu(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    assert H.surface_block is not None
    spec = lowest_eigenpairs(H, 3, dense_cutoff=100)
    assert spec.meta["method"] == "shift-invert-lanczos"
    assert "iterations" not in spec.meta


def test_decoupled_preconditioner_is_positive_definite_at_any_shift(small_torus):
    from thinlayer.eigensolve import _decoupled_inverse

    rng = np.random.default_rng(0)
    # at m_u = 17 the stiff modes take their diagonal, the soft ones an LU
    for m_u in (5, 17):
        op = _torus_layer(small_torus, 0.05, m_u=m_u)
        for sigma in (-1e3, 0.0, 1e6):  # below, inside and far above the spectrum
            apply, _ = _decoupled_inverse(op, sigma, op.matrix.dtype)
            r = rng.standard_normal((op.n_dof, 3)) + 1j * rng.standard_normal((op.n_dof, 3))
            assert np.all(np.einsum("ij,ij->j", r.conj(), apply(r)).real > 0)


def test_too_many_pairs_rejected():
    op = AssembledOperator.from_matrix(sp.eye_array(5, format="csr"))
    with pytest.raises(SolverError):
        lowest_eigenpairs(op, 9)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def test_resolvent_trivial_cases():
    zero = AssembledOperator.from_matrix(sp.csr_array((2, 2)))
    v = np.array([1.0, 2.0])
    assert np.allclose(resolvent(zero, 2.0, 0.0)(v), v / 2.0, atol=1e-14)
    diag = AssembledOperator.from_matrix(sp.csr_array(np.diag([1.0, 3.0])))
    out = resolvent(diag, 1.0, 1.0)(np.array([1.0, 1.0]))
    assert np.allclose(out, [0.5, 0.25], atol=1e-14)


def test_resolvent_residual_and_one_factorization(circle_patch, monkeypatch):
    import thinlayer.eigensolve as es

    lay = layer_geometry(circle_patch, 0.1, 9)
    H = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    lam_min = lowest_eigenpairs(H, 1).values[0]
    factored = []
    real_factor = es._factor

    def counting_factor(op, sigma):
        factored.append(sigma)
        return real_factor(op, sigma)

    monkeypatch.setattr(es, "_factor", counting_factor)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(H.n_dof)
    solve = resolvent(H, 2.0, lam_min)
    for _ in range(2):
        x = solve(v)
        res = np.linalg.norm(H.matrix @ x + 2.0 * x - v)
        assert res <= 1e-10 * np.linalg.norm(v)
    assert len(factored) == 1  # one factorization serves every solve
    resolvent(H, 3.0, lam_min)
    assert len(factored) == 2


def test_shift_invert_no_convergence_raises_after_one_factorization(circle_patch, monkeypatch):
    import thinlayer.eigensolve as es

    heff = assemble_effective(circle_patch)
    factored = []
    real_factor = es._factor

    def counting_factor(op, sigma):
        factored.append(sigma)
        return real_factor(op, sigma)

    # the constant is the ground state, at -1/4: 1/4 is off by 1/2
    partial = np.array([0.25])
    flat = np.full((heff.n_dof, 1), heff.n_dof**-0.5)

    def stalled(*args, **kwargs):
        raise es.spla.ArpackNoConvergence("staged stall", partial, flat)

    monkeypatch.setattr(es, "_factor", counting_factor)
    monkeypatch.setattr(es.spla, "eigsh", stalled)
    with pytest.raises(SolverError, match="did not converge") as info:
        lowest_eigenpairs(heff, 3, dense_cutoff=0)
    assert info.value.residuals == pytest.approx([0.5], abs=1e-10)
    assert len(factored) == 1  # no refactorization at a moved shift


def test_resolvent_rejects_shift_at_eigenvalue():
    diag = AssembledOperator.from_matrix(sp.csr_array(np.diag([1.0, 3.0])))
    lam_min = lowest_eigenpairs(diag, 1).values[0]
    with pytest.raises(SolverError, match="resolvent set"):
        resolvent(diag, -1.0, lam_min)


def test_resolvent_failure_names_residual_and_lambda_min(small_torus, monkeypatch):
    import thinlayer.eigensolve as es

    heff = assemble_effective(small_torus)
    assert len(heff.dofmap.grid_shape) == 2

    def wrong_factor(op, sigma):
        return (lambda b: 0.5 * b), "wrong"

    def no_eigsh(*args, **kwargs):
        raise AssertionError("a failed resolvent solve must not run eigsh")

    monkeypatch.setattr(es, "_factor", wrong_factor)
    monkeypatch.setattr(es.spla, "eigsh", no_eigsh)
    apply = resolvent(heff, 2.0, 0.5)
    pattern = r"k=2 lost accuracy: residual .* RESOLVENT_RTOL=1e-10 .*lambda_min=0\.5"
    with pytest.raises(SolverError, match=pattern):
        apply(np.ones(heff.n_dof))


def test_positive_definite_shifts_factor_with_less_fill(monkeypatch):
    import thinlayer.eigensolve as es

    # 40x80 sphere h_eff with B = e_z, 3,200 dofs: the default COLAMD order
    # with partial pivoting fills to 341,064 entries and minimum degree on
    # A + A^H to 268,684 (0.79), so this fails with a default splu call
    p = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (40, 80))
    heff = assemble_effective(p, effective_field(constant_field(3, [0.0, 0.0, 1.0]), p))
    assert heff.n_dof == 3200
    factors = []
    real_splu = es.spla.splu

    def recording_splu(A, *args, **kwargs):
        lu = real_splu(A, *args, **kwargs)
        factors.append((A, lu.nnz))
        return lu

    monkeypatch.setattr(es.spla, "splu", recording_splu)
    lam_min = lowest_eigenpairs(heff, 4).values[0]
    resolvent(heff, 1.0 - lam_min, lam_min)
    assert len(factors) == 2  # H - sigma for the eigensolve, H + k for the resolvent
    for A, nnz in factors:
        assert nnz <= 0.85 * real_splu(A).nnz


@pytest.mark.parametrize("delta", [0.0, 1e-13, 1e-8])
def test_resolvent_without_pivoting_never_returns_a_wrong_solve(delta):
    # lambda_min is overstated, so H + k passes the resolvent-set check but
    # is indefinite, and its first diagonal entry is delta: a diagonal pivot
    # of 1e-13 loses accuracy, one of 0 is swapped for an off-diagonal one
    n = 50
    H = 2.0 * np.eye(n, dtype=complex) - np.eye(n, k=1) - np.eye(n, k=-1)
    H[0, 0] = delta - 1.0
    H[0, 1], H[1, 0] = 1j, -1j
    op = AssembledOperator.from_matrix(sp.csr_array(H))
    v = np.random.default_rng(0).standard_normal(n)
    try:
        x = resolvent(op, 1.0, 0.5)(v)
    except SolverError:
        return
    assert np.linalg.norm(H @ x + x - v) <= RESOLVENT_RTOL * np.linalg.norm(v)


def _curve_layer(family, params, n, field, m_u=9):
    p = build_patch(GeometryFamily(family, params), (n,))
    lay = layer_geometry(p, 0.1, m_u)
    return renormalize(assemble_full(lay, layer_potential(field, lay)))


def _on_two_axes(op):
    # the same matrix on a two-axis chart, without a LOBPCG factor, takes SuperLU
    chart = dataclasses.replace(op.dofmap, grid_shape=op.dofmap.grid_shape + (1,))
    return dataclasses.replace(op, dofmap=chart, surface_block=None)


@pytest.mark.parametrize(
    "family, params, field",
    [
        ("circle", {"radius": 1.0}, zero_field(2)),  # periodic
        ("segment", {"length": 1.0}, zero_field(2)),  # Dirichlet ends
        ("ellipse", {"a": 1.0, "b": 0.7}, constant_field(2, 0.7)),  # complex
    ],
)
def test_band_cholesky_agrees_with_superlu(family, params, field):
    op = _curve_layer(family, params, 96, field)
    lu_op = _on_two_axes(op)
    tol = 1e-12
    band = lowest_eigenpairs(op, 4, tol=tol)
    lu = lowest_eigenpairs(lu_op, 4, tol=tol)
    assert band.meta["factor"].startswith("band-cholesky(width=")
    assert lu.meta["factor"].startswith("superlu(nnz=")
    assert np.all(np.abs(band.values - lu.values) <= tol * np.maximum(1.0, np.abs(lu.values)))
    rng = np.random.default_rng(1)
    v = rng.standard_normal(op.n_dof)
    if op.is_complex:
        v = v + 1j * rng.standard_normal(op.n_dof)
    x_band = resolvent(op, 2.0, lu.values[0])(v)
    x_lu = resolvent(lu_op, 2.0, lu.values[0])(v)
    assert np.linalg.norm(x_band - x_lu) <= RESOLVENT_RTOL * np.linalg.norm(x_lu)


def test_band_of_the_fine_sweep_circle_layer_stays_narrow():
    import thinlayer.eigensolve as es

    # the grid-doubled layer of the circle converge config: 512 x 17 dofs
    op = _curve_layer("circle", {"radius": 1.0}, 512, zero_field(2), m_u=17)
    label = es._factor(op, es._certified_shift(op))[1]
    assert label.startswith("band-cholesky(width=")
    assert int(label[len("band-cholesky(width="):-1]) <= 69


def test_curve_resolvent_with_overstated_lambda_min_raises_at_the_factorization():
    op = _curve_layer("circle", {"radius": 1.0}, 48, zero_field(2))
    lam = lowest_eigenpairs(op, 2).values
    # -k between the two lowest eigenvalues: H + k passes the resolvent-set
    # check against lambda_min = lam[1] but is indefinite
    with pytest.raises(SolverError, match="factorization of H"):
        resolvent(op, -0.5 * (lam[0] + lam[1]), lam[1])


def test_circle_sweep_makes_no_superlu_call(monkeypatch):
    import thinlayer.eigensolve as es
    from thinlayer.convergence import SweepSpec, run_sweep

    def no_splu(*args, **kwargs):
        raise AssertionError("SuperLU called on a one-axis chart")

    monkeypatch.setattr(es.spla, "splu", no_splu)
    spec = SweepSpec(
        family=GeometryFamily("circle", {"radius": 1.0}),
        grid=(48,),
        field=constant_field(2, 0.7),
        epsilons=(0.2, 0.1),
        m_u=9,
        grid_doubling=True,
    )
    report = run_sweep(spec)
    assert len(report.rows) == 2 and not any(r.flags or r.skipped for r in report.rows)


# ---------------------------------------------------------------------------
# operator norm estimation
# ---------------------------------------------------------------------------


def test_opnorm_scaled_identity():
    est = opnorm_estimate(lambda v: 2.0 * v, 30, iters=10, seed=1)
    assert abs(est.value - 2.0) < 1e-12
    assert est.monotone


def test_opnorm_diagonal_dominant():
    d = np.array([1.0, 0.5, 0.1])
    est = opnorm_estimate(lambda v: d * v, 3, iters=60, seed=1)
    assert abs(est.value - 1.0) < 1e-6
    assert est.monotone


def test_opnorm_difference_map_against_dense(circle_patch):
    # coarse grid so the dense norm is exact and cheap
    p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (48,))
    lay = layer_geometry(p, 0.1, 9)
    Hren = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    heff = assemble_effective(p)
    mode = TransverseMode.from_count(9)
    k = 2.0
    hren_solve = resolvent(Hren, k, lowest_eigenpairs(Hren, 1).values[0])
    heff_solve = resolvent(heff, k, lowest_eigenpairs(heff, 1).values[0])

    def mv(v):
        return hren_solve(v) - mode.embed(heff_solve(mode.project_ground(v)))

    n = Hren.n_dof
    M = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        M[:, j] = mv(eye[:, j])
    dense_norm = np.max(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T))))
    est = opnorm_estimate(mv, n, iters=200, seed=3)
    assert est.value <= dense_norm * (1 + 1e-9)
    assert est.value >= dense_norm * (1 - 5e-3)
    assert 0 < est.value < 1


def test_opnorm_flags_nonmonotone_map():
    # a nilpotent (non-self-adjoint) map drives the iterate norm to zero,
    # which the monotonicity check must flag
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    est = opnorm_estimate(lambda v: M @ v, 2, iters=6, seed=0)
    assert not est.monotone


def test_dense_and_iterative_agree_on_comparison_operator(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    op, _ = assemble_comparison(lay, layer_potential(zero_field(2), lay), +1)
    dense = lowest_eigenpairs(op, 4, dense_cutoff=10_000)
    sparse = lowest_eigenpairs(op, 4, dense_cutoff=100)
    assert np.max(np.abs(dense.values - sparse.values)) < 1e-8


def test_dense_cutoff_is_set_per_call(segment_patch):
    """Sizes at or below the caller's cutoff go dense."""
    op = assemble_effective(segment_patch)
    n = op.n_dof
    below = lowest_eigenpairs(op, 2, dense_cutoff=n - 1)
    assert below.meta["method"] == "shift-invert-lanczos"
    for cutoff in (n, n + 1):
        assert lowest_eigenpairs(op, 2, dense_cutoff=cutoff).meta["method"] == "dense"


def test_dense_rule_on_a_2d_chart(small_torus):
    # the iterative paths beat a dense eigh at any size; only a request for
    # (nearly) every pair goes dense
    heff = assemble_effective(small_torus)
    assert lowest_eigenpairs(heff, 3).meta["method"] == "shift-invert-lanczos"
    assert lowest_eigenpairs(heff, heff.n_dof - 1).meta["method"] == "dense"
    assert lowest_eigenpairs(heff, 3, dense_cutoff=heff.n_dof).meta["method"] == "dense"
    layer = _torus_layer(small_torus, 0.05, m_u=3)
    assert lowest_eigenpairs(layer, 2).meta["method"] == "lobpcg"
    # a LOBPCG block may hold at most a fifth of the dofs
    tiny = _torus_layer(build_patch(small_torus.family, (8, 8)), 0.05, m_u=3)
    assert lowest_eigenpairs(tiny, tiny.n_dof // 5 + 1).meta["method"] == "dense"
