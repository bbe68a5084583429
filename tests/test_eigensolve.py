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
    polynomial_field,
    pullback,
    renormalize,
    resolvent,
    zero_field,
)
from thinlayer.convergence import TransverseMode
from thinlayer.eigensolve import LOBPCG_MAXITER, RESOLVENT_RTOL, ROUNDOFF_FACTOR
from thinlayer.geometry import DIRICHLET
from thinlayer.operators import DofMap, SurfaceBlock


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
    # the constant is the ground state, at -kappa^2/4, and the m = 0 Fourier
    # block of the circle h_eff is its row sum: exact to round-off
    p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (256,))
    heff = assemble_effective(p)
    spec = lowest_eigenpairs(heff, 1)
    assert spec.meta["method"] == "fourier-blocks"
    bound = ROUNDOFF_FACTOR * 2.0**-53 * np.max(np.abs(heff.matrix.data))
    assert abs(spec.values[0] + 0.25) <= bound


_ELLIPSE = ("ellipse", {"a": 1.0, "b": 0.7})


def test_curve_layer_below_4000_dofs_takes_shift_invert():
    # 3,944 dofs on an ellipse, which has no shift symmetry: a dense eigh
    # takes seconds, the sparse LU a fraction of one
    H = _curve_layer(*_ELLIPSE, 232, zero_field(2), m_u=17)
    assert H.n_dof == 3944
    spec = lowest_eigenpairs(H, 7, tol=1e-12)
    assert spec.meta["method"] == "shift-invert-lanczos"
    assert spec.meta["factor"].startswith("superlu(nnz=")
    assert np.max(spec.residuals) < 1e-9


def test_dense_and_iterative_paths_agree():
    H = _curve_layer(*_ELLIPSE, 96, zero_field(2))
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
    # which complex input takes, left the Gram error of a cluster at 2.9e-2.
    # The gauge A = (0, x) has B = 1 like the symmetric one but is not
    # shift-invariant along the circle, so shift-invert takes it
    p = build_patch(GeometryFamily("circle", {"radius": 1.0}), (256,))
    field = polynomial_field(2, [[], [(1.0, (1, 0))]])
    heff = assemble_effective(p, effective_field(field, p))
    assert heff.is_complex
    spec = lowest_eigenpairs(heff, 7)
    assert spec.meta["method"] == "shift-invert-lanczos"
    assert spec.meta["factor"].startswith("superlu(nnz=")
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
    # the same matrix without its decoupled factor takes shift-invert with a
    # whole-operator SuperLU, or the Fourier blocks where the field keeps the
    # axial symmetry
    spec = lowest_eigenpairs(dataclasses.replace(op, surface_block=None), n_pairs)
    assert spec.meta["method"] in ("shift-invert-lanczos", "fourier-blocks")
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


def test_curve_layers_take_no_lobpcg(circle_patch):
    # a curve layer carries a surface factor, but LOBPCG is for 2-D charts:
    # the circle takes its Fourier blocks, the ellipse shift-invert
    lay = layer_geometry(circle_patch, 0.1, 9)
    circle = renormalize(assemble_full(lay, layer_potential(zero_field(2), lay)))
    ellipse = _curve_layer(*_ELLIPSE, 96, zero_field(2))
    for H, method in ((circle, "fourier-blocks"), (ellipse, "shift-invert-lanczos")):
        assert H.surface_block is not None
        spec = lowest_eigenpairs(H, 3, dense_cutoff=100)
        assert spec.meta["method"] == method
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

    def counting_factor(op, sigma, circulant):
        factored.append(sigma)
        return real_factor(op, sigma, circulant)

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

    # the circle h_eff on a chart without a periodic axis takes shift-invert
    heff = _on_two_axes(assemble_effective(circle_patch))
    factored = []
    real_factor = es._factor

    def counting_factor(op, sigma, circulant):
        factored.append(sigma)
        return real_factor(op, sigma, circulant)

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

    def wrong_factor(op, sigma, circulant):
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

    # 40x80 sphere h_eff with the tilted field B = (0.3, 0, 1), 3,200 dofs,
    # which breaks the axial symmetry and so takes SuperLU: the default COLAMD
    # order with partial pivoting fills to 341,064 entries and minimum degree
    # on A + A^H to 268,684 (0.79), so this fails with a default splu call
    heff = _sphere_heff([0.3, 0.0, 1.0])
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
    # the same matrix on a two-axis chart with no periodic axis, without a
    # LOBPCG factor, takes SuperLU
    shape = op.dofmap.grid_shape
    if len(shape) == 1:
        shape = shape + (1,)
    names = tuple(f"x{k}" for k in range(len(shape)))
    chart = DofMap(shape, op.dofmap.m_u, (DIRICHLET,) * len(shape), names)
    return dataclasses.replace(op, dofmap=chart, surface_block=None)


@pytest.mark.parametrize(
    "n, m_u, field",
    [
        (96, 9, constant_field(2, 0.7)),  # complex
        (512, 17, zero_field(2)),  # the grid-doubled layer of the circle converge config
    ],
)
def test_circle_layers_take_the_fourier_route(n, m_u, field):
    op = _curve_layer("circle", {"radius": 1.0}, n, field, m_u=m_u)
    lu_op = _on_two_axes(op)
    tol = 1e-12
    route = lowest_eigenpairs(op, 4, tol=tol)
    lu = lowest_eigenpairs(lu_op, 4, tol=tol)
    assert route.meta["method"] == "fourier-blocks"
    assert lu.meta["factor"].startswith("superlu(nnz=")
    target = max(tol, ROUNDOFF_FACTOR * 2.0**-53 * gershgorin_bounds(op.matrix)[1])
    assert np.max(np.abs(route.values - lu.values)) <= target
    assert np.max(route.residuals) <= target
    assert np.isrealobj(route.vectors) == (not op.is_complex)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(op.n_dof)
    if op.is_complex:
        v = v + 1j * rng.standard_normal(op.n_dof)
    x_route = resolvent(op, 2.0, lu.values[0])(v)
    x_lu = resolvent(lu_op, 2.0, lu.values[0])(v)
    assert np.linalg.norm(x_route - x_lu) <= RESOLVENT_RTOL * np.linalg.norm(x_lu)
    # the blocks of one Fourier mode are dense m_u x m_u
    assert _factor_label(op) == f"fourier-band-cholesky(axis=theta, width={m_u - 1})"


@pytest.mark.parametrize(
    "family, params, field",
    [
        ("segment", {"length": 1.0}, zero_field(2)),  # Dirichlet ends
        (*_ELLIPSE, constant_field(2, 0.7)),  # complex
        ("catenary-curve", {"a": 0.8, "length": 2.0}, zero_field(2)),
        ("circle", {"radius": 1.0}, polynomial_field(2, [[], [(1.0, (1, 0))]])),  # A = (0, x)
    ],
)
def test_curve_layers_without_the_symmetry_take_superlu(family, params, field):
    op = _curve_layer(family, params, 96, field)
    tol = 1e-12
    spec = lowest_eigenpairs(op, 4, tol=tol)
    assert spec.meta["method"] == "shift-invert-lanczos"
    assert spec.meta["factor"].startswith("superlu(nnz=")
    exact = lowest_eigenpairs(op, 4, dense_cutoff=op.n_dof).values
    target = max(tol, ROUNDOFF_FACTOR * 2.0**-53 * gershgorin_bounds(op.matrix)[1])
    assert np.max(np.abs(spec.values - exact)) <= target


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
# the Fourier route: operators shift-invariant along a periodic axis
# ---------------------------------------------------------------------------


def _sphere_heff(b):
    p = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (40, 80))
    return assemble_effective(p, effective_field(constant_field(3, b), p))


def _tilted_field(patch):
    return effective_field(constant_field(3, [0.3, 0.0, 1.0]), patch)


def _factor_label(op):
    import thinlayer.eigensolve as es

    return es._factor(op, es._certified_shift(op), es._circulant_axis(op))[1]


def test_fourier_route_agrees_with_superlu_on_the_axisymmetric_sphere():
    heff = _sphere_heff([0.0, 0.0, 1.0])
    tol = 1e-10
    route = lowest_eigenpairs(heff, 6, tol=tol)
    lu = lowest_eigenpairs(_on_two_axes(heff), 6, tol=tol)
    assert route.meta["method"] == "fourier-blocks"
    assert lu.meta["factor"].startswith("superlu(nnz=")
    assert np.max(np.abs(route.values - lu.values) / np.abs(lu.values)) <= 1e-10
    h_max = gershgorin_bounds(heff.matrix)[1]
    assert np.max(route.residuals) <= max(tol, ROUNDOFF_FACTOR * 2.0**-53 * h_max)


@pytest.mark.parametrize("grid", [(16, 16), (16, 15)])  # irfft needs an odd n
def test_fourier_route_solves_a_real_operator_in_reals(grid):
    import thinlayer.eigensolve as es

    p = build_patch(GeometryFamily("torus", {"major": 2.0, "minor": 0.5}), grid)
    heff = assemble_effective(p)  # no field: real
    assert not heff.is_complex
    sigma = es._certified_shift(heff)
    solve, label = es._factor(heff, sigma, es._circulant_axis(heff))
    assert label.startswith("fourier-band-cholesky(axis=phi, width=")
    b = np.random.default_rng(0).standard_normal((heff.n_dof, 2))
    x, x_lu = solve(b), es._factor(heff, sigma, None)[0](b)
    assert np.isrealobj(solve(b[:, 0])) and np.isrealobj(x)
    assert np.linalg.norm(x - x_lu) <= 1e-13 * np.linalg.norm(x_lu)
    route = lowest_eigenpairs(heff, 6)
    lu = lowest_eigenpairs(_on_two_axes(heff), 6)
    assert np.isrealobj(route.vectors)
    assert np.max(np.abs(route.values - lu.values)) < 1e-10


@pytest.mark.parametrize("two_axes", [False, True])  # the Fourier route, SuperLU
def test_resolvent_of_a_real_operator_solves_both_parts_of_a_complex_vector(
    small_torus, two_axes
):
    heff = assemble_effective(small_torus)  # no field: real
    if two_axes:
        heff = _on_two_axes(heff)
    apply = resolvent(heff, 2.0, lowest_eigenpairs(heff, 1).values[0])
    rng = np.random.default_rng(3)
    v = rng.standard_normal(heff.n_dof) + 1j * rng.standard_normal(heff.n_dof)
    assert np.array_equal(apply(v), apply(v.real) + 1j * apply(v.imag))


def test_fourier_route_resolvent_on_a_magnetic_torus_layer(small_torus):
    op = _torus_layer(small_torus, 0.05)
    assert op.is_complex and _factor_label(op).startswith("fourier-band-cholesky(axis=phi,")
    lam_min = lowest_eigenpairs(op, 1).values[0]
    rng = np.random.default_rng(2)
    v = rng.standard_normal(op.n_dof) + 1j * rng.standard_normal(op.n_dof)
    x_route = resolvent(op, 2.0, lam_min)(v)
    x_lu = resolvent(_on_two_axes(op), 2.0, lam_min)(v)
    assert np.linalg.norm(x_route - x_lu) <= RESOLVENT_RTOL * np.linalg.norm(x_lu)


def test_fourier_blocks_return_whole_clusters_at_every_seed(zero_field_shell):
    # the cut of the 12 lowest pairs of the real shell splits no degenerate
    # pair (modes m and -m): both come from one block. The SuperLU reference
    # is asked for 16 pairs, because its Lanczos returns one vector of the
    # cut pair at some seeds
    op, _ = zero_field_shell
    op = dataclasses.replace(op, surface_block=None)
    lu_values = lowest_eigenpairs(_on_two_axes(op), 16).values[:12]
    first = None
    for seed in (1, 2, 3, 4, 5, 6, 7, 42):
        spec = lowest_eigenpairs(op, 12, seed=seed)
        assert spec.meta["method"] == "fourier-blocks"
        assert spec.values[11] - spec.values[10] < 1e-9  # the cut pair is whole
        assert np.max(np.abs(spec.values - lu_values)) < 1e-9
        gram = spec.vectors.T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(12))) < 1e-12
        if first is None:
            first = spec
        assert np.array_equal(spec.values, first.values)
        assert np.array_equal(spec.vectors, first.vectors)


def _every_block_value(op):
    # the eigenvalues of all n Fourier blocks, a real H's too, ascending;
    # each block is built densely from the slice
    import thinlayer.eigensolve as es

    _, (pre, n, post), (row, col, d, values) = es._circulant_axis(op)
    m = np.arange(n)[:, None]
    blocks = np.zeros((n, pre * post, pre * post), dtype=complex)
    np.add.at(blocks, (m, row, col), values * np.exp(2j * np.pi * m * d / n))
    return np.sort(np.linalg.eigvalsh(blocks).ravel())


def test_fourier_blocks_skip_exactly_the_blocks_without_a_wanted_pair():
    # the fourth-order stencil leaves the Gershgorin bounds of the 64x64
    # torus loose: they stop none of its 64 modes, and most blocks take the
    # band Cholesky at the cut and are skipped
    p = build_patch(GeometryFamily("torus", {"major": 2.0, "minor": 0.5}), (64, 64))
    heff = assemble_effective(p, effective_field(constant_field(3, [0.0, 0.0, 1.0]), p))
    tol = 1e-10
    spec = lowest_eigenpairs(heff, 9, tol=tol)
    assert spec.meta["method"] == "fourier-blocks"
    assert spec.meta["skipped"] > spec.meta["blocks"]
    assert spec.meta["blocks"] + spec.meta["skipped"] <= 64
    lu = lowest_eigenpairs(_on_two_axes(heff), 9, tol=tol)
    assert np.max(np.abs(spec.values - lu.values) / np.abs(lu.values)) <= 1e-10
    h_max = gershgorin_bounds(heff.matrix)[1]
    assert np.max(spec.residuals) <= max(tol, ROUNDOFF_FACTOR * 2.0**-53 * h_max)
    # the skipped blocks held none of the 9 lowest values
    every = _every_block_value(heff)
    assert np.max(np.abs(spec.values - every[:9]) / np.abs(lu.values)) <= 1e-10


def test_fourier_blocks_stop_at_the_first_gershgorin_bound_past_the_cut():
    # the zero-field sphere is real: modes 0..40 of 80 are visited, and the
    # Gershgorin bounds of its tridiagonal blocks stop the visit early
    heff = _sphere_heff([0.0, 0.0, 0.0])
    assert not heff.is_complex
    spec = lowest_eigenpairs(heff, 9)
    assert spec.meta["method"] == "fourier-blocks"
    assert spec.meta["blocks"] + spec.meta["skipped"] < 41
    assert np.isrealobj(spec.vectors)
    assert np.max(np.abs(spec.values - _every_block_value(heff)[:9])) <= 1e-10


def test_one_symmetry_test_per_call(small_torus, monkeypatch):
    import thinlayer.eigensolve as es

    # a tilted field breaks the axial symmetry: the decline sends the
    # operator to SuperLU without a second test
    heff = assemble_effective(small_torus, _tilted_field(small_torus))
    calls, real_test = [], es._circulant_axis

    def counting_test(op):
        calls.append(op)
        return real_test(op)

    monkeypatch.setattr(es, "_circulant_axis", counting_test)
    spec = lowest_eigenpairs(heff, 3)
    assert spec.meta["factor"].startswith("superlu(nnz=")
    assert len(calls) == 1
    resolvent(heff, 2.0, spec.values[0])
    assert len(calls) == 2


def _edited(op, delta):
    # one off-diagonal pair outside the axis-index-0 slice and the coupling
    # along the axis moved by delta, or removed when delta is None; Hermitian
    H = op.matrix.tolil()
    i = op.n_dof // 3
    j = H.rows[i][-1]
    for a, b in ((i, j), (j, i)):
        H[a, b] = 0.0 if delta is None else H[a, b] + delta
    H = sp.csr_array(H.tocsr())
    H.eliminate_zeros()
    return dataclasses.replace(op, matrix=H)


def _symmetry_tolerance(op):
    return ROUNDOFF_FACTOR * 2.0**-53 * np.max(np.abs(op.matrix.data))


@pytest.mark.parametrize(
    "case",
    [
        "tilted field",
        "non-periodic chart",
        "one entry perturbed",
        "one entry removed",
        "one entry moved by 4 tolerances",
    ],
)
def test_fourier_route_declines_an_operator_without_the_symmetry(case):
    if case == "tilted field":
        op = _sphere_heff([0.3, 0.0, 1.0])
    elif case == "non-periodic chart":
        params = {"lx": 1.0, "ly": 1.0, "amplitude": 0.1, "width": 0.2}
        p = build_patch(GeometryFamily("bumped-plane", params), (24, 24))
        op = assemble_effective(p, effective_field(constant_field(3, [0.0, 0.0, 1.0]), p))
    else:
        op = _sphere_heff([0.0, 0.0, 1.0])
        delta = {
            "one entry perturbed": 1e-10 * np.max(np.abs(op.matrix.data)),
            "one entry removed": None,
            "one entry moved by 4 tolerances": 4.0 * _symmetry_tolerance(op),
        }[case]
        op = _edited(op, delta)
    assert _factor_label(op).startswith("superlu(nnz=")


def test_fourier_route_accepts_an_entry_moved_within_its_tolerance():
    # every entry is bound against the slice at axis index 0 to within
    # ROUNDOFF_FACTOR * u * max|H|
    op = _sphere_heff([0.0, 0.0, 1.0])
    op = _edited(op, 0.5 * _symmetry_tolerance(op))
    assert _factor_label(op).startswith("fourier-band-cholesky(axis=phi")


def _non_canonical(op, index_dtype):
    # the same matrix with every entry stored as two halves (duplicates), one
    # explicit zero off the pattern in a row away from axis index 0, and
    # indices of index_dtype
    H = op.matrix.tocoo()
    i = op.n_dof // 3
    j = (i + op.n_dof // 2) % op.n_dof
    assert op.matrix[i, j] == 0 and i % op.dofmap.grid_shape[1] != 0
    rows = np.concatenate([H.row, H.row, [i]])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([H.col, H.col, [j]])[order]
    data = np.concatenate([H.data / 2, H.data / 2, [0.0]])[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=op.n_dof))])
    M = sp.csr_array((data, cols, indptr), shape=H.shape)
    M.indices, M.indptr = M.indices.astype(index_dtype), M.indptr.astype(index_dtype)
    assert not M.has_canonical_format and M.nnz == 2 * H.nnz + 1
    return dataclasses.replace(op, matrix=M)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("b", [[0.0, 0.0, 1.0], [0.3, 0.0, 1.0]])  # accepted, declined
def test_symmetry_test_decides_on_a_non_canonical_matrix_as_on_its_canonical_copy(
    b, index_dtype
):
    import thinlayer.eigensolve as es

    op = _sphere_heff(b)
    assert op.matrix.indices.dtype == np.int32  # the assembly's triplets
    canonical = es._circulant_axis(op)
    edited = es._circulant_axis(_non_canonical(op, index_dtype))
    assert (canonical is None) == (b[0] != 0.0) == (edited is None)
    if canonical is not None:
        assert edited[:2] == canonical[:2]
        for a, e in zip(canonical[2], edited[2]):
            assert np.array_equal(a, e)


def _torus_layer_8x8():
    p = build_patch(GeometryFamily("torus", {"major": 2.0, "minor": 0.5}), (8, 8))
    return _torus_layer(p, 0.1, m_u=5)


@pytest.mark.parametrize(
    "make",
    [
        _torus_layer_8x8,  # complex, post = m_u > 1
        lambda: assemble_effective(
            build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (20, 40))
        ),  # real
        lambda: _curve_layer("circle", {"radius": 1.0}, 32, constant_field(2, 0.7)),  # complex
    ],
    ids=["torus-layer", "sphere-heff", "circle-layer"],
)
def test_fourier_blocks_match_the_dense_dft_of_the_slice(make):
    import thinlayer.eigensolve as es

    op = make()
    _, (pre, n, post), (row, col, d, values) = es._circulant_axis(op)
    real = not op.is_complex
    bands, perm, lower = es._fourier_blocks((row, col, d, values), (pre, n, post), real)
    modes, size = (n // 2 + 1 if real else n), pre * post
    assert bands.shape[0] == modes == lower.size
    m = np.arange(modes)[:, None]
    blocks = np.zeros((modes, size, size), dtype=complex)
    np.add.at(blocks, (m, row, col), values * np.exp(2j * np.pi * (m * d % n) / n))
    width = bands.shape[1] - 1
    permuted = blocks[:, perm][:, :, perm]
    upper = np.triu(np.ones((size, size), dtype=bool))
    band_rows = np.subtract.outer(np.arange(size), np.arange(size)) + width  # w + i - j
    assert np.all(permuted[:, upper & (band_rows < 0)] == 0)  # the band holds B_m
    expected = np.zeros_like(bands)
    i, j = np.nonzero(upper & (band_rows >= 0))
    expected[:, width + i - j, j] = permuted[:, i, j]
    h_max = np.max(np.abs(op.matrix.data))
    assert np.max(np.abs(bands - expected)) <= 4 * 2.0**-53 * h_max
    # Gershgorin: below every eigenvalue of its block, to the eigensolver's
    # round-off
    floor = np.linalg.eigvalsh(blocks).min(axis=1)
    assert np.all(lower <= floor + ROUNDOFF_FACTOR * 2.0**-53 * h_max)


def test_surface_path_holds_no_whole_operator_transient():
    # tracemalloc peaks per stored entry of H on the 100x200 sphere h-eff in
    # B = e_z: the assembly, the symmetry test and the Fourier blocks take
    # 89, 42 and 13 bytes, and 159, 92 and 67 with int64 triplets, a second
    # and a third whole-size CSR in the test and one CSR of every block
    import tracemalloc

    import thinlayer.eigensolve as es

    p = build_patch(GeometryFamily("full-sphere", {"radius": 1.0}), (100, 200))
    eff = effective_field(constant_field(3, [0.0, 0.0, 1.0]), p)

    def peak(f):
        tracemalloc.start()
        try:
            return f(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    op, assembly = peak(lambda: assemble_effective(p, eff))
    circulant, symmetry = peak(lambda: es._circulant_axis(op))
    _, blocks = peak(lambda: es._fourier_blocks(circulant[2], circulant[1], not op.is_complex))
    nnz = op.matrix.nnz
    assert assembly / nnz <= 120
    assert symmetry / nnz <= 70
    assert blocks / nnz <= 30


def test_fourier_route_keeps_the_torus_sweep_resolvent_column(monkeypatch):
    import thinlayer.eigensolve as es
    from thinlayer.convergence import SweepSpec, run_sweep

    spec = SweepSpec(
        family=GeometryFamily("torus", {"major": 2.0, "minor": 0.5}),
        grid=(24, 24),
        field=constant_field(3, [0.0, 0.0, 1.0]),
        epsilons=(0.1, 0.05),
        m_u=5,
        grid_doubling=False,
    )
    labels, real_factor = [], es._factor

    def recording_factor(op, sigma, circulant):
        factor = real_factor(op, sigma, circulant)
        labels.append(factor[1])
        return factor

    monkeypatch.setattr(es, "_factor", recording_factor)
    route = [r.resolvent for r in run_sweep(spec).rows]
    assert labels and all(label.startswith("fourier-band-cholesky(") for label in labels)
    monkeypatch.setattr(es, "_circulant_axis", lambda op: None)
    labels.clear()
    lu = [r.resolvent for r in run_sweep(spec).rows]
    assert labels and all(label.startswith("superlu(nnz=") for label in labels)
    assert np.all(np.isfinite(lu))
    assert np.allclose(route, lu, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# operator norm estimation
# ---------------------------------------------------------------------------


def test_opnorm_scaled_identity():
    est = opnorm_estimate(lambda v: 2.0 * v, 30, iters=10, seed=1)
    assert abs(est.value - 2.0) < 1e-12


def test_opnorm_diagonal_dominant():
    d = np.array([1.0, 0.5, 0.1])
    est = opnorm_estimate(lambda v: d * v, 3, iters=60, seed=1)
    assert abs(est.value - 1.0) < 1e-6


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


def test_dense_and_iterative_agree_on_comparison_operator(circle_patch):
    lay = layer_geometry(circle_patch, 0.1, 9)
    op = assemble_comparison(lay, layer_potential(zero_field(2), lay), +1)
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


@pytest.mark.parametrize("method", ["dense", "lobpcg", "fourier-blocks", "shift-invert-lanczos"])
def test_every_path_fills_one_spectrum_contract(small_torus, method):
    if method == "lobpcg":
        op = _torus_layer(small_torus, 0.05, m_u=3)
    elif method == "shift-invert-lanczos":
        op = assemble_effective(small_torus, _tilted_field(small_torus))
    else:
        field = effective_field(constant_field(3, [0.0, 0.0, 1.0]), small_torus)
        op = assemble_effective(small_torus, field)
    cutoff = op.n_dof if method == "dense" else None
    spec = lowest_eigenpairs(op, 3, tol=1e-9, seed=7, dense_cutoff=cutoff)
    assert spec.meta["method"] == method
    assert spec.meta["tol"] == 1e-9 and spec.meta["seed"] == 7 and "shift" in spec.meta
    recomputed = [
        np.linalg.norm(op.matrix @ x - lam * x) for lam, x in zip(spec.values, spec.vectors.T)
    ]
    h_max = gershgorin_bounds(op.matrix)[1]
    atol = ROUNDOFF_FACTOR * 2.0**-53 * h_max
    np.testing.assert_allclose(spec.residuals, recomputed, rtol=1e-6, atol=atol)


def test_dense_rule_on_a_2d_chart(small_torus):
    # the iterative paths beat a dense eigh at any size; only a request for
    # (nearly) every pair goes dense
    tilted = assemble_effective(small_torus, _tilted_field(small_torus))
    assert lowest_eigenpairs(tilted, 3).meta["method"] == "shift-invert-lanczos"
    heff = assemble_effective(small_torus)
    assert lowest_eigenpairs(heff, heff.n_dof - 1).meta["method"] == "dense"
    assert lowest_eigenpairs(heff, 3, dense_cutoff=heff.n_dof).meta["method"] == "dense"
    layer = _torus_layer(small_torus, 0.05, m_u=3)
    assert lowest_eigenpairs(layer, 2).meta["method"] == "lobpcg"
    # a LOBPCG block may hold at most a fifth of the dofs
    tiny = _torus_layer(build_patch(small_torus.family, (8, 8)), 0.05, m_u=3)
    assert lowest_eigenpairs(tiny, tiny.n_dof // 5 + 1).meta["method"] == "dense"
