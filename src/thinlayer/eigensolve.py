"""Lowest eigenpairs, resolvent application and operator-norm estimation.

A dense eigh runs only where no iteration can run or save work, on any chart:
when ARPACK's Krylov basis would reach n - 1 vectors or a LOBPCG block exceed
n/5. dense_cutoff asks for it by size per call; the CLI passes
solver.dense_threshold. Otherwise, one of two iterations:

  * LOBPCG (Knyazev 2001) for layer operators on a 2-D chart (operators that
    carry the surface factor S of their decoupled comparison operator, whose
    chart has two axes), with a seeded random start block of n_pairs
    columns. The preconditioner inverts S (x) I + I (x) T/eps^2 - sigma: the
    transverse sine basis, the dense sine_modes(m_u), splits it into m_u
    surface-sized blocks S + d_j I (fast diagonalization). A soft mode block
    takes a sparse LU that solves the whole LOBPCG block at once; a stiff
    one, whose Gershgorin ratio max_i sum_{k != i} |S_ik| / (S_ii + d_j) is
    at most DIAGONAL_MAX_RATIO on positive rows, takes its diagonal. The
    O(eps^-2) transverse gap makes every excited mode stiff on the 24x24x17
    torus layer at eps 0.05 (1 LU instead of 17; LOBPCG 0.88 -> 0.35 s, 44
    -> 43 iterations), while the pole rows of a sphere shell keep all its
    LUs. The comparison operators bound the layer operator with constants
    that hold for every eps < rho_m, so the iteration counts do not grow as
    eps shrinks, while a sparse LU of the whole layer fills super-linearly
    on a 2-D grid; near rho_m the constants (1 -/+ eps/rho_m)^2 make the
    counts grow like (1 + eps/rho_m)/(1 - eps/rho_m). LOBPCG restarts from its
    own block every LOBPCG_RESTART iterations within one budget of
    LOBPCG_MAXITER: unrestarted, a block whose last column cuts a
    near-degenerate cluster stalled. Every returned pair meets the residual
    target max(tol, ROUNDOFF_FACTOR * u * h_max), u the unit round-off and
    h_max the upper Gershgorin bound, or the solve raises SolverError;
  * shift-invert Lanczos (ARPACK) with a factorization of H - sigma for
    everything else: layers over curves, where a factorization is cheaper,
    surface operators, explicit matrices and operators with no surface
    factor.

Both use sigma = certified spectral floor - 1, built afresh for each call.
resolvent(op, k, lambda_min) factors H + k once and returns the solve; the
caller owns it, and nothing is stored on the operator.

Both factor a Hermitian positive definite matrix (H - sigma >= I at the
certified shift, H + k with -k below lambda_min), and the chart's axis count
picks how (George & Liu 1981):

  * one axis (curve layers, curve h_eff, explicit matrices): a band Cholesky
    in a reverse Cuthill-McKee order. The operator is a chain of m_u-blocks,
    so the band stays narrow: 69 superdiagonals on the 512x17 circle layer
    (8,704 dofs), where it factors in 15-25 ms against SuperLU's 70-80 ms,
    solves in 0.7 ms against 1.7 ms, and stores 0.6M entries against 1.04M
    (one BLAS thread). scipy's band LAPACK wrappers hold the GIL while they
    run, so threaded sweep rows overlap less than under SuperLU;
  * two axes (surface h_eff, 2-D operators with no surface factor): SuperLU
    in its symmetric mode, a minimum-degree order on A + A^H with diagonal
    pivots.
    Without pivoting the factorization of an HPD matrix is stable, and a
    whole operator fills about a third less than under the default COLAMD
    column order with partial pivoting (13.0M against 19.3M entries for the
    200x400 sphere h_eff). The preconditioner's soft surface blocks
    S + d_j I take the same LU.

A band Cholesky that meets a nonpositive pivot raises SolverError, as does a
SuperLU that meets a zero one.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .operators import AssembledOperator, sine_modes, transverse_energies

DEFAULT_TOL = 1e-10
#: LOBPCG iterations, summed over its restarts, before a missed residual
#: target raises
LOBPCG_MAXITER = 500
#: LOBPCG iterations between restarts from the current block
LOBPCG_RESTART = 60
#: the LOBPCG residual target is at least this multiple of u * h_max
ROUNDOFF_FACTOR = 16.0
#: preconditioner mode blocks with a smaller Gershgorin ratio take their
#: diagonal instead of a sparse LU (measured)
DIAGONAL_MAX_RATIO = 0.125
#: relative residual a resolvent solve must meet
RESOLVENT_RTOL = 1e-10

# scipy's LOBPCG warns whenever a column misses its own stopping test, as
# every restart chunk but the last does; _lobpcg_pairs raises on a real miss.
# One filter at import, not catch_warnings in a solve: sweep rows solve in
# threads, and catch_warnings is not thread-safe.
warnings.filterwarnings(
    "ignore", r"(Exited|Failed) (postprocessing|at iteration)", UserWarning,
    module=r"thinlayer\.eigensolve",
)


@dataclass
class Spectrum:
    """Ascending eigenvalues with scaled-orthonormal eigenvectors."""

    values: np.ndarray  # (N,) real, ascending
    vectors: np.ndarray  # (n, N), orthonormal in the scaled inner product
    residuals: np.ndarray  # (N,) two-norms of H x - lambda x
    meta: dict = field(default_factory=dict)

    @property
    def n_pairs(self) -> int:
        return self.values.size


def _off_diagonal_row_sums(matrix):
    return np.asarray(abs(matrix).sum(axis=1)).reshape(-1) - np.abs(matrix.diagonal())


def gershgorin_bounds(matrix) -> tuple[float, float]:
    """Cheap enclosure of the spectrum of a Hermitian sparse matrix."""
    diag = matrix.diagonal().real
    off = _off_diagonal_row_sums(matrix)
    return float(np.min(diag - off)), float(np.max(diag + off))


def cluster_indices(values, rtol=1e-8):
    """Runs of ascending values within rtol * max(1, |v|) of their first
    member, as lists of indices."""
    clusters = []
    for i, v in enumerate(values):
        if clusters and abs(v - values[clusters[-1][0]]) <= rtol * max(1.0, abs(v)):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _residuals(matrix, values, vectors):
    r = matrix @ vectors - vectors * values[None, :]
    return np.linalg.norm(r, axis=0)


def _dense_pairs(op, n_pairs, tol, seed):
    H = op.matrix.toarray()
    vals, vecs = sla.eigh(H)
    vals = vals[:n_pairs]
    vecs = vecs[:, :n_pairs]
    return Spectrum(
        values=np.asarray(vals, float),
        vectors=vecs,
        residuals=_residuals(op.matrix, np.asarray(vals, float), vecs),
        meta={"method": "dense", "tol": tol, "shift": None, "seed": seed},
    )


def _shifted(A, sigma):
    return A - sigma * sp.eye_array(A.shape[0], format=A.format, dtype=A.dtype)


def _superlu(A):
    # A is Hermitian positive definite at every caller: diagonal pivots in a
    # minimum-degree order on A + A^H
    return spla.splu(
        A,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _band_cholesky(A):
    """Solve with the Hermitian positive definite A by a band Cholesky in a
    reverse Cuthill-McKee order, and the band's width (superdiagonals)."""
    # imported here: scipy.sparse.csgraph (5 ms) is not on the import path of
    # the commands that never factor a one-axis operator
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    rank = np.argsort(perm)
    C = A.tocoo()
    rows, cols = rank[C.row], rank[C.col]
    upper = cols >= rows
    rows, cols = rows[upper], cols[upper]
    width = int(np.max(cols - rows, initial=0))
    band = np.zeros((width + 1, A.shape[0]), dtype=A.dtype)
    band[width + rows - cols, cols] = C.data[upper]
    factor = (sla.cholesky_banded(band, check_finite=False), False)

    def solve(b):
        return sla.cho_solve_banded(factor, b[perm], check_finite=False)[rank]

    return solve, width


def _factor(op, sigma):
    """Factor the Hermitian positive definite H - sigma once: its solve, and
    a label naming the factorization with its band width or LU fill.

    An operator on a one-axis chart is a chain of m_u-blocks, banded after
    a Cuthill-McKee ordering, and takes a band Cholesky; any other takes
    SuperLU. A band Cholesky that meets a nonpositive pivot, or a SuperLU a
    zero one, raises SolverError naming the shift.
    """
    try:
        if len(op.dofmap.grid_shape) == 1:
            solve, width = _band_cholesky(_shifted(op.matrix, sigma))
            return solve, f"band-cholesky(width={width})"
        lu = _superlu(_shifted(op.matrix.tocsc(), sigma))
        return lu.solve, f"superlu(nnz={lu.nnz})"
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise SolverError(
            f"factorization of H {-sigma:+g} failed (the shift is not below "
            f"the spectrum): {exc}"
        )


def _decoupled_inverse(op, sigma, dtype):
    """Inverse of the decoupled operator S (x) I + I (x) T/eps^2 - c, applied
    to a block of columns, and the number of surface LUs it factored.

    The sampled sine modes diagonalize the transverse factor, and
    sine_modes(m_u), symmetric and its own inverse, is the transform to them
    and back. That leaves one surface-sized solve per transverse mode j with
    S + d_j I, d_j = E_j/eps^2 - c, c = renormalization shift + sigma (fast
    diagonalization). Each d_j is raised to at least 1 - floor(S), so every
    mode block is Hermitian positive definite whatever sigma is.

    A mode block whose rows are all positive with Gershgorin ratio
    r_j = max_i sum_{k != i} |S_ik| / (S_ii + d_j) <= DIAGONAL_MAX_RATIO is
    solved by its diagonal D: D^-1 (S + d_j I) has its spectrum in
    [1 - r_j, 1 + r_j], so the preconditioner stays Hermitian positive
    definite and spectrally equivalent to the exact inverse. The other
    blocks, the soft modes, take a sparse LU.
    """
    block = op.surface_block
    m = op.dofmap.m_u
    shifts = np.maximum(
        transverse_energies(m) / op.eps**2
        - op.meta.get("renormalization_shift", 0.0)
        - sigma,
        1.0 - block.floor,
    )
    sines = sine_modes(m)
    surface = block.matrix.astype(dtype)
    diag = surface.diagonal().real
    off = _off_diagonal_row_sums(surface)
    solves, surface_lus = [], 0
    for d in shifts:
        rows = diag + d
        if np.all(rows > 0) and np.max(off / rows) <= DIAGONAL_MAX_RATIO:
            solves.append(lambda x, w=1.0 / rows[:, None]: w * x)
        else:
            solves.append(_superlu(_shifted(surface, -d).tocsc()).solve)
            surface_lus += 1

    def apply(r):
        # one solve per transverse mode takes every column of the block
        by_node = r.reshape(-1, m, r.shape[1]).transpose(1, 0, 2)
        modes = np.tensordot(sines, by_node, axes=1)
        for j, solve in enumerate(solves):
            modes[j] = solve(modes[j])
        return np.tensordot(sines, modes, axes=1).transpose(1, 0, 2).reshape(r.shape)

    return apply, surface_lus


def _certified_shift(op):
    """The certified spectral floor minus 1 (Gershgorin's when the operator
    carries none), so H - sigma >= I."""
    certified = op.meta.get("spectral_lower_bound")
    if certified is not None and np.isfinite(certified):
        return float(certified) - 1.0
    return gershgorin_bounds(op.matrix)[0] - 1.0


def _lobpcg_pairs(op, n_pairs, tol, seed):
    """LOBPCG on H - sigma >= I, preconditioned by the decoupled inverse and
    restarted every LOBPCG_RESTART iterations from the block it returned.

    The shift keeps the Rayleigh-Ritz Gram matrices of order lambda - sigma;
    unshifted, an unrenormalized layer (lambda ~ eps^-2) stalled at residuals
    of 1e-2. The residual target is max(tol, 16 u h_max), and LOBPCG stops at
    half of it: the columns it has locked drift up to 1.2x its stopping test.
    Measured on torus, plane and bumped-plane layers (eps 0.1 to 0.0125), a
    stopping test at 2 u h_max breaks LOBPCG down (residuals 1e-9 to 3e-8),
    one at 4 u h_max converged on all, and 8 u h_max keeps a factor 2 more.
    scipy returns the best block it saw, not the last, so the iterations run
    are counted at the preconditioner, which LOBPCG applies once in each.
    """
    H = op.matrix
    target = max(tol, ROUNDOFF_FACTOR * 2.0**-53 * gershgorin_bounds(H)[1])
    sigma = _certified_shift(op)
    A = _shifted(H, sigma)
    X = np.random.default_rng(seed).standard_normal((op.n_dof, n_pairs)).astype(H.dtype)
    precondition, surface_lus = _decoupled_inverse(op, sigma, H.dtype)
    iterations = 0

    def M(r):
        nonlocal iterations
        iterations += 1
        return precondition(r)

    while iterations < LOBPCG_MAXITER:
        start = iterations
        # scipy's maxiter counts the steps after the first
        maxiter = min(LOBPCG_RESTART, LOBPCG_MAXITER - start) - 1
        vals, X = spla.lobpcg(A, X, M=M, tol=target / 2, maxiter=maxiter, largest=False)
        vals = vals + sigma
        residuals = _residuals(H, vals, X)
        # a chunk that ran no iteration would repeat itself from its block
        if np.max(residuals) <= target or iterations == start:
            break
    if np.max(residuals) > target:
        raise SolverError(
            f"LOBPCG missed the residual target {target:.3e} within "
            f"{iterations} iterations (largest residual {np.max(residuals):.3e})",
            residuals=residuals,
        )
    return Spectrum(
        values=vals,
        vectors=X,
        residuals=residuals,
        meta={
            "method": "lobpcg",
            "shift": sigma,
            "tol": tol,
            "seed": seed,
            "iterations": iterations,
            "block_size": n_pairs,
            "residual_target": target,
            "surface_lus": surface_lus,
        },
    )


def _shift_invert_pairs(op, n_pairs, tol, seed, ncv):
    sigma = _certified_shift(op)
    # sigma is a certified lower bound minus 1, so H - sigma >= I: one
    # factorization at one shift, no retries
    solve, factor = _factor(op, sigma)
    A = op.matrix.tocsc()
    n = A.shape[0]
    try:
        vals, vecs = spla.eigsh(
            A,
            k=n_pairs,
            sigma=sigma,
            which="LM",
            OPinv=spla.LinearOperator(A.shape, matvec=solve, dtype=A.dtype),
            v0=np.random.default_rng(seed).standard_normal(n).astype(A.dtype),
            tol=tol,
            ncv=ncv,
            maxiter=max(4000, 40 * n_pairs),
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"shift-invert Lanczos did not converge: {exc}",
            residuals=_residuals(op.matrix, exc.eigenvalues, exc.eigenvectors),
        )
    order = np.argsort(vals)
    vals = np.asarray(vals[order], float)
    vecs = vecs[:, order]
    if np.iscomplexobj(A):
        # complex input runs ARPACK's non-Hermitian driver, which leaves the
        # vectors of a degenerate cluster non-orthogonal: Rayleigh-Ritz on
        # each cluster's span makes them orthonormal
        for cl in cluster_indices(vals):
            if len(cl) > 1:
                block = slice(cl[0], cl[-1] + 1)
                Q = np.linalg.qr(vecs[:, block])[0]
                vals[block], y = np.linalg.eigh(Q.conj().T @ (A @ Q))
                vecs[:, block] = Q @ y
    return Spectrum(
        values=vals,
        vectors=vecs,
        residuals=_residuals(op.matrix, vals, vecs),
        meta={
            "method": "shift-invert-lanczos",
            "shift": sigma,
            "tol": tol,
            "seed": seed,
            "factor": factor,
        },
    )


def lowest_eigenpairs(
    op: AssembledOperator,
    n_pairs: int,
    tol: float = DEFAULT_TOL,
    seed: int = 42,
    dense_cutoff: int | None = None,
) -> Spectrum:
    """The n_pairs smallest eigenvalues of a Hermitian assembled operator."""
    if n_pairs < 1:
        raise SolverError(f"need at least one eigenpair, got {n_pairs}")
    n = op.n_dof
    if n_pairs > n:
        raise SolverError(f"requested {n_pairs} pairs from a {n}-dof operator")
    lobpcg = len(op.dofmap.grid_shape) >= 2 and op.surface_block is not None
    # ARPACK needs a Krylov basis below n - 1 (so n_pairs < n - 1), LOBPCG a
    # block of at most n/5 columns
    ncv = max(40, 4 * n_pairs + 1)
    if n <= (dense_cutoff or 0) or ncv >= n - 1 or (lobpcg and 5 * n_pairs > n):
        return _dense_pairs(op, n_pairs, tol, seed)
    if lobpcg:
        return _lobpcg_pairs(op, n_pairs, tol, seed)
    return _shift_invert_pairs(op, n_pairs, tol, seed, ncv)


def resolvent(op: AssembledOperator, k: float, lambda_min: float):
    """The map v -> (H + k)^-1 v, factored once (see _factor).

    -k must lie below lambda_min, the smallest eigenvalue of H, so that H + k
    is positive definite and its Cholesky or diagonal-pivot factorization is
    stable. Each solve is checked by its residual, which catches a
    factorization that lost accuracy because the shift sits too close to the
    spectrum, or inside it when the caller overstated lambda_min.
    """
    k = float(k)
    if k <= -lambda_min + 1e-12:
        raise SolverError(
            f"shift k={k:g} is not in the resolvent set (lambda_min={lambda_min:g})"
        )
    solve = _factor(op, -k)[0]

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        x = solve(v.astype(op.matrix.dtype, copy=False))
        res = np.linalg.norm(op.matrix @ x + k * x - v)
        if res > RESOLVENT_RTOL * max(np.linalg.norm(v), 1e-300):
            raise SolverError(
                f"resolvent solve at k={k:g} lost accuracy: residual {res:.2e} "
                f"above RESOLVENT_RTOL={RESOLVENT_RTOL:g} times |v| "
                f"(lambda_min={lambda_min:g})"
            )
        return x

    return apply


@dataclass
class OperatorNormEstimate:
    value: float
    history: np.ndarray
    monotone: bool
    iterations: int

    def __float__(self):
        return self.value


def opnorm_estimate(
    matvec,
    dim: int,
    iters: int = 60,
    seed: int = 42,
    is_complex: bool = False,
) -> OperatorNormEstimate:
    """Two-norm of a self-adjoint map by seeded power iteration.

    The iterate history theta_k = |M v_k| is nondecreasing for self-adjoint
    maps up to round-off; a decrease beyond round-off flags the estimate.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    if is_complex:
        v = v + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    history = np.zeros(iters)
    theta = 0.0
    for it in range(iters):
        w = matvec(v)
        theta = float(np.linalg.norm(w))
        history[it] = theta
        if theta == 0.0:
            history = history[: it + 1]
            break
        v = w / theta
    tolerance = 1e-12 * max(1.0, float(np.max(history, initial=0.0)))
    monotone = bool(np.all(np.diff(history) >= -tolerance))
    return OperatorNormEstimate(
        value=theta, history=history, monotone=monotone, iterations=len(history)
    )
