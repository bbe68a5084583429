"""Lowest eigenpairs, resolvent application and operator-norm estimation.

A dense eigh runs only where no iteration can run or save work, on any chart:
when ARPACK's Krylov basis would reach n - 1 vectors or a LOBPCG block exceed
n/5. dense_cutoff asks for it by size per call; the CLI passes
solver.dense_threshold. Otherwise, the first of three paths that applies:

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
  * the Fourier blocks, for any other operator, on any chart, that is
    shift-invariant along a periodic axis (the test of the Fourier route
    below; a circle in a uniform field, curve h_eff or layer, and a surface
    of revolution in an axial field): the DFT along the axis splits H into
    one block per Fourier mode, and the lowest pairs of H are the lowest
    pairs of the blocks (fast diagonalization, Buzbee, Golub & Nielson
    1970). Blocks are visited by their Gershgorin lower bounds; a block
    whose Cholesky at the current n_pairs-th value succeeds holds no wanted
    pair and is skipped, and the others are solved directly (LAPACK's band
    eigensolver). No iteration runs, so no seed enters and a degenerate pair
    of modes m and -m comes back whole. On the 200x400 sphere h_eff (80,000
    dofs, B = e_z) it solves 5 of 400 blocks and skips 1, in 51-61 ms with
    the symmetry test, and on the 512x17 zero-field circle layer (8,704
    dofs) it solves 3 and skips 254, in 11-14 ms (one BLAS thread; 103-139
    and 16-20 ms with all blocks built as one sparse matrix);
  * shift-invert Lanczos (ARPACK) with a SuperLU factorization of H - sigma
    for the operators without the symmetry: curves of varying curvature (an
    ellipse, a segment), a circle in a gauge that breaks it, surface
    operators in a field that breaks it, and explicit matrices.

LOBPCG and shift-invert use sigma = certified spectral floor - 1, built
afresh for each call. resolvent(op, k, lambda_min) factors H + k once and
returns the solve; the caller owns it, and nothing is stored on the
operator. lowest_eigenpairs and resolvent each run the symmetry test at
most once per call.

Shift-invert and resolvent factor a Hermitian positive definite matrix
(H - sigma >= I at the certified shift, H + k with -k below lambda_min), by
one of two rules (George & Liu 1981), which the symmetry test alone picks;
shift-invert only meets the second, as its operators lack the symmetry:

  * an operator shift-invariant along a periodic chart axis: the Fourier
    route. The rows of the dofs at axis index 0 form a slice; the route
    applies when H equals the matrix that repeats that slice at every node
    of the axis to within ROUNDOFF_FACTOR * u * max|H| in every entry. A
    DFT along that axis splits H - sigma into its Fourier blocks, and a
    band Cholesky factors their bands side by side, in the reverse
    Cuthill-McKee order that _fourier_pairs reads too; a real H keeps modes
    0..n/2 and takes the real FFT. On the 200x400 sphere h_eff (80,000
    dofs, band width 1) it factors in 25-32 ms, symmetry test included,
    against SuperLU's 1.85-1.99 s (13.0M entries) and solves in 3.1-5.4 ms
    against 44-58 ms; a circle layer's blocks are dense, band width m_u - 1
    (one BLAS thread);
  * any other: SuperLU in its symmetric mode, a minimum-degree order on
    A + A^H with diagonal pivots. Without pivoting the factorization of an
    HPD matrix is stable, and a whole operator fills about a third less
    than under the default COLAMD column order with partial pivoting (13.0M
    against 19.3M entries for the 200x400 sphere h_eff). The
    preconditioner's soft surface blocks S + d_j I take the same LU.

scipy's band LAPACK wrappers hold the GIL while they run, so threaded sweep
rows run less in parallel on the Fourier route than under SuperLU. A band
Cholesky that meets a nonpositive pivot raises SolverError, as does a SuperLU
that meets a zero one.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .geometry import PERIODIC
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
    """Ascending eigenvalues with scaled-orthonormal eigenvectors; on every
    path, lowest_eigenpairs fills residuals and meta's tol and seed."""

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


def _dense_pairs(op, n_pairs):
    vals, vecs = sla.eigh(op.matrix.toarray())
    work = {"method": "dense", "shift": None}
    return np.asarray(vals[:n_pairs], float), vecs[:, :n_pairs], work


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


def _rcm(A):
    """A reverse Cuthill-McKee order of the structurally symmetric A."""
    # imported here: scipy.sparse.csgraph (5 ms) is not on the import path of
    # the commands that never take the Fourier route
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    return reverse_cuthill_mckee(A, symmetric_mode=True)


def _circulant_axis(op):
    """The first periodic chart axis along which H is shift-invariant, as
    (axis, (pre, n, post), slice), or None; on a curve the one chart axis is
    tested like any other.

    Dofs are split as (pre, n, post) around the axis of n nodes; the off-axis
    index of a dof is its pre * post position. slice holds the rows of the
    axis-index-0 dofs as (off-axis row, off-axis column, axis offset d,
    value). H is shift-invariant when it equals, to within ROUNDOFF_FACTOR *
    u * max|H| in every entry, the matrix that repeats slice at every node
    of the axis, the one the Fourier route factors. H is read at the repeated
    positions only: it has no entry past the bound elsewhere when as many of
    its entries (duplicates summed) pass the bound as of those read.
    """
    dof, H = op.dofmap, op.matrix
    H = H if H.has_canonical_format else H.tocoo().tocsr()  # duplicates summed
    tol = ROUNDOFF_FACTOR * 2.0**-53 * np.max(np.abs(H.data), initial=0.0)
    beyond = np.count_nonzero(np.abs(H.data) > tol)
    sizes = dof.grid_shape + (dof.m_u,)
    for axis, closure in enumerate(dof.closures):
        if closure != PERIODIC:
            continue
        pre, n, post = int(np.prod(sizes[:axis])), sizes[axis], int(np.prod(sizes[axis + 1:]))
        shape = (pre, n, post)
        # the dof at each (axis index, off-axis index)
        dofs = np.arange(op.n_dof).reshape(shape).transpose(1, 0, 2).reshape(n, pre * post)
        first = H[dofs[0]].tocoo()
        p, d, q = np.unravel_index(first.col, shape)
        row, col = first.row.astype(np.intp), p * post + q  # intp: the sort key passes 2^31
        order = np.argsort((row * (pre * post) + col) * n + d)
        row, col, d, values = row[order], col[order], d[order], first.data[order]
        t = np.arange(n)[:, None]
        at = H[dofs[t, row].ravel(), dofs[(t + d) % n, col].ravel()].reshape(n, -1)
        if np.count_nonzero(np.abs(at) > tol) == beyond:
            at -= values
            if np.max(np.abs(at), initial=0.0) <= tol:
                return axis, shape, (row, col, d, values)
    return None


def _fourier_blocks(slice_, shape, real):
    """The DFT (numpy's fft) of H along its axis of symmetry, one block B_m
    per Fourier mode m, sum_d exp(2 pi i m d / n) times the slice_ part at
    axis offset d: modes 0..n/2 for a real H (blocks m, n - m conjugate).

    Returns bands, perm and lower: bands[m] is the upper band of B_m in
    LAPACK's storage (row w + i - j of column j holds B_m[i, j], w the
    width), rows and columns in the reverse Cuthill-McKee order perm that
    all blocks share; lower[m] is the Gershgorin lower bound of B_m.
    """
    row, col, d, values = slice_
    pre, n, post = shape
    size = pre * post
    perm = _rcm(sp.csr_array((values, (row, col)), shape=(size, size)))
    i, j = np.argsort(perm)[[row, col]]
    upper = j >= i
    i, j, d, values = i[upper], j[upper], d[upper], values[upper]
    width = int(np.max(j - i, initial=0))
    offsets, k = np.unique(d, return_inverse=True)
    band_d = np.zeros((offsets.size, width + 1, size), dtype=values.dtype)
    band_d[k, width + i - j, j] = values
    m = np.arange(n // 2 + 1 if real else n)[:, None]
    bands = np.zeros((m.size, width + 1, size), dtype=complex)
    # m d reduced mod n in integers keeps the phase exact to round-off
    for phase, band in zip(np.exp(2j * np.pi * (m * offsets % n) / n).T, band_d):
        bands += phase[:, None, None] * band
    # |B_ik| over k != i: row i's part above the diagonal, and column i's, the
    # part below by Hermitian symmetry
    above = np.abs(bands[:, :-1])
    off = above.sum(axis=1)
    for r in range(width):
        off[:, : size - width + r] += above[:, r, width - r:]
    return bands, perm, (bands[:, -1].real - off).min(axis=1)


def _fourier_band_cholesky(slice_, shape, real, sigma):
    """Solve with H - sigma for an H that is shift-invariant along one axis,
    and the band's width (superdiagonals).

    A band Cholesky factors the bands of the Fourier blocks of H - sigma side
    by side; a solve is an FFT along the axis, one band solve and the inverse
    FFT. A real H takes a real b through the real FFT, modes 0..n/2.
    """
    pre, n, post = shape
    bands, perm, _ = _fourier_blocks(slice_, shape, real)
    rank = np.argsort(perm)
    band = np.concatenate(bands, axis=1)
    band[-1] -= sigma
    factor = (sla.cholesky_banded(band, check_finite=False), False)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    modes, size = len(bands), pre * post

    def solve(b):
        x = np.moveaxis(fft(b.reshape(pre, n, post, -1), axis=1), 1, 0)
        x = x.reshape(modes, size, -1)[:, perm].reshape(modes * size, -1)
        x = sla.cho_solve_banded(factor, x, check_finite=False).reshape(modes, size, -1)
        x = np.moveaxis(x[:, rank].reshape(modes, pre, post, -1), 0, 1)
        return ifft(x, n, axis=1).reshape(b.shape)

    return solve, len(band) - 1


def _factor(op, sigma, circulant):
    """Factor the Hermitian positive definite H - sigma once: its solve and a
    label naming the factorization with its band width or LU fill.

    The two rules of the module docstring: the Fourier route when circulant,
    the caller's _circulant_axis(op), names an axis, SuperLU otherwise. A band
    Cholesky that meets a nonpositive pivot, or a SuperLU a zero one, raises
    SolverError naming the shift.
    """
    try:
        if circulant is not None:
            axis, shape, slice_ = circulant
            solve, width = _fourier_band_cholesky(slice_, shape, not op.is_complex, sigma)
            name = op.dofmap.axis_names[axis]
            return solve, f"fourier-band-cholesky(axis={name}, width={width})"
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
    return vals, X, {
        "method": "lobpcg",
        "shift": sigma,
        "iterations": iterations,
        "block_size": n_pairs,
        "residual_target": target,
        "surface_lus": surface_lus,
    }


def _fourier_pairs(op, n_pairs, circulant):
    """The n_pairs lowest eigenpairs of an H shift-invariant along an axis of
    n nodes, from its Fourier blocks.

    An eigenpair (lambda, y) of the block B_m of mode m gives the eigenpair
    (lambda, y (x) exp(2 pi i m t / n) / sqrt(n)) of H, t the axis index. The
    modes are visited by the Gershgorin lower bounds of their blocks,
    ascending, until a bound exceeds the n_pairs-th value found so far,
    lambda_k. A block whose B_m - lambda_k takes a band Cholesky has no
    eigenvalue below lambda_k (Sylvester's law of inertia) and is skipped;
    every other block gives its n_pairs lowest pairs (eig_banded) from its
    band. A real H has modes 0..n/2, whose blocks at 0 and n/2 are real, and
    each mode 0 < m < n/2 gives the two real eigenvectors sqrt(2) Re x and
    sqrt(2) Im x of every pair.
    """
    _, shape, slice_ = circulant
    pre, n, post = shape
    size = pre * post
    real = not op.is_complex
    bands, perm, lower = _fourier_blocks(slice_, shape, real)
    rank = np.argsort(perm)
    # (value, mode, column of the block's pairs, part): part 1 is the
    # imaginary-part vector of a real H
    pairs, block_vectors, skipped = [], {}, 0
    for m in np.argsort(lower, kind="stable"):
        block = bands[m]
        if real and 2 * m % n == 0:
            block = block.real
        if len(pairs) >= n_pairs:
            cut = sorted(p[0] for p in pairs)[n_pairs - 1]
            if lower[m] > cut:
                break
            shifted = block.copy()
            shifted[-1] -= cut
            try:
                sla.cholesky_banded(shifted, check_finite=False)
                skipped += 1
                continue
            except np.linalg.LinAlgError:
                pass
        w, block_vectors[m] = sla.eig_banded(
            block, select="i", select_range=(0, min(n_pairs, size) - 1), check_finite=False
        )
        parts = 2 if real and 2 * m % n else 1
        pairs += [(v, m, j, part) for j, v in enumerate(w) for part in range(parts)]
    pairs = sorted(pairs)[:n_pairs]
    t = np.arange(n)
    vecs = np.empty((pre, n, post, n_pairs), dtype=op.matrix.dtype)
    for i, (_, m, j, part) in enumerate(pairs):
        y = block_vectors[m][rank, j].reshape(pre, 1, post)
        x = y * np.exp(2j * np.pi * (m * t % n) / n)[:, None] / np.sqrt(n)
        if real:
            x = np.sqrt(2.0) * (x.imag if part else x.real) if 2 * m % n else x.real
        vecs[..., i] = x
    values = np.array([p[0] for p in pairs])
    work = {"method": "fourier-blocks", "shift": None, "blocks": len(block_vectors),
            "skipped": skipped}
    return values, vecs.reshape(op.n_dof, n_pairs), work


def _shift_invert_pairs(op, n_pairs, tol, seed, ncv):
    sigma = _certified_shift(op)
    # sigma is a certified lower bound minus 1, so H - sigma >= I: one
    # factorization at one shift, no retries
    solve, factor = _factor(op, sigma, None)
    A = op.matrix
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
    return vals, vecs, {"method": "shift-invert-lanczos", "shift": sigma, "factor": factor}


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
        vals, vecs, work = _dense_pairs(op, n_pairs)
    elif lobpcg:
        vals, vecs, work = _lobpcg_pairs(op, n_pairs, tol, seed)
    elif (circulant := _circulant_axis(op)) is not None:
        vals, vecs, work = _fourier_pairs(op, n_pairs, circulant)
    else:
        vals, vecs, work = _shift_invert_pairs(op, n_pairs, tol, seed, ncv)
    meta = {"tol": tol, "seed": seed, **work}
    return Spectrum(vals, vecs, _residuals(op.matrix, vals, vecs), meta)


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
    solve = _factor(op, -k, _circulant_axis(op))[0]

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if op.is_complex or np.isrealobj(v):
            x = solve(v.astype(op.matrix.dtype, copy=False))
        else:  # a real factor solves the real and imaginary parts apart
            x = solve(v.real) + 1j * solve(v.imag)
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
    iterations: int


def opnorm_estimate(
    matvec,
    dim: int,
    iters: int = 60,
    seed: int = 42,
    is_complex: bool = False,
) -> OperatorNormEstimate:
    """Two-norm of a self-adjoint map by seeded power iteration: the last
    |M v_k|, after iters steps or at the first that maps to zero."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    if is_complex:
        v = v + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    theta, iterations = 0.0, 0
    for iterations in range(1, iters + 1):
        w = matvec(v)
        theta = float(np.linalg.norm(w))
        if theta == 0.0:
            break
        v = w / theta
    return OperatorNormEstimate(value=theta, iterations=iterations)
