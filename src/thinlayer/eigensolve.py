"""Lowest eigenpairs, resolvent application and operator-norm estimation.

Dense solves below a size threshold (default 4000 dofs, override per call
with dense_cutoff; the CLI passes solver.dense_threshold). Above it,
shift-invert Lanczos (ARPACK) with a deterministic seeded start vector; its
inverse (H - sigma)^-1 is applied by one of two inner solves, built afresh for
each call:

  * conjugate gradients for layer operators on a 2-D chart (operators that
    carry the surface factor S of their decoupled comparison operator, whose
    chart has two axes). The preconditioner is the exact inverse of
    S (x) I + I (x) T/eps^2 - sigma: the transverse sine basis splits it into
    m_u surface-sized sparse LUs (fast diagonalization). The comparison
    operators bound the layer operator with eps-uniform constants, so the
    iteration counts do not grow as eps shrinks, while a sparse LU of the
    whole layer fills super-linearly on a 2-D grid. A breakdown or a missed
    iteration cap raises SolverError;
  * a sparse LU of H - sigma for everything else: layers over curves, where
    the LU stays banded and is cheaper, surface operators and explicit
    matrices.

resolvent(op, k, lambda_min) factors H + k once by sparse LU and returns the
solve; the caller owns it, and nothing is stored on the operator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dst

from .errors import SolverError
from .operators import AssembledOperator, transverse_energies

DEFAULT_DENSE_THRESHOLD = 4000
DEFAULT_TOL = 1e-10
#: relative residual at which a PCG inner solve stops
PCG_RTOL = 1e-12
#: PCG iterations per inner solve before it raises
PCG_MAXITER = 100
#: relative residual a resolvent solve must meet
RESOLVENT_RTOL = 1e-10


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


def gershgorin_bounds(matrix) -> tuple[float, float]:
    """Cheap enclosure of the spectrum of a Hermitian sparse matrix."""
    diag = matrix.diagonal().real
    absrow = np.asarray(abs(matrix).sum(axis=1)).reshape(-1)
    off = absrow - np.abs(matrix.diagonal())
    return float(np.min(diag - off)), float(np.max(diag + off))


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


@dataclass
class _SolveWork:
    """Work of the inner solves of one shift-invert eigensolve."""

    applications: int = 0
    cg_iterations: int = 0
    cg_iterations_max: int = 0


def _lu_inverse(A, sigma):
    ident = sp.eye_array(A.shape[0], format="csc", dtype=A.dtype)
    return spla.splu((A - sigma * ident).tocsc()).solve


def _decoupled_inverse(op, sigma, dtype):
    """Exact inverse of the decoupled operator S (x) I + I (x) T/eps^2 - c.

    The sampled sine modes diagonalize the transverse factor, and the
    orthonormal DST-I is the transform to them. That leaves one
    surface-sized solve per transverse mode j with S + (E_j/eps^2 - c) I,
    c = renormalization shift + sigma (fast diagonalization). Each diagonal
    shift is raised to at least 1 - floor(S), so every mode block, and the
    preconditioner, is Hermitian positive definite whatever sigma is.
    """
    block = op.surface_block
    m = op.dofmap.m_u
    shifts = np.maximum(
        transverse_energies(m) / op.eps**2
        - op.meta.get("renormalization_shift", 0.0)
        - sigma,
        1.0 - block.floor,
    )
    ident = sp.eye_array(block.matrix.shape[0], format="csc")
    lus = [spla.splu((block.matrix + d * ident).astype(dtype).tocsc()) for d in shifts]

    def apply(r):
        modes = dst(r.reshape(-1, m).T, type=1, norm="ortho", axis=0)
        for j, lu in enumerate(lus):
            modes[j] = lu.solve(modes[j])
        return dst(modes, type=1, norm="ortho", axis=0).T.reshape(-1)

    return apply


def _pcg_inverse(op, sigma, work):
    """(H - sigma)^-1 by conjugate gradients preconditioned with the exact
    inverse of the decoupled comparison operator; raises SolverError on a
    breakdown or when the iteration cap is reached."""
    H = op.matrix
    precond = _decoupled_inverse(op, sigma, H.dtype)

    def solve(b):
        bnorm = np.sqrt(np.vdot(b, b).real)
        x = np.zeros_like(b)
        if bnorm == 0.0:
            return x
        r = b.copy()
        z = precond(r)
        rz = np.vdot(r, z).real
        p = z
        rel = 1.0
        for it in range(1, PCG_MAXITER + 1):
            q = H @ p - sigma * p
            pq = np.vdot(p, q).real
            if not (rz > 0.0 and pq > 0.0):
                raise SolverError(
                    f"PCG broke down at shift {sigma:.17g} after {it - 1} "
                    f"iterations (relative residual {rel:.3e})"
                )
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            rel = np.sqrt(np.vdot(r, r).real) / bnorm
            if rel <= PCG_RTOL:
                work.cg_iterations += it
                work.cg_iterations_max = max(work.cg_iterations_max, it)
                return x
            z = precond(r)
            rz_next = np.vdot(r, z).real
            p = z + (rz_next / rz) * p
            rz = rz_next
        raise SolverError(
            f"PCG did not converge at shift {sigma:.17g} in {PCG_MAXITER} "
            f"iterations (relative residual {rel:.3e} > {PCG_RTOL:g})"
        )

    return solve


def _shift_invert_pairs(op, n_pairs, tol, seed):
    A = op.matrix.tocsc()
    n = A.shape[0]
    certified = op.meta.get("spectral_lower_bound")
    if certified is not None and np.isfinite(certified):
        sigma = float(certified) - 1.0
    else:
        sigma = gershgorin_bounds(A)[0] - 1.0
    rng = np.random.default_rng(seed)
    # PCG for layer operators on a 2-D chart, where an LU of H - sigma fills
    # super-linearly; on a curve the LU stays banded and beats PCG
    pcg = op.surface_block is not None and len(op.dofmap.grid_shape) >= 2
    work = _SolveWork()
    # sigma is a certified lower bound minus 1, so H - sigma >= I: one
    # factorization at one shift, no retries
    solve = _pcg_inverse(op, sigma, work) if pcg else _lu_inverse(A, sigma)

    def counted(b):
        work.applications += 1
        return solve(b)

    try:
        vals, vecs = spla.eigsh(
            A,
            k=n_pairs,
            sigma=sigma,
            which="LM",
            OPinv=spla.LinearOperator(A.shape, matvec=counted, dtype=A.dtype),
            v0=rng.standard_normal(n).astype(A.dtype),
            tol=tol,
            ncv=min(n - 1, max(40, 4 * n_pairs + 1)),
            maxiter=max(4000, 40 * n_pairs),
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverError(
            f"shift-invert Lanczos did not converge: {exc}", residuals=exc.eigenvalues
        )
    order = np.argsort(vals)
    vals = np.asarray(vals[order], float)
    vecs = vecs[:, order]
    return Spectrum(
        values=vals,
        vectors=vecs,
        residuals=_residuals(op.matrix, vals, vecs),
        meta={
            "method": "shift-invert-lanczos",
            "shift": sigma,
            "tol": tol,
            "seed": seed,
            "inner_solve": "pcg" if pcg else "lu",
            "opinv_applications": work.applications,
            "cg_iterations": work.cg_iterations,
            "cg_iterations_max": work.cg_iterations_max,
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
    cutoff = DEFAULT_DENSE_THRESHOLD if dense_cutoff is None else int(dense_cutoff)
    if n <= cutoff or n_pairs >= n - 1:
        return _dense_pairs(op, n_pairs, tol, seed)
    return _shift_invert_pairs(op, n_pairs, tol, seed)


def resolvent(op: AssembledOperator, k: float, lambda_min: float):
    """The map v -> (H + k)^-1 v, factored once by sparse LU.

    -k must lie below lambda_min, the smallest eigenvalue of H. Each solve is
    checked by its residual, which catches a factorization that lost accuracy
    because the shift sits too close to the spectrum.
    """
    k = float(k)
    if k <= -lambda_min + 1e-12:
        raise SolverError(
            f"shift k={k:g} is not in the resolvent set (lambda_min={lambda_min:g})"
        )
    try:
        solve = _lu_inverse(op.matrix.tocsc(), -k)
    except RuntimeError as exc:
        raise SolverError(
            f"factorization of H + {k:g} failed (shift at or near an "
            f"eigenvalue): {exc}"
        )

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        x = solve(v.astype(op.matrix.dtype, copy=False))
        res = np.linalg.norm(op.matrix @ x + k * x - v)
        if res > RESOLVENT_RTOL * max(np.linalg.norm(v), 1e-300):
            near = nearest_eigenvalue(op, -k)
            raise SolverError(
                f"resolvent solve at k={k:g} lost accuracy (residual {res:.2e}); "
                f"nearest eigenvalue ~ {near:.6g}"
            )
        return x

    return apply


def nearest_eigenvalue(op: AssembledOperator, target: float) -> float:
    try:
        val = spla.eigsh(
            op.matrix.tocsc(),
            k=1,
            sigma=target,
            which="LM",
            return_eigenvectors=False,
            v0=np.ones(op.n_dof, dtype=op.matrix.dtype),
        )
        return float(val[0])
    except (spla.ArpackNoConvergence, spla.ArpackError, RuntimeError):
        return float("nan")  # diagnosis only


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
