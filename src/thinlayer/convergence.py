"""Shrinking-width sweeps: eigenvalue, eigenfunction and resolvent-difference
convergence of the renormalized layer operator toward the effective surface
Hamiltonian, plus the transverse spectral-gap check and rate fitting."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.special import stdtrit

from .eigensolve import cluster_indices, lowest_eigenpairs, opnorm_estimate, resolvent
from .errors import EmbeddingError, FitError, ThinLayerError
from .geometry import (
    GeometryFamily,
    build_patch,
    check_embedding,
    layer_geometry,
    transverse_nodes,
)
from .magnetics import (
    AmbientField,
    ScalarPotential,
    effective_field,
    layer_potential,
)
from .operators import (
    AssembledOperator,
    TRANSVERSE_GROUND_ENERGY,
    assemble_effective,
    assemble_full,
    comparison_constants,
    renormalize,
)

EXACT_TAG = "exact"
INSUFFICIENT_TAG = "insufficient"
#: acceptance of the fitted rates: the cluster-gap slope must fall in the
#: window, which holds the proved first order and the second order seen on the
#: circle; every other slope must reach the proved first order, less slack
SLOPE_WINDOW = (0.9, 2.3)
SLOPE_MIN = 0.9


@dataclass(frozen=True)
class TransverseMode:
    """Ground transverse profile cos(pi u / 2) and its rank-one projector."""

    m_u: int
    chi_scaled: np.ndarray  # sqrt(h_u) * cos(pi u / 2); exactly unit two-norm

    @classmethod
    def from_count(cls, m_u: int) -> "TransverseMode":
        u, h = transverse_nodes(m_u)
        return cls(m_u=m_u, chi_scaled=np.sqrt(h) * np.cos(0.5 * np.pi * u))

    def project_ground(self, vec: np.ndarray) -> np.ndarray:
        """Ground-mode coefficients of a scaled product-grid vector, or of
        each column of a block of them."""
        return np.moveaxis(vec.reshape((-1, self.m_u) + vec.shape[1:]), 1, -1) @ self.chi_scaled

    def embed(self, surf: np.ndarray) -> np.ndarray:
        """Surface vector, or block of column vectors, times the ground
        profile, as product-grid vector(s) (transverse index fastest)."""
        chi = self.chi_scaled.reshape((-1,) + (1,) * (surf.ndim - 1))
        return (surf[:, None] * chi).reshape((-1,) + surf.shape[1:])

    def apply_p1(self, vec: np.ndarray) -> np.ndarray:
        return self.embed(self.project_ground(vec))

    def apply_q(self, vec: np.ndarray) -> np.ndarray:
        return vec - self.apply_p1(vec)

    def leakage(self, block: np.ndarray) -> float:
        """Spectral norm of Q times a block of column vectors."""
        return float(np.linalg.norm(self.apply_q(block), 2))


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    band95: tuple[float, float]
    residual_rms: float
    n_used: int
    excluded: tuple[int, ...]
    tag: str = "fit"


def fit_rate(eps_values, values) -> FitResult:
    """Least-squares slope of log(value) against log(eps).

    Nonpositive values are excluded (they carry a flag in the result); fewer
    than three usable points refuse the fit.
    """
    eps_values = np.asarray(eps_values, float)
    values = np.asarray(values, float)
    good = values > 0
    excluded = tuple(int(i) for i in np.nonzero(~good)[0])
    if int(good.sum()) < 3:
        raise FitError(
            f"rate fit needs >= 3 positive values, got {int(good.sum())}"
        )
    x = np.log(eps_values[good])
    y = np.log(values[good])
    n = x.size
    A = np.stack([x, np.ones_like(x)], 1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    r = y - A @ coef
    rms = float(np.sqrt(np.mean(r * r)))
    denom = float(np.sum((x - x.mean()) ** 2))
    if n > 2 and denom > 0:
        s2 = float(np.sum(r * r)) / (n - 2)
        stderr = float(np.sqrt(s2 / denom))
        half = float(stdtrit(n - 2, 0.975)) * stderr
    else:
        stderr = 0.0
        half = 0.0
    return FitResult(
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        band95=(slope - half, slope + half),
        residual_rms=rms,
        n_used=n,
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# transverse gap bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapBoundReport:
    margin: float  # measured smallest transverse excitation
    bound: float  # 3 pi^2 / (4 eps^2)
    lambda_min: float
    lambda_min_excited: float
    rq_min_sampled: float
    n_samples: int


def gap_bound_report(
    layer, op: AssembledOperator, tol: float = 1e-11, seed: int = 42,
    n_samples: int = 200, dense_cutoff: int | None = None,
) -> GapBoundReport:
    """Measure the energy protecting the lowest transverse branch.

    margin = smallest eigenvalue outside the ground transverse sector minus
    the ground energy; it must stay at or above 3 pi^2 / (4 eps^2) up to the
    spread of the effective surface energies. Random Rayleigh quotients in the
    excited sector provide an independent sampled verification.
    """
    if not op.renormalization_shift:
        raise ThinLayerError("gap bound check expects a renormalized operator")
    mode = TransverseMode.from_count(layer.m_u)
    eps = layer.eps
    bound = 3.0 * np.pi**2 / (4.0 * eps**2)
    spec = lowest_eigenpairs(op, 1, tol=tol, seed=seed, dense_cutoff=dense_cutoff)
    lam1 = float(spec.values[0])
    ns = op.n_dof // mode.m_u
    proj = sp.csr_array(np.outer(mode.chi_scaled, mode.chi_scaled))
    P1 = sp.csr_array(sp.kron(sp.eye_array(ns, format="csr"), proj, format="csr"))
    penalty = 50.0 * (bound + abs(lam1)) + 10.0
    # the penalty is positive semidefinite, so the spectral floor carries
    # over; it breaks the decoupled structure, so the surface factor does not
    shifted = replace(
        op,
        matrix=sp.csr_array(op.matrix + penalty * P1.astype(op.matrix.dtype)),
        kind="penalized",
        surface_block=None,
    )
    spec_q = lowest_eigenpairs(shifted, 1, tol=tol, seed=seed, dense_cutoff=dense_cutoff)
    lam_q = float(spec_q.values[0])
    # the ground sector is only approximately invariant for the coupled
    # operator, so a small residual component is expected
    ground_leak = float(np.linalg.norm(mode.project_ground(spec_q.vectors[:, 0])))
    if ground_leak > 1e-3:
        raise ThinLayerError(
            f"penalized eigenvector leaks into the ground sector ({ground_leak:.1e}); "
            "increase the penalty or refine the grid"
        )
    rng = np.random.default_rng(seed)
    rq_min = np.inf
    H = op.matrix
    for _ in range(n_samples):
        v = rng.standard_normal(op.n_dof)
        if op.is_complex:
            v = v + 1j * rng.standard_normal(op.n_dof)
        v = mode.apply_q(v)
        nrm2 = float(np.real(np.vdot(v, v)))
        if nrm2 == 0.0:
            continue
        rq = float(np.real(np.vdot(v, H @ v))) / nrm2
        rq_min = min(rq_min, rq)
    return GapBoundReport(
        margin=lam_q - lam1,
        bound=bound,
        lambda_min=lam1,
        lambda_min_excited=lam_q,
        rq_min_sampled=float(rq_min),
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# sweep harness
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    family: GeometryFamily
    grid: tuple
    field: AmbientField
    epsilons: tuple
    m_u: int = 17
    n_pairs: int = 1
    electric: ScalarPotential | None = None
    tol: float = 1e-11
    seed: int = 42
    dense_cutoff: int | None = None
    grid_doubling: bool = True
    threads: int = 1


@dataclass
class SweepRow:
    eps: float
    n: int
    lam: float = np.nan
    mu: float = np.nan
    gap: float = np.nan
    cluster_gap: float = np.nan
    efunc: float = np.nan
    leakage: float = np.nan
    resolvent: float = np.nan
    disc_est: float = np.nan
    flags: list = field(default_factory=list)
    skipped: bool = False
    reason: str = ""


@dataclass
class ConvergenceReport:
    rows: list
    fits: dict
    k: float
    meta: dict

    def observable_values(self, name: str):
        """(eps, value) arrays of unflagged n=1 rows for one observable."""
        eps, vals = [], []
        for r in self.rows:
            if r.n != 1 or r.skipped or r.flags:
                continue
            eps.append(r.eps)
            vals.append(getattr(r, name))
        return np.asarray(eps), np.asarray(vals)

    def summary(self) -> dict:
        fits = {
            name: (asdict(fr) if isinstance(fr, FitResult) else {"tag": fr})
            for name, fr in self.fits.items()
        }
        return {
            "k": self.k,
            "fits": fits,
            "meta": self.meta,
            "rows": len(self.rows),
            "flagged_rows": sum(1 for r in self.rows if r.flags or r.skipped),
        }


def _solve_row(spec: SweepSpec, patch, eff_spec, eps):
    """Renormalized layer operator at one width on a patch, as many of its
    lowest eigenpairs as eff_spec holds, and the effective clusters that hold
    a row.

    Eigenpairs are matched by position: each effective degenerate cluster
    (`cluster_indices`) takes the layer eigenpairs in the same positions.
    Returns (hren, full_spec, clusters, cluster_gap); cluster_gap[a]
    (a < n_pairs) is the distance from mu_a to the mean of the layer
    eigenvalues in its cluster's positions.
    """
    layer = layer_geometry(patch, eps, spec.m_u)
    pot = layer_potential(spec.field, layer)
    hren = renormalize(assemble_full(layer, pot, spec.electric))
    full_spec = lowest_eigenpairs(hren, eff_spec.n_pairs, tol=spec.tol, seed=spec.seed,
                                  dense_cutoff=spec.dense_cutoff)
    clusters = [cl for cl in cluster_indices(eff_spec.values) if cl[0] < spec.n_pairs]
    cluster_gap = np.full(spec.n_pairs, np.nan)
    for cl in clusters:
        lam_mean = float(np.mean(full_spec.values[cl]))
        for a in range(cl[0], min(cl[-1] + 1, spec.n_pairs)):
            cluster_gap[a] = abs(lam_mean - eff_spec.values[a])
    return hren, full_spec, clusters, cluster_gap


def _cluster_discrepancy(E, Y) -> float:
    """min over unitary U of |E - Y U|_2 for orthonormal column blocks E and
    Y, which is 2 sin(theta_max / 2) for their largest principal angle.

    The polar factor U of Y^H E attains the minimum. The difference keeps
    full precision at small angles, where sqrt(2 (1 - cos theta_max)) loses
    half the digits to round-off.
    """
    W, _, Vh = np.linalg.svd(Y.conj().T @ E)
    return float(np.linalg.norm(E - Y @ (W @ Vh), 2))


def _cluster_mismatch(mu, lam, cl) -> bool:
    """Whether the layer eigenvalues lam in the positions of the effective
    cluster cl of mu may belong to another cluster: cl reaches the last
    solved value, so it may be cut, or a layer value has moved half the way
    to a neighbouring cluster, so the order may have swapped or the
    eigensolver may have missed a partner."""
    if cl[-1] == mu.size - 1:
        return True
    sep = mu[cl[-1] + 1] - mu[cl[-1]]
    if cl[0] > 0:
        sep = min(sep, mu[cl[0]] - mu[cl[0] - 1])
    return 2.0 * float(np.max(np.abs(lam[cl] - mu[cl]))) >= sep


def _effective_pairs(spec: SweepSpec, patch):
    """Effective operator on a patch and its n_pairs + 3 lowest pairs."""
    heff = assemble_effective(patch, effective_field(spec.field, patch), spec.electric)
    eff_spec = lowest_eigenpairs(
        heff, min(spec.n_pairs + 3, heff.n_dof), tol=spec.tol, seed=spec.seed,
        dense_cutoff=spec.dense_cutoff,
    )
    return heff, eff_spec


def _failure(exc: ThinLayerError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_sweep(spec: SweepSpec) -> ConvergenceReport:
    """Run the shrinking-width sweep and collect the convergence report."""
    eps_list = tuple(float(e) for e in spec.epsilons)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ThinLayerError("epsilon list must be strictly decreasing")
    patch = build_patch(spec.family, spec.grid)
    emb0 = check_embedding(patch, max(eps_list))
    if not emb0.passed:
        raise EmbeddingError(
            f"embedding fails at the largest eps: {emb0.reason} "
            f"(pair {emb0.offending_pair})"
        )
    mode = TransverseMode.from_count(spec.m_u)
    heff, eff_spec = _effective_pairs(spec, patch)

    # k policy: evaluated at the largest width, shared across the sweep, from
    # the effective operator's floor, which counts the electric trace
    layer0 = layer_geometry(patch, eps_list[0], spec.m_u)
    pot0 = layer_potential(spec.field, layer0)
    offset0 = comparison_constants(layer0, pot0, spec.electric).offset
    k = max(1.0, 2.0 * abs(heff.spectral_lower_bound) + 1.0 + offset0)

    # everything the rows share is built here, before the rows run, and only
    # read afterwards; below the round-off floor a gap or an observable is
    # zero to the solver's accuracy
    roundoff_floor = max(1e-10, 100.0 * spec.tol)
    heff_resolvent = resolvent(heff, k, eff_spec.values[0])
    patch_fine = eff_spec_fine = fine_failure = None
    if spec.grid_doubling and spec.family.kind != "user-sampled":
        fine_grid = tuple(2 * n for n in np.atleast_1d(spec.grid))
        patch_fine = build_patch(spec.family, fine_grid)
        try:
            eff_spec_fine = _effective_pairs(spec, patch_fine)[1]
        except ThinLayerError as exc:
            fine_failure = _failure(exc)

    def one_row(eps: float) -> tuple[list[SweepRow], dict | None]:
        """The rows at one width, and {eps, reason} when the grid-doubling
        estimate failed."""
        emb = check_embedding(patch, eps)
        if not emb.passed:
            return [
                SweepRow(eps=eps, n=n + 1, skipped=True, reason=emb.reason or "embedding")
                for n in range(spec.n_pairs)
            ], None
        hren, full_spec, clusters, cluster_gap = _solve_row(spec, patch, eff_spec, eps)
        hren_resolvent = resolvent(hren, k, full_spec.values[0])

        def mv(v):
            y = heff_resolvent(mode.project_ground(v))
            return hren_resolvent(v) - mode.embed(y)

        res_norm = opnorm_estimate(
            mv, hren.n_dof, seed=spec.seed, is_complex=hren.is_complex or heff.is_complex
        ).value

        # the estimate is advisory: on a failure the row keeps a NaN and the
        # summary says why
        disc = np.full(spec.n_pairs, np.nan)
        failure = fine_failure
        if eff_spec_fine is not None:
            try:
                gaps_fine = _solve_row(spec, patch_fine, eff_spec_fine, eps)[-1]
                disc = np.abs(cluster_gap - gaps_fine)
            except ThinLayerError as exc:
                failure = _failure(exc)

        rows = []
        for cl in clusters:
            Y = full_spec.vectors[:, cl]
            efunc = _cluster_discrepancy(mode.embed(eff_spec.vectors[:, cl]), Y)
            leakage = mode.leakage(Y)
            mismatch = _cluster_mismatch(eff_spec.values, full_spec.values, cl)
            for a in range(cl[0], min(cl[-1] + 1, spec.n_pairs)):
                flags = ["cluster-match"] if mismatch else []
                if (
                    np.isfinite(disc[a])
                    and cluster_gap[a] > roundoff_floor
                    and disc[a] > 0.2 * cluster_gap[a]
                ):
                    flags.append("discretization")
                lam, mu = float(full_spec.values[a]), float(eff_spec.values[a])
                rows.append(
                    SweepRow(
                        eps=eps,
                        n=a + 1,
                        lam=lam,
                        mu=mu,
                        gap=abs(lam - mu),
                        cluster_gap=float(cluster_gap[a]),
                        efunc=efunc,
                        leakage=leakage,
                        resolvent=res_norm,
                        disc_est=float(disc[a]) if np.isfinite(disc[a]) else np.nan,
                        flags=flags,
                    )
                )
        return rows, None if failure is None else {"eps": eps, "reason": failure}

    with ThreadPoolExecutor(max_workers=spec.threads) as pool:
        chunks = list(pool.map(one_row, eps_list))
    rows = [r for chunk, _ in chunks for r in chunk]
    disc_failures = [f for _, f in chunks if f is not None]

    meta = {
        "geometry": patch.label(),
        "field": spec.field.label,
        "grid": [int(n) for n in np.atleast_1d(spec.grid)],
        "m_u": spec.m_u,
        "n_pairs": spec.n_pairs,
        "epsilons": list(eps_list),
        "seed": spec.seed,
        "tol": spec.tol,
        "slope_window": list(SLOPE_WINDOW),
        "slope_min": SLOPE_MIN,
        "transverse_shift_at_largest_eps": TRANSVERSE_GROUND_ENERGY / eps_list[0] ** 2,
        "smallest_resolved_epsilon": min(
            (r.eps for r in rows if r.n == 1 and not (r.skipped or r.flags)),
            default=None,
        ),
    }
    if disc_failures:
        meta["disc_estimate_failures"] = disc_failures
    report = ConvergenceReport(rows=rows, fits={}, k=k, meta=meta)

    # eigenfunction-type observables sit at the square root of round-off when
    # the discrete operators coincide (norms of nearly identical unit vectors)
    exact_tols = {
        "cluster_gap": roundoff_floor,
        "efunc": max(1e-7, np.sqrt(roundoff_floor)),
        "leakage": max(1e-7, np.sqrt(roundoff_floor)),
        "resolvent": roundoff_floor,
    }
    for name in ("cluster_gap", "efunc", "leakage", "resolvent"):
        eps_v, vals = report.observable_values(name)
        if vals.size and np.all(np.abs(vals) <= exact_tols[name]):
            report.fits[name] = EXACT_TAG
            continue
        try:
            report.fits[name] = fit_rate(eps_v, vals)
        except FitError:
            report.fits[name] = INSUFFICIENT_TAG
    return report


def sweep_acceptance(report: ConvergenceReport) -> tuple[bool, list[str]]:
    """Evaluate fitted slopes against their windows; True when all pass."""
    lo, hi = SLOPE_WINDOW
    problems = []
    for name, fr in report.fits.items():
        if fr == EXACT_TAG:
            continue
        if fr == INSUFFICIENT_TAG:
            problems.append(f"{name}: not enough usable points for a rate fit")
            continue
        s = fr.slope
        if name == "cluster_gap":
            if not (lo <= s <= hi):
                problems.append(f"{name}: slope {s:.3f} outside [{lo}, {hi}]")
        else:
            if s < SLOPE_MIN:
                problems.append(f"{name}: slope {s:.3f} below {SLOPE_MIN}")
    flagged = [r for r in report.rows if r.flags or r.skipped]
    if flagged:
        problems.append(f"{len(flagged)} flagged or skipped rows")
    return (not problems), problems
