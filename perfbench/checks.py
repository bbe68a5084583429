"""Output checks for the benchmark workloads.

Each check reads what one CLI invocation wrote to its output directory and
returns a list of (key, message) problems; an empty list means the outputs
are correct. The key lets a workload name a problem as a known defect.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# |mu + 1/4| allowed for the circle's effective ground state (kappa = 1).
CIRCLE_MU_TOL = 1e-9
# Eigenvalues must match the references to this relative precision.
EIGENVALUE_RTOL = 1e-8
# A residual may reach this multiple of the solver tol times max(1, |lambda|).
RESIDUAL_FACTOR = 100.0
# Curvature and v_eff columns against closed form.
CURVATURE_ATOL = 1e-12


def _exit(code: int) -> list:
    return [] if code == 0 else [("exit", f"exit code {code}")]


def circle_sweep(out: Path, code: int, cfg: dict) -> list:
    """Every sweep row's mu is the closed-form -kappa^2/4 = -1/4."""
    problems = _exit(code)
    path = out / "converge.csv"
    if not path.exists():
        return problems + [("missing", f"{path.name} not written")]
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    expected = len(cfg["sweep"]["epsilons"]) * cfg["solver"]["n_eigenpairs"]
    if len(rows) != expected:
        problems.append(("rows", f"{len(rows)} sweep rows, expected {expected}"))
    for r in rows:
        mu = float(r["mu"])
        if not abs(mu + 0.25) <= CIRCLE_MU_TOL:
            problems.append(("mu", f"eps={r['eps']} n={r['n']}: mu={mu!r}, expected -0.25"))
    return problems


def spectrum(out: Path, code: int, cfg: dict, reference: tuple) -> list:
    """Eigenvalues match the reference; residuals stay within the solver tol."""
    problems = _exit(code)
    path = out / "spectrum.csv"
    if not path.exists():
        return problems + [("missing", f"{path.name} not written")]
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(reference):
        return problems + [("pairs", f"{len(rows)} eigenpairs, expected {len(reference)}")]
    tol = cfg["solver"]["tol"]
    for r, ref in zip(rows, reference):
        lam, res = float(r["eigenvalue"]), float(r["residual"])
        scale = max(1.0, abs(ref))
        if not abs(lam - ref) <= EIGENVALUE_RTOL * scale:
            problems.append(("eigenvalue", f"n={r['n']}: {lam!r} != reference {ref!r}"))
        if not res <= RESIDUAL_FACTOR * tol * scale:
            problems.append(("residual", f"n={r['n']}: residual {res:.3g} above bound"))
    return problems


def _closed_form_curvatures(summary: dict, theta: float) -> tuple[float, float]:
    kind, params = summary["family"], summary["params"]
    if kind == "torus":
        R, r = params["major"], params["minor"]
        return 1.0 / r, math.cos(theta) / (R + r * math.cos(theta))
    if kind == "full-sphere":
        return 1.0 / params["radius"], 1.0 / params["radius"]
    raise ValueError(f"no closed form for {kind}")


def geometry(out: Path, code: int, cfg: dict) -> list:
    """One CSV row per node, closed-form curvatures and v_eff, and the layer
    of half-width embedding_epsilon reported as embedded (true for the torus
    and the sphere of the benchmark)."""
    problems = _exit(code)
    csv_path, json_path = out / "geometry.csv", out / "geometry_summary.json"
    if not (csv_path.exists() and json_path.exists()):
        return problems + [("missing", "geometry outputs not written")]
    summary = json.loads(json_path.read_text())
    n_nodes = math.prod(cfg["geometry"]["grid"])
    bad = 0
    rows = 0
    with csv_path.open() as fh:
        for r in csv.DictReader(fh):
            rows += 1
            k1, k2 = _closed_form_curvatures(summary, float(r["theta"]))
            expected = {
                "kappa_1": k1,
                "kappa_2": k2,
                "K_1": 0.5 * (k1 + k2),
                "K_2": k1 * k2,
                "v_eff": -0.25 * (k1 - k2) ** 2,
            }
            if any(
                not abs(float(r[col]) - val) <= CURVATURE_ATOL * max(1.0, abs(val))
                for col, val in expected.items()
            ):
                bad += 1
    if rows != n_nodes:
        problems.append(("rows", f"{rows} CSV rows for {n_nodes} nodes"))
    if bad:
        problems.append(("curvature", f"{bad} rows differ from the closed form"))
    emb = summary.get("embedding", {})
    if emb.get("passed") is not True:
        problems.append(
            (
                "embedding-verdict",
                f"{summary['family']}: layer of eps={emb.get('eps')} reported as not "
                f"embedded (clearance {emb.get('clearance')} < margin "
                f"{emb.get('margin')}, pair {emb.get('offending_pair')})",
            )
        )
    return problems
