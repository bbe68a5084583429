"""Batch front-end: geometry reports, one-shot spectra, convergence sweeps.

Exit codes: 0 ok, 2 config error, 3 solver error, 4 acceptance violation.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    build_electric,
    build_family,
    build_field,
    load_config,
)
from .errors import ConfigError, EmbeddingError, GeometryError, SolverError, ThinLayerError
from .geometry import (
    build_patch,
    check_embedding,
    curvature_regularity_report,
    layer_geometry,
    v_eff,
)
from .magnetics import effective_field, layer_potential

log = logging.getLogger("thinlayer")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ACCEPTANCE = 4


def _bundled_openblas() -> list:
    """(get, set) thread-count functions of the OpenBLAS that the numpy and
    scipy wheels bundle; empty where they link another BLAS. scipy's counts
    only once scipy is imported: a command that never imports it (`geometry`)
    runs none of its BLAS."""
    found = []
    for package in filter(None, (np, sys.modules.get("scipy"))):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
                get = getattr(lib, name.format("get"), None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_threads = getattr(lib, name.format("set"))
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    found.append((get, set_threads))
                    break
    return found


@contextlib.contextmanager
def _one_blas_thread():
    """Pin every bundled OpenBLAS to one thread and restore the previous
    counts on exit, unless OPENBLAS_NUM_THREADS chooses the count.

    A second OpenBLAS thread spins between the small BLAS calls of SuperLU,
    ARPACK and LOBPCG and makes no solve faster (README, "Threads"); a
    sweep's parallelism comes from its rows. Yields the log line's text.
    """
    chosen = os.environ.get("OPENBLAS_NUM_THREADS")
    if chosen:
        yield f"threads left to OPENBLAS_NUM_THREADS={chosen}"
        return
    libs = _bundled_openblas()
    if not libs:
        yield "threads left to the BLAS library (no bundled OpenBLAS)"
        return
    before = [get() for get, _ in libs]
    for _, set_threads in libs:
        set_threads(1)
    try:
        yield f"1 thread ({len(libs)} bundled OpenBLAS pinned)"
    finally:
        for (_, set_threads), count in zip(libs, before):
            set_threads(count)


CSV_CHUNK_ROWS = 8192  # rows _write_csv formats and writes at a time; bounds the text held


@contextlib.contextmanager
def _atomic_file(path: Path):
    """A text file to write `path` through: it is opened beside `path` under
    a per-process name, moved onto `path` when the block succeeds, and
    removed when the block raises, leaving any earlier `path` as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, text: str):
    with _atomic_file(path) as fh:
        fh.write(text)


def _format_column(values: np.ndarray) -> list:
    """The %.17g text of each float64 in `values`, formatting each distinct
    bit pattern once. Bits, not values: 0.0 and -0.0 are equal but print
    differently, and a NaN equals nothing."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_csv(path: Path, header: list, n_rows: int, columns: list):
    """One CSV table: the header line, then the columns side by side, every
    number in %.17g (integers held as floats print without a point); the
    bytes equal numpy.savetxt's with that format. The columns of a chart-grid
    table repeat few values, so each chunk formats each distinct one once."""
    blocks = [np.reshape(c, (n_rows, -1)) for c in columns]
    with _atomic_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            text = [
                _format_column(np.ascontiguousarray(block[rows, j], dtype=np.float64))
                for block in blocks
                for j in range(block.shape[1])
            ]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def _finite_or_null(obj):
    """`obj` with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return None
    return obj


def _json_dump(obj) -> str:
    """Strict JSON: a non-finite float is written as null, never as NaN or
    Infinity."""
    import json

    obj = _finite_or_null(obj)
    return json.dumps(obj, indent=1, sort_keys=True, default=float, allow_nan=False) + "\n"


def _solver_args(cfg: RunConfig, seed_override, tol=1e-10):
    return {
        "tol": cfg.solver_opt("tol", tol),
        "seed": seed_override if seed_override is not None else cfg.solver_opt("seed", 42),
        "dense_cutoff": cfg.solver_opt("dense_threshold", None),
    }


def cmd_geometry(cfg: RunConfig, out: Path, args) -> int:
    family, grid = build_family(cfg)
    patch = build_patch(family, grid)
    dim = patch.ambient_dim
    has_field = "field" in cfg.raw
    eff = None
    if has_field:
        field = build_field(cfg, dim)
        eff = effective_field(field, patch)

    naxes = len(patch.axes)
    header = [f"i{k + 1}" for k in range(naxes)]
    header += [ax.name for ax in patch.axes]
    header += ["x", "y", "z"][:dim]
    header += [f"kappa_{m + 1}" for m in range(patch.dim)]
    header += [f"K_{m + 1}" for m in range(patch.dim)]
    header += ["v_eff"]
    gshape = patch.grid_shape
    columns = [
        np.stack(np.indices(gshape), -1),
        np.stack(np.meshgrid(*(ax.nodes for ax in patch.axes), indexing="ij"), -1),
        patch.x,
        patch.kappa,
        patch.mean_curv,
        v_eff(patch.kappa),
    ]
    if eff is not None and eff.b_eff is not None:
        header += ["b_eff"]
        columns += [eff.b_eff]

    outs = cfg.raw.get("geometry_outputs", {})
    csv_path = out / outs.get("csv", "geometry.csv")
    json_path = out / outs.get("json", "geometry_summary.json")
    _write_csv(csv_path, header, patch.n_nodes, columns)

    summary = {
        "family": patch.family.kind,
        "params": patch.family.params,
        "grid": list(gshape),
        "closures": list(patch.closures),
        "rho_m": patch.rho_m,
        "curvature_regularity": curvature_regularity_report(patch),
    }
    if eff is not None:
        summary["field"] = cfg.field.get("kind")
        if dim == 2:
            summary["flux"] = eff.flux
            summary["gauged_out"] = eff.gauged_out
    emb_eps = cfg.geometry.get("embedding_epsilon")
    if emb_eps is not None:
        rep = check_embedding(patch, float(emb_eps))
        summary["embedding"] = {
            "eps": rep.eps,
            "passed": rep.passed,
            "rho_ok": rep.rho_ok,
            "injectivity_ok": rep.injectivity_ok,
            "clearance": rep.clearance,
            "margin": rep.margin,
            "offending_pair": None
            if rep.offending_pair is None
            else [list(map(int, p)) for p in rep.offending_pair],
            "reason": rep.reason,
        }
    _atomic_write(json_path, _json_dump(summary))
    log.info("geometry report: %s, %s", csv_path, json_path)
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: Path, args) -> int:
    from .eigensolve import lowest_eigenpairs
    from .operators import assemble_comparison, assemble_effective, assemble_full, renormalize

    family, grid = build_family(cfg)
    patch = build_patch(family, grid)
    dim = patch.ambient_dim
    field = build_field(cfg, dim)
    electric = build_electric(cfg, dim)
    spec_cfg = cfg.spectrum
    kind = spec_cfg.get("operator", "h-eff")

    if kind == "h-eff":
        eff = effective_field(field, patch)
        op = assemble_effective(patch, eff, electric)
    else:
        eps = spec_cfg.get("epsilon")
        if eps is None:
            raise ConfigError("spectrum of a layer operator needs spectrum.epsilon")
        m_u = spec_cfg.get("m_u", 17)
        layer = layer_geometry(patch, float(eps), int(m_u))
        pot = layer_potential(field, layer)
        if kind in ("full-H", "full-H-renormalized"):
            op = assemble_full(layer, pot, electric)
            if kind == "full-H-renormalized":
                op = renormalize(op)
        elif kind in ("H0+", "H0-"):
            op, _ = assemble_comparison(layer, pot, 1 if kind == "H0+" else -1, electric)
        else:
            raise ConfigError(f"unknown operator kind {kind!r}")

    n_pairs = cfg.solver_opt("n_eigenpairs", 6)
    spectrum = lowest_eigenpairs(op, n_pairs, **_solver_args(cfg, args.seed))
    work = ("method", "factor", "shift", "iterations", "block_size",
            "residual_target", "surface_lus")
    log.info(
        "eigensolve: %s max_residual=%.3e",
        " ".join(f"{key}={spectrum.meta.get(key)}" for key in work),
        float(np.max(spectrum.residuals)),
    )

    outs = spec_cfg.get("outputs", {})
    csv_path = out / outs.get("csv", "spectrum.csv")
    n_values = len(spectrum.values)
    _write_csv(
        csv_path,
        ["n", "eigenvalue", "residual"],
        n_values,
        [np.arange(1, n_values + 1), spectrum.values, spectrum.residuals],
    )
    log.info("spectrum: %s", csv_path)

    if spec_cfg.get("dump_eigenvectors"):
        vec_path = out / outs.get("eigenvectors", "eigenvectors.npz")
        vec_path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            vec_path,
            values=spectrum.values,
            vectors=spectrum.vectors,
            weights=op.weights,
            grid_shape=np.asarray(op.dofmap.grid_shape),
            m_u=op.dofmap.m_u,
        )
    if spec_cfg.get("dump_operator"):
        base = out / outs.get("matrix", "operator")
        out.mkdir(parents=True, exist_ok=True)
        op.export_matrix_market(base)
    return EXIT_OK


def cmd_converge(cfg: RunConfig, out: Path, args) -> int:
    from .convergence import SweepSpec, run_sweep, sweep_acceptance

    family, grid = build_family(cfg)
    field = build_field(cfg, family.ambient_dim)
    electric = build_electric(cfg, family.ambient_dim)
    sw = cfg.sweep
    if "epsilons" not in sw:
        raise ConfigError("converge needs a sweep.epsilons list")
    spec = SweepSpec(
        family=family,
        grid=grid,
        field=field,
        electric=electric,
        epsilons=tuple(sorted((float(e) for e in sw["epsilons"]), reverse=True)),
        m_u=int(sw.get("m_u", 17)),
        n_pairs=cfg.solver_opt("n_eigenpairs", 1),
        grid_doubling=bool(sw.get("grid_doubling", True)),
        threads=args.threads or os.cpu_count() or 1,
        **_solver_args(cfg, args.seed, tol=1e-11),
    )
    report = run_sweep(spec)
    outs = sw.get("outputs", {})
    csv_path = out / outs.get("csv", "converge.csv")
    json_path = out / outs.get("json", "converge_summary.json")
    ok, problems = sweep_acceptance(report)
    summary = report.summary()
    summary["acceptance"] = {"passed": ok, "problems": problems}
    _atomic_write(csv_path, report.to_csv())
    _atomic_write(json_path, _json_dump(summary))
    log.info("sweep report: %s, %s", csv_path, json_path)
    if not ok:
        for p in problems:
            log.warning("acceptance: %s", p)
        return EXIT_ACCEPTANCE
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinlayer",
        description="Magnetic layer operators on curves and surfaces: geometry "
        "reports, spectra and shrinking-width convergence sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the solver modules a command imports before it loads its config, so
    # that `geometry` runs on numpy alone
    for name, fn, solvers, doc in (
        ("geometry", cmd_geometry, (),
         "emit curvature and effective-potential tables"),
        ("spectrum", cmd_spectrum, ("operators", "eigensolve"),
         "assemble one operator and solve lowest pairs"),
        ("converge", cmd_converge, ("convergence",),
         "run a shrinking-width convergence sweep"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="./out", help="output directory")
        if fn is cmd_converge:
            p.add_argument("--threads", type=int, default=0,
                           help="sweep row threads (0 = all cores)")
        p.add_argument("--seed", type=int, default=None, help="override solver seed")
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=fn, solvers=solvers)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 0) < 0:
        parser.error(f"--threads must be >= 0, got {args.threads}")
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    for module in args.solvers:
        __import__(f"{__package__}.{module}")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    # entered once on the main thread, before any sweep worker starts; the
    # eigensolver owns the filter for scipy's LOBPCG tolerance warning
    with _one_blas_thread() as blas:
        log.info("blas: %s", blas)
        try:
            return args.func(cfg, out, args)
        except (ConfigError, GeometryError, EmbeddingError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SolverError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        except ThinLayerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
