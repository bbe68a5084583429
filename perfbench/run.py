#!/usr/bin/env python3
"""Pipeline benchmark for thinlayer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through the `thinlayer` CLI, one fresh interpreter per CLI
invocation (see child.py), repeating it until S seconds have passed. Every
invocation's outputs are checked; an invocation fails on a non-zero exit or
a failed check. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

With --trace 0 the metrics are the end-to-end ones, medians over the
repetitions of the workload:
  wall_s       time from loaded config to outputs written, summed over the
               workload's invocations
  setup_s      interpreter start, `import thinlayer` and `load_config`,
               summed over the workload's invocations
  cpu_s        user plus system CPU of the invocation processes
  peak_rss_mb  largest peak resident memory of an invocation process
With --trace 1 each repetition runs the workload untraced and then traced
(spans.py), checks that both wrote byte-identical outputs, and the metrics
are the per-layer ones (PER_LAYER), medians over the traced repetitions.

The seed is passed to the CLI as its solver seed (ARPACK start vector,
power-iteration start); the configs are fixed files.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
# No repetition starts unless the previous one would still end by then.
RUN_LIMIT_S = 150.0

# Reference eigenvalues, recorded at the commit that added this benchmark.
SPHERE_HEFF_REFERENCE = (
    0.16573154073722218,
    1.1996720215267702,
    2.0994046603785552,
    3.199672015019777,
    4.214052328096793,
    5.1421441315091574,
    6.118699807525136,
    7.1421441261156779,
    8.2140521773377113,
)
TORUS_LAYER_REFERENCE = (
    -0.94024044860630074,
    -0.7856102750827878,
    -0.62291081166111884,
    -0.078436887294071944,
)


@dataclass(frozen=True)
class Invocation:
    """One `thinlayer <command> --config <config> <args>` run and its check.

    `known` names problem keys of known program defects: they count the
    invocation as failed but leave the run's `correct` true.
    """

    command: str
    config: Path
    check: Callable[[Path, int, dict], list]  # -> [(key, message)]
    args: tuple = ()
    known: frozenset = field(default_factory=frozenset)


WORKLOADS = {
    # The only workload through `convergence`: row solver, grid doubling, pair
    # matching and cached-factor resolvent solves, on 2 sweep threads.
    "circle-sweep": (
        Invocation("converge", ROOT / "configs/circle_converge.json",
                   checks.circle_sweep, ("--threads", "2")),
    ),
    # Surface-only operator (80,000 dofs) with the largest assembly; the
    # bypass case for a layer-specific solver.
    "sphere-heff": (
        Invocation("spectrum", ROOT / "configs/sphere_heff_spectrum.json",
                   partial(checks.spectrum, reference=SPHERE_HEFF_REFERENCE)),
    ),
    # Coupled layer operator (9,792 dofs): nearly all time is the sparse LU
    # in eigensolve.
    "torus-layer": (
        Invocation("spectrum", HERE / "configs/torus_layer_spectrum.json",
                   partial(checks.spectrum, reference=TORUS_LAYER_REFERENCE)),
    ),
    # No solver: embedding check and CSV writer, on a uniform grid (torus)
    # and on one that clusters nodes at the poles (sphere). The sphere's
    # embedding verdict is wrong at the seed commit: a known defect.
    "geometry-report": (
        Invocation("geometry", ROOT / "configs/torus_geometry.json", checks.geometry),
        Invocation("geometry", HERE / "configs/sphere_geometry.json", checks.geometry,
                   known=frozenset({"embedding-verdict"})),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Self times of these spans, and the number of calls of some.
SPAN_TIMES = (
    "config.load_config",
    "geometry.build_patch",
    "geometry.check_embedding",
    "geometry.layer_geometry",
    "magnetics.pullback",
    "magnetics.gauge_fix",
    "magnetics.effective_field",
    "operators.assemble_full",
    "operators.assemble_effective",
    "operators.renormalize",
    "eigensolve.lowest_eigenpairs",
    "eigensolve.factorize",
    "eigensolve.resolvent_apply",
    "eigensolve.opnorm_estimate",
    "convergence.run_sweep",
    "cli.cmd_geometry",
    "cli.cmd_spectrum",
    "cli.cmd_converge",
)
SPAN_CALLS = (
    "geometry.check_embedding",
    "eigensolve.lowest_eigenpairs",
    "eigensolve.resolvent_apply",
)
IMPORTED = ("magnetics", "convergence", "eigensolve")
COUNTERS = {
    "geometry.n_nodes": "count",
    "operators.n_dof": "count",
    "operators.nnz": "count",
    "eigensolve.factorizations": "count",
    "eigensolve.lu_nnz": "count",
    "eigensolve.lu_fill": "ratio",
    "eigensolve.lu_bytes_computed": "B",
    "eigensolve.lu_solves": "count",
    "eigensolve.retries": "count",
    "eigensolve.max_residual": "norm",
    "convergence.rows": "count",
    "convergence.flagged_rows": "count",
    "convergence.opnorm_iterations": "count",
}
MODULES = spans.TRACED_MODULES
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{f"{mod}.import_s": "s" for mod in IMPORTED},
    **COUNTERS,
    **{f"{mod}.self_s": "s" for mod in MODULES},
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


def _library_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with a numpy or scipy wheel."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(dll, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    for pkg in (numpy, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[f"{pkg.__name__}_blas"] = blas.get("openblas configuration") or blas.get("name")
        env[f"{pkg.__name__}_blas_threads"] = _library_threads(pkg)
    return env


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _import_times(stderr: str) -> dict:
    """Cumulative import seconds of thinlayer modules from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cumulative, name = (x.strip() for x in line[12:].split("|"))
            if name.startswith("thinlayer.") and cumulative.isdigit():
                out[name[len("thinlayer."):]] = int(cumulative) * 1e-6
    return out


def invoke(inv: Invocation, out: Path, seed: int, traced: bool) -> dict:
    """Run one CLI invocation in a fresh process, check its outputs."""
    out.mkdir(parents=True)
    record_path = out.parent / (out.name + ".record.json")
    log_path = out.parent / (out.name + ".stderr")
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), str(record_path), "1" if traced else "0", "--",
            inv.command, "--config", str(inv.config), "--out", str(out),
            "--seed", str(seed), *inv.args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with log_path.open("w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=log)
        # wait4 gives the child's own CPU and peak RSS; record the exit so
        # Popen does not wait on the reaped process again.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log_path.read_text()
    rec = {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if proc.returncode != 0 or not record_path.exists():
        tail = stderr.strip().splitlines()[-3:]
        return {**rec, "problems": [("crash", f"benchmark child exited {proc.returncode}: {tail}")]}
    child = json.loads(record_path.read_text())
    if "config_loaded" not in child:
        return {**rec, "problems": [("exit", f"exit code {child['exit']}: config not loaded")]}
    cfg = json.loads(inv.config.read_text())
    rec.update(
        setup_s=child["config_loaded"] - spawned,
        wall_s=child["main_returned"] - child["config_loaded"],
        problems=inv.check(out, child["exit"], cfg),
        output_bytes=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        digest=_digest(out),
    )
    if traced:
        rec.update(
            spans=child["spans"],
            counts=child["counts"],
            peaks=child["peaks"],
            imports=_import_times(stderr),
        )
    return rec


def per_layer(recs: list[dict]) -> dict:
    """Per-layer metrics of one traced repetition (all its invocations):
    times and counts are summed, sizes (peaks) are the largest."""
    by_name: dict[str, dict] = {}
    for r in recs:
        for name, agg in r["spans"].items():
            acc = by_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += agg["calls"]
            acc["self_s"] += agg["self_s"]
    values = {f"{n}_s": by_name.get(n, {}).get("self_s", 0.0) for n in SPAN_TIMES}
    values.update({f"{n}.calls": by_name.get(n, {}).get("calls", 0) for n in SPAN_CALLS})
    values.update(
        {f"{m}.import_s": sum(r["imports"].get(m, 0.0) for r in recs) for m in IMPORTED}
    )
    for name in COUNTERS:  # each is either a count or a peak
        values[name] = sum(r["counts"].get(name, 0) for r in recs)
        values[name] += max((r["peaks"].get(name, 0) for r in recs), default=0)
    for mod in MODULES:
        values[f"{mod}.self_s"] = sum(
            agg["self_s"] for n, agg in by_name.items() if n.split(".")[0] == mod
        )
    values["cli.output_bytes"] = sum(r["output_bytes"] for r in recs)
    values["trace.wall_s"] = sum(r["wall_s"] for r in recs)
    values["trace.self_sum_s"] = sum(values[f"{m}.self_s"] for m in MODULES)
    return values


def run_workload(invocations, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Repeat the workload for `seconds`; returns (result, report)."""
    ops = []  # (invocation, record)
    reps = []  # end-to-end and, when traced, per-layer values per repetition
    started = time.monotonic()
    last = 0.0
    while not reps or (
        time.monotonic() - started < seconds
        and time.monotonic() - started + last <= RUN_LIMIT_S
    ):
        rep_start = time.monotonic()
        rep_dir = work / f"rep{len(reps)}"
        plain = []
        for i, inv in enumerate(invocations):
            plain.append(invoke(inv, rep_dir / f"{i}-plain", seed, traced=False))
            ops.append((inv, plain[-1]))
        rep = {}
        if all("wall_s" in r for r in plain):
            rep = {
                "wall_s": sum(r["wall_s"] for r in plain),
                "setup_s": sum(r["setup_s"] for r in plain),
                "cpu_s": sum(r["cpu_s"] for r in plain),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
            }
        if trace:
            traced = []
            for i, inv in enumerate(invocations):
                traced.append(invoke(inv, rep_dir / f"{i}-traced", seed, traced=True))
                if "digest" in traced[-1] and traced[-1]["digest"] != plain[i].get("digest"):
                    traced[-1]["problems"].append(
                        ("trace-changed-output", "traced outputs differ from untraced")
                    )
                ops.append((inv, traced[-1]))
            if rep and all("spans" in r for r in traced):
                rep["layers"] = per_layer(traced)
                rep["layers"]["trace.overhead_s"] = rep["layers"]["trace.wall_s"] - rep["wall_s"]
        shutil.rmtree(rep_dir)
        reps.append(rep)
        last = time.monotonic() - rep_start

    failed = [rec for _, rec in ops if rec["problems"]]
    unexpected = [
        (key, msg)
        for inv, rec in ops
        for key, msg in rec["problems"]
        if key not in inv.known
    ]
    known = sorted({msg for inv, rec in ops for key, msg in rec["problems"] if key in inv.known})
    timed = [rep for rep in reps if rep and (not trace or "layers" in rep)]
    if trace:
        names = PER_LAYER
        samples = [rep["layers"] for rep in timed]
    else:
        names = END_TO_END
        samples = timed
    metrics = {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in names.items()
    } if samples else {}
    result = {
        "correct": not unexpected and len(samples) == len(reps),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    report = {
        "repetitions": [{k: v for k, v in rep.items() if k != "layers"} for rep in reps],
        "fail_frac": len(failed) / len(ops),
        "known_defects": known,
        "problems": sorted({f"{k}: {m}" for k, m in unexpected}),
    }
    return result, report


def main(argv=None, workloads=None) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    invocations = workloads[args.workload]
    missing = [
        p for p in [ROOT / "src/thinlayer/cli.py", *(inv.config for inv in invocations)]
        if not p.is_file()
    ]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    # Warm-up import: byte-compiles the package and fills the page cache
    # before the first timed set-up.
    subprocess.run([sys.executable, "-c", "import thinlayer.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    try:
        result, report = run_workload(
            invocations, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), **report}
    print(json.dumps(report, indent=1, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':36s} {report['fail_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} invocations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
