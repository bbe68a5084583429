"""Tests of the benchmark itself: self-time arithmetic, the span recorder,
and a tiny-size smoke run of every workload through the real CLI.

Run: python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

import checks
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_synthetic_tree():
    tree = [
        spans.Span("root", None, 0.0, 10.0),
        spans.Span("a", 0, 1.0, 4.0),
        spans.Span("b", 0, 3.0, 6.0),  # overlaps a, as on another thread
        spans.Span("a1", 1, 2.0, 3.0),
        spans.Span("c", 0, 9.0, 12.0),  # outlives its parent: clipped
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]
    agg = spans.aggregate(tree + [spans.Span("a", 0, 7.0, 8.0)])
    assert agg["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert agg["root"]["self_s"] == 3.0


def test_union_length():
    assert spans.union_length([], 0.0, 1.0) == 0.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert spans.union_length([(-1.0, 0.5), (0.75, 9.0)], 0.0, 1.0) == 0.75


def test_worker_span_parent_is_submitting_span():
    tracer = spans.Tracer()
    outer = tracer.open("outer")

    def worker():
        tracer.close(tracer.open("inner"))

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(outer)
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer
    assert tracer.spans[outer].parent is None


def _write(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj))
    return path


# Tiny-size reference eigenvalues, recorded at the commit that added the
# benchmark, like the full-size ones in run.py.
TINY_SPHERE_REFERENCE = (0.16494822925436994, 1.1838494564737321, 2.0332637641067137)
TINY_TORUS_REFERENCE = (-0.94064691351509921, -0.79533177824440227)


def tiny_workloads(tmp: Path) -> dict:
    """The four workloads at tiny sizes, with the benchmark's own checks."""
    field = {"kind": "constant", "b": [0.0, 0.0, 1.0]}
    circle = _write(tmp / "circle.json", {
        "schema": 1,
        "geometry": {"family": "circle", "params": {"radius": 1.0}, "grid": [32]},
        "field": {"kind": "zero"},
        "solver": {"n_eigenpairs": 1, "tol": 1e-12, "seed": 42},
        "sweep": {"epsilons": [0.2, 0.1, 0.05], "m_u": 9, "grid_doubling": True},
    })
    sphere = _write(tmp / "sphere.json", {
        "schema": 1,
        "geometry": {"family": "full-sphere", "params": {"radius": 1.0}, "grid": [10, 20]},
        "field": field,
        "solver": {"n_eigenpairs": 3, "tol": 1e-10, "seed": 42},
        "spectrum": {"operator": "h-eff"},
    })
    # dense_threshold below the size sends the solve through the sparse LU.
    torus = _write(tmp / "torus.json", {
        "schema": 1,
        "geometry": {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [8, 8]},
        "field": field,
        "solver": {"n_eigenpairs": 2, "tol": 1e-10, "seed": 42, "dense_threshold": 10},
        "spectrum": {"operator": "full-H-renormalized", "epsilon": 0.05, "m_u": 5},
    })
    geo_torus = _write(tmp / "geo_torus.json", {
        "schema": 1,
        "geometry": {"family": "torus", "params": {"major": 2.0, "minor": 0.5},
                     "grid": [16, 16], "embedding_epsilon": 0.1},
        "field": field,
    })
    geo_sphere = _write(tmp / "geo_sphere.json", {
        "schema": 1,
        "geometry": {"family": "full-sphere", "params": {"radius": 1.0},
                     "grid": [50, 100], "embedding_epsilon": 0.1},
        "field": field,
    })
    Inv = run.Invocation
    return {
        "circle-sweep": (Inv("converge", circle, checks.circle_sweep, ("--threads", "2")),),
        "sphere-heff": (
            Inv("spectrum", sphere, partial(checks.spectrum, reference=TINY_SPHERE_REFERENCE)),
        ),
        "torus-layer": (
            Inv("spectrum", torus, partial(checks.spectrum, reference=TINY_TORUS_REFERENCE)),
        ),
        "geometry-report": (
            Inv("geometry", geo_torus, checks.geometry),
            Inv("geometry", geo_sphere, checks.geometry,
                known=frozenset({"embedding-verdict"})),
        ),
    }


def _run(capsys, workloads, name, trace):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        workloads=workloads,
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_smoke_end_to_end_metrics(tmp_path, capsys):
    lines, result = _run(capsys, tiny_workloads(tmp_path), "circle-sweep", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("fail_frac") for line in lines)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_traced_run(tmp_path, capsys, name):
    _, result = _run(capsys, tiny_workloads(tmp_path), name, 1)
    assert result["correct"], result
    if name != "geometry-report":
        assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.wall_s"] > 0
    assert metrics["cli.output_bytes"] > 0
    if name == "torus-layer":
        assert metrics["eigensolve.factorizations"] >= 1
        assert metrics["eigensolve.lu_solves"] >= 1
    if name == "geometry-report":
        # The 50x100 sphere shows the known embedding-verdict defect: both of
        # its invocations fail, and the run stays correct.
        assert (result["attempted"], result["failed"]) == (4, 2)
        assert metrics["geometry.check_embedding.calls"] == 2
        assert metrics["eigensolve.lowest_eigenpairs.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "torus-layer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
