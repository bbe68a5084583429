import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thinlayer
from thinlayer import cli
from thinlayer.cli import main


def _write(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def _config(geometry, field=None, **extra):
    cfg = {"schema": 1, "geometry": geometry}
    if field is not None:
        cfg["field"] = field
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _config({"family": "circle", "params": {"radius": 1.0}, "grid": [64]})
    cfg["mystery"] = 1
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("solver", "scheme_order", 4),
        ("sweep", "k", 2.0),
        ("sweep", "slope_window", [0.9, 2.3]),
        ("sweep", "slope_min", 0.9),
        ("sweep", "resolvent_iters", 60),
    ],
)
def test_fixed_scheme_and_sweep_policy_keys_rejected(tmp_path, capsys, block, key, value):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64]},
        sweep={"epsilons": [0.2, 0.1]},
    )
    cfg.setdefault(block, {})[key] = value
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key",
    [
        ("sweep", "eigenvectors"),
        ("sweep", "matrix"),
        ("geometry_outputs", "eigenvectors"),
        ("geometry_outputs", "matrix"),
        ("spectrum", "json"),
    ],
)
def test_output_keys_a_command_does_not_write_are_rejected(tmp_path, capsys, block, key):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64]},
        sweep={"epsilons": [0.2, 0.1]},
        spectrum={},
    )
    outputs = {key: "unused.out"}
    if block == "geometry_outputs":
        cfg[block] = outputs
    else:
        cfg[block]["outputs"] = outputs
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text('{"schema": 1,\n  "geometry": }')
    rc = main(["geometry", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    rc = main(["geometry", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_bad_family_value_rejected(tmp_path):
    cfg = _config({"family": "moebius", "grid": [64]})
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "family, params, grid",
    [
        ("torus", {"major": 2.0, "minor": 0.5}, [16]),  # one size for a 2-d chart
        ("circle", {"radius": 1.0}, [16, 16]),  # two sizes for a 1-d chart
        ("circle", {"radius": 1.0}, [4]),  # fewer than 8 nodes
    ],
)
def test_grid_needs_one_size_of_at_least_8_per_chart_direction(tmp_path, capsys, family,
                                                              params, grid):
    cfg = _config({"family": family, "params": params, "grid": grid})
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, params",
    [
        ("circle", {}),  # missing radius
        ("circle", {"radius": -1.0}),
        ("torus", {"major": 2.0, "minor": 3.0}),
    ],
)
def test_bad_geometry_parameters_are_config_errors(tmp_path, capsys, family, params):
    grid = [16, 16] if family == "torus" else [16]
    cfg = _config({"family": family, "params": params, "grid": grid})
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "command, block",
    [
        ("spectrum", {"spectrum": {"operator": "full-H", "epsilon": 1.5, "m_u": 9}}),
        ("converge", {"sweep": {"epsilons": [1.5, 0.5], "m_u": 9}}),
    ],
)
def test_layer_wider_than_rho_m_is_a_config_error(tmp_path, capsys, command, block):
    # the unit circle has rho_m = 1
    cfg = _config({"family": "circle", "params": {"radius": 1.0}, "grid": [32]},
                  field={"kind": "zero"}, **block)
    rc = main([command, "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_threads_is_a_nonnegative_converge_option(tmp_path):
    path = _write(tmp_path / "c.json", _config({"family": "circle", "params": {"radius": 1.0},
                                                 "grid": [16]}))
    for argv in (["converge", "--threads", "-3"], ["geometry", "--threads", "2"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", path, "--out", str(tmp_path)])
        assert info.value.code == 2


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path / "c.json", _config({"family": "circle", "params": {"radius": 1.0},
                                                 "grid": [16]}))
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--seed", "-1", "--config", path, "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("solver", "seed", 3.0),
        ("solver", "n_eigenpairs", 2.0),
        ("solver", "dense_threshold", 100.0),
        ("spectrum", "m_u", 9.0),
        ("geometry", "grid", [32.0]),
    ],
    ids=["seed", "n_eigenpairs", "dense_threshold", "m_u", "grid"],
)
def test_integral_floats_in_integer_keys_are_config_errors(tmp_path, capsys, block, key,
                                                           value):
    # JSON Schema counts 3.0 as an integer; a float seed or pair count used
    # to crash the solver instead
    cfg = _config({"family": "circle", "params": {"radius": 1.0}, "grid": [32]},
                  spectrum={"operator": "h-eff"})
    cfg.setdefault(block, {})[key] = value
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"/{block}/{key}" in err
    assert "is not of type 'integer'" in err


def test_cli_import_loads_no_jsonschema_or_scipy_fft():
    code = ("import sys, thinlayer.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema' "
            "or m == 'scipy.fft' or m.startswith('scipy.fft.')))")
    out = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# geometry command
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def test_geometry_circle_veff_column(tmp_path):
    cfg = _config({"family": "circle", "params": {"radius": 1.0}, "grid": [64]})
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, data = _read_csv(tmp_path / "geometry.csv")
    v = data[:, header.index("v_eff")]
    assert np.allclose(v, -0.25, atol=1e-14)


def test_geometry_sphere_veff_zero(tmp_path):
    cfg = _config({"family": "full-sphere", "params": {"radius": 1.0}, "grid": [16, 16]})
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, data = _read_csv(tmp_path / "geometry.csv")
    assert np.allclose(data[:, header.index("v_eff")], 0.0, atol=1e-14)
    summary = json.loads((tmp_path / "geometry_summary.json").read_text())
    assert summary["rho_m"] == pytest.approx(1.0)
    assert "curvature_regularity" in summary


def test_geometry_torus_veff_recomputed_from_columns(tmp_path):
    cfg = _config(
        {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [24, 24]},
        field={"kind": "constant", "b": [0.0, 0.0, 1.0]},
    )
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, data = _read_csv(tmp_path / "geometry.csv")
    k1 = data[:, header.index("kappa_1")]
    k2 = data[:, header.index("kappa_2")]
    v = data[:, header.index("v_eff")]
    assert np.max(np.abs(v - (-0.25 * (k1 - k2) ** 2))) < 1e-14
    assert "b_eff" in header


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("geometry", '"embedding_epsilon": 0.5', '"embedding_epsilon": NaN'),
        ("geometry", '"embedding_epsilon": 0.5', '"embedding_epsilon": 1e999'),
        ("converge", '"epsilons": [0.2,', '"epsilons": [Infinity,'),
    ],
    ids=["nan-embedding-epsilon", "overflowing-embedding-epsilon", "infinite-sweep-width"],
)
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, command, old, new):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64], "embedding_epsilon": 0.5},
        sweep={"epsilons": [0.2, 0.1]},
    )
    text = json.dumps(cfg)
    assert old in text
    path = tmp_path / "c.json"
    path.write_text(text.replace(old, new))
    rc = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "non-finite number" in capsys.readouterr().err


def test_geometry_summary_is_strict_json(tmp_path):
    # no node pair of a short segment is chart-distant at this width, so the
    # clearance is infinite, and so is rho_m of the flat chart: both are null
    cfg = _config(
        {"family": "segment", "params": {"length": 1.0}, "grid": [64], "embedding_epsilon": 0.4}
    )
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads(
        (tmp_path / "geometry_summary.json").read_text(), parse_constant=reject
    )
    assert summary["embedding"]["passed"] is True
    assert summary["embedding"]["clearance"] is None
    assert summary["rho_m"] is None


def test_geometry_embedding_diagnosis(tmp_path):
    cfg = _config(
        {
            "family": "circle",
            "params": {"radius": 1.0},
            "grid": [64],
            "embedding_epsilon": 0.5,
        }
    )
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "geometry_summary.json").read_text())
    assert summary["embedding"]["passed"] is True


def _csv_columns(path):
    """Header and the raw text fields of a CSV file, column by column."""
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), list(zip(*(line.split(",") for line in lines[1:])))


def _same_bits(fields, source):
    """The text fields parse back to exactly the source floats, bit for bit."""
    parsed = np.array([float(f) for f in fields])
    return parsed.tobytes() == np.ascontiguousarray(source, dtype=float).ravel().tobytes()


def test_geometry_csv_roundtrips_at_full_precision(tmp_path, monkeypatch):
    cfg = _config(
        {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [12, 16]},
        field={"kind": "constant", "b": [0.3, 0.0, 1.0]},
    )
    patch = thinlayer.build_patch(
        thinlayer.GeometryFamily("torus", {"major": 2.0, "minor": 0.5}), (12, 16)
    )
    eff = thinlayer.effective_field(thinlayer.constant_field(3, [0.3, 0.0, 1.0]), patch)
    index = np.unravel_index(np.arange(patch.n_nodes), patch.grid_shape)  # row-major
    want = {ax.name: ax.nodes[index[k]] for k, ax in enumerate(patch.axes)}
    for c, name in enumerate("xyz"):
        want[name] = patch.x[..., c]
    want.update({f"kappa_{m + 1}": patch.kappa[..., m] for m in range(patch.dim)})
    want.update({f"K_{m + 1}": patch.mean_curv[..., m] for m in range(patch.dim)})
    want["v_eff"] = thinlayer.v_eff(patch.kappa)
    want["b_eff"] = eff.b_eff
    # the 192-row table written as one chunk, then as chunks of 50 rows
    for chunk_rows in (cli.CSV_CHUNK_ROWS, 50):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        out = tmp_path / f"chunks_of_{chunk_rows}"
        rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)])
        assert rc == 0
        header, cols = _csv_columns(out / "geometry.csv")
        assert len(cols[0]) == patch.n_nodes
        for k in range(len(patch.axes)):
            assert all(f.isdigit() for f in cols[k])  # plain integers
            assert [int(f) for f in cols[k]] == index[k].tolist()
        assert header[2:] == list(want)
        for name, source in want.items():
            assert _same_bits(cols[header.index(name)], source), (chunk_rows, name)


@pytest.mark.parametrize("n_rows", [1, 4, 5, 6, 13])
def test_write_csv_matches_savetxt_bytes(tmp_path, monkeypatch, n_rows):
    """Chunks of 5 rows: one row, one short of a chunk, exactly one chunk,
    one over, and two chunks plus a partial one."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 5)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e16, 2.0**53,
                        3.0, -7.0, 0.1, -0.0, 0.0])
    rows = np.arange(n_rows)
    text = np.array(["", "flag", "a;b", "skipped:staged overlap", "-0", "nan"], dtype=object)
    columns = [
        rows,  # integer index column
        np.stack([special[rows % 14], special[(5 * rows + 2) % 14]], -1),
        np.full(n_rows, 0.25),  # constant
        np.sin(rows + 1.0) * 1e-300,
        text[rows % 6],  # passed through as it is
    ]
    header = ["n", "a", "b", "c", "d", "flags"]
    cli._write_csv(tmp_path / "t.csv", header, n_rows, columns)
    want = io.StringIO()
    table = np.column_stack([np.reshape(c, (n_rows, -1)) for c in columns])
    np.savetxt(want, table, fmt=["%.17g"] * 5 + ["%s"], delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / "t.csv").read_bytes() == want.getvalue().encode()
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_failed_csv_write_keeps_the_earlier_table(tmp_path, monkeypatch):
    cfg = _config(
        {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [12, 16]},
        field={"kind": "constant", "b": [0.3, 0.0, 1.0]},
    )
    out = tmp_path / "out"
    argv = ["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)]
    assert main(argv) == 0
    earlier = (out / "geometry.csv").read_bytes()

    class Interrupted(Exception):
        pass

    format_column = cli._format_column
    calls = []

    def fail_in_the_second_chunk(values):
        calls.append(values)
        if len(calls) > 13:  # the first chunk's 13 columns went through
            assert list(out.glob("geometry.csv.*.tmp"))
            raise Interrupted
        return format_column(values)

    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 50)
    monkeypatch.setattr(cli, "_format_column", fail_in_the_second_chunk)
    with pytest.raises(Interrupted):
        main(argv)
    assert (out / "geometry.csv").read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == ["geometry.csv", "geometry_summary.json"]


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_flat_strip(tmp_path):
    cfg = _config(
        {"family": "segment", "params": {"length": 1.0}, "grid": [120]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 3, "tol": 1e-11},
        spectrum={"operator": "full-H-renormalized", "epsilon": 0.05, "m_u": 9},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, data = _read_csv(tmp_path / "spectrum.csv")
    vals = data[:, header.index("eigenvalue")]
    want = np.array([1.0, 4.0, 9.0]) * np.pi**2
    assert np.max(np.abs(vals / want - 1.0)) < 1e-3


def test_spectrum_circle_effective(tmp_path):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [256]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 3, "tol": 1e-11},
        spectrum={"operator": "h-eff"},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    _, data = _read_csv(tmp_path / "spectrum.csv")
    assert np.max(np.abs(data[:, 1] - [-0.25, 0.75, 0.75])) < 5e-4


def test_spectrum_csv_roundtrips_at_full_precision(tmp_path):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64]},
        field={"kind": "constant", "b": 1.3},
        solver={"n_eigenpairs": 3, "tol": 1e-11, "seed": 7},
        spectrum={"operator": "h-eff"},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    patch = thinlayer.build_patch(thinlayer.GeometryFamily("circle", {"radius": 1.0}), (64,))
    eff = thinlayer.effective_field(thinlayer.constant_field(2, 1.3), patch)
    spectrum = thinlayer.lowest_eigenpairs(
        thinlayer.assemble_effective(patch, eff), 3, tol=1e-11, seed=7
    )
    header, cols = _csv_columns(tmp_path / "spectrum.csv")
    assert header == ["n", "eigenvalue", "residual"]
    assert list(cols[0]) == ["1", "2", "3"]
    assert _same_bits(cols[1], spectrum.values)
    assert _same_bits(cols[2], spectrum.residuals)


def test_spectrum_verbose_logs_solver_work(tmp_path, caplog, monkeypatch):
    cfg = _config(
        {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [12, 12]},
        field={"kind": "constant", "b": [0.0, 0.0, 1.0]},
        solver={"n_eigenpairs": 2, "tol": 1e-10},
        spectrum={"operator": "full-H-renormalized", "epsilon": 0.05, "m_u": 5},
    )
    caplog.set_level("INFO", logger="thinlayer")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg),
               "--out", str(tmp_path), "--verbose"])
    assert rc == 0
    n_libs = len(cli._bundled_openblas())
    blas = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blas: ")]
    assert blas == [f"blas: 1 thread ({n_libs} bundled OpenBLAS pinned)" if n_libs
                    else "blas: threads left to the BLAS library (no bundled OpenBLAS)"]
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("eigensolve")]
    assert len(lines) == 1
    assert "method=lobpcg" in lines[0] and "block_size=2" in lines[0]
    assert "iterations=" in lines[0] and "residual_target=" in lines[0]
    assert "surface_lus=1" in lines[0] and "factor=None" in lines[0]
    assert "max_residual=" in lines[0]
    assert (tmp_path / "spectrum.csv").read_text().splitlines()[0] == "n,eigenvalue,residual"


_TORUS_12 = {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [12, 12]}


@pytest.mark.parametrize(
    "geometry, field, factor",
    [
        ({"family": "circle", "params": {"radius": 1.0}, "grid": [64]}, {"kind": "zero"}, None),
        ({"family": "ellipse", "params": {"a": 1.0, "b": 0.7}, "grid": [64]}, {"kind": "zero"},
         "superlu(nnz="),
        (_TORUS_12, {"kind": "constant", "b": [0.0, 0.0, 1.0]}, None),
        (_TORUS_12, {"kind": "constant", "b": [0.3, 0.0, 1.0]}, "superlu(nnz="),
    ],
)
def test_spectrum_verbose_names_the_factorization(tmp_path, caplog, geometry, field, factor):
    # the circle and the torus in an axial field take the Fourier blocks,
    # which factor nothing; the ellipse and the torus in a tilted field lack
    # the symmetry and take SuperLU
    cfg = _config(geometry, field=field, solver={"n_eigenpairs": 2},
                  spectrum={"operator": "h-eff"})
    caplog.set_level("INFO", logger="thinlayer")
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg),
               "--out", str(tmp_path), "--verbose"])
    assert rc == 0
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("eigensolve")]
    assert len(lines) == 1
    method = "shift-invert-lanczos" if factor else "fourier-blocks"
    assert f"method={method}" in lines[0] and f"factor={factor}" in lines[0]
    if factor is None:
        assert re.search(r" blocks=\d+ skipped=\d+ ", lines[0])


def _env_with_src():
    """os.environ with this checkout's package first on PYTHONPATH, for a
    fresh interpreter."""
    src = str(Path(thinlayer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _torus_layer_config(grid, m_u, n_pairs, tol):
    return _config(
        {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": grid},
        field={"kind": "constant", "b": [0.0, 0.0, 1.0]},
        solver={"n_eigenpairs": n_pairs, "tol": tol},
        spectrum={"operator": "full-H-renormalized", "epsilon": 0.05, "m_u": m_u},
    )


def test_spectrum_hides_scipy_lobpcg_tolerance_warning(tmp_path):
    # at this seed every residual meets the solver's round-off target, yet
    # scipy's LOBPCG warns that its own, tighter stopping test was missed.
    # Fresh interpreters under Python's default filters: pytest's warning
    # capture swaps the filter list that the eigensolver installs into
    cfg = _torus_layer_config([16, 16], 9, 4, 1e-14)
    path = _write(tmp_path / "c.json", cfg)
    cli_run = subprocess.run(
        [sys.executable, "-m", "thinlayer", "spectrum", "--config", path,
         "--out", str(tmp_path), "--seed", "25"],
        env=_env_with_src(), capture_output=True, text=True,
    )
    assert cli_run.returncode == 0, cli_run.stderr
    assert "requested tolerance" not in cli_run.stderr

    # the library is as quiet on a solve it accepts, under the CLI's BLAS
    # setting too
    probe = (
        "import thinlayer as t\n"
        "from thinlayer import cli\n"
        "patch = t.build_patch(t.GeometryFamily('torus', {'major': 2.0, 'minor': 0.5}), (16, 16))\n"
        "layer = t.layer_geometry(patch, 0.05, 9)\n"
        "pot = t.layer_potential(t.constant_field(3, [0.0, 0.0, 1.0]), layer)\n"
        "op = t.renormalize(t.assemble_full(layer, pot))\n"
        "with cli._one_blas_thread():\n"
        "    spectrum = t.lowest_eigenpairs(op, 4, tol=1e-14, seed=25)\n"
        "print(spectrum.meta['method'])\n"
    )
    lib_run = subprocess.run(
        [sys.executable, "-c", probe],
        env=_env_with_src(), capture_output=True, text=True, check=True,
    )
    assert lib_run.stdout.strip() == "lobpcg"
    assert "requested tolerance" not in lib_run.stderr


def test_spectrum_output_does_not_depend_on_blas_threads(tmp_path):
    # a 5,184-dof layer: OpenBLAS splits its LOBPCG block products over two
    # threads, which changes the round-off unless the CLI runs one
    path = _write(tmp_path / "c.json", _torus_layer_config([24, 24], 9, 4, 1e-10))
    unset = _env_with_src()
    unset.pop("OPENBLAS_NUM_THREADS", None)
    outputs = []
    for name, env in (("unset", unset), ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run(
            [sys.executable, "-m", "thinlayer", "spectrum", "--config", path,
             "--out", str(tmp_path / name), "--seed", "1"],
            env=env,
            check=True,
        )
        outputs.append((tmp_path / name / "spectrum.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_main_restores_blas_threads_and_respects_the_environment(tmp_path, monkeypatch):
    libs = cli._bundled_openblas()
    if not libs:
        pytest.skip("numpy and scipy bundle no OpenBLAS")
    seen = []

    def record_threads(cfg, out, args):
        seen.append([get() for get, _ in libs])
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_geometry", record_threads)
    path = _write(tmp_path / "c.json", _config({"family": "circle", "params": {"radius": 1.0},
                                                 "grid": [16]}))
    before = [get() for get, _ in libs]
    for _, set_threads in libs:
        set_threads(2)
    try:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["geometry", "--config", path, "--out", str(tmp_path)]) == 0
        assert [get() for get, _ in libs] == [2] * len(libs)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["geometry", "--config", path, "--out", str(tmp_path)]) == 0
        assert [get() for get, _ in libs] == [2] * len(libs)
    finally:
        for (_, set_threads), count in zip(libs, before):
            set_threads(count)
    assert seen == [[1] * len(libs), [2] * len(libs)]


def test_spectrum_sphere_effective(tmp_path):
    cfg = _config(
        {"family": "full-sphere", "params": {"radius": 1.0}, "grid": [200, 400]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 4, "tol": 1e-10},
        spectrum={"operator": "h-eff"},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    _, data = _read_csv(tmp_path / "spectrum.csv")
    assert np.max(np.abs(data[:, 1] - [0.0, 2.0, 2.0, 2.0])) < 1e-3


def _dump_config(tmp_path):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 2},
        spectrum={
            "operator": "h-eff",
            "dump_operator": True,
            "dump_eigenvectors": True,
            "outputs": {"eigenvectors": "vecs.bin", "matrix": "op"},
        },
    )
    return ["spectrum", "--config", _write(tmp_path / "c.json", cfg),
            "--out", str(tmp_path / "out")]


def test_spectrum_dumps_operator_and_vectors(tmp_path):
    from scipy.io import mmread

    from thinlayer import GeometryFamily, assemble_effective, build_patch

    assert main(_dump_config(tmp_path)) == 0
    out = tmp_path / "out"
    # configured names are honoured exactly: no ".npz" appended
    assert sorted(p.name for p in out.iterdir()) == ["op.json", "op.mtx", "spectrum.csv",
                                                     "vecs.bin"]
    op = assemble_effective(build_patch(GeometryFamily("circle", {"radius": 1.0}), (64,)))
    diff = (mmread(out / "op.mtx").tocsr() - op.matrix).tocoo()
    assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-15
    text = (out / "op.json").read_text()
    assert text.endswith("}\n")
    sidecar = json.loads(text)
    assert sidecar["kind"] == "h-eff"
    assert sidecar["grid_shape"] == [64]
    assert sidecar["n_dof"] == 64
    assert "boundary" in sidecar
    dump = np.load(out / "vecs.bin")
    assert dump["vectors"].shape == (64, 2)


_TORUS = {"family": "torus", "params": {"major": 2.0, "minor": 0.5}}
_B_Z = {"kind": "constant", "b": [0.0, 0.0, 1.0]}


@pytest.mark.parametrize("geometry, field, spectrum, want", [
    ({**_TORUS, "grid": [16, 16]}, {"kind": "zero"}, {"operator": "h-eff"},
     {"kind": "h-eff", "eps": None, "geometry": "torus(major=2,minor=0.5)[16x16]",
      "field": "zero", "n_dof": 256, "nnz": 2304, "m_u": 1,
      "closures": ["periodic", "periodic"]}),
    ({**_TORUS, "grid": [16, 16]}, {"kind": "constant", "b": [0.3, 0.0, 1.0]},
     {"operator": "h-eff"},
     {"kind": "h-eff", "eps": None, "geometry": "torus(major=2,minor=0.5)[16x16]",
      "field": "alpha-eff", "n_dof": 256, "nnz": 2304, "m_u": 1,
      "closures": ["periodic", "periodic"]}),
    ({**_TORUS, "grid": [12, 12]}, _B_Z,
     {"operator": "full-H-renormalized", "epsilon": 0.1, "m_u": 5},
     {"kind": "full-H-renormalized", "eps": 0.1, "geometry": "torus(major=2,minor=0.5)[12x12]",
      "field": "constant(b=[0.0, 0.0, 1.0])", "n_dof": 720, "nnz": 9360, "m_u": 5,
      "closures": ["periodic", "periodic"]}),
    ({"family": "ellipse", "params": {"a": 1.0, "b": 0.7}, "grid": [64]},
     {"kind": "constant", "b": 0.7}, {"operator": "H0-", "epsilon": 0.1, "m_u": 7},
     {"kind": "H0-", "eps": 0.1, "geometry": "ellipse(a=1,b=0.7)[64]",
      "field": "constant(b=0.7)", "n_dof": 448, "nnz": 4928, "m_u": 7,
      "closures": ["periodic"]}),
], ids=["heff-zero", "heff-tilted", "full-H-renormalized", "H0-"])
def test_spectrum_dump_records_the_run(tmp_path, geometry, field, spectrum, want):
    # every sidecar value, and the weights of the patch or the layer in the npz
    from thinlayer import GeometryFamily, build_patch, layer_geometry

    cfg = _config(geometry, field=field, solver={"n_eigenpairs": 2},
                  spectrum={**spectrum, "dump_operator": True, "dump_eigenvectors": True})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", _write(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    sidecar = json.loads((out / "operator.json").read_text())
    patch = build_patch(GeometryFamily(geometry["family"], geometry["params"]),
                        tuple(geometry["grid"]))
    if want["eps"] is None:
        weights, cell = patch.surface_weights(), patch.cell_area
    else:
        layer = layer_geometry(patch, want["eps"], want["m_u"])
        weights, cell = layer.full_weights(), patch.cell_area * layer.h_u
    assert {key: sidecar[key] for key in want} == want
    assert sidecar["grid_shape"] == geometry["grid"]
    assert sidecar["weights_cell"] == cell
    dump = np.load(out / "eigenvectors.npz")
    assert np.array_equal(dump["weights"], weights)
    assert dump["m_u"] == want["m_u"]


@pytest.mark.parametrize("writer, target", [("numpy.savez", "vecs.bin"),
                                            ("scipy.io.mmwrite", "op.mtx")])
def test_failed_dump_keeps_the_earlier_file(tmp_path, monkeypatch, writer, target):
    argv = _dump_config(tmp_path)
    assert main(argv) == 0
    out = tmp_path / "out"
    names = sorted(p.name for p in out.iterdir())
    earlier = (out / target).read_bytes()

    class Interrupted(Exception):
        pass

    def write_some_bytes_then_fail(fh, *args, **kwargs):
        fh.write(b"partial")
        assert list(out.glob(f"{target}.*.tmp"))
        raise Interrupted

    monkeypatch.setattr(writer, write_some_bytes_then_fail)
    with pytest.raises(Interrupted):
        main(argv)
    assert (out / target).read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == names


def test_spectrum_solver_failure_exit_code(tmp_path):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [8]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 50},
        spectrum={"operator": "h-eff"},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("command", ["spectrum", "converge"])
def test_even_transverse_node_count_is_a_config_error(tmp_path, command):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [32]},
        field={"kind": "zero"},
        spectrum={"operator": "full-H", "epsilon": 0.1, "m_u": 8},
        sweep={"epsilons": [0.2, 0.1], "m_u": 8},
    )
    rc = main([command, "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2


def test_duplicate_sweep_widths_are_a_config_error(tmp_path, capsys):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [32]},
        field={"kind": "zero"},
        sweep={"epsilons": [0.2, 0.1, 0.1, 0.05], "m_u": 9},
    )
    rc = main(["converge", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "epsilons" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# converge command
# ---------------------------------------------------------------------------


def test_converge_flat_exit_zero(tmp_path):
    cfg = _config(
        {"family": "segment", "params": {"length": 1.0}, "grid": [48]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 1, "seed": 42},
        sweep={"epsilons": [0.2, 0.1, 0.05], "m_u": 9},
    )
    rc = main(["converge", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "converge_summary.json").read_text())
    assert summary["fits"]["cluster_gap"]["tag"] == "exact"
    assert summary["acceptance"]["passed"] is True


def test_converge_circle_exit_zero_and_reproducible(tmp_path):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [96]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 1, "seed": 42, "tol": 1e-11},
        sweep={"epsilons": [0.2, 0.1, 0.05], "m_u": 9},
    )
    path = _write(tmp_path / "c.json", cfg)
    rc = main(["converge", "--config", path, "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(["converge", "--config", path, "--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "converge.csv").read_bytes()
    b = (tmp_path / "b" / "converge.csv").read_bytes()
    assert a == b


def test_converge_csv_roundtrips_at_full_precision(tmp_path):
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 1},
        sweep={"epsilons": [0.2, 0.1, 0.05], "m_u": 9, "grid_doubling": False},
    )
    rc = main(["converge", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    import thinlayer

    with cli._one_blas_thread():  # the BLAS thread count the CLI runs with
        report = thinlayer.run_sweep(
            thinlayer.SweepSpec(
                family=thinlayer.GeometryFamily("circle", {"radius": 1.0}),
                grid=(64,),
                field=thinlayer.zero_field(2),
                epsilons=(0.2, 0.1, 0.05),
                m_u=9,
                n_pairs=1,
                grid_doubling=False,
            )
        )
    header, cols = _csv_columns(tmp_path / "converge.csv")
    assert header == list(cli._CONVERGE_COLUMNS)
    fields = ("eps", "n", "lam", "mu", "gap", "cluster_gap", "efunc", "leakage",
              "resolvent", "disc_est")
    assert len(fields) == len(header) - 1  # every column but the flags
    for k, name in enumerate(fields):
        source = [getattr(row, name) for row in report.rows]
        assert _same_bits(cols[k], source), header[k]  # 17 significant digits
    assert cols[-1] == ("",) * len(report.rows)


def test_converge_under_resolved_grid_exits_four(tmp_path):
    # an ellipse ground state needs surface resolution; 12 nodes cannot track
    # the shrinking gaps and the discretization filter must flag the rows
    cfg = _config(
        {"family": "ellipse", "params": {"a": 1.0, "b": 0.6}, "grid": [12]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 1},
        sweep={"epsilons": [0.2, 0.1, 0.05], "m_u": 9},
    )
    rc = main(["converge", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 4
    summary = json.loads((tmp_path / "converge_summary.json").read_text())
    assert not summary["acceptance"]["passed"]


# ---------------------------------------------------------------------------
# sampled inputs through the CLI
# ---------------------------------------------------------------------------


def test_user_sampled_geometry_csv(tmp_path):
    n = 64
    t = 2 * np.pi * np.arange(n) / n
    rows = ["i,x,y"]
    for i in range(n):
        rows.append(f"{i},{float(np.cos(t[i])):.17g},{float(np.sin(t[i])):.17g}")
    (tmp_path / "curve.csv").write_text("\n".join(rows) + "\n")
    cfg = _config(
        {
            "family": "user-sampled",
            "params": {"h1": float(2 * np.pi / n)},
            "csv": "curve.csv",
            "closure": ["periodic"],
        }
    )
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, data = _read_csv(tmp_path / "geometry.csv")
    kap = data[:, header.index("kappa_1")]
    assert np.max(np.abs(kap - 1.0)) < 1e-4  # sampled unit circle


@pytest.mark.parametrize("bad_index", ["-1", "1.5"])
def test_user_sampled_geometry_index_must_be_nonnegative_integer(tmp_path, capsys, bad_index):
    n = 16
    t = 2 * np.pi * np.arange(n) / n
    index = [str(i) for i in range(n)]
    index[0 if bad_index == "-1" else 1] = bad_index
    rows = [f"{index[i]},{np.cos(t[i]):.17g},{np.sin(t[i]):.17g}" for i in range(n)]
    (tmp_path / "curve.csv").write_text("\n".join(rows) + "\n")
    cfg = _config(
        {
            "family": "user-sampled",
            "params": {"h1": float(2 * np.pi / n)},
            "csv": "curve.csv",
            "closure": ["periodic"],
        }
    )
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "non-negative integers" in capsys.readouterr().err


def test_user_sampled_geometry_rejects_non_finite_values(tmp_path, capsys, recwarn):
    # node 10 of a sampled unit circle, data row 11, has no x coordinate: the
    # loader names it before any curvature is computed
    n = 64
    t = 2 * np.pi * np.arange(n) / n
    rows = ["i,x,y"] + [f"{i},{np.cos(t[i]):.17g},{np.sin(t[i]):.17g}" for i in range(n)]
    rows[11] = "10,nan,0.5"
    (tmp_path / "curve.csv").write_text("\n".join(rows) + "\n")
    cfg = _config(
        {
            "family": "user-sampled",
            "params": {"h1": float(2 * np.pi / n)},
            "csv": "curve.csv",
            "closure": ["periodic"],
        }
    )
    rc = main(["geometry", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "curve.csv" in err and "non-finite" in err and "row 11" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _sampled_torus_csv(path, n=16):
    t = 2 * np.pi * np.arange(n) / n
    rows = []
    for i in range(n):
        for j in range(n):
            r = 2.0 + 0.5 * np.cos(t[j])
            pos = (r * np.cos(t[i]), r * np.sin(t[i]), 0.5 * np.sin(t[j]))
            rows.append(f"{i},{j}," + ",".join(f"{float(v):.17g}" for v in pos))
    path.write_text("\n".join(rows) + "\n")


def _sampled_circle_csv(path, n=16):
    t = 2 * np.pi * np.arange(n) / n
    rows = [f"{i},{np.cos(t[i]):.17g},{np.sin(t[i]):.17g}" for i in range(n)]
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize(
    "write_csv, closure",
    [
        (_sampled_torus_csv, ["periodic"]),  # too few for a 2-d chart
        (_sampled_circle_csv, ["periodic", "periodic"]),  # too many for a curve
    ],
)
def test_user_sampled_closure_needs_one_entry_per_chart_direction(tmp_path, capsys,
                                                                  write_csv, closure):
    from thinlayer.config import build_family, load_config
    from thinlayer.errors import ConfigError

    write_csv(tmp_path / "samples.csv")
    cfg = _config({"family": "user-sampled", "csv": "samples.csv", "closure": closure})
    path = _write(tmp_path / "c.json", cfg)
    with pytest.raises(ConfigError, match="one closure per direction"):
        build_family(load_config(path))
    rc = main(["geometry", "--config", path, "--out", str(tmp_path)])
    assert rc == 2
    assert "one closure per direction" in capsys.readouterr().err


def test_sampled_field_csv_spectrum(tmp_path):
    # symmetric-gauge potential for a unit perpendicular field on a grid
    axes = np.linspace(-1.6, 1.6, 33)
    rows = []
    for y1 in axes:
        for y2 in axes:
            rows.append(",".join(format(float(v), ".17g") for v in (y1, y2, -0.5 * y2, 0.5 * y1)))
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [128]},
        field={"kind": "sampled", "csv": "field.csv"},
        solver={"n_eigenpairs": 1, "tol": 1e-11},
        spectrum={"operator": "h-eff"},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 0
    _, data = _read_csv(tmp_path / "spectrum.csv")
    # flux pi through the unit circle shifts the ground state to zero
    assert abs(data[0, 1]) < 5e-3


def _grid_rows(values):
    """CSV rows (y1, y2, values...) on the 3x3 grid with axes -2, 0, 2."""
    axis = (-2.0, 0.0, 2.0)
    return [
        ",".join(format(v, ".17g") for v in (y1, y2, *values(y1, y2)))
        for y1 in axis
        for y2 in axis
    ]


@pytest.mark.parametrize("kind", ["electric", "field"])
def test_sampled_csv_must_cover_the_grid(tmp_path, capsys, kind):
    if kind == "electric":
        rows = _grid_rows(lambda y1, y2: (1.0,))[:-1]  # node (2, 2) missing
        field = {"kind": "zero", "electric": {"kind": "sampled", "csv": "s.csv"}}
    else:
        rows = _grid_rows(lambda y1, y2: (-0.1 * y2, 0.2 * y1))
        rows[-1] = rows[0]  # node (-2, -2) twice, node (2, 2) missing
        field = {"kind": "sampled", "csv": "s.csv"}
    (tmp_path / "s.csv").write_text("\n".join(rows) + "\n")
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64]},
        field=field,
        solver={"n_eigenpairs": 1},
        spectrum={"operator": "h-eff"},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "exactly once" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["electric", "field"])
def test_sampled_csv_needs_two_nodes_per_axis(tmp_path, capsys, kind):
    # a 3x3 grid of a 3-d field on the single plane y3 = 0
    axis = (-3.0, 0.0, 3.0)
    if kind == "electric":
        values = (1.0,)
        field = {"kind": "zero", "electric": {"kind": "sampled", "csv": "s.csv"}}
    else:
        values = (0.0, 0.0, 0.0)
        field = {"kind": "sampled", "csv": "s.csv"}
    rows = [
        ",".join(format(v, ".17g") for v in (y1, y2, 0.0, *values))
        for y1 in axis
        for y2 in axis
    ]
    (tmp_path / "s.csv").write_text("\n".join(rows) + "\n")
    cfg = _config(
        {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [8, 8]},
        field=field,
        solver={"n_eigenpairs": 1},
        spectrum={"operator": "h-eff"},
    )
    rc = main(["spectrum", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, kind", [
    ("geometry", "field"), ("spectrum", "field"), ("spectrum", "electric"),
])
def test_sampled_csv_rejects_non_finite_values(tmp_path, capsys, command, kind, value):
    # a 9x9 grid on [-2, 2]^2 with the bad value at node (1, 0), data row 59
    axis = np.linspace(-2.0, 2.0, 9)
    rows = []
    for y1 in axis:
        for y2 in axis:
            vals = (1.0,) if kind == "electric" else (-0.5 * y2, 0.5 * y1)
            rows.append(",".join(format(float(v), ".17g") for v in (y1, y2, *vals)))
    rows[58] = rows[58].rsplit(",", 1)[0] + "," + value
    (tmp_path / "s.csv").write_text("\n".join(rows) + "\n")
    if kind == "electric":
        field = {"kind": "zero", "electric": {"kind": "sampled", "csv": "s.csv"}}
    else:
        field = {"kind": "sampled", "csv": "s.csv"}
    cfg = _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [64]},
        field=field,
        solver={"n_eigenpairs": 1},
        spectrum={"operator": "h-eff"},
    )
    rc = main([command, "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "s.csv" in err and "non-finite" in err and "row 59" in err


_TORUS = {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [16, 16]}
_CIRCLE = {"family": "circle", "params": {"radius": 1.0}, "grid": [32]}


@pytest.mark.parametrize(
    "command, geometry, field, entry",
    [
        ("geometry", _TORUS, {"kind": "constant", "b": 1.0}, "b in R^3 must be a 3-vector"),
        ("converge", _CIRCLE, {"kind": "constant", "b": [0, 0, 1.0]}, "b in R^2 must be a number"),
        ("geometry", _TORUS,
         {"kind": "linear-gauge", "components": [[[1.0, [0, 1, 0, 2]]], [], []]},
         "components[0][0] has exponents [0, 1, 0, 2]"),
        ("spectrum", _CIRCLE,
         {"kind": "zero", "electric": {"kind": "polynomial", "terms": [[1.0, [0, 0, 2]]]}},
         "electric terms[0] has exponents [0, 0, 2]"),
        ("geometry", _TORUS, {"kind": "linear-gauge", "components": [[], []]},
         "need 3 potential components, got 2"),
        ("geometry", _TORUS, {"kind": "sampled", "csv": "cube.csv"},
         "vector potential undefined at ambient point"),
    ],
    ids=["torus-b-number", "circle-b-vector", "long-exponents", "long-electric-term",
         "two-components", "sampled-box-too-small"],
)
def test_field_that_does_not_fit_the_geometry_is_a_config_error(
    tmp_path, capsys, command, geometry, field, entry
):
    # a zero potential on the 3x3x3 grid of [-1, 1]^3, which a torus of major
    # radius 2 leaves
    axis = np.linspace(-1.0, 1.0, 3)
    rows = [f"{y1},{y2},{y3},0,0,0" for y1 in axis for y2 in axis for y3 in axis]
    (tmp_path / "cube.csv").write_text("\n".join(rows) + "\n")
    cfg = _config(geometry, field=field, solver={"n_eigenpairs": 1},
                  spectrum={"operator": "h-eff"}, sweep={"epsilons": [0.2, 0.1], "m_u": 5})
    # in process, an exception that escaped main would fail the call itself
    rc = main([command, "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and entry in err


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------


def test_cli_import_leaves_scipy_stats_unloaded():
    # `import thinlayer.cli` needs numpy alone: scipy.sparse, scipy.linalg and
    # scipy.special come with the solver modules that `spectrum` and
    # `converge` import once their arguments are parsed; scipy.stats,
    # scipy.integrate and scipy.spatial buy it nothing (the embedding check's
    # cell list is numpy), and only a sampled field or potential loads the
    # interpolator
    probe = (
        "import sys, thinlayer.cli; print(any(m in sys.modules for m in "
        "('scipy.stats', 'scipy.integrate', 'scipy.interpolate', 'scipy.spatial', "
        "'scipy.sparse', 'scipy.linalg', 'scipy.special')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=_env_with_src(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


# the public names of `thinlayer`, with the seven submodules that define them
PUBLIC_NAMES = [
    "AmbientField", "AssembledOperator", "AssemblyError", "ChartAxis", "ComparisonConstants",
    "ConfigError", "ConvergenceReport", "DofMap", "EffectiveField", "EmbeddingError",
    "EmbeddingReport", "FieldError", "FitError", "FitResult", "GapBoundReport",
    "GaugeFixedPotential", "GeometryError", "GeometryFamily", "HypersurfacePatch",
    "LayerGeometry", "OperatorNormEstimate", "RawLayerPotential",
    "RunConfig", "ScalarPotential", "SolverError", "Spectrum", "SweepRow", "SweepSpec",
    "TRANSVERSE_GROUND_ENERGY", "ThinLayerError", "TransverseMode", "assemble_comparison",
    "assemble_effective", "assemble_full", "build_patch", "check_embedding",
    "comparison_constants", "config", "constant_field", "convergence",
    "curvature_regularity_report", "effective_field", "effective_field_from_chart",
    "eigensolve", "errors", "fit_rate", "gap_bound_report", "gauge_fix", "geometry",
    "gershgorin_bounds", "layer_factors", "layer_geometry", "layer_potential",
    "load_config", "lowest_eigenpairs", "magnetics", "operators", "opnorm_estimate",
    "polynomial_field", "polynomial_potential", "pullback",
    "renormalize", "resolvent", "run_sweep", "sampled_field", "sampled_potential",
    "surface_trace_potential", "sweep_acceptance", "transverse_curvature_potential",
    "transverse_energies", "transverse_matrix", "transverse_nodes", "v_eff", "zero_field",
    "zero_potential",
]
SOLVER_STACK = ("scipy.sparse", "scipy.linalg", "scipy.special", "scipy.spatial")


def _fresh(code):
    """The JSON that `code` prints in a fresh interpreter (pytest has already
    imported scipy here)."""
    out = subprocess.run([sys.executable, "-c", code], env=_env_with_src(),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_public_names_resolve_lazily():
    probe = (
        "import json, sys, thinlayer as t\n"
        "first = sorted(m for m in sys.modules if m.startswith('thinlayer.'))\n"
        "names, listing = list(t.__all__), dir(t)\n"
        "resolved = [n for n in names if getattr(t, n) is not None]\n"
        "same = all(getattr(t, n) is getattr(sys.modules[getattr(t, n).__module__], n)\n"
        "           for n in names if hasattr(getattr(t, n), '__module__'))\n"
        "print(json.dumps([first, names, listing, resolved, same]))\n"
    )
    first, names, listing, resolved, same = _fresh(probe)
    assert first == []  # `import thinlayer` imports no submodule
    assert names == PUBLIC_NAMES and resolved == PUBLIC_NAMES and same
    dunders = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
               "__name__", "__package__", "__path__", "__spec__", "__version__"]
    assert listing == sorted(dunders + PUBLIC_NAMES)


def test_cli_import_lists_every_submodule():
    # the benchmark's tracer finds the modules by inspect.getmembers
    probe = (
        "import inspect, json, thinlayer, thinlayer.cli\n"
        "print(json.dumps([n for n, _ in inspect.getmembers(thinlayer, inspect.ismodule)]))\n"
    )
    assert _fresh(probe) == ["cli", "config", "convergence", "eigensolve", "errors",
                             "geometry", "magnetics", "operators"]


def test_geometry_command_runs_on_numpy_alone(tmp_path):
    cfg = _config(
        {"family": "torus", "params": {"major": 2.0, "minor": 0.5}, "grid": [16, 16],
         "embedding_epsilon": 0.1},
        field={"kind": "constant", "b": [0.0, 0.0, 1.0]},
    )
    path = _write(tmp_path / "c.json", cfg)
    probe = (
        "import json, sys\n"
        f"stack = {SOLVER_STACK!r}\n"
        "loaded = lambda: [m for m in stack if m in sys.modules]\n"
        "import thinlayer\n"
        "seen = [loaded()]\n"
        "from thinlayer.cli import main\n"
        "seen.append(loaded())\n"
        f"rc = main(['geometry', '--config', {path!r}, '--out', {str(tmp_path)!r}])\n"
        "print(json.dumps([rc, seen + [loaded()]]))\n"
    )
    rc, seen = _fresh(probe)
    assert rc == 0 and seen == [[], [], []]
    summary = json.loads((tmp_path / "geometry_summary.json").read_text())
    assert summary["embedding"]["passed"] is True


def test_solver_commands_import_their_modules_before_the_config(tmp_path):
    # the imports of `spectrum` and `converge` land before load_config, where
    # the benchmark counts them as set-up; `spectrum` needs no scipy.special
    # (the convergence rates) and no scipy.spatial
    spectrum = _write(tmp_path / "s.json", _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [32]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 2},
        spectrum={"operator": "full-H", "epsilon": 0.1, "m_u": 5},
    ))
    converge = _write(tmp_path / "v.json", _config(
        {"family": "circle", "params": {"radius": 1.0}, "grid": [32]},
        field={"kind": "zero"},
        solver={"n_eigenpairs": 1},
        sweep={"epsilons": [0.2, 0.1], "m_u": 5, "grid_doubling": False},
    ))
    probe = (
        "import json, sys\n"
        "import thinlayer.cli as cli\n"
        "load, seen = cli.load_config, []\n"
        "def recording_load(path):\n"
        "    seen.append(sorted(m for m in sys.modules if m.startswith('thinlayer.')))\n"
        "    return load(path)\n"
        "cli.load_config = recording_load\n"
        f"rc = cli.main(['spectrum', '--config', {spectrum!r}, '--out', {str(tmp_path)!r}])\n"
        f"stack = {SOLVER_STACK!r}\n"
        "after = [m for m in stack if m in sys.modules]\n"
        "print(json.dumps([rc, seen, after]))\n"
    )
    rc, seen, after = _fresh(probe)
    assert rc == 0
    assert seen == [["thinlayer.cli", "thinlayer.config", "thinlayer.eigensolve",
                     "thinlayer.errors", "thinlayer.geometry", "thinlayer.magnetics",
                     "thinlayer.operators"]]
    assert after == ["scipy.sparse", "scipy.linalg"]
    rc, seen, _ = _fresh(probe.replace("'spectrum'", "'converge'").replace(spectrum, converge))
    assert rc in (cli.EXIT_OK, cli.EXIT_ACCEPTANCE)  # two widths fit no rate
    assert "thinlayer.convergence" in seen[0]
