"""Run configuration: versioned JSON schema, validation and object builders.

SCHEMA states the config format in JSON Schema 2020-12, and _violations checks
it in-house, with the keywords SCHEMA uses and nothing else.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import FAMILY_KINDS, GeometryFamily
from .magnetics import (
    AmbientField,
    ScalarPotential,
    constant_field,
    polynomial_field,
    polynomial_potential,
    sampled_field,
    sampled_potential,
    zero_field,
    zero_potential,
)

_MONOMIAL = {
    "type": "array",
    "minItems": 2,
    "maxItems": 2,
    "prefixItems": [
        {"type": "number"},
        {"type": "array", "items": {"type": "integer", "minimum": 0}},
    ],
}

_ELECTRIC = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["zero", "polynomial", "sampled"]},
        "terms": {"type": "array", "items": _MONOMIAL},
        "csv": {"type": "string"},
    },
}


def _outputs(*names):
    """Output file names a command writes: only the keys it reads."""
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {name: {"type": "string"} for name in names},
    }


# odd, so that a transverse node sits at u = 0
_M_U = {"type": "integer", "minimum": 3, "not": {"multipleOf": 2}}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "geometry"],
    "properties": {
        "schema": {"const": 1},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": list(FAMILY_KINDS)},
                "params": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "grid": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 8},
                    "minItems": 1,
                    "maxItems": 2,
                },
                "closure": {
                    "type": "array",
                    "items": {"enum": ["periodic", "dirichlet"]},
                    "minItems": 1,
                    "maxItems": 2,
                },
                "csv": {"type": "string"},
                "embedding_epsilon": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "field": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["zero", "constant", "linear-gauge", "sampled"]},
                "b": {
                    "anyOf": [
                        {"type": "number"},
                        {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 3,
                            "maxItems": 3,
                        },
                    ]
                },
                "components": {
                    "type": "array",
                    "items": {"type": "array", "items": _MONOMIAL},
                    "minItems": 2,
                    "maxItems": 3,
                },
                "csv": {"type": "string"},
                "electric": _ELECTRIC,
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_eigenpairs": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "dense_threshold": {"type": "integer", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["epsilons"],
            "properties": {
                "epsilons": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                    "uniqueItems": True,
                },
                "m_u": _M_U,
                "grid_doubling": {"type": "boolean"},
                "outputs": _outputs("csv", "json"),
            },
        },
        "spectrum": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "operator": {
                    "enum": [
                        "h-eff",
                        "full-H",
                        "full-H-renormalized",
                        "H0+",
                        "H0-",
                    ]
                },
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "m_u": _M_U,
                "dump_operator": {"type": "boolean"},
                "dump_eigenvectors": {"type": "boolean"},
                "outputs": _outputs("csv", "eigenvectors", "matrix"),
            },
        },
        "geometry_outputs": _outputs("csv", "json"),
    },
}


# ---------------------------------------------------------------------------
# validation against SCHEMA
# ---------------------------------------------------------------------------

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _is_type(value, name):
    """JSON types of parsed values. Booleans are not numbers, and "integer"
    means an integer literal: 3.0 would reach SeedSequence or ARPACK as a
    float."""
    if isinstance(value, bool):
        return name == "boolean"
    return isinstance(value, _TYPES[name])


def _equal(a, b):
    """JSON equality of scalars: true is not 1."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


# keyword -> (the JSON type it constrains, None for every value; the test a
# value of that type must pass; the message when it fails)
_RULES = {
    "type": (None, _is_type, "{v!r} is not of type {a!r}"),
    "const": (None, _equal, "{a!r} was expected"),
    "enum": (None, lambda v, a: any(_equal(v, x) for x in a), "{v!r} is not one of {a!r}"),
    "not": (None, lambda v, a: bool(_violations(v, a)), "{v!r} should not be valid under {a!r}"),
    "anyOf": (
        None,
        lambda v, a: any(not _violations(v, x) for x in a),
        "{v!r} is not valid under any of the given schemas",
    ),
    "minimum": ("number", operator.ge, "{v!r} is less than the minimum of {a!r}"),
    "exclusiveMinimum": (
        "number", operator.gt, "{v!r} is less than or equal to the minimum of {a!r}"
    ),
    "multipleOf": ("number", lambda v, a: v % a == 0, "{v!r} is not a multiple of {a}"),
    "minItems": ("array", lambda v, a: len(v) >= a, "{v!r} is too short"),
    "maxItems": ("array", lambda v, a: len(v) <= a, "{v!r} is too long"),
    "uniqueItems": (
        "array",
        lambda v, a: not a or not any(_equal(x, y) for i, x in enumerate(v) for y in v[:i]),
        "{v!r} has non-unique elements",
    ),
}

# with the keywords that name required members or the schemas of members
KEYWORDS = {*_RULES, "required", "properties", "additionalProperties", "prefixItems", "items"}


def _violations(value, schema, path=()):
    """(path, message) for every keyword of schema that value, or a member of
    it, breaks: JSON Schema 2020-12 restricted to KEYWORDS."""
    found = []
    for key, arg in schema.items():
        if key in _RULES:
            kind, holds, message = _RULES[key]
            if (kind is None or _is_type(value, kind)) and not holds(value, arg):
                found.append((path, message.format(v=value, a=arg)))
    members = {}
    if _is_type(value, "object"):
        missing = [k for k in schema.get("required", ()) if k not in value]
        found += [(path, f"{k!r} is a required property") for k in missing]
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        unexpected = sorted(set(value) - set(properties))
        if extra is False and unexpected:
            verb = "was" if len(unexpected) == 1 else "were"
            found.append((path, f"Additional properties are not allowed "
                                f"({', '.join(map(repr, unexpected))} {verb} unexpected)"))
        members = {k: properties.get(k, extra) for k in value}
    elif _is_type(value, "array"):
        prefix = schema.get("prefixItems", [])
        rest = schema.get("items", True)
        members = {i: prefix[i] if i < len(prefix) else rest for i in range(len(value))}
    for k, sub in members.items():
        if isinstance(sub, dict):
            found += _violations(value[k], sub, path + (k,))
    return found


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    path: str

    @property
    def geometry(self) -> dict:
        return self.raw["geometry"]

    @property
    def field(self) -> dict:
        return self.raw.get("field", {"kind": "zero"})

    @property
    def solver(self) -> dict:
        return self.raw.get("solver", {})

    @property
    def sweep(self) -> dict:
        return self.raw.get("sweep", {})

    @property
    def spectrum(self) -> dict:
        return self.raw.get("spectrum", {})

    def solver_opt(self, name, default):
        return self.solver.get(name, default)


def _finite_number(token: str) -> float:
    """JSON float literals and the NaN/Infinity tokens: only finite values pass
    (the schema's bounds do not reject NaN)."""
    v = float(token)
    if not np.isfinite(v):
        raise ValueError(f"non-finite number {token} is not allowed")
    return v


def load_config(path) -> RunConfig:
    """Parse and schema-validate a run configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}")
    try:
        raw = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}")
    errors = sorted(_violations(raw, SCHEMA), key=lambda e: e[0])
    if errors:
        spots = "; ".join(
            f"/{'/'.join(str(x) for x in where)}: {message}" for where, message in errors[:4]
        )
        raise ConfigError(f"{p}: config violates schema: {spots}")
    return RunConfig(raw=raw, path=str(p))


# ---------------------------------------------------------------------------
# CSV loaders for user-sampled inputs
# ---------------------------------------------------------------------------


def _load_numeric_csv(path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}")
    except ValueError:
        try:  # tolerate one header row
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot parse CSV {path}: {exc}")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad)) + 1
        raise ConfigError(f"sampled CSV {path} has a non-finite number in data row {row}")
    return data


def load_sampled_geometry(path, n_index_cols=None) -> np.ndarray:
    """Positions from CSV (chart-index columns then coordinates, row-major)."""
    data = _load_numeric_csv(path)
    ncols = data.shape[1]
    if n_index_cols is None:
        n_index_cols = 1 if ncols == 3 else 2
    d = ncols - n_index_cols
    if d not in (2, 3) or d != n_index_cols + 1:
        raise ConfigError(
            f"sampled geometry CSV must have index columns + d coordinates "
            f"(2d: 1+2, 3d: 2+3 columns), got {ncols} columns"
        )
    idx = data[:, :n_index_cols]
    if not np.all((idx >= 0) & (np.mod(idx, 1) == 0)):
        raise ConfigError("sampled geometry CSV chart indices must be non-negative integers")
    idx = idx.astype(int)
    shape = tuple(int(idx[:, k].max()) + 1 for k in range(n_index_cols))
    expected = int(np.prod(shape))
    if data.shape[0] != expected:
        raise ConfigError(
            f"sampled geometry CSV has {data.shape[0]} rows, expected {expected}"
        )
    lin = np.ravel_multi_index(tuple(idx[:, k] for k in range(n_index_cols)), shape)
    if not np.array_equal(np.sort(lin), np.arange(expected)):
        raise ConfigError("sampled geometry CSV does not enumerate the grid")
    pos = np.empty((expected, d))
    pos[lin] = data[:, n_index_cols:]
    return pos.reshape(shape + (d,))


def load_sampled_grid_csv(path, dim, n_values) -> tuple[list, np.ndarray]:
    """Values on a rectangular grid from CSV rows (ambient point, n_values
    values); every grid node must appear exactly once."""
    data = _load_numeric_csv(path)
    if data.shape[1] != dim + n_values:
        raise ConfigError(
            f"sampled CSV {path} needs {dim + n_values} columns ({dim} point "
            f"coordinates, {n_values} values), got {data.shape[1]}"
        )
    axes = [np.unique(data[:, k]) for k in range(dim)]
    shape = tuple(a.size for a in axes)
    if min(shape) < 2:
        raise ConfigError(
            f"sampled CSV {path} needs at least 2 distinct coordinates along "
            f"every axis, got a {'x'.join(map(str, shape))} grid"
        )
    n = int(np.prod(shape))
    lin = np.ravel_multi_index(
        tuple(np.searchsorted(a, data[:, k]) for k, a in enumerate(axes)), shape
    )
    if not np.array_equal(np.sort(lin), np.arange(n)):
        raise ConfigError(
            f"sampled CSV {path} does not list every node of its "
            f"{'x'.join(map(str, shape))} grid exactly once"
        )
    values = np.empty((n, n_values))
    values[lin] = data[:, dim:]
    return axes, values.reshape(shape + (n_values,))


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------


def build_family(cfg: RunConfig) -> tuple[GeometryFamily, tuple]:
    g = cfg.geometry
    kind = g["family"]
    params = dict(g.get("params", {}))
    if kind == "user-sampled":
        if "csv" not in g:
            raise ConfigError("user-sampled geometry needs a csv entry")
        base = Path(cfg.path).parent
        samples = load_sampled_geometry(base / g["csv"])
        grid = samples.shape[:-1]
        closures = tuple(g["closure"]) if "closure" in g else None
        if closures is not None and len(closures) != len(grid):
            raise ConfigError(
                f"a user-sampled chart with {len(grid)} direction(s) needs one "
                f"closure per direction, got {list(closures)}"
            )
        return GeometryFamily(kind, params, samples=samples, closures=closures), grid
    fam = GeometryFamily(kind, params)
    grid = tuple(g.get("grid", ()))
    n_dirs = fam.ambient_dim - 1
    if len(grid) != n_dirs:
        raise ConfigError(
            f"a {kind} grid needs {n_dirs} size(s), one per chart direction, "
            f"got {list(grid)}"
        )
    return fam, grid


def build_field(cfg: RunConfig, dim: int) -> AmbientField:
    f = cfg.field
    kind = f.get("kind", "zero")
    if kind == "zero":
        return zero_field(dim)
    if kind == "constant":
        if "b" not in f:
            raise ConfigError("constant field needs the b entry")
        return constant_field(dim, f["b"])
    if kind == "linear-gauge":
        if "components" not in f:
            raise ConfigError("linear-gauge field needs components")
        return polynomial_field(dim, f["components"])
    if kind == "sampled":
        if "csv" not in f:
            raise ConfigError("sampled field needs a csv entry")
        axes, values = load_sampled_grid_csv(Path(cfg.path).parent / f["csv"], dim, dim)
        return sampled_field(dim, axes, values)
    raise ConfigError(f"unknown field kind {kind!r}")


def build_electric(cfg: RunConfig, dim: int) -> ScalarPotential | None:
    e = cfg.field.get("electric")
    if e is None:
        return None
    kind = e["kind"]
    if kind == "zero":
        return zero_potential()
    if kind == "polynomial":
        return polynomial_potential(e.get("terms", []))
    if kind == "sampled":
        if "csv" not in e:
            raise ConfigError("sampled electric potential needs a csv entry")
        axes, values = load_sampled_grid_csv(Path(cfg.path).parent / e["csv"], dim, 1)
        return sampled_potential(axes, values[..., 0])
    raise ConfigError(f"unknown electric potential kind {kind!r}")
