"""Magnetic Dirichlet Laplacians on thin tubular layers of curves and
surfaces, their effective surface Hamiltonians, and quantitative
shrinking-width convergence studies.

The public names load lazily (PEP 562): `import thinlayer` imports no
submodule, and the first use of a name imports the submodule that defines
it. The geometry needs numpy only; the operators and solvers load scipy.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "AssemblyError", "ConfigError", "EmbeddingError", "FieldError", "FitError",
        "GeometryError", "SolverError", "ThinLayerError",
    ),
    "geometry": (
        "ChartAxis", "EmbeddingReport", "GeometryFamily", "HypersurfacePatch",
        "LayerGeometry", "build_patch", "check_embedding",
        "curvature_regularity_report", "layer_factors", "layer_geometry",
        "transverse_nodes", "v_eff",
    ),
    "magnetics": (
        "AmbientField", "EffectiveField", "GaugeFixedPotential", "RawLayerPotential",
        "ScalarPotential", "constant_field", "effective_field",
        "effective_field_from_chart", "gauge_fix", "layer_potential",
        "polynomial_field", "polynomial_potential", "pullback", "sampled_field",
        "sampled_potential", "surface_trace_potential", "zero_field", "zero_potential",
    ),
    "operators": (
        "AssembledOperator", "ComparisonConstants", "DofMap", "TRANSVERSE_GROUND_ENERGY",
        "assemble_comparison", "assemble_effective", "assemble_full",
        "comparison_constants", "renormalize",
        "transverse_curvature_potential", "transverse_energies", "transverse_matrix",
    ),
    "eigensolve": (
        "OperatorNormEstimate", "Spectrum", "gershgorin_bounds", "lowest_eigenpairs",
        "opnorm_estimate", "resolvent",
    ),
    "convergence": (
        "ConvergenceReport", "FitResult", "GapBoundReport", "SweepRow", "SweepSpec",
        "TransverseMode", "fit_rate", "gap_bound_report", "run_sweep",
        "sweep_acceptance",
    ),
    "config": ("RunConfig", "load_config"),
}

__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])


def __getattr__(name):
    """Import the submodule `name`, or the one that defines `name`, and keep
    the name in this namespace so the next lookup finds it directly."""
    module = next((m for m, names in _EXPORTS.items() if name == m or name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime does
    # not time; the import binds the submodule in this namespace
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) - {"_EXPORTS", "__getattr__", "__dir__"} | set(__all__))
