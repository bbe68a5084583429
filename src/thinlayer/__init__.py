"""Magnetic Dirichlet Laplacians on thin tubular layers of curves and
surfaces, their effective surface Hamiltonians, and quantitative
shrinking-width convergence studies."""

__version__ = "0.1.0"

from .errors import (
    AssemblyError,
    ConfigError,
    EmbeddingError,
    FieldError,
    FitError,
    GeometryError,
    SolverError,
    ThinLayerError,
)
from .geometry import (
    ChartAxis,
    EmbeddingReport,
    GeometryFamily,
    HypersurfacePatch,
    LayerGeometry,
    build_patch,
    check_embedding,
    curvature_regularity_report,
    layer_factors,
    layer_geometry,
    transverse_nodes,
    v_eff,
)
from .magnetics import (
    AmbientField,
    EffectiveField,
    GaugeFixedPotential,
    RawLayerPotential,
    ScalarPotential,
    constant_field,
    effective_field,
    effective_field_from_chart,
    gauge_fix,
    layer_potential,
    polynomial_field,
    polynomial_potential,
    pullback,
    sampled_field,
    sampled_potential,
    surface_trace_potential,
    zero_field,
    zero_potential,
)
from .operators import (
    AssembledOperator,
    ComparisonConstants,
    DofMap,
    PotentialGrids,
    TRANSVERSE_GROUND_ENERGY,
    assemble_comparison,
    assemble_effective,
    assemble_full,
    comparison_constants,
    potential_grids,
    renormalize,
    transverse_curvature_potential,
    transverse_energies,
    transverse_matrix,
)
from .eigensolve import (
    OperatorNormEstimate,
    Spectrum,
    gershgorin_bounds,
    lowest_eigenpairs,
    opnorm_estimate,
    resolvent,
)
from .convergence import (
    ConvergenceReport,
    FitResult,
    GapBoundReport,
    SweepRow,
    SweepSpec,
    TransverseMode,
    fit_rate,
    gap_bound_report,
    run_sweep,
    sweep_acceptance,
)
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
