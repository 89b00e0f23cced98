"""Spatial point-process deployments, SINR coverage simulation, and
quadrature lower bounds on Matern hardcore coverage."""

from .analytics import (
    default_torus,
    disc_union_area,
    empty_space_cdf,
    empty_space_ks,
    empty_space_pdf,
    mhc_density,
    nearest_distance_samples,
    pair_density_empirical,
    retention_probability,
    second_order_density,
    void_probability_empirical,
)
from .bounds import (
    BoundKind,
    QuadConfig,
    coverage_bound,
    coverage_bounds,
    interference_exponent,
    pgfl_bound_check,
)
from .coverage import (
    ChannelParams,
    CoverageCurve,
    beta_db_to_linear,
    fit_mhc,
    simulate_coverage,
)
from .errors import DataError, ParameterError
from .io import load_deployment
from .pointprocess import (
    FixedSource,
    MhcParams,
    MhcSource,
    PointSet,
    PppSource,
    Window,
    generate_grid,
    sample_mhc,
    sample_ppp,
)

__version__ = "0.1.0"

__all__ = [
    "BoundKind",
    "ChannelParams",
    "CoverageCurve",
    "DataError",
    "FixedSource",
    "MhcParams",
    "MhcSource",
    "ParameterError",
    "PointSet",
    "PppSource",
    "QuadConfig",
    "Window",
    "beta_db_to_linear",
    "coverage_bound",
    "coverage_bounds",
    "default_torus",
    "disc_union_area",
    "empty_space_cdf",
    "empty_space_ks",
    "empty_space_pdf",
    "fit_mhc",
    "generate_grid",
    "interference_exponent",
    "load_deployment",
    "mhc_density",
    "nearest_distance_samples",
    "pair_density_empirical",
    "pgfl_bound_check",
    "retention_probability",
    "sample_mhc",
    "sample_ppp",
    "second_order_density",
    "simulate_coverage",
    "void_probability_empirical",
]
