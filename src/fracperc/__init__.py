"""Fractal (Mandelbrot) percolation: exact geometric functionals of the
construction steps and their closed complements, threshold proxies,
reproducible lattice sampling, and Monte Carlo estimation."""

from .analytic import (
    ArgumentError,
    DimensionReport,
    DomainError,
    ModelParams,
    RescaledSeries,
    dims,
    ev,
    large_m_v,
    large_m_vc,
    limit_vck_1d,
    limit_vck_2d,
    limit_vk_1d,
    limit_vk_2d,
    rescaled_series,
    vbar0_2d_finite,
    vbarc0_2d_finite,
)
from .geometry import ClusterLabeling, euler_crosscheck, label, minkowski
from .montecarlo import McEstimate, run_experiment
from .oracle import InstanceTooLargeError, enumerate_1d, enumerate_2d
from .sampler import GridRealization, MemoryBudgetError, sample
from .thresholds import (
    BracketingError,
    ThresholdReport,
    find_p0,
    find_p1,
    find_pmin,
    known_bounds,
    threshold_report,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BracketingError",
    "ClusterLabeling",
    "DimensionReport",
    "DomainError",
    "GridRealization",
    "InstanceTooLargeError",
    "McEstimate",
    "MemoryBudgetError",
    "ModelParams",
    "RescaledSeries",
    "ThresholdReport",
    "dims",
    "enumerate_1d",
    "enumerate_2d",
    "euler_crosscheck",
    "ev",
    "find_p0",
    "find_p1",
    "find_pmin",
    "known_bounds",
    "label",
    "large_m_v",
    "large_m_vc",
    "limit_vck_1d",
    "limit_vck_2d",
    "limit_vk_1d",
    "limit_vk_2d",
    "minkowski",
    "rescaled_series",
    "run_experiment",
    "sample",
    "threshold_report",
    "vbar0_2d_finite",
    "vbarc0_2d_finite",
    "__version__",
]
