"""Quasi-likelihood scan test for a parameter change in causal time series."""

from .critical_values import (
    CriticalTable,
    calibrate,
    simulate_sup_bb,
    sup_bb_quantile,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    RepRecord,
    run_experiment,
)
from .likelihood import LikelihoodEval, VolatilityPath, loglik, qhat_t, volatility_path
from .models import (
    CalibrationRequiredError,
    DomainError,
    ModelFamily,
    ModelSpec,
    ParamDomain,
    ScanError,
    ScanWindow,
    SeriesParseError,
    SeriesSegment,
    ShapeError,
    SizingError,
    ar_spec,
    arch_spec,
    default_window,
    garch_spec,
    in_domain,
)
from .qmle import EstimateResult, estimate, project_to_domain
from .scan_stat import ScanResult, decide, scan
from .simulate import DEFAULT_BURN_IN, SimPlan, generate

__all__ = [
    "CalibrationRequiredError",
    "CriticalTable",
    "DEFAULT_BURN_IN",
    "DomainError",
    "EstimateResult",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentReport",
    "LikelihoodEval",
    "ModelFamily",
    "ModelSpec",
    "ParamDomain",
    "RepRecord",
    "ScanError",
    "ScanResult",
    "ScanWindow",
    "SeriesParseError",
    "SeriesSegment",
    "ShapeError",
    "SimPlan",
    "SizingError",
    "VolatilityPath",
    "ar_spec",
    "arch_spec",
    "calibrate",
    "decide",
    "default_window",
    "estimate",
    "garch_spec",
    "generate",
    "in_domain",
    "loglik",
    "project_to_domain",
    "qhat_t",
    "run_experiment",
    "scan",
    "simulate_sup_bb",
    "sup_bb_quantile",
    "volatility_path",
]

__version__ = "0.1.0"
