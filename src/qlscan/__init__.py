"""Quasi-likelihood scan test for a parameter change in causal time series.

``import qlscan`` loads the scan and what it needs: the models, the
likelihood, the QMLE fit, the scan statistic and the critical values.
The Monte Carlo harness (``qlscan.experiments``: ``ExperimentConfig``,
``ExperimentReport``, ``RepRecord``, ``run_experiment``) and the
simulator (``qlscan.simulate``: ``SimPlan``, ``generate``,
``DEFAULT_BURN_IN``) load on first access to one of their names, so
``qlscan test`` never imports them.  ``ExperimentError`` lives in
``qlscan.models`` beside the other error types.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from .critical_values import (
    CriticalTable,
    calibrate,
    simulate_sup_bb,
    sup_bb_quantile,
)
from .likelihood import LikelihoodEval, VolatilityPath, loglik, qhat_t, volatility_path
from .models import (
    CalibrationRequiredError,
    DomainError,
    ExperimentError,
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

if TYPE_CHECKING:
    from . import experiments, simulate
    from .experiments import ExperimentConfig, ExperimentReport, RepRecord, run_experiment
    from .simulate import DEFAULT_BURN_IN, SimPlan, generate

# Each lazily loaded name and the submodule that defines it (PEP 562).
_LAZY = {
    "experiments": "experiments",
    "ExperimentConfig": "experiments",
    "ExperimentReport": "experiments",
    "RepRecord": "experiments",
    "run_experiment": "experiments",
    "simulate": "simulate",
    "DEFAULT_BURN_IN": "simulate",
    "SimPlan": "simulate",
    "generate": "simulate",
}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


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
