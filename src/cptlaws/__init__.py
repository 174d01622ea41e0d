"""Scaling-law toolkit for pre-training and continual-pre-training loss logs.

Fits the from-scratch and extended CPT loss laws to run telemetry, derives
compute-optimal parameter/data allocations, and quantifies cross-lingual
transfer (tokens and FLOPs saved) and replay forgetting curves.

The fitter's and the synthetic generator's names are loaded on first use
(PEP 562), so ``import cptlaws`` loads no numpy, and neither do the
closed-form commands, the IsoLoss grid, empirical transfer or the zero-offset
frontier.
"""

from types import ModuleType as _ModuleType

from .allocator import (
    AllocationCoefficients,
    AllocationPlan,
    IsoLossGrid,
    allocation_coefficients,
    isoloss_grid,
    numeric_optimal_params,
    optimal_allocation,
)
from .errors import (
    AllocationRegimeError,
    CptLawsError,
    DomainError,
    FitError,
    FitFailureError,
    InterpolationRangeError,
    NoCrossoverError,
    ParseError,
    UnidentifiableDataError,
    UnreachableLossError,
    ValidationError,
)
from .ingest import (
    FLOPS_PER_PARAM_TOKEN,
    LossRecord,
    ModelSpec,
    RunSet,
    TrainingRun,
    attribute_flops_by_language,
    dump_runs,
    load_catalog,
    load_runs,
    parse_runs,
    serialize_runs,
    warmup_filter,
)
from .laws import (
    ChinchillaParams,
    ExtendedCptParams,
    FrontierParams,
    REFERENCE_CPT_FRONTIER,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_FRONTIER,
    REFERENCE_SCRATCH_LAW,
    eval_frontier,
    eval_law,
    frontier_crossover,
    law_from_dict,
    law_to_dict,
    loss_floor,
    solve_tokens_for_loss,
)
from .transfer import (
    CurveInterpolator,
    ForgettingCurve,
    TransferReport,
    empirical_transfer,
    extract_compute_frontier,
    fit_frontier,
    flops_saving_from_frontiers,
    forgetting_curves,
    interp_loss_curve,
    parametric_transfer,
)

__version__ = "0.1.0"

#: Names exported from the modules that import numpy, each loaded on first access.
_LAZY = {
    **dict.fromkeys(
        ("FitConfig", "FitReport", "ModelComparison", "compare_laws", "fit_cpt",
         "fit_scratch", "huber", "objective_scratch"),
        "fitter",
    ),
    **dict.fromkeys(("SynthConfig", "generate_runset", "paper_replica_config"), "synth"),
}

__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LAZY)
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
