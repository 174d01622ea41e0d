"""Scaling-law toolkit for pre-training and continual-pre-training loss logs.

Fits the from-scratch and extended CPT loss laws to run telemetry, derives
compute-optimal parameter/data allocations, and quantifies cross-lingual
transfer (tokens and FLOPs saved) and replay forgetting curves.
"""

from .allocator import (
    AllocationCoefficients,
    AllocationPlan,
    IsoLossGrid,
    allocation_coefficients,
    efficient_frontier_loss,
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
from .fitter import (
    FitConfig,
    FitReport,
    ModelComparison,
    compare_laws,
    extract_compute_frontier,
    fit_cpt,
    fit_frontier,
    fit_scratch,
    huber,
    objective_cpt,
    objective_scratch,
)
from .ingest import (
    FLOPS_PER_PARAM_TOKEN,
    LossRecord,
    ModelSpec,
    RunSet,
    TrainingRun,
    attribute_flops_by_language,
    catalog_lookup,
    compute_flops,
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
    solve_params_for_loss,
    solve_tokens_for_loss,
)
from .synth import SynthConfig, generate_runset, paper_replica_config
from .transfer import (
    CurveInterpolator,
    ForgettingCurve,
    TransferReport,
    empirical_transfer,
    flops_saving_from_frontiers,
    forgetting_curves,
    interp_loss_curve,
    parametric_transfer,
)

__version__ = "0.1.0"
