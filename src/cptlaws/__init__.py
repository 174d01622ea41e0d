"""Scaling-law toolkit for pre-training and continual-pre-training loss logs.

Fits the from-scratch and extended CPT loss laws to run telemetry, derives
compute-optimal parameter/data allocations, and quantifies cross-lingual
transfer (tokens and FLOPs saved) and replay forgetting curves.

Every public name is loaded from its module on first access (PEP 562), and so
is every module named as ``cptlaws.<module>``: ``import cptlaws`` loads no
module of the package, and a name loads only the modules its own imports.
"""

__version__ = "0.1.0"

#: Every public name, by the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("AllocationCoefficients", "AllocationPlan", "IsoLossGrid",
                     "allocation_coefficients", "isoloss_grid", "numeric_optimal_params",
                     "optimal_allocation"), "allocator"),
    **dict.fromkeys(("AllocationRegimeError", "CptLawsError", "DomainError", "FitError",
                     "FitFailureError", "InterpolationRangeError", "NoCrossoverError",
                     "ParseError", "UnidentifiableDataError", "UnreachableLossError",
                     "ValidationError"), "errors"),
    **dict.fromkeys(("FitConfig", "FitReport", "ModelComparison", "compare_laws", "fit_cpt",
                     "fit_scratch", "objective_scratch"), "fitter"),
    **dict.fromkeys(("LossRecord", "ModelSpec", "RunSet", "TrainingRun",
                     "attribute_flops_by_language", "dump_runs", "load_catalog", "load_runs",
                     "parse_runs", "serialize_runs", "warmup_filter"), "ingest"),
    **dict.fromkeys(("ChinchillaParams", "ExtendedCptParams", "FLOPS_PER_PARAM_TOKEN",
                     "FrontierParams", "REFERENCE_CPT_FRONTIER", "REFERENCE_CPT_LAW",
                     "REFERENCE_SCRATCH_FRONTIER", "REFERENCE_SCRATCH_LAW", "eval_frontier",
                     "eval_law", "frontier_crossover", "law_from_dict", "law_to_dict",
                     "loss_floor", "solve_tokens_for_loss"), "laws"),
    **dict.fromkeys(("SynthConfig", "generate_runset", "paper_replica_config"), "synth"),
    **dict.fromkeys(("CurveInterpolator", "ForgettingCurve", "TransferReport",
                     "empirical_transfer", "extract_compute_frontier", "fit_frontier",
                     "flops_saving_from_frontiers", "forgetting_curves", "interp_loss_curve",
                     "parametric_transfer"), "transfer"),
}

_MODULES = {*_EXPORTS.values(), "cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # Importing a module binds it here; a name is bound on its first access.
    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
