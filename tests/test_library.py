import math
import re
import warnings

import pytest

from cptlaws import (
    REFERENCE_CPT_FRONTIER,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_FRONTIER,
    REFERENCE_SCRATCH_LAW,
    AllocationCoefficients,
    AllocationPlan,
    ChinchillaParams,
    CptLawsError,
    CurveInterpolator,
    ExtendedCptParams,
    FitConfig,
    FitReport,
    ForgettingCurve,
    FrontierParams,
    IsoLossGrid,
    LossRecord,
    ModelComparison,
    ModelSpec,
    RunSet,
    SynthConfig,
    TrainingRun,
    TransferReport,
    ValidationError,
    allocation_coefficients,
    attribute_flops_by_language,
    empirical_transfer,
    eval_frontier,
    eval_law,
    extract_compute_frontier,
    fit_cpt,
    fit_frontier,
    flops_saving_from_frontiers,
    frontier_crossover,
    isoloss_grid,
    law_to_dict,
    loss_floor,
    numeric_optimal_params,
    objective_scratch,
    optimal_allocation,
    parametric_transfer,
    solve_tokens_for_loss,
    warmup_filter,
)
from conftest import law_run, law_runset

SCRATCH, CPT = REFERENCE_SCRATCH_LAW, REFERENCE_CPT_LAW
F_PT, F_CPT = REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER

# Values that break an argument of each kind.
NUMBER = ("x", True, None, math.nan, math.inf, -math.inf, 0, -1, 10**400)
COUNT = NUMBER + (2.5,)
SEQUENCE = NUMBER + ((), ("x",), (None,), (math.nan,), (10**400,))
PAIR = SEQUENCE + ((1e8,), (1e8, 1e10, 1e12), ("x", 1e10), (1e10, 10**400))
PAIRS = SEQUENCE + (
    [("a", 1.0), (2.0, 1.0)], [(1.0,), (2.0, 1.0)], [(1.0, 2.0, 3.0), (2.0, 1.0)],
    [5, (2.0, 1.0)], [(None, 1.0), (2.0, 1.0)], [(1.0, -1.0), (2.0, 1.0)],
    [(math.inf, 1.0), (2.0, 1.0)], [(10**400, 1.0), (2.0, 1.0)],
)
LOSS_LAW = ("x", None, 1.0, F_PT)
FRONTIER = ("x", None, 1.0, SCRATCH)
SIZES = (10**8, 10**9)


def library_calls():
    """(callable, the keyword arguments of one valid call, each argument's bad values)."""
    runs = law_runset(SCRATCH, SIZES, records_per_run=4)
    d_values = [1e9, 1e10, 1e11]
    run_pt, run_cpt = law_run(SCRATCH, 10**9, d_values), law_run(CPT, 10**9, d_values, "c", "cpt")
    cpt_runs = law_runset(CPT, SIZES, records_per_run=4, strategy="cpt")
    coeffs = allocation_coefficients(SCRATCH)
    plan = optimal_allocation(coeffs, 1e21, SCRATCH)
    record = LossRecord(tokens=10**9, loss=3.0)
    curve = CurveInterpolator(log_tokens=(1.0, 2.0), log_losses=(2.0, 1.0))
    grid = isoloss_grid(SCRATCH, (1e8, 1e10), (1e9, 1e12), 3)
    transfer = empirical_transfer(run_pt, run_cpt, 4)
    return [
        (ChinchillaParams, vars(SCRATCH), dict.fromkeys(vars(SCRATCH), NUMBER)),
        (ExtendedCptParams, vars(CPT), dict.fromkeys(vars(CPT), NUMBER)),
        (FrontierParams, vars(F_PT), dict.fromkeys(vars(F_PT), NUMBER)),
        (eval_law, dict(law=SCRATCH, N=1e9, D=1e10), dict(law=LOSS_LAW, N=NUMBER, D=NUMBER)),
        (loss_floor, dict(law=CPT, N=1e9), dict(law=LOSS_LAW, N=NUMBER)),
        (solve_tokens_for_loss, dict(law=SCRATCH, N=1e9, L=3.0),
         dict(law=LOSS_LAW, N=NUMBER, L=NUMBER)),
        (eval_frontier, dict(p=F_PT, C=1e21), dict(p=FRONTIER, C=NUMBER)),
        (frontier_crossover, dict(f1=F_PT, f2=F_CPT), dict(f1=FRONTIER, f2=FRONTIER)),
        (law_to_dict, dict(law=SCRATCH), dict(law=("x", None, 1.0, {}))),
        (allocation_coefficients, dict(law=CPT), dict(law=LOSS_LAW)),
        (AllocationCoefficients, vars(coeffs), dict.fromkeys(vars(coeffs), NUMBER)),
        (AllocationPlan, vars(plan), dict.fromkeys(vars(plan), NUMBER)),
        (optimal_allocation, dict(coeffs=coeffs, compute=1e21, law=SCRATCH),
         dict(compute=NUMBER, law=LOSS_LAW)),
        (numeric_optimal_params, dict(law=SCRATCH, compute=1e21),
         dict(law=LOSS_LAW, compute=NUMBER)),
        (isoloss_grid, dict(law=SCRATCH, n_range=(1e8, 1e10), d_range=(1e9, 1e12), resolution=3),
         dict(law=LOSS_LAW, n_range=PAIR, d_range=PAIR, resolution=COUNT)),
        (IsoLossGrid, vars(grid), dict(n_axis=SEQUENCE, d_axis=SEQUENCE,
                                       loss_values=SEQUENCE + ((1.0, 1.0, 1.0),),
                                       frontier=PAIRS)),
        (empirical_transfer, dict(run_pt=run_pt, run_cpt=run_cpt, levels=4), dict(levels=COUNT)),
        (TransferReport, vars(transfer), dict.fromkeys(vars(transfer), SEQUENCE)),
        (CurveInterpolator, vars(curve), dict.fromkeys(vars(curve), SEQUENCE)),
        (curve.loss_at_tokens, dict(tokens=5.0), dict(tokens=NUMBER)),
        (curve.tokens_at_loss, dict(loss=5.0), dict(loss=NUMBER)),
        (parametric_transfer, dict(scratch=SCRATCH, cpt=CPT, N=1e9, D_cpt=1e10),
         dict(scratch=LOSS_LAW, cpt=LOSS_LAW, N=NUMBER, D_cpt=NUMBER)),
        (extract_compute_frontier, dict(data=runs, bins_per_decade=10),
         dict(bins_per_decade=COUNT)),
        (fit_frontier, dict(points=[(1e18, 3.0), (1e19, 2.5), (1e20, 2.2)]), dict(points=PAIRS)),
        (flops_saving_from_frontiers, dict(f_pt=F_PT, f_cpt=F_CPT, L=2.5),
         dict(f_pt=FRONTIER, f_cpt=FRONTIER, L=NUMBER)),
        (ForgettingCurve, dict(run_id="r", replay_ratio=0.25, target_language="zh",
                               source_language="en", source_points=((1e18, 2.5),),
                               target_points=((3e18, 2.4),)),
         dict(replay_ratio=NUMBER, source_points=PAIRS, target_points=PAIRS)),
        (LossRecord, dict(tokens=10**9, loss=3.0), dict(tokens=COUNT, loss=NUMBER)),
        (TrainingRun, dict(id="r", strategy="cpt", language="zh", replay_ratio=0.25,
                           param_count=10**9, records=(record,)),
         dict(replay_ratio=NUMBER, param_count=COUNT, records=SEQUENCE)),
        (ModelSpec, dict(param_size_millions=1, hidden=2, intermediate=3, heads=4, layers=5),
         dict.fromkeys(("param_size_millions", "hidden", "intermediate", "heads", "layers"),
                       COUNT)),
        (attribute_flops_by_language, dict(total=1e21, replay_ratio=0.1),
         dict(total=NUMBER, replay_ratio=NUMBER)),
        (warmup_filter, dict(run=run_pt, fraction=0.05), dict(fraction=NUMBER)),
        (objective_scratch, dict(theta=(6.0, 6.5, 0.4, 0.4, 0.3), data=runs, delta=1e-3),
         dict(theta=SEQUENCE + ((6.0, 6.5, 0.4, 0.4), (6.0, 6.5, 0.4, -1.0, 0.3)),
              delta=NUMBER)),
        (FitConfig, dict(delta=1e-3, init_grid=((0.2, 0.1, 0.0),), warmup_fraction=0.0),
         dict(delta=NUMBER, init_grid=PAIRS, warmup_fraction=NUMBER)),
        (FitReport, dict(params=SCRATCH, objective=1e-6, residuals=(1e-3, -1e-3),
                         chosen_init=(6.0, 0.2, 0.1)),
         dict(params=LOSS_LAW, objective=NUMBER, residuals=SEQUENCE, chosen_init=SEQUENCE)),
        (ModelComparison, dict(chinchilla_error=2e-6, extended_error=1e-6, gamma_fitted=0.08),
         dict.fromkeys(("chinchilla_error", "extended_error", "gamma_fitted"), NUMBER)),
        (fit_cpt, dict(data=cpt_runs, fixed=(CPT.E, CPT.A, CPT.alpha),
                       cfg=FitConfig(init_grid=((6.0, 0.2, 0.1),))),
         dict(fixed=SEQUENCE + ((1.0, 2.0), (1.0, 2.0, 0.4, 1.0), (1.0, -2.0, 0.4)))),
        (SynthConfig, dict(law=CPT, param_sizes=SIZES, token_multiple=20.0, records_per_run=3,
                           noise_sigma=0.01, seed=1),
         dict(law=LOSS_LAW, param_sizes=SEQUENCE, token_multiple=NUMBER, records_per_run=COUNT,
              noise_sigma=NUMBER, seed=COUNT)),
    ]


def _outcome(function, kwargs):
    """None when the call returns or raises a CptLawsError, else what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            function(**kwargs)
        except CptLawsError:
            pass
        except Exception as exc:  # what escapes the library is the finding
            return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.property
class TestFuzzedLibrary:
    """Every public callable that takes a number, count, sequence or law ends a bad one in a
    CptLawsError.

    Each callable's valid call returns.  Then one argument at a time is replaced
    by each bad value of its kind (a str, a bool, None, NaN, +-inf, 0, -1 and
    10**400; 2.5 for a count; an empty, non-numeric, short or long sequence; a
    malformed pair; a law of the wrong kind) under warnings as errors: 37
    callables, 1023 cases.  Objects the library builds (runs, run sets, the
    allocation coefficients an allocation takes, a fit's config) are not mutated;
    the records a fit, an isoloss grid or a transfer returns are, and so is a loss
    curve's interpolator, whose lookups take a number.  A grid's cells are the law's
    own floats and are not converted: only its axes, its rows and its frontier's
    (C, N) pairs are.
    """

    def test_no_bad_argument_escapes_untyped(self):
        calls = library_calls()
        cases, escapes = 0, []
        for function, valid, bad_values in calls:
            function(**valid)
            for name, values in bad_values.items():
                for value in values:
                    cases += 1
                    outcome = _outcome(function, {**valid, name: value})
                    if outcome is not None:
                        escapes.append(f"{function.__name__}({name}={value!r:.40}): {outcome}")
        assert (len(calls), cases) == (37, 1023)
        assert escapes == []


class TestResultRecords:
    """A fit's records take what a fit returns: a loss law, nonnegative objectives, floats."""

    REPORT = dict(params=SCRATCH, objective=1e-6, residuals=(1e-3,), chosen_init=(6.0, 0.2, 0.1))
    COMPARISON = dict(chinchilla_error=2e-6, extended_error=1e-6, gamma_fitted=0.08)

    @pytest.mark.parametrize("record, fields, name", [
        (FitReport, {"params": "x"}, "a loss law"),
        (FitReport, {"params": F_PT}, "a loss law"),
        (FitReport, {"objective": math.nan}, "objective"),
        (FitReport, {"residuals": "x"}, "residuals"),
        (FitReport, {"chosen_init": (None,)}, "chosen_init"),
        (FitReport, {"residuals": (math.inf,)}, r"residuals\[0\] must be finite, got inf"),
        (FitReport, {"chosen_init": (6.0, math.nan)}, r"chosen_init\[1\] must be finite, got nan"),
        (ModelComparison, {"gamma_fitted": "x"}, "gamma_fitted"),
        (ModelComparison, {"gamma_fitted": math.inf}, "gamma_fitted"),
    ], ids=["str-params", "frontier-params", "nan-objective", "str-residuals", "null-start",
            "inf-residual", "nan-start", "str-gamma", "inf-gamma"])
    def test_refuses_what_no_fit_returns(self, record, fields, name):
        valid = self.REPORT if record is FitReport else self.COMPARISON
        with pytest.raises(ValidationError, match=name):
            record(**{**valid, **fields})

    TRANSFER = dict(loss_levels=(2.5, 2.4), d_pt=(1e9, 2e9), d_cpt=(5e8, 1e9),
                    transferred_tokens=(5e8, 1e9), flops_saved_fraction=(0.5, 0.5))

    # One rule per field: the levels and token counts positive and finite, the
    # transferred tokens finite, a saving finite and below 1 (it may be negative).
    @pytest.mark.parametrize("field, value, message", [
        ("loss_levels", (2.5, 0.0), "loss_levels[1] must be positive and finite, got 0.0"),
        ("loss_levels", (math.nan, 2.4), "loss_levels[0] must be positive and finite, got nan"),
        ("d_pt", (1e9, math.inf), "d_pt[1] must be positive and finite, got inf"),
        ("d_cpt", (-5e8, 1e9), "d_cpt[0] must be positive and finite, got -500000000.0"),
        ("transferred_tokens", (5e8, -math.inf), "transferred_tokens[1] must be finite, got -inf"),
        ("flops_saved_fraction", (math.nan, 0.5),
         "flops_saved_fraction[0] must be finite and below 1, got nan"),
        ("flops_saved_fraction", (0.5, -math.inf),
         "flops_saved_fraction[1] must be finite and below 1, got -inf"),
        ("d_pt", (1e9,), "d_pt must hold 2 values, got 1"),
    ], ids=["zero-level", "nan-level", "inf-d-pt", "negative-d-cpt", "inf-transferred",
            "nan-saving", "minus-inf-saving", "short-d-pt"])
    def test_transfer_report_checks_every_value(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            TransferReport(**{**self.TRANSFER, field: value})

    def test_transfer_report_keeps_a_negative_saving(self):
        report = TransferReport(**{**self.TRANSFER, "flops_saved_fraction": (-3, 0.5)})
        assert report.flops_saved_fraction == (-3.0, 0.5)

    @pytest.mark.parametrize("field, value, message", [
        ("n_axis", (1e8, 0.0), "n_axis[1] must be positive and finite, got 0.0"),
        ("d_axis", (math.inf, 1e10, 1e12), "d_axis[0] must be positive and finite, got inf"),
        ("frontier", ((1e20, math.nan),), "frontier[0][1] must be positive and finite, got nan"),
    ], ids=["zero-n", "inf-d", "nan-frontier-n"])
    def test_isoloss_grid_axes_and_frontier_are_positive_and_finite(self, field, value, message):
        grid = isoloss_grid(SCRATCH, (1e8, 1e10), (1e9, 1e12), 3)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            IsoLossGrid(**{**vars(grid), field: value})


class TestPublicRecordChecks:
    """The checks of the public records that relate their fields, which no library call trips."""

    @pytest.mark.parametrize("record, fields, message", [
        (AllocationCoefficients, dict(G=1.0, a=0.5, b=0.6, k_N=1.0, k_D=1.0),
         "exponents must satisfy a + b = 1, got 1.1"),
        (AllocationPlan, dict(compute=1e21, n_opt=1e9, d_opt=1e10, predicted_loss=2.0),
         "plan is inconsistent: 6*N*D = 6e+19 but compute = 1e+21"),
        (TransferReport, dict(loss_levels=(2.5, 2.4), d_pt=(1e9, 2e9), d_cpt=(5e8, 1e9),
                              transferred_tokens=(5e8, 1e9), flops_saved_fraction=(0.5, 1.0)),
         "flops_saved_fraction[1] must be finite and below 1, got 1.0"),
    ], ids=["exponents-sum", "plan-compute", "transfer-saving"])
    def test_inconsistent_fields_are_refused(self, record, fields, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            record(**fields)

    def test_run_set_get_of_a_missing_id_is_key_error(self):
        runs = RunSet(runs=(law_run(SCRATCH, 10**9, [10**9], run_id="r"),))
        assert runs.get("r") is runs.runs[0]
        with pytest.raises(KeyError, match="^'s'$"):
            runs.get("s")
