import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cptlaws import (
    DomainError,
    FrontierParams,
    InterpolationRangeError,
    LossRecord,
    REFERENCE_CPT_FRONTIER,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_FRONTIER,
    REFERENCE_SCRATCH_LAW,
    RunSet,
    SynthConfig,
    TrainingRun,
    UnreachableLossError,
    ValidationError,
    attribute_flops_by_language,
    empirical_transfer,
    eval_law,
    flops_saving_from_frontiers,
    forgetting_curves,
    generate_runset,
    interp_loss_curve,
    parametric_transfer,
    solve_tokens_for_loss,
)
from cptlaws.transfer import CurveInterpolator, export_forgetting_csv, export_transfer_csv

SCRATCH = REFERENCE_SCRATCH_LAW
CPT = REFERENCE_CPT_LAW


def run_from_points(points, run_id="r", n=10**9, strategy="scratch", replay=0.0,
                    language="zh"):
    records = []
    for point in points:
        if len(point) == 2:
            tokens, loss = point
            records.append(LossRecord(int(tokens), float(loss)))
        else:
            tokens, loss, lang = point
            records.append(LossRecord(int(tokens), float(loss), lang))
    return TrainingRun(
        id=run_id, strategy=strategy, language=language, replay_ratio=replay,
        param_count=n, records=tuple(records),
    )


def law_run(law, n, d_values, run_id, strategy):
    return run_from_points(
        [(d, float(eval_law(law, n, int(d)))) for d in d_values],
        run_id=run_id, n=n, strategy=strategy,
    )


class TestCurveInterpolator:
    def test_knot_hit(self):
        curve = interp_loss_curve(run_from_points([(10**8, 3.0), (2 * 10**8, 2.5)]))
        assert curve.tokens_at_loss(2.5) == pytest.approx(2e8, rel=1e-12)
        assert curve.loss_at_tokens(1e8) == pytest.approx(3.0, rel=1e-12)

    def test_running_minimum_smooths_noise_bump(self):
        curve = interp_loss_curve(
            run_from_points([(10**8, 3.0), (2 * 10**8, 3.1), (3 * 10**8, 2.5)])
        )
        losses = [math.exp(v) for v in curve.log_losses]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert curve.tokens_at_loss(3.0) == pytest.approx(1e8, rel=1e-12)

    @pytest.mark.parametrize("log_tokens, log_losses, message", [
        ((1.0,), (2.0,), "at least two aligned knots"),
        ((1.0, 2.0), (2.0, 1.5, 1.0), "at least two aligned knots"),
        ((1.0, 1.0), (2.0, 1.5), "knot tokens must strictly increase"),
        ((1.0, 2.0), (1.5, 2.0), "knot losses must be nonincreasing"),
        ((1.0, math.nan), (2.0, 1.0), r"log_tokens\[1\] must be finite"),
        ((1.0, 2.0), (math.inf, 1.0), r"log_losses\[0\] must be finite"),
    ], ids=["one-knot", "misaligned", "repeated-tokens", "rising-loss", "nan-tokens", "inf-loss"])
    def test_bad_knots_rejected(self, log_tokens, log_losses, message):
        with pytest.raises(ValidationError, match=message):
            CurveInterpolator(log_tokens, log_losses)

    def test_log_log_midpoint_is_geometric_mean(self):
        curve = interp_loss_curve(run_from_points([(10**8, 4.0), (10**10, 1.0)]))
        midpoint_tokens = math.sqrt(1e8 * 1e10)
        assert curve.loss_at_tokens(midpoint_tokens) == pytest.approx(
            math.sqrt(4.0 * 1.0), rel=1e-12
        )

    def test_out_of_range_queries(self):
        curve = interp_loss_curve(run_from_points([(10**8, 3.0), (2 * 10**8, 2.5)]))
        with pytest.raises(InterpolationRangeError):
            curve.loss_at_tokens(5e7)
        with pytest.raises(InterpolationRangeError):
            curve.tokens_at_loss(2.0)
        with pytest.raises(InterpolationRangeError):
            curve.tokens_at_loss(3.5)
        with pytest.raises(InterpolationRangeError):
            curve.tokens_at_loss(math.nan)

    def test_needs_two_records(self):
        with pytest.raises(DomainError):
            interp_loss_curve(run_from_points([(10**8, 3.0)]))

    @pytest.mark.property
    @given(fraction=st.floats(0.01, 0.99))
    def test_round_trip_between_knots(self, fraction):
        d_values = np.geomspace(1e8, 1e10, 12)
        curve = interp_loss_curve(law_run(SCRATCH, 10**9, d_values, "rt", "scratch"))
        lo, hi = curve.domain
        tokens = math.exp(math.log(lo) + fraction * (math.log(hi) - math.log(lo)))
        loss = curve.loss_at_tokens(tokens)
        back = curve.tokens_at_loss(loss)
        assert abs(math.log(back) - math.log(tokens)) < 1e-9

    def test_round_trip_exact_at_knots(self):
        d_values = np.geomspace(1e8, 1e10, 8)
        curve = interp_loss_curve(law_run(SCRATCH, 10**9, d_values, "rt", "scratch"))
        for log_t, log_l in zip(curve.log_tokens, curve.log_losses):
            assert curve.tokens_at_loss(math.exp(log_l)) == pytest.approx(
                math.exp(log_t), rel=1e-12
            )


def numpy_transfer(run_pt, run_cpt, levels):
    """Reference for ``empirical_transfer`` in numpy: running minimum, np.geomspace and np.interp.

    Each curve keeps its first-achievement knots in (log loss, log tokens);
    the levels span the overlap of the two achieved loss ranges.
    """
    curves = []
    for run in (run_pt, run_cpt):
        records = run.main_series()
        log_t = np.log(np.array([rec.tokens for rec in records], dtype=float))
        log_l = np.log(np.minimum.accumulate([rec.loss for rec in records]))
        first = np.r_[True, log_l[1:] < log_l[:-1]]
        curves.append((log_l[first][::-1], log_t[first][::-1]))
    low = max(math.exp(xs[0]) for xs, _ in curves)
    high = min(math.exp(xs[-1]) for xs, _ in curves)
    loss_levels = np.geomspace(high, low, levels)
    d_pt, d_cpt = (np.exp(np.interp(np.log(loss_levels), xs, ys)) for xs, ys in curves)
    return {"loss_levels": loss_levels, "d_pt": d_pt, "d_cpt": d_cpt,
            "transferred_tokens": d_pt - d_cpt, "flops_saved_fraction": (d_pt - d_cpt) / d_pt}


class TestEmpiricalTransfer:
    def test_identical_runs_transfer_nothing(self):
        d_values = np.geomspace(2e8, 2e9, 24)
        run_a = law_run(SCRATCH, 10**9, d_values, "a", "scratch")
        run_b = law_run(SCRATCH, 10**9, d_values, "b", "cpt")
        report = empirical_transfer(run_a, run_b, levels=10)
        assert all(abs(t) < 1e-3 for t in report.transferred_tokens)
        assert all(abs(f) < 1e-12 for f in report.flops_saved_fraction)

    def test_half_token_curve_saves_half_the_flops(self):
        d_values = np.geomspace(2e8, 2e9, 24).round().astype(int)
        losses = [float(eval_law(SCRATCH, 10**9, int(d))) for d in d_values]
        run_pt = run_from_points(list(zip(d_values, losses)), run_id="pt", n=10**9)
        run_cpt = run_from_points(
            list(zip((d_values / 2).astype(int), losses)),
            run_id="cpt", n=10**9, strategy="cpt",
        )
        report = empirical_transfer(run_pt, run_cpt, levels=12)
        assert all(f == pytest.approx(0.5, abs=1e-3) for f in report.flops_saved_fraction)

    def test_matches_parametric_route(self):
        d_values = np.geomspace(2e8, 2e9, 48)
        run_pt = law_run(SCRATCH, 10**9, d_values, "pt", "scratch")
        run_cpt = law_run(CPT, 10**9, d_values, "cpt", "cpt")
        report = empirical_transfer(run_pt, run_cpt, levels=16)
        for level, moved in zip(report.loss_levels, report.transferred_tokens):
            d_cpt = solve_tokens_for_loss(CPT, 10**9, level)
            assert moved == pytest.approx(
                parametric_transfer(SCRATCH, CPT, 10**9, d_cpt), rel=2e-2
            )

    # Paired runs of one 1B model with log-normal noise (sigma = 0.005), whose
    # running minimum has flat stretches, and exact law curves; 1, 2 and 32
    # levels cover numpy.geomspace's endpoint cases.
    @pytest.mark.parametrize("levels", [1, 2, 32])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_matches_numpy_reference(self, seed, levels):
        if seed is None:
            d_values = np.geomspace(2e8, 2e9, 48)
            run_pt = law_run(SCRATCH, 10**9, d_values, "pt", "scratch")
            run_cpt = law_run(CPT, 10**9, d_values, "cpt", "cpt")
        else:
            run_pt, run_cpt = (generate_runset(SynthConfig(
                law=law, param_sizes=(10**9,), records_per_run=48, noise_sigma=0.005, seed=seed,
            )).runs[0] for law in (SCRATCH, CPT))
        report = empirical_transfer(run_pt, run_cpt, levels)
        expected = numpy_transfer(run_pt, run_cpt, levels)
        for name in ("loss_levels", "d_pt", "d_cpt"):
            np.testing.assert_allclose(getattr(report, name), expected[name], rtol=1e-14, atol=0)
        # Differences are compared on the scale of the terms they subtract.
        np.testing.assert_allclose(report.transferred_tokens, expected["transferred_tokens"],
                                   rtol=0, atol=1e-14 * max(expected["d_pt"]))
        np.testing.assert_allclose(report.flops_saved_fraction,
                                   expected["flops_saved_fraction"], rtol=0, atol=1e-14)

    def test_mismatched_sizes_rejected(self):
        run_a = law_run(SCRATCH, 10**9, [1e8, 1e9], "a", "scratch")
        run_b = law_run(CPT, 2 * 10**9, [1e8, 1e9], "b", "cpt")
        with pytest.raises(ValidationError, match="param_count"):
            empirical_transfer(run_a, run_b)

    def test_disjoint_loss_ranges_rejected(self):
        run_a = run_from_points([(10**8, 4.0), (10**9, 3.5)], run_id="a")
        run_b = run_from_points([(10**8, 3.0), (10**9, 2.5)], run_id="b", strategy="cpt")
        with pytest.raises(ValidationError, match="overlap"):
            empirical_transfer(run_a, run_b)

    def test_compute_past_float_range_names_the_run(self):
        # 6 N D at 10**300 parameters is inf, which would make every saving NaN.
        d_values = np.geomspace(2e8, 2e9, 8)
        run_pt = law_run(SCRATCH, 10**300, d_values, "pt", "scratch")
        run_cpt = law_run(SCRATCH, 10**300, 0.5 * d_values, "cpt", "cpt")
        with pytest.raises(DomainError, match=r"^run 'pt': compute 6 N D at 2e\+08 tokens is "
                                              r"past float range$"):
            empirical_transfer(run_pt, run_cpt)


class TestParametricTransfer:
    def test_reference_point(self):
        moved = parametric_transfer(SCRATCH, CPT, 1e9, 1e9)
        assert moved == pytest.approx(3.62e8, rel=1e-2)
        # independent bisection on the from-scratch law
        level = float(eval_law(CPT, 1e9, 1e9))
        lo, hi = 1e6, 1e15
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if float(eval_law(SCRATCH, 1e9, mid)) > level:
                lo = mid
            else:
                hi = mid
        assert moved + 1e9 == pytest.approx(math.sqrt(lo * hi), rel=1e-9)

    def test_zero_at_law_crossover(self):
        d_star = ((SCRATCH.B / CPT.B_prime) * (10**9) ** CPT.gamma) ** (
            1.0 / (SCRATCH.beta - CPT.beta_prime)
        )
        assert parametric_transfer(SCRATCH, CPT, 1e9, d_star) == pytest.approx(0.0, abs=1.0)

    def test_signed_beyond_crossover(self):
        d_star = ((SCRATCH.B / CPT.B_prime) * (10**9) ** CPT.gamma) ** (
            1.0 / (SCRATCH.beta - CPT.beta_prime)
        )
        assert parametric_transfer(SCRATCH, CPT, 1e9, 0.5 * d_star) > 0
        assert parametric_transfer(SCRATCH, CPT, 1e9, 2.0 * d_star) < 0

    def test_larger_models_transfer_more(self):
        values = [parametric_transfer(SCRATCH, CPT, n, 1e9) for n in (5e8, 1e9, 2e9)]
        assert values[0] < values[1] < values[2]

    def test_unreachable_loss_is_contextualized(self):
        # a CPT law far below the from-scratch floor at this size
        deep = type(CPT)(E=0.1, A=CPT.A, alpha=CPT.alpha,
                         B_prime=1e-3, beta_prime=CPT.beta_prime, gamma=CPT.gamma)
        with pytest.raises(UnreachableLossError, match="floor"):
            parametric_transfer(SCRATCH, deep, 1e9, 1e12)

    def test_from_scratch_tokens_past_float_range_is_domain_error(self):
        # At beta = 0.005 the from-scratch law needs e^4680 tokens for the CPT loss.
        shallow = dataclasses.replace(SCRATCH, beta=0.005)
        level = eval_law(CPT, 1e9, 1e9)
        with pytest.raises(DomainError, match=re.escape(
                f"CPT loss {level!r} at N=1000000000.0, D=1000000000.0 needs from-scratch "
                f"tokens past float range")):
            parametric_transfer(shallow, CPT, 1e9, 1e9)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="past float range"):
            parametric_transfer(shallow, CPT, np.array([1e3, 1e9]), 1e9)

    def test_arrays_give_the_values_of_their_elements(self):
        sizes = np.array([5e8, 1e9, 2e9])
        np.testing.assert_allclose(parametric_transfer(SCRATCH, CPT, sizes, 1e9),
                                   [parametric_transfer(SCRATCH, CPT, n, 1e9) for n in sizes],
                                   rtol=1e-14)


class TestFlopsSaving:
    def test_reference_band_value(self):
        saving = flops_saving_from_frontiers(
            REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER, 2.3
        )
        assert saving == pytest.approx(0.4508, abs=1e-3)

    def test_identical_frontiers_save_nothing(self):
        p = FrontierParams(coefficient=30.0, exponent=0.06)
        assert flops_saving_from_frontiers(p, p, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_equal_exponent_closed_form(self):
        f_pt = FrontierParams(coefficient=30.0, exponent=0.06)
        f_cpt = FrontierParams(coefficient=28.0, exponent=0.06)
        expected = 1.0 - (28.0 / 30.0) ** (1.0 / 0.06)
        for level in (1.5, 2.0, 2.5):
            assert flops_saving_from_frontiers(f_pt, f_cpt, level) == pytest.approx(
                expected, rel=1e-12
            )

    @pytest.mark.property
    def test_monotone_in_loss_for_reference_fits(self):
        grid = np.linspace(1.8, 2.8, 41)
        savings = [
            flops_saving_from_frontiers(
                REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER, float(level)
            )
            for level in grid
        ]
        assert all(b > a for a, b in zip(savings, savings[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            flops_saving_from_frontiers(
                REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER, 40.0
            )
        with pytest.raises(DomainError):
            flops_saving_from_frontiers(
                FrontierParams(coefficient=30.0, exponent=0.06, offset=0.5),
                REFERENCE_CPT_FRONTIER,
                2.0,
            )
        with pytest.raises(DomainError, match="strictly decreasing"):
            flops_saving_from_frontiers(
                FrontierParams(coefficient=30.0, exponent=0.0), REFERENCE_CPT_FRONTIER, 2.0
            )


def replay_run(run_id, ratio, n=14 * 10**8, language="zh", source="en"):
    points = []
    for step, tokens in enumerate((10**9, 10**10, 10**11)):
        points.append((tokens, 3.0 - 0.3 * step, language))
        points.append((tokens, 2.4 + 0.2 * step, source))
    return run_from_points(
        points, run_id=run_id, n=n, strategy="cpt", replay=ratio, language=language
    )


class TestForgettingCurves:
    def test_flops_follow_language_shares(self):
        run = replay_run("r", 0.2)
        curve = forgetting_curves(RunSet(runs=(run,)))[0]
        assert curve.source_language == "en"
        assert curve.target_language == "zh"
        assert len(curve.source_points) == len(curve.target_points) == 3
        final_total = 6.0 * run.param_count * 10**11
        source, target = attribute_flops_by_language(final_total, 0.2)
        assert curve.source_points[-1][0] == pytest.approx(source)
        assert curve.target_points[-1][0] == pytest.approx(target)
        assert curve.source_points[-1][0] + curve.target_points[-1][0] == final_total

    def test_zero_replay_has_empty_source_curve(self):
        curve = forgetting_curves(RunSet(runs=(replay_run("r", 0.0),)))[0]
        assert curve.source_points == ()
        assert len(curve.target_points) == 3

    def test_published_ratio_sweep(self):
        ratios = (0.01, 0.05, 0.1, 0.2, 0.5, 0.8)
        runs = RunSet(runs=tuple(replay_run(f"r{i}", r) for i, r in enumerate(ratios)))
        curves = forgetting_curves(runs)
        assert len(curves) == 6
        assert tuple(curve.replay_ratio for curve in curves) == ratios

    def test_compute_past_float_range_names_the_run(self):
        # 6 N D at 10**300 parameters and 10**9 tokens is inf.
        runs = RunSet(runs=(replay_run("ok", 0.2), replay_run("huge", 0.2, n=10**300)))
        with pytest.raises(DomainError, match=r"^run 'huge': compute 6 N D at 1e\+09 tokens is "
                                              r"past float range$"):
            forgetting_curves(runs)

    def test_untagged_run_rejected(self):
        run = run_from_points([(10**9, 3.0), (10**10, 2.5)], run_id="plain")
        with pytest.raises(ValidationError, match="validation language"):
            forgetting_curves(RunSet(runs=(run,)))

    def test_ambiguous_source_language_rejected(self):
        run = run_from_points(
            [(10**9, 3.0, "en"), (10**9, 2.9, "fr"), (10**9, 2.8, "zh")],
            run_id="multi", strategy="cpt", replay=0.2,
        )
        with pytest.raises(ValidationError, match="source languages"):
            forgetting_curves(RunSet(runs=(run,)))


class TestExports:
    def test_transfer_csv(self, tmp_path):
        d_values = np.geomspace(2e8, 2e9, 24)
        report = empirical_transfer(
            law_run(SCRATCH, 10**9, d_values, "pt", "scratch"),
            law_run(CPT, 10**9, d_values, "cpt", "cpt"),
            levels=8,
        )
        path = tmp_path / "transfer.csv"
        export_transfer_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert set(rows[0]) == {
            "loss_level", "d_pt", "d_cpt", "transferred_tokens", "flops_saved_fraction",
        }

    def test_forgetting_csv(self, tmp_path):
        curves = forgetting_curves(RunSet(runs=(replay_run("r", 0.2),)))
        path = tmp_path / "replay.csv"
        export_forgetting_csv(curves, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {"replay_ratio", "language", "flops", "loss"}
        assert {row["language"] for row in rows} == {"en", "zh"}
