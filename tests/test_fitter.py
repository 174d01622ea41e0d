import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cptlaws import (
    DomainError,
    FitConfig,
    FrontierParams,
    LossRecord,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_LAW,
    RunSet,
    SynthConfig,
    TrainingRun,
    UnidentifiableDataError,
    ValidationError,
    compare_laws,
    extract_compute_frontier,
    eval_frontier,
    fit_cpt,
    fit_frontier,
    fit_scratch,
    generate_runset,
    huber,
    paper_replica_config,
    objective_cpt,
    objective_scratch,
)
from cptlaws import fitter
from cptlaws.fitter import _ALL_FREE, _CPT_FREE, _SCRATCH_FREE, _flatten, _law_objective, _q
from conftest import law_runset

SCRATCH = REFERENCE_SCRATCH_LAW
CPT = REFERENCE_CPT_LAW
SIZES = tuple(int(x) for x in np.geomspace(5e7, 5e9, 6))

TRUE_THETA_SCRATCH = (
    math.log(SCRATCH.A),
    math.log(SCRATCH.B),
    math.log(SCRATCH.E),
    SCRATCH.alpha,
    SCRATCH.beta,
)
TRUE_THETA2_CPT = (math.log(CPT.B_prime), CPT.beta_prime, CPT.gamma)
TRUE_FIXED_CPT = (math.log(CPT.A), math.log(CPT.E), CPT.alpha)


class TestHuber:
    def test_zero(self):
        assert huber(0.0) == 0.0

    def test_quadratic_branch(self):
        assert huber(5e-4, 1e-3) == pytest.approx(1.25e-7, rel=1e-12)

    def test_linear_branch(self):
        assert huber(0.01, 1e-3) == pytest.approx(9.5e-6, rel=1e-12)

    def test_requires_positive_delta(self):
        with pytest.raises(DomainError):
            huber(0.1, 0.0)
        with pytest.raises(DomainError):
            huber(0.1, math.nan)

    def test_infinite_delta_is_least_squares(self):
        assert huber(0.25, math.inf) == 0.03125
        assert FitConfig(delta=math.inf).delta == math.inf

    @pytest.mark.parametrize("delta", [0.0, -1e-3, math.nan])
    def test_config_rejects_nonpositive_delta(self, delta):
        with pytest.raises(ValidationError, match="delta"):
            FitConfig(delta=delta)

    def test_vectorized(self):
        out = huber(np.array([0.0, 5e-4, 0.01]), 1e-3)
        assert out == pytest.approx([0.0, 1.25e-7, 9.5e-6])

    @pytest.mark.property
    @given(r=st.floats(-10, 10), delta=st.floats(1e-6, 1.0))
    def test_even_and_nonnegative(self, r, delta):
        assert huber(r, delta) == huber(-r, delta)
        assert huber(r, delta) >= 0.0

    @pytest.mark.property
    @given(
        r1=st.floats(0, 10),
        r2=st.floats(0, 10),
        delta=st.floats(1e-6, 1.0),
    )
    def test_monotone_in_magnitude(self, r1, r2, delta):
        lo, hi = sorted((r1, r2))
        assert huber(lo, delta) <= huber(hi, delta)

    @pytest.mark.property
    @given(delta=st.floats(1e-4, 1.0))
    def test_c1_at_branch_point(self, delta):
        # one-sided numeric derivatives agree at |r| = delta
        eps = delta * 1e-7
        inner = (huber(delta, delta) - huber(delta - eps, delta)) / eps
        outer = (huber(delta + eps, delta) - huber(delta, delta)) / eps
        assert inner == pytest.approx(delta, rel=1e-5)
        assert abs(inner - outer) < 1e-6


def single_record_runset(loss, n=1, tokens=1):
    run = TrainingRun(
        id="one", strategy="scratch", language="zh", replay_ratio=0.0,
        param_count=n, records=(LossRecord(tokens, loss),),
    )
    return RunSet(runs=(run,))


class TestObjectives:
    def test_zero_on_exact_data(self):
        data = law_runset(SCRATCH, SIZES)
        assert objective_scratch(TRUE_THETA_SCRATCH, data) < 1e-20

    def test_single_record_linear_branch(self):
        # theta (0,0,0,*,*) predicts log-loss ln 3 at N = D = 1; place the
        # observation 0.01 below so the residual hits huber's linear branch.
        data = single_record_runset(loss=3.0 * math.exp(-0.01))
        theta = (0.0, 0.0, 0.0, 0.4, 0.3)
        assert objective_scratch(theta, data) == pytest.approx(9.5e-6, rel=1e-9)

    @pytest.mark.property
    def test_invariant_under_run_reordering(self):
        data = law_runset(SCRATCH, SIZES)
        shuffled = RunSet(runs=tuple(reversed(data.runs)))
        theta = (6.0, 7.0, 0.3, 0.35, 0.25)
        assert objective_scratch(theta, data) == pytest.approx(
            objective_scratch(theta, shuffled), rel=1e-12
        )

    def test_cpt_zero_on_exact_data(self):
        data = law_runset(CPT, SIZES, strategy="cpt")
        assert objective_cpt(TRUE_THETA2_CPT, TRUE_FIXED_CPT, data) < 1e-20

    def test_cpt_gamma_inert_at_unit_params(self):
        data = single_record_runset(loss=2.0, n=1, tokens=50)
        fixed = (0.0, 0.0, 0.5)
        low = objective_cpt((1.0, 0.3, -0.4), fixed, data)
        high = objective_cpt((1.0, 0.3, 0.7), fixed, data)
        assert low == high

    def test_cpt_reduces_to_scratch_at_zero_gamma(self):
        data = law_runset(SCRATCH, SIZES)
        theta = (5.5, 6.5, 0.44, 0.41, 0.29)
        a, b, e, alpha, beta = theta
        assert objective_cpt((b, beta, 0.0), (a, e, alpha), data) == pytest.approx(
            objective_scratch(theta, data), rel=1e-14
        )

    @pytest.mark.property
    def test_gradient_vanishes_at_truth(self):
        data = law_runset(SCRATCH, SIZES)
        step = 1e-6
        for i in range(5):
            up = list(TRUE_THETA_SCRATCH)
            down = list(TRUE_THETA_SCRATCH)
            up[i] += step
            down[i] -= step
            grad = (objective_scratch(up, data) - objective_scratch(down, data)) / (2 * step)
            assert abs(grad) < 1e-6


class TestObjectiveGradient:
    TRUTH_Q = {
        "scratch": _q(math.log(SCRATCH.A), math.log(SCRATCH.B), math.log(SCRATCH.E),
                      SCRATCH.alpha, SCRATCH.beta),
        "cpt": _q(math.log(CPT.A), math.log(CPT.B_prime), math.log(CPT.E),
                  CPT.alpha, CPT.beta_prime, CPT.gamma),
    }

    @pytest.mark.parametrize(
        "law_name, free",
        [("scratch", _SCRATCH_FREE), ("cpt", _CPT_FREE), ("cpt", _ALL_FREE)],
    )
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_matches_central_difference(self, law_name, free, shift):
        law = SCRATCH if law_name == "scratch" else CPT
        data = generate_runset(SynthConfig(law=law, param_sizes=SIZES, records_per_run=12,
                                           noise_sigma=2e-3, seed=0))
        flat = _flatten(data)
        q = self.TRUTH_Q[law_name] + shift * np.array([3e-3, -3e-3, 5e-4, 5e-4, -1e-3, 0.0])
        _, grad, residuals = _law_objective(q, *flat, 1e-3)
        inside = np.abs(residuals) <= 1e-3
        assert inside.any() and not inside.all()  # both Huber branches are exercised
        step = 1e-7
        central = []
        for i in free:
            up, down = q.copy(), q.copy()
            up[i] += step
            down[i] -= step
            central.append(
                (_law_objective(up, *flat, 1e-3)[0] - _law_objective(down, *flat, 1e-3)[0])
                / (2 * step)
            )
        scale = np.abs(grad[free]).max()
        assert np.abs(grad[free] - central).max() <= 1e-6 * scale


class TestFitScratch:
    def test_recovers_truth_noise_free(self, fast_cfg):
        data = law_runset(SCRATCH, SIZES)
        report = fit_scratch(data, fast_cfg)
        p = report.params
        assert p.alpha == pytest.approx(SCRATCH.alpha, abs=2e-2)
        assert p.beta == pytest.approx(SCRATCH.beta, abs=2e-2)
        assert p.A == pytest.approx(SCRATCH.A, rel=5e-2)
        assert p.B == pytest.approx(SCRATCH.B, rel=5e-2)
        assert p.E == pytest.approx(SCRATCH.E, rel=5e-2)
        assert p.alpha > 0 and p.beta > 0
        assert report.objective < 1e-10
        assert report.n_points == len(report.residuals)

    def test_single_model_size_unidentifiable(self, fast_cfg):
        data = law_runset(SCRATCH, (1e9,))
        with pytest.raises(UnidentifiableDataError):
            fit_scratch(data, fast_cfg)

    def test_single_token_count_unidentifiable(self, fast_cfg):
        runs = tuple(
            TrainingRun(
                id=f"r{i}", strategy="scratch", language="zh", replay_ratio=0.0,
                param_count=n, records=(LossRecord(1000, 3.0),),
            )
            for i, n in enumerate((10**8, 10**9))
        )
        with pytest.raises(UnidentifiableDataError):
            fit_scratch(RunSet(runs=runs), fast_cfg)

    def test_duplicated_run_leaves_argmin_unchanged(self, fast_cfg):
        data = law_runset(SCRATCH, SIZES)
        base = fit_scratch(data, fast_cfg).params
        clone = data.runs[0]
        doubled = RunSet(
            runs=data.runs
            + (
                TrainingRun(
                    id="clone", strategy=clone.strategy, language=clone.language,
                    replay_ratio=clone.replay_ratio, param_count=clone.param_count,
                    records=clone.records,
                ),
            )
        )
        again = fit_scratch(doubled, fast_cfg).params
        for name in ("E", "A", "B", "alpha", "beta"):
            assert getattr(again, name) == pytest.approx(getattr(base, name), rel=1e-3)

    @pytest.mark.property
    def test_deterministic(self, fast_cfg):
        data = law_runset(SCRATCH, SIZES)
        assert fit_scratch(data, fast_cfg) == fit_scratch(data, fast_cfg)

    def test_warmup_fraction_drops_points(self, fast_cfg):
        data = law_runset(SCRATCH, SIZES)
        cfg = FitConfig(init_grid=fast_cfg.init_grid, warmup_fraction=0.05)
        filtered = fit_scratch(data, cfg)
        full = fit_scratch(data, fast_cfg)
        assert filtered.n_points < full.n_points

    def test_bad_grid_arity_rejected(self):
        data = law_runset(SCRATCH, SIZES)
        with pytest.raises(ValidationError):
            fit_scratch(data, FitConfig(init_grid=((1.0, 2.0, 3.0),)))


class TestFitCpt:
    def test_recovers_truth_noise_free(self):
        data = law_runset(CPT, SIZES, strategy="cpt")
        report = fit_cpt(data, (CPT.E, CPT.A, CPT.alpha))
        p = report.params
        assert p.beta_prime == pytest.approx(0.20, abs=2e-2)
        assert p.gamma == pytest.approx(0.08, abs=2e-2)
        assert p.B_prime == pytest.approx(433.3, rel=5e-2)
        assert (p.E, p.A, p.alpha) == (CPT.E, CPT.A, CPT.alpha)

    def test_zero_gamma_truth_recovered_as_zero(self):
        degenerate = law_runset(SCRATCH, SIZES)
        report = fit_cpt(degenerate, (SCRATCH.E, SCRATCH.A, SCRATCH.alpha))
        assert abs(report.params.gamma) < 2e-2

    def test_noisy_recovery_within_ten_percent(self):
        sizes = tuple(int(x) for x in np.geomspace(5e7, 5e9, 8))
        cfg = SynthConfig(law=CPT, param_sizes=sizes, records_per_run=16,
                          noise_sigma=0.01, seed=1)
        report = fit_cpt(generate_runset(cfg), (CPT.E, CPT.A, CPT.alpha))
        p = report.params
        assert p.B_prime == pytest.approx(CPT.B_prime, rel=0.10)
        assert p.beta_prime == pytest.approx(CPT.beta_prime, rel=0.10)
        assert p.gamma == pytest.approx(CPT.gamma, rel=0.10)

    def test_fixed_values_must_be_positive(self):
        data = law_runset(CPT, SIZES, strategy="cpt")
        with pytest.raises(ValidationError):
            fit_cpt(data, (0.0, 420.0, 0.4))
        with pytest.raises(ValidationError):
            fit_cpt(data, (math.nan, 420.0, 0.4))

    def test_nonpositive_exponent_start_rejected(self):
        data = law_runset(CPT, SIZES, strategy="cpt")
        with pytest.raises(ValidationError, match="exponents must be positive"):
            fit_cpt(data, (CPT.E, CPT.A, CPT.alpha), FitConfig(init_grid=((6.0, 0.0, 0.1),)))

    def test_every_default_start_converges_on_replica(self, monkeypatch):
        calls = []
        real_minimize = fitter.minimize

        def recording_minimize(fun, x0, **kwargs):
            res = real_minimize(fun, x0, **kwargs)
            calls.append((kwargs["method"], bool(res.success)))
            return res

        monkeypatch.setattr(fitter, "minimize", recording_minimize)
        fit_cpt(generate_runset(paper_replica_config("cpt")), (CPT.E, CPT.A, CPT.alpha))
        assert calls == [("L-BFGS-B", True)] * 64


class TestExtractComputeFrontier:
    def _runset(self, n, token_loss_pairs):
        records = tuple(LossRecord(t, l) for t, l in token_loss_pairs)
        run = TrainingRun(
            id="f", strategy="scratch", language="zh", replay_ratio=0.0,
            param_count=n, records=records,
        )
        return RunSet(runs=(run,))

    def test_min_per_bin(self):
        # computes 1.2e18, 1.212e18 (same decade bin), 1.02e19
        data = self._runset(
            10**6, [(200_000_000_000, 3.0), (202_000_000_000, 2.9), (1_700_000_000_000, 2.5)]
        )
        frontier = extract_compute_frontier(data, bins_per_decade=1)
        assert frontier == [
            (pytest.approx(1.212e18), pytest.approx(2.9)),
            (pytest.approx(1.02e19), pytest.approx(2.5)),
        ]

    def test_pareto_filter_drops_dominated_bins(self):
        data = self._runset(
            10**6, [(200_000_000_000, 3.0), (202_000_000_000, 2.5), (1_700_000_000_000, 2.7)]
        )
        frontier = extract_compute_frontier(data, bins_per_decade=1)
        assert len(frontier) == 1
        assert frontier[0][1] == pytest.approx(2.5)

    def test_matches_brute_force_on_law_data(self):
        data = law_runset(SCRATCH, SIZES)
        bins = 10
        expected: dict[int, tuple[float, float]] = {}
        for run in data:
            for rec in run.records:
                compute = 6.0 * run.param_count * rec.tokens
                key = math.floor(math.log10(compute) * bins)
                if key not in expected or (rec.loss, compute) < expected[key]:
                    expected[key] = (rec.loss, compute)
        pareto = []
        for loss, compute in sorted(expected.values(), key=lambda x: x[1]):
            if not pareto or loss < pareto[-1][1]:
                pareto.append((compute, loss))
        assert extract_compute_frontier(data, bins) == pareto

    @pytest.mark.property
    def test_output_strictly_monotone(self):
        data = generate_runset(
            SynthConfig(law=SCRATCH, param_sizes=SIZES, records_per_run=15,
                        noise_sigma=0.05, seed=3)
        )
        frontier = extract_compute_frontier(data, 10)
        computes = [c for c, _ in frontier]
        losses = [l for _, l in frontier]
        assert computes == sorted(computes)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_empty_runset_rejected(self):
        with pytest.raises(ValidationError):
            extract_compute_frontier(RunSet(runs=()), 10)


class TestFitFrontier:
    def test_self_consistency_on_exact_points(self):
        truth = FrontierParams(coefficient=33.69907, exponent=0.0579)
        points = [(float(c), eval_frontier(truth, float(c))) for c in np.geomspace(1e16, 1e22, 30)]
        fitted = fit_frontier(points)
        assert fitted.coefficient == pytest.approx(truth.coefficient, rel=1e-6)
        assert fitted.exponent == pytest.approx(truth.exponent, rel=1e-6)
        assert fitted.offset == 0.0

    def test_two_point_solve(self):
        fitted = fit_frontier([(1.0, 10.0), (100.0, 1.0)])
        assert fitted.coefficient == pytest.approx(10.0, rel=1e-9)
        assert fitted.exponent == pytest.approx(0.5, rel=1e-9)

    def test_flat_points(self):
        fitted = fit_frontier([(1e18, 2.5), (1e19, 2.5), (1e20, 2.5)])
        assert fitted.exponent == 0.0
        assert fitted.coefficient == pytest.approx(2.5, rel=1e-9)

    def test_requires_two_distinct_computes(self):
        with pytest.raises(UnidentifiableDataError):
            fit_frontier([(1e18, 2.5), (1e18, 2.4)])

    def test_offset_free_path_recovers_offset_law(self):
        truth = FrontierParams(coefficient=20.0, exponent=0.06, offset=1.2)
        points = [(float(c), eval_frontier(truth, float(c))) for c in np.geomspace(1e16, 1e22, 40)]
        fitted = fit_frontier(points, fix_offset_zero=False)
        assert fitted.coefficient == pytest.approx(truth.coefficient, rel=1e-4)
        assert fitted.exponent == pytest.approx(truth.exponent, rel=1e-4)
        assert fitted.offset == pytest.approx(truth.offset, rel=1e-4)

    def test_offset_free_path_on_flat_points_is_zero_offset_fit(self):
        points = [(1e18, 2.5), (1e19, 2.5), (1e20, 2.5)]
        assert fit_frontier(points, fix_offset_zero=False) == fit_frontier(points)

    def test_offset_free_path_stays_inside_bounds(self, monkeypatch):
        seen = []
        real_minimize = fitter.minimize

        def recording_minimize(fun, x0, **kwargs):
            def recorded(x):
                seen.append(np.array(x))
                return fun(x)

            return real_minimize(recorded, x0, **kwargs)

        monkeypatch.setattr(fitter, "minimize", recording_minimize)
        truth = FrontierParams(coefficient=20.0, exponent=0.06, offset=1.2)
        points = [(float(c), eval_frontier(truth, float(c))) for c in np.geomspace(1e16, 1e22, 40)]
        fit_frontier(points, fix_offset_zero=False)
        assert seen
        # x = (log coefficient, log offset, log exponent); the offset is at
        # most the lowest frontier loss
        assert max(math.exp(x[1]) for x in seen) <= min(loss for _, loss in points)


class TestResidualExport:
    def test_csv_rows_align_with_report(self, fast_cfg, tmp_path):
        import csv

        from cptlaws.fitter import export_residuals_csv

        data = law_runset(SCRATCH, SIZES)
        report = fit_scratch(data, fast_cfg)
        path = tmp_path / "residuals.csv"
        export_residuals_csv(report, data, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report.n_points
        for row, residual in zip(rows, report.residuals):
            assert float(row["residual"]) == pytest.approx(residual, abs=1e-10)
            assert float(row["predicted_log_loss"]) - float(
                row["observed_log_loss"]
            ) == pytest.approx(residual, abs=1e-10)
        assert rows[0]["run_id"] == data.runs[0].id

    def test_mismatched_data_rejected(self, fast_cfg, tmp_path):
        from cptlaws.fitter import export_residuals_csv

        data = law_runset(SCRATCH, SIZES)
        report = fit_scratch(data, fast_cfg)
        smaller = RunSet(runs=data.runs[:2])
        with pytest.raises(ValidationError, match="records"):
            export_residuals_csv(report, smaller, tmp_path / "r.csv")


class TestCompareLaws:
    def test_extended_data_prefers_extended_law(self, fast_cfg):
        data = law_runset(CPT, SIZES, strategy="cpt", records_per_run=14)
        comparison = compare_laws(data, fast_cfg)
        assert comparison.extended_error < comparison.chinchilla_error
        assert comparison.gamma_fitted > 0

    def test_noise_free_winner_is_exact(self, fast_cfg):
        data = law_runset(SCRATCH, SIZES, records_per_run=14)
        comparison = compare_laws(data, fast_cfg)
        assert min(comparison.chinchilla_error, comparison.extended_error) < 1e-8

    def test_chinchilla_data_yields_null_gamma(self, fast_cfg):
        cfg = SynthConfig(law=SCRATCH, param_sizes=SIZES, records_per_run=14,
                          noise_sigma=0.01, seed=0)
        comparison = compare_laws(generate_runset(cfg), fast_cfg)
        assert abs(comparison.gamma_fitted) < 2e-2
        assert comparison.extended_error == pytest.approx(
            comparison.chinchilla_error, rel=0.10
        )
        # the extended family nests the one-term-simpler law
        assert comparison.extended_error <= comparison.chinchilla_error + 1e-15
