import dataclasses
import math
import re
import resource
import warnings
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cptlaws import (
    DomainError,
    FitConfig,
    FitFailureError,
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
from cptlaws.fitter import (
    _ALL_FREE,
    _CPT_FREE,
    _LOG_EXPONENT_CAP,
    _SCRATCH_FREE,
    _flatten,
    _q,
)
from conftest import law_runset, past_float_range_runset

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


def kernel(q, flat, delta):
    """The shared kernel on one row with all six coordinates free.

    Returns the mean Huber loss, its gradient (the kernel's sum over records
    divided by their count) and the residuals.
    """
    value, _, grad = fitter._law_system(q[None], np.zeros(6), _ALL_FREE, flat, delta)
    return value[0], grad[0] / flat[2].size, fitter._residuals(q, flat)


def masked_objective(flat, base, free):
    """The kernel's objective as a function of q[free], the rest held at ``base``."""

    def objective(x):
        q = base.copy()
        q[free] = x
        return kernel(q, flat, fitter.DEFAULT_DELTA)[0]

    return objective


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
        _, grad, residuals = kernel(q, flat, 1e-3)
        inside = np.abs(residuals) <= 1e-3
        assert inside.any() and not inside.all()  # both Huber branches are exercised
        step = 1e-7
        central = []
        for i in free:
            up, down = q.copy(), q.copy()
            up[i] += step
            down[i] -= step
            central.append(
                (kernel(up, flat, 1e-3)[0] - kernel(down, flat, 1e-3)[0])
                / (2 * step)
            )
        scale = np.abs(grad[free]).max()
        assert np.abs(grad[free] - central).max() <= 1e-6 * scale


class TestNewtonSystem:
    """``_law_system`` with the Huber penalty's second derivative as weights."""

    def test_matches_irls_gradient_and_newton_matrix(self):
        data = generate_runset(SynthConfig(law=CPT, param_sizes=SIZES, records_per_run=12,
                                           noise_sigma=2e-3, seed=0))
        flat = _flatten(data)
        q = TestObjectiveGradient.TRUTH_Q["cpt"] + np.array([3e-3, -3e-3, 5e-4, 5e-4, -1e-3, 0.0])
        # delta in the middle of the widest gap between residual sizes, so
        # that every residual stays clear of +-delta under the differences.
        sizes = np.sort(np.abs(fitter._residuals(q, flat)))
        gap = np.argmax(np.diff(sizes[len(sizes) // 4:3 * len(sizes) // 4])) + len(sizes) // 4
        delta = 0.5 * (sizes[gap] + sizes[gap + 1])
        assert sizes[gap + 1] - sizes[gap] > 1e-5
        x = q[None, _ALL_FREE]
        value, matrix, grad = fitter._law_system(x, np.zeros(6), _ALL_FREE, flat, delta,
                                                 newton=True)
        irls_value, irls_matrix, irls_grad = fitter._law_system(x, np.zeros(6), _ALL_FREE, flat,
                                                                delta)
        assert value[0] == irls_value[0]
        np.testing.assert_allclose(grad, irls_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(irls_grad).max())
        assert not np.allclose(matrix, irls_matrix)  # the linear branch has weight 0, not delta/|r|

        step = 1e-7
        jac, central = [], []
        for i in _ALL_FREE:
            up, down = q.copy(), q.copy()
            up[i] += step
            down[i] -= step
            jac.append((fitter._residuals(up, flat) - fitter._residuals(down, flat)) / (2 * step))
            central.append((kernel(up, flat, delta)[0] - kernel(down, flat, delta)[0])
                           / (2 * step))
        jac = np.array(jac)
        inside = np.abs(fitter._residuals(q, flat)) <= delta
        assert inside.any() and not inside.all()
        expected = (jac * inside) @ jac.T
        np.testing.assert_allclose(matrix[0], expected, rtol=1e-6,
                                   atol=1e-6 * np.abs(expected).max())
        np.testing.assert_allclose(grad[0] / flat[2].size, central, rtol=1e-6,
                                   atol=1e-6 * np.abs(central).max())


def _reference_objective(q, log_n, log_d, log_l, delta):
    """The law objective written independently: log-sum-exp reduction and mean Huber."""
    a, b, e, log_alpha, log_beta, gamma = q
    alpha = math.exp(min(log_alpha, _LOG_EXPONENT_CAP))
    beta = math.exp(min(log_beta, _LOG_EXPONENT_CAP))
    terms = np.stack([a - alpha * log_n, b - beta * log_d - gamma * log_n,
                      np.full_like(log_n, e)])
    pred = np.logaddexp.reduce(terms, axis=0)
    residuals = pred - log_l
    softmax = np.exp(terms - pred)
    slope = np.clip(residuals, -delta, delta) / residuals.size
    grad = np.array([
        slope @ softmax[0],
        slope @ softmax[1],
        slope @ softmax[2],
        -alpha * (slope * softmax[0]) @ log_n if log_alpha < _LOG_EXPONENT_CAP else 0.0,
        -beta * (slope * softmax[1]) @ log_d if log_beta < _LOG_EXPONENT_CAP else 0.0,
        -(slope * softmax[1]) @ log_n,
    ])
    return float(np.mean(huber(residuals, delta))), grad, residuals


class TestObjectiveAgainstReference:
    """The one-exp-per-term kernel against the log-sum-exp reduction, to 1e-12 relative.

    Gradients are compared relative to their largest component, residuals
    relative to the observed log loss, so exact zeros and near-cancelling
    components have a scale.
    """

    CPT_Q = _q(math.log(CPT.A), math.log(CPT.B_prime), math.log(CPT.E),
               CPT.alpha, CPT.beta_prime, CPT.gamma)

    def assert_matches_reference(self, q, flat, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad, residuals = kernel(q, flat, delta)
            ref_value, ref_grad, ref_residuals = _reference_objective(q, *flat, delta)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert value == pytest.approx(ref_value, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grad).max())
        np.testing.assert_allclose(residuals, ref_residuals, rtol=1e-12,
                                   atol=1e-12 * np.abs(flat[2]).max())
        return residuals

    @pytest.fixture
    def flat(self):
        return _flatten(law_runset(CPT, SIZES, strategy="cpt"))

    def test_both_huber_branches(self, flat):
        q = self.CPT_Q + np.array([0.05, -0.08, 0.01, 0.02, -0.03, 0.01])
        delta = float(np.median(np.abs(_reference_objective(q, *flat, 1.0)[2])))
        residuals = self.assert_matches_reference(q, flat, delta)
        inside = np.abs(residuals) <= delta
        assert inside.any() and not inside.all()

    @pytest.mark.parametrize("level", [800.0, -800.0])
    def test_terms_past_exp_range(self, flat, level):
        log_n, log_d, _ = flat
        alpha, beta, gamma = CPT.alpha, CPT.beta_prime, CPT.gamma
        a = level + alpha * log_n.mean()
        b = level + 1.0 + beta * log_d.mean() + gamma * log_n.mean()
        q = _q(a, b, level - 1.0, alpha, beta, gamma)  # exp of any term over- or underflows
        residuals = self.assert_matches_reference(q, flat, 1e-3)
        assert np.all(np.abs(residuals - level) < 10.0)

    def test_switched_off_data_term(self):
        log_c = np.log(np.geomspace(1e18, 1e23, 12))
        log_l = np.log(1.7 + 2123.7 * np.exp(-0.174 * log_c)) + 1e-3 * np.sin(log_c)
        flat = (log_c, np.zeros_like(log_c), log_l)
        q = _q(math.log(2000.0), -math.inf, math.log(1.6), 0.17, 1.0)
        self.assert_matches_reference(q, flat, 1e-3)
        _, grad, _ = kernel(q, flat, 1e-3)
        assert grad[1] == grad[4] == grad[5] == 0.0

    @pytest.mark.parametrize("position", [3, 4])
    def test_log_exponent_past_cap(self, flat, position):
        q = self.CPT_Q.copy()
        q[position] = _LOG_EXPONENT_CAP + 5.0
        self.assert_matches_reference(q, flat, 1e-3)
        _, grad, _ = kernel(q, flat, 1e-3)
        assert grad[position] == 0.0


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

    @pytest.mark.parametrize(
        "start",
        [(6.0, 6.0, 0.4, math.nan, 0.3), (6.0, 6.0, 0.4, math.inf, 0.3),
         (6.0, 6.0, -math.inf, 0.4, 0.3)],
        ids=["nan-exponent", "inf-exponent", "minus-inf-offset"],
    )
    def test_non_finite_start_rejected(self, start):
        data = law_runset(SCRATCH, SIZES)
        with pytest.raises(ValidationError, match="must be finite"):
            fit_scratch(data, FitConfig(init_grid=(start,)))


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

    @pytest.mark.parametrize(
        "start",
        [(math.nan, 0.3, 0.1), (6.0, math.inf, 0.1), (6.0, 0.3, -math.inf)],
        ids=["nan-coefficient", "inf-exponent", "minus-inf-gamma"],
    )
    def test_non_finite_start_rejected(self, start):
        data = law_runset(CPT, SIZES, strategy="cpt")
        with pytest.raises(ValidationError, match="must be finite"):
            fit_cpt(data, (CPT.E, CPT.A, CPT.alpha), FitConfig(init_grid=(start,)))

    def test_default_starts_finish_in_the_best_basin_on_replica(self, monkeypatch):
        stage, finish, finished = record_fit(monkeypatch)
        fit_cpt(generate_runset(paper_replica_config("cpt")), (CPT.E, CPT.A, CPT.alpha))
        (flat, base, free, x0), (endpoints, values) = stage
        objective = masked_objective(flat, base, free)
        assert len(x0) == 16 and np.isfinite(values).all()
        assert all(objective(end) <= objective(start) for start, end in zip(x0, endpoints))
        assert_finishes_the_basin(stage, finish, finished)
        assert all(res.success for _, res in finished)


def record_fit(monkeypatch):
    """Record the Gauss-Newton stage, its Newton finish and every L-BFGS-B call of the next fits.

    Returns ``stage`` and ``finish``, which hold the last stage's and the
    last finish pass's ((flat, base, free, x0), (endpoints, objectives)), and
    ``finished``, a list of (x0, result) per ``fitter.minimize`` call.
    """
    stage, finish, finished = [], [], []
    real_stage, real_minimize = fitter._gauss_newton, fitter.minimize

    def recording_stage(flat, base, free, x0, delta, bounds=None, **kwargs):
        out = real_stage(flat, base, free, x0, delta, bounds, **kwargs)
        (finish if kwargs.get("finish") else stage)[:] = [(flat, base, free, x0), out]
        return out

    def recording_minimize(fun, x0, **kwargs):
        res = real_minimize(fun, x0, **kwargs)
        finished.append((np.array(x0), res))
        return res

    monkeypatch.setattr(fitter, "_gauss_newton", recording_stage)
    monkeypatch.setattr(fitter, "minimize", recording_minimize)
    return stage, finish, finished


def assert_finishes_the_basin(stage, finish, finished, basin=None):
    """The finish pass starts from the stage endpoints of exactly ``basin`` (by default the
    best basin), and L-BFGS-B is handed exactly the finish pass's endpoints."""
    _, (endpoints, values) = stage
    (_, _, _, finish_x0), (finish_endpoints, _) = finish
    basin = fitter._best_basin(values) if basin is None else basin
    assert np.array_equal(finish_x0, endpoints[basin])
    assert np.array_equal([x for x, _ in finished], finish_endpoints)


class TestMinimize:
    """``fitter.minimize`` against ``scipy.optimize.minimize``, called on the same fun and x0."""

    FIELDS = ("x", "fun", "jac", "nfev", "njev", "nit", "status", "success")

    @pytest.fixture(scope="class")
    def replica_call(self):
        """The fun, x0 (a stage endpoint) and keywords of the noise-free CPT replica's one finish."""
        calls = []
        real_minimize = fitter.minimize

        def recording_minimize(fun, x0, **kwargs):
            calls.append((fun, np.array(x0), kwargs))
            return real_minimize(fun, x0, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitter, "minimize", recording_minimize)
            fit_cpt(generate_runset(paper_replica_config("cpt")), (CPT.E, CPT.A, CPT.alpha))
        assert len(calls) == 1
        return calls[0]

    @pytest.fixture
    def scipy_minimize(self, monkeypatch):
        """scipy's minimize, and the list of calls ``fitter.minimize`` passes on to it."""
        import scipy.optimize

        real, calls = scipy.optimize.minimize, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        return real, calls

    def assert_parity(self, ours, theirs):
        # assert_equal compares NaN equal to NaN.
        np.testing.assert_equal([ours[k] for k in self.FIELDS], [theirs[k] for k in self.FIELDS])

    def test_converged_stage_endpoint_is_answered_without_scipy(self, replica_call,
                                                                 scipy_minimize):
        fun, x0, kwargs = replica_call
        real, calls = scipy_minimize
        ours = fitter.minimize(fun, x0, **kwargs)
        assert not calls
        assert (ours.nit, ours.nfev, ours.njev, ours.success) == (0, 1, 1, True)
        assert ours.x is not x0 and np.array_equal(ours.x, x0)
        self.assert_parity(ours, real(fun, x0, **kwargs))

    @pytest.mark.parametrize("case", ["gradient above gtol", "outside bounds"])
    def test_other_starts_go_to_scipy(self, replica_call, scipy_minimize, case):
        fun, x0, kwargs = replica_call
        real, calls = scipy_minimize
        if case == "gradient above gtol":
            grid = fitter._default_cpt_grid(_flatten(generate_runset(paper_replica_config("cpt"))),
                                            CPT.E, CPT.A, CPT.alpha)
            x0 = fitter._law_starts(grid, _CPT_FREE)[0][1]
        else:
            kwargs = {**kwargs, "bounds": [(None, None), (None, None), (None, x0[2] - 0.01)]}
        ours = fitter.minimize(fun, x0, **kwargs)
        assert len(calls) == 1
        assert ours.nit > 0
        self.assert_parity(ours, real(fun, x0, **kwargs))

    def test_start_on_a_bound_with_outward_gradient_is_answered_without_scipy(
            self, replica_call, scipy_minimize):
        # L-BFGS-B's test is on the projected gradient, which is 0 here.
        _, _, kwargs = replica_call
        real, calls = scipy_minimize
        kwargs = {**kwargs, "bounds": [(0.0, None), (None, None)]}

        def fun(x):
            return float(x[0] + (x[1] - 1.0) ** 2), np.array([1.0, 2.0 * (x[1] - 1.0)])

        x0 = np.array([0.0, 1.0])
        ours = fitter.minimize(fun, x0, **kwargs)
        assert not calls
        assert (ours.nit, ours.success) == (0, True)
        self.assert_parity(ours, real(fun, x0, **kwargs))

    def test_non_finite_gradient_goes_to_scipy(self, replica_call, scipy_minimize):
        _, _, kwargs = replica_call
        real, calls = scipy_minimize

        def fun(x):  # finite value, NaN gradient at x0 = 0
            return float(x @ x), np.where(x == 0, math.nan, 2 * x)

        ours = fitter.minimize(fun, np.zeros(2), **kwargs)
        assert len(calls) == 1
        self.assert_parity(ours, real(fun, np.zeros(2), **kwargs))


class TestBestBasin:
    def test_rule(self):
        values = np.array([math.nan, math.inf, 2.0, 1.0, 1.0009, 1.0011])
        assert fitter._best_basin(values).tolist() == [3, 4]

    def test_no_finite_objective_fails(self):
        with pytest.raises(FitFailureError, match="finite objective"):
            fitter._best_basin(np.array([math.nan, math.inf]))

    def test_only_best_basin_starts_are_finished(self, monkeypatch, fast_cfg):
        data = generate_runset(SynthConfig(law=SCRATCH, param_sizes=SIZES, records_per_run=12,
                                           noise_sigma=0.01, seed=1))
        stage, finish, finished = record_fit(monkeypatch)
        fit_scratch(data, fast_cfg)
        basin = fitter._best_basin(stage[1][1])
        assert 0 < len(basin) < len(fast_cfg.init_grid)
        assert_finishes_the_basin(stage, finish, finished)

        finished.clear()
        monkeypatch.setattr(fitter, "_BASIN_TOLERANCE", math.inf)
        fit_scratch(data, fast_cfg)
        assert_finishes_the_basin(stage, finish, finished, basin=np.arange(len(fast_cfg.init_grid)))

    @pytest.mark.parametrize("sigma, seed", [(0.0, 0), (0.01, 1)])
    def test_matches_finishing_every_start_on_replica(self, monkeypatch, sigma, seed):
        config = dataclasses.replace(paper_replica_config("scratch"), noise_sigma=sigma, seed=seed)
        data = generate_runset(config)
        basin = fit_scratch(data)
        monkeypatch.setattr(fitter, "_BASIN_TOLERANCE", math.inf)
        every = fit_scratch(data)
        for name in ("E", "A", "B", "alpha", "beta"):
            assert getattr(basin.params, name) == pytest.approx(getattr(every.params, name),
                                                                rel=1e-8)
        assert (basin.objective == pytest.approx(every.objective, rel=1e-9)
                or max(basin.objective, every.objective) <= 1e-25)


class TestFitFailure:
    def test_message_names_every_finished_start(self, monkeypatch, fast_cfg):
        calls = []

        def failing_minimize(fun, x0, **kwargs):
            calls.append(x0)
            return SimpleNamespace(x=x0, fun=fun(x0)[0], success=False, message="stopped")

        monkeypatch.setattr(fitter, "minimize", failing_minimize)
        data = law_runset(SCRATCH, SIZES)
        with pytest.raises(FitFailureError) as excinfo:
            fit_scratch(data, fast_cfg)
        assert calls and str(excinfo.value).count(": stopped") == len(calls)

        monkeypatch.setattr(fitter, "_BASIN_TOLERANCE", math.inf)
        with pytest.raises(FitFailureError) as excinfo:
            fit_scratch(data, fast_cfg)
        for point in fast_cfg.init_grid:
            assert f"start {point!r}: stopped" in str(excinfo.value)

    # Each fit ends with a log-coefficient whose exp() is 0 or past float
    # range: an offset or data term switched off from its start (its weight,
    # and so its gradient, is exactly 0), or a coefficient of huge logs.
    @pytest.mark.parametrize("fit, name", [
        (lambda: fit_scratch(law_runset(SCRATCH, SIZES),
                             FitConfig(init_grid=((6.0, 6.0, -800.0, 0.3, 0.3),))),
         "E = exp(-800)"),
        (lambda: fit_scratch(past_float_range_runset()), "B = exp(816"),
        (lambda: fit_cpt(law_runset(CPT, SIZES, strategy="cpt"), (CPT.E, CPT.A, CPT.alpha),
                         FitConfig(init_grid=((-800.0, 0.3, 0.1),))),
         "B_prime = exp(-800)"),
        (lambda: fit_frontier([(float(c), 1.5 + math.exp(816.0 - 1.2 * math.log(c)))
                               for c in np.geomspace(1e285, 1e300, 30)], fix_offset_zero=False),
         "coefficient = exp(816"),
        (lambda: fit_frontier([(float(c), math.exp(816.0 - 1.2 * math.log(c)))
                               for c in np.geomspace(1e285, 1e300, 30)]),
         "coefficient = exp(816"),
    ], ids=["scratch offset", "scratch data term", "cpt data term", "free-offset frontier",
            "zero-offset frontier"])
    def test_coefficient_past_float_range_is_named(self, fit, name):
        with pytest.raises(FitFailureError, match=re.escape(f"fitted {name}")):
            fit()

    # Each fit ends with a log-exponent at or past _LOG_EXPONENT_CAP, where the
    # kernel holds the exponent at e^50 with slope 0.  On the sigma = 0.1,
    # seed 11 log the from-scratch fit runs alpha off to e^65.9 (compare_laws
    # fails in its first stage); the other two fits start past the cap.
    @pytest.mark.parametrize("fit, name", [
        (lambda: fit_scratch(noisy_four_size_runset(11)), "alpha = exp(65.9"),
        (lambda: compare_laws(noisy_four_size_runset(11)), "alpha = exp(65.9"),
        (lambda: fit_cpt(law_runset(CPT, SIZES, strategy="cpt"), (CPT.E, CPT.A, CPT.alpha),
                         FitConfig(init_grid=((6.0, math.exp(60.0), 0.1),))),
         "beta_prime = exp(60) is at or past"),
        (lambda: fitter.fit_offset_frontier(
            [math.log(c) for c in np.geomspace(1e16, 1e22, 40)],
            [math.log(1.2 + 20.0 * c ** -0.06) for c in np.geomspace(1e16, 1e22, 40)],
            math.log(20.0), math.exp(60.0)),
         "exponent = exp(60) is at or past"),
    ], ids=["scratch", "compare_laws", "cpt", "free-offset frontier"])
    def test_exponent_past_the_cap_is_named(self, fit, name):
        with pytest.raises(FitFailureError, match=re.escape(f"fitted {name}")):
            fit()


def noisy_four_size_runset(seed):
    """The from-scratch law on four sizes, 8 records each, with log-normal noise sigma = 0.1."""
    sizes = tuple(int(x) for x in np.geomspace(5e7, 5e9, 4))
    return generate_runset(SynthConfig(law=SCRATCH, param_sizes=sizes, records_per_run=8,
                                       noise_sigma=0.1, seed=seed))


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

    def test_compute_past_float_range_is_domain_error(self):
        # Token counts up to e^690 are floats, but 6 N D is not.
        with pytest.raises(DomainError, match="past float range"):
            extract_compute_frontier(past_float_range_runset(), 10)


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
        starts = []
        real_minimize = fitter.minimize

        def recording_minimize(fun, x0, **kwargs):
            def recorded(x):
                seen.append(np.array(x))
                return fun(x)

            starts.append(np.array(x0))
            return real_minimize(recorded, x0, **kwargs)

        monkeypatch.setattr(fitter, "minimize", recording_minimize)
        truth = FrontierParams(coefficient=20.0, exponent=0.06, offset=1.2)
        points = [(float(c), eval_frontier(truth, float(c))) for c in np.geomspace(1e16, 1e22, 40)]
        fit_frontier(points, fix_offset_zero=False)
        assert seen
        # x = (log coefficient, log offset, log exponent); the offset is at
        # most the lowest frontier loss
        assert max(math.exp(x[1]) for x in seen) <= min(loss for _, loss in points)
        # the Gauss-Newton stage hands L-BFGS-B starts inside the bound too
        assert max(x[1] for x in starts) <= math.log(min(loss for _, loss in points))

    # Objectives of the replica frontiers' optima, reached from both starts
    # with a 100-trial stage (BENCH_9.json, optimum_with_a_100_trial_stage).
    REPLICA_OPTIMA = {
        (0.0, 0): 1.7746268942e-05,
        (0.01, 1): 1.770163272e-05,
        (0.01, 2): 1.8755254207e-05,
        (0.01, 4): 1.8373017073e-05,
    }

    @staticmethod
    def replica_frontier(sigma, seed, strategy="scratch"):
        config = dataclasses.replace(paper_replica_config(strategy), noise_sigma=sigma, seed=seed)
        return extract_compute_frontier(generate_runset(config))

    @pytest.mark.parametrize("strategy", ["scratch", "cpt"])
    @pytest.mark.parametrize("sigma, seed",
                             [(0.0, 0), (0.01, 1), (0.01, 2), (0.01, 4), (0.03, 3), (0.03, 5)])
    def test_zero_offset_path_matches_polyfit_on_replica(self, sigma, seed, strategy):
        points = self.replica_frontier(sigma, seed, strategy)
        slope, intercept = np.polyfit(np.log([c for c, _ in points]),
                                      np.log([l for _, l in points]), 1)
        fitted = fit_frontier(points)
        assert fitted.exponent == pytest.approx(-slope, rel=1e-14, abs=0)
        assert fitted.coefficient == pytest.approx(math.exp(intercept), rel=1e-14, abs=0)

    @staticmethod
    def frontier_objective(fitted, points):
        residuals = [math.log(eval_frontier(fitted, c) / loss) for c, loss in points]
        return float(np.mean(huber(np.array(residuals))))

    @pytest.mark.parametrize("sigma, seed", list(REPLICA_OPTIMA))
    def test_offset_free_path_reaches_the_optimum_on_replica(self, sigma, seed):
        points = self.replica_frontier(sigma, seed)
        fitted = fit_frontier(points, fix_offset_zero=False)
        objective = self.frontier_objective(fitted, points)
        assert objective == pytest.approx(self.REPLICA_OPTIMA[sigma, seed], rel=1e-8)

    def test_offset_free_path_finishes_only_the_best_basin(self, monkeypatch):
        stage, finish, finished = record_fit(monkeypatch)
        fit_frontier(self.replica_frontier(0.01, 1), fix_offset_zero=False)
        basin = fitter._best_basin(stage[1][1])
        assert len(basin) == 1  # the other start runs off to a far lower offset
        assert_finishes_the_basin(stage, finish, finished)

    # Token multiples of three large logs (42 sizes x 1000 records) on which
    # a finish with the stage's IRLS weights converges only linearly: after
    # 34-62 trials it stops on the step rule with one start's projected
    # gradient still above gtol (1.0e-10 to 1.4e-10).  The Newton weights
    # converge both starts in 7-8 trials to gtol, and in 14-19 to the finish's
    # own stop, a thousandth of it.
    @pytest.mark.parametrize("token_multiple",
                             [22.527198069341523, 22.941202589985927, 20.011436939921154])
    def test_newton_finish_converges_on_large_logs(self, monkeypatch, token_multiple):
        config = dataclasses.replace(paper_replica_config("cpt"), records_per_run=1000,
                                     token_multiple=token_multiple)
        points = extract_compute_frontier(generate_runset(config))
        _, finish, finished = record_fit(monkeypatch)
        fit_frontier(points, fix_offset_zero=False)
        assert finished and all(res.nit == 0 and res.success for _, res in finished)
        assert np.array_equal([x for x, _ in finished], finish[1][0])

    def test_long_stage_warns_nothing(self, monkeypatch):
        # One start of this frontier is refused step after step and stops
        # long before the other converges; its damping must stay finite.
        stage, _, _ = record_fit(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit_frontier(self.replica_frontier(0.01, 2), fix_offset_zero=False)
        (_, _, _, x0), (_, values) = stage
        assert fitter._GN_ROW_TRIALS // len(x0) >= 100
        assert np.isfinite(values).all()

    def test_stage_stops_on_the_offset_bound(self, monkeypatch):
        # Both starts of this frontier end with the offset on its bound.  The
        # stage and its finish step only the coordinates free to move, so
        # together they stop within a few hundred rows; with steps clipped
        # into the bound the stage crawled along it for 5,540 rows and ended
        # at objective 2.2199844973e-5.
        rows = []
        real_stage, real_system = fitter._gauss_newton, fitter._law_system

        def counting_system(x, *args, **kwargs):
            rows.append(len(x))
            return real_system(x, *args, **kwargs)

        def counting_stage(*args, **kwargs):
            monkeypatch.setattr(fitter, "_law_system", counting_system)
            try:
                return real_stage(*args, **kwargs)
            finally:
                monkeypatch.setattr(fitter, "_law_system", real_system)

        monkeypatch.setattr(fitter, "_gauss_newton", counting_stage)
        points = self.replica_frontier(0.03, 5)
        fitted = fit_frontier(points, fix_offset_zero=False)
        assert 0 < sum(rows) <= 500
        assert fitted.offset == min(loss for _, loss in points)
        assert self.frontier_objective(fitted, points) <= 2.2199844973247586e-05


class TestReplicaRecovery:
    """Noise-free replica logs are fitted to 1e-8: the fits converge in relative terms."""

    def test_scratch_recovers_every_coefficient(self):
        report = fit_scratch(generate_runset(paper_replica_config("scratch")))
        for name in ("E", "A", "B", "alpha", "beta"):
            assert getattr(report.params, name) == pytest.approx(getattr(SCRATCH, name), rel=1e-8)

    def test_cpt_recovers_every_coefficient(self):
        report = fit_cpt(generate_runset(paper_replica_config("cpt")), (CPT.E, CPT.A, CPT.alpha))
        for name in ("B_prime", "beta_prime", "gamma"):
            assert getattr(report.params, name) == pytest.approx(getattr(CPT, name), rel=1e-8)

    def test_compare_laws_reaches_the_exact_extended_law(self):
        comparison = compare_laws(generate_runset(paper_replica_config("cpt")))
        assert comparison.extended_error <= 1e-20
        assert abs(comparison.gamma_fitted - CPT.gamma) <= 1e-8


class TestGaussNewtonStage:
    @pytest.fixture(scope="class")
    def replica(self):
        """The scratch replica's fit arrays and its default start grid in optimizer coordinates."""
        flat = _flatten(generate_runset(paper_replica_config("scratch")))
        grid = fitter._default_scratch_grid(flat)
        return flat, np.array([x0 for _, x0 in fitter._law_starts(grid, _SCRATCH_FREE)])

    @staticmethod
    def advance(flat, x0):
        return fitter._gauss_newton(flat, np.zeros(6), _SCRATCH_FREE, x0, fitter.DEFAULT_DELTA)

    def test_endpoints_do_not_depend_on_order_or_blocking(self, replica, monkeypatch):
        flat, x0 = replica
        x0 = x0[::8]
        endpoints, values = self.advance(flat, x0)
        order = np.random.default_rng(0).permutation(len(x0))
        permuted = self.advance(flat, x0[order])
        assert np.array_equal(permuted[0], endpoints[order])
        assert np.array_equal(permuted[1], values[order])
        for rows in (1, 5, len(x0)):
            monkeypatch.setattr(fitter, "_GN_BLOCK_ELEMENTS", rows * flat[0].size)
            blocked = self.advance(flat, x0)
            assert np.array_equal(blocked[0], endpoints)
            assert np.array_equal(blocked[1], values)

    def test_trial_points_are_clipped_into_bounds(self):
        # The frontier of L(C) = 1.2 + 20 C^-0.06 with the offset bounded by
        # 1.0, below its best value.
        truth = FrontierParams(coefficient=20.0, exponent=0.06, offset=1.2)
        computes = np.geomspace(1e16, 1e22, 40)
        log_l = np.log([eval_frontier(truth, float(c)) for c in computes])
        flat = (np.log(computes), np.zeros(len(computes)), log_l)
        x0 = np.array([[math.log(20.0), math.log(0.5), math.log(0.06)],
                       [math.log(30.0), math.log(0.9), math.log(0.1)]])
        endpoints, _ = fitter._gauss_newton(
            flat, _q(0.0, -math.inf, 0.0, 1.0, 1.0), fitter._FRONTIER_FREE, x0,
            fitter.DEFAULT_DELTA, bounds=[(None, None), (None, 0.0), (None, None)],
        )
        assert endpoints[:, 1].max() == 0.0

    def test_default_grid_lowers_no_start_and_warns_nothing(self, replica):
        flat, x0 = replica
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            endpoints, values = self.advance(flat, x0)
        objective = masked_objective(flat, np.zeros(6), _SCRATCH_FREE)
        assert (endpoints != x0).any(axis=1).all()
        assert all(objective(end) <= objective(start) for start, end in zip(x0, endpoints))
        # the objectives returned with the endpoints are theirs
        np.testing.assert_allclose(values, [objective(end) for end in endpoints], rtol=1e-12)


    def test_a_repeated_fit_keeps_the_heap(self):
        # The kernel writes every array of the data's size into buffers it
        # allocates once per call, so a second replica fit in one process
        # reuses the heap the first left (7 minor page faults on a 2-CPU host;
        # the same arithmetic as plain numpy expressions took 65,000-80,000).
        data = generate_runset(paper_replica_config("scratch"))
        fit_scratch(data)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fit_scratch(data)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5_000


def term_shares(q, log_n, log_d):
    """Softmax shares of the law terms (N, D, offset) at q: shape (3, *q.shape[:-1], records)."""
    _, weights, total, _ = fitter._law_terms(q, np.atleast_1d(log_n), np.atleast_1d(log_d),
                                             np.empty((6, *q.shape[:-1], np.size(log_n))))
    return np.array(weights) / total


class TestDefaultGrids:
    """The default starts are built from the data, so that every law term starts alive."""

    @pytest.fixture(scope="class")
    def replica(self):
        return _flatten(generate_runset(paper_replica_config("scratch")))

    def test_scratch_starts_give_every_term_its_share_at_the_median_record(self, replica):
        log_n, log_d, loss = fitter._median_record(replica)
        min_loss = math.exp(replica[2].min())
        grid = fitter._default_scratch_grid(replica)
        assert len(grid) == 96
        targets = product(fitter.OFFSET_FRACTIONS, fitter.TERM_SHARES,
                          fitter.EXPONENT_STARTS, fitter.EXPONENT_STARTS)
        for point, (fraction, share, alpha, beta) in zip(grid, targets, strict=True):
            assert point[3:] == (alpha, beta)
            rest = loss - fraction * min_loss
            expected = [share * rest / loss, (1.0 - share) * rest / loss, fraction * min_loss / loss]
            np.testing.assert_allclose(term_shares(_q(*point), log_n, log_d)[:, 0], expected,
                                       rtol=1e-12)

    @pytest.mark.parametrize("fixed_e", [CPT.E, "median loss"])
    def test_cpt_starts_give_the_data_term_the_loss_the_fixed_terms_leave(self, fixed_e):
        data = generate_runset(paper_replica_config("cpt"))
        flat = _flatten(data)
        log_n, log_d, loss = fitter._median_record(flat)
        # With E at the median loss the fixed terms leave less than nothing
        # there, and the data term starts at _MIN_DATA_SHARE of that loss.
        fixed_e = loss if fixed_e == "median loss" else fixed_e
        fixed_term = CPT.A * math.exp(-CPT.alpha * log_n)
        data_term = max(loss - fixed_e - fixed_term, fitter._MIN_DATA_SHARE * loss)
        assert (data_term == fitter._MIN_DATA_SHARE * loss) == (fixed_e == loss)
        total = fixed_term + data_term + fixed_e
        grid = fitter._default_cpt_grid(flat, fixed_e, CPT.A, CPT.alpha)
        assert [point[1:] for point in grid] == list(product(fitter.EXPONENT_STARTS,
                                                             fitter.GAMMA_STARTS))
        for b, beta, gamma in grid:
            q = _q(math.log(CPT.A), b, math.log(fixed_e), CPT.alpha, beta, gamma)
            np.testing.assert_allclose(term_shares(q, log_n, log_d)[:, 0],
                                       [fixed_term / total, data_term / total, fixed_e / total],
                                       rtol=1e-12)
        report = fit_cpt(data, (fixed_e, CPT.A, CPT.alpha))
        assert math.isfinite(report.objective) and report.params.B_prime > 0

    def test_no_default_start_has_a_dead_term(self, replica):
        # A term is dead at a start when its share is below 1e-6 on every record.
        log_n, log_d, _ = replica

        def dead(points):
            shares = term_shares(np.array([_q(*point) for point in points]), log_n, log_d)
            return int((shares.max(axis=2) < 1e-6).any(axis=0).sum())

        offsets = [math.log(f * math.exp(replica[2].min())) for f in fitter.OFFSET_FRACTIONS]
        raw = product((2.0, 6.0, 10.0, 14.0), (2.0, 6.0, 10.0, 14.0), offsets,
                      fitter.EXPONENT_STARTS, fitter.EXPONENT_STARTS)
        assert dead(list(raw)) == 54  # the raw lattice this grid replaced
        assert dead(fitter._default_scratch_grid(replica)) == 0
        cpt = _flatten(generate_runset(paper_replica_config("cpt")))
        fixed = (math.log(CPT.A), math.log(CPT.E), CPT.alpha)
        cpt_starts = [(fixed[0], b, fixed[1], fixed[2], beta, gamma)
                      for b, beta, gamma in fitter._default_cpt_grid(cpt, CPT.E, CPT.A, CPT.alpha)]
        shares = term_shares(np.array([_q(*point) for point in cpt_starts]), *cpt[:2])
        assert (shares.max(axis=2) >= 1e-6).all()

    def test_scaling_every_token_count_scales_only_b(self):
        data = generate_runset(paper_replica_config("scratch"))
        scaled = RunSet(runs=tuple(
            dataclasses.replace(run, records=tuple(dataclasses.replace(rec, tokens=1000 * rec.tokens)
                                                   for rec in run.records))
            for run in data
        ))
        base, p = fit_scratch(data).params, fit_scratch(scaled).params
        for name in ("E", "A", "alpha", "beta"):
            assert getattr(p, name) == pytest.approx(getattr(base, name), rel=1e-8)
        assert p.B == pytest.approx(base.B * 1000.0 ** base.beta, rel=1e-8)

    def test_noise_free_scratch_stage_rows(self, monkeypatch):
        # At most 96 starts x (30 trials + the first evaluation).
        rows = []
        real_stage, real_system = fitter._gauss_newton, fitter._law_system

        def counting_system(x, *args, **kwargs):
            rows.append(len(x))
            return real_system(x, *args, **kwargs)

        def counting_stage(*args, **kwargs):
            if kwargs.get("finish"):
                return real_stage(*args, **kwargs)
            monkeypatch.setattr(fitter, "_law_system", counting_system)
            try:
                return real_stage(*args, **kwargs)
            finally:
                monkeypatch.setattr(fitter, "_law_system", real_system)

        monkeypatch.setattr(fitter, "_gauss_newton", counting_stage)
        fit_scratch(generate_runset(paper_replica_config("scratch")))
        assert 0 < sum(rows) <= 96 * 31


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
