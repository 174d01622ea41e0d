import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cptlaws import (
    AllocationRegimeError,
    ChinchillaParams,
    DomainError,
    ExtendedCptParams,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_LAW,
    allocation_coefficients,
    efficient_frontier_loss,
    eval_law,
    fit_frontier,
    isoloss_grid,
    numeric_optimal_params,
    optimal_allocation,
)
from cptlaws.allocator import export_isoloss_csv

SCRATCH = REFERENCE_SCRATCH_LAW
CPT = REFERENCE_CPT_LAW


def random_chinchilla():
    return st.builds(
        ChinchillaParams,
        E=st.floats(0.5, 3.0),
        A=st.floats(1.0, 1e4),
        B=st.floats(1.0, 1e4),
        alpha=st.floats(0.05, 1.0),
        beta=st.floats(0.05, 1.0),
    )


class TestCoefficientsScratch:
    def test_exponents_match_published_values(self):
        coeffs = allocation_coefficients(SCRATCH)
        assert coeffs.a == pytest.approx(0.429, abs=5e-4)
        assert coeffs.b == pytest.approx(0.571, abs=5e-4)

    def test_prefactors_match_published_values(self):
        coeffs = allocation_coefficients(SCRATCH)
        assert coeffs.k_N == pytest.approx(0.324, rel=1e-2)
        assert coeffs.k_D == pytest.approx(0.514, rel=1e-2)

    def test_symmetric_law(self):
        p = ChinchillaParams(E=1.0, A=100.0, B=100.0, alpha=0.5, beta=0.5)
        coeffs = allocation_coefficients(p)
        assert coeffs.a == pytest.approx(0.5, abs=1e-15)
        assert coeffs.b == pytest.approx(0.5, abs=1e-15)
        assert coeffs.G == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.property
    @given(p=random_chinchilla())
    def test_exponents_sum_to_one(self, p):
        coeffs = allocation_coefficients(p)
        assert abs(coeffs.a + coeffs.b - 1.0) <= 1e-12


class TestCoefficientsCpt:
    def test_exponents_match_published_values(self):
        coeffs = allocation_coefficients(CPT)
        assert coeffs.a == pytest.approx(0.385, abs=5e-4)
        assert coeffs.b == pytest.approx(0.615, abs=5e-4)

    def test_prefactors_match_published_values(self):
        coeffs = allocation_coefficients(CPT)
        assert coeffs.k_N == pytest.approx(4.79, rel=1e-2)
        assert coeffs.k_D == pytest.approx(0.035, rel=1e-2)

    def test_cpt_shifts_allocation_toward_params(self):
        assert allocation_coefficients(CPT).a < allocation_coefficients(SCRATCH).a
        assert allocation_coefficients(CPT).b > allocation_coefficients(SCRATCH).b

    @pytest.mark.property
    @given(p=random_chinchilla())
    def test_zero_gamma_reduces_to_scratch(self, p):
        degenerate = ExtendedCptParams(
            E=p.E, A=p.A, alpha=p.alpha, B_prime=p.B, beta_prime=p.beta, gamma=0.0
        )
        lhs = allocation_coefficients(degenerate)
        rhs = allocation_coefficients(p)
        assert lhs.a == pytest.approx(rhs.a, rel=1e-12)
        assert lhs.G == pytest.approx(rhs.G, rel=1e-12)
        assert lhs.k_N == pytest.approx(rhs.k_N, rel=1e-12)
        assert lhs.k_D == pytest.approx(rhs.k_D, rel=1e-12)

    def test_invalid_regime_rejected(self):
        bad_beta = ExtendedCptParams(
            E=1.5, A=400.0, alpha=0.4, B_prime=400.0, beta_prime=0.2, gamma=0.25
        )
        with pytest.raises(AllocationRegimeError):
            allocation_coefficients(bad_beta)
        bad_alpha = ExtendedCptParams(
            E=1.5, A=400.0, alpha=0.1, B_prime=400.0, beta_prime=0.3, gamma=0.15
        )
        with pytest.raises(AllocationRegimeError):
            allocation_coefficients(bad_alpha)

    def test_dispatch_helper(self):
        as_cpt = ExtendedCptParams(
            E=SCRATCH.E, A=SCRATCH.A, alpha=SCRATCH.alpha,
            B_prime=SCRATCH.B, beta_prime=SCRATCH.beta, gamma=0.0,
        )
        assert allocation_coefficients(SCRATCH) == allocation_coefficients(as_cpt)


class TestOptimalAllocation:
    def test_scratch_budget_split(self):
        plan = optimal_allocation(allocation_coefficients(SCRATCH), 1e21, SCRATCH)
        assert plan.n_opt == pytest.approx(3.24e8, rel=1e-2)
        assert plan.d_opt == pytest.approx(5.14e11, rel=1e-2)
        assert plan.predicted_loss == pytest.approx(
            float(eval_law(SCRATCH, plan.n_opt, plan.d_opt)), rel=1e-12
        )

    def test_cpt_budget_prefers_larger_model(self):
        scratch_plan = optimal_allocation(allocation_coefficients(SCRATCH), 1e21, SCRATCH)
        cpt_plan = optimal_allocation(allocation_coefficients(CPT), 1e21, CPT)
        assert cpt_plan.n_opt == pytest.approx(5.72e8, rel=1e-2)
        assert cpt_plan.d_opt == pytest.approx(2.92e11, rel=1e-2)
        assert cpt_plan.n_opt > scratch_plan.n_opt

    def test_unit_budget(self):
        coeffs = allocation_coefficients(SCRATCH)
        plan = optimal_allocation(coeffs, 6.0, SCRATCH)
        assert plan.n_opt == pytest.approx(coeffs.G, rel=1e-12)
        assert plan.d_opt == pytest.approx(1.0 / coeffs.G, rel=1e-12)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(DomainError):
            optimal_allocation(allocation_coefficients(SCRATCH), 0.0, SCRATCH)

    @pytest.mark.parametrize("compute", [math.inf, math.nan])
    def test_rejects_non_finite_budget(self, compute):
        with pytest.raises(DomainError, match="compute must be positive and finite"):
            optimal_allocation(allocation_coefficients(SCRATCH), compute, SCRATCH)
        with pytest.raises(DomainError, match="compute must be positive and finite"):
            numeric_optimal_params(SCRATCH, compute)

    @pytest.mark.property
    @given(log_c=st.floats(15, 26))
    def test_budget_identity(self, log_c):
        compute = 10.0**log_c
        for law, coeffs in (
            (SCRATCH, allocation_coefficients(SCRATCH)),
            (CPT, allocation_coefficients(CPT)),
        ):
            plan = optimal_allocation(coeffs, compute, law)
            assert abs(6.0 * plan.n_opt * plan.d_opt / compute - 1.0) < 1e-9

    @pytest.mark.parametrize("law_name", ["scratch", "cpt"])
    @pytest.mark.parametrize("compute", [1e18, 1e20, 1e22])
    def test_first_order_optimality(self, law_name, compute):
        law = SCRATCH if law_name == "scratch" else CPT
        plan = optimal_allocation(allocation_coefficients(law), compute, law)
        for bump in (0.99, 1.01):
            n = plan.n_opt * bump
            d = compute / (6.0 * n)
            assert eval_law(law, n, d) >= plan.predicted_loss


class TestNumericFrontier:
    @pytest.mark.parametrize("law_name", ["scratch", "cpt"])
    def test_matches_closed_form_over_five_decades(self, law_name):
        law = SCRATCH if law_name == "scratch" else CPT
        coeffs = allocation_coefficients(law)
        for compute in np.geomspace(1e18, 1e23, 11):
            closed = optimal_allocation(coeffs, float(compute), law).n_opt
            numeric = numeric_optimal_params(law, float(compute))
            assert numeric == pytest.approx(closed, rel=1e-2)

    @pytest.mark.parametrize("law_name", ["scratch", "cpt"])
    def test_resolves_the_closed_form_to_1e12(self, law_name):
        # A search on loss values stalls about 1e-7 away on the flat minimum;
        # the sign of the derivative is still exact there.
        law = SCRATCH if law_name == "scratch" else CPT
        coeffs = allocation_coefficients(law)
        for compute in np.geomspace(1e18, 1e24, 64):
            closed = coeffs.k_N * float(compute) ** coeffs.a
            assert numeric_optimal_params(law, float(compute)) == pytest.approx(closed, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            numeric_optimal_params(SCRATCH, -1.0)
        with pytest.raises(DomainError):
            numeric_optimal_params(SCRATCH, 1e20, bracket=(1e13, 1e6))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rejects_a_tol_that_is_not_positive_and_finite(self, tol):
        # tol = 0 looped forever, and NaN returned the bracket's midpoint.
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            numeric_optimal_params(SCRATCH, 1e20, tol=tol)

    @pytest.mark.parametrize(
        "bracket", [(0.0, 1e13), (1e6, math.inf), (math.nan, 1e13), (-1e6, 1e13), (1e6,),
                    (1e6, 1e9, 1e13)],
    )
    def test_rejects_a_bracket_without_two_positive_finite_edges(self, bracket):
        with pytest.raises(DomainError, match="bracket must have two positive finite edges"):
            numeric_optimal_params(SCRATCH, 1e20, bracket=bracket)

    def test_tol_below_float_spacing_still_ends(self):
        closed = optimal_allocation(allocation_coefficients(SCRATCH), 1e20, SCRATCH).n_opt
        assert numeric_optimal_params(SCRATCH, 1e20, tol=1e-300) == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("compute", [1e5, 1e35])
    def test_argmin_at_bracket_edge_raises(self, compute):
        # the closed-form optimum (about 3.2e14 params at 1e35) lies outside the bracket
        with pytest.raises(DomainError, match="edge of the bracket"):
            numeric_optimal_params(SCRATCH, compute)

    @pytest.mark.parametrize("gamma", [CPT.beta_prime, 0.3])
    def test_data_term_that_does_not_grow_with_n_raises_at_the_upper_edge(self, gamma):
        # With beta' <= gamma the loss falls along the whole iso-compute line,
        # so the bisection runs into the bracket's upper edge.
        law = ExtendedCptParams(E=CPT.E, A=CPT.A, alpha=CPT.alpha, B_prime=CPT.B_prime,
                                beta_prime=CPT.beta_prime, gamma=gamma)
        with pytest.raises(DomainError, match="edge of the bracket"):
            numeric_optimal_params(law, 1e21)


class TestIsoLossGrid:
    def test_pointwise_values(self):
        grid = isoloss_grid(SCRATCH, (1e8, 1e9), (1e10, 1e11), 2)
        for i, n in enumerate(grid.n_axis):
            for j, d in enumerate(grid.d_axis):
                assert grid.loss_values[i, j] == pytest.approx(
                    float(eval_law(SCRATCH, n, d)), rel=1e-12
                )

    @pytest.mark.property
    def test_loss_decreases_along_both_axes(self):
        grid = isoloss_grid(SCRATCH, (1e7, 1e10), (1e9, 1e12), 12)
        assert np.all(np.diff(grid.loss_values, axis=0) < 0)
        assert np.all(np.diff(grid.loss_values, axis=1) < 0)

    def test_frontier_spans_grid_compute_range(self):
        grid = isoloss_grid(SCRATCH, (1e7, 1e10), (1e9, 1e12), 8)
        computes = [c for c, _ in grid.frontier]
        assert computes[0] == pytest.approx(6.0 * 1e7 * 1e9)
        assert computes[-1] == pytest.approx(6.0 * 1e10 * 1e12)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            isoloss_grid(SCRATCH, (1e9, 1e8), (1e9, 1e12), 4)
        with pytest.raises(DomainError):
            isoloss_grid(SCRATCH, (1e8, 1e9), (1e9, 1e12), 1)

    @pytest.mark.parametrize("bad", [(1e8, math.inf), (math.nan, 1e9)])
    def test_non_finite_ranges_are_named(self, bad):
        with pytest.raises(DomainError, match="n_range"):
            isoloss_grid(SCRATCH, bad, (1e9, 1e12), 4)
        with pytest.raises(DomainError, match="d_range"):
            isoloss_grid(SCRATCH, (1e8, 1e9), bad, 4)

    def test_csv_export(self, tmp_path):
        grid = isoloss_grid(SCRATCH, (1e8, 1e9), (1e10, 1e11), 3)
        out = tmp_path / "grid.csv"
        export_isoloss_csv(grid, SCRATCH, out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9 + 3
        flags = {row["is_frontier"] for row in rows}
        assert flags == {"true", "false"}
        for row in rows:
            got = float(row["C"])
            expected = 6.0 * float(row["N"]) * float(row["D"])
            assert got == pytest.approx(expected, rel=1e-6)


    def test_csv_export_writes_what_csv_writer_writes(self, tmp_path):
        grid = isoloss_grid(CPT, (1e8, 1e11), (1e9, 1e12), 16)
        out = tmp_path / "grid.csv"
        export_isoloss_csv(grid, CPT, out)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "D", "C", "loss", "is_frontier"])
            for i, n in enumerate(grid.n_axis):
                for j, d in enumerate(grid.d_axis):
                    writer.writerow([f"{n:.9g}", f"{d:.9g}", f"{6.0 * n * d:.9g}",
                                     f"{grid.loss_values[i, j]:.9g}", "false"])
            for compute, n in grid.frontier:
                d = compute / (6.0 * n)
                writer.writerow([f"{n:.9g}", f"{d:.9g}", f"{compute:.9g}",
                                 f"{eval_law(CPT, n, d):.9g}", "true"])
        assert out.read_bytes() == reference.read_bytes()


class TestEfficientFrontierLoss:
    def test_loss_decreases_with_compute(self):
        coeffs = allocation_coefficients(SCRATCH)
        curve = efficient_frontier_loss(coeffs, SCRATCH, (1e18, 1e23), 24)
        losses = [l for _, l in curve]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_single_sample(self):
        coeffs = allocation_coefficients(SCRATCH)
        curve = efficient_frontier_loss(coeffs, SCRATCH, (1e20, 1e22), 1)
        plan = optimal_allocation(coeffs, 1e20, SCRATCH)
        assert curve == [(pytest.approx(1e20), pytest.approx(plan.predicted_loss))]

    @pytest.mark.parametrize("c_range", [(1e20, math.inf), (math.nan, 1e22), (1e20, math.nan)])
    def test_non_finite_c_range_rejected(self, c_range):
        # RuntimeWarnings are errors in this suite, so a warning ahead of the
        # check fails the test too.
        with pytest.raises(DomainError, match="c_range"):
            efficient_frontier_loss(allocation_coefficients(SCRATCH), SCRATCH, c_range, 4)

    def test_refit_exponent_over_high_compute_window(self):
        # Sampling L_opt over C in [1e19, 1e22] and refitting a zero-offset
        # power law gives an effective exponent of ~0.0405: the irreducible
        # loss flattens the log-log slope well below the curve's own 0.171
        # decay and below the published 0.0579 frontier exponent, which was
        # fit over a lower-compute window of empirical minima.
        coeffs = allocation_coefficients(SCRATCH)
        curve = efficient_frontier_loss(coeffs, SCRATCH, (1e19, 1e22), 64)
        fitted = fit_frontier(curve)
        assert fitted.exponent == pytest.approx(0.04050, abs=2e-3)
        assert 0.5 * 0.0579 < fitted.exponent < 2.0 * 0.0579
