import csv
import dataclasses
import math
import re

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
    ValidationError,
    allocation_coefficients,
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

    @pytest.mark.parametrize("law", [
        dataclasses.replace(SCRATCH, A=1e308), dataclasses.replace(SCRATCH, A=1e-308),
        dataclasses.replace(SCRATCH, B=1e308), dataclasses.replace(SCRATCH, alpha=1e-308),
        dataclasses.replace(SCRATCH, beta=1e308), dataclasses.replace(SCRATCH, beta=1e-308),
        dataclasses.replace(CPT, B_prime=1e308), dataclasses.replace(CPT, gamma=-1e308),
    ])
    def test_coefficients_past_float_range_name_the_law(self, law):
        # Each raised OverflowError or ZeroDivisionError from the closed form.
        name = type(law).__name__
        with pytest.raises(DomainError, match=rf"^the allocation coefficients of {name}\("):
            allocation_coefficients(law)

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

    @pytest.mark.parametrize("field", ["compute", "n_opt", "d_opt", "predicted_loss"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, True])
    def test_plan_fields_are_positive_finite_numbers(self, field, value):
        plan = optimal_allocation(allocation_coefficients(SCRATCH), 1e21, SCRATCH)
        with pytest.raises(ValidationError, match=f"^{field} must be "):
            dataclasses.replace(plan, **{field: value})

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

    @pytest.mark.parametrize("law", [dataclasses.replace(SCRATCH, A=5e142),
                                     dataclasses.replace(SCRATCH, B=1e-150)])
    def test_plan_past_float_range_is_a_domain_error(self, law):
        # N_opt (or D_opt) at 1e300 FLOPs is past float range; math.exp raised.
        with pytest.raises(DomainError, match=r"the optimal N and D at C=1e\+300"):
            optimal_allocation(allocation_coefficients(law), 1e300, law)


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
                assert grid.loss_values[i][j] == pytest.approx(
                    float(eval_law(SCRATCH, n, d)), rel=1e-12
                )

    @pytest.mark.parametrize("law", [SCRATCH, CPT], ids=["scratch", "cpt"])
    def test_every_cell_equals_the_scalar_eval_law(self, law):
        grid = isoloss_grid(law, (1e7, 1e11), (1e9, 1e13), 40)
        for n, row in zip(grid.n_axis, grid.loss_values):
            assert row == tuple(eval_law(law, n, d) for d in grid.d_axis)

    @pytest.mark.parametrize("law", [SCRATCH, CPT], ids=["scratch", "cpt"])
    def test_axes_are_numpy_geomspace(self, law):
        grid = isoloss_grid(law, (1e7, 1e11), (1e9, 1e13), 40)
        for axis, (lo, hi) in ((grid.n_axis, (1e7, 1e11)), (grid.d_axis, (1e9, 1e13))):
            assert all(type(x) is float for x in axis)
            np.testing.assert_allclose(axis, np.geomspace(lo, hi, 40), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("law", [SCRATCH, CPT], ids=["scratch", "cpt"])
    def test_cells_are_within_4_ulp_of_the_array_eval_law(self, law):
        grid = isoloss_grid(law, (1e7, 1e11), (1e9, 1e13), 40)
        n_axis, d_axis = np.array(grid.n_axis), np.array(grid.d_axis)
        expected = eval_law(law, n_axis[:, None], d_axis[None, :])
        got = np.array(grid.loss_values)
        assert np.all(np.abs(got - expected) <= 4 * np.spacing(expected))

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

    # numpy would index with a 0-d integer array alone; any other array is no count.
    def test_resolution_is_an_integer_or_a_0d_integer_array(self):
        with pytest.raises(ValidationError, match=r"^resolution must be an integer, got array\(\[3\]\)$"):
            isoloss_grid(SCRATCH, (1e8, 1e9), (1e9, 1e10), np.array([3]))
        expected = isoloss_grid(SCRATCH, (1e8, 1e9), (1e9, 1e10), 3)
        assert isoloss_grid(SCRATCH, (1e8, 1e9), (1e9, 1e10), np.array(3)) == expected
        assert isoloss_grid(SCRATCH, (1e8, 1e9), (1e9, 1e10), np.int32(3)) == expected

    @pytest.mark.parametrize("n_range, d_range", [((1e-200, 1e9), (1e-200, 1e12)),
                                                  ((1e8, 1e200), (1e9, 1e200))],
                             ids=["underflow", "overflow"])
    def test_compute_past_float_range_names_both_ranges(self, n_range, d_range):
        with pytest.raises(DomainError, match=rf"n_range {re.escape(repr(n_range))}, "
                                              rf"d_range {re.escape(repr(d_range))}"):
            isoloss_grid(SCRATCH, n_range, d_range, 3)

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
                                     f"{grid.loss_values[i][j]:.9g}", "false"])
            for compute, n in grid.frontier:
                d = compute / (6.0 * n)
                writer.writerow([f"{n:.9g}", f"{d:.9g}", f"{compute:.9g}",
                                 f"{eval_law(CPT, n, d):.9g}", "true"])
        assert out.read_bytes() == reference.read_bytes()

    # Each of these reached export_isoloss_csv unchecked and escaped it as a
    # TypeError, a ValueError and a ZeroDivisionError.
    @pytest.mark.parametrize("frontier, message", [
        (None, "frontier must be a sequence"),
        (((1e20,),), "frontier[0] must hold 2 values"),
        (((1e20, 0.0),), "frontier[0][1] must be positive and finite"),
    ], ids=["null", "short-pair", "zero-N"])
    def test_rejects_a_frontier_the_export_cannot_write(self, frontier, message):
        grid = isoloss_grid(SCRATCH, (1e8, 1e9), (1e10, 1e11), 3)
        with pytest.raises(ValidationError, match=re.escape(message)):
            dataclasses.replace(grid, frontier=frontier)


class TestEfficientFrontierLoss:
    """The optimal loss along the closed-form frontier: the plan's predicted loss at each budget."""

    @staticmethod
    def curve(law, lo, hi, samples):
        coeffs = allocation_coefficients(law)
        return [(float(c), optimal_allocation(coeffs, float(c), law).predicted_loss)
                for c in np.geomspace(lo, hi, samples)]

    def test_loss_decreases_with_compute(self):
        losses = [l for _, l in self.curve(SCRATCH, 1e18, 1e23, 24)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_refit_exponent_over_high_compute_window(self):
        # Sampling L_opt over C in [1e19, 1e22] and refitting a zero-offset
        # power law gives an effective exponent of ~0.0405: the irreducible
        # loss flattens the log-log slope well below the curve's own 0.171
        # decay and below the published 0.0579 frontier exponent, which was
        # fit over a lower-compute window of empirical minima.
        fitted = fit_frontier(self.curve(SCRATCH, 1e19, 1e22, 64))
        assert fitted.exponent == pytest.approx(0.04050, abs=2e-3)
        assert 0.5 * 0.0579 < fitted.exponent < 2.0 * 0.0579
