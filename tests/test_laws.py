import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cptlaws import (
    ChinchillaParams,
    DomainError,
    ExtendedCptParams,
    FrontierParams,
    NoCrossoverError,
    REFERENCE_CPT_FRONTIER,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_FRONTIER,
    REFERENCE_SCRATCH_LAW,
    UnreachableLossError,
    ValidationError,
    eval_frontier,
    eval_law,
    frontier_crossover,
    law_from_dict,
    law_to_dict,
    loss_floor,
    solve_params_for_loss,
    solve_tokens_for_loss,
)

SCRATCH = REFERENCE_SCRATCH_LAW
CPT = REFERENCE_CPT_LAW


def plain_chinchilla(p, n, d):
    # independent of the log-space evaluation path
    return p.E + p.A / n**p.alpha + p.B / d**p.beta


def plain_extended(p, n, d):
    return p.E + p.A / n**p.alpha + p.B_prime / (d**p.beta_prime * n**p.gamma)


class TestEvalChinchilla:
    def test_reference_point(self):
        # direct-arithmetic oracle: 1.55 + 420/1e9^0.4 + 719.5/2e10^0.3
        assert plain_chinchilla(SCRATCH, 1e9, 2e10) == pytest.approx(2.2399148, abs=1e-6)
        assert eval_law(SCRATCH, 1e9, 2e10) == pytest.approx(
            plain_chinchilla(SCRATCH, 1e9, 2e10), rel=1e-12
        )

    def test_asymptote_is_irreducible_loss(self):
        assert eval_law(SCRATCH, 1e30, 1e30) == pytest.approx(1.55, abs=1e-6)
        assert eval_law(SCRATCH, 1e9, 1e9) > SCRATCH.E

    def test_doubling_data_reduces_loss(self):
        assert eval_law(SCRATCH, 1e9, 4e10) < eval_law(SCRATCH, 1e9, 2e10)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(DomainError):
            eval_law(SCRATCH, 0, 1e9)
        with pytest.raises(DomainError):
            eval_law(SCRATCH, 1e9, -1)

    def test_array_broadcast(self):
        ns = np.array([1e8, 1e9])
        out = eval_law(SCRATCH, ns, 2e10)
        assert out.shape == (2,)
        assert out[0] > out[1]

    @pytest.mark.property
    @given(
        n=st.floats(1e3, 1e15),
        d=st.floats(1e3, 1e15),
        factor=st.floats(1.01, 100),
    )
    def test_strictly_decreasing_and_bounded(self, n, d, factor):
        base = eval_law(SCRATCH, n, d)
        assert base > SCRATCH.E
        assert eval_law(SCRATCH, n * factor, d) < base
        assert eval_law(SCRATCH, n, d * factor) < base


class TestEvalExtended:
    def test_reference_point(self):
        assert plain_extended(CPT, 1e9, 1e9) == pytest.approx(2.9640443, abs=1e-6)
        assert eval_law(CPT, 1e9, 1e9) == pytest.approx(
            plain_extended(CPT, 1e9, 1e9), rel=1e-12
        )

    @pytest.mark.property
    @given(n=st.floats(1e3, 1e14), d=st.floats(1e3, 1e14))
    def test_zero_gamma_reduces_to_chinchilla(self, n, d):
        degenerate = ExtendedCptParams(
            E=SCRATCH.E, A=SCRATCH.A, alpha=SCRATCH.alpha,
            B_prime=SCRATCH.B, beta_prime=SCRATCH.beta, gamma=0.0,
        )
        assert eval_law(degenerate, n, d) == pytest.approx(
            eval_law(SCRATCH, n, d), rel=1e-15
        )

    @pytest.mark.property
    @given(
        n=st.floats(1e4, 1e13),
        d=st.floats(1e4, 1e13),
        factor=st.floats(1.001, 1000),
    )
    def test_positive_gamma_rewards_model_size(self, n, d, factor):
        assert eval_law(CPT, n * factor, d) < eval_law(CPT, n, d)


class TestEvalFrontier:
    def test_reference_points(self):
        # direct-arithmetic oracles for the two published frontier fits
        scratch_oracle = 33.69907 * (1e20) ** -0.0579
        cpt_oracle = 31.9594 * (1e20) ** -0.0575
        assert eval_frontier(REFERENCE_SCRATCH_FRONTIER, 1e20) == pytest.approx(
            scratch_oracle, rel=1e-12
        )
        assert eval_frontier(REFERENCE_CPT_FRONTIER, 1e20) == pytest.approx(
            cpt_oracle, rel=1e-12
        )
        assert cpt_oracle == pytest.approx(2.2625523, abs=1e-6)
        # the CPT frontier sits below the from-scratch frontier here
        assert cpt_oracle < scratch_oracle

    def test_unit_compute_returns_coefficient(self):
        p = FrontierParams(coefficient=12.5, exponent=0.3)
        assert eval_frontier(p, 1.0) == pytest.approx(12.5, rel=1e-15)

    def test_offset_shifts_floor(self):
        p = FrontierParams(coefficient=10.0, exponent=0.5, offset=1.25)
        assert eval_frontier(p, 1e30) == pytest.approx(1.25, abs=1e-9)

    @pytest.mark.property
    @given(c=st.floats(1, 1e40), factor=st.floats(1.01, 1e6))
    def test_strictly_decreasing(self, c, factor):
        assert eval_frontier(REFERENCE_SCRATCH_FRONTIER, c * factor) < eval_frontier(
            REFERENCE_SCRATCH_FRONTIER, c
        )


class TestSolveTokens:
    def test_round_trip_scratch(self):
        level = eval_law(SCRATCH, 1e9, 2e10)
        assert solve_tokens_for_loss(SCRATCH, 1e9, level) == pytest.approx(2e10, rel=1e-9)

    def test_round_trip_cpt(self):
        level = eval_law(CPT, 1e9, 1e9)
        assert solve_tokens_for_loss(CPT, 1e9, level) == pytest.approx(1e9, rel=1e-9)

    def test_unreachable_loss(self):
        assert loss_floor(SCRATCH, 1e9) == pytest.approx(1.6554992, abs=1e-6)
        with pytest.raises(UnreachableLossError):
            solve_tokens_for_loss(SCRATCH, 1e9, 1.6)

    @pytest.mark.property
    @given(n=st.floats(1e4, 1e13), d=st.floats(1e4, 1e13))
    def test_inverse_of_eval(self, n, d):
        for law in (SCRATCH, CPT):
            level = eval_law(law, n, d)
            assert solve_tokens_for_loss(law, n, level) == pytest.approx(d, rel=1e-6)


class TestSolveParams:
    def test_round_trip(self):
        level = eval_law(SCRATCH, 1e9, 2e10)
        assert solve_params_for_loss(SCRATCH, 2e10, level) == pytest.approx(1e9, rel=1e-9)

    def test_below_floor(self):
        with pytest.raises(UnreachableLossError):
            solve_params_for_loss(SCRATCH, 2e10, 1.0)

    def test_easier_targets_need_fewer_params(self):
        easy = solve_params_for_loss(SCRATCH, 2e10, 2.5)
        hard = solve_params_for_loss(SCRATCH, 2e10, 2.3)
        assert easy < hard

    @pytest.mark.property
    @given(n=st.floats(1e4, 1e13), d=st.floats(1e4, 1e13))
    def test_inverse_of_eval(self, n, d):
        level = eval_law(SCRATCH, n, d)
        assert solve_params_for_loss(SCRATCH, d, level) == pytest.approx(n, rel=1e-6)


class TestFrontierCrossover:
    def test_reference_fits_cross_far_out(self):
        # oracle: (33.69907/31.9594)^(1/0.0004)
        oracle = math.exp(
            (math.log(33.69907) - math.log(31.9594)) / (0.0579 - 0.0575)
        )
        got = frontier_crossover(REFERENCE_SCRATCH_FRONTIER, REFERENCE_CPT_FRONTIER)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert 1e56 < got < 1e59

    def test_simple_case(self):
        c = frontier_crossover(
            FrontierParams(coefficient=2, exponent=0.5),
            FrontierParams(coefficient=1, exponent=0.25),
        )
        assert c == pytest.approx(16.0, rel=1e-12)

    def test_identical_laws_warn(self):
        p = FrontierParams(coefficient=3.0, exponent=0.1)
        with pytest.warns(UserWarning, match="identical"):
            c = frontier_crossover(p, p)
        assert c > 0

    def test_parallel_distinct_laws(self):
        with pytest.raises(NoCrossoverError):
            frontier_crossover(
                FrontierParams(coefficient=2, exponent=0.1),
                FrontierParams(coefficient=1, exponent=0.1),
            )

    def test_offsets_unsupported(self):
        with pytest.raises(DomainError):
            frontier_crossover(
                FrontierParams(coefficient=2, exponent=0.1, offset=0.5),
                FrontierParams(coefficient=1, exponent=0.2),
            )


class TestParamValidation:
    def test_chinchilla_requires_positive_fields(self):
        with pytest.raises(ValidationError):
            ChinchillaParams(E=-1.0, A=420, B=719.5, alpha=0.4, beta=0.3)
        with pytest.raises(ValidationError):
            ChinchillaParams(E=1.55, A=420, B=719.5, alpha=0.0, beta=0.3)

    def test_gamma_may_be_negative(self):
        p = ExtendedCptParams(E=1.5, A=400, alpha=0.4, B_prime=700, beta_prime=0.3, gamma=-0.005)
        assert p.gamma == -0.005

    def test_frontier_allows_zero_exponent(self):
        assert FrontierParams(coefficient=2.5, exponent=0.0).exponent == 0.0
        with pytest.raises(ValidationError):
            FrontierParams(coefficient=2.5, exponent=-0.1)


class TestSerialization:
    @pytest.mark.property
    @pytest.mark.parametrize(
        "law",
        [
            SCRATCH,
            CPT,
            REFERENCE_SCRATCH_FRONTIER,
            FrontierParams(coefficient=5.0, exponent=0.2, offset=1.1),
        ],
    )
    def test_round_trip(self, law):
        doc = law_to_dict(law)
        assert doc["schema_version"] == 1
        assert law_from_dict(json.loads(json.dumps(doc))) == law

    def test_discriminators(self):
        assert law_to_dict(SCRATCH)["law_kind"] == "chinchilla"
        assert law_to_dict(CPT)["law_kind"] == "extended_cpt"
        assert law_to_dict(REFERENCE_CPT_FRONTIER)["law_kind"] == "frontier"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="law_kind"):
            law_from_dict({"schema_version": 1, "law_kind": "mystery"})

    def test_bad_version_rejected(self):
        doc = law_to_dict(SCRATCH)
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            law_from_dict(doc)

    @pytest.mark.parametrize(
        "law, field, value",
        [(SCRATCH, "E", True), (REFERENCE_SCRATCH_FRONTIER, "exponent", False),
         (CPT, "gamma", 10**400), (SCRATCH, "A", "420"), (SCRATCH, "B", None)],
        ids=["bool", "frontier-bool", "huge-int", "string", "null"],
    )
    def test_non_number_field_rejected(self, law, field, value):
        doc = json.loads(json.dumps(law_to_dict(law)))
        doc[field] = value
        with pytest.raises(ValidationError, match=field):
            law_from_dict(doc)

    def test_integer_field_becomes_float(self):
        doc = law_to_dict(SCRATCH)
        doc["E"] = 2
        law = law_from_dict(doc)
        assert law.E == 2.0 and type(law.E) is float

    def test_explicit_field_names(self):
        doc = law_to_dict(CPT)
        assert {"E", "A", "alpha", "B_prime", "beta_prime", "gamma"} <= set(doc)
        doc = law_to_dict(REFERENCE_SCRATCH_FRONTIER)
        assert {"coefficient", "exponent", "offset"} <= set(doc)
