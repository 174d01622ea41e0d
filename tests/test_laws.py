import json
import math
import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

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
    parametric_transfer,
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

    @pytest.mark.parametrize("fields, message", [
        ({"coefficient": 0.0, "exponent": 0.1}, "coefficient must be positive"),
        ({"coefficient": 2.5, "exponent": 0.1, "offset": -0.5}, "offset must be nonnegative"),
    ], ids=["zero-coefficient", "negative-offset"])
    def test_frontier_rejects_bad_fields(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            FrontierParams(**fields)

    def test_frontier_allows_zero_exponent(self):
        assert FrontierParams(coefficient=2.5, exponent=0.0).exponent == 0.0
        with pytest.raises(ValidationError):
            FrontierParams(coefficient=2.5, exponent=-0.1)

    def test_loss_law_operations_reject_a_frontier(self):
        with pytest.raises(ValidationError, match="expected a loss law, got FrontierParams"):
            eval_law(REFERENCE_SCRATCH_FRONTIER, 1e9, 1e9)
        with pytest.raises(ValidationError, match="expected a loss law, got FrontierParams"):
            loss_floor(REFERENCE_SCRATCH_FRONTIER, 1e9)


class TestScalarPath:
    """Python numbers run through math, arrays through numpy; the two agree to about 1 ulp."""

    NS = np.geomspace(1e6, 1e13, 15)
    DS = np.geomspace(1e8, 1e14, 15)

    @pytest.mark.parametrize("law", [SCRATCH, CPT], ids=["scratch", "cpt"])
    def test_scalar_and_array_paths_agree(self, law):
        n, d = (grid.ravel() for grid in np.meshgrid(self.NS, self.DS))
        losses = eval_law(law, n, d)
        tokens = solve_tokens_for_loss(law, n, losses)
        for i in range(n.size):
            loss = eval_law(law, float(n[i]), float(d[i]))
            assert type(loss) is float
            assert abs(loss / losses[i] - 1) <= 4e-16
            solved = solve_tokens_for_loss(law, float(n[i]), float(losses[i]))
            assert abs(solved / tokens[i] - 1) <= 4e-16

    # numpy reads the text "1e9" as a number; a law function does not.
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 0, "1e9"])
    def test_scalar_path_rejects_what_the_array_path_rejects(self, bad):
        for args in ((bad, 1e9), (1e9, bad)):
            for convert in (lambda v: v, np.asarray, lambda v: np.array([v])):
                with pytest.raises(DomainError):
                    eval_law(SCRATCH, *(convert(v) for v in args))
            with pytest.raises(DomainError):
                parametric_transfer(SCRATCH, CPT, *args)
        for args in ((bad, 3.0), (1e9, bad)):
            with pytest.raises(DomainError):
                solve_tokens_for_loss(SCRATCH, *args)
        with pytest.raises(DomainError):
            eval_frontier(REFERENCE_SCRATCH_FRONTIER, bad)

    # A bool is not read as 1, nor an int past float range as inf.
    @pytest.mark.parametrize("args, message", [
        ((True, 1e9), "N must be a number, got bool"),
        ((1e9, True), "D must be a number, got bool"),
        ((10**400, 1e9), "N is too large"),
    ], ids=["bool-n", "bool-d", "n-past-float-range"])
    def test_scalar_path_takes_only_numbers_in_float_range(self, args, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            eval_law(SCRATCH, *args)

    def test_array_path_takes_no_bool_array(self):
        with pytest.raises(DomainError, match="^N must be a number or an array of numbers"):
            eval_law(SCRATCH, np.array([True]), 1e9)

    # numpy reads None as NaN, a complex value as its real part (with a
    # ComplexWarning), a bytearray or memoryview as its bytes (also in a list), and
    # text or a bool in an object array, a date, a duration and a record of one
    # number as numbers.
    @pytest.mark.parametrize("bad", [
        [1e9, [1e9]], np.array([10**400], dtype=object), np.array(["1e9"]),
        None, [1e9, None], np.array([1e9, None], dtype=object), 1e9 + 5j, 1e9 + 0j,
        np.complex64(1e9), [1e9, 2e9 + 1j],
        np.array([Fraction(10**9), np.complex64(1)], dtype=object),
        np.array([Fraction(10**9), 1j], dtype=object),
        np.array([Fraction(10**9), "1e9"], dtype=object), np.array([1e9, True], dtype=object),
        np.array([1e9, np.bool_(True)], dtype=object),
        np.array(["2020-01-01"], dtype="datetime64[D]"), np.array([10**9], dtype="timedelta64[s]"),
        np.array([(1e9,)], dtype=[("n", float)]), b"a", bytearray(b"a"), memoryview(b"a"),
        memoryview(np.array([1e9])), [bytearray(b"a")], [[memoryview(b"ab")]],
        [[1e9, 2e9], bytearray(b"ab")], ([1e9], (b"a",)),
    ], ids=["ragged", "past-float-range", "text", "none", "none-in-list", "none-in-object-array",
            "complex", "complex-real", "complex64", "complex-in-list", "complex64-in-object-array",
            "complex-in-object-array", "text-in-object-array", "bool-in-object-array",
            "numpy-bool-in-object-array", "datetime", "timedelta", "record", "bytes", "bytearray",
            "memoryview", "memoryview-of-floats", "bytearray-in-list", "memoryview-in-nested-list",
            "bytearray-row", "bytes-in-nested-tuple"])
    def test_array_path_takes_only_float_arrays(self, bad):
        calls = {
            "N": [lambda v: eval_law(SCRATCH, v, 1e10), lambda v: loss_floor(CPT, v),
                  lambda v: solve_tokens_for_loss(SCRATCH, v, 3.0)],
            "D": [lambda v: eval_law(CPT, 1e9, v)],
            "L": [lambda v: solve_tokens_for_loss(CPT, 1e9, v)],
            "C": [lambda v: eval_frontier(REFERENCE_SCRATCH_FRONTIER, v)],
        }
        message = f"must be a number or an array of numbers, got {type(bad).__name__}"
        for name, functions in calls.items():
            for function in functions:
                with pytest.raises(DomainError, match=f"^{name} {re.escape(message)}$"):
                    function(bad)

    @pytest.mark.parametrize("n, expected", [
        (np.array([Fraction(10**9), Fraction(3, 2) * 10**9], dtype=object), [1e9, 1.5e9]),
        (np.array([Decimal(10**9), Decimal("2.5e9")], dtype=object), [1e9, 2.5e9]),
        ([2**70, 10**9], [2.0**70, 1e9]),
        (np.float32(1e9), 1e9),
        (np.int64(10**9), 1e9),
        ([np.uint32(10**9), np.uint64(2 * 10**9)], [1e9, 2e9]),
    ], ids=["fraction", "decimal", "int-past-int64", "float32", "int64", "unsigned-in-list"])
    def test_array_path_reads_real_numbers_as_floats(self, n, expected):
        expected = np.array(expected)
        assert np.array_equal(eval_law(CPT, n, 1e10), eval_law(CPT, expected, 1e10))
        assert np.array_equal(loss_floor(CPT, n), loss_floor(CPT, expected))
        assert np.array_equal(solve_tokens_for_loss(CPT, n, 3.0),
                              solve_tokens_for_loss(CPT, expected, 3.0))
        assert np.array_equal(eval_frontier(REFERENCE_CPT_FRONTIER, n),
                              eval_frontier(REFERENCE_CPT_FRONTIER, expected))

    def test_scalar_overflow_is_inf_as_in_numpy(self):
        # A loss 1e-200 above this law's floor needs D = exp(~4600) tokens.
        law = ChinchillaParams(E=1e-200, A=1e-200, B=1.0, alpha=0.5, beta=0.1)
        assert solve_tokens_for_loss(law, 1e9, 2e-200) == math.inf
        with np.errstate(over="ignore"):
            assert solve_tokens_for_loss(law, np.array(1e9), 2e-200) == math.inf


# Coefficient values every law accepts, and values of every kind a caller or
# a JSON document can give.
GOOD_VALUES = st.floats(0.01, 100.0) | st.integers(1, 100)
ANY_VALUES = st.one_of(
    GOOD_VALUES, st.floats(), st.integers(-2**1100, 2**1100), st.booleans(), st.none(),
    st.text(max_size=3), st.lists(st.integers(), max_size=1),
)
LAW_TYPES = (ChinchillaParams, ExtendedCptParams, FrontierParams)


class TestSerialization:
    @pytest.mark.property
    @given(data=st.data())
    def test_every_accepted_law_round_trips(self, data):
        cls = data.draw(st.sampled_from(LAW_TYPES))
        values = {field.name: data.draw(GOOD_VALUES, label=field.name) for field in fields(cls)}
        replaced = data.draw(st.sampled_from(list(values)))
        values[replaced] = data.draw(ANY_VALUES, label=replaced)
        try:
            law = cls(**values)
        except ValidationError:
            return
        assert all(type(getattr(law, name)) is float for name in values)
        assert law_from_dict(json.loads(json.dumps(law_to_dict(law)))) == law

    @pytest.mark.property
    @given(data=st.data())
    def test_every_fault_in_a_law_document_names_its_kind(self, data):
        doc = law_to_dict(data.draw(st.sampled_from((SCRATCH, CPT, REFERENCE_SCRATCH_FRONTIER))))
        field = data.draw(st.sampled_from([*list(doc)[2:], "extra"]))
        if data.draw(st.booleans(), label="drop"):
            doc.pop(field, None)
        else:
            doc[field] = data.draw(ANY_VALUES, label="value")
        try:
            law_from_dict(doc)
        except ValidationError as exc:
            prefix = f"bad {doc['law_kind']} document: "
            assert str(exc).startswith(prefix) and str(exc).count(prefix) == 1

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

    @pytest.mark.parametrize("kind", [[1], {"a": 1}, 1, None],
                             ids=["list", "object", "int", "null"])
    def test_kind_that_is_not_a_string_rejected(self, kind):
        with pytest.raises(ValidationError, match="unknown law_kind"):
            law_from_dict({"schema_version": 1, "law_kind": kind})

    def test_unknown_and_missing_fields_are_named(self):
        doc = law_to_dict(SCRATCH)
        with pytest.raises(ValidationError, match="bad chinchilla document: unknown field 'extra'"):
            law_from_dict({**doc, "extra": 1})
        del doc["B"]
        with pytest.raises(ValidationError, match="bad chinchilla document: missing field 'B'"):
            law_from_dict(doc)

    def test_field_with_a_default_may_be_omitted(self):
        doc = law_to_dict(REFERENCE_SCRATCH_FRONTIER)
        del doc["offset"]
        assert law_from_dict(doc) == REFERENCE_SCRATCH_FRONTIER

    def test_bad_version_rejected(self):
        doc = law_to_dict(SCRATCH)
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            law_from_dict(doc)

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_version_that_is_not_an_integer_rejected(self, version):
        # True == 1 and 1.0 == 1 in Python; JSON keeps them apart.
        doc = {**law_to_dict(SCRATCH), "schema_version": version}
        with pytest.raises(ValidationError, match=f"unsupported schema_version {version!r}"):
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
