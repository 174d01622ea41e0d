import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cptlaws import (
    DomainError,
    LossRecord,
    ParseError,
    RunSet,
    TrainingRun,
    ValidationError,
    attribute_flops_by_language,
    catalog_lookup,
    compute_flops,
    load_catalog,
    load_runs,
    parse_runs,
    serialize_runs,
    warmup_filter,
)


def record_line(run_id="r1", strategy="scratch", language="zh", replay_ratio=0.0,
                param_count=10**9, tokens=1, loss=3.0, **extra):
    doc = {
        "run_id": run_id,
        "strategy": strategy,
        "language": language,
        "replay_ratio": replay_ratio,
        "param_count": param_count,
        "tokens": tokens,
        "loss": loss,
    }
    doc.update(extra)
    return json.dumps(doc)


class TestParseRuns:
    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        text = "\n".join([record_line(tokens=100, loss=3.0), record_line(tokens=200, loss=2.5)])
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_runs(marked) == load_runs(plain) == parse_runs(text)

    def test_two_lines_one_run(self):
        text = "\n".join([record_line(tokens=100, loss=3.0), record_line(tokens=200, loss=2.5)])
        rs = parse_runs(text)
        assert len(rs) == 1
        assert len(rs.get("r1").records) == 2

    def test_negative_loss_rejected(self):
        with pytest.raises(ValidationError):
            parse_runs(record_line(loss=-1.0))

    def test_forty_runs_spanning_size_range(self):
        import numpy as np

        lines = []
        for i, n in enumerate(np.geomspace(5e7, 5.5e9, 40)):
            for tokens in (int(n), int(20 * n)):
                lines.append(record_line(run_id=f"run-{i}", param_count=int(n), tokens=tokens))
        rs = parse_runs("\n".join(lines))
        assert len(rs) == 40

    def test_malformed_line_reports_line_number(self):
        text = record_line(tokens=10) + "\nnot json\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_runs(text)

    # The decoder reads one JSON value from the start of the line; whatever
    # follows it, or a value that is not an object, is an error on that line.
    @pytest.mark.parametrize("line, message", [
        (record_line(tokens=20) + " x", r"invalid JSON \(Extra data\)"),
        (record_line(tokens=20) + record_line(tokens=30), r"invalid JSON \(Extra data\)"),
        ("[" + record_line(tokens=20) + "]", "record must be a JSON object"),
    ], ids=["trailing data", "two objects", "array"])
    def test_line_that_is_not_one_object_is_parse_error(self, line, message):
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            parse_runs(record_line(tokens=10) + "\n" + line + "\n")

    def test_whitespace_only_line_is_skipped(self):
        text = record_line(tokens=10) + "\n \t \n" + record_line(tokens=20) + "\n"
        assert [rec.tokens for rec in parse_runs(text).get("r1").records] == [10, 20]

    def test_interleaved_runs_keep_first_seen_order(self):
        lines = [record_line(run_id=run_id, tokens=tokens)
                 for tokens in (10, 20, 30) for run_id in ("b", "c", "a")]
        assert parse_runs("\n".join(lines)).ids == ("b", "c", "a")

    def test_missing_field_is_parse_error(self):
        doc = json.loads(record_line())
        del doc["loss"]
        with pytest.raises(ParseError, match="loss"):
            parse_runs(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replay_ratio", None),
            ("replay_ratio", "0.1"),
            ("replay_ratio", True),
            ("strategy", 1),
            ("language", ["en"]),
            ("val_language", 5),
            ("loss", True),
            ("loss", "2.5"),
        ],
    )
    def test_bad_field_type_is_parse_error(self, field, value):
        text = record_line(tokens=10) + "\n" + record_line(tokens=20, **{field: value})
        with pytest.raises(ParseError, match=f"line 2: field '{field}'"):
            parse_runs(text)

    @pytest.mark.parametrize("field", ["tokens", "param_count", "loss", "replay_ratio"])
    def test_number_past_float_range_is_parse_error(self, field):
        text = record_line(tokens=10) + "\n" + record_line(**{"tokens": 20, field: 10**400})
        with pytest.raises(ParseError, match=f"line 2: field '{field}' is too large"):
            parse_runs(text)

    def test_integer_past_digit_limit_is_parse_error(self):
        text = record_line(tokens=10) + "\n" + record_line(tokens=20).replace(
            '"tokens": 20', '"tokens": ' + "2" * 5000
        )
        with pytest.raises(ParseError, match="line 2: invalid JSON"):
            parse_runs(text)

    def test_conflicting_run_metadata_rejected(self):
        text = "\n".join(
            [record_line(param_count=10**9, tokens=1), record_line(param_count=10**8, tokens=2)]
        )
        with pytest.raises(ValidationError, match="conflicting"):
            parse_runs(text)

    def test_duplicate_tokens_in_run_rejected(self):
        text = "\n".join([record_line(tokens=100), record_line(tokens=100, loss=2.0)])
        with pytest.raises(ValidationError, match="strictly increase"):
            parse_runs(text)

    def test_records_sorted_by_tokens(self):
        text = "\n".join([record_line(tokens=200, loss=2.5), record_line(tokens=100, loss=3.0)])
        run = parse_runs(text).get("r1")
        assert [rec.tokens for rec in run.records] == [100, 200]

    def test_same_tokens_different_val_language_allowed(self):
        text = "\n".join(
            [
                record_line(strategy="cpt", replay_ratio=0.1, tokens=100, loss=2.0, val_language="zh"),
                record_line(strategy="cpt", replay_ratio=0.1, tokens=100, loss=2.4, val_language="en"),
            ]
        )
        assert len(parse_runs(text).get("r1").records) == 2

    def test_empty_input_gives_empty_runset(self):
        assert len(parse_runs("")) == 0

    @pytest.mark.property
    def test_round_trip_identity(self):
        runs = []
        runs.append(
            TrainingRun(
                id="a",
                strategy="scratch",
                language="zh",
                replay_ratio=0.0,
                param_count=300,
                records=(LossRecord(5, 3.5), LossRecord(17, 2.25)),
            )
        )
        runs.append(
            TrainingRun(
                id="b",
                strategy="cpt",
                language="zh",
                replay_ratio=0.25,
                param_count=7_000_000,
                records=(
                    LossRecord(10, 3.0, val_language="zh"),
                    LossRecord(10, 2.1, val_language="en"),
                    LossRecord(40, 2.5, val_language="zh"),
                ),
            )
        )
        rs = RunSet(runs=tuple(runs))
        assert parse_runs(serialize_runs(rs)) == rs


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
JSON_VALUES = (
    JSON_SCALARS
    | st.lists(JSON_SCALARS, max_size=2)
    | st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2)
)

ACCEPTED_TYPES = {
    "run_id": str, "strategy": str, "language": str, "val_language": (str, type(None)),
    "replay_ratio": (int, float), "param_count": (int, float), "tokens": (int, float),
    "loss": (int, float),
}


@pytest.mark.property
@settings(max_examples=300)
@given(
    field=st.sampled_from(sorted(ACCEPTED_TYPES)),
    value=JSON_VALUES,
)
def test_any_json_value_in_any_field(field, value):
    """Each field takes any JSON value: a typed error, or the documented types."""
    # a cpt run, so that a nonzero replay ratio is valid
    text = record_line(strategy="cpt", tokens=10) + "\n" + record_line(
        **{"strategy": "cpt", "tokens": 20, field: value}
    )
    try:
        runs = parse_runs(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(value, ACCEPTED_TYPES[field]) and not isinstance(value, bool)
    for run in runs:
        assert isinstance(run.id, str) and run.id
        assert run.strategy in ("scratch", "cpt") and isinstance(run.language, str)
        assert type(run.replay_ratio) is float and 0.0 <= run.replay_ratio <= 1.0
        assert type(run.param_count) is int and run.param_count > 0
        for rec in run.records:
            assert type(rec.tokens) is int and rec.tokens > 0
            assert type(rec.loss) is float and math.isfinite(rec.loss) and rec.loss > 0
            assert rec.val_language is None or isinstance(rec.val_language, str)


class TestRunInvariants:
    def test_scratch_run_cannot_replay(self):
        with pytest.raises(ValidationError, match="replay"):
            TrainingRun(
                id="x", strategy="scratch", language="zh", replay_ratio=0.2,
                param_count=10, records=(LossRecord(1, 1.0),),
            )

    def test_records_must_be_nonempty(self):
        with pytest.raises(ValidationError, match="nonempty"):
            TrainingRun(
                id="x", strategy="scratch", language="zh", replay_ratio=0.0,
                param_count=10, records=(),
            )

    def test_replay_ratio_range(self):
        with pytest.raises(ValidationError):
            TrainingRun(
                id="x", strategy="cpt", language="zh", replay_ratio=1.5,
                param_count=10, records=(LossRecord(1, 1.0),),
            )

    def test_duplicate_run_ids_rejected(self):
        run = TrainingRun(
            id="x", strategy="scratch", language="zh", replay_ratio=0.0,
            param_count=10, records=(LossRecord(1, 1.0),),
        )
        with pytest.raises(ValidationError, match="duplicate"):
            RunSet(runs=(run, run))


class TestComputeFlops:
    def test_basic(self):
        assert compute_flops(1e9, 2e10) == pytest.approx(1.2e20)
        assert compute_flops(1, 1) == 6

    def test_largest_catalog_budget(self):
        assert compute_flops(5.5e9, 1.1e11) == pytest.approx(3.63e21)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            compute_flops(0, 1)
        with pytest.raises(DomainError):
            compute_flops(1e9, -2.0)

    @pytest.mark.property
    @given(
        n1=st.floats(1, 1e12), n2=st.floats(1, 1e12), d=st.floats(1, 1e13)
    )
    def test_monotone_in_params(self, n1, n2, d):
        lo, hi = sorted((n1, n2))
        assert compute_flops(lo, d) <= compute_flops(hi, d)
        assert compute_flops(d, lo) <= compute_flops(d, hi)


class TestAttributeFlops:
    def test_proportional_split(self):
        assert attribute_flops_by_language(1e20, 0.2) == (2e19, 8e19)

    def test_no_replay(self):
        assert attribute_flops_by_language(1e20, 0.0) == (0.0, 1e20)

    def test_heavy_replay(self):
        source, target = attribute_flops_by_language(1e20, 0.8)
        assert source == pytest.approx(8e19)
        assert target == pytest.approx(2e19)

    def test_ratio_out_of_range(self):
        with pytest.raises(DomainError):
            attribute_flops_by_language(1e20, 1.2)

    @pytest.mark.property
    @given(
        total=st.floats(0, 1e24, allow_nan=False),
        ratio=st.floats(0, 1, allow_nan=False),
    )
    def test_shares_sum_exactly(self, total, ratio):
        source, target = attribute_flops_by_language(total, ratio)
        assert source + target == total


class TestCatalog:
    def test_has_exactly_42_rows(self):
        assert len(load_catalog()) == 42

    @pytest.mark.parametrize(
        "target,expected",
        [
            (1393, (1792, 9728, 14, 26)),
            (49, (512, 3072, 8, 8)),
            (5534, (3072, 16896, 24, 36)),
        ],
    )
    def test_exact_rows(self, target, expected):
        spec = catalog_lookup(target)
        assert (spec.hidden, spec.intermediate, spec.heads, spec.layers) == expected

    def test_nearest_row(self):
        assert catalog_lookup(1000).param_size_millions == 992
        assert catalog_lookup(50_000).param_size_millions == 5534

    def test_tie_prefers_smaller(self):
        # 57.5 is equidistant from the 49 and 66 rows
        assert catalog_lookup(57.5).param_size_millions == 49

    def test_rejects_nonpositive_target(self):
        with pytest.raises(DomainError):
            catalog_lookup(0)

    @pytest.mark.property
    def test_lookup_returns_catalog_rows_verbatim(self):
        rows = set(load_catalog())
        for target in (1, 49, 120, 555, 1800, 4000, 10**6):
            assert catalog_lookup(target) in rows


class TestWarmupFilter:
    def _run(self, token_values):
        return TrainingRun(
            id="w", strategy="scratch", language="zh", replay_ratio=0.0,
            param_count=10,
            records=tuple(LossRecord(t, 5.0 / t) for t in token_values),
        )

    def test_threshold(self):
        run = warmup_filter(self._run(range(1, 101)), 0.05)
        assert run.records[0].tokens == 5
        assert run.records[-1].tokens == 100

    def test_zero_fraction_is_identity(self):
        run = self._run([1, 2, 3])
        assert warmup_filter(run, 0.0) is run

    def test_aggressive_filter_keeps_final_record(self):
        run = warmup_filter(self._run([1, 100]), 0.99)
        assert [rec.tokens for rec in run.records] == [100]

    def test_fraction_domain(self):
        with pytest.raises(DomainError):
            warmup_filter(self._run([1, 2]), 1.0)
        with pytest.raises(DomainError):
            warmup_filter(self._run([1, 2]), -0.1)


@pytest.mark.property
@given(st.floats(0.01, 0.99))
def test_warmup_filter_never_empties_run(fraction):
    run = TrainingRun(
        id="w", strategy="scratch", language="zh", replay_ratio=0.0,
        param_count=10,
        records=tuple(LossRecord(t, 1.0 + 1.0 / t) for t in (1, 3, 10, 31, 100)),
    )
    filtered = warmup_filter(run, fraction)
    assert len(filtered.records) >= 1
    threshold = fraction * 100
    assert all(rec.tokens >= threshold for rec in filtered.records)
    assert math.isclose(filtered.records[-1].tokens, 100)
