import copy
import dataclasses
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cptlaws import (
    DomainError,
    LossRecord,
    ModelSpec,
    ParseError,
    RunSet,
    TrainingRun,
    ValidationError,
    attribute_flops_by_language,
    generate_runset,
    load_catalog,
    load_runs,
    paper_replica_config,
    parse_runs,
    serialize_runs,
    warmup_filter,
)
from cptlaws.ingest import _FLOAT_INT_LIMIT


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

    # A run's metadata is checked before its record, on the line that
    # declares the run and on a later line that redeclares it.
    @pytest.mark.parametrize("text, error, message", [
        (record_line(replay_ratio="x", tokens=0), ValidationError,
         "line 1: run 'r1': replay_ratio must be a number"),
        (record_line(tokens=5) + "\n" + record_line(replay_ratio=0.5, tokens=0), ValidationError,
         "line 2: run 'r1': from-scratch runs cannot replay"),
    ], ids=["declaring line", "later line"])
    def test_metadata_fault_is_reported_before_a_record_fault(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_runs(text)

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
        # A value of the wrong type is the constructors' ValidationError, on its line.
        text = record_line(tokens=10) + "\n" + record_line(tokens=20, **{field: value})
        with pytest.raises(ValidationError, match=f"^line 2: (run 'r1': )?{field} must be"):
            parse_runs(text)

    @pytest.mark.parametrize("field", ["tokens", "param_count", "loss", "replay_ratio"])
    def test_number_past_float_range_is_parse_error(self, field):
        # A number past float range is the constructors' ValidationError, on its line.
        text = record_line(tokens=10) + "\n" + record_line(**{"tokens": 20, field: 10**400})
        with pytest.raises(ValidationError, match=f"^line 2: (run 'r1': )?{field} is too large$"):
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

    # A run's later lines that repeat its first line's metadata skip the
    # metadata checks; one that differs in value or in type is checked as the
    # first line was.
    @pytest.mark.parametrize("first, second, error, message", [
        ({"param_count": 1}, {"param_count": True}, ValidationError,
         "line 2: run 'r1': param_count must be a positive integer, got True"),
        ({"replay_ratio": 0}, {"replay_ratio": False}, ValidationError,
         "line 2: run 'r1': replay_ratio must be a number, got bool"),
        ({"run_id": "r1"}, {"run_id": ["r1"]}, ParseError,
         "line 2: field 'run_id' must be a nonempty string"),
        ({"run_id": "r1"}, {"run_id": {"r1": 1}}, ParseError,
         "line 2: field 'run_id' must be a nonempty string"),
        # The run's rule rejects a NaN ratio on the line that declares it.
        ({"replay_ratio": math.nan}, {"replay_ratio": math.nan}, ValidationError,
         "line 1: run 'r1': replay_ratio must lie in [0, 1], got nan"),
    ], ids=["true-after-1", "false-after-0", "list-run-id", "object-run-id", "nan-twice"])
    def test_later_line_metadata_gets_the_first_line_checks(self, first, second, error, message):
        text = record_line(tokens=10, **first) + "\n" + record_line(tokens=20, **second)
        with pytest.raises(error) as info:
            parse_runs(text)
        assert str(info.value) == message

    def test_float_param_count_after_the_same_integer_is_accepted(self):
        ints = record_line(param_count=10**9, tokens=10) + "\n" + record_line(
            param_count=10**9, tokens=20)
        floats = ints.replace('"param_count": 1000000000, "tokens": 20',
                              '"param_count": 1e9, "tokens": 20')
        assert '"param_count": 1e9' in floats
        assert parse_runs(floats) == parse_runs(ints)
        assert type(parse_runs(floats).get("r1").param_count) is int

    def test_error_after_many_valid_lines_names_its_own_line(self):
        lines = [record_line(tokens=tokens) for tokens in range(1, 1001)] + [","]
        with pytest.raises(ParseError) as info:
            parse_runs("\n".join(lines))
        assert str(info.value) == "line 1001: invalid JSON (Expecting value)"

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


def reference_serialize(runset):
    """The run log as one ``json.dumps`` per record: serialize_runs must give the same bytes."""
    lines = []
    for run in runset:
        meta = {"run_id": run.id, "strategy": run.strategy, "language": run.language,
                "replay_ratio": run.replay_ratio, "param_count": run.param_count}
        for rec in run.records:
            doc = {**meta, "tokens": rec.tokens, "loss": rec.loss}
            if rec.val_language is not None:
                doc["val_language"] = rec.val_language
            lines.append(json.dumps(doc) + "\n")
    return "".join(lines)


POSITIVE_FLOATS = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
LOSSES = POSITIVE_FLOATS | POSITIVE_FLOATS.map(np.float64) | st.integers(1, 10**6)
# Counts reach past 2**63 and up to the largest a run log holds, and names past ASCII.
COUNTS = (st.integers(1, 2**64) | st.integers(2**63 - 2, 2**63 + 2)
          | st.integers(_FLOAT_INT_LIMIT - 3, _FLOAT_INT_LIMIT - 1))
NAMES = st.text(max_size=4) | st.sampled_from(["zh", "en", "日本語", "ñ\u2028"])


@st.composite
def training_runs(draw, run_id):
    strategy = draw(st.sampled_from(["scratch", "cpt"]))
    replay_ratio = 0.0 if strategy == "scratch" else draw(st.floats(0.0, 1.0))
    # (tokens, val_language) pairs are unique, so each series strictly increases.
    points = sorted(draw(st.lists(st.tuples(COUNTS, st.none() | NAMES),
                                  min_size=1, max_size=6, unique=True)), key=lambda p: p[0])
    records = tuple(LossRecord(tokens, draw(LOSSES), lang) for tokens, lang in points)
    return TrainingRun(run_id, strategy, draw(NAMES), replay_ratio, draw(COUNTS), records)


RUNSETS = st.lists(st.text(min_size=1, max_size=4) | NAMES.filter(bool),
                   max_size=4, unique=True).flatmap(
    lambda ids: st.tuples(*(training_runs(run_id) for run_id in ids))).map(RunSet)


@pytest.mark.property
@settings(max_examples=300)
@given(RUNSETS)
def test_serialize_runs_is_one_dumps_per_record(runset):
    text = serialize_runs(runset)
    assert text == reference_serialize(runset)
    assert parse_runs(text) == runset


def replay_log():
    """Five CPT runs at replay ratios 0 to 0.5, each record validated on zh and on en."""
    return RunSet(tuple(
        TrainingRun(f"replay-{ratio}", "cpt", "zh", ratio, 10**9, tuple(
            LossRecord(tokens, 3.0 - 0.01 * i + 0.1 * (lang == "en"), lang)
            for i, tokens in enumerate(range(10**8, 10**9, 10**8)) for lang in ("zh", "en")))
        for ratio in (0.0, 0.05, 0.1, 0.25, 0.5)))


@pytest.mark.parametrize("make", [
    lambda: generate_runset(paper_replica_config("scratch")),
    lambda: generate_runset(paper_replica_config("cpt")),
    lambda: generate_runset(dataclasses.replace(paper_replica_config("cpt"), noise_sigma=0.03,
                                                seed=3)),
    replay_log,
], ids=["paper-scratch", "paper-cpt", "noisy-cpt", "tagged-replay"])
def test_serialize_runs_is_one_dumps_per_record_on_whole_logs(make):
    runset = make()
    assert serialize_runs(runset) == reference_serialize(runset)


def test_serialize_runs_peaks_under_three_times_its_text():
    # Every line, their join and the join plus a newline held three copies at once.
    runset = generate_runset(dataclasses.replace(paper_replica_config("cpt"), records_per_run=200))
    length = len(serialize_runs(runset))
    tracemalloc.start()
    try:
        serialize_runs(runset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * length


@pytest.mark.property
def test_serialize_runs_edge_cases():
    one = TrainingRun("r", "scratch", "zh", 0.0, 10, (LossRecord(2**64 + 1, np.float64(0.1)),))
    mixed = TrainingRun("运行", "cpt", "日本語", 0.5, 2**70, (
        LossRecord(1, 3), LossRecord(1, 2.5, "zh"), LossRecord(2, 2.0, "日本語"),
        LossRecord(3, 1e-300, "zh"), LossRecord(4, 1e300)))
    for runset in (RunSet(()), RunSet((one,)), RunSet((one, mixed))):
        assert serialize_runs(runset) == reference_serialize(runset)
    assert serialize_runs(RunSet(())) == ""


@pytest.mark.property
def test_loss_record_is_a_slotted_value():
    record = LossRecord(2**64 + 1, 2.5, "zh")
    assert not hasattr(record, "__dict__")
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record), dataclasses.replace(record)]
    for other in copies:
        assert other == record and hash(other) == hash(record)
        assert (other.tokens, other.loss, other.val_language) == (2**64 + 1, 2.5, "zh")
    assert hash(record) == hash((2**64 + 1, 2.5, "zh"))
    assert record != LossRecord(2**64 + 1, 2.5) and record != (2**64 + 1, 2.5, "zh")
    assert dataclasses.replace(record, loss=3) == LossRecord(2**64 + 1, 3.0, "zh")
    assert dataclasses.asdict(record) == {"tokens": 2**64 + 1, "loss": 2.5, "val_language": "zh"}
    with pytest.raises(ValidationError, match="loss must be finite"):
        dataclasses.replace(record, loss=math.inf)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.loss = 1.0


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


# Each breaks the rule of at least one field, and some are valid in others.
BAD_VALUES = [True, False, "x", "", None, [], ["zh"], 0, -1, -2.5, math.nan, math.inf, -math.inf,
              10**400, -10**400]


@pytest.mark.property
@settings(max_examples=300)
@given(RUNSETS, st.data())
def test_every_runset_the_constructors_accept_round_trips(runset, data):
    """The drawn RunSet round-trips, and so does the one with a bad value in one of its fields
    whenever the constructors accept that."""
    assert parse_runs(serialize_runs(runset)) == runset
    if not runset:
        return
    i = data.draw(st.integers(0, len(runset) - 1))
    run = runset.runs[i]
    field = data.draw(st.sampled_from(["id", "strategy", "language", "replay_ratio",
                                       "param_count", "tokens", "loss", "val_language"]))
    value = data.draw(st.sampled_from(BAD_VALUES))
    try:
        if field in ("tokens", "loss", "val_language"):
            records = list(run.records)
            j = data.draw(st.integers(0, len(records) - 1))
            records[j] = dataclasses.replace(records[j], **{field: value})
            run = dataclasses.replace(run, records=records)
        else:
            run = dataclasses.replace(run, **{field: value})
        changed = RunSet(runset.runs[:i] + (run,) + runset.runs[i + 1:])
    except ValidationError:
        return
    assert parse_runs(serialize_runs(changed)) == changed


@pytest.mark.property
def test_constructors_and_parser_reject_the_same_values():
    """A one-line log takes each field's value as the constructors do: the same RunSet, or
    their ValidationError on line 1.  A bad run_id is a ParseError: it is the grouping key."""
    base = json.loads(record_line(strategy="cpt", replay_ratio=0.25, tokens=10))
    for field in [*base, "val_language"]:
        for value in BAD_VALUES:
            doc = {**base, field: value}
            try:
                record = LossRecord(doc["tokens"], doc["loss"], doc.get("val_language"))
                built = RunSet((TrainingRun(doc["run_id"], doc["strategy"], doc["language"],
                                            doc["replay_ratio"], doc["param_count"], (record,)),))
            except ValidationError as exc:
                with pytest.raises(ParseError if field == "run_id" else ValidationError) as info:
                    parse_runs(json.dumps(doc))
                if field != "run_id":
                    assert str(info.value) == f"line 1: {exc}"
            else:
                assert parse_runs(json.dumps(doc)) == built


class TestRunInvariants:
    def test_scratch_run_cannot_replay(self):
        with pytest.raises(ValidationError, match="replay"):
            TrainingRun(
                id="x", strategy="scratch", language="zh", replay_ratio=0.2,
                param_count=10, records=(LossRecord(1, 1.0),),
            )

    # Also what keeps warmup_filter from returning a run with no records.
    def test_records_must_be_nonempty(self):
        with pytest.raises(ValidationError, match="^run 'x': records must be nonempty$"):
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

    def test_int_loss_becomes_a_float(self):
        record = LossRecord(10, 3)
        assert record.loss == 3.0 and type(record.loss) is float

    def test_int_replay_ratio_becomes_a_float(self):
        run = TrainingRun(id="x", strategy="cpt", language="zh", replay_ratio=1,
                          param_count=10, records=(LossRecord(1, 1.0),))
        assert run.replay_ratio == 1.0 and type(run.replay_ratio) is float

    # Values a run log cannot hold: parse_runs rejects each of them on a log line.
    @pytest.mark.parametrize("field, value, message", [
        ("tokens", True, "tokens must be a positive integer, got True"),
        ("tokens", 10**400, "tokens is too large"),
        ("loss", True, "loss must be a number, got bool"),
        ("loss", "3.5", "loss must be a number, got str"),
        ("loss", 10**400, "loss is too large"),
        ("replay_ratio", True, "run 'x': replay_ratio must be a number, got bool"),
        ("replay_ratio", "0.5", "run 'x': replay_ratio must be a number, got str"),
        ("param_count", True, "run 'x': param_count must be a positive integer, got True"),
        ("param_count", 10**400, "run 'x': param_count is too large"),
        # repr of an int past 4300 digits raises, so the message leaves it out
        ("tokens", -10**5000, "tokens must be positive"),
        ("param_count", -10**5000, "run 'x': param_count must be positive"),
        ("val_language", 5, "val_language must be a string or None, got int"),
        ("id", 5, "run id must be a nonempty string"),
        ("language", 5, "run 'x': language must be a string, got int"),
    ], ids=["tokens-bool", "tokens-huge", "loss-bool", "loss-str", "loss-huge", "replay-bool",
            "replay-str", "param_count-bool", "param_count-huge", "tokens-huge-negative",
            "param_count-huge-negative", "val_language-int", "id-int", "language-int"])
    def test_value_a_run_log_cannot_hold_is_rejected(self, field, value, message):
        record = {"tokens": 10, "loss": 2.0, "val_language": None}
        run = {"id": "x", "strategy": "cpt", "language": "zh", "replay_ratio": 0.5,
               "param_count": 10}
        with pytest.raises(ValidationError, match=re.escape(message)):
            if field in record:
                LossRecord(**{**record, field: value})
            else:
                TrainingRun(**{**run, field: value}, records=(LossRecord(**record),))

    def test_record_or_run_of_the_wrong_type_is_rejected(self):
        run = TrainingRun(id="x", strategy="scratch", language="zh", replay_ratio=0.0,
                          param_count=10, records=(LossRecord(1, 1.0),))
        with pytest.raises(ValidationError, match="run 'x': int is not a LossRecord"):
            dataclasses.replace(run, records=(LossRecord(1, 1.0), 2))
        with pytest.raises(ValidationError, match=re.escape("runs[1] is not a TrainingRun")):
            RunSet(runs=(run, 1))

    @pytest.mark.parametrize("make, message", [
        (lambda run: dataclasses.replace(run, records=5),
         "run 'x': records must be an iterable of LossRecord, got int"),
        (lambda run: dataclasses.replace(run, records=None),
         "run 'x': records must be an iterable of LossRecord, got NoneType"),
        (lambda run: RunSet(runs=5), "runs must be an iterable of TrainingRun, got int"),
    ], ids=["records-int", "records-none", "runs-int"])
    def test_records_or_runs_that_are_not_iterable_are_rejected(self, make, message):
        run = TrainingRun(id="x", strategy="scratch", language="zh", replay_ratio=0.0,
                          param_count=10, records=(LossRecord(1, 1.0),))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(run)

    def test_records_out_of_token_order_across_series_rejected(self):
        # Each series is increasing on its own; the second record goes back.
        records = (LossRecord(20, 2.0, "zh"), LossRecord(10, 2.5, "en"))
        with pytest.raises(ValidationError, match="records must be sorted by tokens"):
            TrainingRun(id="x", strategy="cpt", language="zh", replay_ratio=0.1,
                        param_count=10, records=records)

    def test_duplicate_run_ids_rejected(self):
        run = TrainingRun(
            id="x", strategy="scratch", language="zh", replay_ratio=0.0,
            param_count=10, records=(LossRecord(1, 1.0),),
        )
        with pytest.raises(ValidationError, match="duplicate"):
            RunSet(runs=(run, run))


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

    @pytest.mark.parametrize("total", [math.nan, math.inf, -1.0])
    def test_total_must_be_nonnegative_and_finite(self, total):
        with pytest.raises(DomainError, match="^total FLOPs must be nonnegative, got "):
            attribute_flops_by_language(total, 0.1)

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
        [spec] = [row for row in load_catalog() if row.param_size_millions == target]
        assert (spec.hidden, spec.intermediate, spec.heads, spec.layers) == expected

    @pytest.mark.parametrize("value, message", [
        (True, "param_size_millions must be an integer, got True"),
        (2.0, "param_size_millions must be an integer, got 2.0"),
        (0, "param_size_millions must be at least 1, got 0"),
    ], ids=["bool", "float", "zero"])
    def test_spec_counts_are_positive_integers(self, value, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ModelSpec(value, 512, 3072, 8, 8)


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

    # For 0 < fraction < 1, fraction * max rounds to at most max, so the largest
    # record always passes, even where the count is not a float or past 2**53.
    @pytest.mark.parametrize("largest", [2**53 + 1, 2**60 - 1, 2**1000 + 1],
                             ids=["2**53+1", "2**60-1", "2**1000+1"])
    def test_largest_fraction_keeps_largest_record(self, largest):
        run = warmup_filter(self._run([1, largest - 1, largest]), math.nextafter(1.0, 0.0))
        assert run.records[-1].tokens == largest
        assert all(rec.tokens >= largest - 1 for rec in run.records)

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
