"""Training-run log ingestion, validation, and compute accounting.

The on-disk run-log format is line-delimited JSON with one loss record per
line.  Required fields: ``run_id``, ``strategy`` ("scratch" | "cpt"),
``language``, ``replay_ratio``, ``param_count``, ``tokens``, ``loss``.
Records measuring a validation set in another language may add an optional
``val_language`` tag (used by the replay/forgetting analysis).

Compute accounting uses the C = 6 N D convention throughout: N in raw
parameters, D in raw tokens, C in FLOPs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from operator import itemgetter
from typing import IO

from .errors import CptLawsError, DomainError, ParseError, ValidationError
from .laws import (_BELOW_ONE, _FLOAT_INT_LIMIT, _FRACTION, _NONNEGATIVE, STRATEGIES, _as_float,
                   _as_tuple, _checked, _hold, _positive_count)

_REQUIRED_FIELDS = (
    "run_id",
    "strategy",
    "language",
    "replay_ratio",
    "param_count",
    "tokens",
    "loss",
)
_required = itemgetter(*_REQUIRED_FIELDS)

# One decoder's scanner for every line: json.loads would wrap each decode in
# two whitespace scans, which a stripped line does not need, and raw_decode in
# a call that only turns StopIteration into "Expecting value".
_SCAN = json.JSONDecoder().scan_once


@dataclass(frozen=True, slots=True)
class LossRecord:
    """One telemetry point: cumulative tokens seen and validation loss in nats.

    Slotted: a large log holds one record per line, and without an instance
    ``__dict__`` a parsed log takes about a quarter less memory.
    """

    tokens: int
    loss: float
    val_language: str | None = None

    def __post_init__(self):
        # also rejects bool, and a count that float() cannot convert
        if type(self.tokens) is not int or not 0 < self.tokens < _FLOAT_INT_LIMIT:
            raise _count_error(self.tokens, "tokens")
        if type(self.loss) is not float:
            object.__setattr__(self, "loss", _as_float(self.loss, "loss"))
        if not 0 < self.loss < math.inf:  # also rejects NaN
            raise ValidationError(f"loss must be finite and positive, got {self.loss!r}")
        if self.val_language is not None and not isinstance(self.val_language, str):
            raise ValidationError(f"val_language must be a string or None, "
                                  f"got {type(self.val_language).__name__}")


def _count_error(value, name: str) -> ValidationError:
    """A bad count's error; an int past float range is not shown, since its repr may raise."""
    if type(value) is int and abs(value) >= _FLOAT_INT_LIMIT:
        return ValidationError(f"{name} is too large" if value > 0 else f"{name} must be positive")
    return ValidationError(f"{name} must be a positive integer, got {value!r}")


def _run_metadata(run_id, strategy, language, replay_ratio, param_count) -> tuple:
    """The one rule for a run's fields, which ``TrainingRun`` and ``parse_runs`` both call.

    Returns ``(strategy, language, replay_ratio, param_count)`` with the ratio a float.
    """
    if not isinstance(run_id, str) or not run_id:
        raise ValidationError("run id must be a nonempty string")
    where = f"run {run_id!r}"
    if not isinstance(strategy, str) or strategy not in STRATEGIES:
        shown = repr(strategy) if isinstance(strategy, str) else type(strategy).__name__
        raise ValidationError(f"{where}: strategy must be one of {STRATEGIES}, got {shown}")
    if not isinstance(language, str):
        raise ValidationError(f"{where}: language must be a string, got {type(language).__name__}")
    if type(param_count) is not int or not 0 < param_count < _FLOAT_INT_LIMIT:  # also rejects bool
        raise _count_error(param_count, f"{where}: param_count")
    replay_ratio = _checked(replay_ratio, f"{where}: replay_ratio", _FRACTION)
    if strategy == "scratch" and replay_ratio != 0.0:
        raise ValidationError(f"{where}: from-scratch runs cannot replay source-language data")
    return strategy, language, replay_ratio, param_count


@dataclass(frozen=True)
class TrainingRun:
    """One model's loss trajectory under a single training strategy.

    Records are kept sorted by token count.  Token counts must increase
    strictly within each validation-language series (records tagged with
    different ``val_language`` values may share a token count, since one
    checkpoint can be evaluated on several validation sets).
    """

    id: str
    strategy: str
    language: str
    replay_ratio: float
    param_count: int
    records: tuple[LossRecord, ...]

    def __post_init__(self):
        _hold(self, replay_ratio=lambda ratio, _: _run_metadata(
            self.id, self.strategy, self.language, ratio, self.param_count)[2],
              records=lambda values, name: _as_tuple(values, f"run {self.id!r}: {name}", None,
                                                     kind="an iterable of LossRecord"))
        if not self.records:
            raise ValidationError(f"run {self.id!r}: records must be nonempty")
        last_any = 0
        last_by_series: dict[str | None, int] = {}
        for rec in self.records:
            if not isinstance(rec, LossRecord):
                raise ValidationError(f"run {self.id!r}: {type(rec).__name__} is not a LossRecord")
            if rec.tokens < last_any:
                raise ValidationError(f"run {self.id!r}: records must be sorted by tokens")
            prev = last_by_series.get(rec.val_language)
            if prev is not None and rec.tokens <= prev:
                raise ValidationError(
                    f"run {self.id!r}: tokens must strictly increase within a "
                    f"validation series (got {rec.tokens} after {prev})"
                )
            last_by_series[rec.val_language] = rec.tokens
            last_any = rec.tokens

    @property
    def max_tokens(self) -> int:
        return self.records[-1].tokens

    def main_series(self) -> tuple[LossRecord, ...]:
        """Records measuring the run's own training language."""
        return tuple(
            r for r in self.records if r.val_language is None or r.val_language == self.language
        )


@dataclass(frozen=True)
class RunSet:
    """An immutable collection of training runs with unique ids."""

    runs: tuple[TrainingRun, ...]

    def __post_init__(self):
        _hold(self, runs=partial(_as_tuple, convert=None, kind="an iterable of TrainingRun"))
        seen: set[str] = set()
        for i, run in enumerate(self.runs):
            if not isinstance(run, TrainingRun):
                raise ValidationError(f"runs[{i}] is not a TrainingRun")
            if run.id in seen:
                raise ValidationError(f"duplicate run id {run.id!r}")
            seen.add(run.id)

    def __iter__(self):
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(run.id for run in self.runs)

    def get(self, run_id: str) -> TrainingRun:
        for run in self.runs:
            if run.id == run_id:
                return run
        raise KeyError(run_id)


@dataclass(frozen=True)
class ModelSpec:
    """Structural parameters for one catalog model size."""

    param_size_millions: int
    hidden: int
    intermediate: int
    heads: int
    layers: int

    def __post_init__(self):
        _hold(self, **dict.fromkeys(vars(self), _positive_count))  # every field


def parse_runs(source: Iterable[str] | str | IO[str]) -> RunSet:
    """Parse a line-delimited record stream into a validated :class:`RunSet`.

    A run's records may come in any order and are sorted by token count; runs
    keep the order of their first line, and a run's lines must agree on its fields.
    A line that is not a record document is a ParseError, and a value that breaks
    a rule is the constructors' ValidationError; both name the line.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source

    # run_id -> (its declaring line's raw metadata and the types of its two
    # numbers, the checked and coerced metadata, the records).  A line that
    # repeats the raw metadata passed the same checks and coerces to the same
    # values.  A type is compared too, since True == 1 and 1e9 == 10**9.
    runs: dict[str, tuple[tuple, tuple, list[LossRecord]]] = {}
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            # A stripped line has no whitespace at either end, so the document
            # must end where the line does.
            try:
                doc, end = _SCAN(line, 0)
            except StopIteration:  # no JSON value starts the line
                raise ParseError("invalid JSON (Expecting value)") from None
            except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
                raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            if end != len(line):
                raise ParseError("invalid JSON (Extra data)")
            if not isinstance(doc, dict):
                raise ParseError("record must be a JSON object")
            try:
                run_id, strategy, language, replay_ratio, param_count, tokens, loss = _required(doc)
            except KeyError:
                missing = [f for f in _REQUIRED_FIELDS if f not in doc]
                raise ParseError(f"missing fields: {', '.join(missing)}") from None

            if not isinstance(run_id, str) or not run_id:  # the grouping key: a list is unhashable
                raise ParseError("field 'run_id' must be a nonempty string")
            raw_meta = (strategy, language, replay_ratio, param_count,
                        type(replay_ratio), type(param_count))
            run = runs.get(run_id)
            # An integral float is the count it writes: "tokens": 1e9 means 10**9.
            if type(tokens) is float and tokens.is_integer():
                tokens = int(tokens)
            if run is None or run[0] != raw_meta:
                if type(param_count) is float and param_count.is_integer():
                    param_count = int(param_count)
                meta = _run_metadata(run_id, strategy, language, replay_ratio, param_count)
                if run is None:
                    run = runs[run_id] = (raw_meta, meta, [])
                elif run[1] != meta:
                    raise ValidationError(f"run {run_id!r} redeclared with conflicting metadata")
            # positional: keywords cost about 5% of the parse
            run[2].append(LossRecord(tokens, loss, doc.get("val_language")))
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"line {line_number}: {exc}") from exc

    return RunSet(runs=tuple(
        TrainingRun(run_id, *meta, records=tuple(sorted(records, key=lambda r: r.tokens)))
        for run_id, (_, meta, records) in runs.items()
    ))


def serialize_runs(runset: RunSet) -> str:
    """Serialize a RunSet to the line-delimited format consumed by parse_runs.

    Each line is ``json.dumps`` of the run's metadata followed by ``tokens``,
    ``loss`` and, when present, ``val_language``.  A run's metadata and tags
    are encoded once; a count and a loss are written by ``repr``, as ``json``
    writes the int and the finite float that ``LossRecord`` holds.  Each run's
    lines are joined, then the runs, so no third copy of the text is made.
    """
    texts = []
    for run in runset:
        head = json.dumps({
            "run_id": run.id,
            "strategy": run.strategy,
            "language": run.language,
            "replay_ratio": run.replay_ratio,
            "param_count": run.param_count,
        })[:-1]
        tails = {lang: "}\n" if lang is None else f', "val_language": {json.dumps(lang)}}}\n'
                 for lang in {rec.val_language for rec in run.records}}
        texts.append("".join([f'{head}, "tokens": {rec.tokens!r}, "loss": {rec.loss!r}'
                              f'{tails[rec.val_language]}' for rec in run.records]))
    return "".join(texts)


def load_runs(path) -> RunSet:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is ignored
            return parse_runs(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def dump_runs(runset: RunSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_runs(runset))


def attribute_flops_by_language(total: float, replay_ratio: float) -> tuple[float, float]:
    """Split total FLOPs into (source, target) shares by the replay ratio.

    The two shares always sum to ``total`` exactly: the target share is
    computed as the remainder rather than as an independent product.
    """
    replay_ratio = _checked(replay_ratio, "replay_ratio", _FRACTION, DomainError)
    total = _checked(total, "total FLOPs", _NONNEGATIVE, DomainError)
    source = total * replay_ratio
    target = total - source
    # Nudge source by at most one ulp so the rounded pair sums to total exactly.
    source = total - target
    return source, target


@lru_cache(maxsize=1)
def load_catalog() -> tuple[ModelSpec, ...]:
    """Load the bundled model-structure catalog (42 rows)."""
    payload = resources.files("cptlaws").joinpath("data/model_catalog.json").read_text("utf-8")
    doc = json.loads(payload)
    rows = tuple(ModelSpec(**row) for row in doc["rows"])
    if not rows:
        raise CptLawsError("bundled model catalog is empty")
    return rows


def warmup_filter(run: TrainingRun, fraction: float = 0.05) -> TrainingRun:
    """Drop records from the warmup region (tokens below fraction * max tokens)."""
    fraction = _checked(fraction, "warmup fraction", _BELOW_ONE, DomainError)
    if fraction == 0.0:
        return run
    threshold = fraction * max(rec.tokens for rec in run.records)
    # For 0 < fraction < 1 the largest count always meets the threshold, so a run keeps a record.
    kept = tuple(rec for rec in run.records if rec.tokens >= threshold)
    return dataclasses.replace(run, records=kept)
