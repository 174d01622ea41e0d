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
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from typing import IO, Iterable

from .errors import CptLawsError, DomainError, ParseError, ValidationError

STRATEGIES = ("scratch", "cpt")

#: FLOPs attributed per parameter per training token (C = 6 N D).
FLOPS_PER_PARAM_TOKEN = 6.0

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

# One decoder for every line: json.loads would wrap each decode in two
# whitespace scans, which a stripped line does not need.
_DECODE = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class LossRecord:
    """One telemetry point: cumulative tokens seen and validation loss in nats."""

    tokens: int
    loss: float
    val_language: str | None = None

    def __post_init__(self):
        if not isinstance(self.tokens, int) or self.tokens <= 0:
            raise ValidationError(f"tokens must be a positive integer, got {self.tokens!r}")
        if not isinstance(self.loss, float):
            object.__setattr__(self, "loss", float(self.loss))
        if not math.isfinite(self.loss) or self.loss <= 0:
            raise ValidationError(f"loss must be finite and positive, got {self.loss!r}")


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
        object.__setattr__(self, "records", tuple(self.records))
        if not self.id:
            raise ValidationError("run id must be nonempty")
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"run {self.id!r}: strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if not isinstance(self.param_count, int) or self.param_count <= 0:
            raise ValidationError(
                f"run {self.id!r}: param_count must be a positive integer, got {self.param_count!r}"
            )
        if not 0.0 <= self.replay_ratio <= 1.0:
            raise ValidationError(
                f"run {self.id!r}: replay_ratio must lie in [0, 1], got {self.replay_ratio!r}"
            )
        if self.strategy == "scratch" and self.replay_ratio != 0.0:
            raise ValidationError(
                f"run {self.id!r}: from-scratch runs cannot replay source-language data"
            )
        if not self.records:
            raise ValidationError(f"run {self.id!r}: records must be nonempty")
        last_any = 0
        last_by_series: dict[str | None, int] = {}
        for rec in self.records:
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
        object.__setattr__(self, "runs", tuple(self.runs))
        seen: set[str] = set()
        for run in self.runs:
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
        for name in ("param_size_millions", "hidden", "intermediate", "heads", "layers"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def _coerce_float(value, field: str, line_number: int) -> float:
    """A JSON number as a float; bools, strings and numbers past float range are rejected."""
    if type(value) is float:
        return value
    if type(value) is not int:  # json gives exact types, so this also rejects bool
        raise ParseError(f"field {field!r} must be a number, got {value!r}", line_number)
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"field {field!r} is too large for a float", line_number) from None


def _coerce_int(value, field: str, line_number: int) -> int:
    """A JSON integer, or an integral float, that also converts to a finite float."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ParseError(f"field {field!r} must be an integer, got {value!r}", line_number)
    _coerce_float(value, field, line_number)
    return value


def parse_runs(source: Iterable[str] | str | IO[str]) -> RunSet:
    """Parse a line-delimited record stream into a validated :class:`RunSet`.

    Records belonging to the same ``run_id`` may appear in any order and are
    sorted by token count; runs keep the order of their first line.  Run-level
    fields must agree across a run's lines; a conflict is treated as a
    duplicate-id error.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source

    meta: dict[str, tuple] = {}
    records: dict[str, list[LossRecord]] = {}
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        # A stripped line has no whitespace at either end, so the document
        # must end where the line does.
        try:
            doc, end = _DECODE(line)
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_number) from exc
        if end != len(line):
            raise ParseError("invalid JSON (Extra data)", line_number)
        if not isinstance(doc, dict):
            raise ParseError("record must be a JSON object", line_number)
        try:
            run_id, strategy, language, replay_ratio, param_count, tokens, loss = _required(doc)
        except KeyError:
            missing = [f for f in _REQUIRED_FIELDS if f not in doc]
            raise ParseError(f"missing fields: {', '.join(missing)}", line_number) from None

        if not isinstance(run_id, str) or not run_id:
            raise ParseError("field 'run_id' must be a nonempty string", line_number)
        for field, value in (("strategy", strategy), ("language", language)):
            if not isinstance(value, str):
                raise ParseError(f"field {field!r} must be a string, got {value!r}", line_number)
        val_language = doc.get("val_language")
        if val_language is not None and not isinstance(val_language, str):
            raise ParseError(
                f"field 'val_language' must be a string or null, got {val_language!r}", line_number
            )
        try:
            record = LossRecord(
                tokens=_coerce_int(tokens, "tokens", line_number),
                loss=_coerce_float(loss, "loss", line_number),
                val_language=val_language,
            )
        except ValidationError as exc:
            raise ValidationError(f"line {line_number}: {exc}") from exc

        run_meta = (
            strategy,
            language,
            _coerce_float(replay_ratio, "replay_ratio", line_number),
            _coerce_int(param_count, "param_count", line_number),
        )
        if run_id not in meta:
            meta[run_id] = run_meta
            records[run_id] = []
        elif meta[run_id] != run_meta:
            raise ValidationError(
                f"line {line_number}: run {run_id!r} redeclared with conflicting metadata"
            )
        records[run_id].append(record)

    runs = []
    for run_id, run_records in records.items():
        strategy, language, replay_ratio, param_count = meta[run_id]
        runs.append(
            TrainingRun(
                id=run_id,
                strategy=strategy,
                language=language,
                replay_ratio=replay_ratio,
                param_count=param_count,
                records=tuple(sorted(run_records, key=lambda r: r.tokens)),
            )
        )
    return RunSet(runs=tuple(runs))


def serialize_runs(runset: RunSet) -> str:
    """Serialize a RunSet to the line-delimited format consumed by parse_runs."""
    lines = []
    for run in runset:
        for rec in run.records:
            doc = {
                "run_id": run.id,
                "strategy": run.strategy,
                "language": run.language,
                "replay_ratio": run.replay_ratio,
                "param_count": run.param_count,
                "tokens": rec.tokens,
                "loss": rec.loss,
            }
            if rec.val_language is not None:
                doc["val_language"] = rec.val_language
            lines.append(json.dumps(doc))
    return "\n".join(lines) + ("\n" if lines else "")


def load_runs(path) -> RunSet:
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is ignored
        return parse_runs(fh)


def dump_runs(runset: RunSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_runs(runset))


def compute_flops(n: float, d: float) -> float:
    """Training compute for N parameters over D tokens (C = 6 N D)."""
    if n <= 0 or d <= 0:
        raise DomainError(f"N and D must be positive, got N={n!r}, D={d!r}")
    return FLOPS_PER_PARAM_TOKEN * n * d

def attribute_flops_by_language(total: float, replay_ratio: float) -> tuple[float, float]:
    """Split total FLOPs into (source, target) shares by the replay ratio.

    The two shares always sum to ``total`` exactly: the target share is
    computed as the remainder rather than as an independent product.
    """
    if not 0.0 <= replay_ratio <= 1.0:
        raise DomainError(f"replay_ratio must lie in [0, 1], got {replay_ratio!r}")
    if total < 0:
        raise DomainError(f"total FLOPs must be nonnegative, got {total!r}")
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


def catalog_lookup(target_param_size_millions: float) -> ModelSpec:
    """Catalog row whose parameter size is nearest the target (ties -> smaller)."""
    if target_param_size_millions <= 0:
        raise DomainError(
            f"target size must be positive, got {target_param_size_millions!r}"
        )
    return min(
        load_catalog(),
        key=lambda row: (
            abs(row.param_size_millions - target_param_size_millions),
            row.param_size_millions,
        ),
    )


def warmup_filter(run: TrainingRun, fraction: float = 0.05) -> TrainingRun:
    """Drop records from the warmup region (tokens below fraction * max tokens)."""
    if not 0.0 <= fraction < 1.0:
        raise DomainError(f"warmup fraction must lie in [0, 1), got {fraction!r}")
    if fraction == 0.0:
        return run
    threshold = fraction * max(rec.tokens for rec in run.records)
    kept = tuple(rec for rec in run.records if rec.tokens >= threshold)
    if not kept:
        raise ValidationError(f"run {run.id!r}: warmup filter removed every record")
    return dataclasses.replace(run, records=kept)
