"""Cross-strategy transfer measurement, loss-compute frontiers and replay forgetting curves.

Three routes quantify the CPT benefit at matched loss:

* empirically, by interpolating a pair of measured loss curves at common
  loss levels (tokens saved, FLOPs-saving fraction),
* parametrically, by inverting a fitted from-scratch law at the loss the
  fitted CPT law reaches, and
* from the loss-compute frontiers of the two strategies (the lowest loss per
  compute bin, fitted by a power law in compute), as in Approach 1 of
  Hoffmann et al. 2022.

Transfer values are signed and never clamped: past the point where the two
laws cross, continued pre-training is predicted to need *more* tokens.  A
value past float range is refused, not returned: the parametric route's D_PT
is a DomainError naming N, D_CPT and the loss, and a run whose 6 N D
overflows is a DomainError naming the run, on the empirical route as in the
frontier and the forgetting curves.

Everything here runs on the standard library: the curves are interpolated
with ``bisect`` and the zero-offset frontier is a least-squares line in
(log C, log L).  Only the free-offset frontier, a law fit, imports the fitter
and with it numpy.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import astuple, dataclass
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DomainError,
    InterpolationRangeError,
    UnidentifiableDataError,
    UnreachableLossError,
    ValidationError,
)
from .laws import (_FRACTION, _SAVING, FLOPS_PER_PARAM_TOKEN, ChinchillaParams,
                   ExtendedCptParams, FrontierParams, _as_float, _as_tuple, _checked, _count,
                   _exp_coefficients, _finite_floats, _geomspace, _hold, _point, _points,
                   _positive_float, _positive_floats, _zero_offset, eval_law,
                   solve_tokens_for_loss)

if TYPE_CHECKING:  # only annotations name them; forgetting_curves imports ingest
    from .ingest import RunSet, TrainingRun

#: Default number of loss levels for empirical transfer reports.
DEFAULT_LEVELS = 32


def _interp(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """``numpy.interp(x, xs, ys)`` for strictly increasing ``xs``: piecewise-linear, clamped at the ends.

    The formula is numpy's, slope * (x - x_j) + y_j, and a knot returns its
    own y exactly.
    """
    j = bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j >= len(xs) - 1:
        return ys[-1]
    if xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + ys[j]


@dataclass(frozen=True)
class CurveInterpolator:
    """Piecewise-linear loss curve in (log tokens, log loss).

    Knots are the run's records after running-minimum smoothing, so the
    curve is nonincreasing and inverse lookup is well defined: a loss level
    maps to the first token count that achieved it.
    """

    log_tokens: tuple[float, ...]
    log_losses: tuple[float, ...]

    def __post_init__(self):
        _hold(self, log_tokens=_finite_floats, log_losses=_finite_floats)
        if len(self.log_tokens) < 2 or len(self.log_tokens) != len(self.log_losses):
            raise ValidationError("interpolator needs at least two aligned knots")
        if any(b <= a for a, b in zip(self.log_tokens, self.log_tokens[1:])):
            raise ValidationError("knot tokens must strictly increase")
        if any(b > a for a, b in zip(self.log_losses, self.log_losses[1:])):
            raise ValidationError("knot losses must be nonincreasing")

    @property
    def domain(self) -> tuple[float, float]:
        """Token range covered by the curve."""
        return math.exp(self.log_tokens[0]), math.exp(self.log_tokens[-1])

    @property
    def loss_range(self) -> tuple[float, float]:
        """(lowest, highest) loss reached along the curve."""
        return math.exp(self.log_losses[-1]), math.exp(self.log_losses[0])

    def loss_at_tokens(self, tokens: float) -> float:
        tokens = _as_float(tokens, "tokens")
        x = math.log(tokens) if tokens > 0 else -math.inf
        if x < self.log_tokens[0] or x > self.log_tokens[-1]:
            raise InterpolationRangeError(
                f"tokens {tokens!r} outside curve domain {self.domain!r}"
            )
        return math.exp(_interp(x, self.log_tokens, self.log_losses))

    def tokens_at_loss(self, loss: float) -> float:
        loss = _as_float(loss, "loss")
        lo, hi = self.loss_range
        if not (loss > 0 and lo <= loss <= hi):  # also rejects NaN
            raise InterpolationRangeError(
                f"loss {loss!r} outside achieved range {(lo, hi)!r}"
            )
        # Keep only first-achievement knots so the sequence is strictly
        # decreasing and invertible; flat stretches map to their left edge.
        xs, ys = [], []
        last = math.inf
        for t, l in zip(self.log_tokens, self.log_losses):
            if l < last:
                xs.append(l)
                ys.append(t)
                last = l
        # _interp needs ascending x
        return math.exp(_interp(math.log(loss), xs[::-1], ys[::-1]))


def interp_loss_curve(run: TrainingRun) -> CurveInterpolator:
    """Build the smoothed interpolator for a run's own-language loss series."""
    records = run.main_series()
    if len(records) < 2:
        raise DomainError(f"run {run.id!r} needs at least two records to interpolate")
    losses = accumulate((rec.loss for rec in records), min)
    return CurveInterpolator(
        log_tokens=tuple(math.log(rec.tokens) for rec in records),
        log_losses=tuple(math.log(loss) for loss in losses),
    )


@dataclass(frozen=True)
class TransferReport:
    """Tokens and FLOPs saved by CPT at common loss levels, each field one float per level."""

    loss_levels: tuple[float, ...]
    d_pt: tuple[float, ...]
    d_cpt: tuple[float, ...]
    transferred_tokens: tuple[float, ...]
    flops_saved_fraction: tuple[float, ...]

    def __post_init__(self):
        _hold(self, loss_levels=_positive_floats)
        aligned = partial(partial, length=len(self.loss_levels))  # one value per loss level
        _hold(self, d_pt=aligned(_positive_floats), d_cpt=aligned(_positive_floats),
              transferred_tokens=aligned(_finite_floats),
              flops_saved_fraction=aligned(_as_tuple, convert=partial(_checked, rule=_SAVING)))


def empirical_transfer(
    run_pt: TrainingRun, run_cpt: TrainingRun, levels: int = DEFAULT_LEVELS
) -> TransferReport:
    """Measure transfer between two runs of equal size at matched loss levels.

    Levels are geometrically spaced across the overlap of the two achieved
    loss ranges, highest loss first.
    """
    if run_pt.param_count != run_cpt.param_count:
        raise ValidationError(
            f"runs must have equal param_count, got {run_pt.param_count} "
            f"and {run_cpt.param_count}"
        )
    levels = _count(levels, "levels", 1, DomainError)
    curve_pt = interp_loss_curve(run_pt)
    curve_cpt = interp_loss_curve(run_cpt)
    low = max(curve_pt.loss_range[0], curve_cpt.loss_range[0])
    high = min(curve_pt.loss_range[1], curve_cpt.loss_range[1])
    if low > high:
        raise ValidationError("the two runs' loss ranges do not overlap")

    rows = []
    for level in _geomspace(high, low, levels):
        d_pt = curve_pt.tokens_at_loss(level)
        d_cpt = curve_cpt.tokens_at_loss(level)
        c_pt = _compute(run_pt, d_pt)
        c_cpt = _compute(run_cpt, d_cpt)
        rows.append((level, d_pt, d_cpt, d_pt - d_cpt, (c_pt - c_cpt) / c_pt))
    return TransferReport(*zip(*rows))


def parametric_transfer(
    scratch: ChinchillaParams, cpt: ExtendedCptParams, N: float, D_cpt: float
) -> float:
    """Effectively transferred tokens implied by the two fitted laws.

    Evaluates the CPT loss at (N, D_cpt), inverts the from-scratch law at
    that loss, and returns D_PT - D_CPT (signed).  A D_PT past float range is
    a DomainError.
    """
    level = eval_law(cpt, N, D_cpt)
    try:
        d_pt = solve_tokens_for_loss(scratch, N, level)
    except UnreachableLossError as exc:
        raise UnreachableLossError(
            f"CPT loss {level!r} at N={N!r}, D={D_cpt!r} is below the from-scratch floor: {exc}"
        ) from exc
    if d_pt == math.inf if isinstance(d_pt, float) else math.inf in d_pt:
        raise DomainError(f"CPT loss {level!r} at N={N!r}, D={D_cpt!r} needs from-scratch "
                          f"tokens past float range")
    return d_pt - D_cpt


def _compute(run: TrainingRun, tokens: int) -> float:
    """6 N D of ``tokens`` of ``run``; one past float range is a DomainError naming the run."""
    compute = FLOPS_PER_PARAM_TOKEN * run.param_count * tokens
    if compute == math.inf:
        raise DomainError(f"run {run.id!r}: compute 6 N D at {tokens:.6g} tokens is past float range")
    return compute


def extract_compute_frontier(
    data: RunSet, bins_per_decade: int = 10
) -> list[tuple[float, float]]:
    """Lowest loss per compute bin, Pareto-filtered to be strictly decreasing.

    Compute is binned in log10 space (``bins_per_decade`` bins per decade);
    each bin keeps its minimum-loss record at that record's actual compute.
    Records are each run's own-language loss series, the records the fits use.
    """
    bins_per_decade = _count(bins_per_decade, "bins_per_decade", 1, DomainError)
    best: dict[int, tuple[float, float]] = {}
    for run in data:
        for rec in run.main_series():
            compute = _compute(run, rec.tokens)
            key = math.floor(math.log10(compute) * bins_per_decade)
            incumbent = best.get(key)
            if incumbent is None or (rec.loss, compute) < incumbent:
                best[key] = (rec.loss, compute)
    if not best:
        raise ValidationError("cannot extract a frontier: no run has a record of its own language")

    frontier = []
    for loss, compute in sorted(best.values(), key=lambda item: item[1]):
        if not frontier or loss < frontier[-1][1]:
            frontier.append((compute, loss))
    return frontier


def fit_frontier(
    points: Sequence[tuple[float, float]], fix_offset_zero: bool = True
) -> FrontierParams:
    """Fit the loss-compute power law to (C, L) frontier points.

    With the offset fixed at zero this is least-squares linear regression in
    (log C, log L).  Otherwise the regression starts a law fit with a free
    offset (``fitter.fit_offset_frontier``, which needs numpy).
    """
    pts = _as_tuple(points, "points",
                    partial(_point, convert=partial(_positive_float, error=DomainError)))
    log_c = [math.log(c) for c, _ in pts]
    log_l = [math.log(l) for _, l in pts]
    if len(set(log_c)) < 2:
        raise UnidentifiableDataError("frontier fitting requires two distinct compute values")

    # Imported here, so that the other commands do not pay its 5 ms.
    from statistics import linear_regression

    slope, intercept = linear_regression(log_c, log_l)
    exponent = -slope
    if abs(exponent) < 1e-12:  # flat data: suppress least-squares noise
        exponent = 0.0
    zero_offset = FrontierParams(exponent=exponent, offset=0.0,
                                 **_exp_coefficients(coefficient=intercept))
    # Flat data is fitted exactly by the zero-offset law (and a zero exponent
    # has no log).
    if fix_offset_zero or exponent == 0.0:
        return zero_offset
    from . import fitter

    return fitter.fit_offset_frontier(log_c, log_l, intercept, exponent)


def flops_saving_from_frontiers(
    f_pt: FrontierParams, f_cpt: FrontierParams, L: float
) -> float:
    """Fraction of compute CPT avoids at loss L, from two zero-offset frontiers."""
    _zero_offset(f_pt, f_cpt)
    if f_pt.exponent <= 0 or f_cpt.exponent <= 0:
        raise DomainError("savings require strictly decreasing frontiers")
    L = _as_float(L, "loss")
    if not 0 < L < min(f_pt.coefficient, f_cpt.coefficient):  # also rejects NaN
        raise DomainError(
            f"loss must lie in (0, {min(f_pt.coefficient, f_cpt.coefficient)!r}), got {L!r}"
        )
    log_c_pt = (math.log(f_pt.coefficient) - math.log(L)) / f_pt.exponent
    log_c_cpt = (math.log(f_cpt.coefficient) - math.log(L)) / f_cpt.exponent
    return 1.0 - math.exp(log_c_cpt - log_c_pt)


@dataclass(frozen=True)
class ForgettingCurve:
    """Per-language (FLOPs, loss) series for one replay run.

    Each point's FLOPs are the run's total compute at that record multiplied
    by the language's share of the data mix; each point is a pair of positive
    finite floats.
    """

    run_id: str
    replay_ratio: float
    target_language: str
    source_language: str | None
    source_points: tuple[tuple[float, float], ...]
    target_points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        _hold(self, replay_ratio=partial(_checked, rule=_FRACTION), source_points=_points,
              target_points=_points)


def forgetting_curves(runs: RunSet) -> list[ForgettingCurve]:
    """Build per-language forgetting datasets from validation-tagged runs."""
    from .ingest import attribute_flops_by_language

    curves = []
    for run in runs:
        tagged = [rec for rec in run.records if rec.val_language is not None]
        if not tagged:
            raise ValidationError(
                f"run {run.id!r} has no records tagged with a validation language"
            )
        other = {rec.val_language for rec in tagged} - {run.language}
        if len(other) > 1:
            raise ValidationError(
                f"run {run.id!r} mixes several source languages: {sorted(other)}"
            )
        source_language = other.pop() if other else None

        source_points, target_points = [], []
        for rec in tagged:
            total = _compute(run, rec.tokens)
            source_share, target_share = attribute_flops_by_language(total, run.replay_ratio)
            if rec.val_language == run.language:
                if run.replay_ratio < 1.0:
                    target_points.append((target_share, rec.loss))
            elif run.replay_ratio > 0.0:
                source_points.append((source_share, rec.loss))
        curves.append(
            ForgettingCurve(
                run_id=run.id,
                replay_ratio=run.replay_ratio,
                target_language=run.language,
                source_language=source_language,
                source_points=tuple(sorted(source_points)),
                target_points=tuple(sorted(target_points)),
            )
        )
    return curves


def export_transfer_csv(report: TransferReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["loss_level", "d_pt", "d_cpt", "transferred_tokens", "flops_saved_fraction"]
        )
        for row in zip(*astuple(report)):
            writer.writerow([f"{value:.9g}" for value in row])


def export_forgetting_csv(curves: list[ForgettingCurve], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replay_ratio", "language", "flops", "loss"])
        for curve in curves:
            for language, points in ((curve.source_language, curve.source_points),
                                     (curve.target_language, curve.target_points)):
                for flops, loss in points:
                    writer.writerow([curve.replay_ratio, language, f"{flops:.9g}", f"{loss:.9g}"])
