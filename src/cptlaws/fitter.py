"""Robust multistart fitting of the scaling-law families.

The objective is the mean Huber loss between predicted and observed log
loss, with the prediction expressed as a log-sum-exp over the extended law's
three additive terms in log space, (a - alpha log N), (b - beta log D - gamma
log N) and e.  The kernel shifts by the largest term, takes one exp per term,
and reuses those weights for the exact Jacobian (their normalized values are
the softmax weights of the terms).  It works over the optimizer coordinates
q = (a, b, e, log alpha, log beta, gamma), with A = e^a, B = e^b (B' for the
CPT law) and E = e^e; the from-scratch law is the case gamma = 0, and the
free-offset loss-compute frontier is the one-term case N := C with the data
term switched off (b = -inf).  Each fit frees a subset of q and holds the
rest fixed.  Exponent positivity is enforced by optimizing log-exponents;
gamma is optimized raw because its fitted sign is meaningful.

Every fit runs a deterministic initialization grid of starts through two
phases.  First, all starts advance together in a damped Gauss-Newton
(Levenberg-Marquardt) stage on the IRLS-weighted Huber residuals: blocks of
starts are evaluated as (starts, records) arrays by one kernel,
``_law_system``, which returns each start's objective, Gauss-Newton matrix
and gradient, each start's Jacobian being its softmax term weights times
each term's derivative.  A start stops on a relative decrease or a step
below 1e-10, or when it has used its share of a fixed budget of row trials,
``_GN_ROW_TRIALS``: 30 trials each on the default 512-start scratch grid,
while a fit with few starts runs until the other two rules stop it.  This
stage converges in relative terms, where the second phase's stopping rule
is absolute, and it ranks every start by the objective it ends at.  Second,
the starts of the best basin, those within ``_BASIN_TOLERANCE`` relative of
the lowest stage objective, are each finished on their own by a
quasi-Newton local search (L-BFGS-B) on the same kernel's value and
gradient; the other starts are dropped.  The lowest-objective finished
start wins, ties resolved by the lexicographically smallest start.  scipy,
which supplies L-BFGS-B, is imported on the first search, so the commands
that never fit do not load it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    FitFailureError,
    UnidentifiableDataError,
    ValidationError,
)
from .ingest import FLOPS_PER_PARAM_TOKEN, RunSet, warmup_filter
from .laws import (
    SCHEMA_VERSION,
    ChinchillaParams,
    ExtendedCptParams,
    FrontierParams,
    law_to_dict,
)

#: Default Huber threshold on log-loss residuals.
DEFAULT_DELTA = 1e-3

# Cap on log-exponent coordinates during optimization; keeps exp() finite
# when a line search probes far out (any exponent near e^50 is meaningless).
_LOG_EXPONENT_CAP = 50.0

# Indices into q = (a, b, e, log alpha, log beta, gamma) that each fit frees.
_SCRATCH_FREE = [0, 1, 2, 3, 4]  # gamma = 0
_CPT_FREE = [1, 4, 5]  # (a, e, log alpha) come from a from-scratch fit
_ALL_FREE = [0, 1, 2, 3, 4, 5]
_FRONTIER_FREE = [0, 2, 3]  # L(C) = E + A / C^alpha: N := C, no data term
_LOG_EXPONENTS = (3, 4)  # q positions holding log alpha and log beta
_TERM_OF = (0, 1, 2, 0, 1, 1)  # the law term (N, D, offset) each q position enters

# Options of every local search.  maxls = 50 (scipy's default is 20) lets the
# first line search from a far-out start finish instead of ending ABNORMAL.
_LBFGSB_OPTIONS = {"maxiter": 300, "ftol": 1e-11, "gtol": 1e-10, "maxls": 50}

# The Gauss-Newton stage ahead of L-BFGS-B; BENCH_7.json has the sweeps behind
# the trial cap and the block size.  A stage shares _GN_ROW_TRIALS out evenly
# over its starts: the default 512-start scratch grid gets 30 trials each,
# and a stage with few starts runs until its stop rules end it (the 2-start
# free-offset frontier needs about 100).  A block holds
# _GN_BLOCK_ELEMENTS // n starts of n records, so each (starts, records)
# array stays under 64 kB.  Larger blocks cut the Python overhead per step,
# but from about 100 kB per array on, glibc's free() gave heap memory back to
# the system at every step, and page-faulting it in again cost more than the
# larger blocks saved.
_GN_ROW_TRIALS = 30 * 512
_GN_BLOCK_ELEMENTS = 8000
_GN_TOLERANCE = 1e-10  # relative decrease and relative step that end a start's stage
_GN_DAMPING = 0.1  # initial damping of the curvature-scaled system
_GN_DAMPING_FLOOR = 1e-10  # keeps the damped system nonsingular
_GN_CURVATURE_FLOOR = 1e-8  # smallest curvature scale, relative to the largest

# A start is in the best basin when its Gauss-Newton stage objective is within
# this fraction of the lowest one; only those starts are finished by L-BFGS-B.
_BASIN_TOLERANCE = 1e-3

# Default initialization grid: brackets the plausible coefficient range with
# margin.  Coefficient starts are log-coefficients (A = e^a up to ~1.2e6).
COEFFICIENT_STARTS = (2.0, 6.0, 10.0, 14.0)
EXPONENT_STARTS = (0.1, 0.3, 0.5, 0.7)
GAMMA_STARTS = (-0.1, 0.0, 0.1, 0.2)
OFFSET_FRACTIONS = (0.5, 0.9)  # E starts at these fractions of the lowest observed loss


@dataclass(frozen=True)
class FitConfig:
    """Fitting knobs: Huber threshold, start grid, and warmup filter.

    ``init_grid`` entries are starting points in natural coordinates:
    (a, b, e, alpha, beta) for from-scratch fits and (b', beta', gamma) for
    CPT fits.  When omitted, the default grid is built from the data (the
    offset starts depend on the lowest observed loss).
    """

    delta: float = DEFAULT_DELTA
    init_grid: tuple[tuple[float, ...], ...] | None = None
    warmup_fraction: float = 0.0

    def __post_init__(self):
        if not self.delta > 0:  # also rejects NaN; inf gives a least-squares fit
            raise ValidationError(f"delta must be positive, got {self.delta!r}")
        if self.init_grid is not None:
            object.__setattr__(self, "init_grid", tuple(tuple(p) for p in self.init_grid))
            if not self.init_grid:
                raise ValidationError("init_grid must be nonempty when given")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValidationError(
                f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction!r}"
            )


@dataclass(frozen=True)
class FitReport:
    """A fitted law plus the objective value and per-record diagnostics.

    ``residuals`` are predicted minus observed log loss, aligned with the
    records the fit actually used (main-series records, in run order, after
    any warmup filtering).
    """

    params: ChinchillaParams | ExtendedCptParams
    objective: float
    n_points: int
    residuals: tuple[float, ...]
    chosen_init: tuple[float, ...]

    def __post_init__(self):
        if self.objective < 0:
            raise ValidationError(f"objective must be nonnegative, got {self.objective!r}")
        if len(self.residuals) != self.n_points:
            raise ValidationError(
                f"residual count {len(self.residuals)} != n_points {self.n_points}"
            )


@dataclass(frozen=True)
class ModelComparison:
    """Mean Huber objectives of both law families on the same data."""

    chinchilla_error: float
    extended_error: float
    gamma_fitted: float

    def __post_init__(self):
        if self.chinchilla_error < 0 or self.extended_error < 0:
            raise ValidationError("fitting errors must be nonnegative")


def huber(residual, delta: float = DEFAULT_DELTA):
    """Huber penalty: quadratic inside |r| <= delta, linear with matched slope outside.

    With c = clip(r, -delta, delta), the derivative, this is c (r - c/2).
    """
    if not delta > 0:  # also rejects NaN
        raise DomainError(f"delta must be positive, got {delta!r}")
    r = np.asarray(residual, dtype=float)
    slope = np.clip(r, -delta, delta)
    out = slope * (r - 0.5 * slope)
    return float(out) if out.ndim == 0 else out


def _fit_records(data: RunSet):
    """(run, record) pairs the fits use: each run's own-language loss series."""
    for run in data:
        for rec in run.main_series():
            yield run, rec


def _flatten(data: RunSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_vals, d_vals, l_vals = [], [], []
    for run, rec in _fit_records(data):
        n_vals.append(run.param_count)
        d_vals.append(rec.tokens)
        l_vals.append(rec.loss)
    if not n_vals:
        raise UnidentifiableDataError("RunSet contains no usable records")
    return (
        np.log(np.asarray(n_vals, dtype=float)),
        np.log(np.asarray(d_vals, dtype=float)),
        np.log(np.asarray(l_vals, dtype=float)),
    )


def _q(a, b, e, alpha, beta, gamma=0.0) -> np.ndarray:
    """Optimizer coordinates of a point given as (a, b, e, alpha, beta, gamma)."""
    return np.array([a, b, e, math.log(alpha), math.log(beta), gamma])


def _law_terms(q: np.ndarray, log_n, log_d):
    """The extended law's log-sum-exp at q: prediction, term weights, their sum, exponent slopes.

    q is one point (shape (6,)) or one point per row (shape (S, 6)); every
    returned array has the matching leading shape.  The prediction (predicted
    log loss) is top + log(w_n + w_d + w_e), with top the largest of the three
    terms and each weight exp(term - top), so every term costs one exp; a
    term's softmax weight is w / (w_n + w_d + w_e).  The slopes are
    d(alpha, beta)/d(log alpha, log beta): the exponent itself, or 0 past
    ``_LOG_EXPONENT_CAP``.
    """
    log_exponents = q[..., 3:5]
    exponents = np.exp(np.minimum(log_exponents, _LOG_EXPONENT_CAP))
    a, b, e, _, _, gamma = q.T[..., None]
    alpha, beta = exponents.T[..., None]
    term_n = a - alpha * log_n
    term_d = b - beta * log_d
    term_d -= gamma * log_n
    top = np.maximum(np.maximum(term_n, term_d), e)
    # The terms turn into their weights in place: every array allocated here
    # costs time in the batched calls.
    term_n -= top
    term_d -= top
    weights = (np.exp(term_n, out=term_n), np.exp(term_d, out=term_d), np.exp(e - top))
    total = weights[0] + weights[1]
    total += weights[2]
    prediction = np.log(total)
    prediction += top
    slopes = np.where(log_exponents < _LOG_EXPONENT_CAP, exponents, 0.0)
    return prediction, weights, total, slopes


def _residuals(q: np.ndarray, flat) -> np.ndarray:
    """Predicted minus observed log loss of the extended law at one point q."""
    log_n, log_d, log_l = flat
    return _law_terms(q, log_n, log_d)[0] - log_l


def _law_system(x: np.ndarray, base: np.ndarray, free: list[int], flat, delta: float,
                jac: np.ndarray | None = None):
    """Huber objective, Gauss-Newton matrix J^T W J and gradient J^T huber'(r) at each row of x.

    Row s is the point q = ``base`` with q[free] = x[s].  The objective is the
    mean over records; both sums run over records, so the mean's gradient is
    the returned one divided by the record count.  J is the Jacobian of the
    prediction in q[free] and W the IRLS weights (1 where |r| <= delta,
    delta / |r| elsewhere).  ``jac``, of shape (rows, free, records), is
    reused for J when given.
    """
    log_n, log_d, log_l = flat
    n = log_l.size
    q = np.repeat(base[None, :], len(x), axis=0)
    q[:, free] = x
    prediction, weights, total, slopes = _law_terms(q, log_n, log_d)
    residuals = np.subtract(prediction, log_l, out=prediction)
    slope = np.clip(residuals, -delta, delta)
    value = np.einsum("ij,ij->i", slope, residuals - 0.5 * slope) / n
    # Column i of J is a term's softmax weight, weight / total, times the
    # term's derivative in q_i.  Both sums are formed from sqrt(W) J, as
    # huber'(r) = W r.  The (rows, records) arrays are updated in place once
    # their values are no longer needed.
    root = np.divide(slope, residuals, out=np.ones_like(slope), where=residuals != 0)
    np.sqrt(root, out=root)
    scale = np.divide(root, total, out=total)
    for weight in weights:
        weight *= scale
    factors = (1.0, 1.0, 1.0, -slopes[:, :1] * log_n, -slopes[:, 1:] * log_d, -log_n)
    if jac is None:
        jac = np.empty((len(x), len(free), n))
    for column, i in enumerate(free):
        np.multiply(weights[_TERM_OF[i]], factors[i], out=jac[:, column])
    residuals *= root
    grad = (jac @ residuals[:, :, None])[:, :, 0]
    return value, jac @ jac.transpose(0, 2, 1), grad


def objective_scratch(theta: Sequence[float], data: RunSet, delta: float = DEFAULT_DELTA) -> float:
    """Mean Huber loss of the from-scratch law at theta = (a, b, e, alpha, beta).

    Coefficients follow the A = exp(a), B = exp(b), E = exp(e) convention.
    Nonpositive losses cannot occur here; ingest rejects them at load time.
    """
    return float(np.mean(huber(_residuals(_q(*theta), _flatten(data)), delta)))


def objective_cpt(
    theta2: Sequence[float],
    fixed: Sequence[float],
    data: RunSet,
    delta: float = DEFAULT_DELTA,
) -> float:
    """Mean Huber loss of the CPT law at theta2 = (b', beta', gamma).

    ``fixed`` carries (a, e, alpha) from a completed from-scratch fit, held
    constant.
    """
    b, beta, gamma = theta2
    a, e, alpha = fixed
    return float(np.mean(huber(_residuals(_q(a, b, e, alpha, beta, gamma), _flatten(data)), delta)))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.

    Only the commands that fit pay for importing scipy.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _minimize_multistart(fun, starts, bounds=None):
    """Run L-BFGS-B from every (key, x0) start; return the winner's (objective, key, x).

    ``fun`` returns the objective and its gradient.  Winner selection is a
    deterministic reduction: lowest objective, ties broken by the smallest key.
    """
    results = []
    failures = []
    for key, x0 in starts:
        res = minimize(
            fun, x0, jac=True, method="L-BFGS-B", bounds=bounds, options=_LBFGSB_OPTIONS
        )
        if res.success and math.isfinite(res.fun):
            results.append((float(res.fun), key, np.asarray(res.x, dtype=float)))
        else:
            failures.append(f"start {key}: {res.message}")
    if not results:
        raise FitFailureError(
            "no optimizer start converged; diagnostics:\n  " + "\n  ".join(failures)
        )
    return min(results, key=lambda item: item[:2])


def _gauss_newton(flat, base: np.ndarray, free: list[int], x0: np.ndarray, delta: float,
                  bounds=None) -> tuple[np.ndarray, np.ndarray]:
    """Advance every start (one row of x0) by damped Gauss-Newton steps.

    Returns the endpoints and their objectives (non-finite for a start whose
    objective is not finite at x0; such a start stays put).

    This is Levenberg-Marquardt on the IRLS-weighted Huber residuals (weight
    1 where |r| <= delta, delta / |r| elsewhere) over q[free], the rest held
    at ``base``.  The starts move together, ``_GN_BLOCK_ELEMENTS // n`` rows
    at a time, and trial points are clipped into ``bounds`` (L-BFGS-B form).
    A start takes a trial only when its objective is finite and lower, and
    stops on a relative decrease of at most ``_GN_TOLERANCE``, a step of at
    most ``_GN_TOLERANCE`` (1 + |x|) in every coordinate, or after its share
    of ``_GN_ROW_TRIALS``, the same number of trials for every start.  No
    row's arithmetic reads another row, so the endpoints and objectives do
    not depend on the order or the blocking of the starts.
    """
    n = flat[2].size
    lower, upper = -math.inf, math.inf
    if bounds is not None:
        lower = np.array([-math.inf if lo is None else lo for lo, _ in bounds])
        upper = np.array([math.inf if hi is None else hi for _, hi in bounds])
    rows = max(1, _GN_BLOCK_ELEMENTS // n)
    trials = max(1, _GN_ROW_TRIALS // len(x0))
    workspace = np.empty((rows, len(free), n))  # the Jacobian, reused by every step

    def system(x: np.ndarray):
        return _law_system(x, base, free, flat, delta, workspace[:len(x)])

    blocks = [_gauss_newton_block(system, x0[i:i + rows], n, lower, upper, trials)
              for i in range(0, len(x0), rows)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _gauss_newton_block(system, x: np.ndarray, n: int, lower, upper,
                        trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The Levenberg-Marquardt iteration of ``_gauss_newton`` on one block of starts.

    The damping follows Nielsen's rule (Madsen, Nielsen and Tingleff, Methods
    for Non-linear Least Squares Problems, 2004): a taken step scales it by
    max(1/3, 1 - (2 rho - 1)^3), rho being the actual over the predicted
    decrease clipped to [0, 1]; a refused one multiplies it by a factor that
    doubles with each refusal in a row.  Every row is stepped each
    iteration, and only the active rows take their trial points and update
    their damping (a stopped row's would otherwise grow until it overflows).
    """
    x = x.copy()
    value, hess, grad = system(x)
    eye = np.eye(x.shape[1])
    damping = np.full(len(x), _GN_DAMPING)
    growth = np.full(len(x), 2.0)
    active = np.isfinite(value)
    hess[~active], grad[~active] = eye, 0.0  # a start without a finite objective stays put
    for _ in range(trials):
        if not active.any():
            break
        # Marquardt's scaling: each coordinate is damped in proportion to its
        # curvature, floored at _GN_CURVATURE_FLOOR of the largest so that a
        # nearly flat coordinate cannot take an unbounded step.  A start with
        # no curvature at all gets no step and stops.
        curvature = np.diagonal(hess, axis1=1, axis2=2)
        curvature = np.maximum(curvature, _GN_CURVATURE_FLOOR * curvature.max(axis=1, keepdims=True))
        scale = np.divide(1.0, np.sqrt(curvature), out=np.zeros_like(curvature),
                          where=curvature > 0)
        matrix = hess * scale[:, :, None] * scale[:, None, :] + damping[:, None, None] * eye
        step = -scale * np.linalg.solve(matrix, (scale * grad)[:, :, None])[:, :, 0]
        trial = np.clip(x + step, lower, upper)
        step = trial - x
        active &= (np.abs(step) > _GN_TOLERANCE * (1.0 + np.abs(x))).any(axis=1)
        # Decrease of the quadratic model, in units of n * objective.
        predicted = -(np.einsum("ij,ij->i", grad, step)
                      + 0.5 * (step[:, None, :] @ hess @ step[:, :, None])[:, 0, 0])
        trial_value, trial_hess, trial_grad = system(trial)
        better = active & np.isfinite(trial_value) & (trial_value < value)
        decrease = np.subtract(value, trial_value, out=np.zeros_like(value), where=better)
        ratio = np.divide(n * decrease, predicted, out=np.zeros_like(predicted),
                          where=better & (predicted > 0))
        factor = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.clip(ratio, 0.0, 1.0) - 1.0) ** 3)
        np.multiply(damping, np.where(better, factor, growth), out=damping, where=active)
        np.maximum(damping, _GN_DAMPING_FLOOR, out=damping)
        np.multiply(growth, 2.0, out=growth, where=active & ~better)
        growth[better] = 2.0
        x[better] = trial[better]
        value[better] = trial_value[better]
        hess[better] = trial_hess[better]
        grad[better] = trial_grad[better]
        active &= ~better | (decrease > _GN_TOLERANCE * value)
    return x, value


def _best_basin(values: np.ndarray) -> np.ndarray:
    """Indices of the starts whose objective is within ``_BASIN_TOLERANCE`` relative of the lowest.

    A non-finite objective is never in the basin.
    """
    finite = np.isfinite(values)
    if not finite.any():
        raise FitFailureError("no optimizer start has a finite objective")
    best = values[finite].min()
    return np.flatnonzero(finite & (values - best <= _BASIN_TOLERANCE * best))


def _law_starts(grid, free: list[int]) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """(natural point, optimizer start) pairs for the coordinates q[free].

    Grid points list the natural values of q[free] in order, with alpha and
    beta in place of their logs.
    """
    names = ", ".join(("a", "b", "e", "alpha", "beta", "gamma")[i] for i in free)
    starts = []
    for point in grid:
        if len(point) != len(free):
            raise ValidationError(
                f"starts need {len(free)} coordinates ({names}), got {point!r}"
            )
        if not all(math.isfinite(value) for value in point):
            raise ValidationError(f"start {point!r}: coordinates must be finite")
        pairs = list(zip(free, point))
        if any(value <= 0 for i, value in pairs if i in _LOG_EXPONENTS):
            raise ValidationError(f"start {point!r}: exponents must be positive")
        x0 = [math.log(value) if i in _LOG_EXPONENTS else value for i, value in pairs]
        starts.append((tuple(point), np.array(x0, dtype=float)))
    return starts


def _fit_mask(flat, base: np.ndarray, free: list[int], grid, delta: float, bounds=None):
    """Fit q[free] from every grid point, the rest held at ``base``; return (objective, chosen, q).

    The Gauss-Newton stage advances every grid point, then L-BFGS-B finishes
    each one that ends the stage in the best basin.  ``bounds`` are L-BFGS-B
    bounds on q[free].
    """

    def fun(x: np.ndarray):
        value, _, grad = _law_system(x[None], base, free, flat, delta)
        return value[0], grad[0] / flat[2].size

    keys, x0 = zip(*_law_starts(grid, free))
    x0, values = _gauss_newton(flat, base, free, np.array(x0), delta, bounds)
    finished = [(keys[i], x0[i]) for i in _best_basin(values)]
    objective, chosen, x = _minimize_multistart(fun, finished, bounds)
    q = base.copy()
    q[free] = x
    return objective, chosen, q


def _prepare(data: RunSet, cfg: FitConfig):
    """The (log N, log D, log L) arrays a law fit uses, after the warmup filter."""
    log_n, log_d, log_l = _flatten(_apply_warmup(data, cfg.warmup_fraction))
    if np.unique(log_n).size < 2 or np.unique(log_d).size < 2:
        raise UnidentifiableDataError(
            "fitting requires at least two distinct model sizes and two distinct token counts"
        )
    return log_n, log_d, log_l


def _apply_warmup(data: RunSet, fraction: float) -> RunSet:
    if fraction == 0.0:
        return data
    return RunSet(runs=tuple(warmup_filter(run, fraction) for run in data))


def _default_scratch_grid(min_loss: float) -> list[tuple[float, ...]]:
    offsets = tuple(math.log(frac * min_loss) for frac in OFFSET_FRACTIONS)
    return [
        (a, b, e, alpha, beta)
        for a in COEFFICIENT_STARTS
        for b in COEFFICIENT_STARTS
        for e in offsets
        for alpha in EXPONENT_STARTS
        for beta in EXPONENT_STARTS
    ]


def _default_cpt_grid() -> list[tuple[float, ...]]:
    return list(product(COEFFICIENT_STARTS, EXPONENT_STARTS, GAMMA_STARTS))


def _fit_report(params, objective: float, q: np.ndarray, flat, chosen) -> FitReport:
    """FitReport of a law fitted at q, with its residuals on the ``flat`` data."""
    residuals = _residuals(q, flat)
    return FitReport(
        params=params,
        objective=objective,
        n_points=int(residuals.size),
        residuals=tuple(float(r) for r in residuals),
        chosen_init=chosen,
    )


def _fit_scratch(flat, cfg: FitConfig) -> FitReport:
    grid = cfg.init_grid or _default_scratch_grid(float(np.exp(flat[2].min())))
    objective, chosen, q = _fit_mask(flat, np.zeros(6), _SCRATCH_FREE, grid, cfg.delta)
    params = ChinchillaParams(
        E=math.exp(q[2]), A=math.exp(q[0]), B=math.exp(q[1]),
        alpha=math.exp(q[3]), beta=math.exp(q[4]),
    )
    return _fit_report(params, objective, q, flat, chosen)


def fit_scratch(data: RunSet, cfg: FitConfig | None = None) -> FitReport:
    """Fit the from-scratch law to a RunSet via the multistart procedure."""
    cfg = cfg or FitConfig()
    return _fit_scratch(_prepare(data, cfg), cfg)


def fit_cpt(
    data: RunSet, fixed: Sequence[float], cfg: FitConfig | None = None
) -> FitReport:
    """Fit the CPT law's free coefficients (B', beta', gamma).

    ``fixed`` supplies (E, A, alpha) from a completed from-scratch fit; those
    three values are not updated.
    """
    cfg = cfg or FitConfig()
    fixed_e, fixed_a, fixed_alpha = (float(v) for v in fixed)
    if not (fixed_e > 0 and fixed_a > 0 and fixed_alpha > 0):  # also rejects NaN
        raise ValidationError(f"fixed (E, A, alpha) must be positive, got {tuple(fixed)!r}")
    flat = _prepare(data, cfg)
    base = _q(math.log(fixed_a), 0.0, math.log(fixed_e), fixed_alpha, 1.0)  # b, beta' free
    grid = cfg.init_grid or _default_cpt_grid()
    objective, chosen, q = _fit_mask(flat, base, _CPT_FREE, grid, cfg.delta)
    params = ExtendedCptParams(
        E=fixed_e, A=fixed_a, alpha=fixed_alpha,
        B_prime=math.exp(q[1]), beta_prime=math.exp(q[4]), gamma=float(q[5]),
    )
    return _fit_report(params, objective, q, flat, chosen)


def extract_compute_frontier(
    data: RunSet, bins_per_decade: int = 10
) -> list[tuple[float, float]]:
    """Lowest loss per compute bin, Pareto-filtered to be strictly decreasing.

    Compute is binned in log10 space (``bins_per_decade`` bins per decade);
    each bin keeps its minimum-loss record at that record's actual compute.
    """
    if bins_per_decade < 1:
        raise DomainError(f"bins_per_decade must be at least 1, got {bins_per_decade!r}")
    best: dict[int, tuple[float, float]] = {}
    for run, rec in _fit_records(data):
        compute = FLOPS_PER_PARAM_TOKEN * run.param_count * rec.tokens
        key = math.floor(math.log10(compute) * bins_per_decade)
        incumbent = best.get(key)
        if incumbent is None or (rec.loss, compute) < incumbent:
            best[key] = (rec.loss, compute)
    if not best:
        raise ValidationError("cannot extract a frontier from an empty RunSet")

    frontier = []
    for loss, compute in sorted(best.values(), key=lambda item: item[1]):
        if not frontier or loss < frontier[-1][1]:
            frontier.append((compute, loss))
    return frontier


def fit_frontier(
    points: Sequence[tuple[float, float]], fix_offset_zero: bool = True
) -> FrontierParams:
    """Fit the loss-compute power law to (C, L) frontier points.

    With the offset fixed at zero this is linear regression in
    (log C, log L).  Otherwise it is a law fit with N := C and no data term,
    over the free coordinates (a, e, log alpha) = (log coefficient, log
    offset, log exponent) with the offset at most the lowest loss, started
    from the regression with the offset at ``OFFSET_FRACTIONS`` of that loss.
    """
    pts = [(float(c), float(l)) for c, l in points]
    if any(c <= 0 or l <= 0 for c, l in pts):
        raise DomainError("frontier points must have positive compute and loss")
    log_c = np.log([c for c, _ in pts])
    log_l = np.log([l for _, l in pts])
    if np.unique(log_c).size < 2:
        raise UnidentifiableDataError("frontier fitting requires two distinct compute values")

    slope, intercept = np.polyfit(log_c, log_l, 1)
    exponent = -float(slope)
    if abs(exponent) < 1e-12:  # flat data: suppress least-squares noise
        exponent = 0.0
    zero_offset = FrontierParams(
        coefficient=float(np.exp(intercept)), exponent=exponent, offset=0.0
    )
    # Flat data is fitted exactly by the zero-offset law (and a zero exponent
    # has no log).
    if fix_offset_zero or exponent == 0.0:
        return zero_offset

    # b = -inf switches the data term off: its weight exp(-inf - top) is
    # exactly 0, and so is its gradient.
    e_max = float(log_l.min())
    grid = [(float(intercept), e_max + math.log(frac), exponent) for frac in OFFSET_FRACTIONS]
    flat = (log_c, np.zeros_like(log_c), log_l)
    _, _, q = _fit_mask(
        flat, _q(0.0, -math.inf, 0.0, 1.0, 1.0), _FRONTIER_FREE, grid, DEFAULT_DELTA,
        bounds=[(None, None), (None, e_max), (None, None)],
    )
    return FrontierParams(
        coefficient=math.exp(q[0]), exponent=math.exp(q[3]), offset=math.exp(q[2])
    )


def compare_laws(data: RunSet, cfg: FitConfig | None = None) -> ModelComparison:
    """Fit both families to the same data and report their objectives.

    Stage one is the full five-coefficient from-scratch fit.  Stage two
    refits the extended family's complete coefficient set, warm-started from
    the stage-one solution (with the stage-one optimum at gamma = 0 included
    as a start, so the extended objective can never exceed the from-scratch
    objective).  The data-parameter exponent gamma is reported as fitted;
    fixing (E, A, alpha) here instead would leave gamma unidentifiable
    because a single RunSet cannot separate it from the stage-one bias.
    """
    cfg = cfg or FitConfig()
    flat = _prepare(data, cfg)
    scratch_report = _fit_scratch(flat, cfg)
    p = scratch_report.params
    # Natural start coordinates: (a, b', e, alpha, beta', gamma) with a, b',
    # e as log-coefficients, matching the scratch-grid convention.
    a1, b1, e1 = math.log(p.A), math.log(p.B), math.log(p.E)
    grid = [
        (a1, b, e1, p.alpha, beta, gamma)
        for b, beta, gamma in [(b1, p.beta, 0.0), *_default_cpt_grid()]
    ]
    extended_error, _, q = _fit_mask(flat, np.zeros(6), _ALL_FREE, grid, cfg.delta)
    return ModelComparison(
        chinchilla_error=scratch_report.objective,
        extended_error=extended_error,
        gamma_fitted=float(q[5]),
    )


def fit_report_to_dict(report: FitReport) -> dict:
    """Serialize a FitReport (without residuals) to a JSON-compatible dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit_report",
        "params": law_to_dict(report.params),
        "objective": report.objective,
        "n_points": report.n_points,
        "chosen_init": list(report.chosen_init),
    }


def export_residuals_csv(report: FitReport, data: RunSet, path, warmup_fraction: float = 0.0):
    """Write per-record residuals as CSV.

    Pass the same RunSet and warmup fraction used for the fit so rows align
    with ``report.residuals``.
    """
    data = _apply_warmup(data, warmup_fraction)
    rows = list(_fit_records(data))
    if len(rows) != report.n_points:
        raise ValidationError(
            f"data yields {len(rows)} records but the report covers {report.n_points}"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_id", "tokens", "predicted_log_loss", "observed_log_loss", "residual"]
        )
        for (run, rec), residual in zip(rows, report.residuals):
            observed = math.log(rec.loss)
            writer.writerow(
                [run.id, rec.tokens, f"{observed + residual:.12g}", f"{observed:.12g}", f"{residual:.12g}"]
            )
