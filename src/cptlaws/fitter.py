"""Robust multistart fitting of the scaling-law families.

The objective is the mean Huber loss between predicted and observed log
loss, with the prediction expressed as a log-sum-exp over the extended law's
three additive terms in log space, (a - alpha log N), (b - beta log D - gamma
log N) and e.  The kernel shifts by the largest term, takes one exp per term,
and reuses those weights for the exact Jacobian (their normalized values are
the softmax weights of the terms).  It works over the optimizer coordinates
q = (a, b, e, log alpha, log beta, gamma); the from-scratch law is the case
gamma = 0, and the free-offset loss-compute frontier (``fit_offset_frontier``)
is the one-term case N := C with the data term switched off (b = -inf).  The
zero-offset frontier is a least-squares line, fitted in ``transfer`` without
numpy; it also gives the free-offset fit its starts.  Every fit is
``_fit_law`` of a law record type, whose fields ``_POSITION`` places in q,
each with its kind; ``FitConfig`` says how each kind is fitted and how a start
point lists the free fields.

Every fit runs a deterministic grid of starts through three phases.  The
default grids give each law term a set share of the loss at the median
record, so no term starts dead whatever the data's scale.  First, all starts
advance together through a damped Gauss-Newton (Levenberg-Marquardt) stage
on the IRLS-weighted Huber residuals (``_gauss_newton``).  Second, the best
basin, the starts within ``_BASIN_TOLERANCE`` relative of the lowest stage
objective, goes through a finish pass of the same iteration with
Huber-Newton weights.  Third, each finish endpoint goes to L-BFGS-B on the
same value and gradient (``minimize``, which loads scipy only when a search
has an iteration to take).  A fit keeps its starts in one record,
``_Population``, whose winner is the lowest-objective finished start (the
smallest grid point on ties).  The three phases never read the data: they
call a system, ``system(x, newton)``, which gives each row of x the mean
objective over the n records, J^T W J and J^T huber'(r), and read n only to
turn those sums into means.  ``_fit_law`` passes one log's system,
``_log_system``, which evaluates the kernel ``_law_system`` in row blocks;
a fit over several logs or weighted records is another such system.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    FitFailureError,
    UnidentifiableDataError,
    ValidationError,
)
from .ingest import RunSet, warmup_filter
from .laws import (_ABOVE_ZERO, _BELOW_ONE, _FIELDS, ChinchillaParams, ExtendedCptParams,
                   FrontierParams, _as_tuple, _checked, _exp_coefficients, _finite_float,
                   _finite_floats, _hold, _loss_law, _nonnegative_float, _positive_float,
                   _positive_floats)

#: Default Huber threshold on log-loss residuals.
DEFAULT_DELTA = 1e-3

# Cap on log-exponent coordinates during optimization; keeps exp() finite
# when a line search probes far out (any exponent near e^50 is meaningless).
# The kernel evaluates a log-exponent at or past it as the cap, with slope 0,
# so a fit that ends there is a FitFailureError (``_fitted_exponents``): its
# objective is not that of the reported law, no step moved the exponent, and
# the data do not determine it.
_LOG_EXPONENT_CAP = 50.0


def _fitted_exponents(**logs: float) -> dict[str, float]:
    """exp of each named fitted log-exponent, raising ``FitFailureError`` at or past ``_LOG_EXPONENT_CAP``."""
    for name, x in logs.items():
        if not x < _LOG_EXPONENT_CAP:  # also rejects NaN
            raise FitFailureError(f"fitted {name} = exp({x:.6g}) is at or past the exponent cap "
                                  f"exp({_LOG_EXPONENT_CAP:g}): the data do not determine it")
    return _exp_coefficients(**logs)


class _Kind(NamedTuple):
    """How the law fields of one kind sit in q."""

    check: Callable[[object, str], float]  # the converter of the rule a held value meets
    held: Callable[[float], float]  # q of a held value
    start: Callable[[float], float]  # q of a start point's value
    # {field: value} of {field: q}, a FitFailureError where the data do not determine it
    fitted: Callable[..., dict]
    absent: float  # q at a place the law has no field for


# An absent coefficient is off: its term's weight exp(-inf - top) and its
# gradient are exactly 0.
_COEFFICIENT = _Kind(_positive_float, math.log, float, _exp_coefficients, -math.inf)
_EXPONENT = _Kind(_positive_float, math.log, math.log, _fitted_exponents, 0.0)
_RAW = _Kind(_finite_float, float, float, dict, 0.0)  # gamma, whose q is the field itself

# The kind of each place of q = (a, b, e, log alpha, log beta, gamma), and each
# law field's place (``laws._FIELDS``) and kind.
_KINDS = (_COEFFICIENT,) * 3 + (_EXPONENT,) * 2 + (_RAW,)
_POSITION = {name: (place, _KINDS[place]) for name, (place, _) in _FIELDS.items()}
_TERM_OF = (0, 1, 2, 0, 1, 1)  # the law term (N, D, offset) each q position enters

# Options of every local search.  The Newton finish takes at most maxiter
# trials.
_LBFGSB_OPTIONS = {"maxiter": 300, "ftol": 1e-11, "gtol": 1e-10, "maxls": 50}
# The Newton finish stops 1000 times below L-BFGS-B's gtol.  The noisy fits
# have a flat direction (J^T W J has condition number ~1e7 on the sigma =
# 0.01 scratch replica), along which an endpoint at gtol can still lie 1e-7
# relative off the optimum: on the seed 1 replica the finished starts whose
# objectives agree to 1e-12 spread over 1.2e-7 in E at a finish gtol of
# 1e-10, 2.7e-8 at 1e-12 and 2.9e-9 at 1e-13.
_FINISH_GTOL = 1e-3 * _LBFGSB_OPTIONS["gtol"]

# The Gauss-Newton stage ahead of the finish.  A stage shares _GN_ROW_TRIALS
# out evenly over its starts: the default 96-start scratch grid gets the 30
# trials each that the sweeps of BENCH_7.json chose, the 16-start CPT grid 180
# and compare_laws' 17-start extended grid 169, and a stage with few starts
# runs until its stop rules end it (the 2-start free-offset frontier needs
# about 100 of its 1,440).  The one-log system (``_log_system``, which holds
# the row split because it depends on the data's size; the optimizer never
# sees it) evaluates at most _GN_BLOCK_ELEMENTS // n running starts of n
# records in one ``_law_system`` call (one start on a 42k-record log), and so
# bounds the buffers the call allocates: seven (rows, records) float arrays,
# a mask and the Jacobian, 2.6 MB at 32 rows.  The kernel writes every array
# of the data's size into those buffers in place.  That style is what keeps
# the heap quiet: on the 840-record scratch replica (2-CPU host, Python 3.11,
# numpy 2.4) a second fit_scratch in one process took 7 minor page faults,
# and 65,000-80,000 with the same arithmetic written as plain expressions,
# whose temporaries glibc trims and faults in again.
# Larger calls only cut the Python overhead per step, and they cost RSS: there
# fit_scratch took 1.56 s at 9 rows, 1.24 s at 16, 1.13 s at 24, 1.11 s at
# 32, 1.08 s at 40 and 1.04 s at 64 (BENCH_13.json), while peak RSS grew by
# 0.08 MB a row.
_GN_ROW_TRIALS = 30 * 96
_GN_BLOCK_ELEMENTS = 27_000
_GN_TOLERANCE = 1e-10  # relative decrease and relative step that end a start's stage
_GN_DAMPING = 0.1  # initial damping of the curvature-scaled system
_GN_DAMPING_FLOOR = 1e-10  # keeps the damped system nonsingular
_GN_CURVATURE_FLOOR = 1e-8  # smallest curvature scale, relative to the largest

# A start is in the best basin when its Gauss-Newton stage objective is within
# this fraction of the lowest one; only those starts are finished.
_BASIN_TOLERANCE = 1e-3

# Default start grids, built from the data (``_default_grid``): each start sets
# the free coefficients so that every law term takes a given share of the loss
# at the median record.
EXPONENT_STARTS = (0.1, 0.3, 0.5, 0.7)
GAMMA_STARTS = (-0.1, 0.0, 0.1, 0.2)
OFFSET_FRACTIONS = (0.5, 0.9)  # E starts at these fractions of the lowest observed loss
TERM_SHARES = (0.25, 0.5, 0.75)  # the N-term's share of the loss above E; the D-term takes the rest
# The free coefficient terms take at least this share of the median loss, also
# where the held terms (which may come from another fit) leave less or none.
_MIN_DATA_SHARE = 1e-3


def _start_grid(grid, name: str):
    """``grid`` as a nonempty tuple of points of floats, or None."""
    if grid is not None and not (grid := _as_tuple(grid, name, _as_tuple)):
        raise ValidationError(f"{name} must be nonempty when given")
    return grid


@dataclass(frozen=True)
class FitConfig:
    """Fitting knobs: Huber threshold, start grid, and warmup filter.

    A law field is a coefficient (A, B, B', E, the frontier's coefficient and
    offset) or an exponent (alpha, beta, beta', the frontier's exponent),
    fitted as its log so that it stays positive, or gamma, fitted as itself.
    A start point lists the free fields in the order A, B or B', E, alpha,
    beta or beta', gamma, a coefficient as its log and an exponent or gamma as
    itself: (log A, log B, log E, alpha, beta) for the from-scratch law and
    (log B', beta', gamma) for the CPT law.  ``init_grid`` lists such points;
    when omitted, each term starts with a set share of the median loss.
    """

    delta: float = DEFAULT_DELTA
    init_grid: tuple[tuple[float, ...], ...] | None = None
    warmup_fraction: float = 0.0

    def __post_init__(self):
        # An infinite delta gives a least-squares fit.
        _hold(self, delta=partial(_checked, rule=_ABOVE_ZERO), init_grid=_start_grid,
              warmup_fraction=partial(_checked, rule=_BELOW_ONE))


@dataclass(frozen=True)
class FitReport:
    """A fitted law plus the objective value and per-record diagnostics.

    ``residuals`` are predicted minus observed log loss, aligned with the
    records the fit actually used (main-series records, in size order, after
    any warmup filtering).  They and ``chosen_init`` are finite floats.
    """

    params: ChinchillaParams | ExtendedCptParams
    objective: float
    residuals: tuple[float, ...]
    chosen_init: tuple[float, ...]

    def __post_init__(self):
        _hold(self, params=_loss_law, objective=_nonnegative_float, residuals=_finite_floats,
              chosen_init=_finite_floats)

    @property
    def n_points(self) -> int:
        """The number of records the fit used, one residual each."""
        return len(self.residuals)


@dataclass(frozen=True)
class ModelComparison:
    """Mean Huber objectives of both law families on the same data."""

    chinchilla_error: float
    extended_error: float
    gamma_fitted: float

    def __post_init__(self):
        _hold(self, chinchilla_error=_nonnegative_float, extended_error=_nonnegative_float,
              gamma_fitted=_finite_float)


def _fit_records(data: RunSet, warmup_fraction: float = 0.0) -> list:
    """(run, record) pairs of a fit: each run's main series after ``warmup_filter``, in size order.

    Runs are sorted by size, then by their series' (tokens, loss) pairs, so the
    order of a log's lines cannot move a fit.
    """
    series = [(run, warmup_filter(run, warmup_fraction).main_series()) for run in data]
    series.sort(key=lambda item: (item[0].param_count, [(r.tokens, r.loss) for r in item[1]]))
    return [(run, rec) for run, records in series for rec in records]


def _flatten(data: RunSet, warmup_fraction: float = 0.0) -> tuple[np.ndarray, ...]:
    """log N, log D and log L of every record a fit uses."""
    rows = [(run.param_count, rec.tokens, rec.loss)
            for run, rec in _fit_records(data, warmup_fraction)]
    if not rows:
        raise UnidentifiableDataError("RunSet contains no usable records")
    return tuple(np.log(np.asarray(column, dtype=float)) for column in zip(*rows))


def _q(a, b, e, alpha, beta, gamma=0.0) -> np.ndarray:
    """Optimizer coordinates of a start point (a, b, e, alpha, beta, gamma) over all of q."""
    return np.array([kind.start(value) for kind, value in zip(_KINDS, (a, b, e, alpha, beta, gamma))])


def _law_terms(q: np.ndarray, log_n, log_d, out):
    """The extended law's log-sum-exp at q: prediction, term weights, their sum, exponent slopes.

    q is one point (shape (6,)) or one point per row (shape (S, 6)); every
    returned array has the matching leading shape.  The prediction (predicted
    log loss) is top + log(w_n + w_d + w_e), with top the largest of the three
    terms and each weight exp(term - top), so every term costs one exp; a
    term's softmax weight is w / (w_n + w_d + w_e).  The slopes are
    d(alpha, beta)/d(log alpha, log beta): the exponent itself, or 0 past
    ``_LOG_EXPONENT_CAP``.  ``out``, six arrays of the prediction's shape,
    receives the three weights, top, the sum and the prediction, in place.
    """
    log_exponents = q[..., 3:5]
    exponents = np.exp(np.minimum(log_exponents, _LOG_EXPONENT_CAP))
    a, b, e, _, _, gamma = q.T[..., None]
    alpha, beta = exponents.T[..., None]
    term_n, term_d, term_e, top, total, prediction = out
    # Each term turns into its weight in place; top holds gamma log N until
    # it is formed.
    np.subtract(a, np.multiply(alpha, log_n, out=term_n), out=term_n)
    np.subtract(b, np.multiply(beta, log_d, out=term_d), out=term_d)
    term_d -= np.multiply(gamma, log_n, out=top)
    np.maximum(np.maximum(term_n, term_d, out=top), e, out=top)
    term_n -= top
    term_d -= top
    np.subtract(e, top, out=term_e)
    weights = (np.exp(term_n, out=term_n), np.exp(term_d, out=term_d),
               np.exp(term_e, out=term_e))
    np.add(weights[0], weights[1], out=total)
    total += weights[2]
    np.log(total, out=prediction)
    prediction += top
    slopes = np.where(log_exponents < _LOG_EXPONENT_CAP, exponents, 0.0)
    return prediction, weights, total, slopes


def _residuals(q: np.ndarray, flat) -> np.ndarray:
    """Predicted minus observed log loss of the extended law at one point q."""
    log_n, log_d, log_l = flat
    return _law_terms(q, log_n, log_d, np.empty((6, log_l.size)))[0] - log_l


def _law_system(x: np.ndarray, base: np.ndarray, free: list[int], flat, delta: float,
                newton: bool = False):
    """Huber objective, Gauss-Newton matrix J^T W J and gradient J^T huber'(r) at each row of x.

    Row s is the point q = ``base`` with q[free] = x[s].  The objective is the
    mean over records of each residual r's Huber penalty, c (r - c/2) with c =
    clip(r, -delta, delta) its derivative: quadratic inside |r| <= delta,
    linear with matched slope outside.  Both sums run over records, so the
    mean's gradient is the returned one divided by the record count.  J is the
    Jacobian of the prediction in q[free].  W holds the IRLS weights (1 where
    |r| <= delta, delta / |r| elsewhere), or with ``newton`` the penalty's
    second derivative (1 where |r| <= delta, 0 elsewhere).  The call allocates
    its buffers once, for len(x) rows, and writes every array of the data's
    size into them in place (``_GN_BLOCK_ELEMENTS`` says why).
    """
    log_n, log_d, log_l = flat
    rows, n = len(x), log_l.size
    arrays, mask = np.empty((7, rows, n)), np.empty((rows, n), dtype=bool)
    jac = np.empty((rows, len(free), n))
    q = np.repeat(base[None, :], rows, axis=0)
    q[:, free] = x
    prediction, weights, total, slopes = _law_terms(q, log_n, log_d, arrays[:6])
    # arrays[3] held top, which the prediction no longer needs.
    slope, spare = arrays[3], arrays[6]
    residuals = np.subtract(prediction, log_l, out=prediction)
    np.clip(residuals, -delta, delta, out=slope)
    np.subtract(residuals, np.multiply(0.5, slope, out=spare), out=spare)
    value = np.einsum("ij,ij->i", slope, spare) / n
    # Column i of J is a term's softmax weight, weight / total, times the
    # term's derivative in q_i: 1 in (a, b, e), and -alpha log N, -beta log D
    # and -log N in (log alpha, log beta, gamma).  With the IRLS weights both
    # sums are formed from sqrt(W) J, as huber'(r) = W r; the Newton weights
    # are 0 or 1, so the gradient is formed from J and the matrix from W J.
    root = spare
    if newton:
        scale = np.divide(1.0, total, out=total)
    else:
        root.fill(1.0)
        np.divide(slope, residuals, out=root, where=np.not_equal(residuals, 0, out=mask))
        np.sqrt(root, out=root)
        scale = np.divide(root, total, out=total)
    for weight in weights:
        weight *= scale
    derivatives = {3: (-slopes[:, :1], log_n), 4: (-slopes[:, 1:], log_d), 5: (-1.0, log_n)}
    for column, i in enumerate(free):
        if i in derivatives:
            np.multiply(*derivatives[i], out=jac[:, column])
            jac[:, column] *= weights[_TERM_OF[i]]
        else:
            jac[:, column] = weights[_TERM_OF[i]]
    if newton:
        grad = (jac @ slope[:, :, None])[:, :, 0]
        jac *= np.less_equal(np.abs(residuals, out=root), delta, out=mask)[:, None, :]
    else:
        residuals *= root
        grad = (jac @ residuals[:, :, None])[:, :, 0]
    return value, jac @ jac.transpose(0, 2, 1), grad


def _log_system(flat, base: np.ndarray, free: list[int], delta: float):
    """``system(x, newton)`` of one log: ``_law_system`` at q = base, q[free] = x, in row blocks.

    Each block is at most ``_GN_BLOCK_ELEMENTS // n`` rows of n records.  No
    row's arithmetic reads another row, so the split moves no result.
    """
    rows = max(1, _GN_BLOCK_ELEMENTS // flat[2].size)

    def system(x: np.ndarray, newton: bool):
        calls = [_law_system(x[i:i + rows], base, free, flat, delta, newton)
                 for i in range(0, len(x), rows)]
        return tuple(np.concatenate(parts) for parts in zip(*calls))

    return system


def objective_scratch(theta: Sequence[float], data: RunSet, delta: float = DEFAULT_DELTA) -> float:
    """Mean Huber loss of the from-scratch law at theta = (a, b, e, alpha, beta), a start point.

    This is the value of the kernel every fit minimizes, ``_law_system``, with
    no coordinate free.  Nonpositive losses cannot occur here; ingest rejects
    them at load time.
    """
    a, b, e, alpha, beta = _as_tuple(theta, "theta", length=5)
    alpha = _positive_float(alpha, "alpha", error=DomainError)
    beta = _positive_float(beta, "beta", error=DomainError)
    delta = _checked(delta, "delta", _ABOVE_ZERO, DomainError)
    q = _q(a, b, e, alpha, beta)
    return float(_law_system(np.empty((1, 0)), q, [], _flatten(data), delta)[0][0])


class _SearchResult(dict):
    """A local search's result: a dict whose keys also read as attributes, like scipy's."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize(fun, x0, **kwargs)``, answering a converged L-BFGS-B start itself.

    For ``method="L-BFGS-B"`` with ``jac=True``, ``fun`` is evaluated at x0
    first.  When x0 lies in ``bounds`` and every component of the projected
    gradient there (``_projected_gradient``) is finite and at most
    ``options["gtol"]`` (scipy's default 1e-5 when not given), L-BFGS-B would
    stop before its first iteration: that is its convergence test.  The
    result is then the one scipy returns at iteration 0, built here: ``x`` a
    copy of x0, the objective and gradient there, ``nfev = njev = 1``,
    ``nit = 0`` and ``success``.  Any other call goes to scipy, imported on
    first use, so a fit whose starts all arrive converged never loads it; a
    start scipy does iterate costs one extra evaluation, which its counts do
    not include.
    """
    if kwargs.get("method") == "L-BFGS-B" and kwargs.get("jac") is True:
        x = np.array(x0, dtype=float)
        value, grad = fun(x.copy())
        lower, upper = _bound_arrays(kwargs.get("bounds"))
        gtol = (kwargs.get("options") or {}).get("gtol", 1e-5)
        # abs(nan) <= gtol is false, so a non-finite gradient goes to scipy.
        if (math.isfinite(value) and np.all((lower <= x) & (x <= upper))
                and np.all(np.abs(_projected_gradient(x, grad, lower, upper)) <= gtol)):
            return _SearchResult(
                fun=value, jac=np.asarray(grad, dtype=float), nfev=1, njev=1, nit=0, status=0,
                message="CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL", x=x, success=True,
            )
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _projected_gradient(x, grad, lower, upper):
    """L-BFGS-B's projected gradient at x (in bounds): each component is cut to its distance to the bound.

    The step -grad is clipped to the box, so a component with grad < 0 is cut
    to x - upper and one with grad > 0 to x - lower, whichever is smaller in
    size; on a bound the outward component is 0 (Byrd, Lu, Nocedal and Zhu
    1995).
    """
    return np.where(grad < 0, np.maximum(x - upper, grad), np.minimum(x - lower, grad))


def _bound_arrays(bounds):
    """Lower and upper bounds of L-BFGS-B-style (lo, hi) pairs, None meaning unbounded."""
    if bounds is None:
        return -math.inf, math.inf
    return (np.array([-math.inf if lo is None else lo for lo, _ in bounds]),
            np.array([math.inf if hi is None else hi for _, hi in bounds]))


class _Pass(NamedTuple):
    """One ``_gauss_newton`` pass, one entry per start: endpoint, objective, trials and stop rule."""

    x: np.ndarray
    values: np.ndarray
    trials: np.ndarray
    stops: np.ndarray


def _gauss_newton(system, n: int, x0: np.ndarray, bounds=None, finish: bool = False) -> _Pass:
    """Advance every start (one row of x0) by damped Gauss-Newton steps on ``system``.

    ``system(x, newton)`` gives each row of x the mean objective over n records
    and the sums J^T W J and J^T huber'(r), with Newton weights when
    ``newton`` (``_law_system``'s contract).  The pass never reads the data,
    and reads n only for the mean gradient and the predicted decrease; the
    system splits its rows as the data need (``_log_system``).  Returns a
    ``_Pass``: each start's endpoint, objective, trial points and stop rule,
    over ``len(x0) + trials.sum()`` system rows.  A start whose
    objective is not finite at x0 stays put, stopped as "non-finite".

    This is Levenberg-Marquardt on the IRLS-weighted Huber residuals (weight
    1 where |r| <= delta, delta / |r| elsewhere).  Each iteration steps the
    starts still running, clips their trial points into ``bounds`` (L-BFGS-B
    form) and evaluates them in one system call.  A start takes a trial only
    when its objective is finite and lower, and stops on a relative decrease
    of at most ``_GN_TOLERANCE`` ("decrease"), a step of at most
    ``_GN_TOLERANCE`` (1 + |x|) in every coordinate ("step"), or after its
    share of ``_GN_ROW_TRIALS``, the same number of trials for every start
    ("budget").  The damping follows Nielsen's rule (Madsen, Nielsen and
    Tingleff, Methods for Non-linear Least Squares Problems, 2004): a taken
    step scales it by max(1/3, 1 - (2 rho - 1)^3), rho being the actual over
    the predicted decrease clipped to [0, 1]; a refused one multiplies it by
    a factor that doubles with each refusal in a row.

    With ``finish`` the iteration is a Huber-Newton one instead: the weights
    are the penalty's second derivative (1 where |r| <= delta, 0 elsewhere;
    Madsen and Nielsen 1990), which converges quadratically where IRLS
    converges linearly.  A start then stops once the largest component of
    its mean objective's projected gradient is within ``_FINISH_GTOL``
    ("gtol"), on the step rule, or after L-BFGS-B's ``maxiter`` trials; there
    is no relative-decrease rule.  No row's arithmetic reads another row, so
    the pass does not depend on the order of the starts.
    """
    lower, upper = _bound_arrays(bounds)
    if finish:
        budget, gtol = _LBFGSB_OPTIONS["maxiter"], _FINISH_GTOL
    else:
        budget, gtol = max(1, _GN_ROW_TRIALS // len(x0)), None

    def leave(running: np.ndarray, keep: np.ndarray, rule: str) -> np.ndarray:
        stops[running[~keep]] = rule  # the starts that do not keep running stop on this rule
        return running[keep]

    x = x0.copy()
    value, hess, grad = system(x, finish)
    eye = np.eye(x.shape[1])
    damping = np.full(len(x), _GN_DAMPING)
    growth = np.full(len(x), 2.0)
    running = np.flatnonzero(np.isfinite(value))
    trials = np.zeros(len(x), dtype=int)
    stops = np.where(np.isfinite(value), "budget", "non-finite")
    for _ in range(budget):
        if gtol is not None:
            projected = _projected_gradient(x[running], grad[running] / n, lower, upper)
            running = leave(running, np.abs(projected).max(axis=1) > gtol, "gtol")
        xr, hr, gr = x[running], hess[running], grad[running]
        # Marquardt's scaling: each coordinate is damped in proportion to its
        # curvature, floored at _GN_CURVATURE_FLOOR of the largest so that a
        # nearly flat coordinate cannot take an unbounded step.  A start with
        # no curvature at all gets no step and stops.
        curvature = np.diagonal(hr, axis1=1, axis2=2)
        curvature = np.maximum(curvature, _GN_CURVATURE_FLOOR * curvature.max(axis=1, keepdims=True))
        scale = np.divide(1.0, np.sqrt(curvature), out=np.zeros_like(curvature),
                          where=curvature > 0)
        # A coordinate on its bound whose descent direction points out of the
        # box takes no step, and the others are solved without it: a projected
        # Levenberg-Marquardt step (Kanzow, Yamashita and Fukushima 2004).
        scale[((xr <= lower) & (gr > 0)) | ((xr >= upper) & (gr < 0))] = 0.0
        matrix = hr * scale[:, :, None] * scale[:, None, :] + damping[running, None, None] * eye
        step = -scale * np.linalg.solve(matrix, (scale * gr)[:, :, None])[:, :, 0]
        trial = np.clip(xr + step, lower, upper)
        step = trial - xr
        moving = (np.abs(step) > _GN_TOLERANCE * (1.0 + np.abs(xr))).any(axis=1)
        stops[running[~moving]] = "step"
        running, trial, step, hr, gr = (a[moving] for a in (running, trial, step, hr, gr))
        if not running.size:
            break
        trials[running] += 1
        # Decrease of the quadratic model, in units of n * objective.
        predicted = -(np.einsum("ij,ij->i", gr, step)
                      + 0.5 * (step[:, None, :] @ hr @ step[:, :, None])[:, 0, 0])
        trial_value, trial_hess, trial_grad = system(trial, finish)
        better = np.isfinite(trial_value) & (trial_value < value[running])
        decrease = np.subtract(value[running], trial_value, out=np.zeros_like(trial_value),
                               where=better)
        ratio = np.divide(n * decrease, predicted, out=np.zeros_like(predicted),
                          where=better & (predicted > 0))
        factor = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.clip(ratio, 0.0, 1.0) - 1.0) ** 3)
        damping[running] = np.maximum(damping[running] * np.where(better, factor, growth[running]),
                                      _GN_DAMPING_FLOOR)
        growth[running] = np.where(better, 2.0, 2.0 * growth[running])
        taken = running[better]
        x[taken], value[taken] = trial[better], trial_value[better]
        hess[taken], grad[taken] = trial_hess[better], trial_grad[better]
        if gtol is None:
            running = leave(running, ~better | (decrease > _GN_TOLERANCE * value[running]), "decrease")
    return _Pass(x, value, trials, stops)


def _best_basin(values: np.ndarray) -> np.ndarray:
    """Indices of the starts whose objective is within ``_BASIN_TOLERANCE`` relative of the lowest.

    A non-finite objective is never in the basin.
    """
    finite = np.isfinite(values)
    if not finite.any():
        raise FitFailureError("no optimizer start has a finite objective")
    best = values[finite].min()
    return np.flatnonzero(finite & (values - best <= _BASIN_TOLERANCE * best))


def _law_starts(grid, names: list[str]) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """(grid point, optimizer start) pairs for the law fields ``names``, given in q order."""
    shape = f"{len(names)} coordinates ({', '.join(names)})"
    kinds = [_POSITION[name][1] for name in names]
    starts = []
    for point in grid:
        if len(point) != len(names):
            raise ValidationError(f"starts need {shape}, got {point!r}")
        if not all(math.isfinite(value) for value in point):
            raise ValidationError(f"start {point!r}: coordinates must be finite")
        if any(value <= 0 for value, kind in zip(point, kinds) if kind is _EXPONENT):
            raise ValidationError(f"start {point!r}: exponents must be positive")
        starts.append((tuple(point), np.array([kind.start(v) for v, kind in zip(point, kinds)])))
    return starts


@dataclass(frozen=True)
class _Population:
    """A ``_fit_mask`` call's starts: the stage over ``keys``, its ``basin``, their ``finish``,
    L-BFGS-B's ``searches`` from it, and the winner's ``objective``, ``chosen`` and ``x``."""

    keys: tuple
    stage: _Pass
    basin: np.ndarray
    finish: _Pass
    searches: tuple
    objective: float
    chosen: tuple
    x: np.ndarray


def _fit_mask(system, n: int, starts, bounds=None):
    """Minimize ``system`` from every (grid point, x0) start; return its ``_Population``.

    ``system`` and n are ``_gauss_newton``'s, so the fit never reads the
    data.  The Gauss-Newton stage advances every start; each one that ends it
    in the best basin goes through the Newton finish and then L-BFGS-B.
    ``bounds`` are L-BFGS-B bounds on x.  The winner, in the system's
    coordinates, is a deterministic reduction: lowest objective, ties broken
    by the smallest grid point.
    """

    def fun(x: np.ndarray):
        value, _, grad = system(x[None], False)
        return value[0], grad[0] / n

    keys, x0 = zip(*starts)
    stage = _gauss_newton(system, n, np.array(x0), bounds)
    basin = _best_basin(stage.values)
    finish = _gauss_newton(system, n, stage.x[basin], bounds, finish=True)
    searches = tuple(minimize(fun, x, jac=True, method="L-BFGS-B", bounds=bounds,
                              options=_LBFGSB_OPTIONS) for x in finish.x)
    finished = [(float(res.fun), keys[i], res) for i, res in zip(basin, searches)
                if res.success and math.isfinite(res.fun)]
    if not finished:
        raise FitFailureError("no optimizer start converged; diagnostics:\n  " + "\n  ".join(
            f"start {keys[i]}: {res.message}" for i, res in zip(basin, searches)))
    objective, chosen, res = min(finished, key=lambda item: item[:2])
    return _Population(keys, stage, basin, finish, searches, objective, chosen, res.x)


# The records separate the N-term from the D-term only where log D varies
# apart from log N.  A log D that is a line in log N keeps about that line at
# most what rounding leaves: each token count rounded to a whole number moves
# log D by up to 0.5 / D, whose root mean square over the records bounds the
# residual's, and the float logs add under this much for any log D in float
# range.  At or below that bound the design cannot tell the terms apart.  On
# the paper's scratch replica, keeping only each run's final record (every
# record at D = 20 N) leaves 3.2e-15, where a fit returned alpha and beta
# swapped with an objective of 3.5e-15; two records a run leave 0.12 and all
# 20 leave 1.40, and both fits are exact.
_FLOAT_SPREAD = 1e-12


def _prepare(data: RunSet, cfg: FitConfig):
    """The (log N, log D, log L) arrays a law fit uses, after the warmup filter.

    The records must hold two distinct model sizes and token counts that vary
    apart from them by more than rounding (``_FLOAT_SPREAD``), or the fit is
    an ``UnidentifiableDataError``.
    """
    log_n, log_d, log_l = _flatten(data, cfg.warmup_fraction)
    # Not np.unique: under numpy 2 its first call imports numpy.ma.
    if not log_n.min() < log_n.max():
        raise UnidentifiableDataError("fitting requires at least two distinct model sizes")
    centred_n, centred_d = log_n - log_n.mean(), log_d - log_d.mean()
    residual = centred_d - (centred_n @ centred_d) / (centred_n @ centred_n) * centred_n
    spread = math.sqrt(residual @ residual / residual.size)
    if not spread > 0.5 * math.sqrt(np.exp(-2.0 * log_d).mean()) + _FLOAT_SPREAD:
        raise UnidentifiableDataError(
            f"fitting requires token counts that vary apart from the model sizes, such as "
            f"several records a run: log D is a line in log N up to rounding (residual spread {spread:.2g}), "
            f"so the data cannot separate the N-term from the D-term"
        )
    return log_n, log_d, log_l


def _median(values: np.ndarray) -> float:
    """np.median of a NaN-free array, bit for bit, without its import of numpy.ma (numpy 2)."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def _median_record(flat) -> tuple[float, float, float]:
    """Median log N, median log D and the loss at the median log loss of the fit's records."""
    log_n, log_d, log_l = (_median(values) for values in flat)
    return log_n, log_d, math.exp(log_l)


def _default_grid(flat, free: list[int], given: dict[int, float]) -> list[tuple[float, ...]]:
    """Start points of the q places ``free`` (in q order), given the held field values by place.

    At the median record each term takes a set share of the loss: a free E each
    of ``OFFSET_FRACTIONS`` of the lowest loss, the free coefficient terms what
    E and the held terms leave (split by ``TERM_SHARES`` when both are free).
    Free exponents range over ``EXPONENT_STARTS``, a free gamma over
    ``GAMMA_STARTS``, and a field the law lacks is 0.
    """
    log_n, log_d, loss = _median_record(flat)
    offsets = [fraction * math.exp(flat[2].min()) for fraction in OFFSET_FRACTIONS]
    axes = [values if place in free else [given.get(place, 0.0)] for place, values in
            zip((2, 3, 4, 5), (offsets, EXPONENT_STARTS, EXPONENT_STARTS, GAMMA_STARTS))]
    # The N-term's share of the rest; a lone free coefficient term takes all of it.
    shares = TERM_SHARES if {0, 1} <= set(free) else [0.0 if 1 in free else 1.0]
    grid = []
    for e, share, alpha, beta, gamma in product(axes[0], shares, *axes[1:]):
        held_n = given[0] * math.exp(-alpha * log_n) if 0 in given else 0.0
        held_d = given[1] * math.exp(-beta * log_d - gamma * log_n) if 1 in given else 0.0
        rest = max(loss - e - held_n - held_d, _MIN_DATA_SHARE * loss)
        a = math.log(share * rest) + alpha * log_n if 0 in free else None
        b = math.log((1.0 - share) * rest) + beta * log_d + gamma * log_n if 1 in free else None
        grid.append(tuple((a, b, math.log(e), alpha, beta, gamma)[place] for place in free))
    return grid


def _fit_law(law, flat, grid, delta: float, bounds=None, **held):
    """Fit the law record type ``law``'s fields not in ``held``: the record, its q and the ``_Population``.

    The free fields start from ``grid`` (``_default_grid``'s when None), with
    L-BFGS-B ``bounds`` on them; q holds each held field, at a value its kind
    can take, and each field ``law`` lacks at its kind's ``absent``.
    """
    field_at = {_POSITION[field.name][0]: field.name for field in fields(law)}  # in field order
    for name in held:
        if name not in field_at.values():
            raise ValidationError(f"{name} is not a field of {law.__name__}")
    given = {_POSITION[name][0]: _POSITION[name][1].check(value, name)
             for name, value in held.items()}
    free = [place for place in sorted(field_at) if place not in given]
    q = np.array([0.0 if place in field_at else kind.absent for place, kind in enumerate(_KINDS)])
    for place, value in given.items():
        q[place] = _KINDS[place].held(value)
    starts = _law_starts(grid or _default_grid(flat, free, given), [field_at[place] for place in free])
    fit = _fit_mask(_log_system(flat, q, free, delta), flat[2].size, starts, bounds)
    q[free] = fit.x
    values = {}  # in field order: a held field as given, a fitted one from q
    for place, name in field_at.items():
        values.update({name: given[place]} if place in given else
                      _KINDS[place].fitted(**{name: q[place]}))
    return law(**values), q, fit


def _fit_report(law, flat, grid, delta: float, **held) -> FitReport:
    """``_fit_law``'s record and objective, its chosen start, and its residuals on the ``flat`` data."""
    params, q, fit = _fit_law(law, flat, grid, delta, **held)
    return FitReport(params=params, objective=fit.objective,
                     residuals=tuple(_residuals(q, flat).tolist()), chosen_init=fit.chosen)


def fit_scratch(data: RunSet, cfg: FitConfig | None = None) -> FitReport:
    """Fit the from-scratch law to a RunSet via the multistart procedure."""
    cfg = cfg or FitConfig()
    return _fit_report(ChinchillaParams, _prepare(data, cfg), cfg.init_grid, cfg.delta)


def fit_cpt(data: RunSet, fixed: Sequence[float], cfg: FitConfig | None = None) -> FitReport:
    """Fit the CPT law's free coefficients (B', beta', gamma).

    ``fixed`` supplies (E, A, alpha) from a completed from-scratch fit; those
    three values are not updated.
    """
    cfg = cfg or FitConfig()
    E, A, alpha = _positive_floats(fixed, "fixed", length=3)
    return _fit_report(ExtendedCptParams, _prepare(data, cfg), cfg.init_grid, cfg.delta,
                       E=E, A=A, alpha=alpha)


def fit_offset_frontier(log_c: Sequence[float], log_l: Sequence[float], intercept: float,
                        exponent: float) -> FrontierParams:
    """Fit the loss-compute law offset + coefficient / C^exponent with a free offset.

    ``log_c`` and ``log_l`` are the frontier points' log compute and log
    loss, and (``intercept``, ``exponent``) their zero-offset regression line
    (``transfer.fit_frontier``, the public entry).  This is the law fit of
    ``FrontierParams`` (N := C, no data term) with the offset at most the
    lowest loss, started from the regression with the offset at
    ``OFFSET_FRACTIONS`` of that loss.
    """
    log_c, log_l = np.array(log_c, dtype=float), np.array(log_l, dtype=float)
    e_max = float(log_l.min())
    grid = [(intercept, e_max + math.log(frac), exponent) for frac in OFFSET_FRACTIONS]
    flat = (log_c, np.zeros_like(log_c), log_l)
    return _fit_law(FrontierParams, flat, grid, DEFAULT_DELTA,
                    bounds=[(None, None), (None, e_max), (None, None)])[0]


def compare_laws(data: RunSet, cfg: FitConfig | None = None) -> ModelComparison:
    """Fit both families to the same data and report their objectives.

    Stage one is the full five-coefficient from-scratch fit.  Stage two
    refits the extended family's complete coefficient set, warm-started from
    the stage-one solution: the stage-one optimum at gamma = 0 is one start,
    so the extended objective can never exceed the from-scratch objective,
    and the other 16 keep its data term's value at the median record for
    each (beta', gamma) of ``EXPONENT_STARTS`` x ``GAMMA_STARTS``.  The
    data-parameter exponent gamma is reported as fitted; fixing (E, A, alpha)
    here instead would leave gamma unidentifiable because a single RunSet
    cannot separate it from the stage-one bias.
    """
    cfg = cfg or FitConfig()
    flat = _prepare(data, cfg)
    p, _, scratch = _fit_law(ChinchillaParams, flat, cfg.init_grid, cfg.delta)
    # Not ``_default_grid``'s share rule: these starts keep stage one's data term.
    log_n, log_d, _ = _median_record(flat)
    log_term = math.log(p.B) - p.beta * log_d
    grid = [(math.log(p.A), b, math.log(p.E), p.alpha, beta, gamma)
            for b, beta, gamma in [(math.log(p.B), p.beta, 0.0), *(
                (log_term + beta * log_d + gamma * log_n, beta, gamma)
                for beta, gamma in product(EXPONENT_STARTS, GAMMA_STARTS))]]
    extended, _, fit = _fit_law(ExtendedCptParams, flat, grid, cfg.delta)
    return ModelComparison(chinchilla_error=scratch.objective,
                           extended_error=fit.objective, gamma_fitted=extended.gamma)


def export_residuals_csv(report: FitReport, data: RunSet, path, warmup_fraction: float = 0.0):
    """Write per-record residuals as CSV, in size order.

    Pass the same RunSet and warmup fraction used for the fit so rows align
    with ``report.residuals``.
    """
    rows = _fit_records(data, warmup_fraction)
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
