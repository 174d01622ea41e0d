"""Robust multistart fitting of the scaling-law families.

The objective is the mean Huber loss between predicted and observed log
loss, with the prediction expressed as a log-sum-exp over the extended law's
three additive terms in log space, (a - alpha log N), (b - beta log D - gamma
log N) and e.  The kernel shifts by the largest term, takes one exp per term,
and reuses those weights for the exact Jacobian (their normalized values are
the softmax weights of the terms).  It works over the optimizer coordinates
q = (a, b, e, log alpha, log beta, gamma), with A = e^a, B = e^b (B' for the
CPT law) and E = e^e; the from-scratch law is the case gamma = 0, and the
free-offset loss-compute frontier (``fit_offset_frontier``) is the one-term
case N := C with the data term switched off (b = -inf).  The zero-offset
frontier is a least-squares line, fitted in ``transfer`` without numpy; it
also gives the free-offset fit its starts.  Each fit frees a subset of q and
holds the rest fixed.  Exponent positivity is enforced by optimizing
log-exponents, and a fit that ends with one at or past ``_LOG_EXPONENT_CAP``
fails; gamma is optimized raw because its fitted sign is meaningful.

Every fit runs a deterministic grid of starts through three phases.  The
default grids give each law term a set share of the loss at the median
record, so no term starts dead whatever the data's scale.  First, all
starts advance together through a damped Gauss-Newton (Levenberg-Marquardt)
stage on the IRLS-weighted Huber residuals, in blocks evaluated as (starts,
records) arrays by one kernel, ``_law_system`` (objective, Gauss-Newton
matrix and gradient; each Jacobian is the softmax term weights times each
term's derivative).  A start stops on a relative decrease or step below
1e-10, or after its share of ``_GN_ROW_TRIALS`` row trials (30 each on the
96-start scratch grid).  Steps are projected onto the bounds (only the
free-offset frontier has one): a coordinate on its bound whose descent
direction points outward takes no step.  Second, the best basin, the starts
within ``_BASIN_TOLERANCE`` relative of the lowest stage objective, goes
through a finish pass of the same iteration with Huber-Newton weights (the
penalty's second derivative, 1 inside delta and 0 outside), which converges
quadratically where IRLS converges linearly; a start leaves it once its
projected gradient is within ``_FINISH_GTOL``, on the step rule, or after
L-BFGS-B's ``maxiter`` trials.  Third, each finish endpoint goes to L-BFGS-B
on the same kernel's value and gradient; at an endpoint within its ``gtol``,
as the finish leaves nearly every one, L-BFGS-B would stop before its first
iteration, and ``minimize`` returns that result itself.  The lowest-objective
finished start wins, the lexicographically smallest on ties.  scipy, which
supplies L-BFGS-B, is imported only when a search has an iteration to take,
so the commands that never fit, and the fits whose best basin the finish
converges, do not load it.
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
from .ingest import RunSet, warmup_filter
from .laws import ChinchillaParams, ExtendedCptParams, FrontierParams, _exp_coefficients

#: Default Huber threshold on log-loss residuals.
DEFAULT_DELTA = 1e-3

# Cap on log-exponent coordinates during optimization; keeps exp() finite
# when a line search probes far out (any exponent near e^50 is meaningless).
# The kernel evaluates a log-exponent at or past it as the cap, with slope 0,
# so a fit that ends there is a FitFailureError (``_fitted_exponents``).
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
# The Newton finish takes at most maxiter trials.
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
# about 100 of its 1,440).  A block holds _GN_BLOCK_ELEMENTS // n starts of
# n records (one start on a 42k-record log), and so bounds the buffers that
# each ``_law_system`` call allocates: seven (rows, records) float arrays, a
# mask and the Jacobian, 2.6 MB at 32 rows.  The kernel writes every array of
# the data's size into those buffers in place.  That style is what keeps the
# heap quiet: on the 840-record scratch replica (2-CPU host, Python 3.11,
# numpy 2.4) a second fit_scratch in one process took 7 minor page faults,
# and 65,000-80,000 with the same arithmetic written as plain expressions,
# whose temporaries glibc trims and faults in again.  Larger blocks only cut
# the Python overhead per step, and they cost RSS: there fit_scratch took
# 1.56 s at 9 rows, 1.24 s at 16, 1.13 s at 24, 1.11 s at 32, 1.08 s at 40
# and 1.04 s at 64 (BENCH_13.json), while peak RSS grew by 0.08 MB a row.
_GN_ROW_TRIALS = 30 * 96
_GN_BLOCK_ELEMENTS = 27_000
_GN_TOLERANCE = 1e-10  # relative decrease and relative step that end a start's stage
_GN_DAMPING = 0.1  # initial damping of the curvature-scaled system
_GN_DAMPING_FLOOR = 1e-10  # keeps the damped system nonsingular
_GN_CURVATURE_FLOOR = 1e-8  # smallest curvature scale, relative to the largest

# A start is in the best basin when its Gauss-Newton stage objective is within
# this fraction of the lowest one; only those starts are finished.
_BASIN_TOLERANCE = 1e-3

# Default start grids, built from the data: each start sets the coefficients
# so that every law term takes a given share of the loss at the median record.
EXPONENT_STARTS = (0.1, 0.3, 0.5, 0.7)
GAMMA_STARTS = (-0.1, 0.0, 0.1, 0.2)
OFFSET_FRACTIONS = (0.5, 0.9)  # E starts at these fractions of the lowest observed loss
TERM_SHARES = (0.25, 0.5, 0.75)  # the N-term's share of the loss above E; the D-term takes the rest
# A CPT start's data term takes at least this share of the median loss, also
# where the fixed terms (which may come from another fit) leave less or none.
_MIN_DATA_SHARE = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """Fitting knobs: Huber threshold, start grid, and warmup filter.

    ``init_grid`` entries are starting points in natural coordinates:
    (a, b, e, alpha, beta) for from-scratch fits and (b', beta', gamma) for
    CPT fits.  When omitted, the default grid is built from the data: each
    term starts with a set share of the loss at the median record.
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
    """log N, log D and log L of every record the fits use."""
    rows = [(run.param_count, rec.tokens, rec.loss) for run, rec in _fit_records(data)]
    if not rows:
        raise UnidentifiableDataError("RunSet contains no usable records")
    return tuple(np.log(np.asarray(column, dtype=float)) for column in zip(*rows))


def _q(a, b, e, alpha, beta, gamma=0.0) -> np.ndarray:
    """Optimizer coordinates of a point given as (a, b, e, alpha, beta, gamma)."""
    return np.array([a, b, e, math.log(alpha), math.log(beta), gamma])


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
    mean over records; both sums run over records, so the mean's gradient is
    the returned one divided by the record count.  J is the Jacobian of the
    prediction in q[free].  W holds the IRLS weights (1 where |r| <= delta,
    delta / |r| elsewhere), or with ``newton`` the Huber penalty's second
    derivative (1 where |r| <= delta, 0 elsewhere).  The call allocates its
    buffers once, for len(x) rows, and writes every array of the data's size
    into them in place (``_GN_BLOCK_ELEMENTS`` says why, and bounds the rows).
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
                  bounds=None, finish: bool = False) -> tuple[np.ndarray, np.ndarray]:
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
    of ``_GN_ROW_TRIALS``, the same number of trials for every start.

    With ``finish`` the iteration is a Huber-Newton one instead: the weights
    are the penalty's second derivative (1 where |r| <= delta, 0 elsewhere;
    Madsen and Nielsen 1990), which converges quadratically where IRLS
    converges linearly.  A start then stops when its projected gradient is
    within L-BFGS-B's ``gtol``, on the step rule, or after L-BFGS-B's
    ``maxiter`` trials; there is no relative-decrease rule.  No row's
    arithmetic reads another row, so the endpoints and objectives do not
    depend on the order or the blocking of the starts.
    """
    n = flat[2].size
    lower, upper = _bound_arrays(bounds)
    rows = min(len(x0), max(1, _GN_BLOCK_ELEMENTS // n))
    if finish:
        trials, gtol = _LBFGSB_OPTIONS["maxiter"], _FINISH_GTOL
    else:
        trials, gtol = max(1, _GN_ROW_TRIALS // len(x0)), None

    def system(x: np.ndarray):
        return _law_system(x, base, free, flat, delta, newton=finish)

    blocks = [_gauss_newton_block(system, x0[i:i + rows], n, lower, upper, trials, gtol)
              for i in range(0, len(x0), rows)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _gauss_newton_block(system, x: np.ndarray, n: int, lower, upper, trials: int,
                        gtol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The Levenberg-Marquardt iteration of ``_gauss_newton`` on one block of starts.

    The damping follows Nielsen's rule (Madsen, Nielsen and Tingleff, Methods
    for Non-linear Least Squares Problems, 2004): a taken step scales it by
    max(1/3, 1 - (2 rho - 1)^3), rho being the actual over the predicted
    decrease clipped to [0, 1]; a refused one multiplies it by a factor that
    doubles with each refusal in a row.  Every row is stepped each
    iteration, and only the active rows take their trial points and update
    their damping (a stopped row's would otherwise grow until it overflows).
    With ``gtol`` a row stops once the largest component of its mean
    objective's projected gradient is at most ``gtol``, and the
    relative-decrease rule is off.
    """
    x = x.copy()
    value, hess, grad = system(x)
    eye = np.eye(x.shape[1])
    damping = np.full(len(x), _GN_DAMPING)
    growth = np.full(len(x), 2.0)
    active = np.isfinite(value)
    hess[~active], grad[~active] = eye, 0.0  # a start without a finite objective stays put
    for _ in range(trials):
        if gtol is not None:
            active &= np.abs(_projected_gradient(x, grad / n, lower, upper)).max(axis=1) > gtol
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
        # A coordinate on its bound whose descent direction points out of the
        # box takes no step, and the others are solved without it: a projected
        # Levenberg-Marquardt step (Kanzow, Yamashita and Fukushima 2004).
        scale[((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0))] = 0.0
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
        if gtol is None:
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

    The Gauss-Newton stage advances every grid point; each one that ends it
    in the best basin goes through the Newton finish and then L-BFGS-B.
    ``bounds`` are L-BFGS-B bounds on q[free].
    """

    def fun(x: np.ndarray):
        value, _, grad = _law_system(x[None], base, free, flat, delta)
        return value[0], grad[0] / flat[2].size

    keys, x0 = zip(*_law_starts(grid, free))
    x0, values = _gauss_newton(flat, base, free, np.array(x0), delta, bounds)
    basin = _best_basin(values)
    x0, _ = _gauss_newton(flat, base, free, x0[basin], delta, bounds, finish=True)
    finished = [(keys[i], x) for i, x in zip(basin, x0)]
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


def _median_record(flat) -> tuple[float, float, float]:
    """Median log N, median log D and the loss at the median log loss of the fit's records."""
    log_n, log_d, log_l = (float(np.median(values)) for values in flat)
    return log_n, log_d, math.exp(log_l)


def _default_scratch_grid(flat) -> list[tuple[float, ...]]:
    """96 starts (a, b, e, alpha, beta) that give each law term a set share of the median loss."""
    log_n, log_d, loss = _median_record(flat)
    offsets = [fraction * math.exp(flat[2].min()) for fraction in OFFSET_FRACTIONS]
    return [(math.log(share * (loss - e)) + alpha * log_n,
             math.log((1.0 - share) * (loss - e)) + beta * log_d, math.log(e), alpha, beta)
            for e, share, alpha, beta in product(offsets, TERM_SHARES, EXPONENT_STARTS,
                                                 EXPONENT_STARTS)]


def _data_term_grid(log_term: float, log_n: float, log_d: float) -> list[tuple[float, ...]]:
    """16 starts (b, beta, gamma) whose data term is e^log_term at (log_n, log_d)."""
    return [(log_term + beta * log_d + gamma * log_n, beta, gamma)
            for beta, gamma in product(EXPONENT_STARTS, GAMMA_STARTS)]


def _default_cpt_grid(flat, fixed_e: float, fixed_a: float, fixed_alpha: float):
    """16 starts (b', beta', gamma) whose data term takes the median loss E + A N^-alpha leave."""
    log_n, log_d, loss = _median_record(flat)
    rest = loss - fixed_e - fixed_a * math.exp(-fixed_alpha * log_n)
    return _data_term_grid(math.log(max(rest, _MIN_DATA_SHARE * loss)), log_n, log_d)


def _fitted_exponents(**logs: float) -> dict[str, float]:
    """exp of each named fitted log-exponent, raising ``FitFailureError`` at or past ``_LOG_EXPONENT_CAP``.

    The kernel evaluates such an exponent as e^cap with a zero slope, so the
    fit's objective is not that of the reported law and no step moved it: the
    data do not determine the exponent.
    """
    for name, x in logs.items():
        if not x < _LOG_EXPONENT_CAP:  # also rejects NaN
            raise FitFailureError(f"fitted {name} = exp({x:.6g}) is at or past the exponent cap "
                                  f"exp({_LOG_EXPONENT_CAP:g}): the data do not determine it")
    return _exp_coefficients(**logs)


def _fit_report(params, objective: float, q: np.ndarray, flat, chosen) -> FitReport:
    """FitReport of a law fitted at q, with its residuals on the ``flat`` data."""
    residuals = _residuals(q, flat)
    return FitReport(params=params, objective=objective, n_points=int(residuals.size),
                     residuals=tuple(float(r) for r in residuals), chosen_init=chosen)


def _fit_scratch(flat, cfg: FitConfig) -> FitReport:
    grid = cfg.init_grid or _default_scratch_grid(flat)
    objective, chosen, q = _fit_mask(flat, np.zeros(6), _SCRATCH_FREE, grid, cfg.delta)
    params = ChinchillaParams(**_exp_coefficients(E=q[2], A=q[0], B=q[1]),
                              **_fitted_exponents(alpha=q[3], beta=q[4]))
    return _fit_report(params, objective, q, flat, chosen)


def fit_scratch(data: RunSet, cfg: FitConfig | None = None) -> FitReport:
    """Fit the from-scratch law to a RunSet via the multistart procedure."""
    cfg = cfg or FitConfig()
    return _fit_scratch(_prepare(data, cfg), cfg)


def fit_cpt(data: RunSet, fixed: Sequence[float], cfg: FitConfig | None = None) -> FitReport:
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
    grid = cfg.init_grid or _default_cpt_grid(flat, fixed_e, fixed_a, fixed_alpha)
    objective, chosen, q = _fit_mask(flat, base, _CPT_FREE, grid, cfg.delta)
    params = ExtendedCptParams(
        E=fixed_e, A=fixed_a, alpha=fixed_alpha, gamma=float(q[5]),
        **_exp_coefficients(B_prime=q[1]), **_fitted_exponents(beta_prime=q[4]),
    )
    return _fit_report(params, objective, q, flat, chosen)


def fit_offset_frontier(log_c: Sequence[float], log_l: Sequence[float], intercept: float,
                        exponent: float) -> FrontierParams:
    """Fit the loss-compute law offset + coefficient / C^exponent with a free offset.

    ``log_c`` and ``log_l`` are the frontier points' log compute and log
    loss, and (``intercept``, ``exponent``) their zero-offset regression line
    (``transfer.fit_frontier``, the public entry).  This is a law fit with
    N := C and no data term, over the free coordinates (a, e, log alpha) =
    (log coefficient, log offset, log exponent) with the offset at most the
    lowest loss, started from the regression with the offset at
    ``OFFSET_FRACTIONS`` of that loss.
    """
    log_c, log_l = np.array(log_c, dtype=float), np.array(log_l, dtype=float)
    # b = -inf switches the data term off: its weight exp(-inf - top) is
    # exactly 0, and so is its gradient.
    e_max = float(log_l.min())
    grid = [(intercept, e_max + math.log(frac), exponent) for frac in OFFSET_FRACTIONS]
    flat = (log_c, np.zeros_like(log_c), log_l)
    _, _, q = _fit_mask(
        flat, _q(0.0, -math.inf, 0.0, 1.0, 1.0), _FRONTIER_FREE, grid, DEFAULT_DELTA,
        bounds=[(None, None), (None, e_max), (None, None)],
    )
    return FrontierParams(**_exp_coefficients(coefficient=q[0], offset=q[2]),
                          **_fitted_exponents(exponent=q[3]))


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
    scratch_report = _fit_scratch(flat, cfg)
    p = scratch_report.params
    # Natural start coordinates: (a, b', e, alpha, beta', gamma) with a, b',
    # e as log-coefficients, matching the scratch-grid convention.
    log_n, log_d, _ = _median_record(flat)
    data_terms = _data_term_grid(math.log(p.B) - p.beta * log_d, log_n, log_d)
    grid = [(math.log(p.A), b, math.log(p.E), p.alpha, beta, gamma)
            for b, beta, gamma in [(math.log(p.B), p.beta, 0.0), *data_terms]]
    extended_error, _, q = _fit_mask(flat, np.zeros(6), _ALL_FREE, grid, cfg.delta)
    _fitted_exponents(alpha=q[3], beta_prime=q[4])
    return ModelComparison(
        chinchilla_error=scratch_report.objective,
        extended_error=extended_error,
        gamma_fitted=float(q[5]),
    )


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
