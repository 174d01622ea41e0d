"""Compute-optimal allocation of parameters and tokens under a fitted law.

Closed forms, with C = 6 N D:

    N_opt(C) = G (C/6)^a = k_N C^a
    D_opt(C) = G^-1 (C/6)^b = k_D C^b

    G = (alpha A / ((beta'-gamma) B'))^(1/(alpha+beta'-gamma)),
    a = beta'/(alpha+beta'-gamma), b = (alpha-gamma)/(alpha+beta'-gamma)

The from-scratch law is the case gamma = 0, B' = B.  An interior optimum
exists only when beta' > gamma and alpha > gamma; anything else is an error,
never a silent clamp.

Everything here runs on the standard library.  The IsoLoss grid's axes and
its frontier's compute levels are spaced as ``numpy.geomspace`` spaces them,
and each grid cell equals the scalar ``eval_law`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import AllocationRegimeError, DomainError, ValidationError
from .laws import (FLOPS_PER_PARAM_TOKEN, _MATH, _POSITIVE, LawParams, _as_tuple, _checked,
                   _coefficients, _count, _geomspace, _law_grid, _point, eval_law)

#: The numeric frontier's search bracket over N: spans every catalog model
#: size with margin.
FRONTIER_BRACKET = (1e6, 1e13)

# Bisection steps after which the frontier search stops: 200 halvings narrow
# any log-N bracket of floats (at most ~1,455 wide) below 1e-57.
_BISECTION_MAX_STEPS = 200


@dataclass(frozen=True)
class AllocationCoefficients:
    """Exponents and prefactors of the compute-optimal power laws."""

    G: float
    a: float
    b: float
    k_N: float
    k_D: float

    def __post_init__(self):
        for name in ("G", "a", "b", "k_N", "k_D"):
            object.__setattr__(self, name, _checked(getattr(self, name), name, _POSITIVE))
        if abs(self.a + self.b - 1.0) > 1e-12:
            raise ValidationError(f"exponents must satisfy a + b = 1, got {self.a + self.b!r}")


@dataclass(frozen=True)
class AllocationPlan:
    """A concrete (N, D) split of one compute budget, with predicted loss."""

    compute: float
    n_opt: float
    d_opt: float
    predicted_loss: float

    def __post_init__(self):
        for name in ("compute", "n_opt", "d_opt", "predicted_loss"):
            object.__setattr__(self, name, _checked(getattr(self, name), name, _POSITIVE))
        product = FLOPS_PER_PARAM_TOKEN * self.n_opt * self.d_opt
        if abs(product / self.compute - 1.0) > 1e-9:
            raise ValidationError(
                f"plan is inconsistent: 6*N*D = {product!r} but compute = {self.compute!r}"
            )


@dataclass(frozen=True)
class IsoLossGrid:
    """Loss surface over log-spaced (N, D) plus the efficient frontier.

    ``loss_values[i][j]`` is the loss at ``n_axis[i]`` and ``d_axis[j]``.
    ``frontier`` holds (C, N) pairs found by numeric argmin of loss over N at
    each compute level.  Every field is a tuple, so a grid cannot be changed,
    and the axes and the frontier's pairs hold positive finite floats.
    """

    n_axis: tuple[float, ...]
    d_axis: tuple[float, ...]
    loss_values: tuple[tuple[float, ...], ...]
    frontier: tuple[tuple[float, float], ...]

    def __post_init__(self):
        positive = partial(_checked, rule=_POSITIVE)
        for name, convert in (("n_axis", positive), ("d_axis", positive), ("frontier", _point)):
            object.__setattr__(self, name, _as_tuple(getattr(self, name), name, convert))
        # Cells are kept as given: converting the 65,536 of a 256 x 256 grid
        # took longer than ``_law_grid`` takes to compute them.
        row = partial(_as_tuple, convert=None, length=len(self.d_axis))
        object.__setattr__(self, "loss_values", _as_tuple(self.loss_values, "loss_values", row,
                                                          len(self.n_axis)))


def allocation_coefficients(law: LawParams) -> AllocationCoefficients:
    """Closed-form allocation coefficients for either loss law."""
    _, A, alpha, B, beta, gamma = _coefficients(law)
    if beta <= gamma or alpha <= gamma:
        raise AllocationRegimeError(
            f"no interior optimum: requires beta' > gamma and alpha > gamma, "
            f"got beta'={beta}, alpha={alpha}, gamma={gamma}"
        )
    total = alpha + beta - gamma
    a = beta / total
    b = (alpha - gamma) / total
    try:
        G = (alpha * A / ((beta - gamma) * B)) ** (1.0 / total)
        # The record refuses a coefficient of 0, inf or NaN.
        return AllocationCoefficients(G=G, a=a, b=b, k_N=G / FLOPS_PER_PARAM_TOKEN**a,
                                      k_D=1.0 / (G * FLOPS_PER_PARAM_TOKEN**b))
    except (OverflowError, ZeroDivisionError, ValidationError):
        raise DomainError(
            f"the allocation coefficients of {law!r} are outside float range") from None


def optimal_allocation(
    coeffs: AllocationCoefficients, compute: float, law: LawParams
) -> AllocationPlan:
    """Compute-optimal (N, D) for one budget, with the law's predicted loss."""
    compute = _checked(compute, "compute", _POSITIVE, DomainError)
    log_c = math.log(compute)
    n_opt = _MATH.exp(math.log(coeffs.k_N) + coeffs.a * log_c)
    d_opt = _MATH.exp(math.log(coeffs.k_D) + coeffs.b * log_c)
    if not (0 < n_opt < math.inf and 0 < d_opt < math.inf):
        raise DomainError(f"the optimal N and D at C={compute!r} are outside float range")
    return AllocationPlan(
        compute=compute,
        n_opt=n_opt,
        d_opt=d_opt,
        predicted_loss=float(eval_law(law, n_opt, d_opt)),
    )


def numeric_optimal_params(law: LawParams, compute: float) -> float:
    """Argmin over N of the law's loss at fixed compute (D = C/(6N)).

    Along the iso-compute line, with x = log N, the loss is
    E + A e^(-alpha x) + B' (C/6)^(-beta') e^((beta' - gamma) x), so its
    derivative in x is -alpha A e^(-alpha x) + (beta' - gamma) B' (C/6)^(-beta')
    e^((beta' - gamma) x).  The loss is convex in x and the derivative
    increasing, so the argmin is where the derivative changes sign; a
    bisection on that sign, compared in log space, runs over N in
    ``FRONTIER_BRACKET`` until the interval cannot be split further.  Unlike a
    search on loss values, which cannot see differences below the float
    spacing of a flat minimum, it resolves N to about the float spacing of
    log N.  Raises DomainError when the bisection never moves one of the
    interval's edges, so that the true optimum may lie outside it.
    """
    compute = _checked(compute, "compute", _POSITIVE, DomainError)
    edges = lo, hi = tuple(math.log(edge) for edge in FRONTIER_BRACKET)
    _, A, alpha, B, beta, gamma = _coefficients(law)
    # The derivative is positive where data_log(x) > params_log(x), the logs
    # of its two terms' sizes; a data term that does not grow with x (beta' <=
    # gamma) leaves it negative everywhere.
    params_log = math.log(alpha * A)
    if beta > gamma:
        data_log = math.log((beta - gamma) * B) - beta * math.log(compute / FLOPS_PER_PARAM_TOKEN)
    else:
        data_log = -math.inf

    for _ in range(_BISECTION_MAX_STEPS):
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        if data_log + (beta - gamma) * x > params_log - alpha * x:
            hi = x
        else:
            lo = x
    if lo == edges[0] or hi == edges[1]:
        raise DomainError(
            f"argmin over N at C={compute:.6g} is at the edge of the bracket {FRONTIER_BRACKET!r}"
        )
    return math.exp(0.5 * (lo + hi))


def isoloss_grid(
    law: LawParams,
    n_range: tuple[float, float],
    d_range: tuple[float, float],
    resolution: int,
) -> IsoLossGrid:
    """Sample the loss surface over log-spaced axes and trace the frontier.

    Frontier compute levels span the grid's compute range (6 * n * d at the
    corners), one level per resolution step.  Axes and levels are spaced as
    ``numpy.geomspace`` spaces them, and each cell equals the scalar
    ``eval_law`` at its (N, D).
    """
    n_range = _as_tuple(n_range, "n_range", length=2)
    d_range = _as_tuple(d_range, "d_range", length=2)
    for name, (lo, hi) in (("n_range", n_range), ("d_range", d_range)):
        if not 0 < lo < hi < math.inf:  # also rejects NaN
            raise DomainError(f"{name} must satisfy 0 < lo < hi < inf, got {(lo, hi)!r}")
    resolution = _count(resolution, "resolution", 2, DomainError)
    c_lo = FLOPS_PER_PARAM_TOKEN * n_range[0] * d_range[0]
    c_hi = FLOPS_PER_PARAM_TOKEN * n_range[1] * d_range[1]
    if not 0 < c_lo <= c_hi < math.inf:
        raise DomainError(f"6 N D over n_range {n_range!r}, d_range {d_range!r} leaves float range")
    n_axis = tuple(_geomspace(n_range[0], n_range[1], resolution))
    d_axis = tuple(_geomspace(d_range[0], d_range[1], resolution))
    frontier = tuple(
        (c, numeric_optimal_params(law, c)) for c in _geomspace(c_lo, c_hi, resolution)
    )
    return IsoLossGrid(
        n_axis=n_axis,
        d_axis=d_axis,
        loss_values=_law_grid(law, n_axis, d_axis),
        frontier=frontier,
    )


def export_isoloss_csv(grid: IsoLossGrid, law: LawParams, path) -> None:
    """Write the grid in long form: N, D, C, loss, is_frontier.

    Grid cells come first; the frontier's (C, N) points follow with their
    implied D = C/(6N) and evaluated loss, flagged is_frontier = true.
    """
    # The rows csv.writer would write (no field needs quoting), built as one
    # string: each axis value is formatted once, not once per cell.
    d_text = [f"{d:.9g}" for d in grid.d_axis]
    lines = ["N,D,C,loss,is_frontier"]
    for n, losses in zip(grid.n_axis, grid.loss_values):
        n_text = f"{n:.9g}"
        lines.extend(
            f"{n_text},{d_str},{FLOPS_PER_PARAM_TOKEN * n * d:.9g},{loss:.9g},false"
            for d, d_str, loss in zip(grid.d_axis, d_text, losses)
        )
    for compute, n in grid.frontier:
        d = compute / (FLOPS_PER_PARAM_TOKEN * n)
        lines.append(f"{n:.9g},{d:.9g},{compute:.9g},{float(eval_law(law, n, d)):.9g},true")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
