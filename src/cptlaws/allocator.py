"""Compute-optimal allocation of parameters and tokens under a fitted law.

Closed forms, with C = 6 N D:

    N_opt(C) = G (C/6)^a = k_N C^a
    D_opt(C) = G^-1 (C/6)^b = k_D C^b

    G = (alpha A / ((beta'-gamma) B'))^(1/(alpha+beta'-gamma)),
    a = beta'/(alpha+beta'-gamma), b = (alpha-gamma)/(alpha+beta'-gamma)

The from-scratch law is the case gamma = 0, B' = B.  An interior optimum
exists only when beta' > gamma and alpha > gamma; anything else is an error,
never a silent clamp.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationRegimeError, DomainError, ValidationError
from .ingest import FLOPS_PER_PARAM_TOKEN
from .laws import LawParams, _coefficients, eval_law

#: Default log-N search bracket for the numeric frontier: spans every catalog
#: model size with margin.
FRONTIER_BRACKET = (1e6, 1e13)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AllocationCoefficients:
    """Exponents and prefactors of the compute-optimal power laws."""

    G: float
    a: float
    b: float
    k_N: float
    k_D: float

    def __post_init__(self):
        if self.G <= 0 or self.k_N <= 0 or self.k_D <= 0:
            raise ValidationError("G, k_N, and k_D must be positive")
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
        if self.compute <= 0:
            raise ValidationError(f"compute must be positive, got {self.compute!r}")
        product = FLOPS_PER_PARAM_TOKEN * self.n_opt * self.d_opt
        if abs(product / self.compute - 1.0) > 1e-9:
            raise ValidationError(
                f"plan is inconsistent: 6*N*D = {product!r} but compute = {self.compute!r}"
            )


@dataclass(frozen=True)
class IsoLossGrid:
    """Loss surface over log-spaced (N, D) plus the efficient frontier.

    ``frontier`` holds (C, N) pairs found by numeric argmin of loss over N at
    each compute level.
    """

    n_axis: np.ndarray
    d_axis: np.ndarray
    loss_values: np.ndarray
    frontier: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.loss_values.shape != (self.n_axis.size, self.d_axis.size):
            raise ValidationError(
                f"loss matrix shape {self.loss_values.shape} does not match axes "
                f"({self.n_axis.size}, {self.d_axis.size})"
            )
        for arr in (self.n_axis, self.d_axis, self.loss_values):
            arr.setflags(write=False)


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
    G = (alpha * A / ((beta - gamma) * B)) ** (1.0 / total)
    return AllocationCoefficients(
        G=G,
        a=a,
        b=b,
        k_N=G / FLOPS_PER_PARAM_TOKEN**a,
        k_D=1.0 / (G * FLOPS_PER_PARAM_TOKEN**b),
    )


def optimal_allocation(
    coeffs: AllocationCoefficients, compute: float, law: LawParams
) -> AllocationPlan:
    """Compute-optimal (N, D) for one budget, with the law's predicted loss."""
    if compute <= 0:
        raise DomainError(f"compute must be positive, got {compute!r}")
    log_c = math.log(compute)
    n_opt = math.exp(math.log(coeffs.k_N) + coeffs.a * log_c)
    d_opt = math.exp(math.log(coeffs.k_D) + coeffs.b * log_c)
    return AllocationPlan(
        compute=compute,
        n_opt=n_opt,
        d_opt=d_opt,
        predicted_loss=float(eval_law(law, n_opt, d_opt)),
    )


def numeric_optimal_params(
    law: LawParams,
    compute: float,
    bracket: tuple[float, float] = FRONTIER_BRACKET,
    tol: float = 1e-10,
) -> float:
    """Argmin over N of the law's loss at fixed compute (D = C/(6N)).

    Golden-section search on log N; the loss along an iso-compute line is a
    sum of exponentials in log N and therefore unimodal.  Raises DomainError
    when the argmin lands within ``tol`` of a bracket edge, where the true
    optimum may lie outside the bracket.
    """
    if compute <= 0:
        raise DomainError(f"compute must be positive, got {compute!r}")
    lo, hi = (math.log(edge) for edge in bracket)
    if not lo < hi:
        raise DomainError(f"bad bracket {bracket!r}")

    def loss_at(x: float) -> float:
        n = math.exp(x)
        return float(eval_law(law, n, compute / (FLOPS_PER_PARAM_TOKEN * n)))

    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    f_c, f_d = loss_at(c), loss_at(d)
    while hi - lo > tol:
        if f_c < f_d:
            hi, d, f_d = d, c, f_c
            c = hi - _INVPHI * (hi - lo)
            f_c = loss_at(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + _INVPHI * (hi - lo)
            f_d = loss_at(d)
    x = 0.5 * (lo + hi)
    if min(x - math.log(bracket[0]), math.log(bracket[1]) - x) <= tol:
        raise DomainError(
            f"argmin over N at C={compute:.6g} is at the edge of the bracket {bracket!r}"
        )
    return math.exp(x)


def isoloss_grid(
    law: LawParams,
    n_range: tuple[float, float],
    d_range: tuple[float, float],
    resolution: int,
) -> IsoLossGrid:
    """Sample the loss surface over log-spaced axes and trace the frontier.

    Frontier compute levels span the grid's compute range (6 * n * d at the
    corners), one level per resolution step.
    """
    for name, (lo, hi) in (("n_range", n_range), ("d_range", d_range)):
        if lo <= 0 or hi <= lo:
            raise DomainError(f"{name} must satisfy 0 < lo < hi, got {(lo, hi)!r}")
    if resolution < 2:
        raise DomainError(f"resolution must be at least 2, got {resolution!r}")

    n_axis = np.geomspace(n_range[0], n_range[1], resolution)
    d_axis = np.geomspace(d_range[0], d_range[1], resolution)
    loss_values = eval_law(law, n_axis[:, None], d_axis[None, :])

    c_lo = FLOPS_PER_PARAM_TOKEN * n_range[0] * d_range[0]
    c_hi = FLOPS_PER_PARAM_TOKEN * n_range[1] * d_range[1]
    frontier = tuple(
        (float(c), numeric_optimal_params(law, float(c)))
        for c in np.geomspace(c_lo, c_hi, resolution)
    )
    return IsoLossGrid(
        n_axis=n_axis, d_axis=d_axis, loss_values=loss_values, frontier=frontier
    )


def efficient_frontier_loss(
    coeffs: AllocationCoefficients,
    law: LawParams,
    c_range: tuple[float, float],
    samples: int,
) -> list[tuple[float, float]]:
    """Optimal loss per compute level along the closed-form frontier."""
    lo, hi = c_range
    if lo <= 0 or hi < lo:
        raise DomainError(f"c_range must satisfy 0 < lo <= hi, got {c_range!r}")
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples!r}")
    levels = np.geomspace(lo, hi, samples)
    return [
        (float(c), optimal_allocation(coeffs, float(c), law).predicted_loss) for c in levels
    ]


def export_isoloss_csv(grid: IsoLossGrid, law: LawParams, path) -> None:
    """Write the grid in long form: N, D, C, loss, is_frontier.

    Grid cells come first; the frontier's (C, N) points follow with their
    implied D = C/(6N) and evaluated loss, flagged is_frontier = true.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "D", "C", "loss", "is_frontier"])
        for i, n in enumerate(grid.n_axis):
            for j, d in enumerate(grid.d_axis):
                compute = FLOPS_PER_PARAM_TOKEN * n * d
                writer.writerow(
                    [f"{n:.9g}", f"{d:.9g}", f"{compute:.9g}",
                     f"{grid.loss_values[i, j]:.9g}", "false"]
                )
        for compute, n in grid.frontier:
            d = compute / (FLOPS_PER_PARAM_TOKEN * n)
            writer.writerow(
                [f"{n:.9g}", f"{d:.9g}", f"{compute:.9g}",
                 f"{float(eval_law(law, n, d)):.9g}", "true"]
            )
