"""Closed-form scaling-law families: evaluation, inversion, and crossover.

Three families are supported:

* Chinchilla form              L(N, D) = E + A / N^alpha + B / D^beta
* extended CPT form            L(N, D) = E + A / N^alpha + B' / (D^beta' N^gamma)
* loss-compute frontier        L(C)    = offset + coefficient / C^exponent

The Chinchilla form is the extended form at gamma = 0, B' = B, so each loss
law operation is written once over the extended form.

All evaluation happens in log space so extreme parameter counts, token
budgets, and compute values stay inside float range.  Scalar inputs yield
scalar outputs; array inputs broadcast.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NoCrossoverError, UnreachableLossError, ValidationError

#: Version stamp written into every serialized parameter document.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChinchillaParams:
    """Coefficients of the from-scratch loss law E + A/N^alpha + B/D^beta."""

    E: float
    A: float
    B: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("E", "A", "B", "alpha", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ExtendedCptParams:
    """Coefficients of the CPT loss law E + A/N^alpha + B'/(D^beta' N^gamma).

    ``E``, ``A``, and ``alpha`` are inherited from a from-scratch fit and held
    fixed during CPT fitting.  ``gamma`` may take either sign when fitted;
    compute-optimal allocation additionally requires beta' > gamma and
    alpha > gamma (checked by the allocator, not here).
    """

    E: float
    A: float
    alpha: float
    B_prime: float
    beta_prime: float
    gamma: float

    def __post_init__(self):
        for name in ("E", "A", "alpha", "B_prime", "beta_prime"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        if not math.isfinite(self.gamma):
            raise ValidationError(f"gamma must be finite, got {self.gamma!r}")


@dataclass(frozen=True)
class FrontierParams:
    """Optimal-loss power law in compute: offset + coefficient / C^exponent.

    A zero exponent is allowed so that a flat frontier (constant loss) is
    representable; crossover and savings computations require the exponents
    to be positive and the offsets zero.
    """

    coefficient: float
    exponent: float
    offset: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.coefficient) or self.coefficient <= 0:
            raise ValidationError(f"coefficient must be positive, got {self.coefficient!r}")
        if not math.isfinite(self.exponent) or self.exponent < 0:
            raise ValidationError(f"exponent must be nonnegative, got {self.exponent!r}")
        if not math.isfinite(self.offset) or self.offset < 0:
            raise ValidationError(f"offset must be nonnegative, got {self.offset!r}")


LawParams = Union[ChinchillaParams, ExtendedCptParams]

# Published coefficient sets for the two training strategies, reproduced by
# the fitting pipeline on synthetic data and by the acceptance suite.
REFERENCE_SCRATCH_LAW = ChinchillaParams(E=1.55, A=420.0, B=719.5, alpha=0.40, beta=0.30)
REFERENCE_CPT_LAW = ExtendedCptParams(
    E=1.55, A=420.0, alpha=0.40, B_prime=433.3, beta_prime=0.20, gamma=0.08
)

# Published loss-compute frontier fits for the two strategies.
REFERENCE_SCRATCH_FRONTIER = FrontierParams(coefficient=33.69907, exponent=0.0579)
REFERENCE_CPT_FRONTIER = FrontierParams(coefficient=31.9594, exponent=0.0575)


def _positive_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    # One pass that also rejects NaN (both comparisons are False); this runs
    # on every scalar law evaluation, so it is kept cheap.
    if not ((arr > 0) & (arr < math.inf)).all():
        raise DomainError(f"{name} must be positive and finite")
    return arr


def _maybe_float(arr: np.ndarray):
    return float(arr) if arr.ndim == 0 else arr


def _coefficients(law: LawParams) -> tuple[float, float, float, float, float, float]:
    """(E, A, alpha, B, beta, gamma) of either loss law.

    The from-scratch law is the extended law with gamma = 0 and B' = B; this
    is the only place that knows the two families' field names.
    """
    if isinstance(law, ChinchillaParams):
        return law.E, law.A, law.alpha, law.B, law.beta, 0.0
    if isinstance(law, ExtendedCptParams):
        return law.E, law.A, law.alpha, law.B_prime, law.beta_prime, law.gamma
    raise TypeError(f"expected a loss law, got {type(law).__name__}")


def eval_law(law: LawParams, N, D):
    """Evaluate E + A/N^alpha + B'/(D^beta' N^gamma); always strictly above E."""
    E, A, alpha, B, beta, gamma = _coefficients(law)
    n = _positive_array(N, "N")
    d = _positive_array(D, "D")
    log_n = np.log(n)
    loss = (
        E
        + np.exp(math.log(A) - alpha * log_n)
        + np.exp(math.log(B) - beta * np.log(d) - gamma * log_n)
    )
    return _maybe_float(loss)


def eval_frontier(p: FrontierParams, C):
    """Evaluate offset + coefficient / C^exponent."""
    c = _positive_array(C, "C")
    return _maybe_float(p.offset + np.exp(math.log(p.coefficient) - p.exponent * np.log(c)))


def loss_floor(law: LawParams, N):
    """Infimum of the law's loss at fixed N (the D -> infinity limit)."""
    E, A, alpha, *_ = _coefficients(law)
    n = _positive_array(N, "N")
    return _maybe_float(E + np.exp(math.log(A) - alpha * np.log(n)))


def solve_tokens_for_loss(law: LawParams, N, L):
    """Tokens D at which the law reaches loss L for a model of size N.

    Closed-form inverse of the loss law in D; raises UnreachableLossError
    when L does not exceed the loss floor at this N.
    """
    _, _, _, B, beta, gamma = _coefficients(law)
    n = _positive_array(N, "N")
    target = _positive_array(L, "L")
    floor = loss_floor(law, n)
    gap = target - floor
    if np.any(gap <= 0):
        raise UnreachableLossError(
            f"loss {L!r} is at or below the floor {floor!r} for N={N!r}"
        )
    return _maybe_float(np.exp((math.log(B) - np.log(gap) - gamma * np.log(n)) / beta))


def solve_params_for_loss(p: ChinchillaParams, D, L):
    """Model size N at which the from-scratch law reaches loss L given D tokens."""
    d = _positive_array(D, "D")
    target = _positive_array(L, "L")
    floor = p.E + np.exp(math.log(p.B) - p.beta * np.log(d))
    gap = target - floor
    if np.any(gap <= 0):
        raise UnreachableLossError(
            f"loss {L!r} is at or below the floor {floor!r} for D={D!r}"
        )
    return _maybe_float(np.exp((math.log(p.A) - np.log(gap)) / p.alpha))


def frontier_crossover(f1: FrontierParams, f2: FrontierParams) -> float:
    """Compute level where two zero-offset frontiers intersect.

    Identical frontiers intersect everywhere; that degenerate case returns
    C = 1 and emits a warning rather than an error.
    """
    if f1.offset != 0.0 or f2.offset != 0.0:
        raise DomainError("crossover has no closed form for frontiers with nonzero offsets")
    if f1.exponent == f2.exponent:
        if f1.coefficient == f2.coefficient:
            warnings.warn(
                "frontiers are identical; they intersect at every compute level",
                stacklevel=2,
            )
            return 1.0
        raise NoCrossoverError(
            "frontiers with equal exponents but different coefficients never intersect"
        )
    log_c = (math.log(f1.coefficient) - math.log(f2.coefficient)) / (f1.exponent - f2.exponent)
    return math.exp(log_c)


_LAW_KINDS = {
    ChinchillaParams: "chinchilla",
    ExtendedCptParams: "extended_cpt",
    FrontierParams: "frontier",
}
_KIND_TYPES = {kind: cls for cls, kind in _LAW_KINDS.items()}


def law_to_dict(law) -> dict:
    """Serialize any parameter record to a versioned JSON-compatible dict."""
    kind = _LAW_KINDS.get(type(law))
    if kind is None:
        raise TypeError(f"cannot serialize {type(law).__name__}")
    doc = {"schema_version": SCHEMA_VERSION, "law_kind": kind}
    doc.update(asdict(law))
    return doc


def law_from_dict(doc: dict):
    """Inverse of :func:`law_to_dict`; validates the discriminator and version."""
    if not isinstance(doc, dict):
        raise ValidationError("law document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    kind = doc.get("law_kind")
    cls = _KIND_TYPES.get(kind)
    if cls is None:
        raise ValidationError(f"unknown law_kind {kind!r}")
    fields = {k: v for k, v in doc.items() if k not in ("schema_version", "law_kind")}
    for name, value in fields.items():
        # Reject bools (an int subclass) and ints past float range.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(
                f"bad {kind} document: {name} must be a number, got {type(value).__name__}"
            )
        try:
            fields[name] = float(value)
        except OverflowError:
            raise ValidationError(f"bad {kind} document: {name} is too large") from None
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ValidationError(f"bad {kind} document: {exc}") from exc
