"""Closed-form scaling-law families: evaluation, inversion, and crossover.

Three families are supported:

* Chinchilla form              L(N, D) = E + A / N^alpha + B / D^beta
* extended CPT form            L(N, D) = E + A / N^alpha + B' / (D^beta' N^gamma)
* loss-compute frontier        L(C)    = offset + coefficient / C^exponent

The Chinchilla form is the extended form at gamma = 0, B' = B, so each loss
law operation is written once over the extended form.

All evaluation happens in log space so extreme parameter counts, token
budgets, and compute values stay inside float range.  Each formula is
written once over a namespace: when every input is a Python number (``int``
or ``float``, which includes ``numpy.float64``) it runs in ``math`` and
returns a float, so the closed-form commands never load numpy; any other
input runs in numpy, which broadcasts arrays and returns a float for a 0-d
result.  The two paths agree to about 1 ulp (``math.exp`` and ``numpy.exp``
are different implementations); code whose output must not move by an ulp
evaluates through arrays.  On both paths an exp past float range is inf,
and a non-positive, infinite, NaN or text input is a DomainError; a bool or
an int past float range is a ValidationError on the scalar path and a
DomainError on the array path, which also refuses None, complex and
bytes-like input.  A grid of the loss law over N and D (``_law_grid``) takes
the scalar path's operations in its order, so each cell equals the scalar
``eval_law`` bit for bit.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Union

from .errors import (
    DomainError,
    FitFailureError,
    NoCrossoverError,
    UnreachableLossError,
    ValidationError,
)

#: Version stamp written into every serialized parameter document.
SCHEMA_VERSION = 1

#: FLOPs attributed per parameter per training token (C = 6 N D).
FLOPS_PER_PARAM_TOKEN = 6.0

# The least int that float() cannot convert: halfway from the largest float to
# 2**1024, where rounding to even goes up.  Every count lies below it.
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _as_float(value, name: str) -> float:
    """``float(value)`` for a number; a bool, a non-number or one past float range is an error."""
    if isinstance(value, bool) or not hasattr(value, "__float__"):  # a str has no __float__
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large") from None


# The rules of the library's number arguments and coefficients: the wording of
# a fault and a test, which also rejects NaN.
_POSITIVE = ("be positive and finite", lambda value: 0 < value < math.inf)
_ABOVE_ZERO = ("be positive", lambda value: value > 0)
_NONNEGATIVE = ("be nonnegative", lambda value: 0 <= value < math.inf)
_FRACTION = ("lie in [0, 1]", lambda value: 0 <= value <= 1)
_BELOW_ONE = ("lie in [0, 1)", lambda value: 0 <= value < 1)
_SAVING = ("be finite and below 1", lambda value: -math.inf < value < 1)
_FINITE = ("be finite", math.isfinite)

# Each field of the three law records: its place among the extended law's (A, B',
# E, alpha, beta', gamma), and the rule its value meets.  The from-scratch law's B
# and beta take the places of B' and beta', and the frontier is the law over C
# with (A, E, alpha) := (coefficient, offset, exponent).
_FIELDS = {"A": (0, _POSITIVE), "B": (1, _POSITIVE), "B_prime": (1, _POSITIVE),
           "E": (2, _POSITIVE), "alpha": (3, _POSITIVE), "beta": (4, _POSITIVE),
           "beta_prime": (4, _POSITIVE), "gamma": (5, _FINITE),
           "coefficient": (0, ("be positive", _POSITIVE[1])), "offset": (2, _NONNEGATIVE),
           "exponent": (3, _NONNEGATIVE)}


def _checked(value, name: str, rule, error=ValidationError) -> float:
    """``_as_float(value, name)`` that meets ``rule``; a value that does not is ``error``."""
    value = _as_float(value, name)
    wording, test = rule
    if not test(value):
        raise error(f"{name} must {wording}, got {value!r}")
    return value


def _count(value, name: str, least: int, error=ValidationError) -> int:
    """``operator.index(value)`` of at least ``least``; a bool, a non-integer or a count
    past float range is a ValidationError, and a count below ``least`` is ``error``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if abs(value) >= _FLOAT_INT_LIMIT:  # as _as_float says; its repr may raise
        raise ValidationError(f"{name} is too large")
    if value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")
    return value


def _as_tuple(values, name: str, convert=_as_float, length=None) -> tuple:
    """``values`` as a tuple of ``convert(value, f"{name}[i]")``, or of the values themselves
    for ``convert=None``; a non-iterable, or a length other than ``length`` when one is given,
    is a ValidationError."""
    if not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be a sequence, got {type(values).__name__}")
    values = tuple(values if convert is None else
                   (convert(value, f"{name}[{i}]") for i, value in enumerate(values)))
    if length is not None and len(values) != length:
        raise ValidationError(f"{name} must hold {length} values, got {len(values)}")
    return values


def _point(value, name: str, error=ValidationError) -> tuple[float, float]:
    """``value`` as an (x, y) pair of positive finite floats; a coordinate that is not is ``error``."""
    return _as_tuple(value, name, lambda x, at: _checked(x, at, _POSITIVE, error), 2)


class _Law:
    """Base of the law records: each coefficient is stored as a float that meets its rule."""

    def __post_init__(self):
        for name in (field.name for field in fields(self)):
            object.__setattr__(self, name, _checked(getattr(self, name), name, _FIELDS[name][1]))


@dataclass(frozen=True)
class ChinchillaParams(_Law):
    """Coefficients of the from-scratch loss law E + A/N^alpha + B/D^beta."""

    E: float
    A: float
    B: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class ExtendedCptParams(_Law):
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


@dataclass(frozen=True)
class FrontierParams(_Law):
    """Optimal-loss power law in compute: offset + coefficient / C^exponent.

    A zero exponent is allowed so that a flat frontier (constant loss) is
    representable; crossover and savings computations require the exponents
    to be positive and the offsets zero.
    """

    coefficient: float
    exponent: float
    offset: float = 0.0


# The two loss laws and the training strategies a run log names, in the same
# order: a strategy's runs follow the law at its place, the from-scratch one first.
_LOSS_LAWS = (ChinchillaParams, ExtendedCptParams)
LawParams = Union[_LOSS_LAWS]
STRATEGIES = ("scratch", "cpt")

# Published coefficient sets for the two training strategies, reproduced by
# the fitting pipeline on synthetic data and by the acceptance suite.
REFERENCE_SCRATCH_LAW = ChinchillaParams(E=1.55, A=420.0, B=719.5, alpha=0.40, beta=0.30)
REFERENCE_CPT_LAW = ExtendedCptParams(
    E=1.55, A=420.0, alpha=0.40, B_prime=433.3, beta_prime=0.20, gamma=0.08
)
# The reference law of each strategy, for the paper-replica logs and the synth presets.
_REFERENCE_LAWS = dict(zip(STRATEGIES, (REFERENCE_SCRATCH_LAW, REFERENCE_CPT_LAW)))

# Published loss-compute frontier fits for the two strategies.
REFERENCE_SCRATCH_FRONTIER = FrontierParams(coefficient=33.69907, exponent=0.0579)
REFERENCE_CPT_FRONTIER = FrontierParams(coefficient=31.9594, exponent=0.0575)


class _Math:
    """The ``math`` functions the formulas use, with numpy's overflow rule: exp past float range is inf."""

    log = staticmethod(math.log)

    @staticmethod
    def exp(x: float) -> float:
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf


_MATH = _Math()


def _exp_coefficients(**logs: float) -> dict[str, float]:
    """exp of each named log-coefficient, raising ``FitFailureError`` for a value of 0 or inf.

    Such a coefficient cannot be reported: the data leave its term undetermined
    (its weight underflows, so no step moves it), or no float covers their scale.
    """
    values = {name: _MATH.exp(x) for name, x in logs.items()}
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise FitFailureError(f"fitted {name} = exp({logs[name]:.6g}) is outside float range")
    return values


def _namespace(*values):
    """``_MATH`` when every value is a Python number, else numpy (imported on first use)."""
    if all(isinstance(value, (int, float)) for value in values):
        return _MATH
    import numpy

    return numpy


def _real_objects(xp, array) -> bool:
    """Whether each element of an object array is a real number: no None, text, bool or complex."""
    refused = (bool, xp.bool_, xp.complexfloating)  # a complex scalar of numpy has __float__
    return all(hasattr(x, "__float__") and not isinstance(x, refused) for x in array.flat)


def _positive(xp, x, name: str):
    """``x`` as a float (``xp`` is ``_MATH``) or a float array, checked positive and finite.

    On the array path anything but a real number, or an array of them, is a DomainError.
    """
    if xp is _MATH:
        return _checked(x, name, _POSITIVE, DomainError)
    try:
        array = xp.asarray(x)
        # numpy would read the text "1e9", True, a date and a record of one field
        # as numbers, None as NaN and a complex value as its real part, also as an
        # element of an object array, and a bytearray or memoryview as its bytes.
        real = not isinstance(x, (bytearray, memoryview)) and (
            array.dtype.kind in "iuf" or array.dtype == object and _real_objects(xp, array))
        array = array.astype(float, copy=False) if real else None
    except (TypeError, ValueError, OverflowError):  # a ragged list, an int past float range
        array = None
    if array is None:
        raise DomainError(f"{name} must be a number or an array of numbers, got {type(x).__name__}")
    # One pass that also rejects NaN (both comparisons are False).
    if not ((array > 0) & (array < math.inf)).all():
        raise DomainError(f"{name} must be positive and finite")
    return array


def _result(value):
    """A float for a scalar result, else the array."""
    return value if isinstance(value, float) else (float(value) if value.ndim == 0 else value)


def _any_nonpositive(value) -> bool:
    return value <= 0 if isinstance(value, float) else bool((value <= 0).any())


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.geomspace(start, stop, num)`` for positive numbers.

    Floats evenly spaced in log10, with exact endpoints.
    """
    start, stop = float(start), float(stop)
    if num == 1:
        return [start]
    log_start = math.log10(start)
    step = (math.log10(stop) - log_start) / (num - 1)
    return [start, *(10.0 ** (i * step + log_start) for i in range(1, num - 1)), stop]


def _coefficients(law: LawParams) -> tuple[float, float, float, float, float, float]:
    """(E, A, alpha, B, beta, gamma) of either loss law.

    The from-scratch law is the extended law with gamma = 0 and B' = B; the body
    names the fields ``_FIELDS`` places, as a loop over that table is slower.
    """
    if _law_kind(law, "a loss law") == "chinchilla":
        return law.E, law.A, law.alpha, law.B, law.beta, 0.0
    return law.E, law.A, law.alpha, law.B_prime, law.beta_prime, law.gamma


def eval_law(law: LawParams, N, D):
    """Evaluate E + A/N^alpha + B'/(D^beta' N^gamma); always strictly above E."""
    E, A, alpha, B, beta, gamma = _coefficients(law)
    xp = _namespace(N, D)
    n = _positive(xp, N, "N")
    d = _positive(xp, D, "D")
    log_n = xp.log(n)
    loss = (
        E
        + xp.exp(math.log(A) - alpha * log_n)
        + xp.exp(math.log(B) - beta * xp.log(d) - gamma * log_n)
    )
    return _result(loss)


def _law_grid(law: LawParams, n_values, d_values) -> tuple[tuple[float, ...], ...]:
    """``eval_law(law, n, d)`` for each n (rows) and d (columns) of positive finite floats.

    Each cell takes the scalar path's operations in its order, so it equals
    ``eval_law(law, n, d)`` bit for bit; a row's E + A e^(-alpha log n) and a
    column's log B' - beta' log d are computed once.
    """
    E, A, alpha, B, beta, gamma = _coefficients(law)
    exp = _MATH.exp
    columns = [math.log(B) - beta * math.log(d) for d in d_values]
    grid = []
    for n in n_values:
        row = _floor(E, A, alpha, n, "N")
        n_term = gamma * math.log(n)
        grid.append(tuple([row + exp(column - n_term) for column in columns]))
    return tuple(grid)


def _floor(E: float, A: float, alpha: float, X, name: str):
    """E + A / X^alpha: a loss law's floor in N, and in C the frontier, as ``_FIELDS`` places it."""
    xp = _namespace(X)
    x = _positive(xp, X, name)
    return _result(E + xp.exp(math.log(A) - alpha * xp.log(x)))


def eval_frontier(p: FrontierParams, C):
    """Evaluate offset + coefficient / C^exponent."""
    _law_kind(p, "a frontier")
    return _floor(p.offset, p.coefficient, p.exponent, C, "C")


def loss_floor(law: LawParams, N):
    """Infimum of the law's loss at fixed N (the D -> infinity limit)."""
    E, A, alpha, *_ = _coefficients(law)
    return _floor(E, A, alpha, N, "N")


def solve_tokens_for_loss(law: LawParams, N, L):
    """Tokens D at which the law reaches loss L for a model of size N.

    Closed-form inverse of the loss law in D; raises UnreachableLossError
    when L does not exceed the loss floor at this N.
    """
    E, A, alpha, B, beta, gamma = _coefficients(law)
    xp = _namespace(N, L)
    n = _positive(xp, N, "N")
    target = _positive(xp, L, "L")
    floor = _floor(E, A, alpha, n, "N")
    gap = target - floor
    if _any_nonpositive(gap):
        raise UnreachableLossError(
            f"loss {L!r} is at or below the floor {floor!r} for N={N!r}"
        )
    return _result(xp.exp((math.log(B) - xp.log(gap) - gamma * xp.log(n)) / beta))


def frontier_crossover(f1: FrontierParams, f2: FrontierParams) -> float:
    """Compute level where two zero-offset frontiers intersect.

    Identical frontiers intersect everywhere; that degenerate case returns
    C = 1 and emits a warning rather than an error.
    """
    _zero_offset(f1, f2)
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


# The law_kinds an argument may take, by what a fault calls it.
_EXPECTED = {"a law record": tuple(_KIND_TYPES), "a frontier": ("frontier",),
             "a loss law": tuple(_LAW_KINDS[cls] for cls in _LOSS_LAWS)}


def _law_kind(law, expected: str = "a law record") -> str:
    """``law``'s law_kind, one of those ``_EXPECTED[expected]`` names; else a ValidationError."""
    kind = _LAW_KINDS.get(type(law))
    if kind not in _EXPECTED[expected]:
        raise ValidationError(f"expected {expected}, got {type(law).__name__}")
    return kind


def _zero_offset(*frontiers: FrontierParams) -> None:
    """Check that each frontier is one and has offset 0, which the closed forms need."""
    for frontier in frontiers:
        _law_kind(frontier, "a frontier")
        if frontier.offset != 0.0:
            raise DomainError(f"the closed form needs zero-offset frontiers, got offset "
                              f"{frontier.offset!r}")


def law_to_dict(law) -> dict:
    """Serialize any parameter record to a versioned JSON-compatible dict."""
    doc = {"schema_version": SCHEMA_VERSION, "law_kind": _law_kind(law)}
    doc.update(asdict(law))
    return doc


def check_schema_version(doc: dict) -> None:
    """Raise ValidationError unless ``doc["schema_version"]`` is the integer SCHEMA_VERSION."""
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # bool and float are not a version
        raise ValidationError(f"unsupported schema_version {version!r}")


def law_from_dict(doc: dict):
    """Inverse of :func:`law_to_dict`; validates the version, the discriminator and the fields."""
    if not isinstance(doc, dict):
        raise ValidationError("law document must be a JSON object")
    check_schema_version(doc)
    kind = doc.get("law_kind")
    cls = _KIND_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown law_kind {kind!r}")
    values = {k: v for k, v in doc.items() if k not in ("schema_version", "law_kind")}
    defaults = {field.name: field.default for field in fields(cls)}
    try:
        for name in values:
            if name not in defaults:
                raise ValidationError(f"unknown field {name!r}")
        for name, default in defaults.items():
            if default is MISSING and name not in values:
                raise ValidationError(f"missing field {name!r}")
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"bad {kind} document: {exc}") from exc
