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
and a non-positive, infinite or NaN input is a DomainError; what ``_real``
refuses as a number, or an int past float range, is a ValidationError on
the scalar path and a DomainError on the array path.  A grid of the loss
law over N and D (``_law_grid``) takes the scalar path's operations in its
order, so each cell equals the scalar ``eval_law`` bit for bit.

The rules of the package's numbers are written here once, each as a
converter ``(value, name)`` that returns the value converted or raises an
error naming it.  A frozen record stores its fields through ``_hold``, which
applies one converter per field in the order given; a record's
``__post_init__`` is that call plus the rules that relate its fields.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
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


def _real(x, depth=64) -> bool:
    """Whether ``x`` is a real number other than a bool, or a list, tuple or numpy array of them."""
    if type(x) is float or type(x) is int:  # the common case, tested first
        return True
    kind = getattr(getattr(x, "dtype", None), "kind", None)  # a numpy duration is a numbers.Real
    if kind == "O" or isinstance(x, (list, tuple)):
        # numpy reads an object array's items, and holds at most 64 dimensions; the depth
        # also ends a list or an object array that holds itself.
        items = _namespace(x).asarray(x).flat if kind else x
        return depth > 0 and all(_real(item, depth - 1) for item in items)
    if kind is not None:
        return kind in "iuf"
    from decimal import Decimal  # imported here, so that start-up loads neither module
    from numbers import Real

    return isinstance(x, (Real, Decimal)) and not isinstance(x, bool)


def _as_float(value, name: str) -> float:
    """``float(value)`` if ``_real`` accepts it; another value, or one too large, is an error."""
    try:
        return float(value if _real(value) else None)  # float(None) raises TypeError
    except OverflowError:
        raise ValidationError(f"{name} is too large") from None
    except (TypeError, ValueError):  # also a list, an array of several values, a signaling NaN
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}") from None


# The rules of the library's number arguments and coefficients: the wording of
# a fault and a test, which also rejects NaN.
_POSITIVE = ("be positive and finite", lambda value: 0 < value < math.inf)
_ABOVE_ZERO = ("be positive", lambda value: value > 0)
_NONNEGATIVE = ("be nonnegative", lambda value: 0 <= value < math.inf)
_FRACTION = ("lie in [0, 1]", lambda value: 0 <= value <= 1)
_BELOW_ONE = ("lie in [0, 1)", lambda value: 0 <= value < 1)
_SAVING = ("be finite and below 1", lambda value: -math.inf < value < 1)
_FINITE = ("be finite", math.isfinite)


def _checked(value, name: str, rule, error=ValidationError) -> float:
    """``_as_float(value, name)`` that meets ``rule``; a value that does not is ``error``."""
    value = _as_float(value, name)
    wording, test = rule
    if not test(value):
        raise error(f"{name} must {wording}, got {value!r}")
    return value


def _count(value, name: str, least: int, error=ValidationError) -> int:
    """``operator.index(value)`` of at least ``least``; a value ``_real`` refuses, a non-integer or
    a count past float range is a ValidationError, and a count below ``least`` is ``error``."""
    try:  # operator.index(None) raises, as it does for a float or an array but a 0-d integer
        value = operator.index(value if _real(value) else None)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if abs(value) >= _FLOAT_INT_LIMIT:  # as _as_float says; its repr may raise
        raise ValidationError(f"{name} is too large")
    if value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")
    return value


def _as_tuple(values, name: str, convert=_as_float, length=None, kind="a sequence") -> tuple:
    """``values`` as a tuple of ``convert(value, f"{name}[i]")``, or of the values themselves
    for ``convert=None``; a non-iterable (the fault says it must be ``kind``), or a length
    other than ``length`` when one is given, is a ValidationError."""
    if not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be {kind}, got {type(values).__name__}")
    values = tuple(values if convert is None else
                   (convert(value, f"{name}[{i}]") for i, value in enumerate(values)))
    if length is not None and len(values) != length:
        raise ValidationError(f"{name} must hold {length} values, got {len(values)}")
    return values


# The rule of each kind of record field, as a converter ``(value, name)``; a float
# rule's converter also takes the ``error`` of ``_checked``.
_finite_float = partial(_checked, rule=_FINITE)
_positive_float = partial(_checked, rule=_POSITIVE)
_nonnegative_float = partial(_checked, rule=_NONNEGATIVE)
_finite_floats = partial(_as_tuple, convert=_finite_float)
_positive_floats = partial(_as_tuple, convert=_positive_float)
_point = partial(_as_tuple, convert=_positive_float, length=2)  # an (x, y) pair
_points = partial(_as_tuple, convert=_point)
_positive_count = partial(_count, least=1)


def _loss_law(law, name: str):
    """``law`` when it is a loss law record, else a ValidationError."""
    _law_kind(law, "a loss law")
    return law


def _hold(record, **converters) -> None:
    """Store each named field of the frozen ``record`` as ``convert(value, name)``, in order."""
    for name, convert in converters.items():
        object.__setattr__(record, name, convert(getattr(record, name), name))


# Each field of the three law records: its place among the extended law's (A, B',
# E, alpha, beta', gamma), and the converter of its rule.  The from-scratch law's
# B and beta take the places of B' and beta', and the frontier is the law over C
# with (A, E, alpha) := (coefficient, offset, exponent).
_FIELDS = {"A": (0, _positive_float), "B": (1, _positive_float), "B_prime": (1, _positive_float),
           "E": (2, _positive_float), "alpha": (3, _positive_float), "beta": (4, _positive_float),
           "beta_prime": (4, _positive_float), "gamma": (5, _finite_float),
           "coefficient": (0, partial(_checked, rule=("be positive", _POSITIVE[1]))),
           "offset": (2, _nonnegative_float), "exponent": (3, _nonnegative_float)}


class _Law:
    """Base of the law records: each coefficient is stored as a float that meets its rule."""

    def __post_init__(self):
        _hold(self, **{field.name: _FIELDS[field.name][1] for field in fields(self)})


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


def _positive(xp, x, name: str):
    """``x`` as a float (``xp`` is ``_MATH``) or a float array, checked positive and finite.

    On the array path a value ``_real`` refuses, or numpy cannot read as floats, is a DomainError.
    """
    if xp is _MATH:
        return _positive_float(x, name, error=DomainError)
    try:
        array = xp.asarray(x, dtype=float) if _real(x) else None
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
