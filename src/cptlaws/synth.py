"""Deterministic synthetic run generation from a known ground-truth law.

Generated RunSets serve as the independent oracle for the fitting and
transfer analyses: with zero noise every record sits exactly on the law, so
a correct fit must recover the generating coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, ValidationError
from .ingest import LossRecord, RunSet, TrainingRun, load_catalog
from .laws import (_LOSS_LAWS, _REFERENCE_LAWS, STRATEGIES, LawParams, _as_tuple, _count, _hold,
                   _loss_law, _nonnegative_float, _positive_count, _positive_float, eval_law)


def _param_sizes(sizes, name: str) -> tuple[int, ...]:
    """``sizes`` as a nonempty tuple of counts, an integral float read as its int: 1e9 is 10**9."""
    if not (sizes := _as_tuple(sizes, name, lambda n, at: _positive_count(
            int(n) if isinstance(n, float) and n.is_integer() else n, at))):
        raise ValidationError(f"{name} must be nonempty")
    return sizes


@dataclass(frozen=True)
class SynthConfig:
    """Ground-truth law plus the sampling grid and noise model.

    Each run covers token counts geometrically spaced between 1% and 100% of
    its budget ``token_multiple * N``, so early-training (high-loss) points
    exist.  Noise is multiplicative log-normal: loss = law(N, D) * exp(eps)
    with eps ~ Normal(0, noise_sigma^2), drawn from a generator seeded by
    (seed, run index, record index).

    Sizes, ``records_per_run`` and ``seed`` are stored as ints (a bool is
    refused, an integral float size read as its int), and ``token_multiple``
    and ``noise_sigma`` as floats.
    """

    law: LawParams
    param_sizes: tuple[int, ...]
    token_multiple: float = 20.0
    records_per_run: int = 20
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # The budget rule is checked as soon as the fields it reads are held.
        _hold(self, law=_loss_law, param_sizes=_param_sizes, token_multiple=_positive_float)
        # Every run's budget, and the first point of its grid, must be a positive float.
        sizes, multiple = self.param_sizes, self.token_multiple
        if not (multiple * max(sizes) < math.inf and 0.01 * (multiple * min(sizes)) > 0):
            raise ValidationError("the token budget token_multiple * param_sizes "
                                  "must lie in float range")
        _hold(self, records_per_run=partial(_count, least=2), noise_sigma=_nonnegative_float,
              seed=partial(_count, least=0))


def _record_noise(seed: int, run_index: int, record_index: int, sigma: float) -> float:
    rng = np.random.default_rng(np.random.SeedSequence((seed, run_index, record_index)))
    return float(rng.normal(0.0, sigma))


def generate_runset(cfg: SynthConfig) -> RunSet:
    """Generate one run per parameter size, exactly on the law when noise is 0.

    The token grids and losses of all runs are one (runs x records) array step.
    """
    strategy = STRATEGIES[_LOSS_LAWS.index(type(cfg.law))]
    width = len(str(len(cfg.param_sizes) - 1))
    sizes = np.array(cfg.param_sizes, dtype=float)
    budgets = cfg.token_multiple * sizes
    # Each row runs from 1% to 100% of its budget; rint rounds half to even,
    # as round does, and a count is at least 1.
    tokens = np.maximum(np.rint(np.geomspace(0.01 * budgets, budgets, cfg.records_per_run, axis=1)), 1.0)
    # One array evaluation: the scalar path of eval_law could move a loss by
    # an ulp, and the generated logs are part of the contract.  A law term past
    # float range gives a loss of inf, which is checked once for every run.
    with np.errstate(over="ignore"):
        losses = eval_law(cfg.law, sizes[:, None], tokens)
    past_range = np.isinf(losses).any(axis=1).tolist()
    # Runs are checked and built in order, one row at a time, so a collapsed
    # grid, a loss or a noise draw out of float range is reported for the
    # first run that has one.
    runs = []
    for i, n in enumerate(cfg.param_sizes):
        # int of each float keeps counts past 2**63 exact, where an int64
        # cast would overflow.
        row = [int(d) for d in tokens[i].tolist()]
        if any(b <= a for a, b in zip(row, row[1:])):
            raise DomainError(
                f"token grid for N={n} collapses after rounding; "
                f"reduce records_per_run or increase the budget"
            )
        if past_range[i]:
            d = row[int(np.argmax(np.isinf(losses[i])))]
            raise DomainError(f"the law's loss at N={n}, D={d} is past float range")
        records = []
        for j, (d, loss) in enumerate(zip(row, losses[i].tolist())):
            if cfg.noise_sigma > 0:
                noise = _record_noise(cfg.seed, i, j, cfg.noise_sigma)
                try:
                    loss *= math.exp(noise)
                except OverflowError:
                    loss = math.inf
                if not 0 < loss < math.inf:
                    raise DomainError(
                        f"noise_sigma {cfg.noise_sigma!r} is too large: a log-noise draw of "
                        f"{noise:.4g} takes the loss of N={n}, D={d} out of float range"
                    )
            records.append(LossRecord(d, loss))
        runs.append(
            TrainingRun(
                id=f"{strategy}-{i:0{width}d}",
                strategy=strategy,
                language="synthetic",
                replay_ratio=0.0,
                param_count=n,
                records=tuple(records),
            )
        )
    return RunSet(runs=tuple(runs))


def paper_replica_config(strategy: str) -> SynthConfig:
    """Noise-free config mirroring the published fitting setup.

    One run per catalog model size (42 sizes) on the reference ground-truth
    law of the requested strategy, with ``SynthConfig``'s defaults: a 20x
    token budget, 20 records per run and no noise.
    """
    law = _REFERENCE_LAWS.get(strategy) if isinstance(strategy, str) else None
    if law is None:
        names = " or ".join(map(repr, STRATEGIES))
        raise DomainError(f"strategy must be {names}, got {strategy!r}")
    sizes = tuple(spec.param_size_millions * 1_000_000 for spec in load_catalog())
    return SynthConfig(law=law, param_sizes=sizes)
