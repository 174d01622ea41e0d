"""Deterministic synthetic run generation from a known ground-truth law.

Generated RunSets serve as the independent oracle for the fitting and
transfer analyses: with zero noise every record sits exactly on the law, so
a correct fit must recover the generating coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .ingest import LossRecord, RunSet, TrainingRun, load_catalog
from .laws import (
    ExtendedCptParams,
    LawParams,
    REFERENCE_CPT_LAW,
    REFERENCE_SCRATCH_LAW,
    eval_law,
)


@dataclass(frozen=True)
class SynthConfig:
    """Ground-truth law plus the sampling grid and noise model.

    Each run covers token counts geometrically spaced between 1% and 100% of
    its budget ``token_multiple * N``, so early-training (high-loss) points
    exist.  Noise is multiplicative log-normal: loss = law(N, D) * exp(eps)
    with eps ~ Normal(0, noise_sigma^2), drawn from a generator seeded by
    (seed, run index, record index).
    """

    law: LawParams
    param_sizes: tuple[int, ...]
    token_multiple: float = 20.0
    records_per_run: int = 20
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "param_sizes", tuple(self.param_sizes))
        if not self.param_sizes:
            raise ValidationError("param_sizes must be nonempty")
        if any(n <= 0 for n in self.param_sizes):
            raise ValidationError("param_sizes must be positive")
        if not self.token_multiple > 0:  # also rejects NaN
            raise ValidationError(f"token_multiple must be positive, got {self.token_multiple!r}")
        if self.records_per_run < 2:
            raise ValidationError(
                f"records_per_run must be at least 2, got {self.records_per_run!r}"
            )
        if not self.noise_sigma >= 0:  # also rejects NaN
            raise ValidationError(f"noise_sigma must be nonnegative, got {self.noise_sigma!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed!r}")


def _record_noise(seed: int, run_index: int, record_index: int, sigma: float) -> float:
    rng = np.random.default_rng(np.random.SeedSequence((seed, run_index, record_index)))
    return float(rng.normal(0.0, sigma))


def generate_runset(cfg: SynthConfig) -> RunSet:
    """Generate one run per parameter size, exactly on the law when noise is 0."""
    strategy = "cpt" if isinstance(cfg.law, ExtendedCptParams) else "scratch"
    width = len(str(len(cfg.param_sizes) - 1))
    runs = []
    for i, n in enumerate(cfg.param_sizes):
        budget = cfg.token_multiple * n
        grid = np.geomspace(0.01 * budget, budget, cfg.records_per_run)
        tokens = [max(1, int(round(d))) for d in grid]
        if any(b <= a for a, b in zip(tokens, tokens[1:])):
            raise DomainError(
                f"token grid for N={n} collapses after rounding; "
                f"reduce records_per_run or increase the budget"
            )
        records = []
        for j, d in enumerate(tokens):
            loss = eval_law(cfg.law, n, d)
            if cfg.noise_sigma > 0:
                loss *= math.exp(_record_noise(cfg.seed, i, j, cfg.noise_sigma))
            records.append(LossRecord(tokens=d, loss=loss))
        runs.append(
            TrainingRun(
                id=f"{strategy}-{i:0{width}d}",
                strategy=strategy,
                language="synthetic",
                replay_ratio=0.0,
                param_count=int(n),
                records=tuple(records),
            )
        )
    return RunSet(runs=tuple(runs))


def paper_replica_config(strategy: str) -> SynthConfig:
    """Noise-free config mirroring the published fitting setup.

    One run per catalog model size (42 sizes), a 20x token budget, and the
    reference ground-truth law for the requested strategy.
    """
    if strategy == "scratch":
        law: LawParams = REFERENCE_SCRATCH_LAW
    elif strategy == "cpt":
        law = REFERENCE_CPT_LAW
    else:
        raise DomainError(f"strategy must be 'scratch' or 'cpt', got {strategy!r}")
    sizes = tuple(spec.param_size_millions * 1_000_000 for spec in load_catalog())
    return SynthConfig(
        law=law,
        param_sizes=sizes,
        token_multiple=20.0,
        records_per_run=20,
        noise_sigma=0.0,
        seed=0,
    )
