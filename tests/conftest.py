import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cptlaws import (
    FitConfig,
    LossRecord,
    RunSet,
    TrainingRun,
    eval_law,
)

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


def law_run(law, n, d_values, run_id="run", strategy="scratch", language="synthetic"):
    """A run whose records sit exactly on the given law."""
    records = tuple(
        LossRecord(tokens=int(d), loss=float(eval_law(law, n, int(d)))) for d in d_values
    )
    return TrainingRun(
        id=run_id,
        strategy=strategy,
        language=language,
        replay_ratio=0.0,
        param_count=int(n),
        records=records,
    )


def law_runset(law, sizes, records_per_run=12, token_multiple=20.0, strategy="scratch"):
    """Noise-free RunSet with one run per size, geomspaced token grids."""
    runs = []
    for i, n in enumerate(sizes):
        budget = token_multiple * n
        d_values = np.geomspace(0.01 * budget, budget, records_per_run).round().astype(int)
        runs.append(
            law_run(law, n, d_values, run_id=f"{strategy}-{i}", strategy=strategy)
        )
    return RunSet(runs=tuple(runs))


@pytest.fixture
def fast_cfg():
    """Reduced start grid for unit tests; the default grid is exercised in acceptance."""
    grid = tuple(
        (a, b, e, alpha, beta)
        for a in (4.0, 8.0)
        for b in (4.0, 8.0)
        for e in (0.0, 0.4)
        for alpha in (0.3, 0.5)
        for beta in (0.2, 0.4)
    )
    return FitConfig(init_grid=grid)


def past_float_range_runset():
    """Noise-free logs of L = 1.5 + 400 / N^0.35 + B / D^1.2 whose B = e^816 lies past float range.

    The token counts run from e^655 to e^690, so every data term is an
    ordinary loss; only B itself cannot be represented.
    """
    runs = []
    for i, n in enumerate(np.geomspace(5e7, 5e9, 4).astype(int)):
        tokens = [int(math.exp(log_d)) for log_d in np.linspace(655.0, 690.0, 12)]
        records = tuple(
            LossRecord(tokens=d, loss=1.5 + 400.0 * float(n) ** -0.35 + math.exp(816.0 - 1.2 * math.log(d)))
            for d in tokens
        )
        runs.append(TrainingRun(id=f"huge-{i}", strategy="scratch", language="synthetic",
                                replay_ratio=0.0, param_count=int(n), records=records))
    return RunSet(runs=tuple(runs))
