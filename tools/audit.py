"""Seeded audit of the estimators: one JSON line per fit, so two versions compare with diff.

    python tools/audit.py --parity > parity.jsonl

``--parity`` fits the parity set: the paper-replica logs at noise 0 and at
sigma = 0.01 (seeds 1, 2 and 4) and 0.03 (seeds 3 and 5).  On each it runs
``fit_scratch`` on the scratch log, the two-stage ``fit_cpt`` (the CPT log with
(E, A, alpha) from that scratch fit), ``compare_laws`` on the CPT log and the
free-offset frontier of each log.  A line holds the ``repr`` of the fitted law
(``params``; the comparison itself for ``compare_laws``), of the last
multistart's objective and of its chosen start, and for every multistart of
the fit its starts, the sha256 of the ``repr`` of its start grid, best-basin
size, kernel rows and the count of each stop rule in the stage and the
finish.  Two runs of one version write the same bytes.  The script reads the
package from the ``src`` directory beside it and is not part of it; to
compare two versions, put one copy of it in each version's ``tools``
directory and ``cmp`` their outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cptlaws import (  # noqa: E402  (the path above must come first)
    compare_laws,
    extract_compute_frontier,
    fit_cpt,
    fit_frontier,
    fit_scratch,
    generate_runset,
    paper_replica_config,
)
from cptlaws import fitter  # noqa: E402

PARITY_SET = ((0.0, 0), (0.01, 1), (0.01, 2), (0.01, 4), (0.03, 3), (0.03, 5))


def _replica(strategy: str, sigma: float, seed: int):
    config = dataclasses.replace(paper_replica_config(strategy), noise_sigma=sigma, seed=seed)
    return generate_runset(config)


def _two_stage(scratch, cpt):
    law = fit_scratch(scratch).params
    return fit_cpt(cpt, (law.E, law.A, law.alpha))


def _population(fit) -> dict:
    """Starts, grid digest, basin, kernel rows and stop-rule counts of one ``_fit_mask`` record."""
    passes = {"stage": fit.stage, "finish": fit.finish}
    return {
        "starts": len(fit.keys),
        "grid": hashlib.sha256(repr(fit.keys).encode()).hexdigest(),
        "basin": len(fit.basin),
        **{f"{name}_rows": len(p.x) + int(p.trials.sum()) for name, p in passes.items()},
        **{f"{name}_stops": dict(sorted(Counter(p.stops.tolist()).items()))
           for name, p in passes.items()},
    }


def parity_lines():
    """One JSON document per parity fit, in a fixed order."""
    populations, real_fit_mask = [], fitter._fit_mask

    def recording_fit_mask(*args, **kwargs):
        populations.append(real_fit_mask(*args, **kwargs))
        return populations[-1]

    fitter._fit_mask = recording_fit_mask
    try:
        for sigma, seed in PARITY_SET:
            scratch, cpt = _replica("scratch", sigma, seed), _replica("cpt", sigma, seed)
            fits = {
                "fit_scratch": lambda: fit_scratch(scratch).params,
                "fit_cpt": lambda: _two_stage(scratch, cpt).params,
                "compare_laws": lambda: compare_laws(cpt),
                "frontier_scratch": lambda: fit_frontier(extract_compute_frontier(scratch),
                                                         fix_offset_zero=False),
                "frontier_cpt": lambda: fit_frontier(extract_compute_frontier(cpt),
                                                     fix_offset_zero=False),
            }
            for name, fit in fits.items():
                populations.clear()
                params = fit()
                yield {"fit": name, "sigma": sigma, "seed": seed, "params": repr(params),
                       "objective": repr(populations[-1].objective),
                       "chosen_init": repr(populations[-1].chosen),
                       "populations": [_population(p) for p in populations]}
    finally:
        fitter._fit_mask = real_fit_mask


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parity", action="store_true", required=True,
                        help="fit the parity set and write one JSON line per fit")
    parser.parse_args(argv)
    for doc in parity_lines():
        print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
