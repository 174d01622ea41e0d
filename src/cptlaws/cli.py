"""Command-line workflows: synthesize, fit, allocate, and analyze run logs.

Exit codes: 0 success, 2 usage error, then by the package's error types
alone: 4 a ``FitError``, 3 any other ``CptLawsError``, 5 an ``OSError``.  Any
other exception is a fault and shows as a traceback.  Argparse reads the
command line first.  Then comes the JSON file named by the ``CPTLAWS_CONFIG``
environment variable, which may supply defaults for common flags; any error
in it exits 5.  Then each command checks its usage rule, and only then reads
its inputs.  Machine-readable outputs are written atomically (temp file then
rename, with the mode ``open()`` gives) and every document carries a schema
version.  Inputs may start with a UTF-8 byte-order mark.

Each command imports the package's layers it calls, where it calls them, so
only the law fits (``fit``, ``compare-laws`` and ``frontier
--no-fix-offset-zero``) and ``synth`` load numpy.  An output path that is a
symbolic link is written through: its target is replaced and the link stays.
Unless the environment sets a BLAS thread count, ``main`` sets
``OPENBLAS_NUM_THREADS=1`` before any command imports numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import laws
from .errors import CptLawsError, FitError, ParseError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_FIT = 4
EXIT_IO = 5

CONFIG_ENV_VAR = "CPTLAWS_CONFIG"

#: Thread-count variables that numpy's BLAS (OpenBLAS or MKL) reads when numpy is imported.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Flag destinations the environment config file may override.
_CONFIG_KEYS = (
    "delta",
    "warmup_fraction",
    "bins_per_decade",
    "levels",
    "resolution",
    "noise",
    "seed",
)

#: The strategy of each ``synth --preset``.
_PRESETS = {f"paper-{strategy}": strategy for strategy in laws.STRATEGIES}


def _open_mode(path: str) -> int:
    """The mode ``open(path, "w")`` leaves: an existing file's own, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        os.umask(umask := os.umask(0))  # the umask is read by setting it
        return 0o666 & ~umask


def _write_atomic(path: str, write_fn) -> None:
    """Run a path-taking writer against a temp file beside ``path``, then rename.

    A symbolic link is resolved first, so the rename replaces its target, as
    ``open(path, "w")`` would write through it, and the link stays a link.
    """
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=f".{os.path.basename(path)}.")
    os.close(fd)
    try:
        write_fn(tmp)
        os.chmod(tmp, _open_mode(path))  # mkstemp created it 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_doc(path: str, kind: str, fields: dict) -> None:
    """Write ``fields`` as a versioned document of ``kind``, atomically."""
    doc = {"schema_version": laws.SCHEMA_VERSION, "kind": kind, **fields}
    text = json.dumps(doc, indent=2) + "\n"
    _write_atomic(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))


def _write_report(path: str, kind: str, fields: dict, export_csv) -> None:
    """Write a document of ``kind`` to a ``.json`` path, else the table ``export_csv(path)`` writes.

    The suffix is matched in any case, so ``out.JSON`` gets the document too.
    """
    if path.lower().endswith(".json"):
        _write_doc(path, kind, fields)
    else:
        _write_atomic(path, export_csv)


def load_json(path):
    """The JSON document at ``path``; one that does not decode is a ParseError naming the path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is ignored
            return json.load(fh)
    # Invalid UTF-8 or JSON, an integer past the digit limit, or nesting past the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_law(path: str, kinds: tuple[type, ...], what: str):
    """Read a law of one of ``kinds`` from a bare law document or a fit-report document.

    A document with ``params`` must be a ``fit_report`` of this schema
    version.  A law of any other kind is a ValidationError naming the file and
    ``what`` was expected.
    """
    doc = load_json(path)
    if isinstance(doc, dict) and "params" in doc:
        if doc.get("kind") != "fit_report":
            raise ValidationError(f"{path}: a document with params must be a fit_report, "
                                  f"got kind {doc.get('kind')!r}")
        laws.check_schema_version(doc)
        doc = doc["params"]
    law = laws.law_from_dict(doc)
    if not isinstance(law, kinds):
        raise ValidationError(f"{path}: expected {what}, got law_kind {doc['law_kind']!r}")
    return law


def _parse_range(flag: str, text: str) -> tuple[float, float]:
    """The (lo, hi) of a ``LO:HI`` flag value; any other text is a ValidationError."""
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ValidationError(f"{flag} expects LO:HI, got {text!r}") from None


def _fit_config(args):
    """The FitConfig of ``--delta`` and ``--warmup-fraction``; no ``--delta`` means the fitter's default."""
    from . import fitter

    delta = fitter.DEFAULT_DELTA if args.delta is None else args.delta
    return fitter.FitConfig(delta=delta, warmup_fraction=args.warmup_fraction)


def cmd_fit(args) -> int:
    if (args.strategy == "cpt") != bool(args.fixed_from):
        print("error: --fixed-from goes with --strategy cpt, and only with it", file=sys.stderr)
        return EXIT_USAGE
    from . import fitter, ingest

    runs = ingest.load_runs(args.runs)
    cfg = _fit_config(args)
    if args.fixed_from:
        base = _load_law(args.fixed_from, (laws.ChinchillaParams,),
                         "a from-scratch law for --fixed-from")
        report = fitter.fit_cpt(runs, (base.E, base.A, base.alpha), cfg)
    else:
        report = fitter.fit_scratch(runs, cfg)
    _write_doc(args.out, "fit_report", {
        "params": laws.law_to_dict(report.params),
        "objective": report.objective,
        "n_points": report.n_points,
        "chosen_init": report.chosen_init,
    })
    print(f"fitted {type(report.params).__name__} on {report.n_points} records")
    for field in dataclasses.fields(report.params):
        print(f"  {field.name:<10} = {getattr(report.params, field.name):.6g}")
    print(f"  objective  = {report.objective:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_frontier(args) -> int:
    from . import ingest, transfer

    runs = ingest.load_runs(args.runs)
    points = transfer.extract_compute_frontier(runs, args.bins_per_decade)
    params = transfer.fit_frontier(points, fix_offset_zero=args.fix_offset_zero)
    _write_doc(args.out, "frontier_fit",
               {"params": laws.law_to_dict(params), "n_points": len(points), "points": points})
    print(
        f"frontier over {len(points)} points: "
        f"L(C) = {params.offset:.4g} + {params.coefficient:.6g} * C^-{params.exponent:.6g}"
    )
    lowest = min(loss for _, loss in points)
    if not args.fix_offset_zero and abs(lowest - params.offset) <= 1e-12 * lowest:
        print(
            f"warning: the fitted offset {params.offset:.6g} is the lowest frontier loss, "
            "the upper bound of its search: the bound set it, not the data",
            file=sys.stderr,
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_allocate(args) -> int:
    from . import allocator

    law = _load_law(args.fit, laws._LOSS_LAWS, "a loss law")
    coeffs = allocator.allocation_coefficients(law)
    plan = allocator.optimal_allocation(coeffs, args.compute, law)
    if args.out:
        _write_doc(args.out, "allocation_plan",
                   {"coefficients": dataclasses.asdict(coeffs), **dataclasses.asdict(plan)})
    print(f"C = {plan.compute:.4g} FLOPs")
    print(f"  N_opt = {plan.n_opt:.4g} params  ({coeffs.k_N:.3g} * C^{coeffs.a:.4g})")
    print(f"  D_opt = {plan.d_opt:.4g} tokens  ({coeffs.k_D:.3g} * C^{coeffs.b:.4g})")
    print(f"  predicted loss = {plan.predicted_loss:.5g}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_isoloss(args) -> int:
    from . import allocator

    law = _load_law(args.fit, laws._LOSS_LAWS, "a loss law")
    n_range = _parse_range("--n-range", args.n_range)
    d_range = _parse_range("--d-range", args.d_range)
    grid = allocator.isoloss_grid(law, n_range, d_range, args.resolution)
    _write_atomic(args.out, lambda tmp: allocator.export_isoloss_csv(grid, law, tmp))
    print(
        f"wrote {args.out}: {len(grid.n_axis) * len(grid.d_axis)} grid cells, "
        f"{len(grid.frontier)} frontier points"
    )
    return EXIT_OK


def _load_single_run(path: str):
    from . import ingest

    runs = ingest.load_runs(path)
    if len(runs) != 1:
        raise ValidationError(f"{path} must contain exactly one run, found {len(runs)}")
    return runs.runs[0]


def cmd_transfer(args) -> int:
    # The flags of the empirical and the parametric route: give all of one.
    routes = ({"pt_run", "cpt_run"}, {"scratch_fit", "cpt_fit", "n", "d"})
    given = {flag for flag in set().union(*routes) if getattr(args, flag) is not None}
    if given not in routes:
        print("error: transfer needs either --pt-run and --cpt-run, "
              "or --scratch-fit, --cpt-fit, --n and --d", file=sys.stderr)
        return EXIT_USAGE
    from . import transfer

    if given == routes[0]:
        levels = transfer.DEFAULT_LEVELS if args.levels is None else args.levels
        report = transfer.empirical_transfer(
            _load_single_run(args.pt_run), _load_single_run(args.cpt_run), levels
        )
        if args.out:
            _write_report(args.out, "transfer_report", dataclasses.asdict(report),
                          lambda tmp: transfer.export_transfer_csv(report, tmp))
            print(f"wrote {args.out}")
        saved = report.flops_saved_fraction
        print(f"{len(saved)} loss levels; FLOPs saved {min(saved):.3f} .. {max(saved):.3f}")
        return EXIT_OK

    scratch = _load_law(args.scratch_fit, (laws.ChinchillaParams,),
                        "a from-scratch law for --scratch-fit")
    cpt = _load_law(args.cpt_fit, (laws.ExtendedCptParams,), "a CPT law for --cpt-fit")
    moved = transfer.parametric_transfer(scratch, cpt, args.n, args.d)
    level = laws.eval_law(cpt, args.n, args.d)
    if args.out:
        _write_doc(args.out, "parametric_transfer", {
            "n": args.n, "d_cpt": args.d, "loss": level,
            "d_pt": args.d + moved, "transferred_tokens": moved,
        })
        print(f"wrote {args.out}")
    print(f"loss at (N={args.n:.4g}, D={args.d:.4g}) = {level:.5g}")
    print(f"effectively transferred tokens = {moved:.5g}")
    return EXIT_OK


def cmd_replay(args) -> int:
    from . import ingest, transfer

    runs = ingest.load_runs(args.runs)
    curves = transfer.forgetting_curves(runs)
    _write_report(args.out, "forgetting_curves",
                  {"curves": [dataclasses.asdict(curve) for curve in curves]},
                  lambda tmp: transfer.export_forgetting_csv(curves, tmp))
    print(f"wrote {args.out}: {len(curves)} forgetting curves")
    return EXIT_OK


def cmd_synth(args) -> int:
    if bool(args.preset) == bool(args.law):
        print("error: use exactly one of --preset or --law", file=sys.stderr)
        return EXIT_USAGE
    from . import ingest, synth

    # The paper-replica design of the preset, or of paper-scratch with the --law law.
    cfg = synth.paper_replica_config(_PRESETS.get(args.preset, "scratch"))
    law = _load_law(args.law, laws._LOSS_LAWS, "a loss law") if args.law else cfg.law
    cfg = dataclasses.replace(cfg, law=law, noise_sigma=args.noise, seed=args.seed)
    runs = synth.generate_runset(cfg)
    _write_atomic(args.out, lambda tmp: ingest.dump_runs(runs, tmp))
    total = sum(len(run.records) for run in runs)
    print(f"wrote {args.out}: {len(runs)} runs, {total} records")
    return EXIT_OK


def cmd_compare_laws(args) -> int:
    from . import fitter, ingest

    runs = ingest.load_runs(args.runs)
    cfg = _fit_config(args)
    comparison = fitter.compare_laws(runs, cfg)
    if args.out:
        _write_doc(args.out, "model_comparison", dataclasses.asdict(comparison))
        print(f"wrote {args.out}")
    print(f"chinchilla objective = {comparison.chinchilla_error:.6g}")
    print(f"extended objective   = {comparison.extended_error:.6g}")
    print(f"fitted gamma         = {comparison.gamma_fitted:.4g}")
    return EXIT_OK


def build_parser(defaults: dict) -> argparse.ArgumentParser:
    """The main parser, each subcommand defaulting its flags to ``defaults`` (destination -> value)."""
    parser = argparse.ArgumentParser(
        prog="cptlaws",
        description="Fit scaling laws to training-run logs and derive "
        "compute-optimal allocations and transfer metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fit_flags = argparse.ArgumentParser(add_help=False)
    fit_flags.add_argument("--runs", required=True)
    fit_flags.add_argument("--delta", type=float,
                           help="Huber threshold; the fitter's default when omitted")
    fit_flags.add_argument("--warmup-fraction", type=float, default=0.0)

    p = sub.add_parser("fit", parents=[fit_flags], help="fit a loss law to a run log")
    p.add_argument("--strategy", required=True, choices=laws.STRATEGIES)
    p.add_argument("--fixed-from", help="from-scratch fit JSON supplying (E, A, alpha)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("frontier", help="extract and fit the loss-compute frontier")
    p.add_argument("--runs", required=True)
    p.add_argument("--bins-per-decade", type=int, default=10)
    p.add_argument("--fix-offset-zero", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("allocate", help="compute-optimal (N, D) for a budget")
    p.add_argument("--fit", required=True, help="law or fit-report JSON")
    p.add_argument("--compute", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("isoloss", help="loss grid and efficient frontier as CSV")
    p.add_argument("--fit", required=True)
    p.add_argument("--n-range", required=True, help="lo:hi in parameters")
    p.add_argument("--d-range", required=True, help="lo:hi in tokens")
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_isoloss)

    p = sub.add_parser("transfer", help="tokens and FLOPs saved by CPT")
    p.add_argument("--pt-run", help="run log holding the from-scratch run")
    p.add_argument("--cpt-run", help="run log holding the CPT run")
    p.add_argument("--scratch-fit", help="from-scratch law JSON (parametric route)")
    p.add_argument("--cpt-fit", help="CPT law JSON (parametric route)")
    p.add_argument("--n", type=float, help="model size for the parametric route")
    p.add_argument("--d", type=float, help="CPT token count for the parametric route")
    p.add_argument("--levels", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("replay", help="forgetting curves from replay runs")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("synth", help="generate a synthetic run log")
    p.add_argument("--preset", choices=tuple(_PRESETS))
    p.add_argument("--law", help="loss-law JSON to generate from")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compare-laws", parents=[fit_flags],
                       help="fit both law families and compare")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare_laws)

    # Subcommands parse into a fresh namespace, so each one that defines a
    # flag must carry its default itself.
    for p in sub.choices.values():
        dests = {action.dest for action in p._actions}
        p.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
    return parser


def _env_overrides() -> dict:
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    overrides = load_json(path)
    if not isinstance(overrides, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    # As strings, argparse converts each default with its flag's type and
    # rejects a bad value exactly as it would on the command line.
    return {k: str(v) for k, v in overrides.items() if k in _CONFIG_KEYS}


def main(argv=None) -> int:
    # OpenBLAS starts a thread per CPU when numpy is imported, which costs
    # tens of milliseconds of start-up, and the fits are far too small to gain
    # from them.  A thread count the user set is left alone.
    if not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = build_parser({}).parse_args(argv)
    try:
        overrides = _env_overrides()
    except (OSError, CptLawsError) as exc:
        print(f"error reading {CONFIG_ENV_VAR} config: {exc}", file=sys.stderr)
        return EXIT_IO
    if overrides:
        args = build_parser(overrides).parse_args(argv)
    try:
        return args.func(args)
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except CptLawsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
