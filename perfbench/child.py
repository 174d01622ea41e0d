"""Run one cptlaws command the way the ``cptlaws`` console script does.

    python3 perfbench/child.py [--spans FILE --run ID --parent ID] [--small-grid] -- ARGS...

The console script calls ``cptlaws.cli:main``; so does this file, with
``<checkout>/src`` on PYTHONPATH, so that the benchmark measures the code of
the checkout and not an installed copy.  With ``--spans`` the import of
cptlaws and every call of a public cptlaws function get a span, and the spans
are appended to FILE as JSON lines when the command returns.
``--small-grid`` replaces the fitter's 512-start default grid with 32 starts
(8 for CPT fits); only the harness's smoke test uses it.
"""

import sys


def _parse(argv):
    split = argv.index("--")
    opts, rest = argv[:split], argv[split + 1:]
    flags = {"--small-grid": "--small-grid" in opts}
    for key in ("--spans", "--run", "--parent"):
        flags[key] = opts[opts.index(key) + 1] if key in opts else None
    return flags, rest


def _use_small_grid(argv) -> None:
    import functools

    from cptlaws import fitter

    if "--strategy" in argv and argv[argv.index("--strategy") + 1] == "cpt":
        grid = tuple((b, beta, gamma) for b in (4.0, 8.0) for beta in (0.2, 0.4)
                     for gamma in (0.0, 0.1))
    else:
        grid = tuple((a, b, e, alpha, beta) for a in (4.0, 8.0) for b in (4.0, 8.0)
                     for e in (0.0, 0.4) for alpha in (0.3, 0.5) for beta in (0.2, 0.4))
    fitter.FitConfig = functools.partial(fitter.FitConfig, init_grid=grid)


def main() -> int:
    flags, argv = _parse(sys.argv[1:])
    if flags["--spans"] is None:
        from cptlaws.cli import main as cli_main

        if flags["--small-grid"]:
            _use_small_grid(argv)
        return cli_main(argv)

    import spans

    rec = spans.Recorder(flags["--run"], parent=flags["--parent"])
    with rec.span("cli.import"):
        import cptlaws.cli
    with rec.span("trace.instrument"):
        spans.instrument(rec)
    if flags["--small-grid"]:
        _use_small_grid(argv)
    try:
        return cptlaws.cli.main(argv)
    finally:
        rec.dump(flags["--spans"])


if __name__ == "__main__":
    sys.exit(main())
