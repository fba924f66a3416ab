"""One `chainbook experiment` invocation in a fresh interpreter, timed.

Usage: python3 perfbench/child.py SPAWN_TIME TRACE_PATH|- [--setup-only] -- CHAINBOOK_ARGV...

SPAWN_TIME is the CLOCK_MONOTONIC reading the parent took just before it
started this interpreter.  Prints one JSON line: setup_s (interpreter start
until the CLI is ready: imports, argv parse, config load), run_s (cli.main
entry until the report is written), peak RSS, and library versions.  With a
TRACE_PATH, the call runs under the tracer and its spans are written there.
"""

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    spawn = float(sys.argv[1])
    trace_path = sys.argv[2]
    split = sys.argv.index("--")
    setup_only = "--setup-only" in sys.argv[3:split]
    argv = sys.argv[split + 1:]

    import chainbook
    from chainbook import cli, experiments

    args = cli.build_parser().parse_args(argv)
    if args.config:
        experiments.load_config(args.config)
    setup_s = _now() - spawn
    if setup_only:
        return 0

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # rebinds cli.main too

    start = _now()
    code = cli.main(argv)
    run_s = _now() - start
    if code != 0:
        return code
    if tracer is not None:
        tracer.write(trace_path)

    import numpy
    import scipy

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "run_s": run_s,
                # ru_maxrss is in KiB on Linux.
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "chainbook_file": chainbook.__file__,
                "versions": {
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
