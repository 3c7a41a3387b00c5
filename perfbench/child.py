"""One benchmark operation: import the CLI, optionally trace it, run it.

Usage: python3 perfbench/child.py RECORD SRC TRACE -- CLI_ARGS...

Imports ``alphaduplex.cli`` from SRC (which must also be on PYTHONPATH),
installs spans when TRACE is 1, calls ``cli.main(CLI_ARGS)`` and writes a
JSON record of clock readings, peak RSS and span totals to RECORD.  Clock
readings are ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so the
parent can subtract its own spawn time from them.  Exits with the CLI's
code; an exception escaping the CLI exits 1 with a traceback and no record.
"""

import json
import os
import resource
import sys
from time import perf_counter

RECORDED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "ALPHADUPLEX_WORKERS")


def main(argv: list[str]) -> int:
    record_path, src, trace = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: child.py RECORD SRC TRACE -- CLI_ARGS...")
    cli_argv = argv[4:]

    t_import = perf_counter()
    from alphaduplex import cli
    t_imported = perf_counter()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"alphaduplex imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    t_main = perf_counter()
    rc = cli.main(cli_argv)
    t_done = perf_counter()

    record = {
        "rc": rc,
        "t_import": t_import,
        "t_imported": t_imported,
        "t_main": t_main,
        "t_done": t_done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {k: os.environ.get(k) for k in RECORDED_ENV},
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["absent"] = tracer.absent
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
