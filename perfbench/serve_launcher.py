"""Start ``repro serve`` for the benchmark, with the span tracer on or off.

    python3 perfbench/serve_launcher.py [--trace-spool DIR] -- SERVE-ARGS...

Everything after ``--`` goes to ``repro serve`` unchanged.  With
``--trace-spool`` the wrappers are installed before the server is
built and the server's spans are written to the spool when it stops
(on SIGINT).  Untraced runs go through this launcher too, so both start
the server the same way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        print("usage: serve_launcher.py [--trace-spool DIR] -- SERVE-ARGS",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-spool", default=None, metavar="DIR")
    args = parser.parse_args(argv[:split])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    tracer = None
    if args.trace_spool is not None:
        from perfbench.tracing import Tracer

        tracer = Tracer(Path(args.trace_spool)).install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv[split + 1:]])
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
