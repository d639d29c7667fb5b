"""One splitkit CLI call, as a child process of the benchmark.

    python3 perfbench/child.py --mark FILE [--trace FILE] [--run-id ID] [--setup-only] -- ARGV...

Run from the root of a checkout.  Imports ``splitkit.cli`` from ``src/``,
loads and validates the config named by ``--config`` in ARGV and builds its
map, then writes ``time.monotonic()`` to the mark file: the parent subtracts
its own spawn time from it to get the set-up time.  Unless ``--setup-only`` is given it then runs
``splitkit.cli.main(ARGV)`` and exits with its code.  With ``--trace`` the
public functions of the package are wrapped (see ``tracing.py``) after the
mark is taken, and the trace is written to FILE when the command returns.
"""

import argparse
import sys
import time
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mark", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = str(Path("src").resolve())
    sys.path.insert(0, src)
    import splitkit.cli as cli
    from splitkit.config import ExperimentConfig

    if not str(Path(cli.__file__).resolve()).startswith(src):
        print(f"splitkit imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    cfg = ExperimentConfig.from_file(argv[argv.index("--config") + 1])
    cfg.build_diffeo()
    Path(args.mark).write_text(repr(time.monotonic()), encoding="utf-8")
    if args.setup_only:
        return 0

    if args.trace is None:
        return cli.main(argv)
    import tracing

    tracer = tracing.install(args.run_id)
    try:
        return cli.main(argv)
    finally:
        tracer.write(args.trace)


if __name__ == "__main__":
    sys.exit(main())
