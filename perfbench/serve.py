"""Launch ``repro serve`` with the layer probes installed, for traced runs.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/serve.py --trace-out FILE serve --registry R ...

Everything after ``--trace-out FILE`` goes to ``repro.cli.main`` as is,
so the server is whichever one ``repro serve`` builds.  The probes are
installed on SIGUSR2 (so the load generator can measure the same server
untraced first) and the spans recorded since then are written to FILE on
SIGUSR1.  Each signal is acknowledged with one line on stdout.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Probes, Tracer, write_json  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out":
        print("usage: serve.py --trace-out FILE serve ...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    probes = Probes(tracer)

    def arm(signum, frame):
        probes.install()
        tracer.reset()
        print("armed", flush=True)

    def dump(signum, frame):
        write_json(out_path, tracer.snapshot())
        print("dumped", flush=True)

    signal.signal(signal.SIGUSR2, arm)
    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
