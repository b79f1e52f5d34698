"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/daemon_host.py SPANS_FILE serve ARGS...``.  The
traced run starts the service daemon through this script so that calls
inside the daemon are timed the same way as in the benchmark process; each
scheduler thread appends its spans to ``SPANS_FILE`` whenever its outermost
span ends.
"""

import sys

import tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer.import_layers()
    tracer.install(tracer.Tracer(flush_path=spans_file))
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
