"""Launch the linking daemon (``ftl serve``) from a source checkout.

    python3 perfbench/daemon.py [--trace-dir DIR] -- <ftl serve arguments>

Run from the checkout root: ``src/`` goes on the import path.  With
``--trace-dir`` the per-layer span wrappers of :mod:`tracer` are
installed before the daemon (and hence its forked shard workers)
starts, and every process writes its spans into ``DIR`` on exit.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if trace_dir is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        tracer.install(trace_dir)
    from repro.cli import main as ftl_main

    return ftl_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
