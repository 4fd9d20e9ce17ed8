"""Launch ``repro-sim serve``, optionally with the layer wrappers.

Usage: ``python perfbench/serve_main.py [--spans DIR] -- <serve args>``

With ``--spans`` the daemon installs the tracer before the CLI starts,
so its forked workers inherit the wrappers; each process writes
``DIR/<pid>.json`` when it exits.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402


def main(argv: list[str]) -> int:
    spans_dir = None
    if argv[:1] == ["--spans"]:
        spans_dir = argv[1]
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if spans_dir is not None:
        tracer = Tracer()
        tracer.install_program()
        tracer.write_on_exit_of_forked_children(spans_dir)
    code = cli_main(["serve", *argv])
    if tracer is not None:
        tracer.write(os.path.join(spans_dir, f"{os.getpid()}.json"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
