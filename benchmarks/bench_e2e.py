#!/usr/bin/env python
"""Standalone runner for the end-to-end baseline (`segugio bench`).

Writes ``BENCH_e2e.json`` — sustained throughput of a pinned multi-day
tracking campaign (trace rows/s, graph edges/s, domains scored/s), its
peak RSS, and the measured overhead of the resource-profiling layer —
and fails (non-zero exit) when profiling perturbs decision outputs or
costs more than the documented wall-clock bound.

Not a pytest module (no ``test_`` prefix): run it directly, or prefer the
equivalent CLI form so flags stay in one place::

    PYTHONPATH=src python benchmarks/bench_e2e.py
    PYTHONPATH=src python -m repro.cli bench --days 3
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench"] + sys.argv[1:]))
