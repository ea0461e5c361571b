#!/usr/bin/env python
"""Measure the native-engine crossover on this host.

The ``auto`` engine resolution (:func:`repro.csp.vectorized.resolve_engine`)
is driven by one measured constant, ``NATIVE_MIN_SUPPORT_CELLS``: the
network size (directed support cells) from which the native C kernel
beats the bitset loops.

The shipped default was measured on one development host; this script
re-measures it on *your* hardware and prints a ready-to-paste
environment override (the constant reads its ``REPRO_*`` variable at
import).  The constant only steers ``auto`` cost -- results are
byte-identical on both engines -- so a stale calibration is never
wrong, only slower.

Usage::

    PYTHONPATH=src python scripts/calibrate_crossovers.py [--repeats N]

"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.csp.compiled import compile_network
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.random_networks import random_network
from repro.csp.vectorized import native_available, support_cells


def _time_solve(kernel, engine: str, repeats: int) -> float:
    """Median seconds for the calibration workload on one engine.

    A short min-conflicts walk is the propagation-dominated workload
    the engine choice optimizes for (the Table 2 serving mix's hot
    spot).
    """
    samples = []
    solver = MinConflictsSolver(seed=1, max_steps=60, max_restarts=1, engine=engine)
    solver.solve(kernel)  # warm any lazy lowering outside the clock
    for _ in range(repeats):
        start = time.perf_counter()
        solver.solve(kernel)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _ladder(repeats: int):
    """(cells, seconds-by-engine) for a ladder of network sizes."""
    shapes = [
        (2, 2),
        (3, 2),
        (3, 3),
        (4, 3),
        (5, 4),
        (6, 5),
        (8, 6),
        (10, 8),
        (14, 10),
        (20, 12),
    ]
    rows = []
    for variables, domain in shapes:
        network = random_network(
            variables, domain, density=0.6, tightness=0.3, seed=7
        )
        kernel = compile_network(network)
        cells = support_cells(kernel)
        timing = {
            engine: _time_solve(kernel, engine, repeats)
            for engine in ("bitset", "native")
        }
        rows.append((cells, timing))
    rows.sort(key=lambda row: row[0])
    return rows


def _crossover(rows) -> int | None:
    """Smallest cell count from which native stays ahead of bitset."""
    candidate = None
    for cells, timing in rows:
        if timing["native"] <= timing["bitset"]:
            if candidate is None:
                candidate = cells
        else:
            candidate = None  # must win from here *up*, not once
    return candidate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=9,
        help="timing samples per point (median taken; default 9)",
    )
    args = parser.parse_args()

    if not native_available():
        print("native kernel unavailable (no C compiler); nothing to tune")
        return 0
    rows = _ladder(args.repeats)
    print("calibration ladder (median seconds per solve):")
    print("cells".rjust(8) + "bitset".rjust(12) + "native".rjust(12))
    for cells, timing in rows:
        print(
            str(cells).rjust(8)
            + "".join(
                f"{timing[e] * 1e6:9.0f}us".rjust(12) for e in ("bitset", "native")
            )
        )

    native_cells = _crossover(rows)
    if native_cells is None:
        print("\nnative never stays ahead on this host; nothing to tune")
        return 0
    print("\nready-to-paste override for this host:")
    print(f"export REPRO_NATIVE_MIN_SUPPORT_CELLS={native_cells}")
    print(
        "\n(the constant steers only the auto engine choice; results are\n"
        "byte-identical on both engines, so it is a pure cost knob)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
