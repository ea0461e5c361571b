"""Run one workload of the benchmark of record and report it.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload optimize-paper --seed 1 --seconds 25 --trace 0

Workloads: ``optimize-paper``, ``daemon-hit``, ``daemon-mixed`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate traced run
that measures its per-layer metrics.  Every answer is checked.  The
report is human-readable; its last line is one JSON object::

    {"correct": true, "attempted": 4012, "failed": 0,
     "metrics": {"latency_ms_p50": {"value": 4.71, "unit": "ms"}, ...}}

Exits 2 when the program's sources are missing, 1 on any other error
(without printing a result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, WORK_DIR, ensure_native_built, require_sources  # noqa: E402


def _declared(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def report(args, result, declared) -> dict:
    """Print the human-readable report; return the JSON summary."""
    host = result.host
    print(f"perfbench {host['workload']}  seed={host['seed']}  seconds={args.seconds:g}  "
          f"trace={int(args.trace)}")
    print("host: " + ", ".join(f"{key}={value}" for key, value in host.items()
                               if key not in ("workload", "seed")))
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(result.failures.items())) or "none"
    print(f"operations: sent={result.sent} succeeded={result.succeeded} "
          f"failed={result.failed} ({reasons})")
    if result.probe is not None:
        print(f"oversized-request probe (>64 KiB solve line, own connection, after the "
              f"window; not in the counts above): {result.probe}")
    print(f"{'metric':34s} {'value':>16s} {'unit':7s} {'samples':>8s}  note")
    for name, metric in result.metrics.items():
        print(f"{name:34s} {metric.value:16.6f} {metric.unit:7s} {metric.samples:8d}  {metric.note}")
    missing = [name for name, _ in declared if name not in result.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for name, unit in declared:
        if result.metrics[name].unit != unit:
            raise RuntimeError(f"{name}: unit {result.metrics[name].unit} != {unit}")
    return {
        "correct": result.failed == 0,
        "attempted": result.sent,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name].value, "unit": unit}
            for name, unit in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}")
    os.chdir(ROOT)
    # A terminated run still stops its daemon: SystemExit unwinds
    # through the workloads' cleanup blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK_DIR / f"run-{os.getpid()}"
    try:
        declared = _declared(bool(args.trace))
        ensure_native_built()
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
        summary = report(args, result, declared)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
