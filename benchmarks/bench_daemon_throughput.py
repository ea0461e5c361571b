"""Daemon-layer throughput: warm resident serving vs cold batch mode.

Not a paper table -- this measures the resident daemon's reason to
exist: once a suite has been solved, a long-running daemon answers the
same requests out of its sharded cache without touching a process
pool, a solver, or even a network build.  The acceptance shape:

* warm daemon throughput (requests/s over the streaming socket,
  pipelined) must be **>= 2x** the cold ``run_batch`` throughput on
  the same program suite (in practice it is orders of magnitude); and
* every warm payload must be **byte-identical** to the cold batch's
  ``PortfolioResult`` serialization -- the daemon is a faster path to
  the same answers, not a different solver.

Run:  pytest benchmarks/bench_daemon_throughput.py --benchmark-only -s
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.bench import random_suite
from repro.service import PortfolioConfig, ShardedResultCache, run_batch
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.stream import DaemonClient

from benchmarks.conftest import HARNESS_SEED

#: The ladder measured here (matches bench_service_throughput).
PORTFOLIO = ("enhanced", "cbj", "weighted")

#: How many times the warm pass streams the whole suite through the
#: daemon (pipelined); more passes amortize client-side JSON overhead
#: into a stable requests/s figure.
WARM_PASSES = 20


def _batch_programs(programs):
    """Five paper benchmarks plus deterministic synthetic filler."""
    return list(programs.values()) + list(random_suite(5, seed=HARNESS_SEED))


def test_warm_daemon_beats_cold_batch(benchmark, programs, build_options, tmp_path):
    batch = _batch_programs(programs)
    config = PortfolioConfig(schemes=PORTFOLIO, seed=HARNESS_SEED)
    cache = ShardedResultCache(
        shards=4, directory=str(tmp_path / "cache.d")
    )

    # -- cold: the one-shot in-process batch, sharing the daemon's cache.
    cold_start = time.perf_counter()
    cold = run_batch(batch, config, options=build_options, cache=cache)
    cold_seconds = time.perf_counter() - cold_start
    cold_rps = len(batch) / cold_seconds
    assert cold.cache_hits == 0

    # -- warm: a resident daemon answering out of the shared cache.
    daemon = SolverDaemon(
        config=config,
        options=build_options,
        daemon_config=DaemonConfig(workers=2, shards=4, max_inflight=64),
        cache=cache,
    )
    socket_path = str(tmp_path / "daemon.sock")
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve_unix(socket_path)), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 60.0
    while not os.path.exists(socket_path):
        if time.monotonic() > deadline:  # pragma: no cover
            raise TimeoutError("daemon socket never appeared")
        time.sleep(0.02)

    holder = {}

    def warm_pass():
        with DaemonClient(socket_path) as client:
            start = time.perf_counter()
            responses = []
            for _ in range(WARM_PASSES):
                responses.extend(client.solve_many(batch))
            holder["seconds"] = time.perf_counter() - start
            holder["responses"] = responses

    try:
        benchmark.pedantic(warm_pass, rounds=1, iterations=1)
    finally:
        try:
            with DaemonClient(socket_path) as client:
                client.shutdown()
        except OSError:  # pragma: no cover - daemon already gone
            pass
        thread.join(timeout=15)

    responses = holder["responses"]
    assert len(responses) == WARM_PASSES * len(batch)
    assert all(response["ok"] for response in responses)
    assert all(response["from_cache"] for response in responses)

    # Byte-identical payloads: the daemon serves exactly what the cold
    # batch computed, for every request of every pass.
    cold_payloads = [
        json.dumps(result.to_dict(), sort_keys=True) for result in cold.results
    ]
    for index, response in enumerate(responses):
        expected = cold_payloads[index % len(batch)]
        assert json.dumps(response["result"], sort_keys=True) == expected

    warm_rps = len(responses) / holder["seconds"]
    speedup = warm_rps / cold_rps
    benchmark.extra_info.update(
        {
            "cold_rps": round(cold_rps, 2),
            "warm_rps": round(warm_rps, 1),
            "speedup": round(speedup, 1),
            "requests": len(responses),
        }
    )
    print("\n[daemon warm vs cold batch]")
    print(
        f"  cold batch: {len(batch)} programs in {cold_seconds:.2f}s "
        f"({cold_rps:.2f} req/s, in process)"
    )
    print(
        f"  warm daemon: {len(responses)} requests in "
        f"{holder['seconds']:.3f}s ({warm_rps:.1f} req/s)"
    )
    print(f"  speedup: {speedup:.1f}x")
    assert warm_rps >= 2.0 * cold_rps, (
        f"warm daemon ({warm_rps:.1f} req/s) must be >= 2x cold batch "
        f"({cold_rps:.2f} req/s)"
    )
