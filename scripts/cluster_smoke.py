#!/usr/bin/env python
"""CI smoke check for the fingerprint-routed daemon cluster.

Points at a running 3-member cluster (started with ``--serve-cluster``)
and asserts the routing contract end to end:

* a mixed 12-request solve/evaluate batch through the router answers
  ``ok`` with every request routed to its fingerprint's ring owner
  (``route_hits`` == requests in the router stats);
* every routed payload is **byte-identical** to a single standalone
  daemon solving the same batch with the same portfolio (modulo the
  wall-clock ``*seconds`` fields each fresh solve re-measures);
* a warm pass sent *directly to one member* (bypassing the router) is
  fully cache-served with at least one **cross-member peer hit** --
  the member asked the fingerprint's owner over the one-hop
  ``cache_lookup`` wire kind instead of re-solving;
* after a member is killed mid-run, re-sending the batch through the
  router records at least one **failover** to a ring replica and still
  answers every request correctly (byte-identical again);
* cluster ``stats`` aggregates member counters and cache totals, and
  the ``metrics`` roll-up exposes the ``repro_cluster_*`` vocabulary
  with members/reachable gauges reflecting the kill.

Usage::

    python -m repro.service --serve-cluster 3 --socket /tmp/cluster.sock \
        --portfolio enhanced --workers 1 &
    python scripts/cluster_smoke.py /tmp/cluster.sock
    wait  # the smoke script asks the cluster to shut down when done

Exits non-zero (with a diagnostic) on any violation, so a CI job can
gate on it directly.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import threading
import time

from repro.bench import benchmark_build_options, build_benchmark, random_suite
from repro.obs import parse_prometheus_text
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.fingerprint import request_fingerprint
from repro.service.portfolio import PortfolioConfig
from repro.service.routing import HashRing
from repro.service.stream import DaemonClient, evaluate_request, solve_request

#: Must match the portfolio the CI job starts the cluster with
#: (``--portfolio enhanced``): byte parity compares two *independent*
#: solves of the same request.
CONFIG = PortfolioConfig.parse("enhanced", seed=0, deadline_seconds=120.0)

#: Cluster metric series that must appear in the rolled-up scrape.
REQUIRED_SERIES = (
    "repro_cluster_router_total",
    "repro_cluster_peer_total",
    "repro_cluster_members",
    "repro_cluster_members_reachable",
    "repro_cache_bytes_on_disk",
)


def wait_for_socket(path: str, timeout: float = 90.0) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise SystemExit(f"socket {path} never appeared")
        time.sleep(0.1)


def _scrub(value):
    """Strip re-measured timing fields for byte-parity comparison."""
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if "seconds" not in k}
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def _canonical(result: dict) -> str:
    return json.dumps(_scrub(result), sort_keys=True)


def _mixed_requests(programs) -> list[dict]:
    requests = []
    for program in programs:
        requests.append(solve_request(program))
        requests.append(evaluate_request(program, cost_model="analytic"))
    return requests


def _reference_payloads(requests) -> list[str]:
    """Solve the batch on one standalone in-process daemon."""
    daemon = SolverDaemon(
        config=CONFIG,
        options=benchmark_build_options(),
        daemon_config=DaemonConfig(workers=1, shards=2),
    )
    socket_path = os.path.join(tempfile.mkdtemp(), "single.sock")
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve_unix(socket_path)), daemon=True
    )
    thread.start()
    wait_for_socket(socket_path)
    try:
        with DaemonClient(socket_path) as client:
            responses = client.request_many(requests)
    finally:
        with DaemonClient(socket_path) as client:
            client.shutdown()
        thread.join(timeout=30)
    if not all(r.get("ok") for r in responses):
        raise SystemExit("reference single daemon failed the batch")
    return [_canonical(r["result"]) for r in responses]


def _check_parity(label: str, responses, reference) -> int:
    failures = 0
    for index, (response, expected) in enumerate(zip(responses, reference)):
        if not response.get("ok"):
            print(f"FAIL: {label} request {index} errored: {response.get('error')}")
            failures += 1
        elif _canonical(response["result"]) != expected:
            print(f"FAIL: {label} payload {index} drifted from single daemon")
            failures += 1
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(f"usage: {argv[0]} ROUTER_SOCKET")
    router_path = argv[1]
    wait_for_socket(router_path)

    programs = [build_benchmark("MxM")] + list(random_suite(5, seed=3))
    requests = _mixed_requests(programs)
    options = benchmark_build_options()

    with DaemonClient(router_path) as client:
        hello = client.ping()["result"]
    if hello.get("role") != "router":
        raise SystemExit(f"expected a router at {router_path}, got {hello}")
    members = hello["members"]
    print(f"router hello: {len(members)} members, replicas={hello['replicas']}")
    for member in members:
        wait_for_socket(member)

    print("computing single-daemon reference payloads...")
    reference = _reference_payloads(requests)

    failures = 0

    # -- pass 1: cold, through the router (populates the owners).
    with DaemonClient(router_path) as client:
        routed = client.request_many(requests)
        stats = client.stats()
    failures += _check_parity("routed", routed, reference)
    route_hits = stats["router"]["counters"]["route_hits"]
    if route_hits < len(requests):
        print(f"FAIL: {route_hits}/{len(requests)} requests hit the ring owner")
        failures += 1
    if failures:
        return 1
    print(f"OK: {len(routed)} routed requests, all owner-hits, byte-identical")

    # -- pass 2: warm, direct to one member -- peer hits, no re-solve.
    with DaemonClient(members[0]) as direct:
        warm = direct.request_many(requests)
    peer_hits = sum(1 for r in warm if r.get("peer"))
    cached = sum(bool(r.get("from_cache")) for r in warm)
    print(f"direct pass via {os.path.basename(members[0])}: "
          f"{cached}/{len(warm)} cache-served, {peer_hits} peer hits")
    if not all(r.get("ok") for r in warm):
        print("FAIL: direct member pass errored")
        return 1
    if cached < len(warm):
        print("FAIL: warm direct pass must be fully cache-served")
        failures += 1
    if peer_hits < 1:
        print("FAIL: expected >= 1 cross-member peer cache hit")
        failures += 1
    if failures:
        return 1

    # -- pass 3: kill the busiest non-front member, re-run through the
    # router, and demand failover to a replica with correct answers.
    ring = HashRing(members)
    owned: dict[str, int] = {member: 0 for member in members}
    for program in programs:
        owned[ring.owner(request_fingerprint(program, options))] += 1
    victim = max(
        (m for m in members if m != members[0]), key=lambda m: owned[m]
    )
    if owned[victim] < 1:
        print(f"FAIL: victim {victim} owns no fingerprints; bad test batch")
        return 1
    print(f"killing member {os.path.basename(victim)} "
          f"(owns {owned[victim]}/{len(programs)} fingerprints)")
    with DaemonClient(victim) as doomed:
        doomed.shutdown()
    deadline = time.monotonic() + 30.0
    while os.path.exists(victim) and time.monotonic() < deadline:
        time.sleep(0.1)

    with DaemonClient(router_path) as client:
        after = client.request_many(requests)
        stats = client.stats()
        scrape = client.metrics()
    failures += _check_parity("failover", after, reference)
    counters = stats["router"]["counters"]
    print(f"router counters after kill: {counters}")
    if counters["failovers"] < 1:
        print("FAIL: router recorded no failover after a member death")
        failures += 1
    if victim in stats["router"]["reachable"]:
        print("FAIL: dead member still listed as reachable")
        failures += 1
    if failures:
        return 1
    print("OK: failover pass byte-identical, "
          f"{counters['failovers']} failover(s) recorded")

    # -- cluster-wide stats and metrics roll-up.
    aggregate = stats["aggregate"]
    if aggregate["peer"].get("hits", 0) < peer_hits:
        print(f"FAIL: aggregate peer hits {aggregate['peer']} < {peer_hits}")
        failures += 1
    if aggregate["cache"]["entries"] < len(programs):
        print(f"FAIL: aggregate cache entries {aggregate['cache']} "
              f"< {len(programs)} fingerprints")
        failures += 1
    parsed = parse_prometheus_text(scrape)
    series = {name for name, _, _ in parsed["samples"]}
    missing = [name for name in REQUIRED_SERIES if name not in series]
    if missing:
        print(f"FAIL: cluster metrics missing from roll-up: {missing}")
        failures += 1
    reachable = [
        value
        for name, _, value in parsed["samples"]
        if name == "repro_cluster_members_reachable"
    ]
    if not reachable or reachable[0] != len(members) - 1:
        print(f"FAIL: members_reachable {reachable} != {len(members) - 1}")
        failures += 1
    if failures:
        return 1
    print("OK: cluster stats and metrics roll-up cover the routing vocabulary")

    with DaemonClient(router_path) as client:
        client.shutdown()
    print("OK: cluster smoke passed (cluster asked to shut down)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
