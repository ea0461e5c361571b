#!/usr/bin/env python
"""CI smoke check for the resident solver daemon.

Streams a 10-request mixed solve/evaluate batch through a running
daemon twice and asserts:

* every response is ``ok`` on both passes;
* the second pass serves **>= 50%** of requests from the daemon's
  result cache;
* solve payloads are byte-identical across the two passes;
* the ``engines`` breakdown in the daemon's ``stats`` response
  counts exactly one ladder run per program (``native`` + ``bitset``
  == 5): a program's solve and its evaluate share one optimization.
  Which tier the ``auto`` crossover picks is host- and size-dependent;
  a silent zero row means the telemetry seam broke, a double count
  that an evaluate re-ran the ladder;
* every request of the two passes is sent with ``"trace": true`` and
  every response's span tree contains a ``cache_lookup`` phase;
* a third, untraced pass of the 10 requests (the hit path a build
  takes, answered in the daemon's read loop) is served wholly from
  the cache with the first pass's results, and so is a fourth, its
  repeat: the third pass keys each line's bytes, so every solve and
  every evaluate of the fourth is an exact-bytes hit
  (``stats()["wire_memo"]["exact_hits"]``) -- or, under
  ``--trace-log``, none is, since a trace log keeps every request on
  the span-recording path;
* the ``metrics`` request kind answers with parseable Prometheus text
  covering the cache, engine, and portfolio subsystems, and the
  cache-hit counters strictly increase between the two passes;
* with a second argument naming the daemon's ``--trace-log`` file,
  the teed span trees are validated line by line;
* the closing ``shutdown`` ends a second, idle connection too: it
  sees EOF.

Usage::

    python -m repro.service --serve --socket /tmp/repro.sock \
        --trace-log /tmp/repro-trace.jsonl &
    python scripts/daemon_smoke.py /tmp/repro.sock /tmp/repro-trace.jsonl
    wait  # the smoke script asks the daemon to shut down when done

Exits non-zero (with a diagnostic) on any violation, so a CI job can
gate on it directly.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time

from repro.bench import build_benchmark, random_suite
from repro.obs import parse_prometheus_text, span_from_dict
from repro.service.stream import DaemonClient, evaluate_request, solve_request

#: Exposition series that must appear, by subsystem (ISSUE: at least
#: one counter per subsystem after a mixed smoke batch).
REQUIRED_SERIES = {
    "cache": ("repro_cache_hits_total", "repro_cache_misses_total"),
    "engines": ("repro_solver_solves_total",),
    "portfolio": ("repro_portfolio_requests_total",),
}


def wait_for_socket(path: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise SystemExit(f"daemon socket {path} never appeared")
        time.sleep(0.1)


def _cache_hits(text: str) -> float:
    parsed = parse_prometheus_text(text)
    return sum(
        value
        for name, _, value in parsed["samples"]
        if name == "repro_cache_hits_total"
    )


def _check_exposition(text: str) -> int:
    """Validate one scrape body; returns the number of failures."""
    parsed = parse_prometheus_text(text)  # raises on malformed text
    series = {name for name, _, _ in parsed["samples"]}
    failures = 0
    for subsystem, wanted in REQUIRED_SERIES.items():
        missing = [name for name in wanted if name not in series]
        if missing:
            print(f"FAIL: {subsystem} metrics missing from scrape: {missing}")
            failures += 1
    if "repro_request_seconds_count" not in series:
        print("FAIL: request latency histogram missing from scrape")
        failures += 1
    return failures


def _check_trace(response: dict) -> int:
    """One traced response must carry a tree with a cache_lookup phase."""
    payload = response.get("trace")
    if not payload:
        print(f"FAIL: response {response.get('id')} carries no trace")
        return 1
    tree = span_from_dict(payload)
    if tree.find("cache_lookup") is None:
        print(
            f"FAIL: trace of request {response.get('id')} has no "
            f"cache_lookup phase (phases: {[c.name for c in tree.children]})"
        )
        return 1
    return 0


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        raise SystemExit(f"usage: {argv[0]} SOCKET_PATH [TRACE_LOG]")
    socket_path = argv[1]
    trace_log = argv[2] if len(argv) == 3 else None
    wait_for_socket(socket_path)

    # 10 mixed requests: 5 solves, 5 evaluations (cheap analytic
    # model), interleaved per program so both request kinds of one
    # fingerprint are in flight together: the evaluate must wait on
    # its solve's ladder run, not start a second one.
    programs = [build_benchmark("MxM")] + list(random_suite(4, seed=3))
    plain = []
    for program in programs:
        plain.append(solve_request(program))
        plain.append(evaluate_request(program, cost_model="analytic"))
    requests = [{**request, "trace": True} for request in plain]

    with DaemonClient(socket_path) as client:
        hello = client.ping()
        print(f"daemon hello: {hello['result']}")
        first = client.request_many(requests)
        first_scrape = client.metrics()
        second = client.request_many(requests)
        second_scrape = client.metrics()
        untraced = client.request_many(plain)
        exact_before = client.stats()["wire_memo"]["exact_hits"]
        repeat = client.request_many(plain)
        stats = client.stats()

    failures = 0
    for index, response in enumerate(first + second):
        if not response.get("ok"):
            print(f"FAIL: request {index} errored: {response.get('error')}")
            return 1
        failures += _check_trace(response)
    if failures:
        return 1
    print(f"OK: all {len(first + second)} span trees have a cache_lookup phase")

    failures += _check_exposition(second_scrape)
    hits_first, hits_second = _cache_hits(first_scrape), _cache_hits(second_scrape)
    print(f"cache hits by scrape: {hits_first:.0f} -> {hits_second:.0f}")
    if not hits_second > hits_first:
        print("FAIL: cache-hit counters must strictly increase across passes")
        failures += 1
    if failures:
        return 1
    print("OK: metrics exposition parses and covers every subsystem")

    cached = sum(bool(response.get("from_cache")) for response in second)
    fraction = cached / len(second)
    print(
        f"second pass: {cached}/{len(second)} served from cache "
        f"({100.0 * fraction:.0f}%)"
    )
    print(f"daemon counters: {stats['counters']}")
    if fraction < 0.5:
        print("FAIL: second pass must be >= 50% cache-served")
        return 1

    # Solve requests sit at the even indices (interleaved batch).
    for index in range(0, len(requests), 2):
        before, after = first[index], second[index]
        if json.dumps(before["result"], sort_keys=True) != json.dumps(
            after["result"], sort_keys=True
        ):
            print(f"FAIL: payload drift for {before['result'].get('program')}")
            return 1

    # The untraced passes take the daemon's untraced hit paths (no
    # span tree; the traced passes above never run them).
    for response, again, before in zip(untraced, repeat, first):
        name = before["result"]["program"]
        for reply in (response, again):
            if not (reply.get("ok") and reply.get("from_cache")):
                print(f"FAIL: untraced {before['kind']} of {name} not "
                      f"served from cache: {reply}")
                return 1
            if "trace" in reply or reply["result"] != before["result"]:
                print(f"FAIL: untraced {before['kind']} hit for {name} "
                      "differs from pass 1")
                return 1
    print(f"OK: untraced passes: 2 x {len(untraced)}/{len(untraced)} from "
          "cache, results equal to pass 1")
    exact = stats["wire_memo"]["exact_hits"] - exact_before
    # A trace log keeps every request on the span-recording path.
    wanted = 0 if trace_log is not None else len(repeat)
    if exact != wanted:
        print(f"FAIL: repeat untraced pass took {exact} exact-bytes hits; "
              f"expected {wanted}")
        return 1
    print(f"OK: repeat untraced pass: {exact}/{len(repeat)} exact-bytes hits")

    engines = stats.get("engines", {})
    print(f"daemon engines: {engines}")
    tier_total = sum(engines.get(tier, 0) for tier in ("native", "bitset"))
    if tier_total != len(programs):
        print(
            f"FAIL: the first pass must run the ladder once per program "
            f"({len(programs)}), not {tier_total} times (engines={engines})"
        )
        return 1
    if engines.get("native", 0):
        print(f"OK: {engines['native']} miss(es) served by the native tier")

    if trace_log is not None:
        # Span trees are teed before each response is written, so the
        # file is complete once every response has been read.
        with open(trace_log, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        expected = len(first) + len(second)
        if len(lines) < expected:
            print(
                f"FAIL: trace log has {len(lines)} lines; expected "
                f">= {expected} (one per served solve/evaluate request)"
            )
            return 1
        for number, line in enumerate(lines, start=1):
            tree = span_from_dict(json.loads(line))
            if tree.find("cache_lookup") is None:
                print(f"FAIL: trace-log line {number} has no cache_lookup")
                return 1
        print(f"OK: trace log carries {len(lines)} valid span trees")

    # A second connection idles through the shutdown: the daemon must
    # end its stream (EOF) as well, not wait for the client to leave.
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as idle:
        idle.settimeout(30.0)
        idle.connect(socket_path)
        idle.sendall(b'{"id": 0, "kind": "ping"}\n')
        with idle.makefile("rb") as idle_reader:
            if not json.loads(idle_reader.readline()).get("ok"):
                print("FAIL: ping on the idle connection failed")
                return 1
            with DaemonClient(socket_path) as client:
                client.shutdown()
            try:
                leftover = idle_reader.readline()
            except socket.timeout:
                print("FAIL: the idle connection stayed open after shutdown")
                return 1
        if leftover:
            print(f"FAIL: unexpected line on the idle connection: {leftover!r}")
            return 1
    print("OK: daemon smoke passed (daemon asked to shut down; idle "
          "connection saw EOF)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
