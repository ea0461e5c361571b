"""Daemon observability: request traces, worker telemetry, metrics kind."""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.ir.parser import parse_program
from repro.obs import parse_prometheus_text, span_from_dict
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.portfolio import PortfolioConfig
from repro.service.stream import DaemonClient, solve_request

_TEMPLATE = """
array Q1[{rows}][260]
array Q2[{rows}][260]
nest fig2 {{
    for i1 = 0 .. 259 {{
        for i2 = 0 .. 259 {{
            Q1[i1+i2][i2] = Q2[i1+i2][i1]
        }}
    }}
}}
"""


def _program(rows: int, name: str = "program"):
    return parse_program(_TEMPLATE.format(rows=rows), name=name)


def _fast_config() -> PortfolioConfig:
    return PortfolioConfig(schemes=("enhanced",))


class _Harness:
    """A daemon served from a background thread on a tmp unix socket."""

    def __init__(self, tmp_path, trace_log=None):
        self.daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=2, max_inflight=8),
            trace_log=trace_log,
        )
        self.socket_path = str(tmp_path / "daemon.sock")
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.serve_unix(self.socket_path)),
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.socket_path):
            if time.monotonic() > deadline:  # pragma: no cover
                raise TimeoutError("daemon socket never appeared")
            time.sleep(0.02)

    def client(self) -> DaemonClient:
        return DaemonClient(self.socket_path, timeout=120.0)

    def stop(self) -> None:
        if self.thread.is_alive():
            try:
                with self.client() as client:
                    client.shutdown()
            except OSError:  # pragma: no cover - already gone
                pass
        self.thread.join(timeout=15)
        assert not self.thread.is_alive()


@pytest.fixture
def harness(tmp_path):
    harness = _Harness(tmp_path)
    try:
        yield harness
    finally:
        harness.stop()


class TestRequestTraces:
    def test_untraced_response_carries_no_trace(self, harness):
        with harness.client() as client:
            response = client.solve(_program(300, "plain"))
        assert response["ok"]
        assert "trace" not in response

    def test_traced_miss_has_lifecycle_phases_and_worker_subspans(
        self, harness
    ):
        with harness.client() as client:
            response = client.solve(_program(301, "traced"), trace=True)
        assert response["ok"] and not response["from_cache"]
        root = span_from_dict(response["trace"])
        assert root.name == "request:solve"
        assert root.attributes["from_cache"] is False
        phases = [child.name for child in root.children]
        assert phases == [
            "decode",
            "fingerprint",
            "cache_lookup",
            "dispatch",
            "encode",
        ]
        # The worker's captured sub-tree is re-parented under dispatch.
        dispatch = root.find("dispatch")
        worker = dispatch.find("worker_solve")
        assert worker is not None
        assert worker.find("build_network") is not None  # portfolio layer
        assert worker.find("race") is not None
        # The phase budget accounts for the measured latency: every
        # await in the handler happens inside a phase, so the direct
        # children must sum to (nearly) the reported seconds.
        total = sum(root.phase_seconds().values())
        assert total <= response["seconds"] * 1.10
        assert total >= response["seconds"] * 0.50

    def test_traced_hit_reports_cache_lookup_without_dispatch(self, harness):
        program = _program(302, "warm")
        with harness.client() as client:
            client.solve(program)
            response = client.solve(program, trace=True)
        assert response["from_cache"]
        root = span_from_dict(response["trace"])
        assert root.attributes["from_cache"] is True
        names = [child.name for child in root.children]
        assert "cache_lookup" in names
        assert "dispatch" not in names

    def test_traced_memo_hit_keeps_the_phase_vocabulary(self, harness):
        """A wire-memo hit skips the program rebuild and the
        fingerprint work, yet reports the same phases in the same
        order: the digest and memo lookup are its decode phase."""
        program = _program(305, "memo")
        with harness.client() as client:
            client.solve(program)
            response = client.solve(program, trace=True)
            memo = client.stats()["wire_memo"]
        assert response["from_cache"]
        assert memo["hits"] == 1
        root = span_from_dict(response["trace"])
        assert [child.name for child in root.children] == [
            "decode",
            "fingerprint",
            "cache_lookup",
            "encode",
        ]

    def test_trace_log_tees_every_request(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        harness = _Harness(tmp_path, trace_log=str(trace_path))
        try:
            with harness.client() as client:
                client.solve(_program(303, "teed"))
                client.solve(_program(303, "teed"))  # cache hit
        finally:
            harness.stop()
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == 2
        for payload in lines:
            tree = span_from_dict(payload)
            assert tree.name == "request:solve"
            assert tree.find("cache_lookup") is not None
        assert lines[0]["attributes"]["from_cache"] is False
        assert lines[1]["attributes"]["from_cache"] is True


class TestMetricsKind:
    def test_exposition_parses_and_covers_every_subsystem(self, harness):
        program = _program(304, "metered")
        with harness.client() as client:
            client.solve(program)
            client.solve(program)
            text = client.metrics()
        parsed = parse_prometheus_text(text)
        series = {name for name, _, _ in parsed["samples"]}
        # Daemon lifecycle.
        assert parsed["types"]["repro_request_seconds"] == "histogram"
        assert "repro_request_seconds_count" in series
        assert "repro_daemon_uptime_seconds" in series
        # Cache, per shard.
        assert "repro_cache_hits_total" in series
        assert "repro_cache_misses_total" in series
        assert "repro_cache_evictions_total" in series
        # Worker-shipped deltas: portfolio and solver layers.
        assert "repro_portfolio_requests_total" in series
        assert "repro_portfolio_wins_total" in series
        assert "repro_solver_solves_total" in series

    def test_cache_hit_counter_strictly_increases_across_scrapes(
        self, harness
    ):
        program = _program(305, "recounted")

        def cache_hits(text: str) -> float:
            parsed = parse_prometheus_text(text)
            return sum(
                value
                for name, _, value in parsed["samples"]
                if name == "repro_cache_hits_total"
            )

        with harness.client() as client:
            client.solve(program)
            client.solve(program)
            first = cache_hits(client.metrics())
            client.solve(program)
            second = cache_hits(client.metrics())
        assert first >= 1
        assert second > first

    def test_request_latency_histogram_counts_requests(self, harness):
        with harness.client() as client:
            client.solve(_program(306, "counted"))
            text = client.metrics()
        parsed = parse_prometheus_text(text)
        counts = [
            (labels, value)
            for name, labels, value in parsed["samples"]
            if name == "repro_request_seconds_count"
        ]
        assert any(
            labels.get("kind") == "solve" and value >= 1
            for labels, value in counts
        )


class TestPassStats:
    def test_stats_expose_per_pass_breakdown(self, harness):
        """Worker pass clocks roll up into the daemon's stats view."""
        with harness.client() as client:
            response = client.solve(_program(310, "passes"))
            assert response["ok"] and not response["from_cache"]
            stats = client.stats()
        passes = stats["passes"]
        # A served miss runs the build and solve phases; this exact
        # program's network is satisfiable, so repair ran too.
        assert set(passes) >= {"build", "solve", "repair"}
        for entry in passes.values():
            assert entry["count"] >= 1
            assert entry["seconds"] >= 0.0
        # The per-pass clocks are nested inside the request: their sum
        # approximates (and cannot meaningfully exceed) the request's
        # end-to-end solve time.
        total = sum(entry["seconds"] for entry in passes.values())
        assert total <= response["seconds"] * 1.25

    def test_cache_hits_add_no_pass_time(self, harness):
        with harness.client() as client:
            client.solve(_program(311, "cold"))
            first = client.stats()["passes"]
            hit = client.solve(_program(311, "cold"))
            second = client.stats()["passes"]
        assert hit["from_cache"]
        assert first == second


class TestUptime:
    def test_uptime_is_monotonic_based(self, harness):
        before = time.monotonic()
        with harness.client() as client:
            stats = client.stats()
        # Started earlier in this test run: bounded by monotonic now.
        assert 0 < stats["uptime_seconds"] < time.monotonic() - before + 60.0
