"""Resident daemon: streaming protocol, warm cache, backpressure."""

import asyncio
import json
import logging
import os
import random
import socket
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.programs import random_suite
from repro.ir.parser import parse_program
from repro.layout.layout import row_major
from repro.opt.network_builder import BuildOptions
from repro.service.batch import run_batch
from repro.service.cache import ShardedResultCache
from repro.service.daemon import (
    MAX_REQUEST_BYTES,
    DaemonConfig,
    SolverDaemon,
    reclaim_stale_socket,
)
from repro.service.evaluate import EvaluationRequest, run_evaluation_batch
from repro.service.fingerprint import request_fingerprint
from repro.service.portfolio import PortfolioConfig, PortfolioResult
from repro.service.stream import (
    BAD_REQUEST,
    INTERNAL,
    REQUEST_TOO_LARGE,
    DaemonClient,
    ProtocolError,
    evaluate_request,
    program_from_wire,
    program_to_wire,
    solve_request,
)

#: Small, quick-to-solve programs (distinct fingerprints).
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
    """Single-scheme ladder: deterministic and fast."""
    return PortfolioConfig(schemes=("enhanced",))


class _DaemonHarness:
    """A daemon served from a background thread on a tmp unix socket."""

    def __init__(self, tmp_path, daemon_config=None, cache=None):
        self.daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=(
                daemon_config
                if daemon_config is not None
                else DaemonConfig(workers=1, shards=2, max_inflight=8)
            ),
            cache=cache,
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
    harness = _DaemonHarness(tmp_path)
    try:
        yield harness
    finally:
        harness.stop()


def _error_count(client: DaemonClient, reason: str) -> int:
    """The daemon's ``repro_daemon_errors_total`` for one reason."""
    prefix = f'repro_daemon_errors_total{{reason="{reason}"}} '
    for line in client.metrics().splitlines():
        if line.startswith(prefix):
            return int(float(line[len(prefix):]))
    raise AssertionError(f"no {prefix!r} sample in the scrape")


class TestProtocol:
    def test_ping_reports_configuration(self, harness):
        with harness.client() as client:
            hello = client.ping()
        assert hello["ok"]
        assert hello["result"]["schemes"] == ["enhanced"]
        assert hello["result"]["shards"] == 2

    def test_malformed_line_gets_error_response_and_serving_continues(
        self, harness
    ):
        with harness.client() as client:
            sock, reader = client._connection()
            sock.sendall(b"{not json}\n")
            response = client._read_response(reader)
            assert response["ok"] is False
            assert "JSON" in response["error"]
            assert response["reason"] == BAD_REQUEST
            # The connection is still serviceable afterwards.
            assert client.ping()["ok"]
            assert _error_count(client, BAD_REQUEST) == 1

    def test_unknown_kind_echoes_request_id(self, harness):
        # "cache_lookup" was a request kind of the removed cache
        # peering; it is now as unknown as a typo.
        with harness.client() as client:
            sock, reader = client._connection()
            for request_id, kind in ((41, "solv"), (42, "cache_lookup")):
                sock.sendall(
                    json.dumps({"id": request_id, "kind": kind}).encode()
                    + b"\n"
                )
                response = client._read_response(reader)
                assert response == {
                    "id": request_id,
                    "ok": False,
                    "error": response["error"],
                    "reason": BAD_REQUEST,
                }
                assert "unknown request kind" in response["error"]
            assert client.ping()["ok"]
            assert _error_count(client, BAD_REQUEST) == 2

    def test_invalid_evaluate_fields_are_protocol_errors(self, harness):
        program = _program(520)
        with harness.client() as client:
            bad_model = client.request(
                evaluate_request(program, cost_model="weighted", sim_cap=10)
            )
            bad_hierarchy = client.request(
                {
                    "kind": "evaluate",
                    "program": solve_request(program)["program"],
                    "hierarchy": {"warp_drive": 9},
                }
            )
        assert bad_model["ok"] is False
        assert bad_hierarchy["ok"] is False
        assert "warp_drive" in bad_hierarchy["error"]
        assert bad_model["reason"] == BAD_REQUEST
        assert bad_hierarchy["reason"] == BAD_REQUEST

    def test_failed_request_gets_an_internal_reason(self, monkeypatch):
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )

        async def broken(payload):
            raise RuntimeError("worker fell over")

        monkeypatch.setattr(daemon, "_handle_solve", broken)
        try:
            response = asyncio.run(
                daemon.handle_request(solve_request(_program(520), request_id=3))
            )
        finally:
            daemon.close()
        assert response["id"] == 3
        assert response["ok"] is False
        assert response["reason"] == INTERNAL
        assert "worker fell over" in response["error"]
        assert daemon.error_counters[INTERNAL] == 1


class TestMistypedProgramFields:
    """JSON allows ``Infinity`` where the program wire wants an integer
    and ``null`` where it wants a name; both are bad requests, not
    internal failures."""

    @pytest.mark.parametrize(
        "field", ["extent", "coefficient", "weight", "bound", "name"]
    )
    def test_is_a_bad_request_not_internal(self, field, caplog):
        caplog.set_level(logging.WARNING)
        payload = solve_request(_program(520), request_id=5)
        wire = payload["program"]
        if field == "extent":
            wire["arrays"][0][1][0] = float("inf")
        elif field == "coefficient":
            wire["nests"][0]["body"][0][1][0][0][0][1] = float("inf")
        elif field == "weight":
            wire["nests"][0]["weight"] = float("inf")
        elif field == "bound":
            wire["nests"][0]["loops"][0][2] = float("inf")
        else:
            wire["arrays"][0][0] = None
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        try:
            response = asyncio.run(daemon.handle_line(json.dumps(payload)))
        finally:
            daemon.close()
        assert response["id"] == 5
        assert response["ok"] is False
        assert response["reason"] == BAD_REQUEST
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestEvaluateLayoutsMismatch:
    """Explicit evaluate layouts must give each program array exactly one
    layout of its rank; anything else is a bad request, answered before
    a worker sees it."""

    @pytest.mark.parametrize("defect", ["missing", "rank", "unknown"])
    def test_is_a_bad_request_not_internal(self, defect, caplog):
        caplog.set_level(logging.WARNING)
        layouts = {"Q1": row_major(2), "Q2": row_major(2)}
        if defect == "missing":
            del layouts["Q2"]
        elif defect == "rank":
            layouts["Q2"] = row_major(3)
        else:
            layouts["Q3"] = row_major(2)
        payload = evaluate_request(
            _program(520), layouts=layouts, sim_cap=50, request_id=6
        )
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        try:
            response = asyncio.run(daemon.handle_line(json.dumps(payload)))
        finally:
            daemon.close()
        assert response["id"] == 6
        assert response["ok"] is False
        assert response["reason"] == BAD_REQUEST
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestFraming:
    @staticmethod
    def _oversized(request_id: int) -> dict:
        return {"id": request_id, "kind": "ping", "pad": "x" * MAX_REQUEST_BYTES}

    def test_oversized_line_is_answered_then_closed(self, harness, caplog):
        caplog.set_level(logging.WARNING)
        line = json.dumps(self._oversized(7)).encode() + b"\n"
        assert len(line) > MAX_REQUEST_BYTES
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(harness.socket_path)
            sock.sendall(line)
            with sock.makefile("rb") as reader:
                response = json.loads(reader.readline())
                assert reader.readline() == b""  # closed cleanly
        assert response["id"] is None
        assert response["ok"] is False
        assert response["reason"] == REQUEST_TOO_LARGE
        assert str(MAX_REQUEST_BYTES) in response["error"]
        # A second connection is still served.
        with harness.client() as client:
            assert client.ping()["ok"]
            stats = client.stats()
            assert _error_count(client, REQUEST_TOO_LARGE) == 1
        assert stats["counters"]["errors"] == 1
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_client_treats_refusal_as_terminal(self, harness):
        with harness.client() as client:
            with pytest.raises(ProtocolError, match="exceeds"):
                client.request(self._oversized(8))
            # Refused once, not resent; the client reconnects on demand.
            assert client.stats()["counters"]["errors"] == 1


class TestServing:
    def test_second_pass_of_mixed_batch_is_cache_served(self, harness):
        """The CI smoke invariant: 10 mixed requests, streamed twice,
        second pass >= 50% served from the daemon's cache."""
        programs = [_program(520 + 2 * index) for index in range(5)]
        requests = [solve_request(program) for program in programs] + [
            evaluate_request(program, cost_model="analytic")
            for program in programs
        ]
        with harness.client() as client:
            first = client.request_many(requests)
            second = client.request_many(requests)
        assert all(response["ok"] for response in first)
        assert all(response["ok"] for response in second)
        assert sum(response["from_cache"] for response in first) == 0
        cached = sum(response["from_cache"] for response in second)
        assert cached >= len(requests) / 2
        # Solve payloads are byte-identical across passes.
        for before, after in zip(first[:5], second[:5]):
            assert json.dumps(before["result"], sort_keys=True) == json.dumps(
                after["result"], sort_keys=True
            )

    def test_renamed_twin_is_served_from_cache_under_its_own_name(self, harness):
        with harness.client() as client:
            original = client.solve(_program(520, name="original"))
            twin = client.solve(_program(520, name="twin"))
        assert not original["from_cache"]
        assert twin["from_cache"]
        assert twin["result"]["program"] == "twin"

    def test_concurrent_identical_misses_are_deduplicated(self, harness):
        program = _program(600)
        with harness.client() as client:
            responses = client.request_many(
                [solve_request(program) for _ in range(4)]
            )
            stats = client.stats()
        assert all(response["ok"] for response in responses)
        payloads = {
            json.dumps(response["result"], sort_keys=True)
            for response in responses
        }
        assert len(payloads) == 1
        assert stats["counters"]["deduplicated"] >= 1
        # Only the dedup owner stores: twins must not inflate the
        # store counter (4 identical requests -> exactly 1 store).
        assert stats["cache"]["stores"] == 1

    def test_stats_snapshot_shape(self, harness):
        with harness.client() as client:
            client.solve(_program(520))
            stats = client.stats()
        assert stats["counters"]["solve"] == 1
        assert stats["cache"]["entries"] == 1
        assert len(stats["cache"]["shards"]) == 2
        assert stats["uptime_seconds"] > 0


def _shuffled(value, rng):
    """``value`` with every object's keys re-inserted in random order
    (arrays keep their order: it is part of the program)."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _shuffled(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


class TestWireMemo:
    @staticmethod
    def _memo(harness) -> dict:
        with harness.client() as client:
            return client.stats()["wire_memo"]

    def test_repeat_solve_is_cached_and_adds_no_entry(self, harness):
        program = _program(520)
        with harness.client() as client:
            cold = client.solve(program)
            after_cold = client.stats()["wire_memo"]
            warm = client.solve(program)
            after_warm = client.stats()["wire_memo"]
        assert not cold["from_cache"] and warm["from_cache"]
        assert warm["result"] == cold["result"]
        assert after_cold == {"entries": 1, "hits": 0, "misses": 1}
        assert after_warm == {"entries": 1, "hits": 1, "misses": 1}

    def test_shuffled_wire_keys_hit_the_memo_and_the_cache(self, harness):
        program = _program(520)
        wire = program_to_wire(program)
        shuffled = _shuffled(wire, random.Random(5))
        assert json.dumps(shuffled) != json.dumps(wire)
        with harness.client() as client:
            cold = client.request({"kind": "solve", "program": wire})
            warm = client.request({"kind": "solve", "program": shuffled})
        assert warm["from_cache"]
        assert warm["result"] == cold["result"]
        assert self._memo(harness)["hits"] == 1
        assert list(harness.daemon._wire_memo.values()) == [
            request_fingerprint(program, BuildOptions())
        ]

    def test_renamed_twin_hits_under_its_own_name(self, harness):
        with harness.client() as client:
            client.solve(_program(520, name="original"))
            first = client.solve(_program(520, name="twin"))
            again = client.solve(_program(520, name="twin"))
        assert first["from_cache"] and again["from_cache"]
        assert first["result"]["program"] == "twin"
        assert again["result"] == first["result"]
        # Two wire forms (the names differ), one cache key.
        assert self._memo(harness) == {"entries": 2, "hits": 1, "misses": 2}
        assert len(set(harness.daemon._wire_memo.values())) == 1

    def test_malformed_program_is_never_memoized(self, harness):
        wire = program_to_wire(_program(520))
        wire["arrays"][0][1] = ["wide", 260]
        with harness.client() as client:
            first = client.request({"kind": "solve", "program": wire})
            second = client.request({"kind": "solve", "program": wire})
        assert first["ok"] is False and second["ok"] is False
        assert "malformed program payload" in first["error"]
        assert second["error"] == first["error"]
        assert self._memo(harness) == {"entries": 0, "hits": 0, "misses": 2}

    def test_memo_is_bounded_by_the_cache_bound(self, tmp_path):
        harness = _DaemonHarness(
            tmp_path,
            daemon_config=DaemonConfig(
                workers=1, shards=2, cache_capacity=1, max_inflight=8
            ),
        )
        try:
            with harness.client() as client:
                for index in range(4):
                    assert client.solve(_program(520 + 2 * index))["ok"]
                    assert client.stats()["wire_memo"]["entries"] <= 2
        finally:
            harness.stop()

    def test_memo_hit_after_eviction_redispatches(self, harness):
        program = _program(520)
        with harness.client() as client:
            cold = client.solve(program)
            harness.daemon.cache.clear()
            again = client.solve(program)
            stats = client.stats()
        assert not again["from_cache"]
        assert again["result"]["exact"]
        assert again["result"]["layouts"] == cold["result"]["layouts"]
        assert stats["wire_memo"]["hits"] == 1
        assert stats["cache"]["entries"] == 1

    def test_non_json_wire_from_python_callers_is_served_unmemoized(self):
        """``handle_request`` takes Python dicts, whose values need not
        be JSON (here a Fraction extent): such a wire is decoded and
        served as before, it just never enters the memo."""
        request = solve_request(_program(520), request_id=3)
        request["program"]["arrays"][0][1][0] = Fraction(520)
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        try:
            response = asyncio.run(daemon.handle_request(request))
        finally:
            daemon.close()
        assert response["ok"] and response["result"]["exact"]
        assert daemon.stats()["wire_memo"] == {
            "entries": 0,
            "hits": 0,
            "misses": 1,
        }


_RANDOM_PROGRAMS = random_suite(12, seed=3)


class TestWireMemoProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, len(_RANDOM_PROGRAMS) - 1),
        rng=st.randoms(use_true_random=False),
    )
    def test_memo_fingerprint_equals_request_fingerprint(self, index, rng):
        """Whatever key order a client sends, a memo hit yields exactly
        the fingerprint a full decode would have."""
        options = BuildOptions()
        wire = program_to_wire(_RANDOM_PROGRAMS[index])
        first, second = _shuffled(wire, rng), _shuffled(wire, rng)
        daemon = SolverDaemon(config=_fast_config(), options=options)
        try:
            key, fingerprint = daemon._memo_lookup(first)
            assert fingerprint is None
            daemon._fingerprint(key, None, program_from_wire(first))
            _, memoized = daemon._memo_lookup(second)
        finally:
            daemon.close()
        assert memoized == request_fingerprint(
            program_from_wire(second), options
        )


class TestStaleSocketReclaim:
    def test_missing_path_is_fine(self, tmp_path):
        reclaim_stale_socket(str(tmp_path / "never-existed.sock"))

    def test_stale_socket_is_unlinked(self, tmp_path):
        """A socket file whose daemon died (no listener) is removed."""
        path = str(tmp_path / "stale.sock")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
        sock.close()  # bound but never listening -> connect refused
        assert os.path.exists(path)
        reclaim_stale_socket(path)
        assert not os.path.exists(path)

    def test_live_socket_is_protected(self, tmp_path):
        """A path a live daemon accepts on must not be unlinked."""
        path = str(tmp_path / "live.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)
        try:
            with pytest.raises(OSError, match="live daemon"):
                reclaim_stale_socket(path)
            assert os.path.exists(path)
        finally:
            server.close()

    def test_non_socket_file_is_protected(self, tmp_path):
        path = tmp_path / "not-a-socket"
        path.write_text("precious data")
        with pytest.raises(OSError, match="not a socket"):
            reclaim_stale_socket(str(path))
        assert path.read_text() == "precious data"

    def test_daemon_reclaims_after_hard_kill(self, tmp_path):
        """End to end: a stale file does not block the next daemon."""
        path = str(tmp_path / "daemon.sock")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
        sock.close()  # simulate SIGKILL leftovers
        daemon = SolverDaemon(
            config=PortfolioConfig(schemes=("enhanced",)),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )

        async def bind_then_shutdown():
            serve = asyncio.ensure_future(daemon.serve_unix(path))
            await asyncio.sleep(0)
            while not daemon._shutdown.is_set():
                if os.path.exists(path):
                    daemon._shutdown.set()
                await asyncio.sleep(0.02)
            await serve

        thread = threading.Thread(
            target=lambda: asyncio.run(bind_then_shutdown()), daemon=True
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()


class TestShutdownSemantics:
    def test_shutdown_unblocks_an_idle_reader(self):
        """A stdio-style daemon whose client keeps the stream open (no
        EOF, no further lines) must still exit on a shutdown request."""
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        written: list[bytes] = []

        async def scenario():
            queue: asyncio.Queue = asyncio.Queue()  # never EOFs

            async def write_line(data: bytes) -> None:
                written.append(data)

            server = asyncio.create_task(
                daemon._serve_stream(queue.get, write_line)
            )
            await queue.put(
                json.dumps({"id": 1, "kind": "shutdown"}).encode() + b"\n"
            )
            await asyncio.wait_for(server, timeout=10.0)

        try:
            asyncio.run(scenario())
        finally:
            daemon.close()
        responses = [json.loads(line) for line in written]
        assert responses[0]["kind"] == "shutdown"
        assert responses[0]["ok"]

    def test_invalid_ttl_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="ttl_seconds"):
            DaemonConfig(ttl_seconds=0.0)
        with pytest.raises(ValueError, match="cache_capacity"):
            DaemonConfig(cache_capacity=0)


class TestBackpressure:
    def test_max_inflight_one_still_serves_a_pipelined_batch(self, tmp_path):
        harness = _DaemonHarness(
            tmp_path,
            daemon_config=DaemonConfig(workers=1, shards=2, max_inflight=1),
        )
        try:
            programs = [_program(520 + 2 * index) for index in range(6)]
            with harness.client() as client:
                responses = client.solve_many(programs)
            assert all(response["ok"] for response in responses)
            assert [r["result"]["program"] for r in responses] == [
                p.name for p in programs
            ]
        finally:
            harness.stop()


class TestThinClient:
    def test_run_batch_through_daemon_matches_local_results(
        self, harness, tmp_path
    ):
        programs = [_program(520 + 2 * index) for index in range(3)]
        local = run_batch(programs, config=_fast_config())
        with harness.client() as client:
            remote = run_batch(programs, client=client)
        assert remote.total == local.total
        for mine, theirs in zip(local.results, remote.results):
            assert mine.layouts == theirs.layouts
            assert mine.winner == theirs.winner
            assert mine.exact and theirs.exact
        # Second thin-client pass is served from the daemon's cache.
        with harness.client() as client:
            warm = run_batch(programs, client=client)
        assert warm.cached_fraction == 1.0

    def test_run_evaluation_batch_through_daemon(self, harness):
        programs = [_program(520), _program(524)]
        requests = [
            EvaluationRequest(program=program, cost_model="analytic")
            for program in programs
        ]
        local = run_evaluation_batch(requests, config=_fast_config())
        with harness.client() as client:
            remote = run_evaluation_batch(requests, client=client)
        assert [result.value for result in remote] == [
            result.value for result in local
        ]
        assert all(result.exact for result in remote)

    def test_daemon_error_raises_runtime_error(self, harness):
        class _BrokenClient:
            def solve_many(self, programs):
                return [{"ok": False, "error": "boom"} for _ in programs]

        with pytest.raises(RuntimeError, match="boom"):
            run_batch([_program(520)], client=_BrokenClient())


class TestPersistence:
    def test_daemon_restart_serves_from_persisted_shards(self, tmp_path):
        directory = str(tmp_path / "cache.d")
        program = _program(520)

        first = _DaemonHarness(
            tmp_path, cache=ShardedResultCache(shards=2, directory=directory)
        )
        try:
            with first.client() as client:
                cold = client.solve(program)
            assert not cold["from_cache"]
        finally:
            first.stop()

        second = _DaemonHarness(
            tmp_path, cache=ShardedResultCache(shards=2, directory=directory)
        )
        try:
            with second.client() as client:
                warm = client.solve(program)
            assert warm["from_cache"]
            assert json.dumps(warm["result"], sort_keys=True) == json.dumps(
                cold["result"], sort_keys=True
            )
        finally:
            second.stop()

    def test_handle_request_directly(self):
        """The core dispatcher is usable without any transport."""
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        try:
            response = asyncio.run(
                daemon.handle_request(solve_request(_program(520), request_id=9))
            )
        finally:
            daemon.close()
        assert response["ok"]
        assert response["id"] == 9
        result = PortfolioResult.from_dict(response["result"])
        assert result.exact
