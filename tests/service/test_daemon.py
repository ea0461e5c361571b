"""Resident daemon: streaming protocol, warm cache, backpressure."""

import asyncio
import contextlib
import json
import logging
import multiprocessing
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.programs import random_suite
from repro.csp.vectorized import native_available
from repro.ir.parser import parse_program
from repro.layout.layout import row_major
from repro.opt.network_builder import BuildOptions
from repro.service.batch import run_batch
from repro.service.cache import ResultCache
from repro.service.daemon import (
    MAX_REQUEST_BYTES,
    DaemonConfig,
    SolverDaemon,
    reclaim_stale_socket,
    wire_memo_key,
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
    encode_response,
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
                else DaemonConfig(workers=1, max_inflight=8)
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
        assert hello["result"]["workers"] == 1

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
            daemon_config=DaemonConfig(workers=1),
        )

        def broken(payload):
            raise RuntimeError("worker fell over")

        monkeypatch.setattr(daemon, "_answer", broken)
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
            daemon_config=DaemonConfig(workers=1),
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
            daemon_config=DaemonConfig(workers=1),
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
        assert stats["cache"]["bytes_on_disk"] == 0  # memory-only
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
        """The first hit keys the line's bytes too (one more key, to an
        entry of the line's own); every later repeat adds nothing."""
        program = _program(520)
        with harness.client() as client:
            cold = client.solve(program)
            after_cold = client.stats()["wire_memo"]
            warm = client.solve(program)
            after_warm = client.stats()["wire_memo"]
            again = client.solve(program)
            after_again = client.stats()["wire_memo"]
        assert not cold["from_cache"] and warm["from_cache"]
        assert warm["result"] == cold["result"] == again["result"]
        assert after_cold == {
            "entries": 1, "hits": 0, "misses": 1, "exact_hits": 0
        }
        assert after_warm == {
            "entries": 2, "hits": 1, "misses": 1, "exact_hits": 0
        }
        assert after_again == {
            "entries": 2, "hits": 2, "misses": 1, "exact_hits": 1
        }
        wire_entry, line_entry = harness.daemon._wire_memo.values()
        assert (line_entry.fingerprint, line_entry.name) == (
            wire_entry.fingerprint, wire_entry.name
        )
        assert (wire_entry.kind, line_entry.kind) == (None, "solve")

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
        # The wire's entry, keyed by the wire and by the warm line.
        assert [
            entry.fingerprint for entry in harness.daemon._wire_memo.values()
        ] == [request_fingerprint(program, BuildOptions())] * 2

    def test_renamed_twin_hits_under_its_own_name(self, harness):
        with harness.client() as client:
            client.solve(_program(520, name="original"))
            first = client.solve(_program(520, name="twin"))
            again = client.solve(_program(520, name="twin"))
        assert first["from_cache"] and again["from_cache"]
        assert first["result"]["program"] == "twin"
        assert again["result"] == first["result"]
        # Two wire forms (the names differ), one cache key; the twin's
        # first hit keyed its entry by its line's bytes, the second hit
        # was found by them.
        assert self._memo(harness) == {
            "entries": 3, "hits": 1, "misses": 2, "exact_hits": 1
        }
        assert len(
            {entry.fingerprint for entry in harness.daemon._wire_memo.values()}
        ) == 1

    def test_malformed_program_is_never_memoized(self, harness):
        wire = program_to_wire(_program(520))
        wire["arrays"][0][1] = ["wide", 260]
        with harness.client() as client:
            first = client.request({"kind": "solve", "program": wire})
            second = client.request({"kind": "solve", "program": wire})
        assert first["ok"] is False and second["ok"] is False
        assert "malformed program payload" in first["error"]
        assert second["error"] == first["error"]
        assert self._memo(harness) == {
            "entries": 0, "hits": 0, "misses": 2, "exact_hits": 0
        }

    def test_memo_is_bounded_by_the_cache_bound(self, tmp_path):
        harness = _DaemonHarness(tmp_path, cache=ResultCache(capacity=1))
        try:
            with harness.client() as client:
                for index in range(4):
                    assert client.solve(_program(520 + 2 * index))["ok"]
                    assert client.stats()["wire_memo"]["entries"] <= 1
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
            daemon_config=DaemonConfig(workers=1),
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
            "exact_hits": 0,
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
            key, entry = daemon._memo_lookup(first)
            assert entry is None
            daemon._memo_entry(key, None, first, program_from_wire(first))
            _, memoized = daemon._memo_lookup(second)
        finally:
            daemon.close()
        assert memoized.fingerprint == request_fingerprint(
            program_from_wire(second), options
        )


def _leaf_paths(value, path=()):
    """Every path to a non-container value in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaf_paths(item, path + (index,))
    else:
        yield path


def _with_leaf(wire, path, leaf):
    """A copy of ``wire`` whose value at ``path`` is ``leaf``."""
    copy = json.loads(json.dumps(wire))
    holder = copy
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = leaf
    return copy


class TestWireMemoKeyProperty:
    """The memo key tells apart wires a Python ``==`` or a loose
    encoding would conflate: a key shared by two wires means the same
    program."""

    @settings(max_examples=200, deadline=None)
    @given(
        index=st.integers(0, len(_RANDOM_PROGRAMS) - 1),
        data=st.data(),
    )
    def test_wires_one_leaf_apart_never_share_a_key(self, index, data):
        wire = json.loads(json.dumps(program_to_wire(_RANDOM_PROGRAMS[index])))
        path = data.draw(st.sampled_from(list(_leaf_paths(wire))))
        variants = [
            _with_leaf(wire, path, leaf)
            for leaf in (1, 1.0, True, [], {}, ["a", 1], [["a", 1]], {"a": 1})
        ]
        keys = [wire_memo_key(variant) for variant in variants]
        assert None not in keys
        assert len(set(keys)) == len(keys)

    @settings(max_examples=100, deadline=None)
    @given(
        index=st.integers(0, len(_RANDOM_PROGRAMS) - 1),
        data=st.data(),
        value=st.sampled_from([1, 1.0, True, None, "x", [], {}]),
    )
    def test_an_extra_key_never_shares_a_key(self, index, data, value):
        wire = json.loads(json.dumps(program_to_wire(_RANDOM_PROGRAMS[index])))
        objects = [wire] + wire["nests"]
        target = data.draw(st.integers(0, len(objects) - 1))
        extended = json.loads(json.dumps(wire))
        ([extended] + extended["nests"])[target]["extra"] = value
        assert wire_memo_key(extended) not in (None, wire_memo_key(wire))

    def test_reordered_keys_share_a_key_json_or_python_built(self):
        wire = program_to_wire(_RANDOM_PROGRAMS[0])
        decoded = json.loads(json.dumps(_shuffled(wire, random.Random(2))))
        assert wire_memo_key(decoded) == wire_memo_key(wire) is not None

    def test_unkeyable_wires(self):
        wire = program_to_wire(_RANDOM_PROGRAMS[0])
        assert wire_memo_key([wire]) is None
        assert wire_memo_key({**wire, "nests": {}}) is None
        assert wire_memo_key({**wire, "nests": [["name", "n"]]}) is None
        assert wire_memo_key({**wire, 7: "not a JSON key"}) is None
        assert wire_memo_key({**wire, "name": Fraction(1, 3)}) is None
        # A Python caller's nest given as the very tuple a dict nest is
        # keyed by must not borrow that nest's key.
        as_tuples = [tuple(sorted(nest.items())) for nest in wire["nests"]]
        assert wire_memo_key({**wire, "nests": as_tuples}) is None


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
            daemon_config=DaemonConfig(workers=1),
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
            daemon_config=DaemonConfig(workers=1),
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

    def test_shutdown_ends_serve_unix_while_another_connection_idles(
        self, tmp_path
    ):
        """A shutdown on one connection ends every stream: an idle
        second connection sees EOF and ``serve_unix`` returns."""
        harness = _DaemonHarness(tmp_path)
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            idle.settimeout(10.0)
            idle.connect(harness.socket_path)
            idle_reader = idle.makefile("rb")
            # One round trip: the idle stream is in its read loop.
            idle.sendall(b'{"id": 1, "kind": "ping"}\n')
            assert json.loads(idle_reader.readline())["ok"]
            with harness.client() as client:
                assert client.shutdown()["ok"]
            harness.thread.join(timeout=5.0)
            assert not harness.thread.is_alive()
            assert idle_reader.readline() == b""
        finally:
            idle.close()
            harness.stop()

    def test_a_miss_in_flight_at_shutdown_is_still_answered(self, tmp_path):
        """``serve_unix`` waits for every connection's tail: a slow
        request (an uncapped simulation) pipelined just before
        ``shutdown`` gets its reply."""
        harness = _DaemonHarness(tmp_path)
        try:
            # 360,000 iterations to simulate: far longer than one
            # event-loop turn, not long for a test.
            program = parse_program(
                _TEMPLATE.replace("259", "599").replace("260", "600").format(
                    rows=1200
                ),
                name="slow",
            )
            with harness.client() as client:
                evaluated, stopped = client.request_many(
                    [
                        evaluate_request(program, cost_model="simulated"),
                        {"kind": "shutdown"},
                    ]
                )
            assert evaluated["ok"] and not evaluated["from_cache"]
            assert stopped["ok"] and stopped["kind"] == "shutdown"
        finally:
            harness.stop()

    def test_shutdown_on_one_stream_cancels_another(self):
        """Two bare streams: the one that never gets a line ends too,
        and the shutdown stream still answers its earlier request."""
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1),
        )
        written: list[bytes] = []

        async def write_line(data: bytes) -> None:
            written.append(data)

        async def scenario():
            quiet: asyncio.Queue = asyncio.Queue()  # never EOFs
            loud: asyncio.Queue = asyncio.Queue()
            streams = [
                asyncio.create_task(daemon._serve_stream(q.get, write_line))
                for q in (quiet, loud)
            ]
            for request in ({"id": 1, "kind": "ping"}, {"id": 2, "kind": "shutdown"}):
                await loud.put(json.dumps(request).encode() + b"\n")
            await asyncio.wait_for(asyncio.gather(*streams), timeout=10.0)
            return [task.cancelled() for task in streams]

        try:
            cancelled = asyncio.run(scenario())
        finally:
            daemon.close()
        assert cancelled == [False, False]
        assert sorted(json.loads(line)["id"] for line in written) == [1, 2]

    def test_stdio_daemon_exits_cleanly_while_stdin_stays_open(self, tmp_path):
        """``--serve`` on stdio: a shutdown ends the process with status
        0 although the client never closes stdin (no abort at exit
        over the stdin reader's lock)."""
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--serve", "--no-cache",
             "--workers", "1", "--portfolio", "enhanced"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,  # its pool workers die with it
        )
        try:
            proc.stdin.write(b'{"id": 1, "kind": "ping"}\n{"id": 2, "kind": "shutdown"}\n')
            proc.stdin.flush()
            replies = [json.loads(proc.stdout.readline()) for _ in range(2)]
            assert proc.wait(timeout=30) == 0, proc.stderr.read().decode()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
            proc.stderr.close()
        assert sorted(reply["id"] for reply in replies) == [1, 2]

    def test_cancellation_without_shutdown_propagates(self):
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1),
        )

        async def scenario():
            queue: asyncio.Queue = asyncio.Queue()

            async def write_line(data: bytes) -> None:
                pass

            server = asyncio.create_task(daemon._serve_stream(queue.get, write_line))
            await asyncio.sleep(0)
            server.cancel()
            with pytest.raises(asyncio.CancelledError):
                await server
            assert not daemon._readers

        try:
            asyncio.run(scenario())
        finally:
            daemon.close()

    def test_invalid_ttl_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="ttl_seconds"):
            DaemonConfig(ttl_seconds=0.0)


class TestBackpressure:
    def test_max_inflight_one_still_serves_a_pipelined_batch(self, tmp_path):
        harness = _DaemonHarness(
            tmp_path,
            daemon_config=DaemonConfig(workers=1, max_inflight=1),
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


class TestReadLoopHits:
    """A solve the cache answers is replied to in the read loop: no
    task, no permit, every counter moved once."""

    def test_pipelined_miss_then_hits_at_max_inflight_one(self, tmp_path):
        harness = _DaemonHarness(
            tmp_path,
            daemon_config=DaemonConfig(workers=1, max_inflight=1),
        )
        try:
            warm = [_program(520), _program(524)]
            fresh = _program(528, name="fresh")
            with harness.client() as client:
                client.solve_many(warm)
                responses = client.request_many(
                    [
                        {**solve_request(fresh), "id": "miss"},
                        {**solve_request(warm[0]), "id": 41},
                        {**solve_request(warm[1]), "id": 42},
                    ]
                )
            assert [r["id"] for r in responses] == ["miss", 41, 42]
            assert all(r["ok"] for r in responses)
            assert [r["from_cache"] for r in responses] == [False, True, True]
            assert responses[0]["result"]["program"] == "fresh"
        finally:
            harness.stop()

    def test_a_twin_waiting_for_the_permit_is_served_from_the_cache(
        self, tmp_path
    ):
        """At ``max_inflight=1`` a pipelined twin misses the cache when
        read, then waits for the permit while the first solve runs: it
        is answered from the cache, not solved a second time."""
        harness = _DaemonHarness(
            tmp_path,
            daemon_config=DaemonConfig(workers=1, max_inflight=1),
        )
        try:
            program = _program(520)
            with harness.client() as client:
                first, twin = client.solve_many([program, program])
            assert not first["from_cache"] and twin["from_cache"]
            assert twin["result"] == first["result"]
            assert harness.daemon.cache.stats.stores == 1
            assert harness.daemon.counters["cache_served"] == 1
        finally:
            harness.stop()

    def test_a_batch_of_hits_sent_before_any_read_completes(self, harness):
        """``DaemonClient`` writes a whole batch before it reads: the
        daemon must keep reading while the replies (over a megabyte,
        more than the socket buffers hold) wait to be read."""
        program = _program(520)
        with DaemonClient(harness.socket_path, timeout=30.0) as client:
            client.solve(program)
            responses = client.solve_many([program] * 2000)
        assert sum(len(json.dumps(r)) for r in responses) > 1_000_000
        assert all(r["ok"] and r["from_cache"] for r in responses)

    def test_a_hit_moves_each_counter_by_exactly_one(self, harness):
        daemon = harness.daemon
        program = _program(520)

        def snapshot() -> dict:
            latency = daemon.registry.histogram(
                "repro_request_seconds", {"kind": "solve"}
            )
            return {
                **{name: daemon.counters[name] for name in (
                    "requests", "solve", "cache_served", "evaluate", "errors"
                )},
                "memo_hits": daemon.wire_memo_counters["hits"],
                "memo_misses": daemon.wire_memo_counters["misses"],
                "latency_count": latency.count,
                "cache_hits": daemon.cache.stats.hits,
                "cache_misses": daemon.cache.stats.misses,
            }

        with harness.client() as client:
            assert not client.solve(program)["from_cache"]
            before = snapshot()
            assert client.solve(program)["from_cache"]
            after = snapshot()
        delta = {name: after[name] - before[name] for name in before}
        assert delta == {
            "requests": 1,
            "solve": 1,
            "cache_served": 1,
            "evaluate": 0,
            "errors": 0,
            "memo_hits": 1,
            "memo_misses": 0,
            "latency_count": 1,
            "cache_hits": 1,
            "cache_misses": 0,
        }

    def test_handle_request_and_the_read_loop_answer_a_hit_alike(self, harness):
        """One hit implementation: the socket's traced hit and the
        in-process one carry the same result and the same phases."""
        program = _program(520, name="alike")
        with harness.client() as client:
            client.solve(program)
            over_socket = client.solve(program, trace=True)
        in_process = asyncio.run(
            harness.daemon.handle_request(solve_request(program, trace=True))
        )
        for response in (over_socket, in_process):
            assert response["from_cache"]
            assert response["result"] == over_socket["result"]
            phases = [child["name"] for child in response["trace"]["children"]]
            assert phases == ["decode", "fingerprint", "cache_lookup", "encode"]


def _serve_lines(daemon, lines) -> list[bytes]:
    """Run ``lines`` through one stream of the daemon's read loop;
    returns the reply lines in the order they were written."""
    feed = iter(lines)
    replies: list[bytes] = []

    async def read_line() -> bytes:
        return next(feed, b"")

    async def write_line(data: bytes) -> None:
        replies.append(data)

    asyncio.run(daemon._serve_stream(read_line, write_line))
    return replies


def _solve_line(request_id, wire) -> bytes:
    """A solve line exactly as ``DaemonClient`` writes it."""
    return encode_response(
        {"id": request_id, "kind": "solve", "program": wire}
    )


def _cached_value(program, solve_seconds: float = 0.25) -> dict:
    """A portfolio result entry for ``program`` (its layouts need not
    be good: both hit paths serve whatever the cache holds)."""
    return {
        "program": program.name,
        "fingerprint": request_fingerprint(program, BuildOptions()),
        "winner": "enhanced",
        "exact": True,
        "solve_seconds": solve_seconds,
        "layouts": {
            decl.name: {
                "dimension": decl.rank,
                "rows": [[int(i == j) for j in range(decl.rank)]
                         for i in range(decl.rank - 1)],
            }
            for decl in program.arrays
        },
        "outcomes": [],
    }


def _warm_daemon(program, value=None, **config) -> SolverDaemon:
    """A daemon whose cache already holds ``program``'s solve."""
    daemon = SolverDaemon(
        config=_fast_config(),
        daemon_config=DaemonConfig(workers=1, **config),
    )
    daemon.cache.put(
        request_fingerprint(program, BuildOptions()),
        _fast_config().token(),
        value if value is not None else _cached_value(program),
    )
    return daemon


#: Request ids the compact line head carries verbatim.
_COMPACT_IDS = st.one_of(
    st.none(),
    st.just(0),
    st.integers(1, 10**18 - 1),
    st.integers(-(10**18 - 1), -1),
)
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)


def _variant_line(variant: str, request_id: int, wire: dict) -> bytes:
    """A solve line the exact-bytes path must leave to the dict path."""
    body = json.dumps(wire, separators=(",", ":"))
    head = '{"id":%d,"kind":"solve","program":%s' % (request_id, body)
    return {
        "string id": '{"id":"r%d","kind":"solve","program":%s}' % (
            request_id, body),
        "float id": '{"id":%d.5,"kind":"solve","program":%s}' % (
            request_id, body),
        "minus zero id": '{"id":-0,"kind":"solve","program":%s}' % body,
        "19-digit id": '{"id":%d,"kind":"solve","program":%s}' % (
            10**18 + request_id, body),
        "id last": '{"kind":"solve","program":%s,"id":%d}' % (
            body, request_id),
        "second id": head + ',"id":%d}' % (request_id + 1),
        "trace": head + ',"trace":false}',
        "traced": head + ',"trace":true}',
        "second kind": '{"id":%d,"kind":"solve","kind":"solve","program":%s}'
        % (request_id, body),
        "extra whitespace": json.dumps(
            {"id": request_id, "kind": "solve", "program": wire}
        ),
    }[variant].encode() + b"\n"


class TestExactBytesHits:
    """A repeat solve line answered from its bytes: the reply the dict
    path would have written, and only where that path would have
    answered the same request."""

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, len(_RANDOM_PROGRAMS) - 1),
        name=_NAMES,
        ids=st.lists(_COMPACT_IDS, min_size=2, max_size=4),
        solve_seconds=st.floats(0, 1e6, allow_nan=False),
    )
    def test_fast_reply_bytes_equal_the_dict_path(
        self, index, name, ids, solve_seconds
    ):
        program = replace(_RANDOM_PROGRAMS[index], name=name)
        wire = program_to_wire(program)
        # Stored by a renamed twin: both paths answer under ``name``.
        value = {**_cached_value(program, solve_seconds), "program": "twin"}
        daemon = _warm_daemon(program, value)
        lines = [_solve_line(request_id, wire) for request_id in ids]
        try:
            replies = _serve_lines(daemon, lines)
            exact_hits = daemon.wire_memo_counters["exact_hits"]
            expected = [
                asyncio.run(daemon.handle_request(json.loads(line)))
                for line in lines
            ]
        finally:
            daemon.close()
        assert exact_hits == len(lines) - 1  # the first line keys it
        for reply, response in zip(replies, expected):
            response["seconds"] = json.loads(reply)["seconds"]
            assert reply == encode_response(response)

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, len(_RANDOM_PROGRAMS) - 1),
        request_id=st.integers(1, 10**6),
        variant=st.sampled_from([
            "string id", "float id", "minus zero id", "19-digit id",
            "id last", "second id", "trace", "traced", "second kind",
            "extra whitespace",
        ]),
    )
    def test_refused_lines_keep_the_dict_path_and_their_id(
        self, index, request_id, variant
    ):
        program = _RANDOM_PROGRAMS[index]
        line = _variant_line(variant, request_id, program_to_wire(program))
        daemon = _warm_daemon(program)
        try:
            replies = _serve_lines(daemon, [line] * 3)
        finally:
            daemon.close()
        assert daemon.wire_memo_counters["exact_hits"] == 0
        assert len(replies) == 3
        for reply in replies:
            response = json.loads(reply)
            assert response["ok"] and response["from_cache"]
            assert response["id"] == json.loads(line)["id"]

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(st.none(), st.floats(0, 1e3, allow_nan=False)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_a_re_put_value_is_never_served_from_a_stale_body(self, steps):
        """Each step either answers a repeat line or re-puts the entry
        with a new ``solve_seconds``: every reply carries the value the
        cache holds at that moment."""
        program = _program(520, name="reput")
        wire = program_to_wire(program)
        value = _cached_value(program)
        daemon = _warm_daemon(program, value)
        fingerprint = request_fingerprint(program, BuildOptions())
        try:
            _serve_lines(daemon, [_solve_line(0, wire)])  # keys the bytes
            for number, step in enumerate(steps, start=1):
                if step is not None:
                    value = {**value, "solve_seconds": step}
                    daemon.cache.put(
                        fingerprint, _fast_config().token(), value
                    )
                    continue
                (reply,) = _serve_lines(daemon, [_solve_line(number, wire)])
                assert json.loads(reply)["result"] == value
        finally:
            daemon.close()
        assert daemon.wire_memo_counters["exact_hits"] == steps.count(None)

    @pytest.mark.parametrize("gone", ["expired", "evicted"])
    def test_a_lost_entry_is_answered_by_a_miss_after_one_lookup(self, gone):
        program = _program(520, name="lost")
        wire = program_to_wire(program)
        daemon = _warm_daemon(program, ttl_seconds=0.5)
        try:
            warm = _serve_lines(daemon, [_solve_line(1, wire), _solve_line(2, wire)])
            if gone == "expired":
                time.sleep(0.6)
            else:
                daemon.cache.clear()
            before = replace(daemon.cache.stats)  # a copy: stats is live
            (reply,) = _serve_lines(daemon, [_solve_line(3, wire)])
            after = daemon.cache.stats
        finally:
            daemon.close()
        assert [json.loads(line)["from_cache"] for line in warm] == [True, True]
        response = json.loads(reply)
        assert response["ok"] and not response["from_cache"]
        assert response["id"] == 3 and response["result"]["exact"]
        assert (after.hits - before.hits, after.misses - before.misses) == (0, 1)
        assert after.expirations - before.expirations == (gone == "expired")
        # Line 1 decoded (a memo miss), lines 2 and 3 found by bytes.
        assert daemon.wire_memo_counters == {
            "hits": 2, "misses": 1, "exact_hits": 2
        }

    def test_an_exact_hit_moves_each_counter_by_exactly_one(self, harness):
        daemon = harness.daemon
        program = _program(520)

        def snapshot() -> dict:
            latency = daemon.registry.histogram(
                "repro_request_seconds", {"kind": "solve"}
            )
            return {
                **{name: daemon.counters[name] for name in (
                    "requests", "solve", "cache_served", "evaluate", "errors"
                )},
                **{f"memo_{name}": count
                   for name, count in daemon.wire_memo_counters.items()},
                "latency_count": latency.count,
                "cache_hits": daemon.cache.stats.hits,
                "cache_misses": daemon.cache.stats.misses,
            }

        with harness.client() as client:
            assert not client.solve(program)["from_cache"]
            warm = client.solve(program)
            before = snapshot()
            exact = client.solve(program)
            after = snapshot()
        delta = {name: after[name] - before[name] for name in before}
        assert delta == {
            "requests": 1,
            "solve": 1,
            "cache_served": 1,
            "evaluate": 0,
            "errors": 0,
            "memo_hits": 1,
            "memo_misses": 0,
            "memo_exact_hits": 1,
            "latency_count": 1,
            "cache_hits": 1,
            "cache_misses": 0,
        }
        assert exact["id"] != warm["id"]
        assert exact["result"] == warm["result"] and exact["from_cache"]

    def test_a_trace_log_keeps_every_line_on_the_dict_path(self, tmp_path):
        program = _program(520, name="teed")
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1),
            trace_log=str(tmp_path / "trace.jsonl"),
        )
        daemon.cache.put(
            request_fingerprint(program, BuildOptions()),
            _fast_config().token(),
            _cached_value(program),
        )
        wire = program_to_wire(program)
        try:
            replies = _serve_lines(
                daemon, [_solve_line(n, wire) for n in range(3)]
            )
        finally:
            daemon.close()
        assert [json.loads(reply)["from_cache"] for reply in replies] == [True] * 3
        assert daemon.wire_memo_counters["exact_hits"] == 0
        assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 3


def _compact_line(request_id, payload: dict) -> bytes:
    """``payload`` as ``DaemonClient`` writes it, id first."""
    return encode_response({**payload, "id": request_id})


class TestOneRequestPath:
    """A solve and an evaluate share one synchronous step and one miss
    step: an evaluate without layouts is the solve, then a price."""

    @pytest.mark.parametrize("evaluate_first", [False, True])
    def test_a_solve_and_its_evaluate_run_the_ladder_once(
        self, harness, evaluate_first
    ):
        program = _program(520)
        requests = [
            solve_request(program),
            evaluate_request(program, cost_model="analytic"),
        ]
        if evaluate_first:
            requests.reverse()
        with harness.client() as client:
            responses = client.request_many(requests)
            stats = client.stats()
        assert all(r["ok"] and not r["from_cache"] for r in responses)
        assert sum(stats["engines"].values()) == 1
        assert stats["cache"]["stores"] == 2
        solved, priced = sorted(responses, key=lambda r: r["kind"] != "solve")
        assert priced["result"]["layouts"] == solved["result"]["layouts"]

    def test_a_repeated_compact_evaluate_line_is_an_exact_hit(self):
        """Its reply is the dict path's, byte for byte but ``seconds``;
        the solve lines of the same program keep entries of their own."""
        program = _program(520, name="priced")
        evaluate = evaluate_request(
            program, cost_model="analytic", hierarchy={"l1_line": 32}
        )
        solve = solve_request(program)
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1),
        )
        try:
            (miss,) = _serve_lines(daemon, [_compact_line(1, evaluate)])
            before = daemon.wire_memo_counters["exact_hits"]
            lines = [
                _compact_line(2, evaluate),  # dict path; keys the bytes
                _compact_line(3, evaluate),
                _compact_line(4, solve),
                _compact_line(5, solve),
                _compact_line(6, evaluate),
            ]
            replies = _serve_lines(daemon, lines)
            exact = daemon.wire_memo_counters["exact_hits"] - before
            expected = [
                asyncio.run(daemon.handle_request(json.loads(line)))
                for line in lines
            ]
        finally:
            daemon.close()
        assert not json.loads(miss)["from_cache"]
        assert exact == 3
        for reply, response in zip(replies, expected):
            assert response["from_cache"]
            response["seconds"] = json.loads(reply)["seconds"]
            assert reply == encode_response(response)
        assert [json.loads(reply)["kind"] for reply in replies] == [
            "evaluate", "evaluate", "solve", "solve", "evaluate"
        ]

    def test_an_evaluate_hit_never_decodes_its_program(self, monkeypatch):
        program = _program(520, name="undecoded")
        evaluate = evaluate_request(program, cost_model="analytic")
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1),
        )
        calls = []

        def counted(wire):
            calls.append(wire)
            return program_from_wire(wire)

        try:
            _serve_lines(daemon, [_compact_line(1, evaluate)])
            monkeypatch.setattr("repro.service.stream.program_from_wire", counted)
            replies = _serve_lines(daemon, [
                _compact_line(2, evaluate),
                _compact_line(3, evaluate),
                _compact_line(4, {**evaluate, "trace": True}),
            ])
        finally:
            daemon.close()
        assert [json.loads(reply)["from_cache"] for reply in replies] == [True] * 3
        assert daemon.wire_memo_counters["exact_hits"] == 1
        assert calls == []

    def test_fields_are_checked_before_the_cache_answers(self):
        """A weighted evaluate shares its token (``hier=n/a``) with the
        same request carrying a hierarchy, which the weighted model
        cannot honor: a cached answer must not serve the invalid one."""
        program = _program(520)
        valid = evaluate_request(program, cost_model="weighted")
        invalid = {**valid, "hierarchy": {"l1_size": 16384}}
        daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(workers=1),
        )
        try:
            (miss,) = _serve_lines(daemon, [_compact_line(1, valid)])
            replies = [
                json.loads(reply)
                for reply in _serve_lines(daemon, [
                    _compact_line(2, valid),  # dict path; keys the bytes
                    _compact_line(3, valid),
                    _compact_line(4, invalid),
                    _compact_line(5, invalid),
                ])
            ]
        finally:
            daemon.close()
        assert not json.loads(miss)["from_cache"]
        assert [r.get("from_cache") for r in replies[:2]] == [True, True]
        assert daemon.wire_memo_counters["exact_hits"] == 1
        for reply in replies[2:]:
            assert reply["reason"] == BAD_REQUEST
            assert "does not use a cache hierarchy" in reply["error"]


_WORKER_PRELOAD_PROBE = """
import json, sys
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.portfolio import PortfolioConfig


def probe():
    wanted = ("repro.csp.native.ops", "repro.csp.backjumping")
    return [name for name in wanted if name in sys.modules]


daemon = SolverDaemon(
    config=PortfolioConfig(schemes=("enhanced", "cbj")),
    daemon_config=DaemonConfig(workers=1),
)
assert probe() == [], probe()  # the probe is not vacuous
daemon.warm_up()
try:
    print(json.dumps(daemon._pool.submit(probe).result(timeout=60)))
finally:
    daemon.close()
"""


class TestWarmWorkers:
    @pytest.mark.skipif(
        not native_available()
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the native kernel and fork-started workers",
    )
    def test_forked_workers_inherit_the_miss_path_modules(self):
        """``warm_up`` loads the native kernel and the ladder's solver
        modules before the pool forks, so a worker holds them before
        its first solve (a fresh interpreter: no earlier test loaded
        them)."""
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _WORKER_PRELOAD_PROBE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == [
            "repro.csp.native.ops",
            "repro.csp.backjumping",
        ]


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
    def test_daemon_restart_serves_from_its_cache_file(self, tmp_path):
        config = DaemonConfig(workers=1, cache_path=str(tmp_path / "cache.json"))
        program = _program(520)

        first = _DaemonHarness(tmp_path, daemon_config=config)
        try:
            with first.client() as client:
                cold = client.solve(program)
            assert not cold["from_cache"]
        finally:
            first.stop()

        second = _DaemonHarness(tmp_path, daemon_config=config)
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
            daemon_config=DaemonConfig(workers=1),
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
