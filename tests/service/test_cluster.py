"""Cluster tier: routing front end, failover, cache peering, roll-up."""

import asyncio
import contextlib
import json
import logging
import os
import socket
import threading
import time

import pytest

from repro.ir.parser import parse_program
from repro.obs.metrics import MetricsRegistry
from repro.service.cluster import ClusterConfig, ClusterRouter
from repro.service.daemon import MAX_REQUEST_BYTES, DaemonConfig, SolverDaemon
from repro.service.fingerprint import request_fingerprint
from repro.service.portfolio import PortfolioConfig
from repro.service.routing import HashRing
from repro.service.stream import REQUEST_TOO_LARGE, DaemonClient, solve_request

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


class _FakeMember:
    """A scriptable JSON-lines server impersonating a daemon member.

    The handler maps a decoded request payload to a response dict (the
    id is filled in here).  ``die_after`` closes each connection after
    that many responses -- the transient-failure lever.
    """

    def __init__(self, tmp_path, name: str, handler=None, die_after=None):
        self.path = str(tmp_path / f"{name}.sock")
        self.handler = handler or self._default_handler
        self.die_after = die_after
        self.served: list[dict] = []
        self.connections = 0
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(self.path)
        self._server.listen(8)
        self._closing = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _default_handler(self, payload: dict) -> dict:
        kind = payload.get("kind")
        if kind == "ping":
            return {"ok": True, "kind": "ping", "result": {"member": self.path}}
        if kind == "stats":
            return {
                "ok": True,
                "kind": "stats",
                "result": {
                    "counters": {"requests": len(self.served)},
                    "engines": {},
                    "peer": {"hits": 1},
                    "cache": {"entries": 2, "bytes_on_disk": 10},
                },
            }
        if kind == "metrics" and payload.get("raw"):
            registry = MetricsRegistry()
            registry.counter(
                "repro_test_total", help="per-member test counter"
            ).inc(5)
            return {
                "ok": True,
                "kind": "metrics",
                "result": {"snapshot": registry.snapshot()},
            }
        if kind == "shutdown":
            return {"ok": True, "kind": "shutdown"}
        return {
            "ok": True,
            "kind": kind,
            "from_cache": False,
            "result": {"member": self.path, "kind": kind},
        }

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                connection, _ = self._server.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(connection,), daemon=True
            ).start()

    def _serve(self, connection) -> None:
        answered = 0
        reader = connection.makefile("rb")
        try:
            for line in reader:
                if self._closing:
                    # close() must kill live connections too, or a
                    # "dead" member would keep answering its old ones.
                    break
                if not line.strip():
                    continue
                payload = json.loads(line)
                self.served.append(payload)
                response = self.handler(payload)
                response["id"] = payload.get("id")
                connection.sendall(
                    (json.dumps(response) + "\n").encode("utf-8")
                )
                answered += 1
                if self.die_after is not None and answered >= self.die_after:
                    break
        except (OSError, ValueError):
            pass
        finally:
            reader.close()
            connection.close()

    def close(self) -> None:
        self._closing = True
        self._server.close()
        with contextlib.suppress(OSError):
            os.unlink(self.path)


def _run_router(router: ClusterRouter, address: str) -> threading.Thread:
    thread = threading.Thread(
        target=lambda: asyncio.run(router.serve_address(address)),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 30.0
    while not os.path.exists(address):
        if time.monotonic() > deadline:  # pragma: no cover
            raise TimeoutError("router socket never appeared")
        time.sleep(0.02)
    return thread


class TestRouterWithFakeMembers:
    def test_requests_route_to_the_ring_owner(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(3)]
        addresses = tuple(m.path for m in members)
        router = ClusterRouter(ClusterConfig(members=addresses))
        router_sock = str(tmp_path / "router.sock")
        thread = _run_router(router, router_sock)
        try:
            ring = HashRing(addresses)
            with DaemonClient(router_sock) as client:
                program = _program(260)
                fingerprint = request_fingerprint(program, client._options)
                response = client.request(solve_request(program))
                assert response["ok"]
                owner = ring.owner(fingerprint)
                owner_member = next(m for m in members if m.path == owner)
                assert any(
                    p.get("kind") == "solve" for p in owner_member.served
                )
                with DaemonClient(router_sock) as shut:
                    shut.shutdown()
        finally:
            thread.join(timeout=15)
            for member in members:
                member.close()
        assert router.counters["route_hits"] >= 1
        assert router.counters["errors"] == 0

    def test_failover_to_replica_when_owner_is_down(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(3)]
        addresses = tuple(m.path for m in members)
        ring = HashRing(addresses)
        program = _program(260)
        router = ClusterRouter(
            ClusterConfig(
                members=addresses,
                replicas=2,
                retries=1,
                backoff_seconds=0.0,
                request_timeout=10.0,
            )
        )
        router_sock = str(tmp_path / "router.sock")
        thread = _run_router(router, router_sock)
        try:
            with DaemonClient(router_sock) as client:
                fingerprint = request_fingerprint(program, client._options)
                owner = ring.owner(fingerprint)
                replica = ring.preference(fingerprint, 2)[1]
                # Kill the owner before the request ever lands.
                next(m for m in members if m.path == owner).close()
                response = client.request(solve_request(program))
                assert response["ok"]
                replica_member = next(
                    m for m in members if m.path == replica
                )
                assert any(
                    p.get("kind") == "solve" for p in replica_member.served
                )
                client.shutdown()
        finally:
            thread.join(timeout=15)
            for member in members:
                member.close()
        assert router.counters["failovers"] >= 1
        assert router.counters["member_down"] >= 1
        assert router.counters["errors"] == 0

    def test_stats_roll_up_sums_members(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(2)]
        addresses = tuple(m.path for m in members)
        router = ClusterRouter(ClusterConfig(members=addresses))
        router_sock = str(tmp_path / "router.sock")
        thread = _run_router(router, router_sock)
        try:
            with DaemonClient(router_sock) as client:
                stats = client.stats()
                client.shutdown()
        finally:
            thread.join(timeout=15)
            for member in members:
                member.close()
        assert set(stats["members"]) == set(addresses)
        assert stats["aggregate"]["peer"]["hits"] == 2  # 1 per member
        assert stats["aggregate"]["cache"]["entries"] == 4
        assert stats["aggregate"]["cache"]["bytes_on_disk"] == 20
        assert stats["router"]["counters"]["requests"] >= 1

    def test_metrics_roll_up_merges_member_snapshots(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(3)]
        addresses = tuple(m.path for m in members)
        router = ClusterRouter(ClusterConfig(members=addresses))
        router_sock = str(tmp_path / "router.sock")
        thread = _run_router(router, router_sock)
        try:
            with DaemonClient(router_sock) as client:
                text = client.metrics()
                client.shutdown()
        finally:
            thread.join(timeout=15)
            for member in members:
                member.close()
        # 3 members x 5 -- merge_snapshot sums, it never overwrites.
        assert "repro_test_total 15" in text
        assert "repro_cluster_members 3" in text
        assert "repro_cluster_members_reachable 3" in text
        assert "repro_cluster_router_total" in text

    def test_router_ping_identifies_itself(self, tmp_path):
        members = [_FakeMember(tmp_path, "m0")]
        router = ClusterRouter(
            ClusterConfig(members=(members[0].path,), replicas=1)
        )
        router_sock = str(tmp_path / "router.sock")
        thread = _run_router(router, router_sock)
        try:
            with DaemonClient(router_sock) as client:
                hello = client.ping()
                client.shutdown()
        finally:
            thread.join(timeout=15)
            members[0].close()
        assert hello["result"]["role"] == "router"
        assert hello["result"]["members"] == [members[0].path]


class TestRouterFraming:
    def test_oversized_and_undecodable_lines_are_answered(
        self, tmp_path, caplog
    ):
        caplog.set_level(logging.WARNING)
        members = [_FakeMember(tmp_path, "m0")]
        router = ClusterRouter(
            ClusterConfig(members=(members[0].path,), replicas=1)
        )
        router_sock = str(tmp_path / "router.sock")
        thread = _run_router(router, router_sock)
        oversized = {"id": 7, "kind": "ping", "pad": "x" * MAX_REQUEST_BYTES}
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(30.0)
                sock.connect(router_sock)
                sock.sendall(json.dumps({"id": 41, "kind": "solv"}).encode())
                sock.sendall(b"\n" + json.dumps(oversized).encode() + b"\n")
                with sock.makefile("rb") as reader:
                    # Replies stream in completion order, not line order.
                    replies = [json.loads(reader.readline()) for _ in range(2)]
                    assert reader.readline() == b""  # closed cleanly
            with DaemonClient(router_sock) as client:
                assert client.ping()["ok"]  # still serving
                client.shutdown()
        finally:
            thread.join(timeout=15)
            members[0].close()
        too_large, undecodable = sorted(replies, key=lambda r: "reason" not in r)
        assert undecodable["id"] == 41
        assert undecodable["ok"] is False
        assert "unknown request kind" in undecodable["error"]
        assert too_large["id"] is None
        assert too_large["ok"] is False
        assert too_large["reason"] == REQUEST_TOO_LARGE
        assert str(MAX_REQUEST_BYTES) in too_large["error"]
        assert router.counters["errors"] == 2
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestClientSideRouting:
    def test_multi_address_client_picks_the_owner(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(3)]
        addresses = [m.path for m in members]
        program = _program(260)
        with DaemonClient(addresses) as client:
            fingerprint = request_fingerprint(program, client._options)
            owner = HashRing(addresses).owner(fingerprint)
            response = client.request(solve_request(program))
            assert response["ok"]
        owner_member = next(m for m in members if m.path == owner)
        assert any(p.get("kind") == "solve" for p in owner_member.served)
        for member in members:
            member.close()

    def test_client_fails_over_through_the_ring(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(3)]
        addresses = [m.path for m in members]
        program = _program(260)
        with DaemonClient(addresses) as client:
            fingerprint = request_fingerprint(program, client._options)
            owner = HashRing(addresses).owner(fingerprint)
            next(m for m in members if m.path == owner).close()
            response = client.request(solve_request(program))
            assert response["ok"]
            served_by = response["result"]["member"]
            assert served_by != owner
            assert served_by in addresses
        for member in members:
            member.close()

    def test_control_requests_go_to_the_primary(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(2)]
        addresses = [m.path for m in members]
        with DaemonClient(addresses) as client:
            assert client.ping()["ok"]
        assert any(p.get("kind") == "ping" for p in members[0].served)
        assert not members[1].served
        for member in members:
            member.close()

    def test_request_member_targets_exactly_one(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(2)]
        addresses = [m.path for m in members]
        with DaemonClient(addresses) as client:
            response = client.request_member(addresses[1], {"kind": "ping"})
            assert response["ok"]
            with pytest.raises(ValueError, match="not a configured member"):
                client.request_member("/nope.sock", {"kind": "ping"})
        assert any(p.get("kind") == "ping" for p in members[1].served)
        for member in members:
            member.close()


class TestClientTransientErrorHardening:
    def test_reconnect_and_resend_mid_batch(self, tmp_path):
        """The daemon dies after the first response of a pipelined
        batch; the client reconnects and resends the remainder."""
        member = _FakeMember(tmp_path, "flaky", die_after=1)
        with DaemonClient(member.path) as client:
            responses = client.request_many(
                [{"kind": "ping"}, {"kind": "ping"}, {"kind": "ping"}]
            )
        assert all(r["ok"] for r in responses)
        assert member.connections >= 2  # at least one reconnect happened
        member.close()

    def test_retry_disabled_raises_to_the_caller(self, tmp_path):
        member = _FakeMember(tmp_path, "flaky", die_after=1)
        with DaemonClient(member.path, retry=False) as client:
            with pytest.raises(ConnectionError):
                client.request_many(
                    [{"kind": "ping"}, {"kind": "ping"}, {"kind": "ping"}]
                )
        member.close()

    def test_dead_daemon_still_raises(self, tmp_path):
        member = _FakeMember(tmp_path, "gone")
        client = DaemonClient(member.path)
        member.close()
        with pytest.raises(ConnectionError):
            client.request_many([{"kind": "ping"}, {"kind": "ping"}])
        client.close()


class _MemberHarness:
    """A real clustered SolverDaemon in a background thread."""

    def __init__(self, address: str, peers):
        self.address = address
        self.daemon = SolverDaemon(
            config=_fast_config(),
            daemon_config=DaemonConfig(
                workers=1,
                shards=2,
                peers=tuple(peers),
                self_address=address,
                peer_timeout=10.0,
            ),
        )
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.serve_unix(self.address)),
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.address):
            if time.monotonic() > deadline:  # pragma: no cover
                raise TimeoutError("member socket never appeared")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.thread.is_alive():
            try:
                with DaemonClient(self.address, timeout=30.0) as client:
                    client.shutdown()
            except OSError:  # pragma: no cover - already gone
                pass
        self.thread.join(timeout=30)


@pytest.fixture
def member_pair(tmp_path):
    addresses = [str(tmp_path / "a.sock"), str(tmp_path / "b.sock")]
    members = [_MemberHarness(address, addresses) for address in addresses]
    try:
        yield addresses, members
    finally:
        for member in members:
            member.stop()


class TestCachePeering:
    def _owner_and_other(self, addresses, program):
        ring = HashRing(addresses)
        fingerprint = request_fingerprint(program, None)
        owner = ring.owner(fingerprint)
        other = next(a for a in addresses if a != owner)
        return fingerprint, owner, other

    def test_non_owner_serves_from_the_owners_cache(self, member_pair):
        addresses, members = member_pair
        program = _program(260)
        fingerprint, owner, other = self._owner_and_other(
            addresses, program
        )
        # Warm the owner the way the router would: solve it there.
        with DaemonClient(owner, timeout=120.0) as client:
            first = client.solve(program)
        assert first["ok"] and not first["from_cache"]
        # The *other* member now serves the same request via one
        # cache_lookup hop to the owner -- without solving.
        with DaemonClient(other, timeout=120.0) as client:
            second = client.solve(program)
        assert second["ok"]
        assert second["from_cache"]
        assert second["peer"] == owner
        assert second["result"] == first["result"]
        owner_daemon = next(
            m.daemon for m in members if m.address == owner
        )
        other_daemon = next(
            m.daemon for m in members if m.address == other
        )
        assert other_daemon.peer_counters["hits"] == 1
        assert owner_daemon.peer_counters["lookups_served"] == 1
        # The entry still lives exactly once: the peer hit was served,
        # not copied.
        assert len(other_daemon.cache) == 0

    def test_peer_miss_falls_back_to_local_solve(self, member_pair):
        addresses, members = member_pair
        program = _program(520)
        fingerprint, owner, other = self._owner_and_other(
            addresses, program
        )
        with DaemonClient(other, timeout=120.0) as client:
            response = client.solve(program)
        assert response["ok"] and not response["from_cache"]
        other_daemon = next(
            m.daemon for m in members if m.address == other
        )
        assert other_daemon.peer_counters["misses"] == 1

    def test_cache_lookup_kind_answers_local_only(self, member_pair):
        addresses, members = member_pair
        with DaemonClient(addresses[0], timeout=30.0) as client:
            probe = client.cache_lookup("0" * 32, "no-such-token")
        assert probe["hit"] is False
        daemon = members[0].daemon
        # An inbound lookup never triggers an outbound one: one hop.
        assert daemon.peer_counters["lookups_served"] == 1
        assert daemon.peer_counters["hits"] == 0
        assert daemon.peer_counters["misses"] == 0

    def test_owner_fingerprints_skip_the_peer_hop(self, member_pair):
        addresses, members = member_pair
        program = _program(260)
        fingerprint, owner, other = self._owner_and_other(
            addresses, program
        )
        with DaemonClient(owner, timeout=120.0) as client:
            response = client.solve(program)
        assert response["ok"]
        owner_daemon = next(
            m.daemon for m in members if m.address == owner
        )
        assert owner_daemon.peer_counters["hits"] == 0
        assert owner_daemon.peer_counters["misses"] == 0

    def test_stats_surface_peer_and_cluster_sections(self, member_pair):
        addresses, members = member_pair
        with DaemonClient(addresses[0], timeout=30.0) as client:
            stats = client.stats()
            hello = client.ping()
        assert stats["peer"] == {
            "hits": 0,
            "misses": 0,
            "errors": 0,
            "lookups_served": 0,
        }
        assert stats["cluster"]["self"] == addresses[0]
        assert sorted(stats["cluster"]["members"]) == sorted(addresses)
        assert "bytes_on_disk" in stats["cache"]
        assert hello["result"]["cluster"]["self"] == addresses[0]


class TestClusterConfigValidation:
    def test_members_required(self):
        with pytest.raises(ValueError, match="at least one member"):
            ClusterConfig(members=())

    def test_positive_knobs(self):
        with pytest.raises(ValueError, match="replicas"):
            ClusterConfig(members=("a",), replicas=0)
        with pytest.raises(ValueError, match="retries"):
            ClusterConfig(members=("a",), retries=-1)

    def test_daemon_cluster_fields(self):
        with pytest.raises(ValueError, match="self_address"):
            DaemonConfig(peers=("a", "b"))
        with pytest.raises(ValueError, match="missing from peers"):
            DaemonConfig(peers=("a", "b"), self_address="c")
