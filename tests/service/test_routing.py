"""Consistent-hash routing: determinism, rebalance bound, addresses."""

import asyncio
import os
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.routing import (
    HashRing,
    connect_address,
    parse_address,
    reclaim_stale_socket,
)

_MEMBERS = [f"/tmp/cluster/member-{i}.sock" for i in range(5)]


def _keys(count: int) -> list[str]:
    """Deterministic fingerprint-shaped keys."""
    import hashlib

    return [
        hashlib.sha256(f"key-{i}".encode()).hexdigest()[:32]
        for i in range(count)
    ]


class TestHashRing:
    def test_owner_is_a_member(self):
        ring = HashRing(_MEMBERS)
        for key in _keys(50):
            assert ring.owner(key) in ring.members

    @given(
        members=st.lists(
            st.text(
                alphabet="abcdefgh0123456789", min_size=1, max_size=12
            ),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        key=st.text(min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_order_independence(self, members, key):
        """Every permutation of the member list routes identically."""
        forward = HashRing(members)
        backward = HashRing(list(reversed(members)))
        assert forward.owner(key) == backward.owner(key)
        assert forward.preference(key) == backward.preference(key)

    def test_preference_starts_with_owner_and_is_distinct(self):
        ring = HashRing(_MEMBERS)
        for key in _keys(20):
            preferred = ring.preference(key, 3)
            assert preferred[0] == ring.owner(key)
            assert len(preferred) == len(set(preferred)) == 3

    def test_preference_caps_at_member_count(self):
        ring = HashRing(_MEMBERS[:2])
        assert len(ring.preference("abc", 10)) == 2

    def test_rebalance_bound_on_member_add(self):
        """Adding one member moves at most ~2/N of the keys (the
        consistent-hashing contract; a modulo scheme moves ~all)."""
        keys = _keys(2000)
        ring = HashRing(_MEMBERS)
        grown = ring.with_member("/tmp/cluster/member-new.sock")
        moved = sum(
            1 for key in keys if ring.owner(key) != grown.owner(key)
        )
        bound = 2.0 / len(grown.members)
        assert moved / len(keys) <= bound

    def test_rebalance_bound_on_member_remove(self):
        keys = _keys(2000)
        ring = HashRing(_MEMBERS)
        shrunk = ring.without_member(_MEMBERS[2])
        moved = sum(
            1 for key in keys if ring.owner(key) != shrunk.owner(key)
        )
        # Only keys the removed member owned may move.
        owned = sum(1 for key in keys if ring.owner(key) == _MEMBERS[2])
        assert moved == owned
        assert moved / len(keys) <= 2.0 / len(ring.members)

    def test_removed_members_keys_move_to_survivors(self):
        ring = HashRing(_MEMBERS)
        shrunk = ring.without_member(_MEMBERS[0])
        for key in _keys(100):
            assert shrunk.owner(key) != _MEMBERS[0]

    def test_duplicates_collapse(self):
        assert HashRing(["a", "a", "b"]).members == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            HashRing([])
        with pytest.raises(ValueError, match="non-empty"):
            HashRing([""])

    def test_contains_and_len(self):
        ring = HashRing(["a", "b"])
        assert len(ring) == 2
        assert "a" in ring
        assert "c" not in ring

    def test_spread_is_roughly_even(self):
        """128 virtual nodes keep per-member load near 1/N."""
        keys = _keys(5000)
        ring = HashRing(_MEMBERS)
        counts = {member: 0 for member in ring.members}
        for key in keys:
            counts[ring.owner(key)] += 1
        expected = len(keys) / len(ring.members)
        for member, count in counts.items():
            assert 0.4 * expected <= count <= 1.8 * expected, counts


class TestAddresses:
    def test_unix_paths(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")

    def test_tcp(self):
        assert parse_address("localhost:9001") == ("tcp", "localhost", 9001)
        assert parse_address("10.0.0.2:80") == ("tcp", "10.0.0.2", 80)

    def test_path_with_colon_is_unix(self):
        # A separator anywhere wins: sockets may live in odd dirs.
        assert parse_address("/tmp/odd:name/x.sock")[0] == "unix"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_address("")
        with pytest.raises(ValueError, match="not an integer"):
            parse_address("host:port")
        with pytest.raises(ValueError, match="out of range"):
            parse_address("host:70000")


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
        from repro.service.daemon import DaemonConfig, SolverDaemon
        from repro.service.portfolio import PortfolioConfig

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


def test_connect_address_round_trip(tmp_path):
    """connect_address speaks to a listening unix socket."""
    path = str(tmp_path / "echo.sock")
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(1)
    try:
        client = connect_address(path, timeout=5.0)
        client.close()
    finally:
        server.close()


def test_failed_unix_connect_closes_its_socket(tmp_path, monkeypatch):
    """A connect to a missing path raises and leaves no open socket
    behind for the garbage collector."""
    opened = []

    class _Recording(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(socket, "socket", _Recording)
    with pytest.raises(OSError):
        connect_address(str(tmp_path / "missing.sock"), timeout=1.0)
    assert len(opened) == 1
    assert opened[0].fileno() == -1
