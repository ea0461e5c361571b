"""Consistent-hash routing of request fingerprints to daemons.

A :class:`~repro.service.stream.DaemonClient` given several daemon
addresses (daemons on other hosts) routes every solve/evaluate request
by its canonical fingerprint, so each fingerprint's result-cache entry
and network memo live on exactly one daemon.  The routing primitive
is the classic consistent-hash ring:

* every member contributes ``virtual_nodes`` points on a 64-bit ring
  (SHA-256 of ``"{member}#{index}"``), so load spreads evenly and
  adding or removing one member only moves the keys that member owns
  (about ``1/N`` of them) -- warm caches on the surviving members stay
  warm;
* a fingerprint maps to the first member point at or after its own
  hash (wrapping), and :meth:`HashRing.preference` continues around
  the ring to name the failover replicas, so every client computes the
  *same* owner and the same fallback order from nothing but the
  member list.

Determinism is the contract: the ring sorts its member list, so two
processes configured with the same members in any order route every
fingerprint identically (``tests/service/test_routing.py`` pins this
with a hypothesis property, plus the <= 2/N rebalance bound).

Member addresses are strings: a unix-socket path (anything with a
``/``, or no ``:``) or a TCP ``host:port``.  :func:`parse_address`
and :func:`connect_address` give the daemon and its clients one
address vocabulary.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import socket
import stat
from bisect import bisect_right

__all__ = [
    "DEFAULT_VIRTUAL_NODES",
    "HashRing",
    "connect_address",
    "parse_address",
    "reclaim_stale_socket",
]

#: Ring points per member.  High enough that each member's share of a
#: uniform key population concentrates tightly around 1/N (the
#: rebalance property test relies on this), low enough that ring
#: construction stays microseconds.
DEFAULT_VIRTUAL_NODES = 128


def _point(token: str) -> int:
    """A 64-bit ring position for a token (member#index or a key)."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring over daemon addresses.

    Args:
        members: member address strings; order and duplicates are
            irrelevant (the ring canonicalizes), so every client builds
            an identical ring from its own config.
        virtual_nodes: ring points per member.

    The ring is immutable; membership changes build a new ring (they
    are rare -- a config change -- while lookups are per-request).
    """

    def __init__(self, members, virtual_nodes: int = DEFAULT_VIRTUAL_NODES):
        canonical = tuple(sorted(set(members)))
        if not canonical:
            raise ValueError("hash ring needs at least one member")
        if any(not member for member in canonical):
            raise ValueError("member addresses must be non-empty strings")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be positive")
        self._members = canonical
        self._virtual_nodes = virtual_nodes
        points = sorted(
            (_point(f"{member}#{index}"), member)
            for member in canonical
            for index in range(virtual_nodes)
        )
        self._points = points
        self._hashes = [position for position, _ in points]

    @property
    def members(self) -> tuple[str, ...]:
        """Canonical (sorted) member list."""
        return self._members

    @property
    def virtual_nodes(self) -> int:
        return self._virtual_nodes

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in set(self._members)

    def owner(self, key: str) -> str:
        """The member owning a fingerprint (first point clockwise)."""
        # "key:" namespaces key hashes away from member-point tokens.
        index = bisect_right(self._hashes, _point(f"key:{key}"))
        return self._points[index % len(self._points)][1]

    def preference(self, key: str, count: int | None = None) -> list[str]:
        """Owner plus failover replicas, in deterministic ring order.

        Walks clockwise from the key's position collecting *distinct*
        members; the first entry is :meth:`owner`, the rest are the
        replicas to fail over to, in the order every other process
        would pick them too.
        """
        want = len(self._members) if count is None else max(1, count)
        want = min(want, len(self._members))
        start = bisect_right(self._hashes, _point(f"key:{key}"))
        chosen: list[str] = []
        seen: set[str] = set()
        total = len(self._points)
        for step in range(total):
            member = self._points[(start + step) % total][1]
            if member not in seen:
                seen.add(member)
                chosen.append(member)
                if len(chosen) == want:
                    break
        return chosen

    def with_member(self, member: str) -> "HashRing":
        """A new ring with one member added."""
        return HashRing(self._members + (member,), self._virtual_nodes)

    def without_member(self, member: str) -> "HashRing":
        """A new ring with one member removed."""
        remaining = tuple(m for m in self._members if m != member)
        return HashRing(remaining, self._virtual_nodes)


# -- member addresses ----------------------------------------------------


def parse_address(address: str):
    """Classify a member address.

    Returns:
        ``("unix", path)`` for unix-socket paths (anything containing
        a path separator, or without a colon), or ``("tcp", host,
        port)`` for ``host:port`` strings.

    Raises:
        ValueError: for empty addresses or non-numeric TCP ports.
    """
    if not address:
        raise ValueError("empty member address")
    if os.sep in address or ":" not in address:
        return ("unix", address)
    host, _, port_text = address.rpartition(":")
    if not host:
        raise ValueError(f"malformed TCP address {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"malformed TCP address {address!r}: port {port_text!r} "
            "is not an integer"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(f"TCP port out of range in {address!r}")
    return ("tcp", host, port)


def connect_address(address: str, timeout: float | None = None) -> socket.socket:
    """Open a blocking client socket to a member address."""
    parsed = parse_address(address)
    if parsed[0] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(parsed[1])
        return sock
    sock = socket.create_connection((parsed[1], parsed[2]), timeout=timeout)
    sock.settimeout(timeout)
    return sock


def reclaim_stale_socket(path: str) -> None:
    """Remove a unix socket file only if no live daemon holds it.

    A daemon killed with SIGKILL leaves its socket file behind; a
    blind ``unlink`` on startup would also happily sever a *running*
    daemon from its clients.  Probe first: if something accepts a
    connection on the path the socket is live and binding must fail;
    if the connection is refused the file is stale and safe to remove.
    Non-socket files are never touched.

    Raises:
        OSError: when a live daemon already serves the path, or the
            path exists but is not a socket.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise OSError(
            f"refusing to reclaim {path}: exists but is not a socket"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, socket.timeout, TimeoutError):
        # Nothing is accepting: a stale file from an abnormal shutdown.
        with contextlib.suppress(OSError):
            os.unlink(path)
    except FileNotFoundError:
        pass  # raced with another reclaimer; the bind will tell
    else:
        raise OSError(
            f"socket {path} is held by a live daemon; "
            "refusing to unlink it"
        )
    finally:
        probe.close()
