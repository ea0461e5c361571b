"""The echo server of the daemon workloads' reference (see
:mod:`perfbench.reference`): ``python3 perfbench/echo.py SOCKET``.

Answers each JSON line on a unix socket the way a daemon answers a
cache hit, without the program: decode the line, re-encode it
canonically and hash that (``ROUNDS`` times, about a daemon hit's CPU
work on a 2-core host), then send a short JSON answer.  Exits when its
standard input closes, so it never outlives the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import selectors
import socket
import sys

ROUNDS = 3


def serve(path: str) -> None:
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(4)
    selector = selectors.DefaultSelector()
    selector.register(server, selectors.EVENT_READ)
    selector.register(sys.stdin, selectors.EVENT_READ)
    buffers: dict[socket.socket, bytearray] = {}
    print("ready", flush=True)
    while True:
        for key, _ in selector.select():
            conn = key.fileobj
            if conn is sys.stdin:
                return
            if conn is server:
                client, _ = server.accept()
                selector.register(client, selectors.EVENT_READ)
                buffers[client] = bytearray()
                continue
            try:
                answer(conn, buffers[conn])
            except OSError:  # the client went away
                selector.unregister(conn)
                conn.close()
                del buffers[conn]


def answer(conn: socket.socket, buffer: bytearray) -> None:
    """Read what arrived on ``conn`` and answer each complete line."""
    data = conn.recv(1 << 20)
    if not data:
        raise ConnectionResetError("client closed")
    buffer += data
    while (end := buffer.find(b"\n")) >= 0:
        for _ in range(ROUNDS):
            request = json.loads(buffer[:end])
            canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode()).hexdigest()
        del buffer[: end + 1]
        reply = {"id": request["id"], "ok": True, "digest": digest}
        conn.sendall(json.dumps(reply).encode() + b"\n")


if __name__ == "__main__":
    serve(sys.argv[1])
