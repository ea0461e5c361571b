"""JSON-lines wire protocol of the resident solver daemon.

One request per line, one response per line, both UTF-8 JSON objects.
Responses stream back as work completes, so they may arrive out of
request order; the ``id`` field (echoed verbatim) matches them up.

Request kinds::

    {"id": 1, "kind": "solve", "program": {...}}
    {"id": 2, "kind": "evaluate", "program": {...}, "cost_model": "analytic",
     "hierarchy": {"l1_size": 16384}, "sim_cap": 50000, "layouts": {...}}
    {"id": 3, "kind": "ping"}
    {"id": 4, "kind": "stats"}
    {"id": 5, "kind": "metrics"}
    {"id": 6, "kind": "shutdown"}

A solve/evaluate request may add ``"trace": true`` to get the served
request's span tree back in ``response["trace"]``; the ``metrics``
kind answers with the daemon's Prometheus text exposition in
``result.text``.

Responses::

    {"id": 1, "ok": true, "kind": "solve", "from_cache": false,
     "seconds": 0.41, "result": {...PortfolioResult.to_dict()...}}
    {"id": 6, "ok": false, "error": "unknown request kind 'solv'",
     "reason": "bad_request"}
    {"id": null, "ok": false, "error": "...", "reason": "request_too_large"}

Every error reply carries a ``reason``: ``bad_request`` for a line
that does not decode or a request that fails validation, ``internal``
for a request the daemon failed to serve, and ``request_too_large``
for a request line longer than the daemon's line limit.  After the
last one the daemon closes the connection, since it cannot tell
where the rest of that line ends.

The program wire form round-trips :class:`repro.ir.program.Program`
exactly (name, array declarations, loop nests with affine subscripts),
so any JSON-speaking client can submit programs the daemon has never
seen -- the service is not limited to the named paper benchmarks.

:class:`DaemonClient` is the synchronous client used by the batch CLI
(``--connect``), the benchmarks, and the CI smoke script.  It talks
to one daemon over its unix socket, and it pipelines:
``request_many`` writes every request line before reading the first
response, which is what makes the warm daemon path a throughput
measurement instead of a ping-pong latency one.
"""

from __future__ import annotations

import json
import socket
from typing import Iterable, Mapping, Sequence

from repro.ir.arrays import ArrayDecl
from repro.ir.expr import AffineExpr
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.reference import AccessKind, ArrayRef
from repro.layout.layout import Layout


#: ``reason`` of the reply to a request line over the daemon's limit.
REQUEST_TOO_LARGE = "request_too_large"
#: ``reason`` of the reply to an undecodable or invalid request.
BAD_REQUEST = "bad_request"
#: ``reason`` of the reply to a request the daemon failed to serve.
INTERNAL = "internal"
#: Every ``reason`` an error reply can carry.
ERROR_REASONS = (BAD_REQUEST, INTERNAL, REQUEST_TOO_LARGE)


class ProtocolError(ValueError):
    """A malformed request or response line."""


# -- program wire form ---------------------------------------------------


def _expr_to_wire(expr: AffineExpr) -> list:
    return [[[name, coeff] for name, coeff in expr.coeffs], expr.const]


def _expr_from_wire(data) -> AffineExpr:
    coeffs, const = data
    return AffineExpr.from_mapping(
        {name: int(coeff) for name, coeff in coeffs}, int(const)
    )


def program_to_wire(program: Program) -> dict:
    """JSON-encodable form of a program (exact round trip)."""
    return {
        "name": program.name,
        "arrays": [
            [decl.name, list(decl.extents), decl.element_type]
            for decl in program.arrays
        ],
        "nests": [
            {
                "name": nest.name,
                "weight": nest.weight,
                "loops": [
                    [loop.index, loop.lower, loop.upper] for loop in nest.loops
                ],
                "body": [
                    [
                        ref.array,
                        [_expr_to_wire(subscript) for subscript in ref.subscripts],
                        ref.kind.value,
                    ]
                    for ref in nest.body
                ],
            }
            for nest in program.nests
        ],
    }


def program_from_wire(data: Mapping) -> Program:
    """Rebuild a program from its wire form.

    Raises:
        ProtocolError: for structurally invalid data (the IR layer's
            own validation errors are re-raised as protocol errors so
            the daemon answers with an error line instead of dying).
    """
    try:
        arrays = tuple(
            ArrayDecl(name, tuple(int(e) for e in extents), element_type)
            for name, extents, element_type in data["arrays"]
        )
        nests = tuple(
            LoopNest(
                name=nest["name"],
                loops=tuple(
                    Loop(index, int(lower), int(upper))
                    for index, lower, upper in nest["loops"]
                ),
                body=tuple(
                    ArrayRef(
                        array,
                        tuple(_expr_from_wire(s) for s in subscripts),
                        AccessKind(kind),
                    )
                    for array, subscripts, kind in nest["body"]
                ),
                weight=int(nest.get("weight", 1)),
            )
            for nest in data["nests"]
        )
        return Program(data["name"], arrays, nests)
    except (
        KeyError,
        TypeError,
        ValueError,
        # ``int()`` of an infinite float: JSON allows ``Infinity`` in
        # an extent, bound, coefficient or weight.
        OverflowError,
        # A name that is not a string (the IR calls ``isidentifier``).
        AttributeError,
    ) as exc:
        raise ProtocolError(f"malformed program payload: {exc}") from exc


def layouts_to_wire(layouts: Mapping[str, Layout]) -> dict:
    """JSON-encodable form of a layout assignment."""
    return {
        name: {"dimension": layout.dimension, "rows": [list(r) for r in layout.rows]}
        for name, layout in layouts.items()
    }


def layouts_from_wire(data: Mapping) -> dict[str, Layout]:
    """Rebuild a layout assignment from its wire form."""
    try:
        return {
            name: Layout(entry["dimension"], [tuple(r) for r in entry["rows"]])
            for name, entry in data.items()
        }
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed layouts payload: {exc}") from exc


# -- request/response lines ----------------------------------------------

#: Request kinds the daemon understands.
REQUEST_KINDS = (
    "solve",
    "evaluate",
    "ping",
    "stats",
    "metrics",
    "shutdown",
)


def decode_request(line: str | bytes) -> dict:
    """Parse one request line.

    Raises:
        ProtocolError: for non-JSON lines, non-object payloads, or an
            unknown/missing ``kind``.
    """
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    kind = payload.get("kind")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; know {list(REQUEST_KINDS)}"
        )
    if kind in ("solve", "evaluate") and not isinstance(
        payload.get("program"), dict
    ):
        raise ProtocolError(f"{kind} request needs a 'program' object")
    return payload


def best_effort_id(line: str | bytes):
    """Recover a request id from an invalid line, when possible."""
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(payload, dict):
        return payload.get("id")
    return None


def encode_response(response: Mapping) -> bytes:
    """One response line, newline-terminated, ready for the socket."""
    return (json.dumps(response, separators=(",", ":")) + "\n").encode("utf-8")


def error_response(request_id, message: str, reason: str | None = None) -> dict:
    """The error line for a failed or unparseable request."""
    response = {"id": request_id, "ok": False, "error": message}
    if reason is not None:
        response["reason"] = reason
    return response


def solve_request(program: Program, request_id=None, trace: bool = False) -> dict:
    """Build a solve request line payload.

    ``trace=True`` asks the daemon to attach the request's span tree
    to the response (``response["trace"]``).
    """
    payload = {"id": request_id, "kind": "solve", "program": program_to_wire(program)}
    if trace:
        payload["trace"] = True
    return payload


def evaluate_request(
    program: Program,
    cost_model: str = "simulated",
    hierarchy: Mapping[str, int] | None = None,
    layouts: Mapping[str, Layout] | None = None,
    sim_cap: int | None = None,
    request_id=None,
    trace: bool = False,
) -> dict:
    """Build an evaluate request line payload.

    ``hierarchy`` is a field-override mapping (the wire form of the
    CLI's ``--hierarchy l1_size=16384,...``), not a full config.
    ``trace=True`` asks for the request's span tree in the response.
    """
    payload = {
        "id": request_id,
        "kind": "evaluate",
        "program": program_to_wire(program),
        "cost_model": cost_model,
    }
    if hierarchy is not None:
        payload["hierarchy"] = dict(hierarchy)
    if layouts is not None:
        payload["layouts"] = layouts_to_wire(layouts)
    if sim_cap is not None:
        payload["sim_cap"] = sim_cap
    if trace:
        payload["trace"] = True
    return payload


# -- synchronous client --------------------------------------------------


def connect_unix(path: str, timeout: float | None = None) -> socket.socket:
    """Open a blocking client socket to a daemon's unix socket.

    The socket is closed again when ``connect()`` fails, so a dead
    daemon leaks no file descriptor.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(path)
    except BaseException:
        sock.close()
        raise
    return sock


class DaemonClient:
    """Blocking JSON-lines client for one daemon.

    Args:
        socket_path: the daemon's unix socket.
        timeout: per-read socket timeout in seconds (None blocks
            forever; solves can legitimately take a while, so the
            default is generous).

    The client holds one connection, opened by the constructor so a
    client to a dead daemon raises immediately.  It assigns request
    ids automatically when the caller did not, and matches
    out-of-order responses back to request order.  On a transient
    connection error mid-pipeline (``ConnectionResetError``,
    ``BrokenPipeError``, a timeout) it reconnects and resends the
    outstanding requests instead of raising to the caller.  Use as a
    context manager to close the connection deterministically.
    """

    def __init__(self, socket_path: str, timeout: float | None = 600.0):
        self._socket_path = socket_path
        self._timeout = timeout
        # (socket, buffered reader), or None between a dropped
        # connection and the next request.
        self._open: tuple | None = None
        self._next_id = 0
        self._connection()

    def _connection(self) -> tuple:
        if self._open is None:
            sock = connect_unix(self._socket_path, timeout=self._timeout)
            self._open = (sock, sock.makefile("rb"))
        return self._open

    def _drop_connection(self) -> None:
        if self._open is not None:
            sock, reader = self._open
            self._open = None
            for stream_end in (reader, sock):
                try:
                    stream_end.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @staticmethod
    def _read_response(reader) -> dict:
        line = reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"daemon sent invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("daemon response must be a JSON object")
        return payload

    def request(self, payload: Mapping) -> dict:
        """Send one request and wait for its response."""
        return self.request_many([payload])[0]

    def request_many(self, payloads: Sequence[Mapping]) -> list[dict]:
        """Pipeline a batch: write every line, then collect responses.

        Responses are returned in *request* order regardless of the
        order the daemon finished them in.  Auto-assigned ids skip any
        caller-supplied ones, and duplicate caller ids are rejected --
        ids are the only way responses pair back to requests.

        Raises:
            ProtocolError: when two payloads share a request id.
        """
        used = {
            payload.get("id")
            for payload in payloads
            if payload.get("id") is not None
        }
        prepared: list[dict] = []
        for payload in payloads:
            request_id = payload.get("id")
            if request_id is None:
                request_id = self._take_id()
                while request_id in used:
                    request_id = self._take_id()
                used.add(request_id)
            # The id leads every line (and replaces a caller's null):
            # the daemon answers a repeat solve from the bytes after it.
            prepared.append({"id": request_id, **payload, "id": request_id})
        ids = [payload["id"] for payload in prepared]
        if len(set(ids)) != len(ids):
            duplicates = sorted(
                {str(i) for i in ids if ids.count(i) > 1}
            )
            raise ProtocolError(
                f"duplicate request ids in batch: {', '.join(duplicates)}"
            )
        by_id = self._deliver(prepared)
        return [by_id[request_id] for request_id in ids]

    def _deliver(self, payloads: Sequence[Mapping]) -> dict:
        """Pipeline payloads to the daemon, reconnecting on a reset.

        Responses collected before a connection error are kept and
        only the outstanding remainder is resent; resends are safe
        because every request kind is idempotent (solves are cached
        and deduplicated on the daemon).

        Raises:
            ProtocolError: when the daemon refuses a request line as
                too large (never retried).
            ConnectionError: when a reconnect-and-resend yields no
                response twice in a row.
        """
        outstanding = {payload["id"]: payload for payload in payloads}
        collected: dict = {}
        # One *blind* retry: an attempt that collected responses
        # before dying proves the daemon is serving (it was
        # restarted, or the socket reset mid-batch), so reconnecting
        # again is progress, not spinning -- only attempts that yield
        # nothing consume the retry budget.
        blind_retries = 1
        while outstanding:
            before = len(collected)
            try:
                sock, reader = self._connection()
                sock.sendall(
                    b"".join(encode_response(p) for p in outstanding.values())
                )
                while outstanding:
                    response = self._read_response(reader)
                    if response.get("reason") == REQUEST_TOO_LARGE:
                        # The daemon closes after this reply, and a
                        # resend would be refused again: terminal.
                        self._drop_connection()
                        raise ProtocolError(response.get("error"))
                    response_id = response.get("id")
                    if response_id in outstanding:
                        del outstanding[response_id]
                        collected[response_id] = response
                    # responses for ids we never sent (stale
                    # pipeline) are dropped
            except (ConnectionError, OSError) as exc:
                # Covers ConnectionResetError, BrokenPipeError,
                # socket.timeout and refused reconnects alike.
                self._drop_connection()
                if len(collected) == before:
                    if blind_retries == 0:
                        raise ConnectionError(
                            f"daemon at {self._socket_path} did not answer "
                            f"{len(outstanding)} outstanding request(s): {exc}"
                        ) from exc
                    blind_retries -= 1
        return collected

    # -- convenience wrappers -------------------------------------------

    def ping(self) -> dict:
        """Round-trip liveness check; returns the daemon's hello."""
        return self.request({"kind": "ping"})

    def stats(self) -> dict:
        """The daemon's serving/cache statistics snapshot."""
        response = self.request({"kind": "stats"})
        if not response.get("ok"):
            raise ProtocolError(response.get("error", "stats request failed"))
        return response["result"]

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition (scrape body)."""
        response = self.request({"kind": "metrics"})
        if not response.get("ok"):
            raise ProtocolError(response.get("error", "metrics request failed"))
        return response["result"]["text"]

    def shutdown(self) -> dict:
        """Ask the daemon to stop serving (it answers first)."""
        return self.request({"kind": "shutdown"})

    def solve(self, program: Program, trace: bool = False) -> dict:
        """Solve one program; returns the full response line."""
        return self.request(solve_request(program, trace=trace))

    def solve_many(self, programs: Iterable[Program]) -> list[dict]:
        """Pipeline a batch of solve requests (responses in order)."""
        return self.request_many([solve_request(p) for p in programs])
