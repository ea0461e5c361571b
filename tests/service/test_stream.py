"""Wire-protocol round trips, request-line validation and the client."""

import contextlib
import json
import os
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build_benchmark
from repro.ir.parser import parse_program
from repro.ir.program import Program
from repro.layout.layout import column_major, row_major
from repro.service.stream import (
    DaemonClient,
    ProtocolError,
    connect_unix,
    decode_request,
    encode_response,
    error_response,
    evaluate_request,
    layouts_from_wire,
    layouts_to_wire,
    program_from_wire,
    program_to_wire,
    solve_request,
)

FIGURE2 = """
array Q1[520][260]
array Q2[520][260]
nest fig2 {
    for i1 = 0 .. 259 {
        for i2 = 0 .. 259 {
            Q1[i1+i2][i2] = Q2[i1+i2][i1]
        }
    }
}
"""


class TestProgramWire:
    @pytest.mark.parametrize("name", ["MxM", "Radar"])
    def test_benchmark_roundtrip_is_exact(self, name):
        program = build_benchmark(name)
        clone = program_from_wire(program_to_wire(program))
        assert clone == program

    def test_parsed_program_roundtrip_is_exact(self):
        program = parse_program(FIGURE2, name="fig2-program")
        clone = program_from_wire(program_to_wire(program))
        assert clone == program
        assert clone.name == "fig2-program"

    def test_wire_form_is_json_encodable(self):
        wire = program_to_wire(build_benchmark("MxM"))
        clone = program_from_wire(json.loads(json.dumps(wire)))
        assert clone == build_benchmark("MxM")

    def test_malformed_program_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed program"):
            program_from_wire({"name": "x", "arrays": [["A"]], "nests": []})

    def test_invalid_ir_raises_protocol_error(self):
        """IR-level validation failures surface as protocol errors."""
        wire = program_to_wire(parse_program(FIGURE2))
        wire["arrays"][0][1] = [-1, 4]  # non-positive extent
        with pytest.raises(ProtocolError):
            program_from_wire(wire)


#: Any value ``json.loads`` can produce (``Infinity`` and ``NaN``
#: included); object keys lean on the program wire's field names so
#: the decoder gets past its first lookups.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["name", "arrays", "nests", "loops", "body", "weight", "x"]
        ),
        children,
        max_size=4,
    ),
    max_leaves=16,
)


def _value_paths(value, prefix=()):
    """Every position in a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _value_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _value_paths(child, prefix + (index,))


def _decodes_or_refuses(data) -> None:
    try:
        program = program_from_wire(data)
    except ProtocolError:
        return
    assert isinstance(program, Program)


class TestProgramWireFuzz:
    """The decoder half of a wire fuzz: ``program_from_wire`` returns a
    ``Program`` or raises ``ProtocolError``, nothing else -- the daemon
    answers any other exception as ``internal`` and logs an ERROR."""

    @settings(max_examples=300, deadline=None)
    @given(data=_JSON_VALUES)
    def test_any_json_value(self, data):
        _decodes_or_refuses(data)

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(min_value=0), value=_JSON_VALUES)
    def test_valid_wire_with_one_value_replaced(self, position, value):
        wire = program_to_wire(parse_program(FIGURE2))
        paths = list(_value_paths(wire))
        path = paths[position % len(paths)]
        if not path:
            _decodes_or_refuses(value)
            return
        parent = wire
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        _decodes_or_refuses(wire)


class TestLayoutsWire:
    def test_roundtrip(self):
        layouts = {"A": row_major(2), "B": column_major(3)}
        assert layouts_from_wire(layouts_to_wire(layouts)) == layouts

    def test_malformed_layouts_raise(self):
        with pytest.raises(ProtocolError):
            layouts_from_wire({"A": {"rows": "nope"}})


class TestRequestLines:
    def test_solve_request_decodes(self):
        line = encode_response(solve_request(parse_program(FIGURE2), request_id=7))
        payload = decode_request(line)
        assert payload["kind"] == "solve"
        assert payload["id"] == 7

    def test_evaluate_request_carries_fields(self):
        payload = evaluate_request(
            parse_program(FIGURE2),
            cost_model="analytic",
            hierarchy={"l1_size": 16384},
            sim_cap=1000,
        )
        decoded = decode_request(encode_response(payload))
        assert decoded["cost_model"] == "analytic"
        assert decoded["hierarchy"] == {"l1_size": 16384}
        assert decoded["sim_cap"] == 1000

    def test_non_json_line_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_request("{oops")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request("[1, 2]")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request kind"):
            decode_request(json.dumps({"kind": "solv"}))

    def test_solve_without_program_rejected(self):
        with pytest.raises(ProtocolError, match="needs a 'program'"):
            decode_request(json.dumps({"kind": "solve"}))

    def test_error_response_shape(self):
        response = error_response(3, "boom")
        assert response == {"id": 3, "ok": False, "error": "boom"}


class TestClientIdAssignment:
    """request_many pairing rules (ids are the only response key)."""

    class _FakeClient:
        """A DaemonClient with the delivery layer stubbed out."""

        request_many = __import__(
            "repro.service.stream", fromlist=["DaemonClient"]
        ).DaemonClient.request_many

        def __init__(self):
            self._next_id = 0
            self.sent: list[dict] = []

        def _take_id(self):
            self._next_id += 1
            return self._next_id

        def _deliver(self, payloads):
            self.sent.extend(payloads)
            return {p["id"]: {**p, "ok": True} for p in payloads}

    def test_duplicate_caller_ids_rejected(self):
        client = self._FakeClient()
        with pytest.raises(ProtocolError, match="duplicate request ids"):
            client.request_many(
                [{"id": 7, "kind": "ping"}, {"id": 7, "kind": "stats"}]
            )
        assert client.sent == []  # nothing went on the wire

    def test_auto_ids_skip_caller_supplied_ones(self):
        """A caller id equal to the next auto id must not collide."""
        client = self._FakeClient()
        responses = client.request_many(
            [{"id": 1, "kind": "ping"}, {"kind": "stats"}]
        )
        assert responses[0]["id"] == 1
        assert responses[1]["id"] != 1
        assert responses[0]["kind"] == "ping"
        assert responses[1]["kind"] == "stats"

    def test_every_line_leads_with_its_id(self):
        """Auto-assigned, caller-supplied (even when the caller put it
        last) or replacing an explicit null: the id comes first, in
        the compact form the daemon answers a repeat solve from."""
        client = self._FakeClient()
        program = program_to_wire(parse_program(FIGURE2, name="fig2"))
        client.request_many(
            [
                {"kind": "solve", "program": program},
                {"kind": "stats", "id": 40},
                {"id": None, "kind": "ping"},
            ]
        )
        lines = [encode_response(payload) for payload in client.sent]
        assert lines[0].startswith(b'{"id":1,"kind":"solve","program":{')
        assert lines[1] == b'{"id":40,"kind":"stats"}\n'
        assert lines[2] == b'{"id":2,"kind":"ping"}\n'


class _FakeMember:
    """A scriptable JSON-lines server impersonating a daemon.

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

    def test_dead_daemon_still_raises(self, tmp_path):
        member = _FakeMember(tmp_path, "gone")
        client = DaemonClient(member.path)
        member.close()
        with pytest.raises(ConnectionError):
            client.request_many([{"kind": "ping"}, {"kind": "ping"}])
        client.close()


def test_connect_unix_round_trip(tmp_path):
    """connect_unix speaks to a listening unix socket."""
    path = str(tmp_path / "echo.sock")
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(path)
    server.listen(1)
    try:
        client = connect_unix(path, timeout=5.0)
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
        connect_unix(str(tmp_path / "missing.sock"), timeout=1.0)
    assert len(opened) == 1
    assert opened[0].fileno() == -1
