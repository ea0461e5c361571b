"""Wire-protocol round trips, request-line validation and the client."""

import contextlib
import json
import os
import socket
import threading

import pytest

from repro.bench import build_benchmark
from repro.ir.parser import parse_program
from repro.layout.layout import column_major, row_major
from repro.service.fingerprint import request_fingerprint
from repro.service.routing import HashRing
from repro.service.stream import (
    DaemonClient,
    ProtocolError,
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
            self._ring = None
            self._addresses = ["fake"]
            self.sent: list[dict] = []

        def _take_id(self):
            self._next_id += 1
            return self._next_id

        def _target_for(self, payload):
            return self._addresses[0]

        def _deliver(self, address, payloads):
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


class TestClientSideRouting:
    def test_multi_address_client_picks_the_owner(self, tmp_path):
        members = [_FakeMember(tmp_path, f"m{i}") for i in range(3)]
        addresses = [m.path for m in members]
        program = parse_program(FIGURE2, name="program")
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
        program = parse_program(FIGURE2, name="program")
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
