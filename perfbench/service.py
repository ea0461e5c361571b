"""The daemon under test and the load generator that drives it.

The daemon is the program's own ``python -m repro.service --serve
--socket ...`` with default flags, one process per run in a fresh
working directory (so its default shard directory starts empty).

:class:`Traffic` is the client side: one thread, at most two unix
socket connections, driven by ``selectors``.  It keeps each request's
timing and a compact *answer key* per response (the response line
without its id and latency stamp), so identical answers are stored
once and each distinct answer is parsed and checked once after the
timed window -- every answer is still checked.
"""

from __future__ import annotations

import json
import re
import selectors
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

from perfbench.checker import DROPPED, ERROR, TIMEOUT, WRONG
from perfbench.common import ROOT, child_env, child_pids, vm_hwm_mb

_ID = re.compile(rb'\{"id":(-?\d+),')
_SECONDS = b',"seconds":'


class DaemonError(RuntimeError):
    """The daemon did not come up or answer a control request."""


class Daemon:
    """One ``--serve`` daemon process in its own working directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.address = str((workdir / "d.sock").relative_to(ROOT))
        self.proc = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the first answered ``ping``; returns the
        seconds from spawn to that answer."""
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        log = open(self.workdir / "daemon.log", "wb")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--serve", "--socket", "d.sock"],
                cwd=self.workdir,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        deadline = start + timeout
        while True:
            if self.proc.poll() is not None:
                raise DaemonError(f"daemon exited with {self.proc.returncode}")
            try:
                hello = self.control({"id": 0, "kind": "ping"}, timeout=5.0)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise DaemonError("daemon did not answer ping") from None
                time.sleep(0.002)
        elapsed = time.perf_counter() - start
        if not hello.get("ok"):
            raise DaemonError(f"ping failed: {hello}")
        return elapsed

    def control(self, payload: dict, timeout: float = 30.0) -> dict:
        """One request on a fresh connection (ping, stats, shutdown)."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(self.address)
            sock.sendall(json.dumps(payload).encode() + b"\n")
            with sock.makefile("rb") as reader:
                line = reader.readline()
        if not line:
            raise ConnectionError("daemon closed the control connection")
        return json.loads(line)

    def stats(self) -> dict:
        return self.control({"id": 0, "kind": "stats"})["result"]

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon parent plus its pool workers."""
        pid = self.proc.pid
        return vm_hwm_mb(pid) + sum(vm_hwm_mb(child) for child in child_pids(pid))

    def stop(self) -> None:
        """Shut down cleanly; terminate, then kill, if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.control({"id": 0, "kind": "shutdown"}, timeout=10.0)
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.proc = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def start_measured(base, repeats: int) -> tuple[Daemon, list[float]]:
    """Start ``repeats`` daemons one after another, timing each set-up;
    all but the last are stopped again.  Returns (live daemon, times)."""
    times = []
    daemon = None
    for index in range(repeats):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(base / f"daemon-{index}")
        try:
            times.append(daemon.start())
        except BaseException:
            daemon.stop()
            raise
    return daemon, times


# -- requests ------------------------------------------------------------


def program_json(program) -> bytes:
    from repro.service.stream import program_to_wire

    return json.dumps(program_to_wire(program), separators=(",", ":")).encode()


def request_line(rid: int, kind: str, body: bytes, traced: bool, sim_cap=None) -> bytes:
    """A request line in the same compact form as ``DaemonClient``."""
    line = b'{"id":%d,"kind":"%s","program":%s' % (rid, kind.encode(), body)
    if kind == "evaluate":
        line += b',"cost_model":"simulated","sim_cap":%d' % sim_cap
    if traced:
        line += b',"trace":true'
    return line + b"}\n"


@dataclass
class Request:
    program: object
    kind: str
    traced: bool
    due: float
    sent: float = 0.0
    received: float = 0.0
    key: int = -1
    failure: str | None = None


class Traffic:
    """Requests sent, answers received, and their timings."""

    def __init__(self):
        self.requests: dict[int, Request] = {}
        self.key_index: dict[bytes, int] = {}
        self.key_lines: list[bytes] = []
        self.traces: dict[int, dict] = {}
        self._conns: dict[socket.socket, dict] = {}
        self._selector = selectors.DefaultSelector()

    def connect(self, address: str) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(address)
        self._conns[sock] = {"buf": bytearray(), "outstanding": set()}
        self._selector.register(sock, selectors.EVENT_READ)
        return sock

    def close(self) -> None:
        for sock in list(self._conns):
            self._drop(sock, None)
        self._selector.close()

    def send(self, sock, rid: int, request: Request, line: bytes) -> None:
        self.requests[rid] = request
        request.sent = time.perf_counter()
        self._conns[sock]["outstanding"].add(rid)
        try:
            sock.sendall(line)
        except OSError:
            self._drop(sock, DROPPED)

    def outstanding(self, sock=None) -> int:
        if sock is not None:
            state = self._conns.get(sock)
            return len(state["outstanding"]) if state else 0
        return sum(len(state["outstanding"]) for state in self._conns.values())

    def alive(self, sock) -> bool:
        return sock in self._conns

    def poll(self, timeout: float) -> list[int]:
        """Read what has arrived within ``timeout``; ids answered."""
        answered = []
        for key, _ in self._selector.select(max(0.0, timeout)):
            sock = key.fileobj
            try:
                data = sock.recv(1 << 20)
            except OSError:
                data = b""
            now = time.perf_counter()
            if not data:
                self._drop(sock, DROPPED)
                continue
            state = self._conns[sock]
            buf = state["buf"]
            buf += data
            while True:
                end = buf.find(b"\n")
                if end < 0:
                    break
                line = bytes(buf[: end + 1])
                del buf[: end + 1]
                rid = self._on_line(line, now)
                if rid is not None and rid in state["outstanding"]:
                    state["outstanding"].discard(rid)
                    answered.append(rid)
        return answered

    def drain(self, timeout: float) -> None:
        """Wait for outstanding answers; the rest count as timeouts."""
        deadline = time.perf_counter() + timeout
        while self.outstanding() and time.perf_counter() < deadline:
            self.poll(deadline - time.perf_counter())
        for state in self._conns.values():
            for rid in state["outstanding"]:
                self.requests[rid].failure = TIMEOUT
            state["outstanding"].clear()

    def _drop(self, sock, reason) -> None:
        state = self._conns.pop(sock, None)
        if state is None:
            return
        for rid in state["outstanding"]:
            if reason is not None:
                self.requests[rid].failure = reason
        self._selector.unregister(sock)
        sock.close()

    def _on_line(self, line: bytes, now: float):
        match = _ID.match(line)
        rid = int(match.group(1)) if match else None
        request = self.requests.get(rid)
        if request is None or request.key >= 0 or request.failure:
            try:
                payload = json.loads(line)
            except ValueError:
                return None
            rid = payload.get("id") if isinstance(payload, dict) else None
            request = self.requests.get(rid)
            if request is None or request.key >= 0 or request.failure:
                return None
        request.received = now
        if request.traced:
            payload = json.loads(line)
            trace = payload.pop("trace", None)
            if trace:
                self.traces[rid] = trace
            payload.pop("id", None)
            payload.pop("seconds", None)
            key = json.dumps(payload, separators=(",", ":")).encode()
        else:
            key = line[match.end():] if match else line
            cut = key.rfind(_SECONDS)
            if cut >= 0:
                key = key[:cut]
        index = self.key_index.get(key)
        if index is None:
            index = self.key_index[key] = len(self.key_lines)
            self.key_lines.append(line)
        request.key = index
        return rid

    # -- after the window ------------------------------------------------

    def judge(self, checker) -> dict[int, bool]:
        """Check every distinct answer once; per request: correct?

        Failures (error responses, wrong answers, timeouts, dropped
        connections) are counted in ``checker.failures``.
        """
        reasons: dict[tuple, str | None] = {}
        parsed: dict[int, dict] = {}
        correct = {}
        for rid, request in self.requests.items():
            reason = request.failure
            if reason is None and request.key < 0:
                reason = TIMEOUT  # never answered and never drained
            if reason is None:
                slot = (request.key, request.program.name, request.kind)
                if slot not in reasons:
                    if request.key not in parsed:
                        parsed[request.key] = json.loads(self.key_lines[request.key])
                    reasons[slot] = _answer_reason(checker, request, parsed[request.key])
                reason = reasons[slot]
            if reason is not None:
                checker.fail(reason)
            correct[rid] = reason is None
        return correct

    def answer(self, rid: int) -> dict:
        return json.loads(self.key_lines[self.requests[rid].key])


def _answer_reason(checker, request, payload) -> str | None:
    """None for a right answer, else why it failed."""
    if not payload.get("ok"):
        return ERROR
    result = payload.get("result") or {}
    if payload.get("kind") != request.kind or result.get("program") != request.program.name:
        return WRONG
    extra = result.get("value") if request.kind == "evaluate" else None
    return checker.verdict(
        request.program, result.get("layouts"), bool(result.get("exact")),
        variant=request.kind, extra=extra,
    )
