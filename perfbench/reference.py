"""Host speed: reference work timed beside every workload.

The benchmark runs on shared hosts whose speed drifts with their
neighbours' load -- the same optimize call, or the same daemon cache
hit, can take twice as long a few minutes later, and CPU time drifts as
much as wall time.  So each run also times reference work that belongs
to the benchmark, not the program, in slices spread through the timed
window, and reports latencies in units of it (unit ``ref``).  A change
to the program moves these ratios; a change of host speed moves
numerator and denominator together.  The raw milliseconds are printed
beside them.

* In-process work is referred to :func:`reference_pass`, fixed
  interpreter work timed in the benchmark process.  Every latency
  percentile is divided by the median pass: the slow optimize calls are
  slow programs, not a slow host.
* Daemon requests are referred to :class:`EchoReference`: the
  workload's own request lines, sent with the workload's own load
  pattern to ``perfbench/echo.py``, a process that answers them the way
  a daemon answers a cache hit, without the program.  Each latency
  percentile is divided by the same percentile of the echo's.  Compute
  alone does not track a daemon: under a loaded host its latency also
  drifts with the cost of waking processes on socket traffic, and its
  tail with how often a process loses its CPU, which only a process
  under the same load sees.
"""

from __future__ import annotations

import hashlib
import json
import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import quantile


def reference_pass() -> int:
    """One pass of fixed work of the kinds the program does: calls,
    dict and tuple churn, sorting with a key, JSON and hashing."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) + (i & 15)
    items = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    text = json.dumps(items)
    digest = hashlib.sha256(text.encode()).hexdigest()
    rows = [(i, i * 2, str(i)) for i in range(1500)]
    return acc + sum(a + b for a, b, _ in rows) + len(json.loads(text)) + len(digest)


class Reference:
    """Reference times collected through one run."""

    #: What one reference operation is, for the report.
    kind = ""
    #: Whether latency percentile q is divided by the reference's own
    #: percentile q (else by its median).
    per_percentile = False

    def __init__(self):
        self.samples_ms: list[float] = []
        self.seconds = 0.0  # time spent on the reference, kept out of the window

    def ms(self, q: float = 0.5) -> float:
        """The reference time that latency percentile ``q`` is divided by."""
        return quantile(self.samples_ms, q if self.per_percentile else 0.5)


class ComputeReference(Reference):
    kind = "reference pass"

    def sample(self, passes: int = 1) -> None:
        """Time ``passes`` reference passes in this process."""
        begin = time.perf_counter()
        for _ in range(passes):
            start = time.perf_counter()
            reference_pass()
            self.samples_ms.append((time.perf_counter() - start) * 1e3)
        self.seconds += time.perf_counter() - begin


class EchoReference(Reference):
    """The workload's request lines sent, in the workload's load
    pattern, to a ``perfbench/echo.py`` process of the run's own."""

    kind = "echo request"
    per_percentile = True

    def __init__(self, workdir: Path, lines: list[bytes]):
        super().__init__()
        self.path = workdir / "echo.sock"
        self.lines = lines
        self.sent = 0
        self.proc = None
        self.socks: list[socket.socket] = []
        self.buffers: dict[socket.socket, bytearray] = {}
        self.selector = selectors.DefaultSelector()

    def start(self, connections: int) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("echo.py")), str(self.path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline().strip() != b"ready":
            raise RuntimeError("echo reference did not start")
        for _ in range(connections):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(self.path))
            self.socks.append(sock)
            self.buffers[sock] = bytearray()
            self.selector.register(sock, selectors.EVENT_READ)
        self.closed(0.05)  # warm both ends
        self.samples_ms.clear()
        self.seconds = 0.0

    def closed(self, seconds: float) -> None:
        """Closed loop for ``seconds``: each connection sends its next
        request when the previous answer arrives."""
        begin = time.perf_counter()
        end = begin + seconds
        sent = {sock: self._send(sock) for sock in self.socks}
        while sent:
            for sock, now in self._answers(30.0):
                self.samples_ms.append((now - sent.pop(sock)) * 1e3)
                if now < end:
                    sent[sock] = self._send(sock)
        self.seconds += time.perf_counter() - begin

    def open(self, count: int, rate: float) -> None:
        """Open loop on one connection: ``count`` requests at ``rate``
        per second, each timed from when it was due."""
        begin = time.perf_counter()
        sock = self.socks[0]
        due: list[float] = []
        answered = 0
        for index in range(count + 1):
            # Before each send (and once more at the end), read the
            # answers that arrive until the next request is due.
            until = begin + index / rate if index < count else None
            while answered < len(due) or until is not None:
                now = time.perf_counter()
                if until is not None and now >= until:
                    break
                timeout = 30.0 if until is None else until - now
                for _, arrived in self._answers(timeout):
                    self.samples_ms.append((arrived - due[answered]) * 1e3)
                    answered += 1
            if index < count:
                due.append(until)
                self._send(sock)
        self.seconds += time.perf_counter() - begin

    def _send(self, sock) -> float:
        line = self.lines[self.sent % len(self.lines)]
        self.sent += 1
        start = time.perf_counter()
        sock.sendall(line)
        return start

    def _answers(self, timeout: float):
        """(connection, arrival time) per answer line read in ``timeout``."""
        events = self.selector.select(timeout)
        if not events and timeout >= 30.0:
            raise TimeoutError("echo reference stopped answering")
        for key, _ in events:
            sock = key.fileobj
            data = sock.recv(1 << 16)
            now = time.perf_counter()
            if not data:
                raise ConnectionError("echo reference closed its socket")
            buffer = self.buffers[sock]
            buffer += data
            lines = buffer.count(b"\n")
            if lines:
                del buffer[: buffer.rindex(b"\n") + 1]
            for _ in range(lines):
                yield sock, now

    def stop(self) -> None:
        for sock in self.socks:
            self.selector.unregister(sock)
            sock.close()
        self.socks.clear()
        self.selector.close()
        if self.proc is not None:
            self.proc.stdin.close()  # the echo exits on end of input
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        self.path.unlink(missing_ok=True)
