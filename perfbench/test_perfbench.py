"""Tests of the benchmark itself: failure accounting and exact counts.

Run with ``python -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import socket
import threading

from perfbench.common import require_sources

require_sources()

from perfbench import layers  # noqa: E402
from perfbench.checker import DISAGREE, DROPPED, ERROR, WRONG, AnswerChecker  # noqa: E402
from perfbench.reference import EchoReference  # noqa: E402
from perfbench.service import Request, Traffic, program_json, request_line  # noqa: E402
from perfbench.tracing import Span  # noqa: E402
from perfbench.workloads import mixed_schedule, oversized_request  # noqa: E402
from repro.bench.programs import (  # noqa: E402
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.layout.layout import Layout  # noqa: E402
from repro.opt.optimizer import LayoutOptimizer  # noqa: E402
from repro.service.stream import layouts_to_wire  # noqa: E402

OPTIONS = benchmark_build_options()


def _solved(program):
    outcome = LayoutOptimizer(scheme="enhanced", options=OPTIONS).optimize(program)
    return layouts_to_wire(outcome.layouts), outcome.exact


def _corrupt(checker, program, wire):
    """The answer with one constrained array's layout swapped for a
    value that breaks the network."""
    network = checker.network(program)
    for name in network.variables:
        for value in (*network.domain(name), Layout(2, [(3, 7)])):
            candidate = dict(wire)
            candidate[name] = layouts_to_wire({name: value})[name]
            if candidate[name] != wire[name]:
                layouts = {v: Layout(candidate[v]["dimension"], candidate[v]["rows"])
                           for v in network.variables}
                if not network.is_solution(layouts):
                    return candidate
    raise AssertionError("no corrupting layout found")


def test_right_answers_pass():
    checker = AnswerChecker(OPTIONS, pin_table1=True)
    for program in [build_benchmark("MxM"), random_suite(1, 3)[0]]:
        wire, exact = _solved(program)
        assert checker.check(program, wire, exact, count=3)
    assert not checker.failures


def test_corrupted_layout_counts_as_failed():
    program = random_suite(1, 5)[0]
    checker = AnswerChecker(OPTIONS, pin_table1=False)
    wire, exact = _solved(program)
    assert exact
    assert not checker.check(program, _corrupt(checker, program, wire), exact, count=2)
    assert checker.failures == {WRONG: 2}


def test_table1_answers_must_match_recorded_layouts():
    program = build_benchmark("Radar")
    checker = AnswerChecker(OPTIONS, pin_table1=True)
    wire, exact = _solved(program)
    other = dict(wire)
    name = next(iter(other))
    other[name] = {"dimension": 2, "rows": [[1, 0]] if wire[name]["rows"] != [[1, 0]] else [[0, 1]]}
    assert not checker.check(program, other, exact)
    assert checker.failures == {WRONG: 1}


def test_repeated_answers_must_agree():
    program = random_suite(1, 7)[0]
    checker = AnswerChecker(OPTIONS, pin_table1=False)
    wire, exact = _solved(program)
    assert checker.check(program, wire, exact)
    assert not checker.check(program, _corrupt(checker, program, wire), exact)
    assert checker.failures == {DISAGREE: 1}


class _FakeDaemon:
    """A unix-socket peer that answers each line with ``reply(line)``
    (None closes the connection instead)."""

    def __init__(self, path, reply):
        self.path = str(path)
        self._reply = reply
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(self.path)
        self._server.listen(1)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._server.accept()
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                answer = self._reply(line)
                if answer is None:
                    return
                conn.sendall(answer)

    def close(self):
        self._server.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def _one_request(tmp_path, reply):
    program = random_suite(1, 11)[0]
    fake = _FakeDaemon(tmp_path / "d.sock", reply)
    traffic = Traffic()
    try:
        sock = traffic.connect(fake.path)
        traffic.send(sock, 1, Request(program, "solve", False, 0.0),
                     request_line(1, "solve", program_json(program), False))
        traffic.drain(10.0)
    finally:
        traffic.close()
        fake.close()
    checker = AnswerChecker(OPTIONS, pin_table1=False)
    correct = traffic.judge(checker)
    return correct, checker.failures


def test_error_response_counts_as_failed(tmp_path):
    correct, failures = _one_request(
        tmp_path, lambda line: b'{"id":1,"ok":false,"error":"boom"}\n'
    )
    assert correct == {1: False}
    assert failures == {ERROR: 1}


def test_dropped_connection_counts_as_failed(tmp_path):
    correct, failures = _one_request(tmp_path, lambda line: None)
    assert correct == {1: False}
    assert failures == {DROPPED: 1}


def test_sim_cycles_and_effort_counts_repeat_exactly():
    table1 = [build_benchmark(name) for name in BENCHMARK_NAMES]
    programs = table1 + list(random_suite(4, 2))
    first = layers.replay_pipeline(programs, OPTIONS).metrics()
    second = layers.replay_pipeline(programs, OPTIONS).metrics()
    for name in ("csp.nodes", "csp.checks", "csp.backtracks"):
        assert first[name][0] == second[name][0]
    assert first["csp.nodes"][0] > 0 and first["csp.checks"][0] > 0
    answers = {p.name: _solved(p)[0] for p in table1}
    cycles = [layers.table1_cycles(table1, answers, OPTIONS)[0] for _ in range(2)]
    assert cycles[0] == cycles[1] > 0


def test_self_time_subtracts_covered_child_intervals():
    root = Span("r", "root", 0, 100)
    root.children = [Span("r", "a", 10, 40), Span("r", "b", 30, 50), Span("r", "c", 90, 120)]
    assert root.self_ns() == 100 - 40 - 10


def test_mixed_schedule_is_seeded_and_fresh_programs_are_new():
    table1 = [build_benchmark(name) for name in BENCHMARK_NAMES]
    fill, schedule = mixed_schedule(3, 2.0, random_suite, table1)
    again = mixed_schedule(3, 2.0, random_suite, table1)
    assert [(k, p.name) for k, p in schedule] == [(k, p.name) for k, p in again[1]]
    sent = {p.name for p, _ in fill}
    fresh = 0
    for kind, program in schedule:
        fresh += program.name not in sent
        sent.add(program.name)
    assert 0 < fresh < len(schedule)


def test_oversized_probe_is_just_over_the_line_limit():
    program, line = oversized_request()
    radar = len(program_json(build_benchmark("Radar")))
    assert 64 * 1024 < len(line) < 15 * radar
    assert program.name not in {p.name for p in random_suite(3, 0)}


def test_echo_reference_answers_and_stops(tmp_path):
    line = request_line(0, "solve", program_json(build_benchmark("MxM")), False)
    echo = EchoReference(tmp_path, [line])
    try:
        echo.start(2)
        echo.closed(0.05)
        closed = len(echo.samples_ms)
        echo.open(5, 200.0)
        proc = echo.proc
    finally:
        echo.stop()
    assert closed >= 2 and len(echo.samples_ms) == closed + 5
    assert all(ms > 0 for ms in echo.samples_ms)
    assert proc.returncode == 0 and not (tmp_path / "echo.sock").exists()
