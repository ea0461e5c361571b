"""The three workloads: what each sends, times and checks.

* ``optimize-paper`` -- closed loop, one caller, in-process
  ``LayoutOptimizer(scheme="enhanced").optimize`` round-robin over the
  five Table 1 programs plus a seeded ``random_suite`` draw.  The
  library path: build, solve, repair and transform, no wire or cache.
* ``daemon-hit`` -- closed loop on two connections against the daemon,
  every fingerprint cached during set-up: the hit path alone (decode,
  fingerprint, cache lookup, encode, framing).
* ``daemon-mixed`` -- open loop at a fixed rate on one pipelined
  connection: ~80% repeats (cache hits), ~20% fresh programs, ~10%
  ``evaluate`` requests under the simulated cost model.  Misses set
  the tail and hits the median.  Runs by hand; not in BENCHMARK.json,
  because its figures do not repeat on a shared host (see README.md).

Latencies are reported in units of reference work timed in slices of
the same run (see :mod:`perfbench.reference`).  End-to-end numbers come
from untraced runs (``trace=False``); a traced run reports the
per-layer numbers instead (see :mod:`perfbench.layers`).
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import subprocess
import sys
import time

from perfbench import layers
from perfbench.checker import AnswerChecker
from perfbench.common import (
    ROOT,
    RunResult,
    child_env,
    host_record,
    mean,
    median,
    quantile,
    vm_hwm_mb,
)
from perfbench.reference import ComputeReference, EchoReference
from perfbench.service import (
    Daemon,
    Request,
    Traffic,
    program_json,
    request_line,
    start_measured,
)
from perfbench.tracing import Recorder, patched

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Per-workload latency limit for ``within_limit_frac``, in the units of
#: ``latency_ref_p99`` (so the limit in ms scales with the host's speed):
#: well above each workload's p99, so the share moves only on a real
#: shift of the tail.
LIMIT_REF = {"optimize-paper": 10.0, "daemon-hit": 4.0, "daemon-mixed": 40.0}
#: Distinct random programs next to the five Table 1 programs.
OPTIMIZE_RANDOM = 200
HIT_RANDOM = 200
MIXED_WARM = 20
#: daemon-mixed rate: at 60 req/s a 2-core host answers at the send
#: rate with no growing backlog.  The evaluate cap keeps an evaluate
#: miss within a few solve misses.
MIXED_RATE = 60.0
SIM_CAP = 2000
#: Programs replayed through layers a workload's traffic skips.
REPLAY_PROGRAMS = 60
PORTFOLIO_PROGRAMS = 6
#: When the reference is timed (see :mod:`perfbench.reference`): one
#: pass after every 10 in-process calls; a quarter second of the echo
#: closed loop after every half second of the daemon's (once both
#: connections are idle); 30 echo requests after every 60 of the open
#: loop (the rest of the daemon's schedule is shifted by the pause).
REFERENCE_EVERY_CALLS = 10
REFERENCE_EVERY_SECONDS = 0.5
REFERENCE_CLOSED_SECONDS = 0.25
REFERENCE_EVERY_REQUESTS = 60
REFERENCE_OPEN_REQUESTS = 30
#: Waits for answers after the window, and for the oversized probe.
DRAIN_SECONDS = 60.0
PROBE_SECONDS = 30.0

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
from repro.bench.programs import benchmark_build_options, build_benchmark
from repro.opt.optimizer import LayoutOptimizer
LayoutOptimizer(scheme="enhanced", options=benchmark_build_options()).optimize(
    build_benchmark(sys.argv[1]))
print(time.perf_counter() - start)
"""


def _inputs():
    from repro.bench.programs import (
        BENCHMARK_NAMES,
        benchmark_build_options,
        build_benchmark,
        random_suite,
    )

    return benchmark_build_options(), [build_benchmark(n) for n in BENCHMARK_NAMES], random_suite


def _put_latency(result, latencies_ms, limit_ms, correct_within, attempted, reference):
    """Latency percentiles in reference units (the end-to-end metrics)
    and in raw milliseconds (printed beside them)."""
    count = len(latencies_ms)
    for name, q in (("p50", 0.5), ("p99", 0.99)):
        value = quantile(latencies_ms, q)
        reference_ms = reference.ms(q)
        result.put(f"latency_ref_{name}", value / reference_ms, "ref", count,
                   f"over {reference_ms:.3f} ms, {reference.kind} time")
        result.put(f"latency_ms_{name}", value, "ms", count, "raw, host-speed dependent")
        result.put(f"host.reference_ms_{name}", quantile(reference.samples_ms, q), "ms",
                   len(reference.samples_ms), f"{reference.kind} time")
    result.put(
        "within_limit_frac", correct_within / attempted, "ratio", attempted,
        f"answered correctly within {limit_ms:.2f} ms",
    )


# -- optimize-paper --------------------------------------------------------


def _setup_inprocess(program_name: str) -> float:
    """Import plus the first optimize, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, program_name],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip().splitlines()[-1])


def optimize_paper(seed: int, seconds: float, trace: bool, work) -> RunResult:
    from repro.opt.optimizer import LayoutOptimizer
    from repro.service.stream import layouts_to_wire

    options, table1, random_suite = _inputs()
    programs = table1 + list(random_suite(OPTIMIZE_RANDOM, seed))
    result = RunResult(host_record(seed, "optimize-paper"))
    checker = AnswerChecker(options, pin_table1=True)
    if not trace:
        setups = [_setup_inprocess(table1[0].name) for _ in range(SETUP_REPEATS)]
        result.put("setup_s", median(setups), "s", len(setups))

    optimizer = LayoutOptimizer(scheme="enhanced", options=options)
    for program in programs:  # fill the program's memo caches before timing
        optimizer.optimize(program)
    times = layers.PipelineTimes()
    targets = layers.pipeline_targets()
    reference = ComputeReference()
    calls = []  # (program, layouts, exact, seconds, traced)
    transforms = {}
    gaps = []
    round_seconds = {False: [], True: []}
    start = last_end = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while last_end < deadline:
        # Traced runs alternate whole untraced and traced rounds, so both
        # halves see the same program mix.
        traced = trace and rounds % 2 == 1
        rounds += 1
        round_start = time.perf_counter()
        referred = reference.seconds
        with patched(times.recorder, targets) if traced else contextlib.nullcontext():
            for program in programs:
                if len(calls) % REFERENCE_EVERY_CALLS == 0:
                    reference.sample()
                    last_end = time.perf_counter()
                call_start = time.perf_counter()
                gaps.append(call_start - last_end)
                if traced:
                    outcome = times.optimize(optimizer, program, len(calls))
                else:
                    outcome = optimizer.optimize(program)
                last_end = time.perf_counter()
                calls.append(
                    (program, outcome.layouts, outcome.exact, last_end - call_start, traced)
                )
                if program.name not in transforms:
                    transforms[program.name] = outcome.transforms
                if last_end >= deadline:
                    break
            else:
                round_seconds[traced].append(last_end - round_start - (reference.seconds - referred))
    window = last_end - start - reference.seconds
    rss = vm_hwm_mb(os.getpid())

    limit = LIMIT_REF["optimize-paper"] * reference.ms(0.99)
    within = 0
    first_layouts = {}
    for program, layouts, exact, took, traced in calls:
        wire = layouts_to_wire(layouts)
        first_layouts.setdefault(program.name, wire)
        if checker.check(program, wire, exact) and took * 1e3 <= limit:
            within += 1
    result.sent = len(calls)
    cycles, simulate_ms, simulated = layers.table1_cycles(
        table1, first_layouts, options, transforms
    )
    if not trace:
        latencies = [took * 1e3 for *_, took, _ in calls]
        _put_latency(result, latencies, limit, within, len(calls), reference)
        result.put("throughput_per_s", len(calls) / window, "1/s", len(calls),
                   "raw, host-speed dependent")
        result.put("sim_cycles", cycles, "cycles", simulated)
        result.put("peak_rss_mb", rss, "MB", 1, "benchmark process VmHWM")
    else:
        _put_all(result, times.metrics())
        result.put("simul.simulate_ms", simulate_ms, "ms", simulated)
        result.put("client.sched_lag_ms_p99", quantile(gaps, 0.99) * 1e3, "ms", len(gaps),
                   "gap between one optimize returning and the next call")
        if not (round_seconds[True] and round_seconds[False]):
            raise RuntimeError("traced run too short: needs a whole traced and untraced round")
        overhead = mean(round_seconds[True]) / mean(round_seconds[False]) - 1.0
        result.put("obs.trace_overhead_frac", overhead, "ratio",
                   len(round_seconds[True]) + len(round_seconds[False]),
                   "traced over untraced round time, minus 1")
        accounted, remainder, count = times.accounting()
        result.put("trace.accounted_frac", accounted, "ratio", count,
                   "layer self time over optimize latency")
        result.put("trace.remainder_ms", remainder, "ms", count,
                   "optimize latency outside the five layer calls")
        sample = programs[:REPLAY_PROGRAMS]
        _service_replay(result, sample, options, checker, work)
        _put_all(result, layers.portfolio_layer(programs[:PORTFOLIO_PROGRAMS], options, checker))
        result.sent += PORTFOLIO_PROGRAMS
        times.recorder.write(work.parent / "trace-optimize-paper.jsonl")
    _close(result, checker)
    return result


def _service_replay(result, programs, options, checker, work) -> None:
    """Daemon and wire layers on the programs of a workload that does
    not reach them: each program solved twice through a fresh daemon
    (a miss, then a hit), every request traced."""
    daemon = Daemon(work / "replay")
    traffic = Traffic()
    recorder = Recorder()
    try:
        daemon.start()
        sock = traffic.connect(daemon.address)
        bodies = {p.name: program_json(p) for p in programs}
        rid = 0
        for _ in range(2):
            for program in programs:
                rid += 1
                _send_and_wait(traffic, sock, rid, Request(program, "solve", True, time.perf_counter()),
                               request_line(rid, "solve", bodies[program.name], True))
        stats = daemon.stats()
    finally:
        traffic.close()
        daemon.stop()
    correct = traffic.judge(checker)
    result.sent += len(traffic.requests)
    _daemon_layers(result, traffic, recorder, list(traffic.requests), stats, account=False)
    sample = _distinct_programs(traffic, correct, len(programs))
    _wire_layers(result, traffic, options, [rid for rid, _ in sample])
    for name, metric in result.metrics.items():
        if name.startswith("service."):
            metric.note = (metric.note + "; " if metric.note else "") + "replayed via a daemon"


def _send_and_wait(traffic, sock, rid, request, line) -> None:
    traffic.send(sock, rid, request, line)
    deadline = time.perf_counter() + DRAIN_SECONDS
    while traffic.alive(sock) and traffic.outstanding(sock) and time.perf_counter() < deadline:
        traffic.poll(deadline - time.perf_counter())
    if traffic.outstanding(sock):
        traffic.drain(0.0)


# -- daemon workloads ---------------------------------------------------------


def daemon_hit(seed: int, seconds: float, trace: bool, work) -> RunResult:
    options, table1, random_suite = _inputs()
    programs = table1 + list(random_suite(HIT_RANDOM, seed))
    rng = random.Random(seed)
    choices = (programs[rng.randrange(len(programs))] for _ in itertools.count())
    return _daemon_run("daemon-hit", seed, seconds, trace, work, options, table1,
                       fill=[(p, "solve") for p in programs],
                       traffic_plan=("closed", choices),
                       miss_programs=programs[len(table1):][:PORTFOLIO_PROGRAMS])


def mixed_schedule(seed: int, seconds: float, random_suite, table1):
    """(warm fill, timed schedule of (kind, program)) for daemon-mixed.

    A fixed pattern per 10 requests -- 8 solve repeats, 1 fresh solve,
    1 fresh evaluate -- keeps misses evenly spread, so the tail they
    set does not hinge on chance collisions.  The seed draws the
    programs and which earlier program each repeat asks for.
    """
    rng = random.Random(seed)
    count = int(MIXED_RATE * seconds)
    fresh_count = sum(1 for index in range(count) if index % 10 in (4, 9))
    drawn = random_suite(MIXED_WARM + fresh_count, seed)
    fresh = iter(drawn[MIXED_WARM:])
    pool = table1 + list(drawn[:MIXED_WARM])
    fill = [(program, "solve") for program in pool]
    schedule = []
    for index in range(count):
        if index % 10 == 9:
            schedule.append(("evaluate", next(fresh)))
        elif index % 10 == 4:
            program = next(fresh)
            pool.append(program)
            schedule.append(("solve", program))
        else:
            schedule.append(("solve", pool[rng.randrange(len(pool))]))
    return fill, schedule


def daemon_mixed(seed: int, seconds: float, trace: bool, work) -> RunResult:
    options, table1, random_suite = _inputs()
    fill, schedule = mixed_schedule(seed, seconds, random_suite, table1)
    filled = {p.name for p, _ in fill}
    fresh = []
    for _, program in schedule:
        if program.name not in filled and program not in fresh:
            fresh.append(program)
    return _daemon_run("daemon-mixed", seed, seconds, trace, work, options, table1,
                       fill=fill, traffic_plan=("open", schedule),
                       miss_programs=fresh[:PORTFOLIO_PROGRAMS])


def oversized_request():
    """(program, solve line) just over the daemon's 64 KiB line limit:
    Radar's nests repeated (renamed) until the line is long enough --
    about 12x Radar on the wire."""
    from repro.bench.programs import build_benchmark
    from repro.ir.loops import LoopNest
    from repro.ir.program import Program

    radar = build_benchmark("Radar")
    for copies in itertools.count(10):
        nests = tuple(
            LoopNest(f"{nest.name}_c{copy}", nest.loops, nest.body, nest.weight)
            for copy in range(copies)
            for nest in radar.nests
        )
        program = Program("Oversized-Radar", radar.arrays, nests)
        line = request_line(1, "solve", program_json(program), False)
        if len(line) > 64 * 1024:
            return program, line


def _daemon_run(name, seed, seconds, trace, work, options, table1, fill,
                traffic_plan, miss_programs) -> RunResult:
    result = RunResult(host_record(seed, name))
    checker = AnswerChecker(options, pin_table1=False)
    daemon, setups = start_measured(work, 1 if trace else SETUP_REPEATS)
    traffic = Traffic()
    recorder = Recorder()
    bodies = {}
    gaps = []
    for program, _ in fill:
        bodies.setdefault(program.name, program_json(program))
    reference = EchoReference(
        work / "echo", [request_line(0, "solve", body, False) for body in bodies.values()]
    )
    mode, plan = traffic_plan
    probe = None
    try:
        reference.start(2 if mode == "closed" else 1)
        sock = traffic.connect(daemon.address)
        rid = 0
        fill_rids = {}
        for program, kind in fill:
            rid += 1
            body = bodies.setdefault(program.name, program_json(program))
            _send_and_wait(traffic, sock, rid, Request(program, kind, trace, time.perf_counter()),
                           request_line(rid, kind, body, trace, SIM_CAP))
            fill_rids.setdefault((program.name, kind), rid)
        first_window = rid + 1
        # The load generator's own garbage collection would stall it
        # mid-window and show up as daemon latency.
        gc.collect()
        gc.disable()
        try:
            if mode == "closed":
                start, end, paused = _closed_loop(traffic, daemon, sock, plan, bodies, rid,
                                                  seconds, trace, gaps, reference)
            else:
                start, end, paused = _open_loop(traffic, sock, plan, bodies, rid, seconds,
                                                trace, gaps, reference)
        finally:
            gc.enable()
        window_rids = [r for r in traffic.requests if r >= first_window]
        traffic.drain(DRAIN_SECONDS)
        probe = _oversized_probe(daemon, options)
        stats = daemon.stats()
        rss = daemon.peak_rss_mb()
    finally:
        traffic.close()
        reference.stop()
        daemon.stop()

    correct = traffic.judge(checker)
    result.probe = probe
    limit = LIMIT_REF[name] * reference.ms(0.99)
    window = [traffic.requests[r] for r in window_rids]
    answered = [r for r in window_rids if correct[r]]
    if mode == "closed":
        latency_of = {r: (traffic.requests[r].received - traffic.requests[r].sent) * 1e3 for r in answered}
    else:
        latency_of = {r: (traffic.requests[r].received - traffic.requests[r].due) * 1e3 for r in answered}
    within = sum(1 for ms in latency_of.values() if ms <= limit)
    result.sent = len(traffic.requests)
    table1_layouts = {
        p.name: traffic.answer(fill_rids[(p.name, "solve")])["result"]["layouts"] for p in table1
    }
    cycles, simulate_ms, simulated = layers.table1_cycles(table1, table1_layouts, options)
    last = max((traffic.requests[r].received for r in answered), default=end)
    if not trace:
        latencies = list(latency_of.values())
        result.put("setup_s", median(setups), "s", len(setups), "spawn to first answered ping")
        _put_latency(result, latencies, limit, within, len(window), reference)
        result.put("throughput_per_s", len(answered) / (last - start - paused), "1/s",
                   len(answered), "raw, host-speed dependent" if mode == "closed" else
                   "set by the send rate")
        result.put("sim_cycles", cycles, "cycles", simulated, "daemon layouts, transforms selected for them")
        result.put("peak_rss_mb", rss, "MB", 1, "daemon parent + pool workers VmHWM")
    else:
        traced = [r for r in answered if traffic.requests[r].traced]
        plain = [r for r in answered if not traffic.requests[r].traced]
        overhead = (median(latency_of[r] for r in traced)
                    / median(latency_of[r] for r in plain) - 1.0)
        result.put("obs.trace_overhead_frac", overhead, "ratio", len(answered),
                   "traced over untraced median latency, minus 1")
        result.put("client.sched_lag_ms_p99", quantile(gaps, 0.99) * 1e3, "ms", len(gaps),
                   "send time after due time" if mode == "open" else
                   "send time after the previous answer on the connection")
        result.put("simul.simulate_ms", simulate_ms, "ms", simulated)
        traced_rids = [r for r, request in traffic.requests.items() if request.traced]
        _daemon_layers(result, traffic, recorder, traced_rids, stats, traced)
        sample = _distinct_programs(traffic, correct, REPLAY_PROGRAMS)
        _wire_layers(result, traffic, options, [rid for rid, _ in sample])
        replay = layers.replay_pipeline([p for _, p in sample], options)
        _put_all(result, replay.metrics(), "replayed in-process")
        _put_all(result, layers.portfolio_layer(miss_programs, options, checker))
        result.sent += len(miss_programs)
        recorder.write(work.parent / f"trace-{name}.jsonl")
    _close(result, checker)
    return result


def _closed_loop(traffic, daemon, first_sock, choices, bodies, rid, seconds, trace, gaps,
                 reference):
    socks = [first_sock, traffic.connect(daemon.address)]
    owner = {}
    last_answer = {}
    fired = {sock: 0 for sock in socks}
    picks = iter(choices)

    def fire(sock):
        nonlocal rid
        rid += 1
        program = next(picks)
        body = bodies.setdefault(program.name, program_json(program))
        # Alternate per connection, so traced and untraced requests
        # meet the same queueing behind the other connection.
        fired[sock] += 1
        traced = trace and fired[sock] % 2 == 0
        request = Request(program, "solve", traced, time.perf_counter())
        owner[rid] = sock
        traffic.send(sock, rid, request, request_line(rid, "solve", body, traced))
        gaps.append(request.sent - last_answer[sock])

    start = time.perf_counter()
    deadline = start + seconds
    pause_at = start
    while True:
        now = time.perf_counter()
        if now >= deadline or not any(traffic.alive(s) for s in socks):
            break
        if not traffic.outstanding():
            # Both connections idle at a pause: run the echo's closed
            # loop, then start both again.
            reference.closed(REFERENCE_CLOSED_SECONDS)
            now = time.perf_counter()
            pause_at = now + REFERENCE_EVERY_SECONDS
            for sock in socks:
                last_answer[sock] = now
                if traffic.alive(sock):
                    fire(sock)
            continue
        for answered in traffic.poll(deadline - now):
            sock = owner[answered]
            last_answer[sock] = traffic.requests[answered].received
            if traffic.alive(sock) and last_answer[sock] < min(deadline, pause_at):
                fire(sock)
    return start, deadline, reference.seconds


def _open_loop(traffic, sock, schedule, bodies, rid, seconds, trace, gaps, reference):
    interval = 1.0 / MIXED_RATE
    start = time.perf_counter() + 0.05
    offset = 0.0
    for index, (kind, program) in enumerate(schedule):
        if index and index % REFERENCE_EVERY_REQUESTS == 0:
            # Let the answers in flight arrive, run the echo's open loop
            # while the daemon idles, and shift the rest of the schedule
            # by the pause.
            paused = time.perf_counter()
            limit = paused + DRAIN_SECONDS
            while traffic.alive(sock) and traffic.outstanding(sock) and time.perf_counter() < limit:
                traffic.poll(limit - time.perf_counter())
            reference.open(REFERENCE_OPEN_REQUESTS, MIXED_RATE)
            offset += time.perf_counter() - paused
        due = start + index * interval + offset
        while True:
            now = time.perf_counter()
            if now >= due or not traffic.alive(sock):
                break
            traffic.poll(due - now)
        if not traffic.alive(sock):
            break
        rid += 1
        body = bodies.setdefault(program.name, program_json(program))
        # Trace every other block of 10, so both halves carry the same
        # request mix.
        traced = trace and (index // 10) % 2 == 1
        request = Request(program, kind, traced, due)
        traffic.send(sock, rid, request, request_line(rid, kind, body, traced, SIM_CAP))
        gaps.append(request.sent - due)
    return start, start + seconds + offset, offset


def _oversized_probe(daemon, options) -> str:
    """One solve line over 64 KiB on its own connection, after the window.

    Returns "ok" or the failure reason.  The outcome is reported beside
    the workload, not in its failed count: the daemon drops over-limit
    lines today (a known defect), and the workload's own operations
    must be ones that do not fail.
    """
    program, line = oversized_request()
    traffic = Traffic()
    try:
        sock = traffic.connect(daemon.address)
        traffic.send(sock, 1, Request(program, "solve", False, time.perf_counter()), line)
        deadline = time.perf_counter() + PROBE_SECONDS
        while traffic.alive(sock) and traffic.outstanding(sock) and time.perf_counter() < deadline:
            traffic.poll(deadline - time.perf_counter())
        traffic.drain(0.0)
    finally:
        traffic.close()
    checker = AnswerChecker(options, pin_table1=False)
    traffic.judge(checker)
    return next(iter(checker.failures), "ok")


def _distinct_programs(traffic, correct, limit):
    """(rid, program) of the first correct answer per program."""
    seen = {}
    for rid, request in traffic.requests.items():
        if correct[rid] and request.program.name not in seen:
            seen[request.program.name] = (rid, request.program)
    return list(seen.values())[:limit]


def _daemon_layers(result, traffic, recorder, rids, stats, traffic_rids=None,
                   account=True) -> None:
    """Self time per daemon span, IPC, and what the spans leave out.

    ``account`` reports how much of the client latency of
    ``traffic_rids`` (default: all traced) the daemon's phases cover.
    """
    roots = {}
    for rid in rids:
        tree = traffic.traces.get(rid)
        if tree:
            roots[rid] = recorder.adopt(rid, tree)
    selfs = recorder.self_ms(list(roots.values()))
    for span in ("decode", "fingerprint", "cache_lookup", "dispatch", "worker_solve",
                 "build_network", "race", "repair_inflation", "encode"):
        samples = selfs.get(span, [])
        result.put(f"service.daemon.{span}_ms", mean(samples), "ms", len(samples),
                   "self time per occurrence")
    ipc = []
    for root in roots.values():
        spans = {node.name: node for node, _ in root.walk()}
        if "dispatch" in spans and "worker_solve" in spans:
            ipc.append((spans["dispatch"].duration_ns - spans["worker_solve"].duration_ns) / 1e6)
    result.put("service.daemon.ipc_ms", mean(ipc), "ms", len(ipc), "dispatch minus worker_solve")
    measured = [r for r in (traffic_rids if traffic_rids is not None else roots) if r in roots]
    latency = {r: (traffic.requests[r].received - traffic.requests[r].sent) * 1e3 for r in measured}
    outside = [latency[r] - roots[r].duration_ns / 1e6 for r in measured]
    result.put("service.daemon.unaccounted_ms", mean(outside), "ms", len(outside),
               "client latency minus the daemon's request span")
    if account:
        inside = [(roots[r].duration_ns - roots[r].self_ns()) / 1e6 for r in measured]
        total = sum(latency.values())
        result.put("trace.accounted_frac", sum(inside) / total, "ratio", len(measured),
                   "daemon phase self times over client latency")
        result.put("trace.remainder_ms", (total - sum(inside)) / len(measured), "ms",
                   len(measured), "client latency outside the daemon's phases")
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    result.put("service.cache.hit_ratio", cache["hits"] / lookups, "ratio", lookups,
               "daemon stats: hits over lookups")
    for engine in ("native", "bitset", "numpy"):
        result.put(f"service.daemon.engine.{engine}", stats["engines"].get(engine, 0),
                   "count", 1, "misses served by engine (daemon stats)")


def _wire_layers(result, traffic, options, rids) -> None:
    lines, answers = [], []
    for rid in rids:
        request = traffic.requests[rid]
        answer = traffic.answer(rid)
        answer.pop("trace", None)
        lines.append(request_line(rid, request.kind, program_json(request.program), False, SIM_CAP))
        answers.append(answer)
    _put_all(result, layers.wire_layers(lines, answers, options))


def _put_all(result, metrics, note: str = "") -> None:
    for metric, (value, unit, count) in metrics.items():
        result.put(metric, value, unit, count, note)


def _close(result, checker) -> None:
    result.failures = dict(checker.failures)
    result.succeeded = result.sent - result.failed


WORKLOADS = {
    "optimize-paper": optimize_paper,
    "daemon-hit": daemon_hit,
    "daemon-mixed": daemon_mixed,
}
