"""Per-layer timing: the public function of each layer, timed by the
benchmark on the workload's own inputs.

Each workload runs only some layers on its blocking path (the
in-process optimizer never touches the wire; a daemon cache hit never
reaches the solver).  So that every per-layer metric is reported on
every workload, the traced run also replays the workload's programs
through the layers its traffic does not reach, and says so in the
report: a layer time then answers "what would this layer cost on
these inputs", not "what did it cost on this workload's path".
"""

from __future__ import annotations

import time

from perfbench.common import mean
from perfbench.tracing import Recorder, patched

#: Span name (recorded around the layer's public function) -> metric.
PIPELINE_SPANS = {
    "opt.build": "opt.build_ms",
    "csp.compile": "csp.compile_ms",
    "csp.solve": "csp.solve_ms",
    "opt.repair": "opt.repair_ms",
    "transform.select": "transform.select_ms",
}
PASSES = ("build", "solve", "repair", "transform")


def pipeline_targets():
    """(owner, attribute, span) for each optimizer layer's entry point.

    Patched where the pass pipeline looks them up, so the real
    ``LayoutOptimizer.optimize`` calls run through the timers.
    """
    from repro.csp.enhanced import EnhancedSolver
    from repro.opt import network_builder
    from repro.opt.passes import build as build_pass
    from repro.opt.passes import solve as solve_pass
    from repro.opt.passes import transforms as transform_pass

    return [
        (build_pass, "build_layout_network", "opt.build"),
        # build_layout_network compiles eagerly (LayoutNetwork.kernel()
        # then returns the compiled form), so time the compiler itself.
        (network_builder, "compile_network", "csp.compile"),
        (EnhancedSolver, "solve", "csp.solve"),
        (solve_pass, "repair_inflation", "opt.repair"),
        (transform_pass, "select_transforms", "transform.select"),
    ]


class PipelineTimes:
    """Accumulates traced ``optimize`` calls into layer metrics."""

    def __init__(self):
        self.recorder = Recorder()
        self.latency_ms: list[float] = []
        self.pass_ms = {name: [] for name in PASSES}
        self.counts = {"csp.nodes": 0, "csp.checks": 0, "csp.backtracks": 0}
        self._counted: set[str] = set()

    def optimize(self, optimizer, program, rid):
        """One traced optimize call; the caller holds :func:`patched`."""
        with self.recorder.request(rid, "optimize"):
            start = time.perf_counter()
            outcome = optimizer.optimize(program)
            self.latency_ms.append((time.perf_counter() - start) * 1e3)
        for name in PASSES:
            self.pass_ms[name].append(outcome.pass_seconds.get(name, 0.0) * 1e3)
        if program.name not in self._counted:
            # Effort of one solve per distinct program: exact, so it
            # repeats run to run and can be compared between commits.
            self._counted.add(program.name)
            self.counts["csp.nodes"] += outcome.stats.nodes
            self.counts["csp.checks"] += outcome.stats.consistency_checks
            self.counts["csp.backtracks"] += outcome.stats.backtracks
        return outcome

    def metrics(self) -> dict:
        calls = len(self.latency_ms)
        selfs = self.recorder.self_ms()
        out = {}
        for span, metric in PIPELINE_SPANS.items():
            out[metric] = (sum(selfs.get(span, ())) / calls, "ms", calls)
        for name in PASSES:
            out[f"opt.pass_ms.{name}"] = (mean(self.pass_ms[name]), "ms", calls)
        for name, value in self.counts.items():
            out[name] = (value, "count", len(self._counted))
        return out

    def accounting(self) -> tuple[float, float, int]:
        """(share of latency in layer self time, remainder ms/call, calls)."""
        selfs = self.recorder.self_ms()
        layers = sum(sum(selfs.get(span, ())) for span in PIPELINE_SPANS)
        total = sum(self.latency_ms)
        calls = len(self.latency_ms)
        return layers / total, (total - layers) / calls, calls


def replay_pipeline(programs, options) -> PipelineTimes:
    """Traced in-process optimize of each program once."""
    from repro.opt.optimizer import LayoutOptimizer

    optimizer = LayoutOptimizer(scheme="enhanced", options=options)
    times = PipelineTimes()
    with patched(times.recorder, pipeline_targets()):
        for index, program in enumerate(programs):
            times.optimize(optimizer, program, f"replay-{index}")
    return times


def wire_layers(lines, answers, options, repeats: int = 3) -> dict:
    """Decode, fingerprint, cache and encode on exact request bytes.

    ``lines`` are request lines as sent; ``answers`` the matching
    response objects.  The cache is a memory-only
    ``ShardedResultCache`` with the daemon's default shape.
    """
    from repro.service.cache import ShardedResultCache
    from repro.service.fingerprint import request_fingerprint
    from repro.service.portfolio import PortfolioConfig
    from repro.service.stream import decode_request, encode_response, program_from_wire

    token = PortfolioConfig().token()
    cache = ShardedResultCache()
    clock = time.perf_counter
    samples = {name: [] for name in ("decode", "fingerprint", "put", "get", "encode")}
    for line, answer in zip(lines, answers):
        for _ in range(repeats):
            t0 = clock()
            program = program_from_wire(decode_request(line)["program"])
            t1 = clock()
            fingerprint = request_fingerprint(program, options)
            t2 = clock()
            cache.put(fingerprint, token, answer["result"])
            t3 = clock()
            cache.get(fingerprint, token)
            t4 = clock()
            encode_response(answer)
            t5 = clock()
            for name, seconds in zip(
                samples, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)
            ):
                samples[name].append(seconds * 1e3)
    count = len(samples["decode"])
    return {
        "service.stream.decode_ms": (mean(samples["decode"]), "ms", count),
        "service.fingerprint.request_ms": (mean(samples["fingerprint"]), "ms", count),
        "service.cache.put_ms": (mean(samples["put"]), "ms", count),
        "service.cache.get_ms": (mean(samples["get"]), "ms", count),
        "service.stream.encode_ms": (mean(samples["encode"]), "ms", count),
    }


def portfolio_layer(programs, options, checker) -> dict:
    """``PortfolioSolver(PortfolioConfig()).optimize`` per program;
    each answer is checked like any other."""
    from repro.service.portfolio import PortfolioConfig, PortfolioSolver
    from repro.service.stream import layouts_to_wire

    solver = PortfolioSolver(PortfolioConfig(), options=options)
    samples = []
    for program in programs:
        start = time.perf_counter()
        result = solver.optimize(program)
        samples.append((time.perf_counter() - start) * 1e3)
        checker.check(
            program, layouts_to_wire(result.layouts), result.exact, variant="portfolio"
        )
    return {"service.portfolio.optimize_ms": (mean(samples), "ms", len(samples))}


def table1_cycles(programs, layouts_by_name, options, transforms_by_name=None):
    """Table 3: simulated cycles of the Table 1 programs, summed.

    Transforms default to the program's own ``select_transforms`` for
    the given layouts (the daemon answers with layouts only).
    Returns (cycles, mean simulate ms, programs simulated).
    """
    from repro.opt.passes.transforms import select_transforms
    from repro.service.stream import layouts_from_wire
    from repro.simul.executor import simulate_program

    total, times = 0, []
    for program in programs:
        layouts = layouts_from_wire(layouts_by_name[program.name])
        if transforms_by_name is not None:
            transforms = transforms_by_name[program.name]
        else:
            transforms = select_transforms(
                program, layouts, options.include_reversals, options.skew_factors
            )
        start = time.perf_counter()
        total += simulate_program(program, layouts, transforms).cycles
        times.append((time.perf_counter() - start) * 1e3)
    return total, mean(times), len(times)
