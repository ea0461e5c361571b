#!/usr/bin/env python
"""CI smoke check for the optimizer pass pipeline.

Four gates, all over the five paper programs:

* **Default-pipeline equivalence** -- runs each program through
  ``LayoutOptimizer``'s default pipeline and asserts layouts, solver
  effort counters and exactness are byte-identical to the recorded
  seed expectations in ``scripts/pipeline_expectations.json`` (the
  pre-refactor monolith's outcomes).  A drift here means the pass
  refactor changed observable solver behavior.
* **Default-ladder equivalence** -- runs each program through the
  default scheme ladder (``PortfolioSolver(PortfolioConfig())``) and
  asserts the winner, the per-rung status table, the layouts and the
  winner's nodes, checks and backtracks match the ``"ladder"`` entries
  of the same expectations file exactly.
* **Table 3 cycles** -- simulates each program's original (row-major),
  heuristic and enhanced layouts the way ``benchmarks/conftest.py``'s
  ``simulations`` fixture does and asserts the cycle counts match the
  ``"table3"`` entries exactly (the enhanced counts sum to perfbench's
  ``sim_cycles``).  The base scheme stays out: CI runs it only at a
  node cap.
* **Extended-pipeline composition** -- reruns each program through a
  reordered/extended pipeline (``build, solve, repair, joint,
  dynamic, transform``) under span recording, asserting it completes,
  every pass emitted its ``pass:<name>`` span and timing, the joint
  pass never scores worse than the default's analytic cost, and the
  dynamic pass planned a schedule for every referenced array.

Usage::

    python scripts/pipeline_smoke.py            # check against expectations
    python scripts/pipeline_smoke.py --record   # (re)write the expectations

Exits non-zero with a diagnostic on any violation, so a CI job can
gate on it directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.bench.programs import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
)
from repro.csp.enhanced import EnhancedSolver
from repro.eval import AnalyticCostModel
from repro.layout.layout import row_major
from repro.obs import trace as obs_trace
from repro.opt.heuristic import HeuristicOptimizer
from repro.opt.network_builder import build_layout_network
from repro.opt.optimizer import LayoutOptimizer, repair_inflation, select_transforms
from repro.service.portfolio import PortfolioConfig, PortfolioSolver
from repro.service.stream import layouts_to_wire
from repro.simul.executor import simulate_program

EXPECTATIONS = Path(__file__).with_name("pipeline_expectations.json")

#: The reordered/extended pipeline of gate (b).
EXTENDED_PASSES = ("build", "solve", "repair", "joint", "dynamic", "transform")

#: Solver seed of the Table 3 gate (``HARNESS_SEED`` of the benchmarks).
TABLE3_SEED = 1


def _outcome_record(outcome) -> dict:
    counters = outcome.stats.as_dict()
    counters.pop("time_seconds", None)
    return {
        "scheme": outcome.scheme,
        "exact": outcome.exact,
        "layouts": layouts_to_wire(outcome.layouts),
        "stats": counters,
    }


def _default_outcomes() -> dict:
    options = benchmark_build_options()
    records = {}
    for name in BENCHMARK_NAMES:
        optimizer = LayoutOptimizer(scheme="enhanced", seed=0, options=options)
        records[name] = _outcome_record(optimizer.optimize(build_benchmark(name)))
    return records


def _ladder_outcomes() -> dict:
    solver = PortfolioSolver(PortfolioConfig(), options=benchmark_build_options())
    records = {}
    for name in BENCHMARK_NAMES:
        result = solver.optimize(build_benchmark(name))
        stats = result.winner_stats()
        records[name] = {
            "winner": result.winner,
            "table": [[row.scheme, row.status] for row in result.outcomes],
            "layouts": layouts_to_wire(result.layouts),
            "effort": [stats.nodes, stats.consistency_checks, stats.backtracks],
        }
    return records


def _table3_cycles() -> dict:
    """Simulated cycles per program: original, heuristic, enhanced."""
    options = benchmark_build_options()
    records = {}
    for name in BENCHMARK_NAMES:
        program = build_benchmark(name)
        network = build_layout_network(program, options).network
        enhanced = dict(EnhancedSolver(seed=TABLE3_SEED).solve(network).assignment)
        repair_inflation(network, enhanced, program)
        for decl in program.arrays:
            enhanced.setdefault(decl.name, row_major(decl.rank))
        heuristic = HeuristicOptimizer(
            options.include_reversals, options.skew_factors
        ).optimize(program).layouts
        original = {decl.name: row_major(decl.rank) for decl in program.arrays}
        cycles = {"original": simulate_program(program, original).cycles}
        for version, layouts in (("heuristic", heuristic), ("enhanced", enhanced)):
            transforms = select_transforms(
                program, layouts, options.include_reversals, options.skew_factors
            )
            cycles[version] = simulate_program(
                program, layouts, transforms=transforms
            ).cycles
        records[name] = cycles
    return records


def record() -> int:
    EXPECTATIONS.write_text(
        json.dumps(
            {
                "scheme": "enhanced",
                "seed": 0,
                "programs": _default_outcomes(),
                "ladder": _ladder_outcomes(),
                "table3": _table3_cycles(),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"recorded expectations for {len(BENCHMARK_NAMES)} programs "
          f"-> {EXPECTATIONS}")
    return 0


def check_default_pipeline() -> int:
    if not EXPECTATIONS.exists():
        print(f"FAIL: no expectations file at {EXPECTATIONS}; "
              "run with --record first")
        return 1
    expected = json.loads(EXPECTATIONS.read_text())["programs"]
    failures = 0
    for name, got in _default_outcomes().items():
        want = expected.get(name)
        if want is None:
            print(f"FAIL: {name}: no recorded expectation")
            failures += 1
            continue
        drifted = [
            field
            for field in ("scheme", "exact", "layouts", "stats")
            if got[field] != want[field]
        ]
        for field in drifted:
            print(f"FAIL: {name}: {field} drifted from seed expectation\n"
                  f"  want: {want[field]}\n  got:  {got[field]}")
        failures += len(drifted)
        if not drifted:
            print(f"ok: {name}: default pipeline byte-identical "
                  f"({'exact' if got['exact'] else 'best-effort'}, "
                  f"{len(got['layouts'])} arrays)")
    return failures


def check_default_ladder() -> int:
    expected = json.loads(EXPECTATIONS.read_text()).get("ladder")
    if expected is None:
        print(f"FAIL: no ladder expectations in {EXPECTATIONS}; "
              "run with --record first")
        return 1
    failures = 0
    for name, got in _ladder_outcomes().items():
        want = expected.get(name)
        if want is None:
            print(f"FAIL: {name}: no recorded ladder expectation")
            failures += 1
            continue
        drifted = [field for field in want if got[field] != want[field]]
        for field in drifted:
            print(f"FAIL: {name}: ladder {field} drifted from expectation\n"
                  f"  want: {want[field]}\n  got:  {got[field]}")
        failures += len(drifted)
        if not drifted:
            print(f"ok: {name}: default ladder identical "
                  f"(winner {got['winner']}, {len(got['table'])} rungs)")
    return failures


def check_table3() -> int:
    expected = json.loads(EXPECTATIONS.read_text()).get("table3")
    if expected is None:
        print(f"FAIL: no table3 expectations in {EXPECTATIONS}; "
              "run with --record first")
        return 1
    failures = 0
    for name, got in _table3_cycles().items():
        want = expected.get(name)
        if got != want:
            print(f"FAIL: {name}: Table 3 cycles drifted from expectation\n"
                  f"  want: {want}\n  got:  {got}")
            failures += 1
        else:
            print(f"ok: {name}: Table 3 cycles identical "
                  f"(enhanced {got['enhanced']:,})")
    return failures


def check_extended_pipeline() -> int:
    options = benchmark_build_options()
    analytic = AnalyticCostModel()
    failures = 0
    for name in BENCHMARK_NAMES:
        program = build_benchmark(name)
        default = LayoutOptimizer(
            scheme="enhanced", seed=0, options=options
        ).optimize(program)
        sequential = analytic.score(
            program, default.layouts, default.transforms
        ).value
        with obs_trace.recording(f"pipeline:{name}") as root:
            outcome = LayoutOptimizer(
                scheme="enhanced",
                seed=0,
                options=options,
                passes=list(EXTENDED_PASSES),
            ).optimize(program)
        problems = []
        for pass_name in EXTENDED_PASSES:
            if root.find(f"pass:{pass_name}") is None:
                problems.append(f"missing span pass:{pass_name}")
            if pass_name not in outcome.pass_seconds:
                problems.append(f"missing timing for pass {pass_name!r}")
        if outcome.cost is None or outcome.cost.value > sequential:
            problems.append(
                f"joint cost {outcome.cost and outcome.cost.value} worse "
                f"than sequential default {sequential}"
            )
        if outcome.dynamic is None or set(outcome.dynamic) != set(
            program.referenced_arrays()
        ):
            problems.append("dynamic pass planned no full schedule set")
        if outcome.transforms is None:
            problems.append("no transforms in the outcome")
        if problems:
            failures += len(problems)
            for problem in problems:
                print(f"FAIL: {name}: {problem}")
        else:
            joint_gain = (
                100.0 * (sequential - outcome.cost.value) / sequential
                if sequential
                else 0.0
            )
            print(f"ok: {name}: extended pipeline "
                  f"[{', '.join(EXTENDED_PASSES)}] complete, "
                  f"joint analytic gain {joint_gain:.2f}%, "
                  f"{sum(p.changes for p in outcome.dynamic.values())} "
                  f"dynamic changes")
    return failures


def main(argv) -> int:
    if "--record" in argv:
        return record()
    failures = check_default_pipeline()
    if failures:  # a missing expectations file fails once, not per gate
        print(f"pipeline smoke: {failures} failure(s)")
        return 1
    failures += check_default_ladder()
    failures += check_table3()
    failures += check_extended_pipeline()
    if failures:
        print(f"pipeline smoke: {failures} failure(s)")
        return 1
    print("pipeline smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
