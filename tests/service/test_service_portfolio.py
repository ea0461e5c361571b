"""Portfolio ladder: correctness vs single schemes, deadlines, caching."""

import asyncio
import time
from dataclasses import replace

import pytest

from repro.bench import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.csp.stats import SolverResult, SolverStats
from repro.csp.weighted import BranchAndBoundSolver
from repro.ir.parser import parse_program
from repro.opt.ladder import SCHEMES
from repro.opt.network_builder import BuildOptions, build_layout_network
from repro.obs import trace as obs_trace
from repro.opt.optimizer import LayoutOptimizer
from repro.service.cache import ResultCache
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.fingerprint import request_fingerprint
from repro.service.portfolio import (
    PortfolioConfig,
    PortfolioResult,
    PortfolioSolver,
    SchemeOutcome,
)
from repro.service.stream import layouts_from_wire, solve_request

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

#: How long a scheme that ignores its deadline sleeps; the deadline
#: tests assert completion in a fraction of this.
SLEEP_SECONDS = 20.0


class TestConfig:
    def test_parse(self):
        config = PortfolioConfig.parse("enhanced, cbj ,weighted", seed=3)
        assert config.schemes == ("enhanced", "cbj", "weighted")
        assert config.seed == 3

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown portfolio schemes"):
            PortfolioConfig(schemes=("enhanced", "quantum"))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PortfolioConfig(schemes=("enhanced", "enhanced"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PortfolioConfig(schemes=())

    def test_parse_rejects_duplicate_tokens(self):
        """Racing two copies of one scheme burns a process on an
        identical search; the CLI syntax rejects it with the tokens."""
        with pytest.raises(ValueError, match="duplicate scheme tokens"):
            PortfolioConfig.parse("min-conflicts, min-conflicts ,enhanced")
        with pytest.raises(ValueError, match="min-conflicts"):
            PortfolioConfig.parse("min-conflicts,min-conflicts")

    def test_scheme_seeds_are_distinct_per_position(self):
        config = PortfolioConfig(
            schemes=("enhanced", "cbj", "min-conflicts"), seed=7
        )
        seeds = [config.scheme_seed(i) for i in range(len(config.schemes))]
        assert len(set(seeds)) == len(seeds)
        # Index 0 keeps the base seed: a single-scheme portfolio stays
        # bit-compatible with running that scheme directly.
        assert seeds[0] == config.seed

    def test_race_hands_each_scheme_its_own_seed(self, monkeypatch):
        """Two randomized schemes must not take identical walks: the
        ladder derives one distinct RNG seed per position."""
        recorded: dict[str, int] = {}

        class _Recorder:
            def __init__(self, name):
                self.name = name

            def solve(self, network):
                return SolverResult(None, SolverStats(), complete=False)

        def factory(name):
            def make(seed):
                recorded[name] = seed
                return _Recorder(name)

            return make

        monkeypatch.setitem(SCHEMES, "rec-a", factory("rec-a"))
        monkeypatch.setitem(SCHEMES, "rec-b", factory("rec-b"))
        config = PortfolioConfig(schemes=("rec-a", "rec-b"), seed=11)
        PortfolioSolver(config).optimize(parse_program(FIGURE2))
        assert recorded["rec-a"] == 11
        assert recorded["rec-b"] != recorded["rec-a"]

    def test_token_ignores_latency_knobs(self):
        """The deadline changes speed, not answers: same key."""
        fast = PortfolioConfig(deadline_seconds=1.0)
        slow = PortfolioConfig(deadline_seconds=900.0)
        assert fast.token() == slow.token()
        other = PortfolioConfig(schemes=("enhanced",))
        assert fast.token() != other.token()

    def test_entry_under_the_race_token_is_a_miss(self):
        """Entries the former process race wrote (its ``winner`` hung
        on timing) sit under the old token string and are not served."""
        program = parse_program(FIGURE2)
        config = PortfolioConfig(schemes=("enhanced", "cbj"))
        fingerprint = request_fingerprint(program, BuildOptions())
        cache = ResultCache()
        stale = PortfolioSolver(config).optimize(program).to_dict()
        stale["winner"] = "cbj"
        cache.put(fingerprint, "portfolio[enhanced,cbj]seed=0", stale)
        assert config.token() != "portfolio[enhanced,cbj]seed=0"
        result = PortfolioSolver(config, cache=cache).optimize(program)
        assert not result.from_cache
        assert result.winner == "enhanced"
        assert cache.stats.misses == 1


class TestRacingCorrectness:
    @pytest.mark.parametrize("name", ["MxM", "Med-Im04"])
    def test_portfolio_equals_best_single_scheme(self, name):
        """The ladder's answer is the first scheme that solves exactly,
        so its layouts equal that single scheme's layouts exactly."""
        program = build_benchmark(name)
        options = benchmark_build_options()
        config = PortfolioConfig(schemes=("enhanced", "cbj", "weighted"))
        portfolio = PortfolioSolver(config, options=options).optimize(program)
        single = LayoutOptimizer(scheme="enhanced", options=options).optimize(
            program
        )
        assert portfolio.exact and single.exact
        assert portfolio.winner == "enhanced"
        assert portfolio.layouts == single.layouts

    def test_parallel_race_finds_exact_solution(self):
        """The default ladder answers a Table 1 program exactly."""
        program = build_benchmark("MxM")
        options = benchmark_build_options()
        config = PortfolioConfig(
            schemes=("enhanced", "cbj", "weighted"), deadline_seconds=120.0
        )
        result = PortfolioSolver(config, options=options).optimize(program)
        assert result.exact
        assert result.winner in config.schemes
        network = build_layout_network(program, options).network
        assignment = {
            variable: result.layouts[variable] for variable in network.variables
        }
        assert network.is_solution(assignment)
        assert {o.scheme for o in result.outcomes} <= set(config.schemes)

    def test_winner_row_is_marked_won(self):
        program = parse_program(FIGURE2)
        config = PortfolioConfig(schemes=("enhanced", "cbj"))
        result = PortfolioSolver(config).optimize(program)
        rows = {o.scheme: o.status for o in result.outcomes}
        assert rows[result.winner] == "won"
        assert rows["cbj"] == "skipped"

    def test_fresh_solvers_agree_and_match_enhanced(self):
        """The answer is a function of the request: eight fresh default
        ladders give one winner, one layout set and one status table
        per program, and the layouts are the enhanced scheme's."""
        options = benchmark_build_options()
        programs = [build_benchmark(name) for name in BENCHMARK_NAMES]
        programs += random_suite(40, 1)
        runs = []
        for _ in range(8):
            solver = PortfolioSolver(PortfolioConfig(), options=options)
            runs.append(
                [
                    (
                        result.winner,
                        result.layouts,
                        tuple((o.scheme, o.status) for o in result.outcomes),
                    )
                    for result in map(solver.optimize, programs)
                ]
            )
        assert all(run == runs[0] for run in runs[1:])
        enhanced = LayoutOptimizer("enhanced", options=options)
        for program, (_, layouts, _) in zip(programs, runs[0]):
            assert layouts == enhanced.optimize(program).layouts, program.name


class TestLadderSpans:
    def test_rung_spans_are_ordered_and_disjoint(self, cooperative_scheme):
        """Each rung runs inside its own real span under ``race``; a
        later rung starts only after the earlier one ended."""
        program = parse_program(FIGURE2)
        config = PortfolioConfig(
            schemes=(cooperative_scheme, "enhanced"), deadline_seconds=1.0
        )
        with obs_trace.recording("request") as root:
            result = PortfolioSolver(config).optimize(program)
        assert result.winner == "enhanced"
        race = root.find("race")
        rungs = [c for c in race.children if c.name.startswith("scheme:")]
        assert [r.name for r in rungs] == [
            f"scheme:{cooperative_scheme}",
            "scheme:enhanced",
        ]
        assert [r.attributes["status"] for r in rungs] == ["gave-up", "won"]
        assert rungs[0].end_ns <= rungs[1].start_ns
        assert race.start_ns <= rungs[0].start_ns
        assert rungs[1].end_ns <= race.end_ns
        assert "mode" not in race.attributes


class TestDeadlines:
    def test_deadline_terminates_the_race(self, cooperative_pair):
        """Both rungs give up inside a 1 s budget (each gets the
        remaining budget through ``set_deadline``), so the weighted
        fallback answers -- exactly -- in well under SLEEP_SECONDS."""
        program = parse_program(FIGURE2)
        config = PortfolioConfig(schemes=cooperative_pair, deadline_seconds=1.0)
        start = time.perf_counter()
        result = PortfolioSolver(config).optimize(program)
        elapsed = time.perf_counter() - start
        assert elapsed < SLEEP_SECONDS / 4
        statuses = {o.scheme: o.status for o in result.outcomes}
        assert statuses[cooperative_pair[0]] == "gave-up"
        assert statuses[cooperative_pair[1]] == "gave-up"
        assert result.winner == "weighted-fallback"
        assert result.exact  # figure 2's network is satisfiable
        assert set(result.layouts) == {"Q1", "Q2"}


class TestCachingIntegration:
    def test_second_request_is_served_from_cache(self):
        program = parse_program(FIGURE2)
        cache = ResultCache()
        solver = PortfolioSolver(
            PortfolioConfig(schemes=("enhanced",)), cache=cache
        )
        first = solver.optimize(program)
        second = solver.optimize(program)
        assert not first.from_cache
        assert second.from_cache
        assert second.layouts == first.layouts
        assert second.winner == first.winner
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_non_exact_results_are_not_cached(self, monkeypatch):
        """Best-effort answers are deadline-shaped; caching one would
        freeze it even for retries with a bigger budget."""
        monkeypatch.setitem(SCHEMES, "partial", lambda seed: _PartialWeighted())
        program = parse_program(FIGURE2)
        cache = ResultCache()
        solver = PortfolioSolver(
            PortfolioConfig(schemes=("partial",)), cache=cache
        )
        result = solver.optimize(program)
        assert result.winner == "partial"
        assert not result.exact
        assert len(cache) == 0

    def test_cache_hit_reports_the_requesters_program_name(self):
        """Fingerprints ignore names: a renamed twin is served from
        cache but reported under its own name."""
        cache = ResultCache()
        solver = PortfolioSolver(
            PortfolioConfig(schemes=("enhanced",)), cache=cache
        )
        solver.optimize(parse_program(FIGURE2, name="original"))
        twin = solver.optimize(parse_program(FIGURE2, name="renamed-twin"))
        assert twin.from_cache
        assert twin.program == "renamed-twin"

    def test_result_roundtrips_through_serialization(self):
        program = parse_program(FIGURE2)
        solver = PortfolioSolver(
            PortfolioConfig(schemes=("enhanced", "weighted"))
        )
        result = solver.optimize(program)
        clone = PortfolioResult.from_dict(result.to_dict(), from_cache=True)
        assert clone.layouts == result.layouts
        assert clone.winner == result.winner
        assert clone.exact == result.exact
        assert [o.scheme for o in clone.outcomes] == [
            o.scheme for o in result.outcomes
        ]
        assert clone.winner_stats().nodes == result.winner_stats().nodes


class TestOptimizerIntegration:
    def test_portfolio_scheme_string(self):
        program = parse_program(FIGURE2)
        outcome = LayoutOptimizer(scheme="portfolio:enhanced,cbj").optimize(
            program
        )
        assert outcome.scheme.startswith("portfolio:")
        assert outcome.exact

    def test_portfolio_config_instance(self):
        program = parse_program(FIGURE2)
        config = PortfolioConfig(schemes=("enhanced",))
        outcome = LayoutOptimizer(scheme=config).optimize(program)
        assert outcome.scheme == "portfolio:enhanced"
        assert outcome.exact


class _CooperativeSleeper:
    """Sleeps SLEEP_SECONDS *unless* a deadline was propagated to it.

    The observable for deadline propagation: with it, the solver stops
    itself and reports "gave-up"; without it, the ladder would block
    for the full SLEEP_SECONDS.
    """

    name = "cooperative"

    def __init__(self):
        self.deadline_seconds = None

    def set_deadline(self, seconds: float) -> None:
        self.deadline_seconds = seconds

    def solve(self, network) -> SolverResult:
        if self.deadline_seconds is None:
            time.sleep(SLEEP_SECONDS)
            return SolverResult(None, SolverStats(), complete=False)
        # Honor the budget with slack to spare: stop at 20% of it.
        deadline_at = time.monotonic() + self.deadline_seconds * 0.2
        while time.monotonic() < deadline_at:
            time.sleep(0.01)
        return SolverResult(None, SolverStats(), complete=False)


class _PartialWeighted(BranchAndBoundSolver):
    """A weighted rung whose best answer misses some constraint weight."""

    def solve_compiled(self, kernel, weights=None, default_weight=1.0):
        result = super().solve_compiled(kernel, weights, default_weight)
        return replace(result, satisfied_weight=result.optimal_weight - 1.0)


@pytest.fixture
def cooperative_scheme(monkeypatch):
    monkeypatch.setitem(SCHEMES, "cooperative", lambda seed: _CooperativeSleeper())
    return "cooperative"


@pytest.fixture
def cooperative_pair(monkeypatch):
    names = ("cooperative-a", "cooperative-b")
    for name in names:
        monkeypatch.setitem(SCHEMES, name, lambda seed: _CooperativeSleeper())
    return names


class TestDeadlinePropagation:
    def test_sequential_scheme_stops_itself(self, cooperative_scheme):
        """The ladder forwards the remaining budget into the scheme,
        which stops mid-search instead of burning its full solve."""
        program = parse_program(FIGURE2)
        config = PortfolioConfig(
            schemes=(cooperative_scheme, "enhanced"),
            deadline_seconds=2.0,
        )
        start = time.perf_counter()
        result = PortfolioSolver(config).optimize(program)
        elapsed = time.perf_counter() - start
        assert elapsed < SLEEP_SECONDS / 2
        statuses = {o.scheme: o.status for o in result.outcomes}
        assert statuses[cooperative_scheme] == "gave-up"
        # The fast scheme still ran inside the same budget.
        assert result.winner == "enhanced"

    def test_every_rung_receives_the_deadline(self, monkeypatch):
        """Each rung is handed the budget that remains when it starts:
        both cooperative rungs give up on their own and the second one
        sees a smaller budget than the first."""
        sleepers: dict[str, _CooperativeSleeper] = {}
        names = ("cooperative-a", "cooperative-b")
        for name in names:
            monkeypatch.setitem(
                SCHEMES,
                name,
                lambda seed, name=name: sleepers.setdefault(
                    name, _CooperativeSleeper()
                ),
            )
        program = parse_program(FIGURE2)
        config = PortfolioConfig(schemes=names, deadline_seconds=5.0)
        start = time.perf_counter()
        result = PortfolioSolver(config).optimize(program)
        elapsed = time.perf_counter() - start
        assert elapsed < SLEEP_SECONDS / 2
        statuses = {o.scheme: o.status for o in result.outcomes}
        assert statuses[names[0]] == "gave-up"
        assert statuses[names[1]] == "gave-up"
        assert result.winner == "weighted-fallback"
        first = sleepers[names[0]].deadline_seconds
        second = sleepers[names[1]].deadline_seconds
        assert 0 < second < first <= 5.0


class TestSinglePath:
    """The portfolio is a cache in front of ``LayoutOptimizer``'s
    pipeline: both give one answer, and so does the daemon."""

    def test_portfolio_solver_matches_layout_optimizer(self):
        options = benchmark_build_options()
        programs = [build_benchmark(name) for name in BENCHMARK_NAMES]
        programs += random_suite(40, 1)
        config = PortfolioConfig()
        solver = PortfolioSolver(config, options=options)
        optimizer = LayoutOptimizer(config, options=options)
        for program in programs:
            result = solver.optimize(program)
            outcome = optimizer.optimize(program)
            assert result.layouts == outcome.layouts, program.name
            assert result.exact == outcome.exact
            assert outcome.scheme == f"portfolio:{result.winner}"
            assert outcome.ladder.winner == result.winner
            winner = result.winner_stats()
            assert (
                winner.nodes,
                winner.consistency_checks,
                winner.backtracks,
            ) == (
                outcome.stats.nodes,
                outcome.stats.consistency_checks,
                outcome.stats.backtracks,
            )

    def test_daemon_solve_reply_carries_the_optimizer_layouts(self):
        options = benchmark_build_options()
        config = PortfolioConfig()
        programs = [build_benchmark(name) for name in BENCHMARK_NAMES[:2]]
        programs += random_suite(3, 1)
        daemon = SolverDaemon(
            config, options=options, daemon_config=DaemonConfig(workers=1)
        )

        async def serve():
            return [
                await daemon.handle_request(solve_request(p, index))
                for index, p in enumerate(programs)
            ]

        try:
            replies = asyncio.run(serve())
        finally:
            daemon.close()
        optimizer = LayoutOptimizer(config, options=options)
        for program, reply in zip(programs, replies):
            assert reply["ok"], reply
            outcome = optimizer.optimize(program)
            assert layouts_from_wire(reply["result"]["layouts"]) == outcome.layouts
            assert reply["result"]["winner"] == outcome.ladder.winner
