"""The scheme ladder's rules: deadlines, rung errors, the fallback."""

import asyncio

import pytest

from repro.csp.enhanced import EnhancedSolver
from repro.csp.stats import SolverResult, SolverStats
from repro.ir.parser import parse_program
from repro.opt.ladder import FALLBACK, SCHEMES, PortfolioConfig
from repro.opt.optimizer import LayoutOptimizer
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.stream import INTERNAL, solve_request

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


class _DeadlineProbe:
    """The enhanced scheme, remembering every deadline it was handed."""

    deadlines: list = []

    def set_deadline(self, seconds: float) -> None:
        _DeadlineProbe.deadlines.append(seconds)

    def solve(self, network) -> SolverResult:
        return EnhancedSolver().solve(network)


class _Boom:
    def solve(self, network) -> SolverResult:
        raise RuntimeError("rung exploded")


class _GiveUp:
    def solve(self, network) -> SolverResult:
        return SolverResult(None, SolverStats(), complete=False)


@pytest.fixture
def fakes(monkeypatch):
    _DeadlineProbe.deadlines = []
    monkeypatch.setitem(SCHEMES, "probe", lambda seed: _DeadlineProbe())
    monkeypatch.setitem(SCHEMES, "boom", lambda seed: _Boom())
    monkeypatch.setitem(SCHEMES, "give-up", lambda seed: _GiveUp())


def _rows(outcome):
    return [(row.scheme, row.status) for row in outcome.ladder.outcomes]


class TestDeadlines:
    def test_direct_scheme_runs_without_a_deadline(self, fakes):
        outcome = LayoutOptimizer(scheme="probe").optimize(parse_program(FIGURE2))
        assert outcome.exact
        assert _DeadlineProbe.deadlines == []
        assert _rows(outcome) == [("probe", "won")]

    def test_portfolio_rung_gets_the_remaining_budget(self, fakes):
        config = PortfolioConfig(schemes=("probe",), deadline_seconds=30.0)
        LayoutOptimizer(config).optimize(parse_program(FIGURE2))
        assert len(_DeadlineProbe.deadlines) == 1
        assert 0 < _DeadlineProbe.deadlines[0] <= 30.0


class TestRungErrors:
    def test_raising_rung_leaves_an_error_row_and_a_later_rung_wins(self, fakes):
        config = PortfolioConfig(schemes=("boom", "enhanced"))
        outcome = LayoutOptimizer(config).optimize(parse_program(FIGURE2))
        assert outcome.exact
        assert outcome.scheme == "portfolio:enhanced"
        assert _rows(outcome) == [("boom", "error"), ("enhanced", "won")]
        assert "rung exploded" in outcome.ladder.outcomes[0].detail

    def test_no_answer_and_a_raise_propagates_the_exception(self, fakes):
        """The weighted fallback answers only when no rung raised."""
        config = PortfolioConfig(schemes=("boom", "give-up"))
        with pytest.raises(RuntimeError, match="rung exploded"):
            LayoutOptimizer(config).optimize(parse_program(FIGURE2))

    def test_direct_scheme_that_raises_propagates(self, fakes):
        with pytest.raises(RuntimeError, match="rung exploded"):
            LayoutOptimizer(scheme="boom").optimize(parse_program(FIGURE2))

    def test_no_answer_without_a_raise_falls_back(self, fakes):
        config = PortfolioConfig(schemes=("give-up",))
        outcome = LayoutOptimizer(config).optimize(parse_program(FIGURE2))
        assert outcome.exact  # figure 2's network is satisfiable
        assert outcome.scheme == f"portfolio:{FALLBACK}"
        assert _rows(outcome) == [("give-up", "gave-up"), (FALLBACK, "won")]

    def test_daemon_answers_internal_when_every_rung_failed_and_one_raised(
        self, fakes
    ):
        daemon = SolverDaemon(
            PortfolioConfig(schemes=("boom", "give-up")),
            daemon_config=DaemonConfig(workers=1),
        )
        program = parse_program(FIGURE2)
        try:
            reply = asyncio.run(daemon.handle_request(solve_request(program, 7)))
        finally:
            daemon.close()
        assert not reply["ok"]
        assert reply["id"] == 7
        assert reply["reason"] == INTERNAL
        assert "rung exploded" in reply["error"]
