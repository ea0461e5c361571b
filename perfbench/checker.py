"""Independent answer checking and failure accounting.

Nothing the program reports is trusted.  The five Table 1 programs
must reproduce the recorded layouts in
``scripts/pipeline_expectations.json`` (read only).  Every other exact
answer must satisfy ``ConstraintNetwork.is_solution`` on a network the
benchmark builds itself, and every answer for a program must agree
with the first answer seen for it in the run.
"""

from __future__ import annotations

import json
from collections import Counter

from perfbench.common import EXPECTATIONS

#: Failure reasons, counted against operations attempted.
WRONG = "wrong_answer"
DISAGREE = "disagreement"
ERROR = "error_response"
TIMEOUT = "timeout"
DROPPED = "dropped_connection"


class AnswerChecker:
    """Checks layouts answers; counts failures by reason.

    Args:
        options: the build options the program optimizes under (the
            benchmark builds its reference networks with the same).
        pin_table1: compare the Table 1 programs with the recorded
            expectations (the in-process ``enhanced`` path; the daemon
            races a portfolio whose winner may pick another solution).
    """

    def __init__(self, options, pin_table1: bool):
        self._options = options
        self._expected = {}
        if pin_table1:
            recorded = json.loads(EXPECTATIONS.read_text())["programs"]
            self._expected = {
                name: _canonical(entry["layouts"]) for name, entry in recorded.items()
            }
        self._networks: dict[str, object] = {}
        self._first: dict[tuple, tuple] = {}
        self._verdicts: dict[tuple[str, str, bool], str | None] = {}
        self.failures: Counter = Counter()

    def network(self, program):
        """The benchmark's own constraint network for a program."""
        network = self._networks.get(program.name)
        if network is None:
            from repro.opt.network_builder import build_layout_network

            network = build_layout_network(program, self._options).network
            self._networks[program.name] = network
        return network

    def verdict(
        self, program, layouts_wire, exact: bool, variant: str = "", extra=None
    ) -> str | None:
        """None when the answer is right, else the failure reason.

        The first answer seen for a (program, variant) becomes the one
        later answers must agree with, ``extra`` (an evaluate's score)
        included; failures are counted by :meth:`check`.
        """
        canonical = _canonical(layouts_wire)
        first = self._first.setdefault(
            (program.name, variant), (canonical, bool(exact), extra)
        )
        if first != (canonical, bool(exact), extra):
            return DISAGREE
        key = (program.name, canonical, bool(exact))
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(program, layouts_wire, canonical, exact)
        return self._verdicts[key]

    def check(
        self, program, layouts_wire, exact: bool, count: int = 1,
        variant: str = "", extra=None,
    ) -> bool:
        """Judge an answer given ``count`` times; count its failures."""
        reason = self.verdict(program, layouts_wire, exact, variant, extra)
        if reason is not None:
            self.failures[reason] += count
        return reason is None

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures[reason] += count

    def _judge(self, program, layouts_wire, canonical: str, exact: bool) -> str | None:
        from repro.service.stream import ProtocolError, layouts_from_wire

        expected = self._expected.get(program.name)
        if expected is not None and expected != canonical:
            return WRONG
        try:
            layouts = layouts_from_wire(layouts_wire)
        except (ProtocolError, ValueError):
            return WRONG
        for decl in program.arrays:
            layout = layouts.get(decl.name)
            if layout is None or layout.dimension != decl.rank:
                return WRONG
        network = self.network(program)
        assignment = {name: layouts[name] for name in network.variables}
        if exact:
            return None if network.is_solution(assignment) else WRONG
        # A best-effort (weighted fallback) answer still has to pick
        # every layout from its array's domain.
        for name, value in assignment.items():
            if value not in network.domain(name):
                return WRONG
        return None


def _canonical(layouts_wire) -> str:
    return json.dumps(layouts_wire, sort_keys=True, separators=(",", ":"))
