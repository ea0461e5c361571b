"""Network-construction pass: program -> constraint network + kernel."""

from __future__ import annotations

from repro.obs import trace as obs_trace
from repro.opt.network_builder import build_layout_network
from repro.opt.passes.base import PipelineContext


class BuildNetworkPass:
    """Build the layout constraint network and compile its kernel.

    On the portfolio path this is a no-op: :class:`SolvePass` delegates
    to the service layer's :class:`~repro.service.PortfolioSolver`,
    which builds (and memoizes) its own networks so its ladder rungs
    and the result cache share one construction.
    """

    name = "build"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ("network", "kernel")

    def __init__(self, optimizer=None):
        self._optimizer = optimizer

    def run(self, ctx: PipelineContext) -> None:
        if (
            self._optimizer is not None
            and self._optimizer.portfolio_config is not None
        ):
            return
        if ctx.network is not None:  # a custom pipeline already built it
            return
        with obs_trace.span("build_network"):
            ctx.network = build_layout_network(ctx.program, ctx.options)
            ctx.kernel = ctx.network.kernel()
