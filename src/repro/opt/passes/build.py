"""Network-construction pass: program -> constraint network + kernel."""

from __future__ import annotations

from repro.obs import trace as obs_trace
from repro.opt.network_builder import build_layout_network
from repro.opt.passes.base import PipelineContext


class BuildNetworkPass:
    """Build the layout constraint network and compile its kernel.

    Every rung of the solve pass's ladder solves this one kernel.
    """

    name = "build"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ("network", "kernel")

    def run(self, ctx: PipelineContext) -> None:
        if ctx.network is not None:  # a custom pipeline already built it
            return
        with obs_trace.span("build_network"):
            ctx.network = build_layout_network(ctx.program, ctx.options)
            ctx.kernel = ctx.network.kernel()
