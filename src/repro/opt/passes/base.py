"""The pass-pipeline substrate: context, protocol, runner, registry.

The optimizer used to be one monolithic façade interleaving every
phase of the paper's pipeline (build the constraint network, solve it,
repair the solution, pick loop restructurings, optionally refine
against the simulator).  Here each phase is a first-class *pass*: a
named object with declared inputs/outputs that reads and writes one
shared :class:`PipelineContext`.  The :class:`Pipeline` runner threads
the context through the passes in order, wrapping every pass in its
own observability span (``pass:<name>``) and recording its wall clock
into the ``repro_pass_seconds{pass}`` histogram and the context's
``pass_seconds`` table -- so "where did this optimize() call's time
go?" is answerable per pass, locally and in daemon ``stats``.

Passes are composable and reorderable: the default pipeline reproduces
the classic façade byte for byte, while opt-in passes
(:class:`~repro.opt.passes.joint.JointSearchPass`,
:class:`~repro.opt.passes.dynamic.DynamicLayoutPass`) slot into the
same sequence without touching the others.  Custom passes register a
factory under a name (:func:`register_pass`) and then appear in
``LayoutOptimizer(passes=[...])`` and the CLI ``--passes`` flag like
the built-ins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS

#: The per-pass wall-clock histogram, emitted by the pipeline runner
#: for every pass it executes.  The daemon's solve misses run the same
#: pipeline (the service's portfolio is a cache in front of it), so
#: daemon ``stats`` rolls worker observations up into one per-pass
#: breakdown.  The evaluate path adds its own ``transform`` and
#: ``score`` observations under the same name.
PASS_SECONDS_METRIC = "repro_pass_seconds"


def record_pass_seconds(name: str, seconds: float) -> None:
    """Observe one pass execution in ``repro_pass_seconds{pass}``."""
    obs_metrics.observe(
        PASS_SECONDS_METRIC,
        seconds,
        labels={"pass": name},
        help="Optimizer pass wall-clock seconds, by pass name.",
        bounds=DEFAULT_LATENCY_BUCKETS,
    )


class PipelineError(ValueError):
    """A pipeline was assembled or run inconsistently."""


@dataclass
class PipelineContext:
    """Everything the passes thread between each other.

    One context lives for one ``optimize()`` call.  Passes read the
    fields their ``requires`` declares and fill the fields their
    ``provides`` declares; the façade assembles the final
    :class:`~repro.opt.optimizer.OptimizationOutcome` from the context
    after the last pass ran.

    Attributes:
        program: the program under optimization (input, never None).
        options: network-construction options (input, never None).
        scheme: outcome scheme label (set by the solve pass; portfolio
            runs report their winner as ``"portfolio:<scheme>"``).
        network: the built :class:`~repro.opt.network_builder.LayoutNetwork`.
        kernel: the compiled execution form of ``network``.
        assignment: the solver's raw variable assignment.
        ladder: the solve pass's
            :class:`~repro.opt.ladder.LadderResult` (winner, per-rung
            outcome table, engine).
        stats: solver effort counters.
        exact: True when the assignment satisfies every constraint.
        layouts: one layout per declared array (the product).
        transforms: per-nest loop restructurings matched to ``layouts``.
        cost: the scoring model's verdict on ``layouts`` (refine/joint).
        refinement: candidate-table evidence (refine/joint).
        dynamic: per-array dynamic-layout plans (the dynamic pass).
        pass_seconds: per-pass wall clock, in execution order.
        solve_seconds: total pipeline wall clock (set by the runner).
    """

    program: object
    options: object
    scheme: str = ""
    network: object | None = None
    kernel: object | None = None
    assignment: dict | None = None
    ladder: object | None = None
    stats: object | None = None
    exact: bool = False
    layouts: dict | None = None
    transforms: dict | None = None
    cost: object | None = None
    refinement: object | None = None
    dynamic: dict | None = None
    pass_seconds: dict = field(default_factory=dict)
    solve_seconds: float = 0.0


@runtime_checkable
class Pass(Protocol):
    """One composable pipeline stage.

    Attributes:
        name: registry/metric/span label (``pass:<name>`` spans,
            ``repro_pass_seconds{pass=<name>}`` observations).
        requires: context fields that must be non-None before the pass
            runs (checked by the runner, so a mis-ordered pipeline
            fails with a clear error instead of an AttributeError).
        provides: context fields the pass fills -- introspection
            metadata for tooling and documentation.
    """

    name: str
    requires: tuple[str, ...]
    provides: tuple[str, ...]

    def run(self, ctx: PipelineContext) -> None:
        """Execute the pass, mutating the context in place."""
        ...  # pragma: no cover - protocol


class Pipeline:
    """An ordered pass sequence with per-pass timing and tracing.

    Args:
        passes: the pass objects, in execution order.

    Raises:
        PipelineError: for an empty pipeline or duplicate pass names
            (duplicates would make ``pass_seconds`` and the metric
            label ambiguous).
    """

    def __init__(self, passes: Sequence[Pass]):
        passes = tuple(passes)
        if not passes:
            raise PipelineError("a pipeline needs at least one pass")
        names = [p.name for p in passes]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise PipelineError(
                f"duplicate passes in pipeline: {sorted(duplicates)}"
            )
        self.passes = passes

    @property
    def names(self) -> tuple[str, ...]:
        """The pass names, in execution order."""
        return tuple(p.name for p in self.passes)

    def describe(self) -> list[dict]:
        """Introspection rows: name, requires, provides per pass."""
        return [
            {
                "name": p.name,
                "requires": list(p.requires),
                "provides": list(p.provides),
            }
            for p in self.passes
        ]

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Run every pass in order; returns the (mutated) context.

        Raises:
            PipelineError: when a pass's declared ``requires`` names a
                context field that is still None at its turn.
        """
        start = time.perf_counter()
        for p in self.passes:
            missing = [
                name for name in p.requires if getattr(ctx, name, None) is None
            ]
            if missing:
                raise PipelineError(
                    f"pass {p.name!r} requires {missing} but no earlier "
                    f"pass provided them (pipeline order: {list(self.names)})"
                )
            pass_start = time.perf_counter()
            with obs_trace.span(f"pass:{p.name}"):
                p.run(ctx)
            seconds = time.perf_counter() - pass_start
            ctx.pass_seconds[p.name] = (
                ctx.pass_seconds.get(p.name, 0.0) + seconds
            )
            record_pass_seconds(p.name, seconds)
        ctx.solve_seconds = time.perf_counter() - start
        return ctx


# -- the pass registry ---------------------------------------------------

#: name -> factory(optimizer) -> Pass.  The factory receives the
#: configured :class:`~repro.opt.optimizer.LayoutOptimizer` so a pass
#: can pick up its knobs (refine model, top-k, search mode, solver).
_PASS_FACTORIES: dict[str, Callable] = {}


def register_pass(name: str, factory: Callable) -> None:
    """Register a pass factory under a pipeline name.

    ``factory(optimizer)`` must return a :class:`Pass`.  Registering a
    name twice replaces the factory (tests and experiments swap
    implementations this way).
    """
    if not name or "," in name:
        raise ValueError(f"bad pass name {name!r}")
    _PASS_FACTORIES[name] = factory


def available_passes() -> tuple[str, ...]:
    """Every registered pass name, sorted."""
    return tuple(sorted(_PASS_FACTORIES))


def resolve_passes(spec, optimizer) -> tuple[Pass, ...]:
    """Turn a pass spec into pass instances.

    ``spec`` is a sequence mixing registered pass names and ready
    :class:`Pass` instances; the string ``"default"`` expands in place
    to the optimizer's default pass list.

    Raises:
        PipelineError: for unknown pass names.
    """
    resolved: list[Pass] = []
    for item in spec:
        if isinstance(item, str):
            if item == "default":
                resolved.extend(
                    _PASS_FACTORIES[name](optimizer)
                    for name in optimizer.default_pass_names()
                )
                continue
            factory = _PASS_FACTORIES.get(item)
            if factory is None:
                raise PipelineError(
                    f"unknown pass {item!r}; know {list(available_passes())}"
                )
            resolved.append(factory(optimizer))
        else:
            resolved.append(item)
    return tuple(resolved)
