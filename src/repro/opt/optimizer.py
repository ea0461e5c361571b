"""The layout optimizer façade, as a thin pass-pipeline assembler.

``LayoutOptimizer`` no longer interleaves the paper's phases in one
monolithic method: each phase is a first-class pass in
:mod:`repro.opt.passes` (build the network, solve it with a scheme
ladder -- one rung for a direct scheme, the configured rungs for a
portfolio -- repair the solution, pick per-nest loop restructurings,
optionally refine against a cost model), and the façade's job is to
assemble the default pipeline -- byte-identical outcomes to the
historical monolith -- or any custom one via the
``passes=``/``pipeline=`` overrides.  It is the one optimize path: the
service's :class:`~repro.service.PortfolioSolver` is a result cache in
front of a ``build -> solve -> repair`` pipeline.  The pipeline runner
gives every pass its own observability span and a
``repro_pass_seconds{pass}`` histogram sample, surfaced per-outcome in
``pass_seconds`` and fleet-wide in daemon ``stats``.

When the hard network is unsatisfiable (possible: different nests may
want irreconcilable layouts) the ladder falls back to the weighted
branch & bound of :mod:`repro.csp.weighted`, which returns the
assignment violating the least total nest cost -- the graceful version
of "no solution exists".

:func:`select_transforms` (re-exported here from
:mod:`repro.opt.passes.transforms`) picks, per nest, the legal
restructuring best matched to the *final* layouts; this mirrors how
the evaluated binaries of Table 3 combine data transformations with
(legal, purely local) loop restructurings.  The opt-in ``joint`` pass
searches layouts and transforms together instead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

from repro.csp.enhanced import EnhancedSolver, EnhancementConfig
from repro.csp.stats import SolverStats
from repro.ir.program import Program
from repro.layout.layout import Layout
from repro.opt.ladder import SCHEMES, LadderResult, PortfolioConfig, SchemeLadder
from repro.opt.network_builder import BuildOptions, LayoutNetwork
from repro.opt.passes import (
    Pipeline,
    PipelineContext,
    resolve_passes,
)

# Historical homes: the repair fixpoint, transform selection and
# refinement report types grew up in this module; downstream callers
# import them from here.
from repro.opt.passes.refine import CandidateScore, RefinementReport  # noqa: F401
from repro.opt.passes.solve import repair_inflation  # noqa: F401
from repro.opt.passes.transforms import (  # noqa: F401
    _select_transforms,
    select_transforms,
)


@dataclass
class OptimizationOutcome:
    """Result of a layout optimization run.

    Attributes:
        program: the optimized program's name.
        scheme: the solver scheme used.
        layouts: one layout per declared array.
        stats: solver effort counters.
        solve_seconds: end-to-end pipeline time.
        network: the constraint network with provenance.
        exact: True when the layouts satisfy every constraint; False
            when the weighted fallback produced a best-effort result.
        cost: the refining cost model's score of ``layouts`` (None
            when no refinement ran).
        refinement: the candidate table refinement considered (None
            when no refinement ran).
        transforms: per-nest loop restructurings matched to
            ``layouts`` (None when no transform pass ran).
        dynamic: per-array :class:`~repro.opt.dynamic.DynamicPlan`
            schedules (None unless the ``dynamic`` pass ran).
        pass_seconds: wall-clock per pipeline pass, in execution order.
        ladder: the solve pass's ladder run: winner, per-rung outcome
            table and engine (None when no solve pass ran).
    """

    program: str
    scheme: str
    layouts: dict[str, Layout]
    stats: SolverStats
    solve_seconds: float
    network: LayoutNetwork
    exact: bool
    cost: object | None = None
    refinement: RefinementReport | None = None
    transforms: dict | None = None
    dynamic: dict | None = None
    pass_seconds: dict[str, float] = field(default_factory=dict)
    ladder: LadderResult | None = None


class LayoutOptimizer:
    """Front door of the library: programs in, layouts out.

    Args:
        scheme: "base", "enhanced", "cbj", "forward-checking",
            "min-conflicts", "weighted" (branch & bound over the
            nest-cost weighted network), an :class:`EnhancementConfig`
            for per-enhancement ablation runs, or a *portfolio
            strategy*: the string ``"portfolio:enhanced,cbj,weighted"``
            (or a :class:`repro.opt.ladder.PortfolioConfig`) tries the
            named schemes in order until one answers exactly, and the
            outcome's ``scheme`` field reports which one won, e.g.
            ``"portfolio:cbj"``.  A direct scheme is a one-rung ladder
            with no deadline.
        seed: RNG seed for the randomized schemes.  Threaded into the
            ``"portfolio:..."`` string forms; a ``PortfolioConfig``
            instance carries its own seed, which takes precedence.
        options: network construction options.
        refine: close the analytic <-> empirical loop: a registered
            cost-model name (``"simulated"``, ``"analytic"``,
            ``"weighted"``) or a configured
            :class:`repro.eval.CostModel` instance.  The refine pass
            enumerates up to ``refine_top_k`` solutions of the
            compiled network alongside the solver's own answer and
            adopts the candidate the model scores cheapest; the
            outcome's ``cost`` and ``refinement`` fields carry the
            evidence.  ``None`` (default) keeps the classic behavior.
        refine_top_k: how many enumerated solutions to score.
        passes: override the default pass list: a sequence mixing
            registered pass names (``"build"``, ``"solve"``,
            ``"repair"``, ``"transform"``, ``"refine"``, ``"joint"``,
            ``"dynamic"``, anything added via
            :func:`repro.opt.passes.register_pass`) and ready
            :class:`~repro.opt.passes.Pass` instances; the string
            ``"default"`` expands to the default list in place.
        pipeline: a fully assembled
            :class:`~repro.opt.passes.Pipeline` (or pass sequence) to
            run as-is.  Mutually exclusive with ``passes``.

    Raises:
        ValueError: for an unknown scheme name, unknown refine model,
            non-positive ``refine_top_k``,
            unknown pass names, or ``passes`` combined with
            ``pipeline``.
    """

    def __init__(
        self,
        scheme="enhanced",
        seed: int = 0,
        options: BuildOptions | None = None,
        refine=None,
        refine_top_k: int = 8,
        passes=None,
        pipeline=None,
    ):
        self._seed = seed
        self._portfolio = _as_portfolio_config(scheme, seed)
        if self._portfolio is not None:
            self._scheme_name = f"portfolio[{','.join(self._portfolio.schemes)}]"
            self._ladder = SchemeLadder.for_config(self._portfolio)
        else:
            if isinstance(scheme, EnhancementConfig):
                self._scheme_name = scheme.label()
                factory = partial(EnhancedSolver, scheme)
            elif scheme in SCHEMES:
                self._scheme_name = scheme
                factory = SCHEMES[scheme]
            else:
                raise ValueError(
                    f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}"
                )
            self._ladder = SchemeLadder([(self._scheme_name, factory, seed)])
        self._options = options if options is not None else BuildOptions()
        if refine_top_k <= 0:
            raise ValueError("refine_top_k must be positive")
        self._refine_top_k = refine_top_k
        if isinstance(refine, str):
            from repro.eval import get_cost_model

            # The weighted model scores against a layout network, which
            # must be built the same way the candidates were.
            kwargs = {"options": self._options} if refine == "weighted" else {}
            refine = get_cost_model(refine, **kwargs)
        self._refine = refine

        if passes is not None and pipeline is not None:
            raise ValueError("pass either passes= or pipeline=, not both")
        if pipeline is not None:
            self._pipeline = (
                pipeline
                if isinstance(pipeline, Pipeline)
                else Pipeline(pipeline)
            )
        else:
            spec = passes if passes is not None else ["default"]
            self._pipeline = Pipeline(resolve_passes(spec, self))

    # -- configuration surface read by the pass factories ---------------

    @property
    def options(self) -> BuildOptions:
        """Network construction options."""
        return self._options

    @property
    def scheme_name(self) -> str:
        """The configured scheme's display name."""
        return self._scheme_name

    @property
    def seed(self) -> int:
        """RNG seed for the randomized schemes."""
        return self._seed

    @property
    def ladder(self) -> SchemeLadder:
        """The solve pass's scheme ladder (one rung for a direct scheme)."""
        return self._ladder

    @property
    def refine(self):
        """The configured refining cost model (may be None)."""
        return self._refine

    @property
    def refine_top_k(self) -> int:
        """How many enumerated candidates refinement/joint search score."""
        return self._refine_top_k

    @property
    def portfolio_config(self):
        """The portfolio configuration (None for direct schemes)."""
        return self._portfolio

    @property
    def pipeline(self) -> Pipeline:
        """The assembled pass pipeline."""
        return self._pipeline

    def default_pass_names(self) -> tuple[str, ...]:
        """The default pipeline for this configuration.

        ``build -> solve -> repair [-> refine] -> transform``: the
        refine pass joins exactly when a refining model is configured,
        and transform selection runs last so the reported transforms
        always match the final layouts.
        """
        names = ["build", "solve", "repair"]
        if self._refine is not None:
            names.append("refine")
        names.append("transform")
        return tuple(names)

    def optimize(self, program: Program) -> OptimizationOutcome:
        """Choose one memory layout for every array of the program."""
        ctx = PipelineContext(
            program=program,
            options=self._options,
            scheme=self._scheme_name,
        )
        self._pipeline.run(ctx)
        return OptimizationOutcome(
            program=program.name,
            scheme=ctx.scheme,
            layouts=ctx.layouts if ctx.layouts is not None else {},
            stats=ctx.stats if ctx.stats is not None else SolverStats(),
            solve_seconds=ctx.solve_seconds,
            network=ctx.network,
            exact=ctx.exact,
            cost=ctx.cost,
            refinement=ctx.refinement,
            transforms=ctx.transforms,
            dynamic=ctx.dynamic,
            pass_seconds=dict(ctx.pass_seconds),
            ladder=ctx.ladder,
        )


#: Bounded LRU pool of shared optimizer instances, keyed by
#: configuration; hits refresh recency so the hottest configurations
#: survive eviction.
_SHARED_OPTIMIZERS: OrderedDict[tuple, LayoutOptimizer] = OrderedDict()
_SHARED_OPTIMIZERS_CAP = 32


def shared_optimizer(
    scheme="enhanced",
    seed: int = 0,
    options: BuildOptions | None = None,
    refine=None,
    refine_top_k: int = 8,
) -> LayoutOptimizer:
    """A process-shared, reusable :class:`LayoutOptimizer`.

    Resident services serve many requests per process; constructing a
    fresh optimizer per request rebuilds the same ladder and pipeline
    every time.  This factory memoizes instances by their
    full configuration (an optimizer is stateless between ``optimize``
    calls, so sharing is safe within one thread of control) and keeps
    the pool bounded with least-recently-used eviction.  Configured
    model instances (``refine`` given as a
    :class:`~repro.eval.CostModel`) are not memoizable -- those
    callers get a fresh optimizer.
    """
    if refine is not None and not isinstance(refine, str):
        return LayoutOptimizer(
            scheme=scheme, seed=seed, options=options,
            refine=refine, refine_top_k=refine_top_k,
        )
    key = (repr(scheme), seed, repr(options), refine, refine_top_k)
    optimizer = _SHARED_OPTIMIZERS.get(key)
    if optimizer is None:
        optimizer = LayoutOptimizer(
            scheme=scheme, seed=seed, options=options,
            refine=refine, refine_top_k=refine_top_k,
        )
        if len(_SHARED_OPTIMIZERS) >= _SHARED_OPTIMIZERS_CAP:
            _SHARED_OPTIMIZERS.popitem(last=False)
        _SHARED_OPTIMIZERS[key] = optimizer
    else:
        _SHARED_OPTIMIZERS.move_to_end(key)
    return optimizer


def _as_portfolio_config(scheme, seed: int) -> PortfolioConfig | None:
    """Interpret a scheme argument as a portfolio strategy, if it is one.

    Accepts a :class:`PortfolioConfig` instance or the string forms
    ``"portfolio"`` (default line-up) and ``"portfolio:a,b,c"``.
    Returns None for plain scheme names.
    """
    if isinstance(scheme, PortfolioConfig):
        return scheme
    if not isinstance(scheme, str):
        return None
    if scheme == "portfolio":
        return PortfolioConfig(seed=seed)
    if scheme.startswith("portfolio:"):
        return PortfolioConfig.parse(scheme[len("portfolio:"):], seed=seed)
    return None
