"""The pass pipeline: equivalence gate, composition, new passes.

The refactor contract: ``LayoutOptimizer``'s default pipeline must be
byte-identical to the pre-refactor monolithic façade.  ``_legacy_optimize``
below is a verbatim port of that monolith (direct-scheme path plus
refinement), kept as the oracle; the equivalence tests drive both over
the five paper programs and a hypothesis suite of random programs and
compare layouts, effort counters, exactness and refinement evidence.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.programs import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.csp.weighted import BranchAndBoundSolver
from repro.layout.layout import row_major
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.opt.network_builder import BuildOptions, build_layout_network
from repro.opt.ladder import SCHEMES
from repro.opt.optimizer import (
    LayoutOptimizer,
    repair_inflation,
    select_transforms,
)
from repro.opt.passes import (
    PASS_SECONDS_METRIC,
    Pipeline,
    PipelineContext,
    PipelineError,
    TransformSelectionPass,
    available_passes,
    register_pass,
    resolve_passes,
)
from repro.opt.passes.base import _PASS_FACTORIES
from repro.opt.passes.refine import _layout_key

#: Direct (non-portfolio) schemes exercised by the equivalence gate.
DIRECT_SCHEMES = ("enhanced", "cbj", "forward-checking", "weighted")


def _legacy_optimize(
    program,
    scheme="enhanced",
    seed=0,
    options=None,
    refine=None,
    refine_top_k=8,
):
    """The pre-refactor monolith, ported verbatim as the test oracle.

    Returns ``(layouts, stats, exact, cost, refinement)`` exactly as
    the old ``LayoutOptimizer.optimize`` (direct path, serial
    refinement enumeration) produced them.
    """
    options = options if options is not None else BuildOptions()
    solver = SCHEMES[scheme](seed)
    layout_network = build_layout_network(program, options)
    kernel = layout_network.kernel()
    if isinstance(solver, BranchAndBoundSolver):
        weighted_result = solver.solve_compiled(kernel, layout_network.weights)
        assignment = dict(weighted_result.assignment)
        stats = weighted_result.stats
        exact = weighted_result.fully_satisfied
    else:
        result = solver.solve(kernel)
        exact = result.assignment is not None
        if exact:
            assignment = dict(result.assignment)
            stats = result.stats
        else:
            weighted_result = BranchAndBoundSolver().solve_compiled(
                kernel, layout_network.weights
            )
            assignment = dict(weighted_result.assignment)
            stats = weighted_result.stats
            exact = weighted_result.fully_satisfied
    if exact:
        repair_inflation(layout_network.network, assignment, program)
    layouts = {}
    for decl in program.arrays:
        chosen = assignment.get(decl.name)
        layouts[decl.name] = chosen if chosen is not None else row_major(decl.rank)
    cost = refinement = None
    if refine is not None:
        from repro.csp.compiled import enumerate_solutions
        from repro.eval import AnalyticCostModel, get_cost_model, kendall_tau
        from repro.opt.optimizer import CandidateScore, RefinementReport

        model = get_cost_model(refine) if isinstance(refine, str) else refine
        analytic = model if model.name == "analytic" else AnalyticCostModel()
        solutions = enumerate_solutions(layout_network.kernel(), refine_top_k)
        pool = [("search", dict(layouts))]
        seen = {_layout_key(layouts)}
        for index, solution in enumerate(solutions):
            candidate = {
                decl.name: solution.get(decl.name, row_major(decl.rank))
                for decl in program.arrays
            }
            key = _layout_key(candidate)
            if key in seen:
                continue
            seen.add(key)
            pool.append((f"solution-{index + 1}", candidate))
        scored = []
        for label, candidate in pool:
            transforms = select_transforms(
                program,
                candidate,
                options.include_reversals,
                options.skew_factors,
            )
            candidate_cost = model.score(program, candidate, transforms)
            if analytic is model:
                analytic_value = candidate_cost.value
            else:
                analytic_value = analytic.score(
                    program, candidate, transforms
                ).value
            scored.append((label, candidate, analytic_value, candidate_cost))
        best = min(range(len(scored)), key=lambda i: scored[i][3].value)
        agreement = kendall_tau(
            [entry[2] for entry in scored],
            [entry[3].value for entry in scored],
        )
        refinement = RefinementReport(
            model=model.name,
            candidates=tuple(
                CandidateScore(
                    label=label,
                    layouts=candidate,
                    analytic_value=analytic_value,
                    refined_value=candidate_cost.value,
                    chosen=(index == best),
                )
                for index, (label, candidate, analytic_value, candidate_cost)
                in enumerate(scored)
            ),
            agreement=agreement,
            evaluate_seconds=0.0,
        )
        layouts = dict(scored[best][1])
        cost = scored[best][3]
    return layouts, stats, exact, cost, refinement


def _effort(stats) -> dict:
    counters = stats.as_dict()
    counters.pop("time_seconds", None)
    return counters


def _refinement_rows(report):
    if report is None:
        return None
    return [
        (c.label, c.layouts, c.analytic_value, c.refined_value, c.chosen)
        for c in report.candidates
    ]


def _assert_equivalent(outcome, oracle):
    layouts, stats, exact, cost, refinement = oracle
    assert outcome.layouts == layouts
    assert outcome.exact == exact
    assert _effort(outcome.stats) == _effort(stats)
    if cost is None:
        assert outcome.cost is None and outcome.refinement is None
    else:
        assert outcome.cost.value == cost.value
        assert outcome.refinement.model == refinement.model
        assert outcome.refinement.agreement == refinement.agreement
        assert _refinement_rows(outcome.refinement) == _refinement_rows(
            refinement
        )


class TestDefaultPipelineEquivalence:
    """The refactor gate: default pipeline == pre-refactor monolith."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("scheme", DIRECT_SCHEMES)
    def test_paper_programs_bytewise(self, name, scheme):
        program = build_benchmark(name)
        options = benchmark_build_options()
        outcome = LayoutOptimizer(
            scheme=scheme, seed=0, options=options
        ).optimize(program)
        oracle = _legacy_optimize(program, scheme=scheme, seed=0, options=options)
        _assert_equivalent(outcome, oracle)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_paper_programs_with_refinement(self, name):
        program = build_benchmark(name)
        options = benchmark_build_options()
        outcome = LayoutOptimizer(
            scheme="enhanced", options=options, refine="analytic", refine_top_k=4
        ).optimize(program)
        oracle = _legacy_optimize(
            program,
            scheme="enhanced",
            options=options,
            refine="analytic",
            refine_top_k=4,
        )
        _assert_equivalent(outcome, oracle)

    @given(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(DIRECT_SCHEMES),
        refine=st.sampled_from([None, "analytic"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_programs_bytewise(self, seed, scheme, refine):
        program = random_suite(1, seed=seed)[0]
        outcome = LayoutOptimizer(
            scheme=scheme, seed=0, refine=refine, refine_top_k=4
        ).optimize(program)
        oracle = _legacy_optimize(
            program, scheme=scheme, seed=0, refine=refine, refine_top_k=4
        )
        _assert_equivalent(outcome, oracle)


class TestPipelineInfrastructure:
    def test_default_pass_order(self):
        optimizer = LayoutOptimizer()
        assert optimizer.pipeline.names == (
            "build",
            "solve",
            "repair",
            "transform",
        )
        refined = LayoutOptimizer(refine="analytic")
        assert refined.pipeline.names == (
            "build",
            "solve",
            "repair",
            "refine",
            "transform",
        )

    def test_builtin_passes_registered(self):
        assert set(available_passes()) >= {
            "build",
            "solve",
            "repair",
            "transform",
            "refine",
            "joint",
            "dynamic",
        }

    def test_pass_seconds_cover_every_pass_and_sum_to_solve_seconds(self):
        program = build_benchmark("MxM")
        optimizer = LayoutOptimizer()
        outcome = optimizer.optimize(program)
        assert tuple(outcome.pass_seconds) == optimizer.pipeline.names
        assert all(seconds >= 0.0 for seconds in outcome.pass_seconds.values())
        # The runner times the whole pipeline; per-pass clocks must
        # account for (almost) all of it -- only loop overhead between
        # passes lives outside them.
        total = sum(outcome.pass_seconds.values())
        assert total <= outcome.solve_seconds
        assert total >= outcome.solve_seconds * 0.5

    def test_every_pass_emits_span_and_metric(self):
        program = build_benchmark("Shape")
        with obs_trace.recording("test") as root:
            with obs_metrics.collecting() as registry:
                LayoutOptimizer().optimize(program)
        for name in ("build", "solve", "repair", "transform"):
            assert root.find(f"pass:{name}") is not None
        labels = {
            dict(label_items)["pass"]
            for metric, label_items, _ in registry.iter_metrics()
            if metric == PASS_SECONDS_METRIC
        }
        assert labels == {"build", "solve", "repair", "transform"}
        # The phase spans of the monolith survive inside their passes;
        # the solve is the ladder's ``race`` span, one rung per scheme.
        assert root.find("build_network") is not None
        assert root.find("race") is not None
        assert root.find("scheme:enhanced") is not None
        assert root.find("repair_inflation") is not None
        assert root.find("transform_selection") is not None

    def test_unknown_pass_name_raises(self):
        with pytest.raises(ValueError, match="unknown pass"):
            LayoutOptimizer(passes=["build", "no-such-pass"])

    def test_passes_and_pipeline_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            LayoutOptimizer(
                passes=["default"], pipeline=[TransformSelectionPass()]
            )

    def test_duplicate_passes_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            LayoutOptimizer(passes=["build", "solve", "build"])

    def test_missing_requirement_fails_with_clear_error(self):
        program = build_benchmark("MxM")
        optimizer = LayoutOptimizer(passes=["transform"])
        with pytest.raises(PipelineError, match="requires \\['layouts'\\]"):
            optimizer.optimize(program)

    def test_refine_pass_needs_a_model(self):
        with pytest.raises(ValueError, match="cost model"):
            LayoutOptimizer(passes=["build", "solve", "repair", "refine"])

    def test_default_token_expands_in_place(self):
        optimizer = LayoutOptimizer(passes=["default", "dynamic"])
        assert optimizer.pipeline.names == (
            "build",
            "solve",
            "repair",
            "transform",
            "dynamic",
        )

    def test_custom_pass_registration(self):
        ran = []

        class TagPass:
            name = "tag"
            requires = ("layouts",)
            provides = ()

            def run(self, ctx):
                ran.append(dict(ctx.layouts))

        register_pass("tag", lambda optimizer: TagPass())
        try:
            optimizer = LayoutOptimizer(passes=["default", "tag"])
            outcome = optimizer.optimize(build_benchmark("MxM"))
            assert ran and ran[0] == outcome.layouts
            assert "tag" in outcome.pass_seconds
        finally:
            _PASS_FACTORIES.pop("tag", None)

    def test_describe_reports_contracts(self):
        rows = LayoutOptimizer().pipeline.describe()
        assert [row["name"] for row in rows] == [
            "build",
            "solve",
            "repair",
            "transform",
        ]
        transform = rows[-1]
        assert transform["requires"] == ["layouts"]
        assert transform["provides"] == ["transforms"]

    def test_resolve_passes_accepts_instances(self):
        optimizer = LayoutOptimizer()
        instance = TransformSelectionPass()
        passes = resolve_passes(["build", instance], optimizer)
        assert passes[1] is instance

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError, match="at least one"):
            Pipeline([])

    def test_default_pipeline_fills_transforms(self):
        program = build_benchmark("MxM")
        outcome = LayoutOptimizer().optimize(program)
        assert outcome.transforms is not None
        assert set(outcome.transforms) == {
            nest.name for nest in program.nests
        }
        expected = select_transforms(program, outcome.layouts)
        assert outcome.transforms == expected

    def test_portfolio_scheme_runs_through_the_pipeline(self):
        program = build_benchmark("MxM")
        outcome = LayoutOptimizer(
            scheme="portfolio:enhanced,cbj", seed=0
        ).optimize(program)
        assert outcome.scheme.startswith("portfolio:")
        assert outcome.exact
        assert set(outcome.pass_seconds) == {
            "build",
            "solve",
            "repair",
            "transform",
        }
        direct = LayoutOptimizer(scheme="enhanced", seed=0).optimize(program)
        assert outcome.layouts == direct.layouts


class TestJointSearchPass:
    JOINT = ("build", "solve", "repair", "joint", "transform")

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_never_worse_than_sequential_default(self, name):
        """The default (layout, transform) pair seeds the joint pool,
        so the jointly chosen combination can only match or beat it."""
        from repro.eval import AnalyticCostModel

        program = build_benchmark(name)
        options = benchmark_build_options()
        model = AnalyticCostModel()
        default = LayoutOptimizer(scheme="enhanced", options=options).optimize(
            program
        )
        sequential = model.score(
            program, default.layouts, default.transforms
        )
        joint = LayoutOptimizer(
            scheme="enhanced", options=options, passes=list(self.JOINT)
        ).optimize(program)
        assert joint.cost is not None
        assert joint.cost.value <= sequential.value
        assert joint.transforms is not None
        assert joint.refinement.chosen.layouts == joint.layouts

    def test_strictly_improves_simulated_cost_on_track(self):
        """Acceptance gate: joint search beats the sequential default's
        simulated cost on a Table 3 program (Track; full-simulation
        deltas for all five programs are recorded in the README)."""
        from repro.eval import SimulatedCostModel

        program = build_benchmark("Track")
        options = benchmark_build_options()
        model = SimulatedCostModel(max_iterations_per_nest=512)
        default = LayoutOptimizer(scheme="enhanced", options=options).optimize(
            program
        )
        sequential = model.score(
            program, default.layouts, default.transforms
        )
        joint = LayoutOptimizer(
            scheme="enhanced",
            options=options,
            refine=model,
            passes=list(self.JOINT),
        ).optimize(program)
        assert joint.cost.value < sequential.value

    def test_transform_pass_respects_joint_choice(self):
        """Joint-chosen transforms survive the trailing transform pass
        (it only fills the field when no earlier pass set it)."""
        program = build_benchmark("Track")
        options = benchmark_build_options()
        joint = LayoutOptimizer(
            scheme="enhanced", options=options, passes=list(self.JOINT)
        ).optimize(program)
        assert set(joint.transforms) == {nest.name for nest in program.nests}
        assert "transform" in joint.pass_seconds

    def test_joint_emits_span_and_timing(self):
        program = build_benchmark("MxM")
        with obs_trace.recording("test") as root:
            outcome = LayoutOptimizer(passes=list(self.JOINT)).optimize(
                program
            )
        assert root.find("pass:joint") is not None
        assert root.find("joint_search") is not None
        assert "joint" in outcome.pass_seconds


class TestDynamicLayoutPass:
    def test_dynamic_plans_surface_in_the_outcome(self):
        program = build_benchmark("Radar")  # multi-nest paper program
        assert len(program.nests) > 1
        outcome = LayoutOptimizer(passes=["default", "dynamic"]).optimize(
            program
        )
        plans = outcome.dynamic
        assert plans is not None
        assert set(plans) == set(program.referenced_arrays())
        for array, plan in plans.items():
            nests = program.nests_referencing(array)
            assert [name for name, _ in plan.schedule] == [
                nest.name for nest in nests
            ]
            decl = program.array(array)
            assert plan.redistribution_cost == pytest.approx(
                plan.changes * 2.0 * decl.element_count
            )
            assert plan.total_cost <= plan.static_cost

    def test_default_pipeline_leaves_dynamic_unset(self):
        outcome = LayoutOptimizer().optimize(build_benchmark("MxM"))
        assert outcome.dynamic is None

    def test_dynamic_pass_emits_span_and_timing(self):
        program = build_benchmark("Radar")
        with obs_trace.recording("test") as root:
            outcome = LayoutOptimizer(passes=["default", "dynamic"]).optimize(
                program
            )
        assert root.find("pass:dynamic") is not None
        assert root.find("dynamic_layout") is not None
        assert "dynamic" in outcome.pass_seconds
