"""Command-line front end of the layout solver service.

Batch mode::

    python -m repro.service --programs all --portfolio enhanced,cbj,weighted

Takes a list of programs (the five Table 1 benchmarks by name, plus
optional synthetic load from the random generator), serves each in
process through the portfolio's scheme ladder with a shared on-disk
result cache, and prints the per-program outcomes followed by the batch
throughput report.  Run the same command twice: the second run is
served from the cache.

Daemon mode::

    python -m repro.service --serve --socket /tmp/repro.sock --shards 4

runs the resident solver daemon (persistent worker pool, sharded
persistent cache, JSON-lines streaming protocol -- see
:mod:`repro.service.daemon`) on one unix socket; without ``--socket``
it serves stdin to stdout.  Any batch invocation becomes a thin
client of that one daemon with ``--connect /tmp/repro.sock``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Sequence

from repro import __version__
from repro.bench.programs import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.ir.program import Program
from repro.service.batch import run_batch
from repro.service.cache import ResultCache
from repro.service.portfolio import DEFAULT_SCHEMES, PortfolioConfig, known_schemes

#: Default on-disk cache location (current directory: per-project).
DEFAULT_CACHE_PATH = ".repro-service-cache.json"

#: Default shard directory of the daemon's persistent cache.
DEFAULT_CACHE_DIR = ".repro-service-cache.d"


def build_parser() -> argparse.ArgumentParser:
    """The service CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Batched, cached, portfolio-ladder layout optimization "
            "service over the paper's benchmark programs."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--programs",
        default="all",
        help=(
            "comma-separated benchmark names, or 'all' for the five "
            f"Table 1 programs (known: {', '.join(BENCHMARK_NAMES)}); "
            "'none' serves only --random programs"
        ),
    )
    parser.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="N",
        help="append N deterministic synthetic programs to the batch",
    )
    parser.add_argument(
        "--random-seed",
        type=int,
        default=0,
        help="seed for the synthetic program suite (default 0)",
    )
    parser.add_argument(
        "--portfolio",
        default=",".join(DEFAULT_SCHEMES),
        help=(
            "comma-separated schemes, in the order the ladder tries them "
            f"(known: {', '.join(known_schemes())})"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="warm worker pool size of --serve (default 2)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=120.0,
        help="per-program solving deadline in seconds (default 120)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="solver RNG seed (default 0)"
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "bitset", "native"),
        default="auto",
        help=(
            "propagation kernel: the machine-int bitset engine, the "
            "compiled-C native engine, or auto-sized per network "
            "(default auto; results are identical either way)"
        ),
    )
    parser.add_argument(
        "--cache",
        default=DEFAULT_CACHE_PATH,
        metavar="PATH",
        help=f"result cache file (default {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="drop all cached results before serving",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="also print the per-scheme outcome table for every program",
    )
    pipeline = parser.add_argument_group(
        "pass pipeline",
        "run the batch through an explicit optimizer pass pipeline "
        "(see repro.opt.passes) instead of the portfolio batch runner",
    )
    pipeline.add_argument(
        "--passes",
        default=None,
        metavar="NAME,...",
        help=(
            "comma-separated optimizer passes, e.g. "
            "'build,solve,repair,transform' (the default pipeline), "
            "'default,dynamic', or 'build,solve,repair,joint,dynamic'; "
            "'default' expands to the configured default order"
        ),
    )
    pipeline.add_argument(
        "--refine",
        default=None,
        metavar="MODEL",
        help=(
            "cost model for the refine/joint passes with --passes "
            "(see repro.eval: analytic, weighted, simulated)"
        ),
    )
    daemon = parser.add_argument_group(
        "daemon mode",
        "run as a resident streaming service (JSON-lines protocol, "
        "persistent worker pool, sharded result cache) or talk to one",
    )
    daemon.add_argument(
        "--serve",
        action="store_true",
        help="run the resident daemon instead of a one-shot batch",
    )
    daemon.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="unix socket to listen on with --serve (default: stdin/stdout)",
    )
    daemon.add_argument(
        "--connect",
        default=None,
        metavar="PATH",
        help=(
            "send this batch to the daemon listening on this unix "
            "socket instead of solving here"
        ),
    )
    daemon.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="result-cache shard count for --serve (default 4)",
    )
    daemon.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        metavar="N",
        help="bound on concurrently served daemon requests (default 32)",
    )
    daemon.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"daemon shard directory (default {DEFAULT_CACHE_DIR})",
    )
    daemon.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="drop cached results older than this (default: keep forever)",
    )
    evaluation = parser.add_argument_group(
        "evaluation requests",
        "price programs under a cost model instead of (only) optimizing "
        "them; layouts come from the portfolio, the machine "
        "model from --hierarchy",
    )
    evaluation.add_argument(
        "--evaluate",
        action="store_true",
        help="serve 'evaluate' requests: optimize, then score the winner",
    )
    evaluation.add_argument(
        "--cost-model",
        default="simulated",
        help="cost model for --evaluate (see repro.eval; default simulated)",
    )
    evaluation.add_argument(
        "--hierarchy",
        default="",
        metavar="FIELD=N,...",
        help=(
            "per-request cache hierarchy overrides for --evaluate, e.g. "
            "l1_size=16384,l2_latency=9 (fields of HierarchyConfig)"
        ),
    )
    evaluation.add_argument(
        "--sim-cap",
        type=int,
        default=None,
        metavar="N",
        help="iteration-space sampling cap per nest for --evaluate",
    )
    observability = parser.add_argument_group(
        "observability",
        "request tracing and structured logging (daemon metrics are "
        "always collected; scrape them with the 'metrics' request kind)",
    )
    observability.add_argument(
        "--trace-log",
        default=None,
        metavar="PATH",
        help=(
            "append each served request's span tree as one JSON line "
            "to PATH (--serve only)"
        ),
    )
    observability.add_argument(
        "--log-level",
        default=os.environ.get("REPRO_LOG_LEVEL", "info"),
        choices=("debug", "info", "warning", "error"),
        help=(
            "logging threshold; the REPRO_LOG_LEVEL environment "
            "variable sets the default (info)"
        ),
    )
    observability.add_argument(
        "--log-json",
        action="store_true",
        help="log one JSON object per line (ts/level/logger/message)",
    )
    return parser


def _configure_logging(args: argparse.Namespace) -> None:
    """Install the service's stderr log handler per the CLI flags."""
    try:
        level = getattr(logging, args.log_level.upper())
    except AttributeError:
        raise SystemExit(f"unknown log level {args.log_level!r}")
    handler = logging.StreamHandler(sys.stderr)
    if args.log_json:
        from repro.obs import JsonLogFormatter

        handler.setFormatter(JsonLogFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s %(message)s")
        )
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(level)


def _resolve_programs(args: argparse.Namespace) -> list[Program]:
    programs: list[Program] = []
    spec = args.programs.strip().lower()
    if spec == "all":
        programs.extend(build_benchmark(name) for name in BENCHMARK_NAMES)
    elif spec not in ("none", ""):
        for name in args.programs.split(","):
            name = name.strip()
            if not name:
                continue
            try:
                programs.append(build_benchmark(name))
            except KeyError:
                raise SystemExit(
                    f"unknown benchmark {name!r}; know {', '.join(BENCHMARK_NAMES)}"
                )
    if args.random:
        programs.extend(random_suite(args.random, seed=args.random_seed))
    if not programs:
        raise SystemExit("empty batch: give --programs and/or --random N")
    return programs


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    if args.engine != "auto":
        # The env override propagates the forced engine into every
        # pool worker this process spawns.
        # The env resolution path soft-degrades on compilerless hosts
        # (right for a fleet-wide knob, wrong for an explicit flag),
        # so reject the impossible request here instead.
        from repro.csp.vectorized import ENGINE_ENV, native_available

        if args.engine == "native" and not native_available():
            raise SystemExit(
                "--engine native requires a C compiler (cc/gcc/clang) "
                "or a previously built kernel cache"
            )
        os.environ[ENGINE_ENV] = args.engine
    try:
        config = PortfolioConfig.parse(
            args.portfolio,
            seed=args.seed,
            deadline_seconds=args.deadline,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.workers < 1:
        raise SystemExit("--workers must be positive")
    if args.random < 0:
        raise SystemExit("--random must be non-negative")
    if args.serve and args.connect:
        raise SystemExit("--serve and --connect are mutually exclusive")
    if args.trace_log and not args.serve:
        raise SystemExit("--trace-log requires --serve")
    if args.passes and (args.serve or args.connect or args.evaluate):
        raise SystemExit(
            "--passes runs a local pipeline batch; it cannot be combined "
            "with --serve, --connect or --evaluate"
        )
    if args.refine is not None and not args.passes:
        raise SystemExit("--refine requires --passes")

    if args.serve:
        return _run_daemon(args, config)

    if args.passes:
        return _run_pipeline(args, config)

    client = None
    if args.connect is not None:
        from repro.service.stream import DaemonClient

        try:
            client = DaemonClient(args.connect)
        except OSError as exc:
            raise SystemExit(f"cannot connect to daemon at {args.connect}: {exc}")

    programs = _resolve_programs(args)

    cache = None
    if client is None and not args.no_cache:
        cache = ResultCache(capacity=4096, path=args.cache)
        if args.clear_cache:
            cache.clear()

    if args.evaluate:
        return _run_evaluation(args, config, programs, cache, client)

    source = (
        f"daemon {args.connect}"
        if client is not None
        else ("off" if cache is None else args.cache)
    )
    print(
        f"repro layout service v{__version__} -- "
        f"portfolio [{', '.join(config.schemes)}], "
        f"deadline={args.deadline:.0f}s, "
        f"cache={source}"
    )
    report = run_batch(
        programs,
        config=config,
        options=benchmark_build_options(),
        cache=cache,
        client=client,
    )
    for result in report.results:
        source = "cache" if result.from_cache else f"winner={result.winner}"
        exactness = "exact" if result.exact else "best-effort"
        print(
            f"  {result.program:<12} {source:<24} {exactness:<12} "
            f"{result.solve_seconds * 1000:8.1f}ms"
        )
        if args.verbose and not result.from_cache:
            for outcome in result.outcomes:
                print(
                    f"      {outcome.scheme:<18} {outcome.status:<10} "
                    f"{outcome.seconds * 1000:8.1f}ms  {outcome.detail}"
                )
    print()
    print(report.format())
    if cache is not None:
        cache.save()
        stats = cache.stats
        print(
            f"  cache stats: hits={stats.hits} misses={stats.misses} "
            f"stores={stats.stores} evictions={stats.evictions} "
            f"entries={len(cache)}"
        )
    if client is not None:
        client.close()
    failures = sum(1 for result in report.results if result.winner is None)
    return 1 if failures else 0


def _run_pipeline(args, config) -> int:
    """The ``--passes`` path: explicit pass pipeline, one program at a time.

    Uses the configured portfolio when several schemes were given,
    otherwise the single scheme directly (so the build/solve/repair
    passes all run locally), and prints each program's full
    optimization report including the per-pass timing table.
    """
    from repro.opt.optimizer import LayoutOptimizer
    from repro.opt.passes import PipelineError
    from repro.opt.report import optimization_report

    programs = _resolve_programs(args)
    names = [name.strip() for name in args.passes.split(",") if name.strip()]
    if not names:
        raise SystemExit("--passes needs at least one pass name")
    scheme = config if len(config.schemes) > 1 else config.schemes[0]
    try:
        optimizer = LayoutOptimizer(
            scheme=scheme,
            seed=args.seed,
            options=benchmark_build_options(),
            refine=args.refine,
            passes=names,
        )
    except (PipelineError, ValueError) as exc:
        raise SystemExit(str(exc))
    print(
        f"repro layout service v{__version__} -- pipeline "
        f"[{', '.join(optimizer.pipeline.names)}], "
        f"scheme={optimizer.scheme_name}, seed={args.seed}"
    )
    for program in programs:
        outcome = optimizer.optimize(program)
        print()
        print(optimization_report(outcome))
    return 0


def _run_daemon(args, config) -> int:
    """The ``--serve`` path: run the resident daemon until shutdown."""
    from repro.service.daemon import DaemonConfig, serve

    try:
        daemon_config = DaemonConfig(
            workers=args.workers,
            max_inflight=args.max_inflight,
            shards=args.shards,
            cache_dir=None if args.no_cache else args.cache_dir,
            ttl_seconds=args.ttl,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    where = args.socket if args.socket else "stdin/stdout"
    print(
        f"repro layout daemon v{__version__} -- "
        f"portfolio [{', '.join(config.schemes)}], workers={args.workers}, "
        f"shards={args.shards}, max_inflight={args.max_inflight}, "
        f"cache={'memory-only' if args.no_cache else args.cache_dir}, "
        f"listening on {where}",
        file=sys.stderr,
        flush=True,
    )
    try:
        return serve(
            config=config,
            options=benchmark_build_options(),
            daemon_config=daemon_config,
            socket_path=args.socket,
            trace_log=args.trace_log,
        )
    except KeyboardInterrupt:
        return 0


def _run_evaluation(args, config, programs, cache, client=None) -> int:
    """Serve the batch as 'evaluate' requests and print the price list."""
    from repro.eval import available_cost_models
    from repro.service.evaluate import (
        EvaluationRequest,
        parse_hierarchy_overrides,
        run_evaluation_batch,
    )

    if args.cost_model not in available_cost_models():
        raise SystemExit(
            f"unknown cost model {args.cost_model!r}; "
            f"know {', '.join(available_cost_models())}"
        )
    if args.sim_cap is not None and args.sim_cap <= 0:
        raise SystemExit("--sim-cap must be positive")
    try:
        hierarchy = (
            parse_hierarchy_overrides(args.hierarchy) if args.hierarchy else None
        )
        requests = [
            EvaluationRequest(
                program=program,
                cost_model=args.cost_model,
                hierarchy=hierarchy,
                max_iterations_per_nest=args.sim_cap,
            )
            for program in programs
        ]
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(
        f"repro layout service v{__version__} -- evaluate "
        f"[{args.cost_model}] portfolio [{', '.join(config.schemes)}], "
        f"hierarchy={'paper' if hierarchy is None else args.hierarchy}, "
        f"cache={_cache_label(args, cache, client)}"
    )
    results = run_evaluation_batch(
        requests,
        config=config,
        options=benchmark_build_options(),
        cache=cache,
        client=client,
    )
    for result in results:
        source = "cache" if result.from_cache else (
            f"winner={result.winner}" if result.winner else "explicit-layouts"
        )
        print(
            f"  {result.program:<12} {source:<24} "
            f"{result.value:>16,.0f} {result.unit:<16} "
            f"{result.seconds * 1000:8.1f}ms"
        )
        report = result.details.get("cache_report")
        if args.verbose and report:
            rates = "  ".join(
                f"{level} {100.0 * stats.get('hit_rate', 0.0):.1f}%"
                for level, stats in report.items()
            )
            print(f"      hit rates: {rates}")
    if cache is not None:
        cache.save()
    if client is not None:
        client.close()
    return 0


def _cache_label(args, cache, client) -> str:
    if client is not None:
        return f"daemon {args.connect}"
    return "off" if cache is None else args.cache
