"""Warm worker processes: the one process pool the service runs.

Both pool sites -- the resident daemon's persistent pool and the
``evaluate`` batch's pool (:func:`repro.service.evaluate.run_evaluation_batch`
with ``workers > 1``) -- start their workers here.  Each worker
builds one :class:`~repro.service.portfolio.PortfolioSolver` and one
:class:`~repro.service.evaluate.EvaluationService` when it starts and
reuses them for every request it serves.  Workers hold no result
cache: the parent looks requests up before dispatching (an evaluate
miss's optimization too, handed to the worker with it) and stores
the answers that come back.

Every request runs inside an observability capture; its span tree and
metric delta ship back as ``telemetry``, a sibling of ``result``, so
it is never cached and never reaches the client wire form.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.ir.program import Program
from repro.obs import capture
from repro.opt.network_builder import BuildOptions
from repro.service.evaluate import EvaluationRequest, EvaluationService
from repro.service.portfolio import PortfolioConfig, PortfolioSolver

#: Per-process state of one pool worker, built once by the initializer
#: and reused for every request the worker ever serves.
_WORKER_STATE: dict | None = None


def _init_worker(config: PortfolioConfig, options: BuildOptions) -> None:
    """Pool initializer: build the reusable per-process serving state."""
    global _WORKER_STATE
    _WORKER_STATE = {
        "solver": PortfolioSolver(config, options=options),
        "evaluator": EvaluationService(config=config, options=options),
    }


def _pool_context():
    """``fork`` keeps worker start cheap and warm (inherited imports);
    platforms without it use the default context."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def start_pool(
    workers: int, config: PortfolioConfig, options: BuildOptions
) -> ProcessPoolExecutor:
    """A pool of ``workers`` warm workers serving ``config``'s ladder
    with ``options``; the caller shuts it down."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(config, options),
    )


def worker_solve(program: Program, fingerprint: str) -> dict:
    """Serve one solve miss on a warm worker."""
    with capture("worker_solve", fingerprint=fingerprint) as telemetry:
        result = _WORKER_STATE["solver"].optimize(
            program, fingerprint=fingerprint
        )
    return {
        "result": result.to_dict(),
        "exact": result.exact,
        "engine": result.engine,
        "telemetry": telemetry.telemetry(),
    }


def worker_evaluate(request: EvaluationRequest, solved: dict | None = None) -> dict:
    """Serve one evaluate miss on a warm worker; ``solved`` is the
    request's cached solve entry, when the parent holds one (see
    :meth:`~repro.service.evaluate.EvaluationService.evaluate`)."""
    with capture("worker_evaluate") as telemetry:
        result = _WORKER_STATE["evaluator"].evaluate(request, solved)
    return {
        "result": result.to_dict(),
        "exact": result.exact,
        "engine": result.engine,
        "telemetry": telemetry.telemetry(),
    }


def noop(_: int) -> None:
    """Pool warm-up probe (must be a picklable top-level function)."""
    return None
