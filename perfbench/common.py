"""Shared pieces: checkout paths, statistics, memory and the host record."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the benchmark builds and runs the program from
#: its sources there, and keeps every file it writes under WORK_DIR.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
EXPECTATIONS = ROOT / "scripts" / "pipeline_expectations.json"


def require_sources() -> None:
    """Put the program's sources on ``sys.path``; exit 2 without them.

    A directory holding only the benchmark has nothing to measure, so
    the benchmark stops there before printing any result.
    """
    if not (SRC / "repro" / "__init__.py").is_file() or not EXPECTATIONS.is_file():
        print(
            f"perfbench: no program sources under {ROOT} "
            "(need src/repro and scripts/pipeline_expectations.json)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for the program's own processes (daemon, probes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process (Linux ``/proc``)."""
    children: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(item) for item in handle.read().split())
    except OSError:
        pass
    return children


def _first_line(command: list[str]) -> str:
    try:
        out = subprocess.run(
            command, capture_output=True, text=True, timeout=10, cwd=ROOT
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    lines = (out.stdout or "").strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unavailable"


def source_digest() -> str:
    """SHA-256 over the program's source files (identifies the build
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record(seed: int, workload: str) -> dict:
    """Cores, toolchain, engine and code identity beside every result."""
    import repro
    from repro.bench.programs import benchmark_build_options, build_benchmark
    from repro.csp.vectorized import native_available, resolve_engine
    from repro.opt.network_builder import build_layout_network

    network = build_layout_network(
        build_benchmark("Radar"), benchmark_build_options()
    ).kernel()
    compiler = shutil.which("gcc") or shutil.which("cc")
    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gcc": _first_line([compiler, "--version"]) if compiler else "none",
        "native_available": native_available(),
        "engine": resolve_engine("auto", network),
        "repro_version": repro.__version__,
        "git_commit": _first_line(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
    }


def ensure_native_built() -> bool:
    """Build (or load) the native kernel before anything is timed."""
    from repro.csp.native import build

    return build.usable()


@dataclass
class Metric:
    """One reported number with its unit and sample count."""

    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class RunResult:
    """Everything one workload run reports."""

    host: dict
    sent: int = 0
    succeeded: int = 0
    failures: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    #: Outcome of a daemon workload's oversized-request probe ("ok" or the
    #: failure reason); None on workloads without one.
    probe: str | None = None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def put(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)
