"""End-to-end tests of ``python -m repro.service`` and the batch API."""

import asyncio
import os
import subprocess
import sys
import threading
import time

import repro
from repro import __version__
from repro.bench import build_benchmark, random_suite
from repro.service.batch import run_batch
from repro.service.cache import ResultCache
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.portfolio import PortfolioConfig
from repro.service.stream import DaemonClient


def _run_cli(*args: str) -> str:
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, "-m", "repro.service", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestCli:
    def test_version_flag(self):
        output = _run_cli("--version")
        assert output.strip() == f"repro {__version__}"

    def test_single_program_prints_throughput_report(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        output = _run_cli(
            "--programs", "MxM",
            "--portfolio", "enhanced,cbj",
            "--workers", "2",
            "--cache", cache,
        )
        assert "Throughput report" in output
        assert "winner=" in output
        assert "programs: 1" in output
        assert "served 0/1 from cache" in output

    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        args = (
            "--programs", "MxM",
            "--portfolio", "enhanced,cbj,weighted",
            "--workers", "2",
            "--cache", cache,
        )
        _run_cli(*args)
        output = _run_cli(*args)
        assert "served 1/1 from cache (100.0%)" in output

    def test_random_programs_and_verbose_table(self, tmp_path):
        output = _run_cli(
            "--programs", "none",
            "--random", "2",
            "--no-cache",
            "--verbose",
            "--cache", str(tmp_path / "unused.json"),
        )
        assert "Rand-0-001" in output
        assert "won" in output

    def test_unknown_benchmark_is_a_clean_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "--programs", "Nope"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert "unknown benchmark" in result.stderr

    def test_unknown_scheme_is_a_clean_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "--portfolio", "quantum"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert "unknown portfolio schemes" in result.stderr


class TestConnect:
    def test_socket_path_with_a_colon_serves_the_batch(self, tmp_path):
        """``--connect`` takes a unix path, whatever characters it has:
        ``d:1.sock`` relative to the working directory is a path, not
        a host and port."""
        path = str(tmp_path / "d:1.sock")
        daemon = SolverDaemon(
            config=PortfolioConfig(schemes=("enhanced",)),
            daemon_config=DaemonConfig(workers=1, shards=1),
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(daemon.serve_unix(path)), daemon=True
        )
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(path):
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.02)
            src = os.path.dirname(os.path.dirname(repro.__file__))
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro.service",
                    "--programs", "MxM", "--connect", "d:1.sock",
                ],
                capture_output=True,
                text=True,
                timeout=600,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            if os.path.exists(path):
                with DaemonClient(path) as client:
                    client.shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert result.returncode == 0, result.stderr
        assert "cache=daemon d:1.sock" in result.stdout
        assert "programs: 1" in result.stdout

    def test_missing_socket_is_a_clean_error(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.service",
                "--programs", "MxM",
                "--connect", str(tmp_path / "missing.sock"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert "cannot connect to daemon" in result.stderr
        assert "Traceback" not in result.stderr


class TestBatchApi:
    def test_batch_shares_one_cache(self):
        """Duplicate programs in one batch race once; a repeat batch is
        served entirely from cache."""
        programs = [build_benchmark("MxM"), build_benchmark("MxM")]
        cache = ResultCache()
        config = PortfolioConfig(schemes=("enhanced",))
        first = run_batch(programs, config, cache=cache)
        assert first.total == 2
        assert first.cache_hits == 1  # in-batch duplicate
        second = run_batch(programs, config, cache=cache)
        assert second.cached_fraction == 1.0
        assert "100.0%" in second.format()

    def test_repeat_without_a_cache_is_solved_again(self):
        """Without a cache nothing is shared: a repeated program is
        solved twice, to the same layouts."""
        program = build_benchmark("MxM")
        config = PortfolioConfig(schemes=("enhanced",))
        report = run_batch([program, program], config, cache=None)
        first, second = report.results
        assert first.exact and second.exact
        assert not first.from_cache and not second.from_cache
        assert report.cache_hits == 0
        assert first.layouts == second.layouts

    def test_order_is_preserved(self):
        programs = list(random_suite(4, seed=5))
        config = PortfolioConfig(schemes=("enhanced",))
        report = run_batch(programs, config)
        assert [r.program for r in report.results] == [
            p.name for p in programs
        ]


class TestObservabilityFlags:
    def test_log_level_defaults_from_environment(self, monkeypatch):
        from repro.service.cli import build_parser

        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        args = build_parser().parse_args(["--programs", "MxM"])
        assert args.log_level == "debug"
        monkeypatch.delenv("REPRO_LOG_LEVEL")
        args = build_parser().parse_args(["--programs", "MxM"])
        assert args.log_level == "info"

    def test_flag_overrides_environment(self, monkeypatch):
        from repro.service.cli import build_parser

        monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
        args = build_parser().parse_args(
            ["--programs", "MxM", "--log-level", "warning", "--log-json"]
        )
        assert args.log_level == "warning"
        assert args.log_json is True

    def test_trace_log_requires_serve(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.service",
                "--programs", "MxM", "--trace-log", "/tmp/nope.jsonl",
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode != 0
        assert "--trace-log requires --serve" in result.stderr

    def test_json_logging_emits_parseable_lines(self, tmp_path):
        """--serve with --log-json writes one JSON object per log line."""
        import json as json_module

        script = (
            "import sys, logging\n"
            "from repro.service.cli import build_parser, _configure_logging\n"
            "args = build_parser().parse_args(['--log-json', '--log-level', 'debug'])\n"
            "_configure_logging(args)\n"
            "logging.getLogger('repro.test').info('hello %s', 'world')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode == 0, result.stderr
        lines = [l for l in result.stderr.splitlines() if l.strip()]
        assert lines, "expected at least one log line"
        record = json_module.loads(lines[-1])
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.test"
        assert record["message"] == "hello world"
