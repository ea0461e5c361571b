"""End-to-end tests of ``python -m repro.service`` and the batch API."""

import os
import subprocess
import sys

import pytest

from repro import __version__
from repro.bench import build_benchmark, random_suite
from repro.service.batch import run_batch
from repro.service.cache import ResultCache
from repro.service.portfolio import PortfolioConfig


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


class TestBatchApi:
    def test_batch_shares_one_cache(self):
        """Duplicate programs in one batch race once; a repeat batch is
        served entirely from cache."""
        programs = [build_benchmark("MxM"), build_benchmark("MxM")]
        cache = ResultCache()
        config = PortfolioConfig(schemes=("enhanced",))
        first = run_batch(programs, config, cache=cache, workers=1)
        assert first.total == 2
        assert first.cache_hits == 1  # in-batch duplicate
        second = run_batch(programs, config, cache=cache, workers=1)
        assert second.cached_fraction == 1.0
        assert "100.0%" in second.format()

    def test_worker_pool_path(self):
        """workers > 1 exercises the process pool and result pickling."""
        programs = list(random_suite(3, seed=11))
        config = PortfolioConfig(schemes=("enhanced", "cbj"))
        report = run_batch(programs, config, workers=2)
        assert report.total == 3
        assert all(result.exact for result in report.results)
        assert report.throughput > 0
        assert set(report.scheme_wins()) <= {"enhanced", "cbj"}

    def test_order_is_preserved(self):
        programs = list(random_suite(4, seed=5))
        config = PortfolioConfig(schemes=("enhanced",))
        report = run_batch(programs, config, workers=1)
        assert [r.program for r in report.results] == [
            p.name for p in programs
        ]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            run_batch([], workers=0)


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
