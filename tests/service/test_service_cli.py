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
            daemon_config=DaemonConfig(workers=1),
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


def _serve(socket_path: str, cache: str) -> subprocess.Popen:
    """``--serve`` on a unix socket and a ``--cache`` file, once bound."""
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "--serve",
            "--socket", socket_path, "--cache", cache,
            "--portfolio", "enhanced", "--workers", "1",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    try:
        while not os.path.exists(socket_path):
            assert daemon.poll() is None, "daemon exited"
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.02)
    except BaseException:
        daemon.kill()
        daemon.wait()
        raise
    return daemon


def _shut_down(daemon: subprocess.Popen, socket_path: str) -> None:
    try:
        with DaemonClient(socket_path) as client:
            assert client.shutdown()["ok"]
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:  # pragma: no cover - a stuck daemon
            daemon.kill()
            daemon.wait()


class TestSharedCacheFile:
    """``--cache`` names one file for the daemon and the batch CLI, and
    neither drops what the other stored there."""

    def test_daemon_and_batch_keep_each_others_answers(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        socket_path = str(tmp_path / "d.sock")
        mxm, radar = build_benchmark("MxM"), build_benchmark("Radar")

        daemon = _serve(socket_path, cache)
        try:
            with DaemonClient(socket_path) as client:
                assert not client.solve(mxm)["from_cache"]
        finally:
            _shut_down(daemon, socket_path)

        output = _run_cli(
            "--programs", "MxM,Radar", "--portfolio", "enhanced", "--cache", cache
        )
        assert "served 1/2 from cache" in output
        assert [line.split()[:2] for line in output.splitlines()[1:3]] == [
            ["MxM", "cache"], ["Radar", "winner=enhanced"]
        ]

        daemon = _serve(socket_path, cache)
        try:
            with DaemonClient(socket_path) as client:
                replies = client.solve_many([mxm, radar])
        finally:
            _shut_down(daemon, socket_path)
        assert [reply["from_cache"] for reply in replies] == [True, True]

    def test_batch_keeps_entries_saved_during_its_run(self, tmp_path):
        """Another process (a daemon, say) merge-saves to the file while
        the batch runs: the batch's own save must not drop that."""
        cache = str(tmp_path / "cache.json")
        script = (
            "import sys\n"
            "from repro.service import cli\n"
            "from repro.service.cache import ResultCache\n"
            "real = cli.run_batch\n"
            "def run_batch(*args, **kwargs):\n"
            "    report = real(*args, **kwargs)\n"
            "    other = ResultCache(path=sys.argv[-1])\n"
            "    other.put('fp', 'token', {'v': 1})\n"
            "    other.save(merge=True)\n"
            "    return report\n"
            "cli.run_batch = run_batch\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [
                sys.executable, "-c", script,
                "--programs", "MxM", "--portfolio", "enhanced", "--cache", cache,
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        reloaded = ResultCache(path=cache)
        assert len(reloaded) == 2
        assert reloaded.get("fp", "token") == {"v": 1}

    def test_clear_cache_overwrites_the_file(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        other = ResultCache(path=cache)
        other.put("fp", "token", {"v": 1})
        other.save()
        _run_cli(
            "--programs", "MxM", "--portfolio", "enhanced",
            "--cache", cache, "--clear-cache",
        )
        reloaded = ResultCache(path=cache)
        assert len(reloaded) == 1
        assert not reloaded.contains("fp", "token")


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
