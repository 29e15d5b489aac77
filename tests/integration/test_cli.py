"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_option(self):
        args = build_parser().parse_args(["--seed", "7", "demo"])
        assert args.seed == 7
        assert args.command == "demo"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_lab_rejects_negative_seed(self):
        from repro.exceptions import SpecificationError

        with pytest.raises(SpecificationError, match="seed"):
            main(["--seed", "-1", "lab", "--trajectories", "1"])

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "rho" in out and "latency" in out

    def test_degeneracy(self, capsys):
        assert main(["--seed", "1", "degeneracy", "--cases", "2"]) == 0
        out = capsys.readouterr().out
        assert "[E2]" in out and "[E3]" in out
        assert "1/sqrt(n)" in out

    def test_heuristics(self, capsys):
        assert main(["--seed", "2", "heuristics", "--tasks", "10",
                     "--machines", "3"]) == 0
        out = capsys.readouterr().out
        assert "[E5]" in out
        assert "Sufferage" in out

    def test_hiperd_loads_only(self, capsys):
        assert main(["--seed", "3", "hiperd", "--kinds", "loads"]) == 0
        out = capsys.readouterr().out
        assert "rho" in out
        assert "criticality" in out
        assert "[E9]" in out

    def test_hiperd_without_loads_skips_monitor(self, capsys):
        assert main(["--seed", "3", "hiperd", "--kinds", "msgsize"]) == 0
        out = capsys.readouterr().out
        assert "[E9]" not in out

    def test_tradeoff(self, capsys):
        assert main(["--seed", "4", "tradeoff", "--tasks", "10",
                     "--machines", "3"]) == 0
        out = capsys.readouterr().out
        assert "[E10]" in out
        assert "frontier" in out

    def test_failures(self, capsys):
        assert main(["--seed", "5", "failures", "--tasks", "8",
                     "--machines", "3"]) == 0
        out = capsys.readouterr().out
        assert "failure radius" in out
        assert "criticality" in out

    def test_placement(self, capsys):
        assert main(["--seed", "6", "placement", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "placement search" in out

    def test_experiments_only_subset(self, capsys):
        assert main(["--seed", "7", "experiments", "--only", "E11"]) == 0
        out = capsys.readouterr().out
        assert "[E11]" in out

    def test_experiments_markdown(self, capsys):
        assert main(["--seed", "7", "experiments", "--only", "E11",
                     "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "### E11" in out
        assert "|---|" in out

    def test_topology(self, capsys):
        assert main(["--seed", "8", "topology", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "tightest" in out and "busiest" in out

    def test_module_invocation(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "demo"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "rho" in proc.stdout


class TestServeSupervision:
    """``serve`` hands the global supervision flags to its service and
    refuses ``--chaos``, which the service has no hook for."""

    SERVE = ["serve", "--requests", "2", "--problems-per-request", "2",
             "--repeat", "1"]

    @pytest.fixture()
    def supervisor_configs(self, monkeypatch):
        import repro.service as service_pkg

        seen = []

        class Recording(service_pkg.RadiusService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.executor.config)

        monkeypatch.setattr(service_pkg, "RadiusService", Recording)
        return seen

    def test_flags_reach_the_service_supervisor(self, capsys,
                                                supervisor_configs):
        assert main(["--no-cache", "--task-timeout", "30",
                     "--max-task-retries", "4"] + self.SERVE) == 0
        [config] = supervisor_configs
        assert (config.task_timeout, config.max_task_retries) == (30.0, 4)
        assert "identical to library path: True" in capsys.readouterr().out

    def test_retries_default_to_two(self, capsys, supervisor_configs):
        assert main(["--no-cache", "--task-timeout", "30"] + self.SERVE) == 0
        [config] = supervisor_configs
        assert (config.task_timeout, config.max_task_retries) == (30.0, 2)

    def test_chaos_is_a_usage_error(self, capsys, supervisor_configs):
        code = main(["--no-cache", "--workers", "2",
                     "--chaos", "kill=1.0,seed=1"] + self.SERVE)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "--chaos" in captured.err
        assert supervisor_configs == []  # no service was started
