"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scan_rate == 0.1
        assert args.volume == 5.0

    def test_scan_rate_positional(self):
        args = build_parser().parse_args(["scan-rate", "0.1", "0.2"])
        assert args.rates == [0.1, 0.2]

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "x.mpt", "--diffusion", "2.4e-5"]
        )
        assert args.file == "x.mpt"
        assert args.diffusion == pytest.approx(2.4e-5)


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--e-step", "0.002"])
        captured = capsys.readouterr()
        assert code == 0
        assert "D_run_cv" in captured.out
        assert "anodic peak" in captured.out

    def test_scan_rate_runs(self, capsys):
        code = main(["scan-rate", "0.1", "0.2", "--e-step", "0.002"])
        captured = capsys.readouterr()
        assert code == 0
        assert "D = " in captured.out

    def test_analyze_round_trip(self, tmp_path, capsys, reference_voltammogram):
        from repro.datachannel.formats import write_mpt

        path = write_mpt(tmp_path / "run.mpt", reference_voltammogram)
        code = main(["analyze", str(path), "--diffusion", "2.4e-5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "E1/2" in captured.out
        assert "Nicholson" in captured.out

    def test_analyze_blank_reports_no_wave(self, tmp_path, capsys):
        from repro.chemistry.cv_engine import CVEngine, CVParameters
        from repro.chemistry.species import FERROCENE
        from repro.datachannel.formats import write_mpt

        blank = CVEngine(FERROCENE, 0.0, 0.0707).run(CVParameters())
        path = write_mpt(tmp_path / "blank.mpt", blank)
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no complete" in captured.out

    def test_watch_tails_the_live_feed(self, capsys):
        code = main(["watch", "--e-step", "0.005", "--interval", "0.05"])
        captured = capsys.readouterr()
        assert code == 0
        # the feed rendered span completions from both halves
        assert "span" in captured.out
        assert "task." in captured.out
        assert "stream:" in captured.out
        assert "metric updates" in captured.out

    def test_watch_profile_prints_hot_operations(self, capsys):
        code = main(
            ["watch", "--e-step", "0.005", "--interval", "0.05", "--profile"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "profile:" in captured.out
        assert "task." in captured.out


class TestHealth:
    @staticmethod
    def _verdicts(out: str) -> dict[str, str]:
        rows = [line.split() for line in out.splitlines()[2:] if line.strip()]
        return {row[0]: row[1] for row in rows}

    def test_probe_prints_every_subsystem_and_overall(self, capsys):
        from repro.obs.health import SUBSYSTEMS

        code = main(["health", "--e-step", "0.01"])
        captured = capsys.readouterr()
        assert code == 0
        verdicts = self._verdicts(captured.out)
        assert set(verdicts) == set(SUBSYSTEMS) | {"overall"}
        assert len(SUBSYSTEMS) == 10
        assert verdicts["overall"] == "healthy"

    def test_no_probe_exits_zero(self, capsys):
        code = main(["health", "--no-probe"])
        captured = capsys.readouterr()
        assert code == 0
        assert self._verdicts(captured.out)["overall"] == "healthy"


class TestWatchParser:
    def test_watch_defaults(self):
        args = build_parser().parse_args(["watch"])
        assert args.interval == pytest.approx(0.2)
        assert args.profile is False
        assert args.fn.__name__ == "_cmd_watch"


class TestTop:
    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.tenants == ["lab-a", "lab-b"]
        assert args.burst_tenant is None
        assert args.fn.__name__ == "_cmd_top"

    def test_top_renders_tenant_table(self, capsys):
        code = main(["top", "--calls", "5", "--rounds", "1"])
        captured = capsys.readouterr()
        assert code == 0  # no burst: nothing is alerting
        assert "TENANT" in captured.out
        assert "lab-a" in captured.out and "lab-b" in captured.out
        assert "dgx-session" in captured.out and "acl-daemon" in captured.out

    def test_top_burst_pages_and_exits_nonzero(self, capsys):
        code = main(
            [
                "top",
                "--calls",
                "5",
                "--rounds",
                "1",
                "--burst-tenant",
                "lab-a",
                "--burst-calls",
                "10",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1  # the burst tenant's burn-rate alert is firing
        burst_row = next(
            line
            for line in captured.out.splitlines()
            if line.startswith("lab-a")
        )
        idle_row = next(
            line
            for line in captured.out.splitlines()
            if line.startswith("lab-b")
        )
        assert "ALERT" in burst_row
        assert "ALERT" not in idle_row
