import re
from pathlib import Path

from click.testing import CliRunner

from ffsipp import cli
from ffsipp.experiment import METRICS_HEADER

from .conftest import preset_text, problem_from_json


def run_cli(*args):
    return CliRunner().invoke(cli.main, list(args))


def test_every_option_is_documented():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    options = {
        opt
        for command in cli.main.commands.values()
        for param in command.params
        for opt in param.opts
        if opt.startswith("--")
    }
    assert options
    documented = {opt for opt in options if re.search(rf"{re.escape(opt)}(?![\w-])", readme)}
    assert sorted(options - documented) == []


class TestRunCommand:
    def test_smoke_run_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli(
            "run", "--scenario", "smoke", "--approach", "ffsipp",
            "--seeds", "1", "--out", str(out),
        )
        assert result.exit_code == 0, result.output
        metrics = (out / "metrics.csv").read_text()
        assert metrics.splitlines()[0] == METRICS_HEADER
        assert (out / "aggregate.csv").exists()
        assert (out / "usage_ffsipp_seed1.csv").read_text().startswith(
            "minute,leased_cores,parallel_requests"
        )
        assert (out / "actions_ffsipp_seed1.log").read_text()

    def test_unknown_scenario_fails_cleanly(self, tmp_path):
        result = run_cli(
            "run", "--scenario", "no_such_thing", "--seeds", "1",
            "--out", str(tmp_path / "out"),
        )
        assert result.exit_code != 0
        assert "preset" in result.output

    def test_bad_scenario_fails_cleanly(self, tmp_path):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(preset_text("smoke").replace("duration_s: 40, ", ""))
        result = run_cli(
            "run", "--scenario", str(scenario), "--seeds", "1",
            "--out", str(tmp_path / "out"),
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code != 0
        assert "services[0]: missing key 'duration_s'" in result.output

    def test_bad_seed_names_the_option(self, tmp_path):
        result = run_cli(
            "run", "--scenario", "smoke", "--seeds", "1,x", "--out", str(tmp_path / "out"),
        )
        assert result.exit_code == 2
        assert (
            "Invalid value for '--seeds': expected comma-separated whole numbers, got '1,x'"
            in result.output
        )
        assert not (tmp_path / "out").exists()

    def test_dump_models_writes_round_json(self, tmp_path):
        models = tmp_path / "models"
        args = ("run", "--scenario", "smoke", "--approach", "ffsipp",
                "--seeds", "1", "--out", str(tmp_path / "out"))
        refused = run_cli(*args, "--dump-lp", str(models))
        assert refused.exit_code == 2
        assert "No such option '--dump-lp'" in refused.output
        result = run_cli(*args, "--dump-models", str(models))
        assert result.exit_code == 0, result.output
        dumps = sorted(models.iterdir())
        assert dumps[0].name == "ffsipp_seed1_round0001.json"
        for path in dumps:
            assert path.suffix == ".json"
            assert problem_from_json(path.read_text()).num_vars > 0


class TestReportCommand:
    def test_report_on_existing_run(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "run", "--scenario", "smoke", "--approach", "ffsipp",
            "--seeds", "1", "--out", str(out),
        ).exit_code == 0
        result = run_cli("report", "--in", str(out))
        assert result.exit_code == 0
        assert result.output.startswith("approach,runs,")

    def test_report_without_metrics_fails(self, tmp_path):
        result = run_cli("report", "--in", str(tmp_path))
        assert result.exit_code != 0

    def test_metrics_directory_is_no_metrics_file(self, tmp_path):
        (tmp_path / "metrics.csv").mkdir()
        result = run_cli("report", "--in", str(tmp_path))
        assert result.exit_code != 0
        assert f"no metrics.csv in {tmp_path}" in result.output

    def test_short_row_names_its_line(self, tmp_path):
        (tmp_path / "metrics.csv").write_text(
            METRICS_HEADER + "\nr,ffsipp,constant,strict,1,100.00,30.00\n"
        )
        result = run_cli("report", "--in", str(tmp_path))
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code != 0
        assert "metrics.csv, line 2: 7 fields, the header has 10" in result.output

    def test_unwritable_aggregate_fails_cleanly(self, tmp_path):
        (tmp_path / "metrics.csv").write_text(
            METRICS_HEADER + "\nr,ffsipp,constant,strict,1,100.00,30.00,100.00,0.00,100.00\n"
        )
        (tmp_path / "aggregate.csv").mkdir()
        result = run_cli("report", "--in", str(tmp_path))
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code != 0
        assert "cannot write outputs: " in result.output
