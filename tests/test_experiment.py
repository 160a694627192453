import pytest

from ffsipp import experiment
from ffsipp.experiment import (
    METRICS_HEADER,
    ExperimentConfig,
    aggregate,
    render_aggregate,
    render_metrics,
    sla_label,
)
from ffsipp.landscape import parse_scenario

from .conftest import preset_text


def rows():
    base = dict(run_id="r", arrival="constant", sla="strict")
    return [
        {**base, "approach": "ffsipp", "seed": 1, "sla_adherence_pct": 100.0,
         "makespan_min": 30.0, "leasing_cost": 100.0, "penalty_cost": 0.0,
         "total_cost": 100.0},
        {**base, "approach": "ffsipp", "seed": 2, "sla_adherence_pct": 90.0,
         "makespan_min": 34.0, "leasing_cost": 120.0, "penalty_cost": 10.0,
         "total_cost": 130.0},
        {**base, "approach": "sipp", "seed": 1, "sla_adherence_pct": 80.0,
         "makespan_min": 28.0, "leasing_cost": 200.0, "penalty_cost": 20.0,
         "total_cost": 220.0},
    ]


class TestConfigValidation:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario_path="x.yaml", seeds=())

    def test_requires_known_approach(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario_path="x.yaml", approaches=("greedy",))

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ValueError, match=r"repeated seeds: \[1\]"):
            ExperimentConfig(scenario_path="x.yaml", seeds=(1, 2, 1))

    def test_repeated_approaches_rejected(self):
        with pytest.raises(ValueError, match=r"repeated approaches: \['sipp'\]"):
            ExperimentConfig(scenario_path="x.yaml", approaches=("sipp", "ffsipp", "sipp"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seeds must be >= 0, got \[-1\]$"):
            ExperimentConfig(scenario_path="x.yaml", seeds=(1, -1))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=rf"^max_workers must be >= 1, got {workers}$"):
            ExperimentConfig(scenario_path="x.yaml", max_workers=workers)


class TestWorkerPool:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # A fork pool starts all its workers at the first submit; this fake
        # records the size asked for and runs the jobs here, starting none.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
        return sizes

    @pytest.mark.parametrize("workers", [8, None])
    def test_no_more_workers_than_runs(self, tmp_path, pool_sizes, workers):
        experiment.run_experiment(ExperimentConfig(
            scenario_path="smoke", approaches=("ffsipp",), seeds=(1,),
            out_dir=str(tmp_path), max_workers=workers,
        ))
        assert pool_sizes == [1]
        assert (tmp_path / "metrics.csv").exists()

    def test_scenario_parsed_once_for_all_runs(self, tmp_path, monkeypatch, pool_sizes):
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_scenario(text)

        monkeypatch.setattr(experiment, "parse_scenario", counting)
        reports = experiment.run_experiment(ExperimentConfig(
            scenario_path="smoke", seeds=(1, 2), out_dir=str(tmp_path),
        ))
        assert len(reports) == 4
        assert len(parsed) == 1


class TestLoadScenario:
    def test_directory_does_not_shadow_preset(self, tmp_path, monkeypatch):
        (tmp_path / "smoke").mkdir()
        monkeypatch.chdir(tmp_path)
        scenario = experiment.load_scenario(ExperimentConfig(scenario_path="smoke"))
        assert scenario == parse_scenario(preset_text("smoke"))


class TestAggregation:
    def test_means_are_exact(self):
        out = {e["approach"]: e for e in aggregate(rows())}
        assert out["ffsipp"]["total_cost_mean"] == pytest.approx(115.0)
        assert out["ffsipp"]["sla_adherence_pct_mean"] == pytest.approx(95.0)

    def test_sample_stddev(self):
        out = {e["approach"]: e for e in aggregate(rows())}
        assert out["ffsipp"]["total_cost_std"] == pytest.approx(21.2132, abs=1e-3)

    def test_single_run_sigma_zero(self):
        out = {e["approach"]: e for e in aggregate(rows())}
        assert out["sipp"]["total_cost_std"] == 0.0


class TestRendering:
    def test_header_is_bit_exact(self):
        assert (
            METRICS_HEADER
            == "run_id,approach,arrival,sla,seed,sla_adherence_pct,"
            "makespan_min,leasing_cost,penalty_cost,total_cost"
        )
        assert render_metrics(rows()).splitlines()[0] == METRICS_HEADER

    def test_two_decimal_floats(self):
        line = render_metrics(rows()).splitlines()[1]
        assert line == "r,ffsipp,constant,strict,1,100.00,30.00,100.00,0.00,100.00"

    def test_aggregate_rendering(self):
        text = render_aggregate(aggregate(rows()))
        lines = text.splitlines()
        assert lines[0].startswith("approach,runs,sla_adherence_pct_mean")
        assert lines[1].startswith("ffsipp,2,95.00")
        assert lines[2].startswith("sipp,1,80.00")


class TestSlaLabel:
    def test_named_factors(self):
        assert sla_label(1.5) == "strict"
        assert sla_label(2.5) == "lenient"
        assert sla_label(2.0) == "factor2"


class TestReport:
    def test_report_reaggregates(self, tmp_path):
        (tmp_path / "metrics.csv").write_text(render_metrics(rows()))
        rendered = experiment.report(str(tmp_path))
        assert (tmp_path / "aggregate.csv").read_text() == rendered
        assert "ffsipp,2," in rendered

    def test_missing_metrics_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            experiment.report(str(tmp_path))

    def test_report_reproduces_run_aggregate(self, tmp_path):
        experiment.run_experiment(
            ExperimentConfig(
                scenario_path="smoke", approaches=("ffsipp",), seeds=(1, 2, 3),
                out_dir=str(tmp_path),
            )
        )
        written = (tmp_path / "aggregate.csv").read_bytes()
        experiment.report(str(tmp_path))
        assert (tmp_path / "aggregate.csv").read_bytes() == written

    def test_foreign_header_rejected(self, tmp_path):
        (tmp_path / "metrics.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            experiment.report(str(tmp_path))
