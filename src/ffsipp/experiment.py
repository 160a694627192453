"""Repeated seeded runs, metrics CSV emission, and mean/σ aggregation.

One experiment runs every (approach, seed) combination of a scenario in
parallel worker processes and writes four kinds of artifacts into the
output directory: ``metrics.csv`` (one row per run), per-run usage series,
per-run action audit logs, and ``aggregate.csv`` (mean and sample standard
deviation per metric per approach). All outputs are byte-reproducible.
"""
from __future__ import annotations

import csv
import io
import os
import statistics
from importlib import resources
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import sim
from .landscape import Scenario, ScenarioError, parse_scenario

METRICS_HEADER = (
    "run_id,approach,arrival,sla,seed,sla_adherence_pct,"
    "makespan_min,leasing_cost,penalty_cost,total_cost"
)
METRIC_COLUMNS = (
    "sla_adherence_pct",
    "makespan_min",
    "leasing_cost",
    "penalty_cost",
    "total_cost",
)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario_path: str
    approaches: tuple[str, ...] = (sim.FFSIPP, sim.SIPP)
    seeds: tuple[int, ...] = (1, 2, 3)
    out_dir: str = "out"
    dump_dir: str | None = None
    max_workers: int | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not self.approaches:
            raise ValueError("at least one approach is required")
        for name, values in (("seeds", self.seeds), ("approaches", self.approaches)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"repeated {name}: {repeated}")
        unknown = set(self.approaches) - {sim.FFSIPP, sim.SIPP}
        if unknown:
            raise ValueError(f"unknown approaches: {sorted(unknown)}")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise ValueError(f"seeds must be >= 0, got {negative}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")


def load_scenario(config: ExperimentConfig) -> Scenario:
    """Parse the scenario file ``config.scenario_path`` or, if there is no
    such file, the bundled preset of that name (``.yaml`` optional)."""
    path = Path(config.scenario_path)
    if path.is_file():
        text = path.read_text()
    else:
        presets = resources.files("ffsipp.presets")
        preset = presets.joinpath(config.scenario_path.removesuffix(".yaml") + ".yaml")
        if not preset.is_file():
            names = sorted(p.name.removesuffix(".yaml") for p in presets.iterdir()
                           if p.name.endswith(".yaml"))
            raise ScenarioError(
                f"{config.scenario_path!r} is neither a file nor a preset "
                f"(presets: {', '.join(names)})"
            )
        text = preset.read_text()
    return parse_scenario(text)


def sla_label(factor: float) -> str:
    if factor == 1.5:
        return "strict"
    if factor == 2.5:
        return "lenient"
    return f"factor{factor:g}"


def _run_one(args) -> tuple[str, int, sim.MetricsReport]:
    config, approach, seed = args
    scenario = load_scenario(config)
    return approach, seed, sim.run(scenario, approach, seed, dump_dir=config.dump_dir)


def run_experiment(config: ExperimentConfig) -> dict[tuple[str, int], sim.MetricsReport]:
    """Execute all runs; write metrics.csv, usage/audit files, and ``report``'s aggregate.csv."""
    scenario = load_scenario(config)  # validate before spawning workers
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(config, a, s) for a in config.approaches for s in config.seeds]
    # Under fork the pool starts all its workers at the first submit, so it
    # gets no more than there are runs.
    workers = min(config.max_workers or os.cpu_count() or 1, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        reports = {(a, s): rep for a, s, rep in pool.map(_run_one, jobs)}

    stem = Path(config.scenario_path).stem
    sla = sla_label(scenario.sla.factor)
    rows = []
    for approach in config.approaches:
        for seed in config.seeds:
            rep = reports[(approach, seed)]
            rows.append(
                {
                    "run_id": f"{stem}_{approach}_seed{seed}",
                    "approach": approach,
                    "arrival": scenario.arrival.kind,
                    "sla": sla,
                    "seed": seed,
                    **{c: getattr(rep, c) for c in METRIC_COLUMNS},
                }
            )
    (out / "metrics.csv").write_text(render_metrics(rows))
    report(config.out_dir)
    for (approach, seed), rep in sorted(reports.items()):
        usage = io.StringIO()
        writer = csv.writer(usage, lineterminator="\n")
        writer.writerow(["minute", "leased_cores", "parallel_requests"])
        writer.writerows(rep.usage_series)
        (out / f"usage_{approach}_seed{seed}.csv").write_text(usage.getvalue())
        log = "".join(line + "\n" for line in rep.audit_log)
        (out / f"actions_{approach}_seed{seed}.log").write_text(log)
    return reports


def render_metrics(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(METRICS_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [row["run_id"], row["approach"], row["arrival"], row["sla"], row["seed"]]
            + [f"{row[c]:.2f}" for c in METRIC_COLUMNS]
        )
    return buf.getvalue()


def aggregate(rows: list[dict]) -> list[dict]:
    """Mean and sample σ of every metric, per approach (σ = 0 for one run)."""
    out = []
    for approach in dict.fromkeys(r["approach"] for r in rows):
        group = [r for r in rows if r["approach"] == approach]
        entry = {"approach": approach, "runs": len(group)}
        for col in METRIC_COLUMNS:
            values = [float(r[col]) for r in group]
            entry[f"{col}_mean"] = statistics.fmean(values)
            entry[f"{col}_std"] = statistics.stdev(values) if len(values) > 1 else 0.0
        out.append(entry)
    return out


def render_aggregate(entries: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["approach", "runs"]
    for col in METRIC_COLUMNS:
        header += [f"{col}_mean", f"{col}_std"]
    writer.writerow(header)
    for e in entries:
        row = [e["approach"], e["runs"]]
        for col in METRIC_COLUMNS:
            row += [f"{e[f'{col}_mean']:.2f}", f"{e[f'{col}_std']:.2f}"]
        writer.writerow(row)
    return buf.getvalue()


def read_metrics(in_dir: str) -> list[dict]:
    path = Path(in_dir) / "metrics.csv"
    if not path.is_file():
        raise FileNotFoundError(f"no metrics.csv in {in_dir}")
    text = path.read_text()
    first = text.splitlines()[0] if text else ""
    if first != METRICS_HEADER:
        raise ValueError(f"unexpected metrics header: {first!r}")
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for fields in reader:
        if not fields:  # a blank line
            continue
        if len(fields) != len(header):
            raise ValueError(
                f"{path}, line {reader.line_num}: {len(fields)} fields, "
                f"the header has {len(header)}"
            )
        rows.append(dict(zip(header, fields)))
    return rows


def report(in_dir: str) -> str:
    """Re-aggregate an existing metrics.csv and rewrite aggregate.csv."""
    rows = read_metrics(in_dir)
    rendered = render_aggregate(aggregate(rows))
    (Path(in_dir) / "aggregate.csv").write_text(rendered)
    return rendered
