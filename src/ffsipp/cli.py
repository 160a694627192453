"""Command-line entry points: ``ffsipp run`` and ``ffsipp report``."""
from __future__ import annotations

import sys
from pathlib import Path

import click

from . import experiment
from .landscape import ScenarioError


def _seeds(ctx, param, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in value.split(",") if s.strip())
    except ValueError:
        raise click.BadParameter(f"expected comma-separated whole numbers, got {value!r}") from None


@click.group()
def main():
    """Cost-optimal scheduling of elastic processes onto leased VMs."""


@main.command(name="run")
@click.option("--scenario", required=True, help="Scenario file or bundled preset name.")
@click.option(
    "--approach",
    default="ffsipp,sipp",
    show_default=True,
    help="Comma-separated approaches to run.",
)
@click.option(
    "--seeds", default="1,2,3", show_default=True, callback=_seeds, help="Comma-separated seeds."
)
@click.option("--out", "out_dir", required=True, help="Output directory for reports.")
@click.option("--dump-models", "dump_dir", default=None, help="Directory for round model JSON.")
@click.option("--workers", type=int, default=None, help="Parallel worker processes.")
def run_cmd(scenario, approach, seeds, out_dir, dump_dir, workers):
    """Execute seeded runs and write metrics, usage, audit, and aggregate files."""
    try:
        config = experiment.ExperimentConfig(
            scenario_path=scenario,
            approaches=tuple(a.strip() for a in approach.split(",") if a.strip()),
            seeds=seeds,
            out_dir=out_dir,
            dump_dir=dump_dir,
            max_workers=workers,
        )
        experiment.run_experiment(config)
    except (ScenarioError, ValueError) as exc:
        raise click.ClickException(str(exc))
    except OSError as exc:
        raise click.ClickException(f"cannot write outputs: {exc}")
    click.echo((Path(out_dir) / "aggregate.csv").read_text(), nl=False)


@main.command(name="report")
@click.option("--in", "in_dir", required=True, help="Directory holding metrics.csv.")
def report_cmd(in_dir):
    """Re-aggregate an existing metrics.csv."""
    try:
        rendered = experiment.report(in_dir)
    except (FileNotFoundError, ValueError) as exc:
        raise click.ClickException(str(exc))
    except OSError as exc:
        raise click.ClickException(f"cannot write outputs: {exc}")
    click.echo(rendered, nl=False)


if __name__ == "__main__":
    sys.exit(main())
