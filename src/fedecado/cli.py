"""Command-line interface: run experiments, materialize partitions, join
metrics across configs, and run the verification suite."""

import os
import sys
from dataclasses import replace

import click

from fedecado.harness import (
    ConfigError,
    ExperimentConfig,
    metrics_to_csv,
    partitioned_dataset,
    run_experiment,
)


@click.group()
def main():
    """Federated learning simulator with a continuous-time consensus core."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Override the output directory.")
@click.option("--algo", type=str, default=None, help="Override the algorithm.")
def run(config_path, seed, out, algo):
    """Run one experiment; exit 0 on convergence, 2 on exhausting the round
    budget, 1 on error or divergence."""
    try:
        overrides = {"seed": seed, "out_dir": out, "algo": algo}
        cfg = replace(ExperimentConfig.from_file(config_path),
                      **{k: v for k, v in overrides.items() if v is not None})
        result = run_experiment(cfg)
    except (ConfigError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if result.status == "diverged":
        click.echo(f"diverged: {result.reason}", err=True)
    last = result.metrics_rows[-1] if result.metrics_rows else {}
    click.echo(f"{cfg.name}: {result.status} after {result.rounds_run} rounds "
               f"(loss={last.get('global_loss', float('nan')):.6g})")
    sys.exit(result.exit_code)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def partition(config_path, out_path):
    """Materialize the config's data partition as JSON."""
    try:
        cfg = ExperimentConfig.from_file(config_path)
        if cfg.objective["kind"] == "quadratic":
            raise ConfigError("quadratic objectives have no sample partition")
        _, part = partitioned_dataset(cfg)
    except (ConfigError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(part.to_json())
    click.echo(f"wrote {out_path} ({part.n_clients} clients)")


@main.command()
@click.option("--configs", required=True, multiple=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def compare(configs, out_path):
    """Run several configs and emit one joined metrics CSV with a leading
    `config` column."""
    rows_out = []
    for path in configs:
        try:
            cfg = ExperimentConfig.from_file(path)
            result = run_experiment(cfg)
        except (ConfigError, OSError) as exc:
            click.echo(f"error in {path}: {exc}", err=True)
            sys.exit(1)
        name = cfg.name or os.path.splitext(os.path.basename(path))[0]
        for row in result.metrics_rows:
            rows_out.append((name, row))
        click.echo(f"{name}: {result.status} after {result.rounds_run} rounds")
    body = metrics_to_csv([r for _, r in rows_out]).splitlines()
    header = "config," + body[0]
    lines = [header] + [f"{name},{line}" for (name, _), line in zip(rows_out, body[1:])]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    click.echo(f"wrote {out_path} ({len(rows_out)} rows)")


@main.command()
def verify():
    """Run the oracle verification suite; TAP-style output."""
    from fedecado.oracles import run_verification
    results = run_verification()
    click.echo(f"1..{len(results)}")
    for idx, (name, ok, detail) in enumerate(results, start=1):
        click.echo(f"{'ok' if ok else 'not ok'} {idx} - {name}: {detail}")
    sys.exit(0 if all(ok for _, ok, _ in results) else 1)


if __name__ == "__main__":
    main()
