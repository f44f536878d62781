"""Command-line interface.

Subcommands: ``run`` one experiment, ``compare`` several configs in one
chart, ``sweep`` a parameter grid, ``verify`` the closed-form step-size
results, ``repro`` a canned benchmark preset.  Exit codes: 0 success,
1 run/verification failure, 2 usage or config errors.
"""

from __future__ import annotations

import json
import pathlib
import re

import click

from .harness import (ExperimentConfig, _prepare, apply_override, load_config,
                      parse_override_value, run_experiment, sweep)
from .presets import PRESETS
from .svgplot import render_traces
from .theory import summarize_reports, verify_theorems
from .tracing import write_csv


def _slug(text: str) -> str:
    out = re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")
    return out or "run"


def _load_with_overrides(config_path, overrides, seed) -> ExperimentConfig:
    try:
        cfg = load_config(config_path)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise click.UsageError(f"invalid config {config_path}: {exc}")
    d = cfg.to_dict()
    for item in overrides:
        if "=" not in item:
            raise click.UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            apply_override(d, key, parse_override_value(value))
        except ValueError as exc:
            raise click.UsageError(str(exc))
    if seed is not None:
        d["seed"] = seed
    try:
        return ExperimentConfig.from_dict(d)
    except ValueError as exc:
        raise click.UsageError(f"invalid config: {exc}")


def _or_fail(fn, *args):
    """``fn(*args)``, with a ``ValueError`` exiting 2 and any other error 1."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except Exception as exc:
        raise click.ClickException(str(exc))


def _emit(out_dir: pathlib.Path, name: str, labeled_traces, svg: bool):
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, trace in labeled_traces:
        write_csv(trace, out_dir / f"{_slug(label)}.csv")
    if svg:
        render_traces(labeled_traces, out_dir / f"{_slug(name)}.svg")


@click.group()
def cli():
    """Benchmark gradient-descent step-size planning and its baselines."""


@cli.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Experiment config (JSON).")
@click.option("--out", "out_dir", default="out", type=click.Path(file_okay=False),
              help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--svg/--no-svg", default=True, help="Also render an SVG chart.")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Dotted-path config override (repeatable).")
def run(config_path, out_dir, seed, svg, overrides):
    """Run one experiment and write its trace as CSV (and SVG)."""
    cfg = _load_with_overrides(config_path, overrides, seed)
    trace = _or_fail(run_experiment, cfg)
    label = cfg.label or pathlib.Path(config_path).stem
    _emit(pathlib.Path(out_dir), label, [(label, trace)], svg)
    click.echo(f"{label}: status={trace.status} iterations={len(trace)} "
               f"grad_evals={trace.total_grad_evals} final_error={trace.final_error():.6g}")
    if trace.status == "diverged":
        raise click.ClickException("run diverged")


@cli.command()
@click.option("--config", "config_paths", required=True, multiple=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Experiment config (repeat for each run).")
@click.option("--out", "out_dir", default="out", type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None)
@click.option("--svg/--no-svg", default=True)
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE")
def compare(config_paths, out_dir, seed, svg, overrides):
    """Build several configs, then run and overlay them in one chart + combined CSV."""
    prepared = []
    for path in config_paths:
        cfg = _load_with_overrides(path, overrides, seed)
        prepared.append((cfg.label or pathlib.Path(path).stem, _or_fail(_prepare, cfg)))
    labeled = [(label, _or_fail(run)) for label, run in prepared]
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    combined = out / "compare.csv"
    with open(combined, "w", newline="") as fh:
        fh.write("label,iteration,grad_evals,error\n")
        for label, trace in labeled:
            for r in trace.records:
                fh.write(f"{label},{r.iteration},{r.grad_evals},{r.error!r}\n")
    if svg:
        render_traces(labeled, out / "compare.svg")
    for label, trace in labeled:
        click.echo(f"{label}: status={trace.status} final_error={trace.final_error():.6g}")


@cli.command("sweep")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Base config (JSON).")
@click.option("--grid", "grid_items", required=True, multiple=True, metavar="KEY=V1,V2,...",
              help="Dotted-path grid values (repeatable; Cartesian product).")
@click.option("--out", "out_dir", default="out", type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None)
@click.option("--svg/--no-svg", default=True)
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE")
def sweep_cmd(config_path, grid_items, out_dir, seed, svg, overrides):
    """Run a Cartesian parameter grid over a base config."""
    base = _load_with_overrides(config_path, overrides, seed)
    grid = {}
    for item in grid_items:
        if "=" not in item:
            raise click.UsageError(f"--grid expects key=v1,v2,..., got {item!r}")
        key, _, values = item.partition("=")
        grid[key] = [parse_override_value(v) for v in values.split(",") if v != ""]
    results = _or_fail(sweep, grid, base)
    labeled = [(cfg.label, trace) for cfg, trace in results]
    _emit(pathlib.Path(out_dir), "sweep", labeled, svg)
    click.echo(f"{'label':<40} {'status':<18} {'grad_evals':>10} {'final_error':>14}")
    for cfg, trace in results:
        click.echo(f"{cfg.label:<40} {trace.status:<18} {trace.total_grad_evals:>10} "
                   f"{trace.final_error():>14.6g}")


@cli.command()
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--d-max", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", default="out", type=click.Path(file_okay=False),
              help="Directory for the machine-readable report.")
def verify(trials, d_max, seed, out_dir):
    """Check the optimal-step-size results on random instances."""
    reports = verify_theorems(trials=trials, d_max=d_max, seed=seed)
    summary = summarize_reports(reports)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "verify_report.json", "w") as fh:
        json.dump({"trials": trials, "d_max": d_max, "seed": seed, "checks": summary},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"{'check':<18} {'trials':>7} {'skipped':>8} {'worst rho':>13} {'worst margin':>13} {'result':>7}")
    failed = False
    for name, entry in summary.items():
        worst = "n/a" if entry["worst_rho"] is None else f"{entry['worst_rho']:.6g}"
        margin = "n/a" if entry["worst_margin"] is None else f"{entry['worst_margin']:.6g}"
        verdict = "pass" if entry["passed"] else "FAIL"
        failed = failed or not entry["passed"]
        click.echo(f"{name:<18} {entry['trials']:>7} {entry['skipped']:>8} "
                   f"{worst:>13} {margin:>13} {verdict:>7}")
    if failed:
        raise click.ClickException("one or more checks failed")


@cli.command()
@click.argument("preset")
@click.option("--out", "out_dir", default="out", type=click.Path(file_okay=False))
@click.option("--svg/--no-svg", default=True)
def repro(preset, out_dir, svg):
    """Run a canned benchmark preset (see `stepplan repro --help` for names).

    \b
    Presets: convex-fig4, rosenbrock-fig6, rosenbrock-p5-fig8,
             rosenbrock-adam-fig10
    """
    if preset not in PRESETS:
        raise click.UsageError(
            f"unknown preset {preset!r}; choose from: {', '.join(sorted(PRESETS))}")
    configs = PRESETS[preset]()
    out = pathlib.Path(out_dir) / _slug(preset)
    out.mkdir(parents=True, exist_ok=True)
    labeled = []
    for cfg in configs:
        trace = _or_fail(run_experiment, cfg)
        labeled.append((cfg.label, trace))
        write_csv(trace, out / f"{_slug(cfg.label)}.csv")
        if svg:
            render_traces([(cfg.label, trace)], out / f"{_slug(cfg.label)}.svg")
        click.echo(f"{cfg.label}: status={trace.status} grad_evals={trace.total_grad_evals} "
                   f"final_error={trace.final_error():.6g}")
    if svg:
        render_traces(labeled, out / "overlay.svg")


def main():
    cli(prog_name="stepplan")


if __name__ == "__main__":
    main()
