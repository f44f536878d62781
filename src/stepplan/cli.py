"""Command-line interface.

Subcommands: ``run`` one experiment, ``compare`` several configs in one
chart, ``sweep`` a parameter grid, ``verify`` the closed-form step-size
results, ``repro`` a canned benchmark preset.  Exit codes: 0 success,
1 run/verification failure (after every run has ended), 2 usage or config errors.
"""

from __future__ import annotations

import json
import pathlib
import re

import click

from .harness import (ExperimentConfig, apply_override, load_config, parse_override_value,
                      run_all, sweep)
from .presets import PRESETS
from .svgplot import render_traces
from .theory import summarize_reports, verify_theorems
from .tracing import DIVERGED, write_csv


def _slug(text: str) -> str:
    out = re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")
    return out or "run"


def _load_with_overrides(config_path, overrides, seed, label_from_stem=True) -> ExperimentConfig:
    try:
        cfg = load_config(config_path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"invalid config {config_path}: {exc}") from None
    d = cfg.to_dict()
    for item in overrides:
        if "=" not in item:
            raise click.UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply_override(d, key, parse_override_value(value))
    if seed is not None:
        d["seed"] = seed
    if label_from_stem and not d["label"]:
        d["label"] = pathlib.Path(config_path).stem
    return ExperimentConfig.from_dict(d)


def _run(configs, out: pathlib.Path, line: str, svg: bool, chart=None, per_run_svg=False, own=()):
    """Run ``configs``, writing ``<label>.csv`` (and SVG) and echoing ``line`` as each ends,
    then the ``chart`` of the finished runs; two runs, or a run and a file in ``own``, sharing
    a path is a ``ValueError``.  Returns the finished runs and a message per failed run."""
    owner = dict.fromkeys(own, "the command's own output")
    for cfg in configs:
        csv = f"{_slug(cfg.label)}.csv"
        if csv in owner:
            raise ValueError(f"{owner[csv]} and run {cfg.label!r} would both write {out / csv}")
        owner[csv] = f"run {cfg.label!r}"
    done = []

    def write(cfg, trace):
        out.mkdir(parents=True, exist_ok=True)  # here: a bad config leaves no directory
        write_csv(trace, out / f"{_slug(cfg.label)}.csv")
        if svg and per_run_svg:
            render_traces([(cfg.label, trace)], out / f"{_slug(cfg.label)}.svg")
        click.echo(line.format(label=cfg.label, status=trace.status, n=len(trace),
                               evals=trace.total_grad_evals, error=trace.final_error()))
        done.append((cfg.label, trace))

    failed = run_all(configs, write)
    out.mkdir(parents=True, exist_ok=True)  # for the chart and compare.csv if no run finished
    if svg and chart:
        render_traces(done, out / chart)
    return done, [f"run {cfg.label!r} failed: {type(exc).__name__}: {exc}" for cfg, exc in failed]


# The options every run-like command takes; ``repro`` takes ``--out`` and ``--svg/--no-svg``.
_OUT = click.option("--out", default="out", help="Output directory.",
                    type=click.Path(file_okay=False, path_type=pathlib.Path))
_SEED = click.option("--seed", type=int, default=None, help="Override the config seed.")
_SVG = click.option("--svg/--no-svg", default=True, help="Also render an SVG chart.")
_SET = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                    help="Dotted-path config override (repeatable).")


class _Command(click.Command):
    """The one exit rule: a ``ValueError`` exits 2; the failures a subcommand returns exit 1."""

    def invoke(self, ctx):
        try:
            failures = super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from None
        if failures:
            raise click.ClickException("\n".join(failures))


@click.group()
def cli():
    """Benchmark gradient-descent step-size planning and its baselines."""


@cli.command(cls=_Command)
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Experiment config (JSON).")
@_OUT
@_SEED
@_SVG
@_SET
def run(config_path, out, seed, svg, overrides):
    """Run one experiment and write its trace as CSV (and SVG)."""
    cfg = _load_with_overrides(config_path, overrides, seed)
    done, failed = _run([cfg], out, "{label}: status={status} iterations={n} "
                        "grad_evals={evals} final_error={error:.6g}", svg, per_run_svg=True)
    return failed + ["run diverged" for _, trace in done if trace.status == DIVERGED]


@cli.command(cls=_Command)
@click.option("--config", "config_paths", required=True, multiple=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Experiment config (repeat for each run).")
@_OUT
@_SEED
@_SVG
@_SET
def compare(config_paths, out, seed, svg, overrides):
    """Build several configs, then run and overlay them in one chart + combined CSV."""
    configs = [_load_with_overrides(path, overrides, seed) for path in config_paths]
    done, failed = _run(configs, out, "{label}: status={status} final_error={error:.6g}", svg,
                        chart="compare.svg", own=["compare.csv"])
    with open(out / "compare.csv", "w", newline="") as fh:
        fh.write("label,iteration,grad_evals,error\n")
        for label, trace in done:
            if re.search(r'[,"\r\n]', label):  # quoted only where CSV needs it
                label = '"' + label.replace('"', '""') + '"'
            fh.writelines(f"{label},{it},{g},{e!r}\n" for it, g, e in
                          zip(range(1, len(trace) + 1), trace.grad_evals, trace.error))
    return failed


@cli.command("sweep", cls=_Command)
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Base config (JSON).")
@click.option("--grid", "grid_items", required=True, multiple=True, metavar="KEY=V1,V2,...",
              help="Dotted-path grid values (repeatable; Cartesian product).")
@_OUT
@_SEED
@_SVG
@_SET
def sweep_cmd(config_path, grid_items, out, seed, svg, overrides):
    """Run a Cartesian parameter grid over a base config."""
    base = _load_with_overrides(config_path, overrides, seed, label_from_stem=False)
    grid = {}
    for item in grid_items:
        if "=" not in item:
            raise click.UsageError(f"--grid expects key=v1,v2,..., got {item!r}")
        key, _, values = item.partition("=")
        # a list of JSON values, such as arrays, keeps the commas inside them
        grid[key] = parse_override_value(f"[{values}]")
        if not isinstance(grid[key], list):  # not JSON: split on every comma
            grid[key] = [parse_override_value(v) for v in values.split(",") if v != ""]
    click.echo(f"{'label':<40} {'status':<18} {'grad_evals':>10} {'final_error':>14}")
    return _run(sweep(grid, base), out,
                "{label:<40} {status:<18} {evals:>10} {error:>14.6g}", svg, chart="sweep.svg")[1]


@cli.command(cls=_Command)
@click.option("--trials", type=int, default=1000, show_default=True,
              help="Random instances to check.")
@click.option("--d-max", type=int, default=10, show_default=True,
              help="Largest instance dimension (1 to 64).")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed of the instances.")
@click.option("--out", default="out", type=click.Path(file_okay=False, path_type=pathlib.Path),
              help="Directory for the machine-readable report.")
def verify(trials, d_max, seed, out):
    """Check the optimal-step-size results on random instances."""
    reports = verify_theorems(trials=trials, d_max=d_max, seed=seed)
    summary = summarize_reports(reports)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "verify_report.json", "w") as fh:
        json.dump({"trials": trials, "d_max": d_max, "seed": seed, "checks": summary},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"{'check':<18} {'trials':>7} {'skipped':>8} {'worst rho':>13} {'worst margin':>13} {'result':>7}")
    for name, entry in summary.items():
        worst = "n/a" if entry["worst_rho"] is None else f"{entry['worst_rho']:.6g}"
        margin = "n/a" if entry["worst_margin"] is None else f"{entry['worst_margin']:.6g}"
        verdict = "pass" if entry["passed"] else "FAIL"
        click.echo(f"{name:<18} {entry['trials']:>7} {entry['skipped']:>8} "
                   f"{worst:>13} {margin:>13} {verdict:>7}")
    return [f"check {name} failed" for name, entry in summary.items() if not entry["passed"]]


@cli.command(cls=_Command)
@click.argument("preset")
@_OUT
@_SVG
def repro(preset, out, svg):
    """Run a canned benchmark preset (see `stepplan repro --help` for names).

    \b
    Presets: convex-fig4, rosenbrock-fig6, rosenbrock-p5-fig8,
             rosenbrock-adam-fig10
    """
    if preset not in PRESETS:
        raise click.UsageError(
            f"unknown preset {preset!r}; choose from: {', '.join(sorted(PRESETS))}")
    return _run(PRESETS[preset](), out / _slug(preset),
                "{label}: status={status} grad_evals={evals} final_error={error:.6g}", svg,
                chart="overlay.svg", per_run_svg=True)[1]


def main():
    cli(prog_name="stepplan")


if __name__ == "__main__":
    main()
