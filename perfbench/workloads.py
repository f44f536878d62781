"""The benchmark's workloads: seeded inputs, one pass of work, and its checks.

A workload turns a seed into a fixed list of units and runs them in passes
through the package's public functions, the same ones ``stepplan repro``,
``stepplan run`` and ``stepplan verify`` call.  On the trajectory workloads
a unit is one config: ``run_experiment``, then ``write_csv`` and
``render_traces`` for its CSV and SVG.  On ``theory-verify`` a pass is one
``verify_theorems`` call plus ``summarize_reports`` and the JSON report, and
a unit is one trial.

The configs are iterated here, not through ``harness.sweep``, so a run that
raises is counted as failed and the rest of the pass still runs.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from stepplan import theory
from stepplan.core import EvalBudget, Objective
from stepplan.harness import ExperimentConfig, run_experiment
from stepplan.optimizers import make_optimizer
from stepplan.presets import PRESETS
from stepplan.problems import LmsStream, make_problem, random_spd
from stepplan.svgplot import render_traces
from stepplan.theory import summarize_reports, verify_theorems
from stepplan.tracing import CONVERGED, DIVERGED, write_csv

from spans import instrument_harness, instrument_theory

NAMES = ("trajectories", "theory-verify")
REPORT = "verify_report.json"

# Seed 0 runs the presets unchanged; its CSV hashes are the reference.
REFERENCE_SEED = 0
# Half-width of the uniform jitter other seeds add to a preset's start point.
JITTER = 0.05


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_") or "run"


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class UnitOutput:
    """What one unit left behind, read after the pass clock stopped."""

    sha256: str
    csv_bytes: int = 0
    svg_bytes: int = 0
    records: int = 0
    grad_evals: int = 0
    func_evals: int = 0
    events: int = 0
    status: str = ""
    faults: list = field(default_factory=list)


@dataclass
class PassResult:
    wall: float                  # first unit started .. last output file closed
    latencies: list              # seconds per unit, in unit order
    outputs: dict                # label -> UnitOutput (absent when the unit raised)
    errors: dict                 # label -> exception text
    iterations: int              # main-loop iterations (stream samples, verify trials)
    units: int                   # units attempted in the pass


# --------------------------------------------------------------- trajectories


def _preset_configs(name: str, seed: int, jitter: float = JITTER,
                    keep=lambda cfg: True) -> list:
    """A preset's configs, all starting from one seeded jitter of its start point."""
    preset = PRESETS[name]()
    problem = dict(preset[0].problem)
    if any(cfg.problem != problem for cfg in preset):
        raise ValueError(f"preset {name} mixes problems; one jitter cannot cover it")
    if seed != REFERENCE_SEED and jitter:
        w0 = np.asarray(problem["w0"], dtype=float)
        rng = np.random.default_rng([seed, len(w0)])
        problem["w0"] = (w0 + rng.uniform(-jitter, jitter, w0.size)).tolist()
    configs = [cfg for cfg in preset if keep(cfg)]
    for cfg in configs:
        cfg.problem = dict(problem)
    return configs


def _spd_planner_configs(seed: int) -> list:
    """The planner on a seeded d=64 quadratic, recording w and alpha (wide rows)."""
    rng = np.random.default_rng([seed, 64])
    q, _, lipschitz = random_spd(rng, 64, cond=100.0)
    problem = {"name": "quadratic", "q": q.tolist(),
               "w0": rng.standard_normal(64).tolist()}
    return [
        ExperimentConfig(problem=problem,
                         optimizer={"name": "csawg", "gamma": 0.9 / lipschitz, "k": k},
                         budget=EvalBudget(max_iterations=2000, error_floor=None),
                         record_w=True, record_alpha=True, label=f"spd64 csawg K{k}")
        for k in (10, 100)
    ]


def _lms_configs(seed: int) -> list:
    """idbd on LMS streams: five at d=3, three at d=64, 5000 samples each.

    At seed 0 the first unit is ``configs/lms-idbd.json``.
    """
    rng = np.random.default_rng([seed, 3])
    w3 = [1.0, -1.0, 0.5] if seed == REFERENCE_SEED else rng.uniform(-1, 1, 3).tolist()
    w64 = np.random.default_rng([seed, 64]).uniform(-1, 1, 64).tolist()
    budget = EvalBudget(max_iterations=5000, error_floor=None)
    configs = []
    for dim, w_star, beta0, count in ((3, w3, -3.0, 5), (64, w64, -6.0, 3)):
        for j in range(count):
            configs.append(ExperimentConfig(
                problem={"name": "lms", "w_star": w_star, "noise_std": 0.1},
                optimizer={"name": "idbd", "eta": 0.02, "beta0": beta0},
                budget=budget, seed=7 + j + 1000 * seed, label=f"idbd-lms d{dim} s{j}"))
    return configs


def accounting_faults(cfg: ExperimentConfig, trace) -> list:
    """Violations of the evaluation accounting in one finished run.

    One gradient evaluation per iteration, plus P * (1 + M) per planning
    event, and planning events at record counts 2K, 3K, ...  A diverged run
    stops inside its last step, so the rule is checked on the records before it.
    """
    if not trace.records:
        return ["empty trace"]
    evals = [r.grad_evals for r in trace.records]
    found = []
    if trace.total_grad_evals != evals[-1]:
        found.append(f"total_grad_evals {trace.total_grad_evals} != last record {evals[-1]}")
    if any(b <= a for a, b in zip(evals, evals[1:])):
        found.append("cumulative grad_evals not strictly increasing")
    rows = trace.records[:-1] if trace.status == DIVERGED else trace.records
    if not rows:
        return found
    n = len(rows)
    opt = cfg.optimizer
    events, per_event = 0, 0
    if opt["name"] == "csawg":
        events = sum(r.alpha is not None for r in rows)
        per_event = opt.get("p", 1) * (1 + opt.get("m", 0))
        if events != max(0, n // opt["k"] - 1):
            found.append(f"{events} planning events in {n} iterations with K={opt['k']}")
    if rows[-1].grad_evals != n + events * per_event:
        found.append(f"{rows[-1].grad_evals} evaluations after {n} iterations != {n}"
                     f" + {events} events * {per_event}")
    return found


class TrajectoryWorkload:
    """Configs run one after another, each writing its CSV and per-run SVG."""

    unit_name = "configs"

    def __init__(self, name: str, seed: int, configs: list):
        labels = [cfg.label for cfg in configs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"{name}: config labels are not unique")
        self.name = name
        self.seed = seed
        self.configs = configs

    def construct(self) -> None:
        """Build every config's problem, objective and optimizer, as a run would."""
        for cfg in self.configs:
            params = {k: v for k, v in cfg.problem.items() if k != "name"}
            if cfg.problem["name"] == "lms":
                params.setdefault("seed", cfg.seed)
            problem, w0 = make_problem(cfg.problem["name"], params)
            if not isinstance(problem, LmsStream):
                Objective(problem.dimension, problem.value, problem.gradient,
                          optimum_value=0.0, optimum_point=problem.w_star)
            make_optimizer(cfg.optimizer["name"], w0,
                           {k: v for k, v in cfg.optimizer.items() if k != "name"})

    def warm_up(self, out_dir: Path) -> None:
        cfg = self.configs[0]
        short = ExperimentConfig.from_dict({**cfg.to_dict(), "label": "warm-up"})
        short.budget.max_iterations = min(short.budget.max_iterations, 200)
        trace = run_experiment(short)
        write_csv(trace, out_dir / "warm-up.csv")
        render_traces([(short.label, trace)], out_dir / "warm-up.svg")

    def run_pass(self, out_dir: Path, spans) -> PassResult:
        # Every trace of the pass stays alive until the pass ends, as
        # `stepplan repro` keeps a preset's traces for its overlay chart.
        held = {}
        latencies, errors = [], {}
        start = perf_counter()
        for i, cfg in enumerate(self.configs):
            stem = out_dir / f"{i:02d}-{_slug(cfg.label)}"
            spans.begin_run(i)
            t0 = perf_counter()
            try:
                with spans.span("unit", "harness"):
                    with spans.span("run_experiment", "harness"):
                        trace = run_experiment(cfg)
                    with spans.span("write_csv", "tracing"):
                        write_csv(trace, stem.with_suffix(".csv"))
                    with spans.span("render_traces", "svgplot"):
                        render_traces([(cfg.label, trace)], stem.with_suffix(".svg"))
            except Exception as exc:  # counted as a failed run; the pass goes on
                errors[cfg.label] = f"{type(exc).__name__}: {exc}"
                continue
            latencies.append(perf_counter() - t0)
            held[cfg.label] = (cfg, stem, trace)
        wall = perf_counter() - start

        outputs = {}
        for label, (cfg, stem, trace) in held.items():
            csv, svg = stem.with_suffix(".csv"), stem.with_suffix(".svg")
            events = sum(r.alpha is not None for r in trace.records) \
                if cfg.optimizer["name"] == "csawg" else 0
            outputs[label] = UnitOutput(
                sha256=sha256_of(csv), csv_bytes=csv.stat().st_size,
                svg_bytes=svg.stat().st_size, records=len(trace.records),
                grad_evals=trace.total_grad_evals, func_evals=trace.total_func_evals,
                events=events, status=trace.status,
                faults=accounting_faults(cfg, trace))
        iterations = sum(o.records for o in outputs.values())
        return PassResult(wall, latencies, outputs, errors, iterations, len(self.configs))

    def instrument(self, spans):
        return instrument_harness(spans)

    def traced_faults(self, result: PassResult, spans, base: dict) -> list:
        """(what, faults) per traced unit: same bytes, and every call seen."""
        checks = []
        for run, cfg in enumerate(self.configs):
            out = result.outputs.get(cfg.label)
            if out is None:
                continue
            found = []
            if base.get(cfg.label) is None or out.sha256 != base[cfg.label].sha256:
                found.append("traced CSV differs from untraced")
            stream = cfg.optimizer["name"] == "idbd"
            steps = spans.count(run, "step_sample" if stream else "step")
            evals = spans.count(run, "lms_next" if stream else "gradient")
            if steps != out.records:
                found.append(f"{steps} traced steps for {out.records} iterations")
            if evals != out.grad_evals:
                found.append(f"{evals} traced gradient evaluations, objective counted "
                             f"{out.grad_evals}")
            checks.append((cfg.label, found))
        return checks

    def anchors(self) -> list:
        """(what, faults) for the reference-seed anchors outside the pass."""
        cfg = ExperimentConfig(
            problem=dict(PRESETS["convex-fig4"]()[0].problem),
            optimizer={"name": "csawg", "gamma": 0.0009, "k": 2},
            budget=EvalBudget(max_iterations=500, error_floor=1e-12))
        trace = run_experiment(cfg)
        ok = trace.status == CONVERGED and trace.records[-1].iteration <= 500
        found = [] if ok else [f"criterion-4 planner K=2 ended {trace.status} at iteration "
                               f"{trace.records[-1].iteration}"]
        return [("criterion-4 planner K=2 converges within 500 iterations", found)]

    def anchor_faults(self, label: str, out: UnitOutput) -> list:
        """Reference-seed anchor on one unit's output."""
        if label == "csawg-p5 K2" and not (out.status == CONVERGED and out.grad_evals == 401):
            return [f"P=5 M=10 K=2 ended {out.status} after {out.grad_evals} evaluations, "
                    "expected 1e-12 in 401"]
        return []


# --------------------------------------------------------------- theory


class TheoryWorkload:
    """``stepplan verify``: 1000 random SPD trials, summarized into a JSON report."""

    unit_name = "trials"
    CHECKS = ("scalar-rate", "scalar-grid", "diag-one-step", "ideal-step-grid")

    def __init__(self, seed: int, trials: int = 1000, d_max: int = 10):
        self.name = "theory-verify"
        self.seed = seed
        self.trials = trials
        self.d_max = d_max

    def construct(self) -> None:
        """The verify loop builds its instances itself; nothing to construct."""

    def warm_up(self, out_dir: Path) -> None:
        verify_theorems(trials=20, d_max=self.d_max, seed=self.seed)

    def run_pass(self, out_dir: Path, spans) -> PassResult:
        # One clock read after each trial's check_instance gives per-trial latency
        # without changing what verify_theorems computes.
        stamps = []
        check_instance = theory.check_instance

        def stamped(*args, **kwargs):
            reports = check_instance(*args, **kwargs)
            stamps.append(perf_counter())
            return reports

        report_path = out_dir / REPORT
        spans.begin_run(0)
        theory.check_instance = stamped
        try:
            start = perf_counter()
            with spans.span("verify", "theory"):
                reports = verify_theorems(trials=self.trials, d_max=self.d_max, seed=self.seed)
            with spans.span("summarize", "theory"):
                summary = summarize_reports(reports)
            with spans.span("write_report", "harness"):
                with open(report_path, "w") as fh:
                    json.dump({"trials": self.trials, "d_max": self.d_max, "seed": self.seed,
                               "checks": summary}, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            wall = perf_counter() - start
        finally:
            theory.check_instance = check_instance

        latencies = np.diff([start] + stamps).tolist()
        outputs = {}
        for i in range(self.trials):
            trial = reports[4 * i:4 * i + 4]
            failed = [r.check for r in trial if not r.satisfied]
            outputs[f"trial {i}"] = UnitOutput(
                sha256="", faults=[f"{', '.join(failed)} failed"] if failed else [])
        outputs[REPORT] = UnitOutput(sha256=sha256_of(report_path),
                                     faults=self._summary_faults(summary))
        return PassResult(wall, latencies, outputs, {}, self.trials, self.trials)

    def _summary_faults(self, summary: dict) -> list:
        found = []
        for check in self.CHECKS:
            entry = summary.get(check)
            if entry is None or entry["trials"] != self.trials or not entry["passed"]:
                found.append(f"verify check {check} did not pass: {entry}")
        return found

    def instrument(self, spans):
        return instrument_theory(spans)

    def traced_faults(self, result: PassResult, spans, base: dict) -> list:
        found = [f"{name}: {spans.count(0, name)} calls for {self.trials} trials"
                 for name in ("random_spd", "check_instance")
                 if spans.count(0, name) != self.trials]
        if result.outputs[REPORT].sha256 != base[REPORT].sha256:
            found.append("traced verify report differs from untraced")
        return [(REPORT, found)]

    def anchors(self) -> list:
        return []

    def anchor_faults(self, label: str, out: UnitOutput) -> list:
        return []


def make_workload(name: str, seed: int):
    if name == "trajectories":
        def planner(cfg):
            return cfg.optimizer["name"] == "csawg"
        # baseline-grid: the fig10 grid, no planning and no stream.
        baseline = _preset_configs("rosenbrock-adam-fig10", seed)
        # planner-horizons: every preset planner run plus the d=64 quadratic.  The
        # Rosenbrock planner runs start where the presets do: a 0.01 jitter of
        # that start already makes K=2 at gamma=0.001 diverge for about one seed
        # in ten, which would change the work in a pass with the seed.
        planners = (_preset_configs("convex-fig4", seed, keep=planner)
                    + _preset_configs("rosenbrock-fig6", seed, jitter=0.0, keep=planner)
                    + _preset_configs("rosenbrock-p5-fig8", seed, jitter=0.0, keep=planner)
                    + _spd_planner_configs(seed))
        # lms-stream: the only runs on the stream loop, Idbd and LmsStream.
        return TrajectoryWorkload(name, seed, baseline + planners + _lms_configs(seed))
    if name == "theory-verify":
        return TheoryWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def setup(name: str, seed: int):
    """What ``setup_s`` times in a fresh interpreter: configs, problems, optimizers."""
    workload = make_workload(name, seed)
    workload.construct()
    return workload
