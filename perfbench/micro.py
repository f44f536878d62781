"""Isolated per-module micro-benchmarks for the traced run.

Each one warms up once, then times a block of calls several times and
reports the median block time divided by the calls in the block.  The
steppers run against a stub objective whose value and gradient are
constants, so their numbers hold the update rule and the objective's
accounting only.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from stepplan.core import EvalBudget, Objective
from stepplan.harness import ExperimentConfig, run_experiment
from stepplan.optimizers import make_optimizer
from stepplan.planner import ExperienceBuffer, ExperiencePair, compute_alpha
from stepplan.presets import CONVEX_PROBLEM
from stepplan.problems import LmsStream, make_problem, random_spd
from stepplan.svgplot import render_traces
from stepplan.theory import check_instance
from stepplan.tracing import Trace, TraceRecord, run_steps, write_csv

from spans import Spans, instrument_harness

REPEATS = 5
STEPS = 2000

# Parameters for each stepper against the stub objective (gradient 1e-3 in
# every component, value 1): every state stays finite over a block.
STEPPERS = {
    "gd": {"gamma": 1e-3},
    "heavy_ball": {"gamma": 1e-3, "p": 0.9},
    "nesterov": {"mode": "strongly_convex", "mu": 1.0, "L": 1000.0},
    "polyak": {},
    "l4": {},
    "lossgrad": {"alpha0": 1e-3},
    "rmsprop": {"alpha": 1e-3, "beta": 0.9},
    "adam": {"alpha": 1e-2},
    "hd": {"eta": 1e-4, "alpha0": 1e-3},
    "idbd1": {"eta": 1e-4, "lam": 0.5, "alpha0": 1e-3},
    "csawg": {"gamma": 1e-3, "k": 2},
}


def per_call(block, calls: int, repeats: int = REPEATS) -> float:
    """Median seconds per call of ``block``, which makes ``calls`` calls."""
    block()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        block()
        times.append(perf_counter() - t0)
    return statistics.median(times) / calls


def _stub_objective(dim: int = 2) -> Objective:
    g = np.full(dim, 1e-3)
    return Objective(dim, value_fn=lambda w: 1.0, grad_fn=lambda w: g)


def _repeat(fn, arg, calls):
    def block():
        for _ in range(calls):
            fn(arg)
    return block


def _problems(out: dict) -> None:
    rng = np.random.default_rng(1)
    q64, _, _ = random_spd(rng, 64, 100.0)
    cases = {
        "rosenbrock": make_problem("rosenbrock"),
        "quad_d2": make_problem("quadratic", {k: v for k, v in CONVEX_PROBLEM.items()
                                                if k != "name"}),
        "quad_d64": make_problem("quadratic", {"q": q64, "w0": rng.standard_normal(64)}),
    }
    for case, (problem, w0) in cases.items():
        out[f"problems.grad_us.{case}"] = per_call(_repeat(problem.gradient, w0, STEPS), STEPS) * 1e6
        out[f"problems.value_us.{case}"] = per_call(_repeat(problem.value, w0, STEPS), STEPS) * 1e6
    out["problems.random_spd_us"] = per_call(
        lambda: [random_spd(rng, 10, 1e3) for _ in range(200)], 200) * 1e6


def _steppers(out: dict) -> None:
    obj = _stub_objective()
    w0 = np.array([-1.0, 0.0])

    def block_for(name, params):
        def block():
            step = make_optimizer(name, w0, params).step
            for _ in range(STEPS):
                step(obj)
        return block

    for name, params in STEPPERS.items():
        out[f"optimizers.{name}.step_us"] = per_call(block_for(name, params), STEPS) * 1e6
    # K beyond the block length: no planning event fires.
    out["planner.step_us"] = per_call(block_for("csawg", {"gamma": 1e-3, "k": 10 ** 6}),
                                      STEPS) * 1e6

    # An event iteration against a plain one, both timed at K=2, P=1, M=0.
    event, plain = [], []
    for rep in range(REPEATS + 1):
        planner = make_optimizer("csawg", w0, {"gamma": 1e-3, "k": 2})
        for _ in range(STEPS):
            t0 = perf_counter()
            planner.step(obj)
            dt = perf_counter() - t0
            if rep:
                (event if planner.last_alpha is not None else plain).append(dt)
    out["planner.event_us"] = (statistics.median(event) - statistics.median(plain)) * 1e6

    for k in (2, 10, 100, 1000):
        buf = ExperienceBuffer(k)
        rng = np.random.default_rng(k)
        for _ in range(2 * k):
            buf.record(ExperiencePair(w=rng.standard_normal(2), g=rng.standard_normal(2)))
        calls = max(1, 2000 // k)
        out[f"planner.compute_alpha_us.k{k}"] = per_call(
            lambda: [compute_alpha(buf) for _ in range(calls)], calls) * 1e6


class _NoOpStepper:
    def __init__(self):
        self.w = np.zeros(2)

    def step(self, obj):
        pass


def _tracing(out: dict, scratch: Path) -> None:
    obj = _stub_objective()
    budget = EvalBudget(max_iterations=5000, error_floor=None)
    out["tracing.loop_self_us"] = per_call(
        lambda: run_steps(_NoOpStepper(), obj, budget, lambda w: 1.0), 5000) * 1e6

    rng = np.random.default_rng(2)
    narrow = Trace(records=[TraceRecord(i, i, float(e))
                            for i, e in enumerate(rng.lognormal(-5.0, 3.0, 20000), 1)])
    wide = Trace(records=[
        TraceRecord(i, i, float(rng.lognormal()), w=rng.standard_normal(64),
                    alpha=rng.standard_normal(64) if i % 10 == 0 else None)
        for i in range(1, 2001)])
    out["tracing.write_csv_s.narrow"] = per_call(
        lambda: write_csv(narrow, scratch / "narrow.csv"), 1)
    out["tracing.write_csv_s.wide"] = per_call(
        lambda: write_csv(wide, scratch / "wide.csv"), 1)
    out["svgplot.render_s"] = per_call(
        lambda: render_traces([("narrow", narrow)], scratch / "narrow.svg"), 1)


def _stream(out: dict) -> None:
    """Stream pieces in isolation, and the stream loop's own time.

    The loop's time is ``run_experiment``'s self time under the traced run's
    proxies: the run's duration minus its draws, updates and error
    evaluations, taken within each run rather than across separate timings.
    """
    rng = np.random.default_rng(3)
    for dim, beta0 in ((3, -3.0), (64, -6.0)):
        w_star = rng.uniform(-1, 1, dim)
        stream = LmsStream(w_star, noise_std=0.1, seed=7)
        out[f"problems.lms_next_us.d{dim}"] = per_call(
            lambda: [stream.next() for _ in range(STEPS)], STEPS) * 1e6
        samples = [stream.next() for _ in range(STEPS)]

        def sample_block():
            step = make_optimizer("idbd", np.zeros(dim), {"eta": 0.02, "beta0": beta0}).step_sample
            for x, y in samples:
                step(x, y)

        out[f"optimizers.idbd.sample_us.d{dim}"] = per_call(sample_block, STEPS) * 1e6
        cfg = ExperimentConfig(
            problem={"name": "lms", "w_star": w_star.tolist(), "noise_std": 0.1},
            optimizer={"name": "idbd", "eta": 0.02, "beta0": beta0},
            budget=EvalBudget(max_iterations=STEPS, error_floor=None), seed=7)
        spans = Spans()
        with instrument_harness(spans):
            for run in range(REPEATS + 1):
                spans.begin_run(run)
                with spans.span("run_experiment", "harness"):
                    run_experiment(cfg)
        loop = [spans.totals[(run, "run_experiment", "harness")][2] for run in range(1, REPEATS + 1)]
        out[f"harness.stream_self_us.d{dim}"] = statistics.median(loop) / STEPS * 1e6


def _theory(out: dict) -> None:
    rng = np.random.default_rng(4)
    q, mu, lipschitz = random_spd(rng, 10, 1e3)
    w = rng.standard_normal(10)
    out["theory.check_instance_ms"] = per_call(
        lambda: [check_instance(q, mu, lipschitz, w) for _ in range(10)], 10) * 1e3


def run_all(scratch: Path) -> dict:
    """Every workload-independent micro-benchmark, keyed by metric name."""
    out = {}
    _problems(out)
    _steppers(out)
    _tracing(out, scratch)
    _stream(out)
    _theory(out)
    return out
