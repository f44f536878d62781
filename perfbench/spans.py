"""Spans for the traced run, recorded from outside the package.

The traced run executes the same pipeline as the untraced one, with the
package's public building blocks swapped for timing proxies: the problem
that ``make_problem`` returns gets timed ``value``/``gradient`` (so the
``Objective`` that ``run_experiment`` builds over them is timed), the
stepper that ``make_optimizer`` returns gets a timed ``step`` (or
``step_sample``), and ``run_steps``, ``write_csv`` and ``render_traces`` run
inside spans.  Nothing under ``src/`` changes; the proxies are removed when
the traced pass ends.

Coarse spans (one per unit, run, output file or verify trial) are kept one
by one with their parent.  Spans that fire every iteration are kept as
totals per run and name, so a traced pass over 720k iterations stays small.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

from stepplan import harness, theory
from stepplan.problems import LmsStream


class NullSpans:
    """The untraced run: spans cost one no-op context each."""

    def begin_run(self, run) -> None:
        pass

    def span(self, name, module):
        return contextlib.nullcontext()


class Spans:
    """In-memory span recorder with self-time accounting."""

    def __init__(self):
        self.kept = []      # (name, module, start, end, parent index, run)
        self.totals = {}    # (run, name, module) -> [count, total s, self s]
        self._open = []     # frames of open spans: [kept index or None, child seconds]
        self.run = None

    def begin_run(self, run) -> None:
        self.run = run

    def _enter(self, keep: bool) -> list:
        frame = [None, 0.0]
        if keep:
            frame[0] = len(self.kept)
            self.kept.append(None)
        self._open.append(frame)
        return frame

    def _exit(self, frame, name, module, t0, t1) -> None:
        self._open.pop()
        duration = t1 - t0
        if self._open:
            self._open[-1][1] += duration
        total = self.totals.get((self.run, name, module))
        if total is None:
            total = self.totals[(self.run, name, module)] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if frame[0] is not None:
            parent = next((f[0] for f in reversed(self._open) if f[0] is not None), None)
            self.kept[frame[0]] = (name, module, t0, t1, parent, self.run)

    @contextlib.contextmanager
    def span(self, name, module):
        frame = self._enter(True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, module, t0, perf_counter())

    def wrap(self, fn, name, module, keep=False):
        """``fn`` behind a span; per-iteration calls are kept as totals only."""
        def proxy(*args, **kwargs):
            frame = self._enter(keep)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, name, module, t0, perf_counter())
        return proxy

    def count(self, run, name) -> int:
        return sum(v[0] for (r, n, _), v in self.totals.items() if r == run and n == name)

    def self_by_module(self) -> dict:
        out = {}
        for (_, _, module), (_, _, self_s) in self.totals.items():
            out[module] = out.get(module, 0.0) + self_s
        return out

    def by_name(self) -> dict:
        """(name, module) -> [count, total s, self s] over all runs."""
        out = {}
        for (_, name, module), values in self.totals.items():
            acc = out.setdefault((name, module), [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        return out

    def write(self, fh, **fields) -> None:
        """Append every kept span and every per-run total to ``fh`` as JSON lines."""
        for name, module, start, end, parent, run in self.kept:
            fh.write(json.dumps({**fields, "name": name, "module": module, "start": start,
                                 "end": end, "parent": parent, "run": run}) + "\n")
        for (run, name, module), (count, total, self_s) in self.totals.items():
            fh.write(json.dumps({**fields, "name": name, "module": module, "run": run,
                                 "count": count, "total_s": total, "self_s": self_s}) + "\n")


@contextlib.contextmanager
def _patched(module, **replacements):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def instrument_harness(spans: Spans):
    """Timing proxies around the pieces ``run_experiment`` assembles a run from."""
    make_problem, make_optimizer = harness.make_problem, harness.make_optimizer

    def timed_problem(name, params=None):
        with spans.span("make_problem", "problems"):
            problem, w0 = make_problem(name, params)
        if isinstance(problem, LmsStream):
            problem.next = spans.wrap(problem.next, "lms_next", "problems")
            problem.population_error = spans.wrap(
                problem.population_error, "population_error", "problems")
        else:
            problem.value = spans.wrap(problem.value, "value", "problems")
            problem.gradient = spans.wrap(problem.gradient, "gradient", "problems")
        return problem, w0

    def timed_optimizer(name, w0, params=None):
        with spans.span("make_optimizer", "optimizers"):
            stepper = make_optimizer(name, w0, params)
        if hasattr(stepper, "step_sample"):
            stepper.step_sample = spans.wrap(stepper.step_sample, "step_sample", "optimizers")
        else:
            module = "planner" if name == "csawg" else "optimizers"
            stepper.step = spans.wrap(stepper.step, "step", module)
        return stepper

    return _patched(harness, make_problem=timed_problem, make_optimizer=timed_optimizer,
                    run_steps=spans.wrap(harness.run_steps, "run_steps", "tracing", keep=True))


def instrument_theory(spans: Spans):
    """Timing proxies around the two calls each verify trial makes."""
    return _patched(theory,
                    random_spd=spans.wrap(theory.random_spd, "random_spd", "problems", keep=True),
                    check_instance=spans.wrap(theory.check_instance, "check_instance",
                                              "theory", keep=True))
