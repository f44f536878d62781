"""Run traces: per-iteration records, the generic step loop, CSV output.

A record is written after every completed step and carries the cumulative
gradient-evaluation count, so error-versus-cost curves can be read off
directly.  Runs that reach a non-finite error or exceed ``ERROR_CAP`` are
marked diverged and truncated at the offending record.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf as INF, isfinite
from operator import attrgetter
from typing import Callable, List, Optional

import numpy as np

from .core import Array, DivergenceError, EvalBudget, Objective

ERROR_CAP = 1e12

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"
DIVERGED = "diverged"


@dataclass(slots=True)
class TraceRecord:
    iteration: int
    grad_evals: int
    error: float
    w: Optional[Array] = None
    alpha: Optional[Array] = None


_grad_evals_of = attrgetter("grad_evals")


@dataclass
class Trace:
    """Records numbered 1..n in order, with non-decreasing ``grad_evals``.

    ``run_steps`` writes records that way; the lookups below rely on it.
    """

    records: List[TraceRecord] = field(default_factory=list)
    status: str = BUDGET_EXHAUSTED
    total_grad_evals: int = 0
    total_func_evals: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.records])

    def final_error(self) -> float:
        if not self.records:
            raise ValueError("empty trace has no final error")
        return self.records[-1].error

    def record_at_iteration(self, iteration: int) -> TraceRecord:
        if 1 <= iteration <= len(self.records):
            r = self.records[iteration - 1]
            if r.iteration == iteration:
                return r
        raise ValueError(f"no record at iteration {iteration}")

    def last_record_at_evals(self, grad_evals: int) -> TraceRecord:
        """Latest record whose cumulative gradient count is <= the budget."""
        i = bisect_right(self.records, grad_evals, key=_grad_evals_of)
        if i == 0:
            raise ValueError(f"no record within {grad_evals} gradient evaluations")
        return self.records[i - 1]

    def reaches_evals(self, grad_evals: int) -> bool:
        """Whether the trace covers the budget point.

        A converged run is treated as covering any later budget: on these
        deterministic problems a converged iterate has zero gradient, so
        extending the run would repeat the final record forever.
        """
        return self.total_grad_evals >= grad_evals or self.status == CONVERGED


def run_steps(stepper, obj: Objective, budget: EvalBudget,
              error_fn: Callable[[Array], float],
              record_w: bool = False, record_alpha: bool = False) -> Trace:
    """Drive a stepper under a budget, recording one row per iteration.

    Stopping order per iteration: gradient budget (checked before the
    step), then divergence (non-finite or capped error), then the error
    floor.  ``record_alpha`` snapshots the stepper's ``last_alpha``
    attribute, which planners set only on planning-event iterations and
    IDBD on every step.  IDBD's ``obj`` is the LMS stream.
    """
    trace = Trace()
    append = trace.records.append
    step = stepper.step
    max_grad_evals = budget.max_grad_evals
    error_floor = budget.error_floor
    w = alpha = None
    # overflow on a diverging trajectory is data here, not an anomaly
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, budget.max_iterations + 1):
            if max_grad_evals is not None and obj.grad_evals >= max_grad_evals:
                break
            try:
                step(obj)
                err = float(error_fn(stepper.w))
            except DivergenceError:
                err = INF
            if record_w:
                w = np.array(stepper.w, dtype=float, copy=True)
            if record_alpha:
                alpha = getattr(stepper, "last_alpha", None)
                if alpha is not None:
                    alpha = np.array(alpha, dtype=float, copy=True)
            append(TraceRecord(it, obj.grad_evals, err, w, alpha))
            if not isfinite(err) or err > ERROR_CAP:
                trace.status = DIVERGED
                break
            if error_floor is not None and err <= error_floor:
                trace.status = CONVERGED
                break
    trace.total_grad_evals = obj.grad_evals
    trace.total_func_evals = obj.func_evals
    return trace


def write_csv(trace: Trace, path) -> None:
    """Write a trace as CSV.

    Columns: iteration, grad_evals, error, then w_0..w_{d-1} when iterates
    were recorded and alpha_0..alpha_{d-1} when step-size snapshots were.
    Sparse alpha rows leave their cells empty.  Each float is written as
    ``repr(float(x))``, so output is byte-stable for identical traces.
    """
    records = trace.records
    w_dim = next((r.w.size for r in records if r.w is not None), 0)
    a_dim = next((r.alpha.size for r in records if r.alpha is not None), 0)
    header = ["iteration", "grad_evals", "error"]
    header += [f"w_{i}" for i in range(w_dim)]
    header += [f"alpha_{i}" for i in range(a_dim)]
    lines = [",".join(header)]
    if not (w_dim or a_dim):
        lines += [f"{r.iteration},{r.grad_evals},{float(r.error)!r}" for r in records]
    else:
        w_blank = "," * w_dim
        a_blank = "," * a_dim
        for r in records:
            line = f"{r.iteration},{r.grad_evals},{float(r.error)!r}"
            if w_dim:
                line += _cells(r.w) if r.w is not None else w_blank
            if a_dim:
                line += _cells(r.alpha) if r.alpha is not None else a_blank
            lines.append(line)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cells(values) -> str:
    """``,v0,v1,...`` with each value as ``repr(float(v))``."""
    return "," + ",".join(map(repr, np.asarray(values, dtype=float).tolist()))
