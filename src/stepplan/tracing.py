"""Run traces: per-iteration rows, the generic step loop, CSV output.

A row is written after every completed step and carries the cumulative
gradient-evaluation count, so error-versus-cost curves can be read off
directly.  Runs that reach a non-finite error or exceed ``ERROR_CAP`` are
marked diverged and truncated at the offending row.

A trace keeps its rows as columns: ``grad_evals`` and ``error`` are
growable typed arrays, and the ``w`` and ``alpha`` snapshots sit in maps
keyed by row index, since ``alpha`` is set only on planning-event rows.
``Trace.records`` is a read-only view that builds a ``TraceRecord`` only
when a row is read.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import inf as INF, isfinite
from operator import index
from typing import Callable, Optional

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


class TraceRows(Sequence):
    """Read-only view of a trace's rows as ``TraceRecord`` objects.

    Each read builds a fresh record from the columns; slicing returns a
    list of records.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.error)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        t = self._trace
        n = len(t.error)
        i = index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace row index out of range")
        return TraceRecord(i + 1, t.grad_evals[i], t.error[i], t.w.get(i), t.alpha.get(i))

    def __iter__(self):
        t = self._trace
        w, alpha = t.w, t.alpha
        for i, (g, e) in enumerate(zip(t.grad_evals, t.error)):
            yield TraceRecord(i + 1, g, e, w.get(i), alpha.get(i))


class Trace:
    """Rows numbered 1..n in order, with non-decreasing ``grad_evals``.

    Row ``i`` (0-based) is iteration ``i + 1``.  ``run_steps`` appends to
    the columns; ``Trace(records=[...])`` builds them from records, which
    must be numbered 1..n.  The lookups below rely on both orders.
    """

    def __init__(self, records: Iterable[TraceRecord] = (), status: str = BUDGET_EXHAUSTED,
                 total_grad_evals: int = 0, total_func_evals: int = 0):
        self.grad_evals = array("q")
        self.error = array("d")
        self.w: dict[int, Array] = {}
        self.alpha: dict[int, Array] = {}
        self.status = status
        self.total_grad_evals = total_grad_evals
        self.total_func_evals = total_func_evals
        for i, r in enumerate(records):
            if r.iteration != i + 1:
                raise ValueError(f"row {i + 1} is numbered {r.iteration}; rows must be numbered 1..n")
            self.grad_evals.append(r.grad_evals)
            self.error.append(r.error)
            if r.w is not None:
                self.w[i] = r.w
            if r.alpha is not None:
                self.alpha[i] = r.alpha

    @property
    def records(self) -> TraceRows:
        return TraceRows(self)

    def __len__(self) -> int:
        return len(self.error)

    def final_error(self) -> float:
        """The last row's error; ``nan`` for an empty trace."""
        return self.error[-1] if self.error else float("nan")

    def record_at_iteration(self, iteration: int) -> TraceRecord:
        if 1 <= iteration <= len(self.error):
            return self.records[iteration - 1]
        raise ValueError(f"no record at iteration {iteration}")

    def last_record_at_evals(self, grad_evals: int) -> TraceRecord:
        """Latest row whose cumulative gradient count is <= the budget."""
        i = bisect_right(self.grad_evals, grad_evals)
        if i == 0:
            raise ValueError(f"no record within {grad_evals} gradient evaluations")
        return self.records[i - 1]

    def reaches_evals(self, grad_evals: int) -> bool:
        """Whether the trace covers the budget point.

        A converged run is treated as covering any later budget: on these
        deterministic problems a converged iterate has zero gradient, so
        extending the run would repeat the final row forever.
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
    append_evals = trace.grad_evals.append
    append_error = trace.error.append
    ws, alphas = trace.w, trace.alpha
    step = stepper.step
    max_grad_evals = budget.max_grad_evals
    error_floor = budget.error_floor
    # overflow on a diverging trajectory is data here, not an anomaly
    with np.errstate(over="ignore", invalid="ignore"):
        for row in range(budget.max_iterations):
            if max_grad_evals is not None and obj.grad_evals >= max_grad_evals:
                break
            try:
                step(obj)
                err = float(error_fn(stepper.w))
            except DivergenceError:
                err = INF
            if record_w:
                ws[row] = np.array(stepper.w, dtype=float, copy=True)
            if record_alpha:
                alpha = getattr(stepper, "last_alpha", None)
                if alpha is not None:
                    alphas[row] = np.array(alpha, dtype=float, copy=True)
            append_evals(obj.grad_evals)
            append_error(err)
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
    ws, alphas = trace.w, trace.alpha
    w_dim = next(iter(ws.values())).size if ws else 0
    a_dim = next(iter(alphas.values())).size if alphas else 0
    header = ["iteration", "grad_evals", "error"]
    header += [f"w_{i}" for i in range(w_dim)]
    header += [f"alpha_{i}" for i in range(a_dim)]
    lines = [",".join(header)]
    rows = zip(range(1, len(trace) + 1), trace.grad_evals, trace.error)
    if not (w_dim or a_dim):
        lines += [f"{it},{g},{e!r}" for it, g, e in rows]
    else:
        w_blank = "," * w_dim
        a_blank = "," * a_dim
        for it, g, e in rows:
            line = f"{it},{g},{e!r}"
            if w_dim:
                w = ws.get(it - 1)
                line += _cells(w) if w is not None else w_blank
            if a_dim:
                alpha = alphas.get(it - 1)
                line += _cells(alpha) if alpha is not None else a_blank
            lines.append(line)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cells(values) -> str:
    """``,v0,v1,...`` with each value as ``repr(float(v))``."""
    return "," + ",".join(map(repr, np.asarray(values, dtype=float).tolist()))
