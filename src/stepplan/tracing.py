"""Run traces: per-iteration rows, the generic step loop, CSV output.

A row is written after every completed step and carries the cumulative
gradient-evaluation count, so error-versus-cost curves can be read off
directly.  Runs that reach a non-finite error or exceed ``ERROR_CAP`` are
marked diverged and truncated at the offending row.

A trace keeps its rows as columns: ``error`` is a growable typed array,
``grad_evals`` an ``EvalCounts`` sequence that stores only the rows where
the count does not rise by exactly one, and the ``w`` and ``alpha``
snapshots each sit in a ``Snapshots`` column, which holds only the rows
that have one, since ``alpha`` is set only on planning-event rows.
``Trace.records`` is a read-only view that builds a ``TraceRecord`` only
when a row is read; nothing in the package reads rows that way.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat
from math import inf as INF, isfinite
from operator import add, attrgetter, sub
from typing import Callable, Optional

import numpy as np

from .core import Array, DivergenceError, EvalBudget, Objective, Point, _count, _number

ERROR_CAP = 1e12

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"
DIVERGED = "diverged"


@dataclass(slots=True)
class TraceRecord:
    """One row, for ``Trace(records=...)`` and the ``Trace.records`` view, which
    ``perfbench`` uses (``micro._tracing``, ``workloads.accounting_faults``,
    ``TrajectoryWorkload.run_pass`` and ``.anchors``); the package reads the columns."""

    iteration: int
    grad_evals: int
    error: float
    w: Optional[Array] = None
    alpha: Optional[Array] = None


class Snapshots:
    """1-d float snapshots keyed by row index, all as wide as the first.

    ``rows`` is an ``array('q')`` of increasing row indices and ``flat``
    an ``array('d')`` holding each snapshot's ``width`` entries in turn;
    ``get(row)`` reads one row and ``len`` counts the rows held.
    """

    __slots__ = ("rows", "flat", "width")

    def __init__(self):
        self.rows = array("q")
        self.flat = array("d")
        self.width = 0

    def _append(self, row: int, snapshot) -> None:
        """Copy ``snapshot`` in as row ``row``, after every row already held.  A flat
        list of numbers, as a list stepper's iterate is, is copied as it is;
        anything else goes through a float64 array."""
        values = None
        if type(snapshot) is list:
            try:
                values = array("d", snapshot)
            except TypeError:  # not a flat list of numbers: numpy names the fault
                pass
        if values is None:
            v = np.asarray(snapshot, dtype=float)
            if v.ndim != 1:
                raise ValueError(f"snapshot at iteration {row + 1} has shape {v.shape}; "
                                 "snapshots must be 1-d")
            size = v.size
        else:
            size = len(values)
        if not self.rows:
            self.width = size
        elif size != self.width:
            raise ValueError(f"snapshot at iteration {row + 1} has {size} entries; "
                             f"the first snapshot has {self.width}")
        self.rows.append(row)
        if values is None:
            self.flat.frombytes(v.tobytes())
        else:
            self.flat.extend(values)

    def get(self, row: int) -> Optional[Array]:
        """A fresh float64 copy of row ``row``'s snapshot, or ``None``."""
        rows, width = self.rows, self.width
        i = bisect_left(rows, row)
        if i == len(rows) or rows[i] != row:
            return None
        return np.frombuffer(self.flat[i * width:(i + 1) * width])

    def __len__(self) -> int:
        return len(self.rows)


class EvalCounts(Sequence):
    """A trace's cumulative gradient-evaluation counts, stored as breakpoints.

    Row ``i``'s count is row ``i - 1``'s plus one (0 before row 0), except
    at the increasing row indices in ``rows``, whose counts are the entries
    of ``evals``: a run that spends one evaluation per row stores nothing,
    a planner run one break per event.  A read-only ``Sequence`` of ints;
    slicing returns a list.
    """

    __slots__ = ("rows", "evals", "_len")

    def __init__(self, rows: array, evals: array, length: int):
        self.rows, self.evals, self._len = rows, evals, length

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        i = range(self._len)[i]  # list-style negative indices, bounds and slices
        if isinstance(i, range):
            return [self[j] for j in i]
        j = bisect_right(self.rows, i) - 1
        return i + 1 if j < 0 else self.evals[j] + i - self.rows[j]

    def __iter__(self):
        rows, evals = self.rows, self.evals
        ends = chain(islice(rows, 1, None), (self._len,))
        head = range(1, (rows[0] if rows else self._len) + 1)
        return chain(head, chain.from_iterable(
            map(range, evals, map(add, evals, map(sub, ends, rows)))))


class TraceRows(Sequence):
    """Read-only view of a trace's rows as ``TraceRecord`` objects.

    Each read builds a fresh record from the columns, with copies of its
    snapshots; slicing returns a list of records.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.error)

    def __getitem__(self, i):
        i = range(len(self))[i]  # list-style negative indices, bounds and slices
        if isinstance(i, range):
            if i.step == 1:
                return list(self._rows(i.start, i.stop))
            return [self[j] for j in i]
        t = self._trace
        return TraceRecord(i + 1, t.grad_evals[i], t.error[i], t.w.get(i), t.alpha.get(i))

    def __iter__(self):
        return self._rows(0, len(self))

    def _rows(self, start: int, stop: int):
        t = self._trace
        snapshots = (map(c.get, range(start, stop)) if c else repeat(None) for c in (t.w, t.alpha))
        return map(TraceRecord, range(start + 1, stop + 1),
                   islice(t.grad_evals, start, stop), islice(t.error, start, stop), *snapshots)


class Trace:
    """Rows numbered 1..n in order, with non-decreasing ``grad_evals``.

    Row ``i`` (0-based) is iteration ``i + 1``.  ``run_steps`` fills the
    columns; ``Trace(records=[...])`` builds them from records, which
    must be numbered 1..n with non-decreasing integer ``grad_evals`` from
    0 up and a number, finite or not, as ``error``.  The metrics
    in ``harness`` rely on both orders.  ``status`` starts as
    ``BUDGET_EXHAUSTED`` and the two totals at 0; ``run_steps`` sets all
    three, and a trace built from records takes them as attributes.
    """

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self.error = array("d")
        self.w = Snapshots()
        self.alpha = Snapshots()
        self.status = BUDGET_EXHAUSTED
        self.total_grad_evals = 0
        self.total_func_evals = 0
        rows, evals = array("q"), array("q")
        last = 0
        for i, r in enumerate(records):
            try:
                iteration, g = _count("iteration", r.iteration), _count("grad_evals", r.grad_evals)
                error = _number("error", r.error)
            except ValueError as exc:
                raise ValueError(f"row {i + 1}: {exc}") from None
            if iteration != i + 1:
                raise ValueError(f"row {i + 1} is numbered {iteration}; rows must be numbered 1..n")
            if g != last + 1:
                if g < last:
                    raise ValueError(f"row {i + 1} has {g} grad_evals, fewer than {last}; "
                                     "grad_evals start at 0 or more and must not decrease")
                rows.append(i)
                evals.append(g)
            last = g
            self.error.append(error)
            if r.w is not None:
                self.w._append(i, r.w)
            if r.alpha is not None:
                self.alpha._append(i, r.alpha)
        self.grad_evals = EvalCounts(rows, evals, len(self.error))

    @property
    def records(self) -> TraceRows:
        """The rows as records, for ``perfbench``'s ``workloads.accounting_faults``,
        ``TrajectoryWorkload.run_pass`` and ``.anchors``; the package reads none."""
        return TraceRows(self)

    def __len__(self) -> int:
        return len(self.error)

    def final_error(self) -> float:
        """The last row's error; ``nan`` for an empty trace."""
        return self.error[-1] if self.error else float("nan")


def run_steps(stepper, obj: Objective, budget: EvalBudget,
              error_fn: Callable[[Point], float],
              record_w: bool = False, record_alpha: bool = False) -> Trace:
    """Drive a stepper under a budget, recording one row per iteration.

    Stopping order per iteration: gradient budget (checked before the
    step), then divergence (non-finite or capped error), then the error
    floor.  ``record_alpha`` snapshots the stepper's ``last_alpha``
    attribute, which planners set only on planning-event iterations and
    IDBD on every step.  The iterate handed to ``error_fn`` (``obj.error``
    in ``run_experiment``) and copied into the ``w`` column is the stepper's
    ``point``, which every package stepper has; a stepper from outside the
    package that has no ``point`` is read through its ``w``.
    """
    trace = Trace()
    rows, evals = array("q"), array("q")
    append_row, append_evals = rows.append, evals.append
    last = 0  # the previous row's count; a row whose count is not last + 1 is a break
    append_error = trace.error.append
    append_w, append_alpha = trace.w._append, trace.alpha._append
    step = stepper.step
    iterate = attrgetter("point" if hasattr(stepper, "point") else "w")
    max_grad_evals = budget.max_grad_evals
    error_floor = budget.error_floor
    # overflow on a diverging trajectory is data here, not an anomaly
    with np.errstate(over="ignore", invalid="ignore"):
        for row in range(budget.max_iterations):
            if max_grad_evals is not None and obj.grad_evals >= max_grad_evals:
                break
            try:
                step(obj)
                err = float(error_fn(iterate(stepper)))
            except DivergenceError:
                err = INF
            if record_w:
                append_w(row, iterate(stepper))
            if record_alpha:
                alpha = getattr(stepper, "last_alpha", None)
                if alpha is not None:
                    append_alpha(row, alpha)
            g = obj.grad_evals
            if g != last + 1:
                append_row(row)
                append_evals(g)
            last = g
            append_error(err)
            if not isfinite(err) or err > ERROR_CAP:
                trace.status = DIVERGED
                break
            if error_floor is not None and err <= error_floor:
                trace.status = CONVERGED
                break
    trace.grad_evals = EvalCounts(rows, evals, len(trace.error))
    trace.total_grad_evals = obj.grad_evals
    trace.total_func_evals = obj.func_evals
    return trace


def write_csv(trace: Trace, path) -> None:
    """Write a trace as CSV, streaming its rows a block at a time.

    Columns: iteration, grad_evals, error, then w_0..w_{d-1} when iterates
    were recorded and alpha_0..alpha_{d-1} when step-size snapshots were.
    Sparse alpha rows leave their cells empty.  Each float is written as
    ``repr(float(x))``, so output is byte-stable for identical traces.
    """
    n = len(trace)
    columns = (trace.w, trace.alpha)
    header = ["iteration", "grad_evals", "error"]
    for name, column in zip(("w", "alpha"), columns):
        header += [f"{name}_{i}" for i in range(column.width)]
    cells = [_cells(c, n) if c.width else repeat("") for c in columns]
    lines = (f"{it},{g},{e!r}{w}{a}\n" for it, g, e, w, a in
             zip(range(1, n + 1), trace.grad_evals, trace.error, *cells))
    # one write per block of about 1000 cells keeps the file out of memory
    block = max(1, 1000 // len(header))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while text := "".join(islice(lines, block)):
            fh.write(text)


def _cells(column: Snapshots, n: int) -> Iterable[str]:
    """``,v0,v1,...`` for each row below ``n``, each value as ``repr(v)``; commas alone
    for a row without a snapshot.  One pass over ``rows`` and ``flat``, in order."""
    width = column.width
    blank = "," * width
    values = map(repr, column.flat)
    last = -1
    for row in column.rows:
        yield from repeat(blank, row - last - 1)
        yield "," + ",".join(islice(values, width))
        last = row
    yield from repeat(blank, n - last - 1)
