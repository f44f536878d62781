import math
import re
import tracemalloc
import warnings
from bisect import bisect_right
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepplan.core import EvalBudget, Objective, StationaryPointError
from stepplan.optimizers import GradientDescent, PolyakStep
from stepplan.planner import StepSizePlanner
from stepplan.tracing import (BUDGET_EXHAUSTED, CONVERGED, DIVERGED, Trace, TraceRecord,
                              run_steps, write_csv)

from conftest import quadratic_objective, rosenbrock_objective, scalar_objective


def trace_of(grad_evals):
    return Trace(records=[TraceRecord(i, g, 1.0 / i) for i, g in enumerate(grad_evals, 1)])


def grad_evals_sequences():
    """Non-decreasing counts: repeats, jumps, a first value of 0, 1 or above 1,
    values at and above 2**31, and the empty sequence."""
    first = st.one_of(st.sampled_from([0, 1, 2, 2 ** 31 - 1, 2 ** 31]), st.integers(0, 2 ** 40))
    steps = st.lists(st.sampled_from([0, 1, 1, 1, 2, 11, 2 ** 31]), max_size=30)
    return st.one_of(st.just([]),
                     st.builds(lambda g, ds: list(accumulate(ds, initial=g)), first, steps))


class TestLookups:
    def test_final_error(self):
        assert trace_of([1, 3, 5]).final_error() == 1.0 / 3
        assert math.isnan(Trace().final_error())


class TestRunStepsErrstate:
    def test_errstate_restored_after_converged_and_diverged_runs(self):
        with np.errstate(over="raise", invalid="warn", divide="ignore"):
            before = np.geterr()
            obj = scalar_objective()
            converged = run_steps(GradientDescent([1.0], gamma=0.5), obj,
                                  EvalBudget(max_iterations=5000, error_floor=1e-12), obj.error)
            assert converged.status == CONVERGED
            assert np.geterr() == before
            obj = scalar_objective()
            diverged = run_steps(GradientDescent([1.0], gamma=3.0), obj,
                                 EvalBudget(max_iterations=5000), obj.error)
            assert diverged.status == DIVERGED
            assert np.geterr() == before

    def test_errstate_restored_when_a_step_raises(self):
        obj = Objective(1, lambda w: 1.0, lambda w: np.zeros(1), optimum_value=0.0)
        before = np.geterr()
        with pytest.raises(StationaryPointError):
            run_steps(PolyakStep([1.0]), obj, EvalBudget(max_iterations=10), obj.error)
        assert np.geterr() == before

    def test_non_finite_iterate_ends_with_one_inf_row(self):
        # g = w and gamma = 3 double |w| each step; step 1024 overflows
        obj = scalar_objective()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_steps(GradientDescent([1.0], gamma=3.0), obj,
                              EvalBudget(max_iterations=5000, error_floor=None),
                              lambda w: math.log1p(abs(w[0])), record_w=True)
        assert trace.status == DIVERGED
        assert len(trace) == 1024
        assert trace.total_grad_evals == obj.grad_evals == 1024
        assert trace.error[-1] == math.inf
        assert trace.grad_evals[-1] == 1024
        assert np.array_equal(trace.w.get(1023), [(-2.0) ** 1023])
        assert all(np.isfinite(e) for e in trace.error[:-1])
        assert np.array_equal(trace.w.get(1022), trace.w.get(1023))


class TestIterateRead:
    """``run_steps`` reads a stepper's ``point`` where it has one, else its ``w``."""

    def test_list_stepper_hands_its_point_on(self):
        obj, seen = rosenbrock_objective(), []
        stepper = GradientDescent([-1.0, 0.0], gamma=0.001)
        trace = run_steps(stepper, obj, EvalBudget(max_iterations=3, error_floor=None),
                          lambda w: seen.append(w) or obj.error(w), record_w=True)
        assert len(seen) == 3 and all(type(w) is list for w in seen)
        assert seen[-1] is stepper.point
        assert trace.w.get(2).tolist() == stepper.point

    def test_stepper_with_only_step_and_w(self):
        class Halving:
            __slots__ = ("w",)

            def __init__(self):
                self.w = np.array([8.0, -4.0])

            def step(self, obj):
                self.w = self.w - 0.5 * obj.grad(self.w)

        obj = Objective(2, lambda w: 0.5 * float(w @ w), lambda w: w, optimum_value=0.0)
        seen = []
        trace = run_steps(Halving(), obj, EvalBudget(max_iterations=3, error_floor=None),
                          lambda w: seen.append(w) or obj.error(w), record_w=True)
        assert all(type(w) is np.ndarray for w in seen)
        assert list(trace.error) == [10.0, 2.5, 0.625]
        assert trace.w.get(2).tolist() == [1.0, -0.5]
        assert trace.total_grad_evals == 3


NARROW_CSV = """\
iteration,grad_evals,error
1,1,104.0
2,2,0.30000000000000004
3,4,2.5e-300
4,5,0.10000000149011612
5,6,0.0
6,7,inf
"""

WIDE_CSV = """\
iteration,grad_evals,error,w_0,w_1,alpha_0,alpha_1
1,1,1.5,-1.0,2.0,,
2,2,0.3333333333333333,0.30000000000000004,-0.0,0.0009,-2.5
3,5,1e-17,3.0,4.0,,
4,6,inf,1e+308,-1e-308,1e+22,7.0
"""


class TestCsvGoldenBytes:
    def test_narrow_rows(self, tmp_path):
        trace = Trace(records=[
            TraceRecord(1, 1, 104.0),
            TraceRecord(2, 2, 0.1 + 0.2),
            TraceRecord(3, 4, np.float64(2.5e-300)),
            TraceRecord(4, 5, np.float32(0.1)),
            TraceRecord(5, 6, 0.0),
            TraceRecord(6, 7, float("inf")),
        ])
        path = tmp_path / "narrow.csv"
        write_csv(trace, path)
        assert path.read_bytes() == NARROW_CSV.encode()

    def test_w_and_sparse_alpha_rows(self, tmp_path):
        trace = Trace(records=[
            TraceRecord(1, 1, 1.5, w=np.array([-1.0, 2.0])),
            TraceRecord(2, 2, 1 / 3, w=np.array([0.1 + 0.2, -0.0]),
                        alpha=np.array([0.0009, -2.5])),
            TraceRecord(3, 5, np.float64(1e-17), w=np.array([3, 4])),
            TraceRecord(4, 6, float("inf"), w=np.array([1e308, -1e-308]),
                        alpha=np.array([1e22, 7.0])),
        ])
        path = tmp_path / "wide.csv"
        write_csv(trace, path)
        assert path.read_bytes() == WIDE_CSV.encode()


class TestRecordsView:
    def test_length_and_indexing(self):
        t = trace_of([1, 3, 5])
        rows = t.records
        assert len(rows) == len(t) == 3
        assert rows[0] == TraceRecord(1, 1, 1.0)
        assert rows[-1] == rows[2] == TraceRecord(3, 5, 1.0 / 3)
        assert rows[-3] == rows[0]
        assert rows[np.int64(1)] == TraceRecord(2, 3, 0.5)

    def test_slices_and_iteration(self):
        t = trace_of([1, 3, 5, 7])
        assert t.records[1:3] == [TraceRecord(2, 3, 0.5), TraceRecord(3, 5, 1.0 / 3)]
        assert t.records[:-1] == list(t.records)[:-1]
        assert t.records[::-2] == [TraceRecord(4, 7, 0.25), TraceRecord(2, 3, 0.5)]
        assert t.records[5:] == []
        assert [r.iteration for r in t.records] == [1, 2, 3, 4]
        assert list(reversed(t.records))[0].iteration == 4

    @pytest.mark.parametrize("i", [3, -4, 10 ** 6])
    def test_out_of_range_raises_index_error(self, i):
        with pytest.raises(IndexError):
            trace_of([1, 3, 5]).records[i]
        with pytest.raises(IndexError):
            Trace().records[0]

    def test_view_is_read_only(self):
        rows = trace_of([1, 2]).records
        assert not hasattr(rows, "append")
        with pytest.raises(TypeError):
            rows[0] = TraceRecord(1, 1, 0.0)

    def test_snapshots_sit_on_their_rows(self):
        w, alpha = np.array([1.0, 2.0]), np.array([0.5, 0.25])
        t = Trace(records=[TraceRecord(1, 1, 1.0, w=w), TraceRecord(2, 2, 0.5, alpha=alpha),
                           TraceRecord(3, 3, 0.25)])
        assert np.array_equal(t.records[0].w, w) and t.records[0].alpha is None
        assert np.array_equal(t.records[1].alpha, alpha) and t.records[1].w is None
        assert t.records[0].w is not w and t.records[1].alpha is not alpha
        assert t.records[2].w is None and t.records[2].alpha is None
        rows = list(t.records)  # each row read holds its own copies
        rows[0].w[:] = 99.0
        rows[1].alpha[:] = 99.0
        assert t.records[0].w.tolist() == [1.0, 2.0] and t.records[1].alpha.tolist() == [0.5, 0.25]

    @settings(max_examples=200, deadline=None)
    @given(counts=grad_evals_sequences())
    def test_reads_back_the_records_it_was_built_from(self, counts):
        records = [TraceRecord(i, g, 1.0 / i) for i, g in enumerate(counts, 1)]
        t = Trace(records=records)
        assert list(t.records) == records


class TestConstructor:
    @pytest.mark.parametrize("numbers", [[0], [2], [1, 3], [1, 2, 2], [2, 1]])
    def test_rows_must_be_numbered_one_to_n(self, numbers):
        with pytest.raises(ValueError, match="numbered 1..n"):
            Trace(records=[TraceRecord(i, i, 1.0) for i in numbers])

    def test_grad_evals_must_not_decrease(self):
        with pytest.raises(ValueError, match="row 4 has 3 grad_evals"):
            trace_of([1, 5, 6, 3])
        assert bisect_right(trace_of([1, 1, 2]).grad_evals, 1) == 2

    @pytest.mark.parametrize("record, message", [
        (TraceRecord(1, True, 0.5), "row 1: grad_evals must be an integer, got True"),
        (TraceRecord(True, 1, 0.5), "row 1: iteration must be an integer, got True"),
        (TraceRecord(1, 1.5, 0.5), "row 1: grad_evals must be an integer, got 1.5"),
        (TraceRecord(1.0, 1, 0.5), "row 1: iteration must be an integer, got 1.0"),
        (TraceRecord(1, -3, 0.5), "row 1 has -3 grad_evals, fewer than 0"),
        (TraceRecord(1, 1, "x"), "row 1: error must be a number, got 'x'"),
        (TraceRecord(1, 1, None), "row 1: error must be a number, got None"),
    ])
    def test_malformed_values_name_their_row(self, record, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Trace(records=[record])

    def test_non_finite_errors_are_data(self):
        t = Trace(records=[TraceRecord(1, 0, np.nan), TraceRecord(2, np.int64(1), np.inf)])
        assert list(t.grad_evals) == [0, 1] and math.isnan(t.error[0]) and t.error[1] == np.inf

    def test_status_and_totals_start_at_their_defaults(self):
        t = Trace(records=[TraceRecord(1, 2, 0.5)])
        assert (t.status, t.total_grad_evals, t.total_func_evals) == (BUDGET_EXHAUSTED, 0, 0)
        assert t.final_error() == 0.5
        assert np.array(t.error).tolist() == [0.5]


class TestColumnarTrace:
    @pytest.mark.parametrize("record_w, record_alpha", [(False, False), (True, True)])
    def test_csv_bytes_match_a_trace_rebuilt_from_its_records(self, tmp_path, record_w,
                                                              record_alpha):
        obj = quadratic_objective()
        trace = run_steps(StepSizePlanner([-1.0, 2.0], gamma=0.0009, k=3), obj,
                          EvalBudget(max_iterations=40, error_floor=None), obj.error,
                          record_w=record_w, record_alpha=record_alpha)
        rebuilt = Trace(records=[TraceRecord(i + 1, g, e, trace.w.get(i), trace.alpha.get(i))
                                 for i, (g, e) in enumerate(zip(trace.grad_evals, trace.error))])
        a, b = tmp_path / "run.csv", tmp_path / "rebuilt.csv"
        write_csv(trace, a)
        write_csv(rebuilt, b)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 41
        assert ("alpha_0" in a.read_text()) == record_alpha

    def test_run_steps_holds_at_most_10_bytes_per_row(self):
        # one evaluation per row stores no grad_evals break: the error column alone
        obj = rosenbrock_objective()
        stepper = GradientDescent([-1.0, 0.0], gamma=0.001)
        budget = EvalBudget(max_iterations=20000, error_floor=None)
        trace, per_row = self.held_per_row(lambda: run_steps(stepper, obj, budget, obj.error))
        assert len(trace) == 20000 and len(trace.grad_evals.rows) == 0
        assert per_row <= 10, f"{per_row:.1f} B per row"

    def test_run_steps_holds_at_most_32_bytes_per_row(self):
        # 20000 rows of a Rosenbrock gd run: about 150 B each as one object per row
        obj = rosenbrock_objective()
        stepper = GradientDescent([-1.0, 0.0], gamma=0.001)
        budget = EvalBudget(max_iterations=20000, error_floor=None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_steps(stepper, obj, budget, obj.error)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 20000
        assert held <= 32 * 20000, f"{held / 20000:.1f} B per row"

    @staticmethod
    def held_per_row(run):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return trace, held / len(trace)

    def test_record_w_holds_at_most_48_bytes_per_row(self):
        # d=2: 16 B of w and 8 B of row number; a dict of arrays held about 206 B
        obj = rosenbrock_objective()
        stepper = GradientDescent([-1.0, 0.0], gamma=0.001)
        budget = EvalBudget(max_iterations=20000, error_floor=None)
        trace, per_row = self.held_per_row(
            lambda: run_steps(stepper, obj, budget, obj.error, record_w=True))
        assert len(trace) == len(trace.w) == 20000
        assert per_row <= 48, f"{per_row:.1f} B per row"

    def test_planner_alpha_holds_at_most_40_bytes_per_row(self):
        # K=2 plans every other row; a dict of arrays held about 107 B per row
        obj = quadratic_objective()
        stepper = StepSizePlanner([-1.0, 2.0], gamma=0.0009, k=2)
        budget = EvalBudget(max_iterations=6000, error_floor=None)
        trace, per_row = self.held_per_row(
            lambda: run_steps(stepper, obj, budget, obj.error, record_alpha=True))
        assert len(trace) == 6000 and len(trace.alpha) == 2999
        assert per_row <= 40, f"{per_row:.1f} B per row"

    @pytest.mark.parametrize("kind", ["gd-w-20000", "wide-2000"])
    def test_write_csv_peak_stays_under_512_kb(self, tmp_path, kind):
        # the file built as one string took 5.2 MB and 6.9 MB here
        if kind == "gd-w-20000":
            obj = rosenbrock_objective()
            trace = run_steps(GradientDescent([-1.0, 0.0], gamma=0.001), obj,
                              EvalBudget(max_iterations=20000, error_floor=None),
                              obj.error, record_w=True)
        else:
            rng = np.random.default_rng(2)
            trace = Trace(records=[
                TraceRecord(i, i, float(rng.lognormal()), w=rng.standard_normal(64),
                            alpha=rng.standard_normal(64) if i % 10 == 0 else None)
                for i in range(1, 2001)])
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_csv(trace, path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 500_000
        assert peak <= 512 * 1024, f"{peak / 1024:.0f} KB"


def whole_string_csv(records) -> str:
    """The CSV as the writer built it before streaming: one string, with the
    snapshots in dicts keyed by row index."""
    ws = {i: r.w for i, r in enumerate(records) if r.w is not None}
    alphas = {i: r.alpha for i, r in enumerate(records) if r.alpha is not None}
    w_dim = next(iter(ws.values())).size if ws else 0
    a_dim = next(iter(alphas.values())).size if alphas else 0

    def cells(values):
        return "," + ",".join(map(repr, np.asarray(values, dtype=float).tolist()))

    header = ["iteration", "grad_evals", "error"]
    header += [f"w_{i}" for i in range(w_dim)]
    header += [f"alpha_{i}" for i in range(a_dim)]
    lines = [",".join(header)]
    for r in records:
        line = f"{r.iteration},{r.grad_evals},{r.error!r}"
        if w_dim:
            w = ws.get(r.iteration - 1)
            line += cells(w) if w is not None else "," * w_dim
        if a_dim:
            alpha = alphas.get(r.iteration - 1)
            line += cells(alpha) if alpha is not None else "," * a_dim
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestStreamedCsv:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 40), d=st.integers(1, 64), with_w=st.booleans(),
           alpha_every=st.sampled_from([0, 1, 2, 3, 7]), diverged=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bytes_match_the_whole_string_writer(self, tmp_path_factory, n, d, with_w,
                                                 alpha_every, diverged, seed):
        rng = np.random.default_rng(seed)

        def snapshot():
            return rng.standard_normal(d) * 10.0 ** rng.integers(-300, 300, d)

        records = []
        for i in range(1, n + 1):
            error = float(rng.lognormal(0.0, 30.0))
            w = snapshot() if with_w else None
            alpha = snapshot() if alpha_every and i % alpha_every == 0 else None
            if diverged and i == n:
                error = math.inf
                if w is not None:
                    w[0], w[-1] = math.inf, -0.0
            records.append(TraceRecord(i, 2 * i, error, w=w, alpha=alpha))
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        write_csv(Trace(records=records), path)
        assert path.read_bytes() == whole_string_csv(records).encode()


class TestEvalCounts:
    @settings(max_examples=200, deadline=None)
    @given(counts=grad_evals_sequences(), data=st.data())
    def test_matches_a_plain_list(self, tmp_path_factory, counts, data):
        records = [TraceRecord(i, g, 1.0 / i) for i, g in enumerate(counts, 1)]
        t = Trace(records=records)
        column, n = t.grad_evals, len(counts)
        # a break is a row whose count is not the previous row's plus one
        assert list(column.rows) == [i for i, g in enumerate(counts)
                                     if g != (counts[i - 1] if i else 0) + 1]
        # run_steps stores the same breaks for a stepper that leaves these counts
        script, obj = iter(counts), SimpleNamespace(grad_evals=0, func_evals=0)
        stepper = SimpleNamespace(w=None, step=lambda obj: setattr(obj, "grad_evals", next(script)))
        ran = run_steps(stepper, obj, EvalBudget(max_iterations=n, error_floor=None), lambda w: 1.0)
        assert (ran.grad_evals.rows, ran.grad_evals.evals) == (column.rows, column.evals)
        assert len(ran.grad_evals) == n
        assert len(column) == n and list(column) == counts
        assert [column[i] for i in range(-n, n)] == counts + counts
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                column[i]
        sl = data.draw(st.slices(n + 2))
        assert column[sl] == counts[sl]
        assert list(reversed(column)) == counts[::-1]
        for budget in {-1, 0, 1, 2 ** 31, *counts, *(g - 1 for g in counts), *(g + 1 for g in counts)}:
            assert bisect_right(t.grad_evals, budget) == bisect_right(counts, budget)
        assert list(t.error) == [r.error for r in records]
        assert not t.w and not t.alpha
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        write_csv(t, path)
        assert path.read_bytes() == whole_string_csv(records).encode()

    def test_run_steps_stores_one_break_per_planning_event(self):
        obj = quadratic_objective()
        trace = run_steps(StepSizePlanner([-1.0, 2.0], gamma=0.0009, k=2, p=2, m=1), obj,
                          EvalBudget(max_iterations=200, error_floor=None), obj.error,
                          record_alpha=True)
        # each event (iterations 4, 6, 8, ...) spends P * (1 + M) = 4 evaluations more
        assert list(trace.grad_evals.rows) == list(trace.alpha.rows) == list(range(3, 200, 2))
        assert list(trace.grad_evals) == [i + 1 + 4 * len(range(3, i + 1, 2)) for i in range(200)]
        assert trace.grad_evals[-1] == trace.total_grad_evals == obj.grad_evals

    def test_read_only(self):
        column = trace_of([1, 3, 3]).grad_evals
        assert not hasattr(column, "append") and not hasattr(column, "tolist")
        with pytest.raises(TypeError):
            column[0] = 2
        assert column.index(3) == 1 and column.count(3) == 2 and 3 in column


class TestSnapshots:
    def trace(self):
        return Trace(records=[TraceRecord(1, 1, 1.0, w=np.array([1.0, 2.0])),
                              TraceRecord(2, 2, 0.5, w=np.array([3.0, 4.0]),
                                          alpha=np.array([0.5, 0.25])),
                              TraceRecord(3, 3, 0.25, w=np.array([5.0, 6.0]))])

    def test_rows_and_reads(self):
        t = self.trace()
        assert len(t.w) == 3 and list(t.w.rows) == [0, 1, 2] and list(t.alpha.rows) == [1]
        assert t.w.width == t.alpha.width == 2
        assert np.array_equal(t.w.get(2), [5.0, 6.0])
        assert np.array_equal(t.alpha.get(1), [0.5, 0.25])
        assert t.alpha.get(0) is None and t.alpha.get(2) is None and t.w.get(-1) is None
        assert t.w.get(3) is None
        assert t.w.get(1).dtype == np.float64

    def test_reads_are_copies(self):
        t = self.trace()
        t.w.get(0)[0] = 99.0
        t.alpha.get(1)[:] = 99.0
        assert np.array_equal(t.w.get(0), [1.0, 2.0])
        assert np.array_equal(t.alpha.get(1), [0.5, 0.25])

    def test_a_snapshot_of_another_size_names_its_row(self):
        with pytest.raises(ValueError, match="iteration 2 has 3 entries; the first snapshot has 2"):
            Trace(records=[TraceRecord(1, 1, 0.5, w=np.array([1.0, 2.0])),
                           TraceRecord(2, 2, 0.25, w=np.array([1.0, 2.0, 3.0]))])

    def test_a_snapshot_that_is_not_1d_names_its_row(self):
        with pytest.raises(ValueError, match=r"iteration 1 has shape \(1, 2\)"):
            Trace(records=[TraceRecord(1, 1, 0.5, alpha=np.array([[1.0, 2.0]]))])
