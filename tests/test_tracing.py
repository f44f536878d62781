import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stepplan.core import EvalBudget, Objective, StationaryPointError
from stepplan.optimizers import GradientDescent, PolyakStep
from stepplan.planner import StepSizePlanner
from stepplan.tracing import (CONVERGED, DIVERGED, Trace, TraceRecord, run_steps,
                              write_csv)

from conftest import quadratic_objective, rosenbrock_objective, scalar_objective


def trace_of(grad_evals):
    return Trace(records=[TraceRecord(i, g, 1.0 / i) for i, g in enumerate(grad_evals, 1)])


class TestLookups:
    def test_budget_exactly_at_a_record(self):
        t = trace_of([1, 3, 5, 7])
        assert t.last_record_at_evals(5).iteration == 3
        assert t.last_record_at_evals(1).iteration == 1
        assert t.last_record_at_evals(7).iteration == 4

    def test_budget_between_and_beyond_records(self):
        t = trace_of([1, 3, 5, 7])
        assert t.last_record_at_evals(4).iteration == 2
        assert t.last_record_at_evals(10 ** 9).iteration == 4

    def test_budget_below_the_first_record(self):
        t = trace_of([3, 6, 9])
        with pytest.raises(ValueError, match="no record within 2 gradient evaluations"):
            t.last_record_at_evals(2)
        with pytest.raises(ValueError, match="no record within"):
            Trace().last_record_at_evals(5)

    def test_equal_counts_give_the_latest_record(self):
        # a step that raised before its gradient leaves the count unchanged
        t = trace_of([2, 4, 4, 4, 6])
        assert t.last_record_at_evals(4).iteration == 4
        assert t.last_record_at_evals(5).iteration == 4

    def test_record_at_iteration(self):
        t = trace_of([1, 3, 5])
        assert t.record_at_iteration(1) == t.records[0] == TraceRecord(1, 1, 1.0)
        assert t.record_at_iteration(3) == t.records[2] == TraceRecord(3, 5, 1.0 / 3)
        for missing in (0, -1, 4):
            with pytest.raises(ValueError, match=f"no record at iteration {missing}"):
                t.record_at_iteration(missing)

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
        last = trace.records[-1]
        assert last.error == math.inf
        assert last.grad_evals == 1024
        assert np.array_equal(last.w, [(-2.0) ** 1023])
        assert all(np.isfinite(r.error) for r in trace.records[:-1])
        assert np.array_equal(trace.records[-2].w, last.w)


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
        assert t.records[0].w is w and t.records[0].alpha is None
        assert t.records[1].w is None and t.records[1].alpha is alpha
        assert t.records[2].w is None and t.records[2].alpha is None


class TestConstructor:
    @pytest.mark.parametrize("numbers", [[0], [2], [1, 3], [1, 2, 2], [2, 1]])
    def test_rows_must_be_numbered_one_to_n(self, numbers):
        with pytest.raises(ValueError, match="numbered 1..n"):
            Trace(records=[TraceRecord(i, i, 1.0) for i in numbers])

    def test_keeps_the_totals_and_status(self):
        t = Trace(records=[TraceRecord(1, 2, 0.5)], status=CONVERGED,
                  total_grad_evals=2, total_func_evals=3)
        assert (t.status, t.total_grad_evals, t.total_func_evals) == (CONVERGED, 2, 3)
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
        rebuilt = Trace(records=list(trace.records), status=trace.status,
                        total_grad_evals=trace.total_grad_evals)
        a, b = tmp_path / "run.csv", tmp_path / "rebuilt.csv"
        write_csv(trace, a)
        write_csv(rebuilt, b)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 41
        assert ("alpha_0" in a.read_text()) == record_alpha

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
