import math
import warnings

import numpy as np
import pytest

from stepplan.core import EvalBudget, Objective, StationaryPointError
from stepplan.optimizers import GradientDescent, PolyakStep
from stepplan.tracing import (CONVERGED, DIVERGED, Trace, TraceRecord, run_steps,
                              write_csv)

from conftest import scalar_objective


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
        assert t.record_at_iteration(1) is t.records[0]
        assert t.record_at_iteration(3) is t.records[2]
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
