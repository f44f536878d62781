import hashlib
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepplan.core import EvalBudget, StationaryPointError
from stepplan.harness import (ExperimentConfig, _prepare, apply_override, empirical_rate,
                              load_config, parse_override_value, run_all, run_experiment,
                              speedup_at_budget, sweep)
from stepplan.tracing import (BUDGET_EXHAUSTED, CONVERGED, DIVERGED, ERROR_CAP, Trace,
                              TraceRecord, write_csv)

CONVEX = {"name": "quadratic", "q_diag": [1000.0, 1.0],
          "w_star": [1.0, 1.0], "w0": [-1.0, 2.0]}
ROSEN = {"name": "rosenbrock", "w0": [-1.0, 0.0]}


# any JSON value, including the NaN and Infinity that Python's json reads
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=4),
    max_leaves=12)
# objects shaped like a config, so that the checks past the top level are reached
scalars = st.integers(-2, 5) | st.booleans() | st.none() | st.floats()
budget_like = st.fixed_dictionaries(
    {"max_iterations": scalars},
    optional={"max_grad_evals": scalars, "error_floor": scalars | st.text(max_size=2),
              "wall_clock": scalars})
entry_like = st.fixed_dictionaries({"name": st.sampled_from(["gd", "rosenbrock"]) | scalars})
config_like = st.fixed_dictionaries(
    {"problem": entry_like, "optimizer": entry_like, "budget": budget_like | scalars},
    optional={"seed": scalars, "record_w": scalars, "record_alpha": scalars,
              "label": st.text(max_size=2) | scalars, "extra": scalars})
# and objects with a few config keys of any value, some missing
partial_like = st.dictionaries(st.sampled_from(["problem", "optimizer", "budget", "seed"]),
                               json_values, max_size=4)
# every shipped config, and every dotted path an override may set in it
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {path.name: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}


def _dotted_paths(node: dict, prefix: str = ""):
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _dotted_paths(value, prefix + key + ".")


override_targets = st.sampled_from(sorted(SHIPPED)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(
        sorted(_dotted_paths(SHIPPED[name])) + ["problem.extra", "optimizer.extra"])))
# a whole quadratic problem set by `--set problem=...`, its matrix and vector fields
# drawn from scalars and other values that are 0-d as arrays, as well as lists
matrix_fields = (scalars | st.text(max_size=2) | st.lists(scalars, max_size=3)
                 | st.lists(st.lists(scalars, max_size=3), max_size=3))
quadratic_problems = st.fixed_dictionaries(
    {"name": st.just("quadratic")},
    optional={"q": matrix_fields, "q_diag": matrix_fields, "w_star": matrix_fields,
              "w0": matrix_fields})
overrides = (st.tuples(override_targets, json_values)
             | st.tuples(st.just(("convex-planner.json", "problem")), quadratic_problems))


def cfg(problem, optimizer, budget, **kw):
    return ExperimentConfig(problem=problem, optimizer=optimizer, budget=budget, **kw)


def synthetic_trace(errors, grad_per_iter=1):
    trace = Trace(records=[TraceRecord(iteration=i, grad_evals=i * grad_per_iter, error=e)
                           for i, e in enumerate(errors, start=1)])
    trace.total_grad_evals = len(errors) * grad_per_iter
    return trace


def trace_of(grad_evals):
    """A converged trace with these counts and error 1 / i on row i."""
    trace = Trace(records=[TraceRecord(i, g, 1.0 / i) for i, g in enumerate(grad_evals, 1)])
    trace.status = CONVERGED
    return trace


ONE = trace_of([1])


class TestRunExperiment:
    def test_gd_errors_strictly_decrease(self):
        trace = run_experiment(cfg(CONVEX, {"name": "gd", "gamma": 0.00099},
                                   EvalBudget(max_iterations=10)))
        errs = np.array(trace.error)
        assert len(errs) == 10
        assert np.all(np.diff(errs) < 0)

    def test_zero_iteration_budget(self):
        trace = run_experiment(cfg(CONVEX, {"name": "gd", "gamma": 0.001},
                                   EvalBudget(max_iterations=0)))
        assert len(trace) == 0
        assert trace.status == BUDGET_EXHAUSTED

    def test_csawg_converges_within_500(self):
        trace = run_experiment(cfg(CONVEX, {"name": "csawg", "gamma": 0.0009, "k": 2},
                                   EvalBudget(max_iterations=500, error_floor=1e-12)))
        assert trace.status == CONVERGED
        assert len(trace) < 500
        assert trace.error[-1] <= 1e-12

    def test_divergence_is_recorded_not_raised(self):
        trace = run_experiment(cfg(ROSEN, {"name": "gd", "gamma": 0.1},
                                   EvalBudget(max_iterations=1000)))
        assert trace.status == DIVERGED
        errs = np.array(trace.error)[:-1]
        assert np.all(np.isfinite(errs))
        # no rows after the diverged one
        assert not trace.error[-1] <= ERROR_CAP

    @pytest.mark.parametrize("optimizer", [{"name": "gd", "gamma": 1e80},
                                           {"name": "csawg", "gamma": 1e80, "k": 2}])
    def test_rosenbrock_value_overflow_is_a_diverged_row(self, optimizer):
        # the first step lands near 1e82, where the value's squares overflow a float
        trace = run_experiment(cfg(ROSEN, optimizer, EvalBudget(max_iterations=100)))
        assert trace.status == DIVERGED
        assert list(trace.error) == [math.inf] and trace.total_grad_evals == 1

    def test_grad_evals_column_monotone(self):
        trace = run_experiment(cfg(CONVEX, {"name": "csawg", "gamma": 0.0009, "k": 3},
                                   EvalBudget(max_iterations=50, error_floor=None)))
        evals = list(trace.grad_evals)
        assert all(b > a for a, b in zip(evals, evals[1:]))

    def test_accounting_one_step_methods(self):
        for opt in ({"name": "gd", "gamma": 0.0005},
                    {"name": "adam", "alpha": 0.01},
                    {"name": "heavy_ball", "gamma": 0.0005, "p": 0.8}):
            trace = run_experiment(cfg(CONVEX, opt, EvalBudget(max_iterations=40,
                                                               error_floor=None)))
            assert trace.total_grad_evals == len(trace) == 40

    def test_accounting_csawg(self):
        trace = run_experiment(cfg(CONVEX, {"name": "csawg", "gamma": 0.0009,
                                            "k": 3, "p": 2, "m": 4},
                                   EvalBudget(max_iterations=60, error_floor=None),
                                   record_alpha=True))
        events = len(trace.alpha)
        assert events == 60 // 3 - 1
        assert trace.total_grad_evals == 60 + events * 2 * (1 + 4)

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="unknown problem"):
            run_experiment(cfg({"name": "sphere"}, {"name": "gd", "gamma": 0.1},
                               EvalBudget(max_iterations=1)))
        with pytest.raises(ValueError, match="unknown optimizer"):
            run_experiment(cfg(ROSEN, {"name": "newton"}, EvalBudget(max_iterations=1)))

    def test_idbd_runs_on_lms_only(self):
        trace = run_experiment(cfg({"name": "lms", "w_star": [1.0, -1.0]},
                                   {"name": "idbd", "eta": 0.02, "beta0": float(np.log(0.05))},
                                   EvalBudget(max_iterations=3000, error_floor=None),
                                   seed=5))
        assert trace.error[-1] < trace.error[0]
        assert trace.total_grad_evals == 3000
        # the stream is an Objective, so any other stepper runs on it too
        trace = run_experiment(cfg({"name": "lms", "w_star": [1.0]},
                                   {"name": "gd", "gamma": 0.1}, EvalBudget(max_iterations=1)))
        assert len(trace) == trace.total_grad_evals == 1
        for problem in (ROSEN, CONVEX):
            with pytest.raises(ValueError, match="idbd.*'lms'"):
                run_experiment(cfg(problem, {"name": "idbd", "eta": 0.02, "beta0": -3.0},
                                   EvalBudget(max_iterations=1)))

    @pytest.mark.parametrize("dim", [3, 30], ids=["lists", "arrays"])
    @pytest.mark.parametrize("optimizer,per_event,func_per_step", [
        ({"name": "gd", "gamma": 0.02}, 0, 0),
        ({"name": "adam", "alpha": 0.01}, 0, 0),
        ({"name": "csawg", "gamma": 0.01, "k": 10, "p": 5, "m": 10}, 5 * (1 + 10), 0),
        ({"name": "polyak", "f_star": 0.0}, 0, 1),
    ], ids=["gd", "adam", "csawg", "polyak"])
    def test_stream_accounting(self, dim, optimizer, per_event, func_per_step):
        # one sampled gradient per row and P(1 + M) per planning event, on
        # either side of LIST_MAX_DIM; value is the population loss, counted
        w_star = np.linspace(1.0, 2.0, dim).tolist()
        trace = run_experiment(cfg({"name": "lms", "w_star": w_star, "noise_std": 0.1},
                                   optimizer, EvalBudget(max_iterations=200, error_floor=None),
                                   seed=3, record_alpha=True))
        assert trace.total_grad_evals == len(trace) + len(trace.alpha) * per_event
        assert trace.total_func_evals == func_per_step * len(trace)
        if optimizer["name"] == "polyak":
            # its step divides the population loss by one sampled gradient's
            # squared norm, which can be short: the run diverges
            assert trace.status == DIVERGED
            return
        assert trace.status == BUDGET_EXHAUSTED and len(trace) == 200
        assert len(trace.alpha) == (19 if per_event else 0)
        assert trace.final_error() < trace.error[0]

    def test_idbd_deterministic_per_seed(self):
        base = cfg({"name": "lms", "w_star": [0.5, 2.0], "noise_std": 0.1},
                   {"name": "idbd", "eta": 0.02, "beta0": -3.0},
                   EvalBudget(max_iterations=500, error_floor=None), seed=9)
        a = run_experiment(base)
        b = run_experiment(base)
        assert np.array_equal(np.array(a.error), np.array(b.error))


    @pytest.mark.parametrize("beta0", [700.0, 710.0])
    def test_idbd_divergence_is_recorded(self, beta0):
        # exp(710) overflows at once; exp(700) makes a finite iterate whose
        # error overflows.  Either way the run ends with one inf row.
        c = cfg({"name": "lms", "w_star": [1.0, -1.0]},
                {"name": "idbd", "eta": 0.0, "beta0": beta0},
                EvalBudget(max_iterations=100), record_w=True)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_experiment(c)
        assert np.geterr() == before
        assert trace.status == DIVERGED
        assert len(trace) == 1
        assert trace.error[-1] == math.inf
        assert trace.grad_evals[-1] == trace.total_grad_evals == 1
        if beta0 == 710.0:
            assert np.array_equal(trace.w.get(0), [0.0, 0.0])  # the last finite iterate: w0

    def test_lossgrad_runs_past_an_underflowing_model_decrease(self):
        # near the optimum g.g turns subnormal and alpha * g.g underflows to
        # 0.0 (first at iteration 1812); the run keeps w there and goes on
        c = cfg({"name": "quadratic", "q_diag": [10.0, 1.0], "w0": [1.0, 1.0]},
                {"name": "lossgrad", "alpha0": 0.05},
                EvalBudget(max_iterations=20000, error_floor=None))
        trace = run_experiment(c)
        assert trace.status == BUDGET_EXHAUSTED
        assert len(trace) == trace.total_grad_evals == 20000
        assert 0.0 <= trace.final_error() < 1e-300


class TestDeterminism:
    def test_idbd_stream_golden_bytes(self, tmp_path):
        # sha256 of this CSV as written by the former dedicated stream loop.
        # numpy's float64 exp rounds differently in its AVX-512 kernel and in
        # its AVX2/baseline one, and OpenBLAS's dot products round differently
        # in its SkylakeX kernel and in its Haswell (AVX2) one, which Zen
        # shares; all four hashes were measured on x86-64.
        golden = {
            # AVX-512 exp, SkylakeX BLAS
            "c6654ac296bb2851c95203131e6ef38b81fb0498772e073d2b9f7d0f0a73343b",
            # AVX2/baseline exp, SkylakeX BLAS
            "d004ec664d77e737421a139e2448d825cb5fa2ceb7e8d82bcf7d68a785e8d9a4",
            # AVX-512 exp, Haswell BLAS
            "49356b0bb77f7fefbf7fdebf500bbcb341ce667925f547efae1622e64a55acac",
            # AVX2/baseline exp, Haswell BLAS
            "fb5f731691d8dec74461a299519bf5cb42b69e937639d9829c581e8bd73ec7dc",
        }
        c = cfg({"name": "lms", "w_star": [1.0, -2.0, 0.5], "noise_std": 0.1},
                {"name": "idbd", "eta": 0.02, "beta0": -3.0},
                EvalBudget(max_iterations=1000, max_grad_evals=300, error_floor=None),
                seed=5, record_w=True, record_alpha=True)
        trace = run_experiment(c)
        assert trace.status == BUDGET_EXHAUSTED
        assert len(trace) == trace.total_grad_evals == 300
        assert trace.total_func_evals == 0
        path = tmp_path / "idbd.csv"
        write_csv(trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() in golden

    def test_byte_identical_csvs(self, tmp_path):
        c = cfg(CONVEX, {"name": "csawg", "gamma": 0.0009, "k": 2},
                EvalBudget(max_iterations=300, error_floor=None),
                record_w=True, record_alpha=True)
        paths = []
        for name in ("a.csv", "b.csv"):
            trace = run_experiment(c)
            p = tmp_path / name
            write_csv(trace, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCsv:
    def test_empty_trace_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_csv(Trace(), p)
        assert p.read_text() == "iteration,grad_evals,error\n"

    def test_column_count_with_w_and_alpha(self, tmp_path):
        c = cfg(CONVEX, {"name": "csawg", "gamma": 0.0009, "k": 2},
                EvalBudget(max_iterations=10, error_floor=None),
                record_w=True, record_alpha=True)
        p = tmp_path / "t.csv"
        write_csv(run_experiment(c), p)
        lines = p.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["iteration", "grad_evals", "error", "w_0", "w_1", "alpha_0", "alpha_1"]
        assert len(header) == 7
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    def test_alpha_cells_sparse(self, tmp_path):
        c = cfg(CONVEX, {"name": "csawg", "gamma": 0.0009, "k": 2},
                EvalBudget(max_iterations=6, error_floor=None), record_alpha=True)
        p = tmp_path / "t.csv"
        write_csv(run_experiment(c), p)
        rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
        # events at iterations 4 and 6 carry values; other rows are empty
        filled = [i + 1 for i, row in enumerate(rows) if row[3] != ""]
        assert filled == [4, 6]


class TestSpeedup:
    def test_identical_traces(self):
        t = synthetic_trace([1.0, 0.5, 0.25])
        assert speedup_at_budget(t, t, 3) == 1.0

    def test_ratio_arithmetic(self):
        a = synthetic_trace([1.0, 1e-1])
        b = synthetic_trace([1.0, 1e-3])
        assert np.isclose(speedup_at_budget(a, b, 2), 100.0)

    def test_interpolates_to_last_record_within_budget(self):
        a = synthetic_trace([1.0, 0.5, 0.25, 0.125], grad_per_iter=3)
        b = synthetic_trace([1.0, 0.5], grad_per_iter=5)
        # budget 10: a's last record <= 10 is iteration 3 (9 evals), b's is iteration 2
        assert np.isclose(speedup_at_budget(a, b, 10), 0.25 / 0.5)

    def test_budget_beyond_trace(self):
        a = synthetic_trace([1.0, 0.5])
        b = synthetic_trace([1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="ends before"):
            speedup_at_budget(a, b, 3)

    def test_converged_trace_extends(self):
        a = synthetic_trace([1.0, 0.5, 0.25, 0.125])
        b = synthetic_trace([1.0, 0.0])
        b.status = CONVERGED
        assert speedup_at_budget(a, b, 4) == np.inf

    def test_zero_over_zero(self):
        a = synthetic_trace([0.0]); a.status = CONVERGED
        b = synthetic_trace([0.0]); b.status = CONVERGED
        assert speedup_at_budget(a, b, 1) == 1.0

    # row i of trace_of has error 1 / i, and ONE's error is 1, so the
    # speedup over ONE is 1 / (the row read for the budget)
    def test_budget_exactly_at_a_record(self):
        t = trace_of([1, 3, 5, 7])
        assert speedup_at_budget(t, ONE, 5) == 1.0 / 3
        assert speedup_at_budget(t, ONE, 1) == 1.0
        assert speedup_at_budget(t, ONE, 7) == 1.0 / 4

    def test_budget_between_and_beyond_records(self):
        t = trace_of([1, 3, 5, 7])
        assert speedup_at_budget(t, ONE, 4) == 1.0 / 2
        assert speedup_at_budget(t, ONE, 10 ** 9) == 1.0 / 4

    def test_budget_below_the_first_record(self):
        with pytest.raises(ValueError, match="no record within 2 gradient evaluations"):
            speedup_at_budget(trace_of([3, 6, 9]), ONE, 2)
        with pytest.raises(ValueError, match="no record within 5 gradient evaluations"):
            speedup_at_budget(ONE, trace_of([]), 5)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="grad_evals must be >= 1, got 0"):
            speedup_at_budget(ONE, ONE, 0)

    def test_equal_counts_give_the_latest_record(self):
        # a step that raised before its gradient leaves the count unchanged
        t = trace_of([2, 4, 4, 4, 6])
        assert speedup_at_budget(t, ONE, 4) == 1.0 / 4
        assert speedup_at_budget(t, ONE, 5) == 1.0 / 4


class TestEmpiricalRate:
    def test_exact_geometric_sequence(self):
        t = synthetic_trace([0.9 ** k for k in range(1, 101)])
        assert np.isclose(empirical_rate(t, (1, 100)), 0.9, rtol=1e-12)

    def test_constant_errors(self):
        t = synthetic_trace([0.5] * 50)
        assert empirical_rate(t, (1, 50)) == 1.0

    def test_gd_rate_closed_form(self):
        # 1-d quadratic curvature q: error ratio per step is (1 - gamma q)^2
        q, gamma = 2.0, 0.1
        trace = run_experiment(cfg({"name": "quadratic", "q_diag": [q], "w_star": [0.0],
                                    "w0": [1.0]},
                                   {"name": "gd", "gamma": gamma},
                                   EvalBudget(max_iterations=200, error_floor=None)))
        assert np.isclose(empirical_rate(trace, (10, 200)), (1 - gamma * q) ** 2, rtol=1e-12)

    def test_window_out_of_range(self):
        t = synthetic_trace([1.0, 0.5])
        with pytest.raises(ValueError):
            empirical_rate(t, (1, 5))
        with pytest.raises(ValueError):
            empirical_rate(t, (2, 1))

    def test_zero_error_in_window(self):
        nan = float("nan")
        for errors in ([1.0, 0.0, 1.0], [1.0, 0.5, nan], [nan, 0.5, 0.25]):
            with pytest.raises(ValueError, match="non-positive"):
                empirical_rate(synthetic_trace(errors), (1, 3))

    def test_reads_the_window_rows(self):
        t = trace_of([1, 3, 5])
        assert empirical_rate(t, (1, 3)) == (1.0 / 3) ** 0.5
        assert empirical_rate(t, (2, 3)) == (1.0 / 3) / (1.0 / 2)
        for window in ((0, 3), (-1, 3)):
            with pytest.raises(ValueError, match="0 < start < end"):
                empirical_rate(t, window)
        for window in ((1, 4), (4, 5)):
            with pytest.raises(ValueError, match=f"no record at iteration {window[1]}"):
                empirical_rate(t, window)


@pytest.mark.parametrize("name, call", [
    ("grad_evals", lambda t: speedup_at_budget(t, t, 2.5)),
    ("grad_evals", lambda t: speedup_at_budget(t, t, "3")),
    ("grad_evals", lambda t: speedup_at_budget(t, t, True)),
    ("window end", lambda t: empirical_rate(t, (1, 3.0))),
    ("window start", lambda t: empirical_rate(t, (True, 3))),
    ("window start", lambda t: empirical_rate(t, ("1", 3))),
], ids=["budget-float", "budget-str", "budget-bool", "end-float", "start-bool", "start-str"])
def test_metric_counts_must_be_integers(name, call):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(synthetic_trace([1.0, 0.5, 0.25]))


class TestSweep:
    BASE = None

    def base(self):
        return cfg(ROSEN, {"name": "gd", "gamma": 0.001},
                   EvalBudget(max_iterations=200, error_floor=None), label="gd")

    def test_gamma_grid(self):
        gammas = [0.0005, 0.001, 0.0015, 0.002]
        results = []
        assert run_all(sweep({"optimizer.gamma": gammas}, self.base()),
                       lambda c, trace: results.append((c, trace))) == []
        assert len(results) == 4
        for (c, trace), gamma in zip(results, gammas):
            assert c.optimizer["gamma"] == gamma
            solo = run_experiment(cfg(ROSEN, {"name": "gd", "gamma": gamma},
                                      EvalBudget(max_iterations=200, error_floor=None)))
            assert np.array_equal(np.array(trace.error), np.array(solo.error))

    def test_adam_grid_cardinality(self):
        base = cfg(ROSEN, {"name": "adam", "alpha": 0.005},
                   EvalBudget(max_iterations=5, error_floor=None))
        configs = sweep({"optimizer.alpha": [0.005, 0.01],
                         "optimizer.beta1": [0.9, 0.99, 0.999],
                         "optimizer.beta2": [0.99, 0.999, 0.9999]}, base)
        assert len(configs) == 18
        labels = [c.label for c in configs]
        assert len(set(labels)) == 18

    def test_empty_grid_or_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep({}, self.base())
        with pytest.raises(ValueError, match="empty value list"):
            sweep({"optimizer.gamma": []}, self.base())

    def test_invalid_parameter_name(self):
        configs = sweep({"optimizer.warp": [1.0]}, self.base())
        with pytest.raises(ValueError):
            run_all(configs, lambda c, trace: None)


class TestRunAll:
    def polyak(self, f_star, label):
        # at w0 = w_star the gradient is zero, so an f* below f(w_star) = 0 cannot be reached
        return cfg(dict(CONVEX, w0=[1.0, 1.0]), {"name": "polyak", "f_star": f_star},
                   EvalBudget(max_iterations=20), label=label)

    def gd(self, label):
        return cfg(ROSEN, {"name": "gd", "gamma": 0.001}, EvalBudget(max_iterations=50),
                   label=label)

    def test_failed_run_does_not_stop_the_others(self):
        configs = [self.gd("a"), self.polyak(-1.0, "bad"), self.polyak(0.0, "b"), self.gd("c")]
        done = []
        failed = run_all(configs, lambda c, trace: done.append((c.label, trace)))
        assert [(c.label, type(exc)) for c, exc in failed] == [("bad", StationaryPointError)]
        assert "above f* = -1.0" in str(failed[0][1])
        assert [label for label, _ in done] == ["a", "b", "c"]
        for (_, trace), c in zip(done, [configs[0], configs[2], configs[3]]):
            solo = run_experiment(c)
            assert trace.error == solo.error and trace.status == solo.status

    def test_bad_config_raises_before_any_run(self):
        configs = [self.gd("a"), cfg(ROSEN, {"name": "heavy_ball", "gamma": 0.001, "p": 1.0},
                                     EvalBudget(max_iterations=50))]
        done = []
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\), got 1\.0"):
            run_all(configs, lambda c, trace: done.append(c))
        assert done == []


class TestConfigSerialization:
    def test_round_trip(self, tmp_path):
        c = cfg(CONVEX, {"name": "csawg", "gamma": 0.0009, "k": 2, "p": 5, "m": 10},
                EvalBudget(max_iterations=100, max_grad_evals=500, error_floor=1e-12),
                seed=3, record_w=True, record_alpha=True, label="demo")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(c.to_dict()))
        loaded = load_config(path)
        assert loaded == c

    @pytest.mark.parametrize("field, value", [
        ("problem", ["rosenbrock"]), ("problem", {"w0": [0.0, 0.0]}), ("optimizer", {"name": 1}),
        ("label", 5), ("seed", "a"), ("seed", 1.0), ("seed", True),
        ("record_w", "yes"), ("record_alpha", 1), ("seed", -1)])
    def test_field_types_rejected(self, field, value):
        d = cfg(ROSEN, {"name": "gd", "gamma": 0.001}, EvalBudget(max_iterations=10)).to_dict()
        d[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(d)

    def test_numpy_seed_becomes_int(self):
        c = cfg(ROSEN, {"name": "gd", "gamma": 0.001}, EvalBudget(max_iterations=10),
                seed=np.int64(4))
        assert type(c.seed) is int and c.seed == 4

    @settings(max_examples=300, deadline=None)
    @given(json_values | config_like | partial_like)
    def test_from_dict_returns_config_or_raises_value_error(self, d):
        try:
            c = ExperimentConfig.from_dict(d)
        except ValueError:
            return
        assert isinstance(c, ExperimentConfig) and isinstance(c.budget, EvalBudget)

    @settings(max_examples=500, deadline=None)
    @given(overrides)
    def test_override_builds_or_raises_value_error(self, override):
        # what `--set path=value` does before the run starts
        (name, path), value = override
        d = json.loads(json.dumps(SHIPPED[name]))
        apply_override(d, path, value)
        try:
            run = _prepare(ExperimentConfig.from_dict(d))
        except ValueError:
            return
        assert callable(run)

    @pytest.mark.parametrize("d", [
        {"problem": {"name": "rosenbrock"}, "optimizer": {"name": "gd"}},
        {"problem": {"name": "rosenbrock"}, "optimizer": {"name": "gd"}, "budget": 5},
        {"problem": {"name": "rosenbrock"}, "optimizer": {"name": "gd"},
         "budget": {"max_iterations": 1, "wall_clock": 60}},
        {"problem": {"name": "rosenbrock"}, "optimizer": {"name": "gd"},
         "budget": {"max_iterations": 1, "error_floor": "low"}},
        {"optimizer": {"name": "gd"}, "budget": {"max_iterations": 1}},
        [1, 2], "config", None,
    ])
    def test_malformed_dicts_raise_value_error(self, d):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(d)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"problem": {"name": "rosenbrock"},
                                        "optimizer": {"name": "gd", "gamma": 0.1},
                                        "budget": {"max_iterations": 1},
                                        "wall_clock": 60})

    @pytest.mark.parametrize("d, message", [
        ({"budget": {}, "wall_clock": 60, "Seed": 1}, "unknown config keys: ['Seed', 'wall_clock']"),
        ({"seed": 1, "label": "x"}, "missing config keys: ['budget', 'optimizer', 'problem']"),
        ({"problem": {"name": "rosenbrock"}, "budget": {}}, "missing config keys: ['optimizer']"),
    ], ids=["unknown", "missing-all", "missing-one"])
    def test_key_messages_name_the_keys(self, d, message):
        # the known and required keys are the dataclass's fields, and those without a default
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(d)

    def test_apply_override(self):
        d = self_dict = cfg(ROSEN, {"name": "gd", "gamma": 0.001},
                            EvalBudget(max_iterations=10)).to_dict()
        apply_override(d, "optimizer.gamma", 0.5)
        assert d["optimizer"]["gamma"] == 0.5
        apply_override(d, "budget.max_iterations", 99)
        assert d["budget"]["max_iterations"] == 99
        with pytest.raises(ValueError, match="invalid override path"):
            apply_override(d, "budget.max_iterations.nested", 1)
        with pytest.raises(ValueError, match="invalid override path"):
            apply_override(d, "nonexistent.sub", 1)

    def test_parse_override_value(self):
        assert parse_override_value("0.5") == 0.5
        assert parse_override_value("[1,2]") == [1, 2]
        assert parse_override_value("true") is True
        assert parse_override_value("strongly_convex") == "strongly_convex"

    @pytest.mark.parametrize("text", ["[" * 100000, "[" * 5000 + "]" * 5000],
                             ids=["100000-open", "5000-closed"])
    def test_override_nested_too_deep_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="nested too deep"):
            parse_override_value(text)

    def test_config_file_nested_too_deep_is_a_value_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        with pytest.raises(ValueError, match="nested too deep"):
            load_config(path)

    def test_config_nested_too_deep_is_a_value_error(self):
        w0 = [1.0]
        for _ in range(5000):  # built without recursion; json.dumps recurses on it
            w0 = [w0]
        d = cfg(ROSEN, {"name": "gd", "gamma": 0.001}, EvalBudget(max_iterations=10)).to_dict()
        d["problem"]["w0"] = w0
        with pytest.raises(ValueError, match="config is not JSON data"):
            ExperimentConfig.from_dict(d)
