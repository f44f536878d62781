import math
from operator import attrgetter

import numpy as np
import pytest

from stepplan.core import LIST_MAX_DIM, EvalBudget, Objective
from stepplan.harness import ExperimentConfig, run_experiment
from stepplan.optimizers import (Adam, GradientDescent, HeavyBall, NesterovAGD, RMSprop,
                                 make_optimizer)
from stepplan.planner import ExperienceBuffer, ExperiencePair, StepSizePlanner, compute_alpha
from stepplan.theory import ideal_diag_step
from stepplan.tracing import (BUDGET_EXHAUSTED, CONVERGED, DIVERGED, ERROR_CAP, Trace,
                              TraceRecord, run_steps, write_csv)

from conftest import make_objective, quadratic_objective, same_bits
from stepplan.problems import QuadraticProblem, RosenbrockProblem, random_spd


def pair(w, g):
    return ExperiencePair(w=np.asarray(w, float), g=np.asarray(g, float))


def fit(buf):
    """The buffer's pair sums and the step-size fitted from them."""
    return buf.sum1, buf.sum2, compute_alpha(buf)


def alpha_from_sums(sum1, sum2):
    zero = sum2 == 0.0
    return np.where(zero, 0.0, sum1 / np.where(zero, 1.0, sum2))


def run_planner(obj, w0, budget, gamma, k, record_w=False):
    """A planner run through the one run loop, snapshotting alpha at events."""
    return run_steps(StepSizePlanner(w0, gamma=gamma, k=k), obj, budget, obj.error,
                     record_w=record_w, record_alpha=True)


def reference_planner(obj, w0, gamma, k, p, m, iterations) -> Trace:
    """The planner as the paper's equations state it, one trace row per iteration.

    Each GD step ``w - gamma * g`` appends the pair (new iterate, driving
    gradient) to a plain list.  At pair counts 2K, 3K, ... the newest window
    is summed in pair order from zeros, ``alpha_i = sum_s g_s,i (w_s,i -
    w_{s+K},i) / sum_s g_s,i^2`` with alpha_i = 0 where the denominator is 0,
    and applied P times as ``w - alpha * g``, each projection followed by M
    steps ``w - gamma * g``, every one on a fresh gradient.  A non-finite
    iterate after any of these ends the run with an ``inf`` row that keeps the
    last completed iterate and no alpha; an error above ``ERROR_CAP`` or of
    exactly 0 ends it after its row.
    """
    w = np.array(w0, dtype=float)
    pairs, rows = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, iterations + 1):
            alpha = None
            g = obj.grad(w)
            v = w - gamma * g
            finite = bool(np.isfinite(v).all())
            if finite:
                pairs.append((v, g))
                n = len(pairs)
                if n >= 2 * k and n % k == 0:
                    sum1, sum2 = np.zeros(w.size), np.zeros(w.size)
                    for (w_s, g_s), (w_sk, _) in zip(pairs[n - 2 * k:n - k], pairs[n - k:]):
                        sum1 = sum1 + g_s * (w_s - w_sk)
                        sum2 = sum2 + g_s * g_s
                    alpha = alpha_from_sums(sum1, sum2)
                    for step in ([alpha] + [gamma] * m) * p:
                        v = v - step * obj.grad(v)
                        finite = bool(np.isfinite(v).all())
                        if not finite:
                            break
            if not finite:
                rows.append(TraceRecord(it, obj.grad_evals, math.inf, w))
                break
            w = v
            error = obj.error(w)
            rows.append(TraceRecord(it, obj.grad_evals, error, w, alpha))
            if not math.isfinite(error) or error > ERROR_CAP or error <= 0.0:
                break
    return Trace(records=rows)


class TestReferencePlanner:
    def test_csv_bytes_match_the_paper_equations(self, tmp_path):
        instances = []
        for d in (1, 2, 8, LIST_MAX_DIM, LIST_MAX_DIM + 1, 64):
            rng = np.random.default_rng(d)
            q, _, L = random_spd(rng, d, 100.0)
            instances.append((QuadraticProblem(q, np.zeros(d)), rng.standard_normal(d), 0.9 / L))
        # w0 = w* in the second component: its gradient stays 0, so alpha is 0 there
        diag = QuadraticProblem(np.diag([100.0, 1.0]), [1.0, 1.0])
        instances.append((diag, [-1.0, 1.0], 0.9 / 100.0))
        # a problem whose gradient is a list of floats, as the list form's iterate is
        instances.append((RosenbrockProblem(), [-1.0, 0.0], 0.001))
        events = diverged = converged = 0
        forms = set()
        for problem, w0, gamma in instances:
            for k in (1, 2, 3, 10):
                for p, m in ((1, 0), (2, 3), (5, 10)):
                    obj = make_objective(problem)
                    planner = StepSizePlanner(w0, gamma=gamma, k=k, p=p, m=m)
                    forms.add(type(planner.point))
                    trace = run_steps(planner, obj, EvalBudget(max_iterations=300, error_floor=0.0),
                                      obj.error, record_w=True, record_alpha=True)
                    want = reference_planner(make_objective(problem), w0, gamma, k, p, m, 300)
                    write_csv(trace, tmp_path / "planner.csv")
                    write_csv(want, tmp_path / "reference.csv")
                    assert ((tmp_path / "planner.csv").read_bytes()
                            == (tmp_path / "reference.csv").read_bytes()), (problem, w0, k, p, m)
                    assert trace.total_grad_evals == want.grad_evals[-1]
                    events += len(trace.alpha)
                    diverged += trace.status == DIVERGED
                    converged += trace.status == CONVERGED
                    if problem is diag:
                        assert all(trace.alpha.get(row)[1] == 0.0 for row in trace.alpha.rows)
        assert events and diverged and converged  # every way a run ends is exercised
        assert forms == {list, np.ndarray}  # both sides of LIST_MAX_DIM


# every stepper that computes with rule-template kernels, and the vectors it keeps
KERNEL_STEPPERS = {
    "gd": (GradientDescent, {"gamma": 0.1}, ()),
    "heavy_ball": (HeavyBall, {"gamma": 0.1, "p": 0.5}, ("delta",)),
    "nesterov": (NesterovAGD, {"mode": "convex"}, ("x",)),
    "rmsprop": (RMSprop, {"alpha": 0.1, "beta": 0.9}, ("v",)),
    "adam": (Adam, {"alpha": 0.1}, ("m", "v")),
    "csawg": (StepSizePlanner, {"gamma": 0.1, "k": 2},
              ("last_alpha", "buffer.sum1", "buffer.sum2")),
}


class TestPlannerForm:
    """The start point's dimension picks each kernel stepper's form, once."""

    @pytest.mark.parametrize("d", [1, 2, LIST_MAX_DIM, LIST_MAX_DIM + 1, 64])
    def test_constructor_registry_and_config_pick_the_same_form(self, d, monkeypatch):
        w0 = np.linspace(-1.0, 1.0, d)
        started = []
        monkeypatch.setattr("stepplan.harness.run_steps",
                            lambda stepper, *args, **kw: started.append(stepper) or Trace())
        want = list if d <= LIST_MAX_DIM else np.ndarray
        obj = Objective(d, lambda w: 0.0, lambda w: np.linspace(0.5, 1.0, d))
        for name, (cls, params, state) in KERNEL_STEPPERS.items():
            run_experiment(ExperimentConfig(
                problem={"name": "quadratic", "q_diag": [1.0] * d, "w0": w0.tolist()},
                optimizer={"name": name, **params}, budget=EvalBudget(1)))
            for stepper in (cls(w0, **params), make_optimizer(name, w0, params), started.pop()):
                assert type(stepper.point) is want and stepper.point is not w0, name
                w = stepper.w
                assert type(w) is np.ndarray and w.dtype == np.float64 and w is not stepper.point
                assert same_bits(w, w0)
                for _ in range(4):  # csawg with K=2 plans at the fourth step
                    stepper.step(obj)
                assert type(stepper.point) is want, name
                for key in state:
                    assert type(attrgetter(key)(stepper)) is want, (name, key)

    def test_above_the_constant_every_dimension_binds_one_kernel(self):
        obj = Objective(1, lambda w: 0.0, lambda w: np.ones(len(w)))
        for name, (cls, params, _) in KERNEL_STEPPERS.items():
            listed, *arrays = (cls(np.ones(d), **params)
                               for d in (LIST_MAX_DIM, LIST_MAX_DIM + 1, 20000))
            for s in (listed, *arrays):
                s.step(obj)
            kernels = ("_update",)
            if name == "csawg":
                kernels = ("_descend", "_project", "buffer.add_pair", "buffer.alpha")
            for key in kernels:
                kernel = attrgetter(key)
                assert kernel(arrays[0]) is kernel(arrays[1]) is not kernel(listed), (name, key)

    @pytest.mark.parametrize("d", [1, 2, LIST_MAX_DIM, LIST_MAX_DIM + 1])
    def test_the_list_alpha_kernel_calls_no_where(self, d):
        # the list rendering writes where(c, x, y) as (x if c else y); arrays keep np.where
        buf = ExperienceBuffer(2)
        point = [1.0] * d if d <= LIST_MAX_DIM else np.ones(d)
        buf.push(point, point.copy())
        assert ("where" in buf.alpha.__code__.co_names) is (d > LIST_MAX_DIM)

    def test_list_form_rows_hold_the_steps_own_lists(self):
        planner = StepSizePlanner([-1.0, 2.0], gamma=0.0009, k=2)
        obj = quadratic_objective()
        for _ in range(3):
            planner.step(obj)
        assert planner.buffer.ring[0][0] is planner.point  # record 3, no event
        planner.step(obj)
        assert type(planner.last_alpha) is list and type(planner.buffer.sum1) is list

    @pytest.mark.parametrize("d", [2, LIST_MAX_DIM + 1])
    def test_a_reused_gradient_object_writes_the_bytes_of_a_fresh_one(self, tmp_path, d):
        # a gradient callable that overwrites and returns one object of the point's
        # form: the ring must keep each gradient's values, not the object
        q = np.linspace(10.0, 1.0, d).tolist()  # diag(10, 1) at d=2

        def objective(reuse):
            out = [0.0] * d if d <= LIST_MAX_DIM else np.zeros(d)

            def grad(w):
                g = [qi * wi for qi, wi in zip(q, w)]
                if reuse:
                    out[:] = g
                    return out
                return g if isinstance(w, list) else np.array(g)

            return Objective(d, lambda w: sum(0.5 * qi * wi * wi for qi, wi in zip(q, w)), grad,
                             optimum_value=0.0)

        for reuse in (False, True):
            obj = objective(reuse)
            planner = StepSizePlanner(np.ones(d), gamma=0.05, k=3)
            trace = run_steps(planner, obj, EvalBudget(max_iterations=200, error_floor=None),
                              obj.error, record_w=True, record_alpha=True)
            assert len(trace.alpha) > 10
            write_csv(trace, tmp_path / f"{reuse}.csv")
        assert (tmp_path / "True.csv").read_bytes() == (tmp_path / "False.csv").read_bytes()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_list_and_array_buffers_agree_bit_for_bit(self, rng, k, d):
        ws = rng.standard_normal((6 * k, d))
        gs = rng.standard_normal((6 * k, d))
        gs[k:3 * k, -1] = 0.0  # windows whose last component's gradient is zero
        gs[::4, 0] = -0.0
        lists, arrays = ExperienceBuffer(k), ExperienceBuffer(k)
        events = 0
        for w, g in zip(ws, gs):
            fired = lists.push(w.tolist(), g.tolist())
            assert arrays.record(pair(w, g)) is fired
            if not fired:
                continue
            events += 1
            assert type(lists.sum1) is list and type(arrays.sum1) is np.ndarray
            alpha = compute_alpha(lists)
            assert type(alpha) is np.ndarray and alpha.dtype == np.float64
            for got, want in zip((lists.sum1, lists.sum2, alpha), fit(arrays)):
                assert same_bits(got, want)
        assert events == 5
        fresh = ExperienceBuffer(k)
        fresh.push(ws[0].tolist(), gs[0].tolist())
        with pytest.raises(ValueError, match="full"):
            compute_alpha(fresh)


class TestExperienceBuffer:
    def test_fill_order_and_trigger(self):
        buf = ExperienceBuffer(2)
        assert buf.record(pair([1.0], [1.0])) is False
        assert buf.record(pair([2.0], [1.0])) is False
        with pytest.raises(ValueError, match="full"):
            compute_alpha(buf)  # one window recorded, no pair yet
        assert buf.record(pair([3.0], [1.0])) is False
        assert buf.record(pair([4.0], [1.0])) is True
        # records 1, 2 pair with 3, 4: sum1 = 1 * (1 - 3) + 1 * (2 - 4)
        assert buf.sum1[0] == -4.0
        assert compute_alpha(buf)[0] == -4.0 / 2.0

    def test_k1_triggers_every_record_after_first(self):
        buf = ExperienceBuffer(1)
        assert buf.record(pair([1.0], [1.0])) is False
        for v in (2.0, 3.0, 4.0):
            assert buf.record(pair([v], [1.0])) is True

    def test_rotation_cadence(self, rng):
        # triggers land at record counts 2K, 3K, 4K, ...; each event fits
        # only the newest window
        k = 3
        records = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(12)]
        buf = ExperienceBuffer(k)
        triggers, events = [], []
        for n, (w, g) in enumerate(records, 1):
            if buf.record(pair(w, g)):
                triggers.append(n)
                events.append(fit(buf))
        assert triggers == [6, 9, 12]
        for j, stats in enumerate(events):
            fresh = ExperienceBuffer(k)
            fired = [fresh.record(pair(w, g)) for w, g in records[j * k:(j + 2) * k]]
            assert fired == [False] * (2 * k - 1) + [True]
            for got, want in zip(stats, fit(fresh)):
                assert got.tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        buf = ExperienceBuffer(2)
        buf.record(pair([1.0, 2.0], [0.5, 0.5]))
        with pytest.raises(ValueError, match="dimension"):
            buf.record(pair([1.0], [0.5]))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ExperiencePair(w=np.array([1.0]), g=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ExperiencePair(w=np.array([np.nan]), g=np.array([1.0]))


class TestComputeAlpha:
    def test_constant_gradient_gives_k_gamma(self):
        # dyadic constants so the arithmetic is exact
        k, gamma, c = 4, 0.5, 2.0
        buf = ExperienceBuffer(k)
        w = 0.0
        for _ in range(2 * k):
            buf.record(pair([w], [c]))
            w -= gamma * c
        assert compute_alpha(buf)[0] == k * gamma
        assert buf.sum2[0] == k * c * c

    def test_zero_gradient_component(self):
        buf = ExperienceBuffer(2)
        for w in ([1.0, 5.0], [0.9, 5.0], [0.8, 5.0], [0.7, 5.0]):
            buf.record(pair(w, [w[0], 0.0]))
        alpha = compute_alpha(buf)
        assert buf.sum2[1] == 0.0
        assert alpha[1] == 0.0
        assert alpha[0] != 0.0

    def test_k1_worked_example(self):
        buf = ExperienceBuffer(1)
        buf.record(pair([1.0], [1.0]))
        buf.record(pair([0.5], [0.5]))
        alpha = compute_alpha(buf)
        assert buf.sum1[0] == 0.5
        assert buf.sum2[0] == 1.0
        assert alpha[0] == 0.5
        assert 0.5 - alpha[0] * 0.5 == 0.25

    def test_requires_full_buffers(self):
        buf = ExperienceBuffer(2)
        buf.record(pair([1.0], [1.0]))
        with pytest.raises(ValueError, match="full"):
            compute_alpha(buf)

    def test_sum2_nonnegative_and_zero_rule(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            buf = ExperienceBuffer(k)
            mask = rng.integers(0, 2, size=d).astype(bool)  # components forced to zero grad
            for _ in range(2 * k):
                g = rng.standard_normal(d)
                g[mask] = 0.0
                buf.record(pair(rng.standard_normal(d), g))
            alpha = compute_alpha(buf)
            assert np.all(buf.sum2 >= 0.0)
            assert np.all(alpha[buf.sum2 == 0.0] == 0.0)

    def test_matches_pair_sum_loop_bitwise(self, rng):
        # the running sums equal a loop over the K pairs of each window, in
        # pair order, bit for bit, over several consecutive events
        for _ in range(40):
            k = int(rng.integers(1, 7))
            d = int(rng.integers(1, 6))
            events = 5
            ws = rng.standard_normal((k * (events + 1), d))
            gs = rng.standard_normal((k * (events + 1), d))
            gs[:, rng.integers(0, 2, size=d).astype(bool)] = 0.0
            buf = ExperienceBuffer(k)
            fitted = []
            for w, g in zip(ws, gs):
                if buf.record(pair(w, g)):
                    fitted.append(fit(buf))
            assert len(fitted) == events
            for j, stats in enumerate(fitted):
                sum1, sum2 = np.zeros(d), np.zeros(d)
                for s in range(j * k, (j + 1) * k):
                    sum1 += gs[s] * (ws[s] - ws[s + k])
                    sum2 += gs[s] * gs[s]
                for got, want in zip(stats, (sum1, sum2, alpha_from_sums(sum1, sum2))):
                    assert got.tobytes() == want.tobytes()

    def test_same_point_pairs_predict_k_steps_ahead(self):
        # pairs built from (w, f'(w)) at the same point: the fitted step
        # projects exactly to the GD iterate K steps ahead on a 1-d quadratic
        q, gamma, k = 2.0, 0.1, 3
        r = 1.0 - gamma * q
        buf = ExperienceBuffer(k)
        w = 1.0
        for _ in range(2 * k):
            buf.record(pair([w], [q * w]))
            w *= r
        alpha = compute_alpha(buf)
        assert np.isclose(alpha[0], (1.0 - r ** k) / q, rtol=1e-12)
        for start in (0.7, -2.0):
            planned = start - alpha[0] * (q * start)
            assert np.isclose(planned, start * r ** k, rtol=1e-12)


class TestApplyProjection:
    def test_ideal_step_lands_on_target(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            w = rng.standard_normal(d)
            g = rng.standard_normal(d)
            g[g == 0.0] = 1.0
            target = rng.standard_normal(d)
            alpha = ideal_diag_step(w, g, target)
            assert np.allclose(w - alpha * g, target, atol=1e-12)


class TestPlannerConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(gamma=np.inf, k=1),
        dict(gamma=0.1, k=0),
        dict(gamma=0.1, k=1, p=0),
        dict(gamma=0.1, k=1, m=-1),
        dict(gamma=0.1, k=2.5),
        dict(gamma=0.1, k=2, p=True),
        dict(gamma=0.1, k=2, m=1.9),
        dict(gamma=0.1, k=np.float64(2.0)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepSizePlanner([0.0], **kwargs)


class TestCsawgRun:
    def test_event_cost_is_p_times_one_plus_m(self):
        obj = quadratic_objective()
        planner = StepSizePlanner([-1.0, 2.0], gamma=0.0009, k=1, p=5, m=10)
        planner.step(obj)
        assert obj.grad_evals == 1  # no event yet
        planner.step(obj)
        assert obj.grad_evals == 2 + 5 * (1 + 10)  # event: exactly 55 extra
        assert planner.last_alpha is not None

    def test_grad_eval_accounting_exact(self):
        for k, p, m, iters in ((2, 1, 0, 1001), (3, 2, 4, 500), (5, 5, 10, 123)):
            obj = quadratic_objective()
            planner = StepSizePlanner([-1.0, 2.0], gamma=0.0005, k=k, p=p, m=m)
            events = 0
            for _ in range(iters):
                planner.step(obj)
                events += planner.last_alpha is not None
            assert obj.grad_evals == iters + events * p * (1 + m)
            assert events == max(0, iters // k - 1)

    def test_events_fire_at_multiples_of_k(self):
        obj = quadratic_objective()
        planner = StepSizePlanner([-1.0, 2.0], gamma=0.0009, k=4, p=1, m=0)
        event_iters = []
        for it in range(1, 25):
            planner.step(obj)
            if planner.last_alpha is not None:
                event_iters.append(it)
        assert event_iters == [8, 12, 16, 20, 24]

    def test_convex_run_converges_fast(self):
        obj = quadratic_objective()
        trace = run_planner(obj, [-1.0, 2.0], EvalBudget(max_iterations=500, error_floor=1e-8),
                            gamma=0.0009, k=2)
        assert trace.status == CONVERGED
        assert trace.records[-1].iteration < 500
        assert trace.records[-1].error <= 1e-8

    def test_zero_gradient_start_is_fixed_point(self):
        obj = quadratic_objective()
        trace = run_planner(obj, [1.0, 1.0], EvalBudget(max_iterations=20, error_floor=None),
                            gamma=0.0009, k=2, record_w=True)
        for r in trace.records:
            assert np.array_equal(r.w, [1.0, 1.0])
            assert r.error == 0.0
            if r.alpha is not None:
                assert np.array_equal(r.alpha, [0.0, 0.0])  # sum2 = 0 guard

    def test_negative_alpha_occurs_on_rosenbrock(self):
        obj = make_objective(RosenbrockProblem())
        trace = run_planner(obj, [-1.0, 0.0], EvalBudget(max_iterations=4000, error_floor=None),
                            gamma=0.001, k=2)
        planner_alphas = [r.alpha for r in trace.records if r.alpha is not None]
        assert any(a[1] < 0.0 for a in planner_alphas)

    def test_divergence_truncates(self):
        obj = make_objective(RosenbrockProblem())
        # gamma far above the stability limit
        trace = run_planner(obj, [-1.0, 0.0], EvalBudget(max_iterations=5000), gamma=0.02, k=2)
        assert trace.status == DIVERGED
        assert len(trace.records) < 5000
        cap_ok = (not np.isfinite(trace.records[-1].error)) or trace.records[-1].error > 1e12
        assert cap_ok
        for r in trace.records[:-1]:
            assert np.isfinite(r.error) and r.error <= 1e12

    @pytest.mark.parametrize("gamma, m, grads, golden", [
        # K=1: the event at iteration 2 fits alpha = 1 and completes; the
        # one at iteration 3 fits alpha = 2 and its projection overflows
        (1.0, 0, [1.0, 1.0, 1.0, 1.0, 1e308],
         "iteration,grad_evals,error,w_0,alpha_0\n"
         "1,1,0.5,-1.0,\n2,3,4.5,-3.0,1.0\n3,5,inf,-3.0,\n"),
        # M=1: the second event's projection stays finite, its corrective
        # step overflows
        (2.0, 1, [1.0] * 6 + [1e308],
         "iteration,grad_evals,error,w_0,alpha_0\n"
         "1,1,2.0,-2.0,\n2,4,32.0,-8.0,2.0\n3,7,inf,-8.0,\n"),
    ])
    def test_divergence_inside_planning_event(self, tmp_path, gamma, m, grads, golden):
        script = iter(grads)
        obj = Objective(1, lambda w: 0.5 * float(w[0]) ** 2, lambda w: np.array([next(script)]),
                        optimum_value=0.0)
        trace = run_steps(StepSizePlanner([0.0], gamma=gamma, k=1, p=1, m=m), obj,
                          EvalBudget(max_iterations=10), obj.error, record_w=True, record_alpha=True)
        assert trace.status == DIVERGED
        last = trace.records[-1]
        assert [r.error for r in trace.records].count(np.inf) == 1 and last.error == np.inf
        assert last.grad_evals == len(grads) == trace.total_grad_evals
        assert last.alpha is None
        assert np.array_equal(last.w, trace.records[-2].w)
        write_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == golden.encode()

    def test_divergence_inside_a_later_event(self, tmp_path):
        # K=2, P=2: the event at iteration 4 fits alpha = 1 and completes; the
        # one at iteration 6 overflows in its first projection.  Only those two
        # rows' counts are not the previous row's plus one.
        script = iter([1.0] * 6 + [2.0, 3.0, 1e308])
        obj = Objective(1, lambda w: 0.5 * float(w[0]) ** 2, lambda w: np.array([next(script)]),
                        optimum_value=0.0)
        trace = run_steps(StepSizePlanner([0.0], gamma=0.5, k=2, p=2), obj,
                          EvalBudget(max_iterations=10), obj.error, record_w=True, record_alpha=True)
        assert trace.status == DIVERGED and trace.total_grad_evals == 9
        assert list(trace.grad_evals.rows) == [3, 5]
        write_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == (
            b"iteration,grad_evals,error,w_0,alpha_0\n"
            b"1,1,0.125,-0.5,\n2,2,0.5,-1.0,\n3,3,1.125,-1.5,\n4,6,8.0,-4.0,1.0\n"
            b"5,7,12.5,-5.0,\n6,9,inf,-5.0,\n")

    def test_budget_exhaustion_partial_trace(self):
        obj = quadratic_objective()
        trace = run_planner(obj, [-1.0, 2.0],
                            EvalBudget(max_iterations=10 ** 6, max_grad_evals=50, error_floor=None),
                            gamma=0.0009, k=2)
        assert trace.status == BUDGET_EXHAUSTED
        assert trace.total_grad_evals >= 50
        # overshoot bounded by one event plus the main-loop evaluation
        assert trace.total_grad_evals <= 50 + 1 + 1

    def test_planned_iterates_not_recorded(self):
        # with K=4, 12 iterations hold exactly 12 records -> 2 events; a
        # third event would need planned iterates to have entered the buffer
        obj = quadratic_objective()
        planner = StepSizePlanner([-1.0, 2.0], gamma=0.0009, k=4, p=3, m=2)
        events = 0
        for _ in range(12):
            planner.step(obj)
            events += planner.last_alpha is not None
        assert events == 2


class TestRepeatedPlanningDivergence:
    """Repeated planning (P=2, M=0) diverges on a dense d=8 quadratic at
    condition number 1e3, where P=1 converges; the divergence is data."""

    def _run(self, p):
        rng = np.random.default_rng(0)
        q, _, lipschitz = random_spd(rng, 8, 1e3)
        w0 = rng.standard_normal(8)
        cfg = ExperimentConfig(
            problem={"name": "quadratic", "q": q.tolist(), "w0": w0.tolist()},
            optimizer={"name": "csawg", "gamma": 0.9 / lipschitz, "k": 2, "p": p, "m": 0},
            budget=EvalBudget(max_iterations=200000, max_grad_evals=200000, error_floor=1e-12))
        return run_experiment(cfg)

    def test_two_projections_per_event_diverge(self):
        trace = self._run(2)
        assert trace.status == DIVERGED
        assert len(trace) == 24 and trace.total_grad_evals == 46
        assert trace.error[-1] > ERROR_CAP

    def test_one_projection_per_event_converges(self):
        trace = self._run(1)
        assert trace.status == CONVERGED
        # the dense gradient's Q @ w rounds differently in OpenBLAS's SkylakeX
        # kernel (5327) and in its Haswell (AVX2) one, which Zen shares (5372)
        assert trace.total_grad_evals in (5327, 5372)
