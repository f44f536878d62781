import numpy as np
import pytest

from stepplan.core import EvalBudget, Objective
from stepplan.planner import ExperienceBuffer, ExperiencePair, StepSizePlanner, compute_alpha
from stepplan.theory import ideal_diag_step
from stepplan.tracing import BUDGET_EXHAUSTED, CONVERGED, DIVERGED, run_steps, write_csv

from conftest import make_objective, quadratic_objective
from stepplan.problems import RosenbrockProblem


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
            buf.rotate()

    def test_rotation_cadence(self, rng):
        # triggers land at record counts 2K, 3K, 4K, ...; after a rotation
        # the next event fits only the newer window
        k = 3
        records = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(12)]
        buf = ExperienceBuffer(k)
        triggers, events = [], []
        for n, (w, g) in enumerate(records, 1):
            if buf.record(pair(w, g)):
                triggers.append(n)
                events.append(fit(buf))
                buf.rotate()
        assert triggers == [6, 9, 12]
        for j, stats in enumerate(events):
            fresh = ExperienceBuffer(k)
            fired = [fresh.record(pair(w, g)) for w, g in records[j * k:(j + 2) * k]]
            assert fired == [False] * (2 * k - 1) + [True]
            for got, want in zip(stats, fit(fresh)):
                assert got.tobytes() == want.tobytes()

    def test_mid_planning_state_rejected(self):
        buf = ExperienceBuffer(1)
        buf.record(pair([1.0], [1.0]))
        buf.record(pair([2.0], [1.0]))
        with pytest.raises(ValueError, match="mid-planning"):
            buf.record(pair([3.0], [1.0]))

    def test_dimension_mismatch(self):
        buf = ExperienceBuffer(2)
        buf.record(pair([1.0, 2.0], [0.5, 0.5]))
        with pytest.raises(ValueError, match="dimension"):
            buf.record(pair([1.0], [0.5]))

    def test_rotate_requires_full(self):
        buf = ExperienceBuffer(2)
        with pytest.raises(ValueError):
            buf.rotate()

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
                    buf.rotate()
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
        assert planner.planning_events == 1

    def test_grad_eval_accounting_exact(self):
        for k, p, m, iters in ((2, 1, 0, 1001), (3, 2, 4, 500), (5, 5, 10, 123)):
            obj = quadratic_objective()
            planner = StepSizePlanner([-1.0, 2.0], gamma=0.0005, k=k, p=p, m=m)
            for _ in range(iters):
                planner.step(obj)
            assert obj.grad_evals == iters + planner.planning_events * p * (1 + m)
            expected_events = max(0, iters // k - 1)
            assert planner.planning_events == expected_events

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
        for _ in range(12):
            planner.step(obj)
        assert planner.planning_events == 2
