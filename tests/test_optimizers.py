import hashlib
import math

import numpy as np
import pytest

from stepplan.core import DivergenceError, EvalBudget, Objective, StationaryPointError, _Stepper
from stepplan.harness import ExperimentConfig, run_experiment
from stepplan.optimizers import (Adam, GradientDescent, HeavyBall, Idbd,
                                 IdbdScalar, L4, LossGrad, NesterovAGD,
                                 PolyakStep, RMSprop, make_optimizer)
from stepplan.core import LIST_MAX_DIM
from stepplan.problems import (LmsStream, QuadraticProblem, RosenbrockProblem, make_problem,
                               random_spd)
from stepplan.tracing import DIVERGED, run_steps, write_csv

from conftest import (elementwise_reference, hd_reference, make_objective,
                      quadratic_objective, same_bits, scalar_objective)


def constant_objective(value=5.0, dim=2):
    return Objective(dim, lambda w: value, lambda w: np.zeros(dim))


def linear_objective(slope):
    slope = np.asarray(slope, dtype=float)
    return Objective(slope.size, lambda w: float(slope @ w), lambda w: slope.copy())


def run_trajectory(stepper, obj, steps):
    out = [stepper.w.copy()]
    for _ in range(steps):
        stepper.step(obj)
        out.append(stepper.w.copy())
    return np.array(out)


class TestGradientDescent:
    def test_hand_recurrence(self):
        s = GradientDescent([1.0], gamma=0.1)
        s.step(scalar_objective())
        assert s.w[0] == 0.9

    def test_zero_step(self):
        s = GradientDescent([1.0, -2.0], gamma=0.0)
        s.step(quadratic_objective())
        assert np.array_equal(s.w, [1.0, -2.0])

    def test_oscillation_admitted(self):
        s = GradientDescent([1.0], gamma=2.0)
        s.step(scalar_objective())
        assert s.w[0] == -1.0  # divergent oscillation passes through

    def test_one_grad_eval_per_step(self):
        obj = quadratic_objective()
        s = GradientDescent([0.0, 0.0], gamma=0.001)
        for k in range(1, 8):
            s.step(obj)
            assert obj.grad_evals == k
        assert obj.func_evals == 0


class TestHeavyBall:
    def test_hand_recurrence(self):
        obj = scalar_objective()
        s = HeavyBall([1.0], gamma=0.1, p=0.5)
        s.step(obj)
        assert np.isclose(s.w[0], 0.9)
        s.step(obj)
        assert np.isclose(s.w[0], 0.76)  # 0.9 - 0.09 + 0.5 * (-0.1)

    def test_p_zero_matches_gd_exactly(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 3))
            q, _, _ = random_spd(rng, d, 10.0 ** rng.uniform(0, 2))
            p = QuadraticProblem(q, rng.standard_normal(d))
            w0 = rng.standard_normal(d)
            gamma = 0.5 / p.L
            t_hb = run_trajectory(HeavyBall(w0, gamma, p=0.0), make_objective(p), 50)
            t_gd = run_trajectory(GradientDescent(w0, gamma), make_objective(p), 50)
            assert np.array_equal(t_hb, t_gd)

    def test_zero_gradient_fixed_point(self):
        s = HeavyBall([3.0, -1.0], gamma=0.1, p=0.9)
        obj = constant_objective()
        for _ in range(10):
            s.step(obj)
        assert np.array_equal(s.w, [3.0, -1.0])

    def test_momentum_range(self):
        with pytest.raises(ValueError):
            HeavyBall([0.0], gamma=0.1, p=1.0)


class TestNesterov:
    def test_mu_equals_L_matches_gd(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 3))
            scale = 10.0 ** rng.uniform(-1, 1)
            q = np.eye(d) * scale
            p = QuadraticProblem(q, rng.standard_normal(d))
            w0 = rng.standard_normal(d)
            t_n = run_trajectory(NesterovAGD(w0, "strongly_convex", mu=scale, L=scale),
                                 make_objective(p), 50)
            t_g = run_trajectory(GradientDescent(w0, 1.0 / scale), make_objective(p), 50)
            assert np.max(np.abs(t_n - t_g)) <= 1e-12

    def test_convex_t_sequence(self):
        s = NesterovAGD([1.0], "convex", L=1.0)
        s.step(scalar_objective())
        assert np.isclose(s.t, (1.0 + np.sqrt(5.0)) / 2.0)
        assert np.isclose(s.t, 1.618034, atol=1e-6)

    def test_convex_first_momentum_is_zero(self):
        # t0 = 1 makes gamma_0 = 0: first step is plain GD on x0 = w0
        s = NesterovAGD([2.0], "convex", L=1.0)
        s.step(scalar_objective())
        assert s.w[0] == 0.0  # 2 - (1/1)*2
        assert np.array_equal(s.x, s.w)

    def test_empirical_rate_beats_gd_rate(self):
        # diag(1000, 1): momentum schedule should track ~(1 - sqrt(mu/L))
        obj = quadratic_objective()
        s = NesterovAGD([-1.0, 2.0], "strongly_convex", mu=1.0, L=1000.0)
        errs = []
        for _ in range(2000):
            s.step(obj)
            errs.append(obj.error(s.w))
        rate = (errs[1999] / errs[99]) ** (1.0 / 1900.0)
        assert rate <= (1.0 - np.sqrt(1.0 / 1000.0)) + 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            NesterovAGD([0.0], "strongly_convex", mu=2.0, L=1.0)
        with pytest.raises(ValueError):
            NesterovAGD([0.0], "sorta_convex")


class TestPolyak:
    def test_hand_recurrence(self):
        obj = scalar_objective()
        s = PolyakStep([2.0], f_star=0.0)
        s.step(obj)
        assert s.alpha == 0.5
        assert s.w[0] == 1.0
        s.step(obj)
        assert s.alpha == 0.5
        assert s.w[0] == 0.5

    def test_converged_noop(self):
        s = PolyakStep([0.0], f_star=0.0)
        s.step(scalar_objective())
        assert s.w[0] == 0.0
        assert s.alpha == 0.0

    def test_rosenbrock_step_size(self):
        from conftest import rosenbrock_objective
        s = PolyakStep([-1.0, 0.0], f_star=0.0)
        s.step(rosenbrock_objective())
        assert np.isclose(s.alpha, 104.0 / (404.0 ** 2 + 200.0 ** 2), rtol=1e-12)
        assert np.isclose(s.alpha, 0.000512, atol=5e-7)

    def test_stationary_point_anomaly(self):
        # f = (w^2 - 1)^2 has a stationary maximum at 0 with f = 1 > f*
        obj = Objective(1, lambda w: (w[0] ** 2 - 1.0) ** 2,
                        lambda w: np.array([4.0 * w[0] * (w[0] ** 2 - 1.0)]))
        s = PolyakStep([0.0], f_star=0.0)
        with pytest.raises(StationaryPointError):
            s.step(obj)

    def test_range_on_strongly_convex_quadratics(self, rng):
        # alpha in [1/(2L), 1/(2mu)] away from the optimum
        for _ in range(50):
            d = int(rng.integers(1, 6))
            q, mu, L = random_spd(rng, d, 10.0 ** rng.uniform(0, 3))
            p = QuadraticProblem(q, rng.standard_normal(d))
            obj = make_objective(p)
            s = PolyakStep(p.w_star + rng.standard_normal(d), f_star=0.0)
            for _ in range(5):
                s.step(obj)
                assert 1.0 / (2.0 * L) - 1e-15 <= s.alpha <= 1.0 / (2.0 * mu) + 1e-15


class TestL4:
    def test_matches_polyak_in_gradient_mode(self):
        s = L4([2.0], f_star=0.0, eps=1e-12)
        s.step(scalar_objective())
        assert abs(s.alpha - 0.5) <= 1e-12
        assert abs(s.w[0] - 1.0) <= 1e-11

    def test_converged_noop(self):
        s = L4([0.0], f_star=0.0)
        s.step(scalar_objective())
        assert s.alpha == 0.0
        assert s.w[0] == 0.0

    def test_ascent_direction_gives_negative_alpha(self):
        s = L4([1.0], f_star=0.0, direction="momentum", p=0.9)
        s.v = np.array([-2.0])  # prime the smoothed direction against the gradient
        s.step(scalar_objective())
        # v <- 0.9*(-2) + 1 = -1.1, g.v = -1.1 < 0 -> alpha < 0
        assert s.alpha < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            L4([0.0], eps=0.0)
        with pytest.raises(ValueError):
            L4([0.0], direction="sideways")


class TestLossGrad:
    def test_linear_function_increases(self):
        s = LossGrad([0.0, 0.0], alpha0=0.5, rho=1.1)
        s.step(linear_objective([3.0, -1.0]))
        assert np.isclose(s.alpha, 0.55)  # e = 0 exactly -> r = 0 < 1/2

    def test_hand_increase(self):
        s = LossGrad([1.0], alpha0=0.5, rho=1.1)
        s.step(scalar_objective())
        # e = f(0.5) - (0.5 - 0.5) = 0.125, r = 0.25 < 1/2 -> increase
        assert np.isclose(s.alpha, 0.55)
        assert np.isclose(s.w[0], 1.0 - 0.55)

    def test_boundary_decreases(self):
        s = LossGrad([1.0], alpha0=1.0, rho=1.1)
        s.step(scalar_objective())
        # e = f(0) - (0.5 - 1) = 0.5, r = 0.5 -> decrease
        assert np.isclose(s.alpha, 1.0 / 1.1)

    def test_zero_gradient_noop(self):
        s = LossGrad([1.0, 1.0], alpha0=0.3)
        s.step(constant_objective())
        assert s.alpha == 0.3
        assert np.array_equal(s.w, [1.0, 1.0])

    def test_underflowing_model_decrease_noop(self):
        # g.g = 1e-320 is nonzero, but alpha * g.g underflows to 0.0
        obj = linear_objective([1e-160])
        s = LossGrad([2.0], alpha0=1e-5)
        s.step(obj)
        assert s.alpha == 1e-5
        assert np.array_equal(s.w, [2.0])
        assert obj.grad_evals == 1 and obj.func_evals == 0

    def test_eval_accounting(self):
        obj = scalar_objective()
        s = LossGrad([1.0], alpha0=0.5)
        s.step(obj)
        assert obj.grad_evals == 1
        assert obj.func_evals == 2  # f(w) and the probe

    def test_validation(self):
        with pytest.raises(ValueError):
            LossGrad([0.0], alpha0=0.0)
        with pytest.raises(ValueError):
            LossGrad([0.0], alpha0=0.1, rho=1.0)


class TestRMSprop:
    def test_first_update_magnitude(self):
        s = RMSprop([0.0], alpha=0.01, beta=0.9, eps=1e-8)
        s.step(linear_objective([1.0]))
        # v = 0.1, update = 0.01 / sqrt(0.1 + 1e-8)
        assert abs(abs(s.w[0]) - 0.0316228) <= 1e-6

    def test_zero_gradient_decays_v(self):
        s = RMSprop([1.0], alpha=0.01, beta=0.9)
        s.v = [0.4]
        s.step(constant_objective(dim=1))
        assert s.w[0] == 1.0
        assert np.isclose(s.v[0], 0.36)

    def test_constant_gradient_limit(self):
        slope = 2.0
        s = RMSprop([0.0], alpha=0.01, beta=0.9, eps=1e-8)
        obj = linear_objective([slope])
        prev = s.w[0]
        for _ in range(2000):
            prev = s.w[0]
            s.step(obj)
        final_step = abs(s.w[0] - prev)
        expected = 0.01 * slope / np.sqrt(slope ** 2 + 1e-8)
        assert np.isclose(final_step, expected, rtol=1e-6)


class TestAdam:
    def test_first_step_magnitude(self):
        for g0 in ([5.0], [0.01, -3.0]):
            s = Adam(np.zeros(len(g0)), alpha=0.1)
            s.step(linear_objective(g0))
            assert np.allclose(np.abs(s.w), 0.1, rtol=1e-4)

    def test_zero_gradient_noop_forever(self):
        s = Adam([1.0, -1.0], alpha=0.1)
        obj = constant_objective()
        for _ in range(20):
            s.step(obj)
        assert np.array_equal(s.w, [1.0, -1.0])

    def test_collapses_to_sign_gd(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 3))
            q, _, _ = random_spd(rng, d, 10.0)
            p = QuadraticProblem(q, rng.standard_normal(d))
            w0 = rng.standard_normal(d)
            alpha = 0.05
            adam = Adam(w0, alpha=alpha, beta1=0.0, beta2=0.0, eps=1e-300)
            obj = make_objective(p)
            w_sign = w0.copy()
            for _ in range(50):
                g = p.gradient(w_sign)
                adam.step(obj)
                w_sign = w_sign - alpha * np.sign(g)
                assert np.max(np.abs(adam.w - w_sign)) <= 1e-12


def _random_params(name: str, rng) -> dict:
    """Finite hyperparameters for ``name``, negative step-sizes included."""
    u = rng.uniform
    if name == "gd":
        return {"gamma": u(-0.05, 0.3)}
    if name == "heavy_ball":
        return {"gamma": u(-0.05, 0.2), "p": u(0.0, 0.99)}
    if name == "nesterov":
        mu = u(0.1, 1.0)
        return {"mode": str(rng.choice(["convex", "strongly_convex"])), "mu": mu,
                "L": mu + u(0.0, 10.0), "step": None if rng.random() < 0.5 else u(-0.05, 0.3)}
    if name == "rmsprop":
        return {"alpha": u(-0.1, 0.1), "beta": u(0.0, 0.999), "eps": 10.0 ** u(-10, -2)}
    return {"alpha": u(-0.1, 0.1), "beta1": u(0.0, 0.999), "beta2": u(0.0, 0.9999),
            "eps": 10.0 ** u(-10, -2)}


def _compare_with_reference(name: str, params: dict, d: int, rng, steps: int = 200):
    """Step ``name`` and its numpy reference side by side on a random quadratic.

    Asserts the same bytes in the iterate and every state vector after each
    step, one gradient evaluation per step, and a float64 array iterate.
    Returns the step that raised ``DivergenceError`` in both, or None.
    """
    q, _, _ = random_spd(rng, d, 10.0 ** rng.uniform(0, 3), scale=rng.uniform(0.1, 2.0))
    c = rng.standard_normal(d)
    w0 = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)

    def grad_fn(w):
        return q @ (w - c)

    obj = Objective(d, lambda w: 0.0, grad_fn)
    stepper = make_optimizer(name, w0, params)
    ref = elementwise_reference(name, grad_fn, w0, params)
    last_w = w0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            try:
                expected = next(ref)
            except DivergenceError:
                with pytest.raises(DivergenceError, match=f"after step {k}$"):
                    stepper.step(obj)
                assert same_bits(stepper.w, last_w) and stepper.k == k - 1
                assert obj.grad_evals == k
                return k
            stepper.step(obj)
            assert obj.grad_evals == k
            assert type(stepper.w) is np.ndarray and stepper.w.dtype == np.float64
            for key, value in expected.items():
                assert same_bits(getattr(stepper, key), value), (name, k, key)
            last_w = expected["w"]
    return None


ELEMENTWISE = ("gd", "heavy_ball", "nesterov", "rmsprop", "adam")


class TestElementwiseBitIdentity:
    """The kernel steppers reproduce the whole-array numpy rules byte for byte, in both forms."""

    @pytest.mark.parametrize("d", [*range(1, 9), 16, LIST_MAX_DIM, LIST_MAX_DIM + 1, 64])
    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_random_runs(self, name, d):
        rng = np.random.default_rng([ELEMENTWISE.index(name), d])
        for _ in range(3):
            _compare_with_reference(name, _random_params(name, rng), d, rng)

    @pytest.mark.parametrize("name,params", [
        ("gd", {"gamma": -100.0}),
        ("heavy_ball", {"gamma": -10.0, "p": 0.5}),
        ("nesterov", {"mode": "convex", "mu": 0.0, "L": 1.0, "step": -10.0}),
        # ascent until g*g overflows: v turns inf, then 0 * inf makes it nan
        ("rmsprop", {"alpha": -1e200, "beta": 0.0, "eps": 1e300}),
        ("adam", {"alpha": -1e200, "beta1": 0.9, "beta2": 0.0, "eps": 1e150}),
    ])
    def test_overflow_diverges_at_the_same_step(self, name, params):
        diverged_at = _compare_with_reference(name, params, 3, np.random.default_rng(7))
        assert diverged_at is not None and diverged_at > 1


def _rosenbrock_float_errors(name: str, params: dict, iterations: int) -> list:
    """Each row's error of ``name`` on Rosenbrock from (-1, 0), written straight
    from the update rule on two Python floats."""
    def grad(w1, w2):
        return (2.0 * (w1 - 1.0) - 400.0 * w1 * (w2 - w1 * w1), 200.0 * (w2 - w1 * w1))

    w1, w2 = -1.0, 0.0
    d1 = d2 = m1 = m2 = v1 = v2 = 0.0  # heavy ball's delta, Adam's m, the v's
    x1, x2, t = w1, w2, 1.0  # Nesterov's lookahead point
    errors = []
    for k in range(1, iterations + 1):
        if name == "gd":
            g1, g2 = grad(w1, w2)
            w1, w2 = w1 - params["gamma"] * g1, w2 - params["gamma"] * g2
        elif name == "heavy_ball":
            gamma, p = params["gamma"], params["p"]
            g1, g2 = grad(w1, w2)
            n1, n2 = w1 - gamma * g1 + p * d1, w2 - gamma * g2 + p * d2
            d1, d2 = n1 - w1, n2 - w2
            w1, w2 = n1, n2
        elif name == "nesterov":  # convex mode
            g1, g2 = grad(x1, x2)
            n1, n2 = x1 - params["step"] * g1, x2 - params["step"] * g2
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            gamma_k = (t - 1.0) / t_next
            t = t_next
            x1, x2 = n1 + gamma_k * (n1 - w1), n2 + gamma_k * (n2 - w2)
            w1, w2 = n1, n2
        elif name == "rmsprop":
            alpha, beta, eps = params["alpha"], params["beta"], params["eps"]
            g1, g2 = grad(w1, w2)
            v1, v2 = beta * v1 + (1.0 - beta) * g1 * g1, beta * v2 + (1.0 - beta) * g2 * g2
            w1, w2 = w1 - alpha * g1 / math.sqrt(v1 + eps), w2 - alpha * g2 / math.sqrt(v2 + eps)
        else:  # adam
            alpha, b1, b2, eps = params["alpha"], params["beta1"], params["beta2"], params["eps"]
            g1, g2 = grad(w1, w2)
            m1, m2 = b1 * m1 + (1.0 - b1) * g1, b1 * m2 + (1.0 - b1) * g2
            v1, v2 = b2 * v1 + (1.0 - b2) * g1 * g1, b2 * v2 + (1.0 - b2) * g2 * g2
            c1, c2 = 1.0 - b1 ** k, 1.0 - b2 ** k
            w1 = w1 - alpha * (m1 / c1) / (math.sqrt(v1 / c2) + eps)
            w2 = w2 - alpha * (m2 / c1) / (math.sqrt(v2 / c2) + eps)
        errors.append((w1 - 1.0) ** 2 + 100.0 * (w2 - w1 * w1) ** 2)
    return errors


# every registry name with parameters that step on sphere_objective without stopping
REGISTRY = {
    "gd": {"gamma": 0.1}, "heavy_ball": {"gamma": 0.1, "p": 0.5}, "nesterov": {"mode": "convex"},
    "polyak": {}, "l4": {}, "lossgrad": {"alpha0": 0.1}, "rmsprop": {"alpha": 0.1, "beta": 0.9},
    "adam": {"alpha": 0.1}, "hd": {"eta": 1e-3, "alpha0": 0.1},
    "idbd1": {"eta": 1e-3, "lam": 0.5, "alpha0": 0.1}, "idbd": {"eta": 0.01, "beta0": -2.0},
    "csawg": {"gamma": 0.1, "k": 2},
}


def sphere_objective(d):
    """1/2 ||w||^2, whose callables take either form of iterate."""
    return Objective(d, lambda w: 0.5 * float(np.dot(w, w)), lambda w: np.array(w, dtype=float))


class TestListPath:
    """The elementwise steppers run on lists of floats from the problem to the
    trace: each error column equals a float loop written from the equations."""

    STEPPERS = [
        ("gd", {"gamma": 0.001}),
        ("heavy_ball", {"gamma": 0.0015, "p": 0.9}),
        ("nesterov", {"mode": "convex", "L": 1000.0, "step": 0.0005}),
        ("rmsprop", {"alpha": 0.001, "beta": 0.9, "eps": 1e-8}),
        ("adam", {"alpha": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}),
    ]

    @pytest.mark.parametrize("name,params", STEPPERS)
    def test_rosenbrock_errors_match_the_equations(self, name, params):
        cfg = ExperimentConfig(problem={"name": "rosenbrock"},
                               optimizer={"name": name, **params},
                               budget=EvalBudget(max_iterations=2000, error_floor=None))
        trace = run_experiment(cfg)
        assert len(trace) == 2000 and trace.total_grad_evals == 2000
        assert same_bits(trace.error, _rosenbrock_float_errors(name, params, 2000))

    def test_w_is_a_fresh_float64_array(self):
        # every stepper keeps its iterate in point; w is a copy on all of them
        for name, d in [(name, 2) for name in REGISTRY] + [("csawg", LIST_MAX_DIM + 1)]:
            s = make_optimizer(name, ([-1.0, 0.5] * d)[:d], REGISTRY[name])
            assert isinstance(s, _Stepper), name
            for _ in range(5):  # csawg with K=2 plans at the fourth step
                if name == "idbd":
                    s.step_sample(np.array([1.0, 2.0]), 0.5)
                else:
                    s.step(sphere_objective(d))
            point = np.array(s.point, dtype=float)
            w = s.w
            assert type(w) is np.ndarray and w.dtype == np.float64, name
            assert w is not s.w and w is not s.point and same_bits(w, point), name
            w[:] = 99.0
            assert same_bits(s.point, point) and same_bits(s.w, point), name

    @pytest.mark.parametrize("name,params", STEPPERS)
    def test_array_gradient_callable_on_a_list_raises(self, name, params):
        # 2 * w on a list repeats it; without the length check the update
        # would read the first half and step along a wrong gradient
        obj = Objective(2, lambda w: 0.0, lambda w: 2 * w)
        s = make_optimizer(name, [1.0, -2.0], params)
        with pytest.raises(ValueError, match="gradient has 4 entries for a point of 2"):
            s.step(obj)


class TestGradientShape:
    """One shape rule for the gradient in both forms: one-dimensional, with one
    entry per component of the iterate."""

    @pytest.mark.parametrize("name", ["polyak", "l4", "lossgrad", "hd", "csawg", *ELEMENTWISE])
    def test_one_entry_gradient_raises(self, name):
        # a one-entry array would broadcast and move every component by it
        d = LIST_MAX_DIM + 1  # the array form of every stepper
        obj = Objective(d, lambda w: 1.0, lambda w: np.array([1.0]))
        s = make_optimizer(name, np.ones(d), REGISTRY[name])
        with pytest.raises(ValueError, match=f"gradient has 1 entries for a point of {d}$"):
            s.step(obj)
        assert s.k == 0 and same_bits(s.point, np.ones(d))

    def test_scalar_gradient_on_a_list_raises(self):
        s = make_optimizer("gd", [1.0, -2.0], REGISTRY["gd"])
        with pytest.raises(ValueError, match=r"gradient has shape \(\) for a point of 2$"):
            s.step(Objective(2, lambda w: 1.0, lambda w: 3.0))


class TestNumpyStepperBytes:
    """The steppers that compute on float64 arrays, which no preset runs, write
    the bytes they wrote when each kept its own ``w`` array: sha256 of a
    100-row ``record_w`` CSV on a fixed 3-d quadratic, measured on x86-64.
    Their ``g @ v`` and ``Q @ w`` round differently in OpenBLAS's SkylakeX
    kernel and in its Haswell (AVX2) one, which Zen shares, so each case
    accepts the hash measured under each."""

    @pytest.mark.parametrize("name,params,golden", [
        ("polyak", {},
         {"SkylakeX": "f19e4bb10e88c5a7fc04e007266caeb26a4a195363da3a0bfc551e555f6b4ab9",
           "Haswell": "31eb378ef173938786cd6132e5a46035eadaf75c10730595c2d6f7658dc4443d"}),
        ("l4", {},
         {"SkylakeX": "2efabbea817facb649abd5ed02351bf7e566789a8d41eaeb4638d3f809dffb2f",
           "Haswell": "c856a7b082b25eb4d901151b94636cb7da52705e7380d6781e56fe31b53a1a2c"}),
        ("l4", {"direction": "momentum", "p": 0.5},
         {"SkylakeX": "484a3631c138cca7e72cdd0e706d40cd72ea4263e526b9f4d65d07c66fd00a84",
           "Haswell": "4886e476e8ef3af947bbfcf58777b8b77f9ee3f728a9276f000b3a306e88e678"}),
        ("lossgrad", {"alpha0": 0.05},
         {"SkylakeX": "f892f33481c831d3e7d9f7d753b2f8c3c38909c8922af1083e1e22c68af60a56",
           "Haswell": "29367893182579475661d9ebea1208be793d3e268832a7ce0dafaba94ea17110"}),
        ("hd", {"eta": 1e-3, "alpha0": 0.05},
         {"SkylakeX": "5529bf72951e69d19c22c842c8918abe77d1b2bcb6af782e4e56a5f61999c1c7",
           "Haswell": "f04290a89031f6a120d54485d8ad9959fd2a0a2d2ea0fbcd58f94b448ac0c6fe"}),
        ("idbd1", {"eta": 1e-3, "lam": 0.5, "alpha0": 0.05},
         {"SkylakeX": "dc258ecc7b7f791ff5dd41b2228c6a3612fbeb2604213b1880a62f7aeb4a4197",
           "Haswell": "8f348a9f2863349cdf672edaf2bb401256857ff7398f24da69640b56be88287c"}),
    ], ids=["polyak", "l4-gradient", "l4-momentum", "lossgrad", "hd", "idbd1"])
    def test_record_w_csv_golden_bytes(self, tmp_path, name, params, golden):
        q = [[4.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]]
        obj = make_objective(QuadraticProblem(q, [1.0, -2.0, 0.5]))
        s = make_optimizer(name, [3.0, 1.0, -1.0], params)
        trace = run_steps(s, obj, EvalBudget(max_iterations=100, error_floor=None), obj.error,
                          record_w=True)
        assert len(trace) == trace.total_grad_evals == 100
        write_csv(trace, tmp_path / "t.csv")
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() in golden.values()


class TestListStepperBytes:
    """The steppers that compute on lists of floats write the bytes they wrote
    when each step was a comprehension per vector: sha256 of a 300-row
    ``record_w`` and ``record_alpha`` CSV on Rosenbrock from (-1, 0).  The runs
    are float arithmetic with no numpy kernel, so the bytes hold on any platform."""

    @pytest.mark.parametrize("name,params,golden", [
        ("gd", {"gamma": 0.001},
         "d703340c1b8941bb4b5d84249e466506738bfa2093137a680944cf8adeb259f8"),
        ("heavy_ball", {"gamma": 0.0015, "p": 0.9},
         "d09ccf2698ae150171fedb072c5d8b2608e41ad697676e23f18670b55635635b"),
        ("nesterov", {"mode": "convex", "L": 1000.0, "step": 0.0005},
         "fbb49680256fb722607cf9f1fa76b8cbe842e09311947fe4460b66a18b67295e"),
        ("nesterov", {"mode": "strongly_convex", "mu": 0.5, "L": 1000.0, "step": 0.0005},
         "e0d6d1f92e1d15c7b99c397aee5c72a349efb47f9d780700521892389f6f87de"),
        ("rmsprop", {"alpha": 0.001, "beta": 0.9, "eps": 1e-8},
         "67c2418a3e252edd557813b7f689044ab609a7ba814dcb68abbff53b390cb576"),
        ("adam", {"alpha": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
         "a21fbc44e93bd7dbdc88338d83515e1e371c417ca6ace8565424b95f0091a40d"),
        ("csawg", {"gamma": 0.001, "k": 2, "p": 5, "m": 10},
         "87e93f01f3f39484593a214d2e443b81535369127b2e0ef9044ec711424d5754"),
    ], ids=["gd", "heavy_ball", "nesterov-convex", "nesterov-strongly_convex", "rmsprop",
            "adam", "csawg"])
    def test_rosenbrock_csv_golden_bytes(self, tmp_path, name, params, golden):
        obj = make_objective(RosenbrockProblem())
        s = make_optimizer(name, [-1.0, 0.0], params)
        trace = run_steps(s, obj, EvalBudget(max_iterations=300, error_floor=None), obj.error,
                          record_w=True, record_alpha=True)
        assert len(trace) == 300 and len(trace.alpha) == (149 if name == "csawg" else 0)
        write_csv(trace, tmp_path / "t.csv")
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == golden


class TestHyperGradient:
    def test_hand_recurrence(self):
        obj = scalar_objective()
        s = make_optimizer("hd", [1.0], {"eta": 0.01, "alpha0": 0.1})
        s.step(obj)
        assert s.alpha == 0.1  # no previous gradient yet
        assert np.isclose(s.w[0], 0.9)
        s.step(obj)
        assert np.isclose(s.alpha, 0.109)  # 0.1 + 0.01 * 0.9 * 1.0
        assert np.isclose(s.w[0], 0.9 - 0.109 * 0.9)

    def test_sign_property_exact(self, rng):
        q, _, _ = random_spd(rng, 2, 10.0)
        p = QuadraticProblem(q, np.zeros(2))
        obj = make_objective(p)
        w0 = rng.standard_normal(2)
        s = make_optimizer("hd", w0, {"eta": 1e-7, "alpha0": 1e-3})
        ref = hd_reference(p.gradient, w0, 1e-7, 1e-3)
        g_prev = np.zeros(2)
        for _ in range(200):
            prev_alpha = s.alpha
            s.step(obj)
            w, alpha, g = next(ref)
            assert same_bits(s.w, w) and same_bits(s.alpha, alpha)
            assert np.sign(s.alpha - prev_alpha) == np.sign(float(g @ g_prev))
            g_prev = g


class TestIdbdScalar:
    def test_lambda_zero_reduces_to_hd(self, rng):
        # hd and idbd1(lam=0) both follow the Baydin et al. update bit for bit
        q, _, _ = random_spd(rng, 2, 10.0)
        p = QuadraticProblem(q, np.array([1.0, -1.0]))
        w0 = rng.standard_normal(2)
        hd = make_optimizer("hd", w0, {"eta": 1e-8, "alpha0": 0.01})
        scalar = IdbdScalar(w0, eta=1e-8, lam=0.0, alpha0=0.01)
        ref = hd_reference(p.gradient, w0, 1e-8, 0.01)
        obj_a, obj_b = make_objective(p), make_objective(p)
        for _ in range(1000):
            hd.step(obj_a)
            scalar.step(obj_b)
            w, alpha, _ = next(ref)
            assert same_bits(hd.w, w) and same_bits(hd.alpha, alpha)
            assert same_bits(scalar.w, w) and same_bits(scalar.alpha, alpha)

    def test_hand_recurrence_with_trace(self):
        obj = scalar_objective()
        s = IdbdScalar([1.0], eta=0.01, lam=0.5, alpha0=0.1)
        s.step(obj)
        assert s.alpha == 0.1  # trace starts at zero
        assert np.isclose(s.w[0], 0.9)
        assert np.isclose(s.h[0], 1.0)
        s.step(obj)
        assert np.isclose(s.alpha, 0.109)  # 0.1 + 0.01 * 0.9 * 1.0
        assert np.isclose(s.h[0], 0.5 * 1.0 + 0.9)

    def test_zero_gradient_keeps_alpha_decays_trace(self):
        s = IdbdScalar([1.0], eta=0.1, lam=0.5, alpha0=0.2)
        s.h = np.array([2.0])
        s.step(constant_objective(dim=1))
        assert s.alpha == 0.2
        assert s.h[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            IdbdScalar([0.0], eta=0.1, lam=1.0, alpha0=0.1)


class TestNonFiniteStepSize:
    """A scalar step-size that turns non-finite ends the run as a diverged row."""

    @pytest.mark.parametrize("name, params, curvature, w0, golden", [
        # f(w) - f* overflows at the start, so the first step-size is inf
        ("l4", {"f_star": -1e308}, 0.01, 1.3e155,
         "iteration,grad_evals,error,w_0\n1,1,inf,1.3e+155\n"),
        ("l4", {"f_star": -1e308, "direction": "momentum"}, 0.01, 1.3e155,
         "iteration,grad_evals,error,w_0\n1,1,inf,1.3e+155\n"),
        # alpha = 0.5 + 1e308 * g.h overflows at step 2, once the trace holds g
        ("idbd1", {"eta": 1e308, "lam": 0.5, "alpha0": 0.5}, 1.0, 10.0,
         "iteration,grad_evals,error,w_0\n1,1,12.5,5.0\n2,2,inf,5.0\n"),
        ("hd", {"eta": 1e308, "alpha0": 0.5}, 1.0, 10.0,
         "iteration,grad_evals,error,w_0\n1,1,12.5,5.0\n2,2,inf,5.0\n"),
    ])
    def test_diverged_row(self, tmp_path, name, params, curvature, w0, golden):
        obj = make_objective(QuadraticProblem([[curvature]], [0.0]))
        s = make_optimizer(name, [w0], params)
        trace = run_steps(s, obj, EvalBudget(max_iterations=10), obj.error,
                          record_w=True, record_alpha=True)
        assert trace.status == DIVERGED
        assert list(trace.error).count(np.inf) == 1 and trace.error[-1] == np.inf
        assert s.k == len(trace) - 1 and s.alpha == np.inf
        assert np.array_equal(trace.w.get(len(trace) - 1), s.w)
        if name != "l4":
            assert np.array_equal(s.h, [10.0])  # the trace of step 1, not of the failed step
        write_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == golden.encode()


class TestIdbd:
    def test_zero_error_decays_trace_only(self):
        s = Idbd([1.0, 0.0], eta=0.1, beta0=np.log(0.1))
        s.h = np.array([1.0, 1.0])
        x = np.array([1.0, 0.5])
        y = float(s.w @ x)  # delta = 0
        beta_before = s.beta.copy()
        s.step_sample(x, y)
        assert np.array_equal(s.beta, beta_before)
        assert np.array_equal(s.w, [1.0, 0.0])
        decay = np.maximum(0.0, 1.0 - 0.1 * x * x)
        assert np.allclose(s.h, decay)

    def test_hand_recurrence(self):
        s = Idbd([0.0], eta=0.01, beta0=np.log(0.1))
        s.step_sample(np.array([1.0]), 1.0)  # delta = 1, h = 0 -> beta unchanged
        assert np.isclose(s.beta[0], np.log(0.1))
        assert np.isclose(s.w[0], 0.1)
        assert np.isclose(s.h[0], 0.1)  # 0.9 * 0 + 0.1

    def test_relu_reset(self):
        # alpha * x^2 = 1 * 4 >= 1: decay clamps to zero, trace resets
        s = Idbd([0.0], eta=0.0, beta0=0.0)
        s.h = np.array([123.0])
        s.step_sample(np.array([2.0]), 1.0)  # delta = 1
        assert np.isclose(s.h[0], 1.0 * 1.0 * 2.0)

    def test_alpha_always_positive(self, rng):
        s = Idbd(rng.standard_normal(3), eta=0.05, beta0=np.log(0.05))
        w_star = np.array([1.0, -2.0, 0.5])
        for _ in range(500):
            x = rng.uniform(-1, 1, size=3)
            s.step_sample(x, float(w_star @ x))
            assert np.all(s.alpha > 0.0)
            decay = np.maximum(0.0, 1.0 - s.alpha * x * x)
            assert np.all((decay >= 0.0) & (decay <= 1.0))

    def test_divergent_sample_commits_nothing(self):
        s = Idbd([0.5, -0.5], eta=0.0, beta0=710.0)  # alpha = exp(710) = inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite iterate"):
                s.step_sample(np.array([1.0, 0.5]), 2.0)
        assert np.array_equal(s.w, [0.5, -0.5])
        assert np.array_equal(s.beta, [710.0, 710.0])
        assert np.array_equal(s.h, [0.0, 0.0])
        assert s.k == 0

    def test_step_size_of_minus_inf_commits(self):
        # beta has no check of its own: at -inf alpha is 0 and w stays finite
        s = Idbd([0.0], eta=-1e308, beta0=0.0)
        s.step_sample(np.array([1.0]), 1.0)  # w = 1, h = 1
        s.step_sample(np.array([1.0]), 3.0)  # beta = -1e308 * 2 = -inf
        assert s.beta.tolist() == [-np.inf]
        assert s.w.tolist() == [1.0] and s.k == 2

    def test_step_draws_one_counted_sample(self):
        stream = LmsStream([1.0, -1.0], seed=4)
        twin = LmsStream([1.0, -1.0], seed=4)
        a = Idbd([0.0, 0.0], eta=0.01, beta0=-2.0)
        b = Idbd([0.0, 0.0], eta=0.01, beta0=-2.0)
        for n in range(1, 6):
            a.step(stream)
            b.step_sample(*twin.next())
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.last_alpha, np.exp(a.beta))
            assert stream.grad_evals == n and stream.func_evals == 0


class TestStepAccounting:
    # every objective-driven stepper: exactly one gradient evaluation per step
    CASES = [
        ("gd", {"gamma": 0.001}, 0),
        ("heavy_ball", {"gamma": 0.001, "p": 0.8}, 0),
        ("nesterov", {"mode": "strongly_convex", "mu": 1.0, "L": 1000.0}, 0),
        ("polyak", {"f_star": 0.0}, 1),
        ("l4", {"f_star": 0.0}, 1),
        ("lossgrad", {"alpha0": 1e-4}, 2),
        ("rmsprop", {"alpha": 0.001, "beta": 0.9}, 0),
        ("adam", {"alpha": 0.001}, 0),
        ("hd", {"eta": 1e-6, "alpha0": 1e-4}, 0),
        ("idbd1", {"eta": 1e-6, "lam": 0.5, "alpha0": 1e-4}, 0),
    ]

    @pytest.mark.parametrize("name,params,func_cost", CASES)
    def test_counter_deltas(self, name, params, func_cost):
        obj = quadratic_objective()
        s = make_optimizer(name, [-1.0, 2.0], params)
        for k in range(1, 6):
            s.step(obj)
            assert obj.grad_evals == k
            assert obj.func_evals == func_cost * k
            assert s.k == k


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("bfgs", [0.0], {})

    def test_invalid_parameter(self):
        # one registry rule for optimizers and problems: an unknown or missing
        # parameter is a ValueError that names the entry and the parameter
        def optimizer(name, params):
            return make_optimizer(name, [0.0], params)

        for build, name, params, bad in [
            (optimizer, "gd", {"gamma": 0.1, "turbo": True}, "turbo"),
            (optimizer, "csawg", {"gamma": 0.1}, "k"),
            (make_problem, "quadratic", {"q_diag": [1.0], "turbo": True}, "turbo"),
            (make_problem, "rosenbrock", {"turbo": True}, "turbo"),
            (make_problem, "lms", {"w_star": [1.0], "turbo": True}, "turbo"),
            (make_problem, "lms", {"noise_std": 0.1}, "w_star"),
        ]:
            with pytest.raises(ValueError, match=f"invalid parameters for '{name}': .*'{bad}'"):
                build(name, params)

    def test_divergence_error(self):
        s = GradientDescent([1e308], gamma=1e308)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            s.step(scalar_objective())


class TestHyperparameterValidation:
    # every float hyperparameter of every family, at valid base values
    FAMILIES = {
        "gd": {"gamma": 0.001},
        "heavy_ball": {"gamma": 0.001, "p": 0.8},
        "nesterov": {"mode": "strongly_convex", "mu": 1.0, "L": 1000.0, "step": 0.001},
        "polyak": {"f_star": 0.0},
        "l4": {"f_star": 0.0, "eps": 1e-12, "p": 0.9},
        "lossgrad": {"alpha0": 1e-4, "rho": 1.1},
        "rmsprop": {"alpha": 0.001, "beta": 0.9, "eps": 1e-8},
        "adam": {"alpha": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
        "hd": {"eta": 1e-6, "alpha0": 1e-4},
        "idbd1": {"eta": 1e-6, "lam": 0.5, "alpha0": 1e-4},
        "idbd": {"eta": 0.01, "beta0": -3.0},
        "csawg": {"gamma": 0.001, "k": 2},
    }
    CASES = [
        pytest.param(name, key, bad, id=f"{name}-{key}={bad}")
        for name, params in FAMILIES.items()
        for key, value in params.items() if isinstance(value, float)
        for bad in (float("nan"), float("inf"))
    ]

    @pytest.mark.parametrize("name,key,bad", CASES)
    def test_non_finite_rejected(self, name, key, bad):
        with pytest.raises(ValueError, match="finite"):
            make_optimizer(name, [-1.0, 2.0], dict(self.FAMILIES[name], **{key: bad}))

    @pytest.mark.parametrize("name, params, message", [
        ("nesterov", {"mode": "convex", "L": 0.0}, "L must be positive"),
        ("rmsprop", {"alpha": 0.001, "beta": 1.0}, r"beta must be in \[0, 1\)"),
        ("rmsprop", {"alpha": 0.001, "beta": 0.9, "eps": 0.0}, "eps must be positive"),
        ("adam", {"alpha": 0.001, "beta2": 1.0}, r"beta1, beta2 must be in \[0, 1\)"),
        ("adam", {"alpha": 0.001, "eps": -1e-8}, "eps must be positive"),
    ], ids=["nesterov-L", "rmsprop-beta", "rmsprop-eps", "adam-beta2", "adam-eps"])
    def test_out_of_range_rejected(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            make_optimizer(name, [-1.0, 2.0], params)

    @pytest.mark.parametrize("name,params", [
        ("gd", {"gamma": -0.1}),
        ("heavy_ball", {"gamma": -0.1, "p": 0.5}),
        ("rmsprop", {"alpha": -1.0, "beta": 0.9}),
        ("adam", {"alpha": -1.0}),
        ("hd", {"eta": -1e-6, "alpha0": -1e-4}),
        ("idbd1", {"eta": -1e-6, "lam": 0.5, "alpha0": -1e-4}),
        ("csawg", {"gamma": -0.001, "k": 2}),
    ])
    def test_negative_step_sizes_accepted(self, name, params):
        s = make_optimizer(name, [-1.0, 2.0], params)
        s.step(quadratic_objective())
        assert np.all(np.isfinite(s.w))
