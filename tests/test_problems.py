import numpy as np
import pytest

from stepplan.core import finite_diff_grad
from stepplan.problems import (LmsStream, QuadraticProblem, RosenbrockProblem,
                               make_problem, random_spd)

from conftest import make_objective, same_bits


class TestQuadratic:
    def test_at_optimum(self):
        p = QuadraticProblem(np.diag([1000.0, 1.0]), [1.0, 1.0])
        f, g = p.value([1.0, 1.0]), p.gradient([1.0, 1.0])
        assert f == 0.0
        assert np.array_equal(g, [0.0, 0.0])

    def test_canonical_instance(self):
        p = QuadraticProblem(np.diag([1000.0, 1.0]), [1.0, 1.0])
        f, g = p.value([-1.0, 2.0]), p.gradient([-1.0, 2.0])
        assert f == 2000.5
        assert np.array_equal(g, [-2000.0, 1.0])

    def test_identity_q(self):
        p = QuadraticProblem(np.eye(2), [0.0, 0.0])
        f, g = p.value([3.0, 4.0]), p.gradient([3.0, 4.0])
        assert f == 12.5
        assert np.array_equal(g, [3.0, 4.0])

    def test_dimension_mismatch(self):
        # the start point is checked once, at the registry boundary
        with pytest.raises(ValueError, match="dimension"):
            make_problem("quadratic", {"q_diag": [1.0, 2.0], "w0": [1.0, 2.0, 3.0]})

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem([[1.0, 0.1], [0.0, 1.0]], [0.0, 0.0])

    @pytest.mark.parametrize("params, field", [
        ({"q": [[1.0, True], [True, 1.0]]}, "q"),
        ({"q": [["1", "0"], ["0", "1"]]}, "q"),
        ({"q": {}}, "q"),
        ({"q_diag": [1.0, "2"]}, "q_diag"),
        ({"q_diag": [1.0, 2.0], "w_star": [0.0, False]}, "w_star"),
    ])
    def test_matrix_and_vector_entries_must_be_numbers(self, params, field):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            make_problem("quadratic", params)
        if "q" in params:
            with pytest.raises(ValueError, match="Q must be a number"):
                QuadraticProblem(params["q"], [0.0, 0.0])

    @pytest.mark.parametrize("call, message", [
        (lambda: QuadraticProblem(np.diag([1.0, np.inf])), "Q contains non-finite entries"),
        (lambda: random_spd(np.random.default_rng(0), 0, 10.0), "dim must be >= 1"),
        (lambda: random_spd(np.random.default_rng(0), 2, 0.5), "cond must be >= 1"),
    ], ids=["numpy-q-inf", "spd-dim-0", "spd-cond-below-1"])
    def test_bad_matrix_input_is_a_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticProblem([[1.0, 0.0], [0.0, -2.0]], [0.0, 0.0])

    def test_extreme_eigenvalues_match_eigensolve(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 8))
            cond = 10.0 ** rng.uniform(0, 4)
            q, mu, L = random_spd(rng, d, cond)
            p = QuadraticProblem(q, np.zeros(d))
            eigs = np.linalg.eigvalsh(q)
            assert abs(p.mu - eigs[0]) <= 1e-8 * abs(eigs[0])
            assert abs(p.L - eigs[-1]) <= 1e-8 * abs(eigs[-1])
            # the generator promises the prescribed extremes
            assert abs(mu - eigs[0]) <= 1e-8 * abs(eigs[0])
            assert abs(L - eigs[-1]) <= 1e-8 * abs(eigs[-1])

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 11))
            q, _, _ = random_spd(rng, d, 100.0)
            p = QuadraticProblem(q, rng.standard_normal(d))
            obj = make_objective(p)
            for _ in range(10):
                w = rng.standard_normal(d) * 3.0
                g = p.gradient(w)
                fd = finite_diff_grad(obj, w)
                assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_nonnegative_with_zero_only_at_optimum(self, rng):
        q, _, _ = random_spd(rng, 4, 50.0)
        p = QuadraticProblem(q, rng.standard_normal(4))
        for _ in range(50):
            w = p.w_star + rng.standard_normal(4)
            assert p.value(w) > 0.0
        assert p.value(p.w_star) == 0.0


class TestRosenbrock:
    def test_global_minimum(self):
        p = RosenbrockProblem()
        f, g = p.value([1.0, 1.0]), p.gradient([1.0, 1.0])
        assert f == 0.0
        assert np.array_equal(g, [0.0, 0.0])

    def test_start_point(self):
        p = RosenbrockProblem()
        f, g = p.value([-1.0, 0.0]), p.gradient([-1.0, 0.0])
        assert f == 104.0
        assert np.array_equal(g, [-404.0, -200.0])

    def test_origin(self):
        p = RosenbrockProblem()
        f, g = p.value([0.0, 0.0]), p.gradient([0.0, 0.0])
        assert f == 1.0
        assert np.array_equal(g, [-2.0, 0.0])

    def test_dimension(self):
        # the start point is checked once, at the registry boundary
        with pytest.raises(ValueError, match="dimension"):
            make_problem("rosenbrock", {"w0": [1.0, 1.0, 1.0]})

    @pytest.mark.parametrize("w", [[1.0], [1.0, 1.0, 1.0]])
    def test_methods_reject_other_lengths(self, w):
        p = RosenbrockProblem()
        for method in (p.value, p.gradient):
            with pytest.raises(ValueError):
                method(w)

    @pytest.mark.parametrize("w", [[1e200, 0.0], [0.0, 1e200], [-1e160, 1.0]])
    def test_overflowing_value_is_inf(self, w):
        p = RosenbrockProblem()
        assert p.value(w) == np.inf and p.value(np.array(w)) == np.inf

    def test_positive_away_from_minimum(self, rng):
        p = RosenbrockProblem()
        for _ in range(100):
            w = rng.uniform(-2, 2, size=2)
            if not np.array_equal(w, [1.0, 1.0]):
                assert p.value(w) > 0.0

    def test_list_and_array_input_give_the_same_bits(self, rng):
        # the elementwise steppers hand in their iterate as a list of floats,
        # the others a float64 array, which Objective.grad hands back as one
        p = RosenbrockProblem()
        obj = make_objective(p)
        for w in rng.uniform(-3, 3, size=(200, 2)):
            as_list = w.tolist()
            assert same_bits(p.value(as_list), p.value(w))
            g_list, g_array = obj.grad(as_list), obj.grad(w)
            assert type(g_list) is list and all(type(x) is float for x in g_list)
            assert type(g_array) is np.ndarray and g_array.dtype == np.float64
            assert same_bits(g_list, g_array)

    def test_gradient_matches_finite_differences(self, rng):
        p = RosenbrockProblem()
        obj = make_objective(p)
        for _ in range(100):
            w = rng.uniform(-2, 2, size=2)
            assert np.allclose(p.gradient(w), finite_diff_grad(obj, w),
                               rtol=1e-6, atol=1e-6)


class TestLmsStream:
    def test_noiseless_inner_product(self):
        s = LmsStream([1.0, -1.0], seed=3)
        for _ in range(20):
            x, y = s.next()
            assert y == float(np.dot([1.0, -1.0], x))

    def test_specific_inner_product(self):
        # contract check at a hand point: w* = (1, -1), x = (2, 3) -> -1
        assert float(np.dot([1.0, -1.0], [2.0, 3.0])) == -1.0

    def test_seed_determinism(self):
        a = LmsStream([0.5, 2.0], noise_std=0.3, seed=42)
        b = LmsStream([0.5, 2.0], noise_std=0.3, seed=42)
        for _ in range(50):
            xa, ya = a.next()
            xb, yb = b.next()
            assert np.array_equal(xa, xb)
            assert ya == yb

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            LmsStream([0.5, 2.0], seed=-1)

    def test_noise_mean_law_of_large_numbers(self):
        w_star = np.array([1.0, -1.0])
        s = LmsStream(w_star, noise_std=0.1, seed=7)
        resid = []
        for _ in range(10 ** 5):
            x, y = s.next()
            resid.append(y - w_star @ x)
        assert abs(np.mean(resid)) <= 0.01

    def test_population_error_matches_monte_carlo(self):
        w_star = np.array([1.0, -2.0])
        s = LmsStream(w_star, seed=11)
        w = np.array([0.5, 0.0])
        total = 0.0
        n = 10 ** 5
        for _ in range(n):
            x, y = s.next()
            total += 0.5 * (y - w @ x) ** 2
        assert abs(total / n - s.population_error(w)) <= 0.01 * s.population_error(w) + 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            LmsStream([1.0], low=1.0, high=-1.0)
        with pytest.raises(ValueError):
            LmsStream([1.0], noise_std=-0.1)


class TestRegistry:
    def test_names(self):
        p, w0 = make_problem("quadratic", {"q_diag": [1000.0, 1.0], "w_star": [1.0, 1.0]})
        assert isinstance(p, QuadraticProblem)
        p, w0 = make_problem("rosenbrock", {})
        assert isinstance(p, RosenbrockProblem)
        assert np.array_equal(w0, [-1.0, 0.0])
        p, w0 = make_problem("lms", {"w_star": [1.0, 2.0], "seed": 5})
        assert isinstance(p, LmsStream)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            make_problem("himmelblau", {})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="invalid parameters for 'rosenbrock'.*'steepness'"):
            make_problem("rosenbrock", {"steepness": 2.0})

    @pytest.mark.parametrize("q", [5, 5.0])
    def test_scalar_q_is_a_value_error(self, q):
        # the default w_star is sized from q only after q is checked
        with pytest.raises(ValueError, match=r"Q must be square, got shape \(\)"):
            make_problem("quadratic", {"q": q})

    @pytest.mark.parametrize("params", [{}, {"q": [[1.0]], "q_diag": [1.0]}, {"w_star": [0.0]}])
    def test_quadratic_needs_exactly_one_matrix(self, params):
        with pytest.raises(ValueError, match="exactly one of 'q' and 'q_diag'"):
            make_problem("quadratic", params)

    def test_w_star_defaults_to_the_origin(self):
        p, _ = make_problem("quadratic", {"q": [[2.0, 0.0], [0.0, 1.0]]})
        assert np.array_equal(p.w_star, [0.0, 0.0])

    def test_w0_override(self):
        _, w0 = make_problem("rosenbrock", {"w0": [0.5, 0.5]})
        assert np.array_equal(w0, [0.5, 0.5])
