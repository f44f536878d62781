import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepplan.core import (EvalBudget, Objective, _count, _finite, _positive, _rate, _unrolled,
                           all_finite, as_vector, finite_diff_grad)
from stepplan.harness import ExperimentConfig, speedup_at_budget
from stepplan.optimizers import (Adam, HeavyBall, IdbdScalar, L4, LossGrad, NesterovAGD,
                                 RMSprop)
from stepplan.planner import ExperienceBuffer, ExperiencePair, StepSizePlanner
from stepplan.problems import LmsStream, QuadraticProblem, make_problem, random_spd
from stepplan.theory import verify_theorems

from conftest import rosenbrock_objective, scalar_objective


class TestAsVector:
    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])

    @pytest.mark.parametrize("depth", [33, 64, 100])
    def test_rejects_nesting_beyond_numpys_dimensions(self, depth):
        # numpy iterates at most 32 dimensions and builds at most 64
        x = [1.0]
        for _ in range(depth - 1):
            x = [x]
        with pytest.raises(ValueError, match="w0"):
            as_vector(x, name="w0")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_checks_dim(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            as_vector([1.0, 2.0], dim=3)

    @pytest.mark.parametrize("x", [[True, False], [1.0, True], [1, np.bool_(True)],
                                   np.array([True, False]), ["1", "2"], [1.0, "x"],
                                   np.array(["1.0"]), {}, [1.0, {}], {"a": 1.0}, [1.0, None],
                                   [1.0, 1j], "12", [[1.0], [2.0, 3.0]]])
    def test_rejects_entries_that_are_not_real_numbers(self, x):
        with pytest.raises(ValueError, match="w0 must be a number"):
            as_vector(x, name="w0")

    def test_rejects_an_integer_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="w0 must be finite"):
            as_vector([1, 10 ** 400], name="w0")

    @pytest.mark.parametrize("x", [[1, 2], (1.0, 2), [np.int64(1), np.float32(2.0)],
                                   np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32)])
    def test_accepts_ints_and_numpy_reals(self, x):
        v = as_vector(x)
        assert v.dtype == np.float64 and v.tolist() == [1.0, 2.0]

    def test_float_array_passes_as_it_is(self):
        x = np.array([1.0, 2.0])
        assert as_vector(x) is x


edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308]),
)


class TestEntryRule:
    """One bad entry raises the same message whether it comes in a list or in a
    float64 array: ``core._real_array`` checks both."""

    ENTRY_POINTS = {
        "as_vector": (lambda x: as_vector(x, name="v"), "vector", "v"),
        "QuadraticProblem": (QuadraticProblem, "matrix", "Q"),
        "quadratic-q": (lambda x: make_problem("quadratic", {"q": x}), "matrix", "q"),
        "quadratic-q_diag": (lambda x: make_problem("quadratic", {"q_diag": x}), "vector",
                             "q_diag"),
        "quadratic-w0": (lambda x: make_problem("quadratic", {"q_diag": [1.0, 1.0], "w0": x}),
                         "vector", "w0"),
        "LmsStream": (LmsStream, "vector", "w_star"),
        "Objective": (lambda x: Objective(2, sum, list, optimum_point=x), "vector",
                      "optimum_point"),
        "finite_diff_grad": (lambda x: finite_diff_grad(Objective(2, sum, list), x), "vector", "w"),
        "ExperiencePair-w": (lambda x: ExperiencePair(w=x, g=[1.0, 1.0]), "vector", "w"),
        "ExperiencePair-g": (lambda x: ExperiencePair(w=[1.0, 1.0], g=x), "vector", "g"),
    }

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_a_list_and_an_array_say_the_same(self, entry, bad):
        build, kind, name = self.ENTRY_POINTS[entry]
        x = [[1.0, 0.0], [0.0, bad]] if kind == "matrix" else [1.0, bad]
        messages = []
        for form in (x, np.array(x)):
            with pytest.raises(ValueError) as info:
                build(form)
            messages.append(str(info.value))
        assert messages == [f"{name} must be finite, got {bad!r}"] * 2


class TestAllFinite:
    @given(st.lists(edge_floats, min_size=1, max_size=64),
           st.lists(st.tuples(st.integers(0, 63),
                              st.sampled_from([np.inf, -np.inf, np.nan])), max_size=3))
    def test_matches_numpy(self, values, injected):
        for i, bad in injected:
            values[i % len(values)] = bad
        assert all_finite(values) == bool(np.isfinite(values).all())

    def test_overflowing_sum_of_finite_entries(self):
        assert all_finite([1e308, 1e308])

    def test_infinities_of_both_signs(self):
        assert not all_finite([np.inf, -np.inf])


class TestObjective:
    def test_counters_increment_by_one(self):
        obj = scalar_objective()
        w = np.array([2.0])
        for expected in range(1, 6):
            obj.grad(w)
            assert obj.grad_evals == expected
        assert obj.func_evals == 0
        obj.value(w)
        assert obj.func_evals == 1
        assert obj.grad_evals == 5

    def test_error_uses_uncounted_path(self):
        obj = scalar_objective()
        assert obj.error(np.array([2.0])) == 2.0
        assert obj.func_evals == 0

    def test_gradient_vanishes_at_optimum(self):
        for obj in (scalar_objective(), rosenbrock_objective()):
            g = obj.grad_fn(obj.optimum_point)
            assert np.linalg.norm(g) <= 1e-8

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            Objective(0, lambda w: 0.0, lambda w: w)

    @pytest.mark.parametrize("returns", ["list", "array"])
    def test_grad_kind_follows_the_input(self, returns):
        # a list in gives a list of floats out, anything else a float64 array;
        # the callable's result is converted only when it is of the other kind
        out = {"list": [1.5, -2.0], "array": np.array([1.5, -2.0])}[returns]
        obj = Objective(2, lambda w: 0.0, lambda w: out)
        g = obj.grad([0.0, 0.0])
        assert type(g) is list and g == [1.5, -2.0] and all(type(x) is float for x in g)
        assert (g is out) == (returns == "list")
        for w in (np.zeros(2), (0.0, 0.0)):
            g = obj.grad(w)
            assert type(g) is np.ndarray and g.dtype == np.float64
            assert np.array_equal(g, [1.5, -2.0])
            assert (g is out) == (returns == "array")
        assert obj.grad_evals == 3

    @pytest.mark.parametrize("grad_fn", [lambda w: np.zeros(3), lambda w: [0.0]])
    def test_grad_of_another_length_on_a_list_raises(self, grad_fn):
        # an array or a list result; test_optimizers runs 2 * w through each stepper
        obj = Objective(2, lambda w: 0.0, grad_fn)
        with pytest.raises(ValueError, match="entries for a point of 2"):
            obj.grad([1.0, -2.0])

    @pytest.mark.parametrize("w", [[1.0, -2.0], np.array([1.0, -2.0])], ids=["list", "array"])
    @pytest.mark.parametrize("grad_fn, shape", [
        (lambda w: np.zeros(1), "1 entries"), (lambda w: [0.0, 0.0, 0.0], "3 entries"),
        (lambda w: 3.0, r"shape \(\)"), (lambda w: np.zeros((2, 1)), r"shape \(2, 1\)"),
    ], ids=["one-entry", "three-entries", "scalar", "column"])
    def test_one_shape_rule_for_both_forms(self, w, grad_fn, shape):
        obj = Objective(2, lambda w: 0.0, grad_fn)
        with pytest.raises(ValueError, match=f"^gradient has {shape} for a point of 2$"):
            obj.grad(w)
        assert obj.grad_evals == 1


class TestFiniteDiff:
    def test_1d_quadratic(self):
        obj = scalar_objective()
        g = finite_diff_grad(obj, np.array([3.0]), h=1e-5)
        assert abs(g[0] - 3.0) / 3.0 <= 1e-9

    def test_constant_function(self):
        obj = Objective(3, lambda w: 7.5, lambda w: np.zeros(3))
        g = finite_diff_grad(obj, np.array([0.3, -2.0, 5.0]))
        assert np.array_equal(g, np.zeros(3))

    def test_rosenbrock_point(self):
        g = finite_diff_grad(rosenbrock_objective(), np.array([-1.0, 0.0]), h=1e-6)
        assert np.allclose(g, [-404.0, -200.0], rtol=1e-6)

    def test_counters_untouched(self):
        obj = rosenbrock_objective()
        finite_diff_grad(obj, np.array([0.5, 0.5]))
        assert obj.grad_evals == 0
        assert obj.func_evals == 0

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad(scalar_objective(), np.array([1.0]), h=0.0)

    def test_non_finite_probe(self):
        obj = Objective(1, lambda w: float("nan"), lambda w: w)
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(obj, np.array([1.0]))


class TestEvalBudget:
    def test_defaults(self):
        b = EvalBudget(max_iterations=10)
        assert b.max_grad_evals is None
        assert b.error_floor == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(max_iterations=-1),
        dict(max_iterations=10, max_grad_evals=0),
        dict(max_iterations=10, error_floor=-1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EvalBudget(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(max_iterations=2.5),
        dict(max_iterations=10.0),
        dict(max_iterations=True),
        dict(max_iterations="10"),
        dict(max_iterations=10, max_grad_evals=2.5),
        dict(max_iterations=10, max_grad_evals=True),
        dict(max_iterations=10, error_floor=float("nan")),
        dict(max_iterations=10, error_floor="x"),
        dict(max_iterations=10, error_floor=True),
        dict(max_iterations=10, error_floor=np.bool_(False)),
        dict(max_iterations=10, error_floor=-10 ** 400),
    ])
    def test_counts_are_integers_and_floor_is_a_number(self, kwargs):
        with pytest.raises(ValueError):
            EvalBudget(**kwargs)

    @pytest.mark.parametrize("floor", [0, 1, np.float64(1e-12), np.int64(2)])
    def test_floor_is_stored_as_a_float(self, floor):
        b = EvalBudget(max_iterations=1, error_floor=floor)
        assert type(b.error_floor) is float and b.error_floor == floor

    def test_floor_beyond_the_float_range_is_inf(self):
        assert EvalBudget(max_iterations=1, error_floor=10 ** 400).error_floor == float("inf")

    def test_numpy_integers_become_ints(self):
        b = EvalBudget(max_iterations=np.int64(7), max_grad_evals=np.int32(9))
        assert (b.max_iterations, b.max_grad_evals) == (7, 9)
        assert type(b.max_iterations) is int and type(b.max_grad_evals) is int


class TestFinite:
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.001", "x", None, [1.0],
                                       1j])
    def test_rejects_non_real_values(self, value):
        with pytest.raises(ValueError, match="gamma must be a number"):
            _finite("gamma", value)

    @pytest.mark.parametrize("value", [0, -3, 0.5, np.float64(1e-3), np.float32(0.25),
                                       np.int64(2)])
    def test_accepts_ints_and_numpy_reals_as_floats(self, value):
        out = _finite("gamma", value)
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400])
    def test_rejects_integers_beyond_the_float_range(self, value):
        with pytest.raises(ValueError, match="gamma must be finite"):
            _finite("gamma", value)


def _spd(dim=2, cond=10.0):
    return random_spd(np.random.default_rng(0), dim, cond)


class TestBoundRules:
    """``_count(name, value, least)``, ``_positive`` and ``_rate``: each call site
    violated once, and values of the wrong type or not finite."""

    SITES = {
        # _count(..., least)
        "budget-max_iterations": (lambda: EvalBudget(max_iterations=-1),
                                  "max_iterations must be >= 0, got -1"),
        "budget-max_grad_evals": (lambda: EvalBudget(max_iterations=1, max_grad_evals=0),
                                  "max_grad_evals must be >= 1, got 0"),
        "objective-dimension": (lambda: Objective(0, abs, abs), "dimension must be >= 1, got 0"),
        "buffer-K": (lambda: ExperienceBuffer(0), "K must be >= 1, got 0"),
        "planner-P": (lambda: StepSizePlanner([0.0], 0.1, k=1, p=0), "P must be >= 1, got 0"),
        "planner-M": (lambda: StepSizePlanner([0.0], 0.1, k=1, m=-1), "M must be >= 0, got -1"),
        "speedup-grad_evals": (lambda: speedup_at_budget(None, None, 0),
                               "grad_evals must be >= 1, got 0"),
        "verify-trials": (lambda: verify_theorems(0), "trials must be >= 1, got 0"),
        "verify-seed": (lambda: verify_theorems(1, seed=-1), "seed must be >= 0, got -1"),
        "config-seed": (lambda: ExperimentConfig({"name": "rosenbrock"}, {"name": "gd"},
                                                 EvalBudget(1), seed=-2),
                        "seed must be >= 0, got -2"),
        "lms-seed": (lambda: LmsStream([1.0], seed=-3), "seed must be >= 0, got -3"),
        "spd-dim": (lambda: _spd(dim=0), "dim must be >= 1, got 0"),
        # _positive
        "finite_diff-h": (lambda: finite_diff_grad(Objective(1, abs, abs), [1.0], h=0.0),
                          "h must be positive, got 0.0"),
        "nesterov-L": (lambda: NesterovAGD([0.0], "convex", L=-1.0),
                       "L must be positive, got -1.0"),
        "l4-eps": (lambda: L4([0.0], eps=0.0), "eps must be positive, got 0.0"),
        "lossgrad-alpha0": (lambda: LossGrad([0.0], alpha0=-0.5),
                            "alpha0 must be positive, got -0.5"),
        "rmsprop-eps": (lambda: RMSprop([0.0], 0.1, 0.9, eps=-1e-8),
                        "eps must be positive, got -1e-08"),
        "adam-eps": (lambda: Adam([0.0], 0.1, eps=0), "eps must be positive, got 0.0"),
        # _rate
        "heavy_ball-p": (lambda: HeavyBall([0.0], 0.1, p=1.0), "p must be in [0, 1), got 1.0"),
        "rmsprop-beta": (lambda: RMSprop([0.0], 0.1, beta=-0.1),
                         "beta must be in [0, 1), got -0.1"),
        "adam-beta1": (lambda: Adam([0.0], 0.1, beta1=1), "beta1 must be in [0, 1), got 1.0"),
        "adam-beta2": (lambda: Adam([0.0], 0.1, beta2=1.5), "beta2 must be in [0, 1), got 1.5"),
        "idbd1-lam": (lambda: IdbdScalar([0.0], 0.1, lam=1.0, alpha0=0.1),
                      "lam must be in [0, 1), got 1.0"),
    }

    @pytest.mark.parametrize("site", SITES)
    def test_each_site_names_the_parameter_and_the_value(self, site):
        call, message = self.SITES[site]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    # a count that is not an integer, a float that is not finite or not positive
    REJECTED = {
        "objective-float-dimension": (lambda: Objective(2.5, abs, abs),
                                      "dimension must be an integer, got 2.5"),
        "objective-bool-dimension": (lambda: Objective(True, abs, abs),
                                     "dimension must be an integer, got True"),
        "spd-nan-cond": (lambda: _spd(cond=float("nan")), "cond must be finite, got nan"),
        "spd-huge-cond": (lambda: _spd(cond=10 ** 400), "cond must be finite, got inf"),
        "spd-float-dim": (lambda: _spd(dim=2.0), "dim must be an integer, got 2.0"),
        "spd-bool-dim": (lambda: _spd(dim=True), "dim must be an integer, got True"),
        "finite_diff-inf-h": (lambda: finite_diff_grad(Objective(1, abs, abs), [1.0],
                                                       h=float("inf")),
                              "h must be finite, got inf"),
    }

    @pytest.mark.parametrize("case", REJECTED)
    def test_wrong_type_or_non_finite_values_name_the_value(self, case):
        call, message = self.REJECTED[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("rule", [_positive, _rate])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_say_finite(self, rule, value):
        with pytest.raises(ValueError, match=f"^x must be finite, got {value!r}$"):
            rule("x", value)

    def test_values_at_the_bounds(self):
        assert _count("n", np.int64(3), 3) == 3 and _count("n", -5) == -5
        assert _rate("r", 0) == _rate("r", -0.0) == 0.0 and _rate("r", np.float32(0.5)) == 0.5
        assert _positive("x", 5e-324) == 5e-324
        with pytest.raises(ValueError, match="^x must be positive, got -0.0$"):
            _positive("x", -0.0)
        with pytest.raises(ValueError, match="^n must be an integer, got 3.0$"):
            _count("n", 3.0, 0)


class TestReductionKernel:
    """The reduction rule ``"s = dot(a, b)"`` is one left-to-right ``+`` chain on a
    list and BLAS ``@`` on an array."""

    def test_the_list_form_sums_left_to_right(self):
        # a compensated sum (builtin sum from Python 3.12, math.fsum) gives 1.0
        a, b = [1e16, 1.0, -1e16], [1.0, 1.0, 1.0]
        assert _unrolled(3, "a, b", "s = dot(a, b)")(a, b) == 0.0
        a, b = np.array(a), np.array(b)
        s = _unrolled(None, "a, b", "s = dot(a, b)")(a, b)
        assert type(s) is float and s == float(a @ b)
