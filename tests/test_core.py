import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepplan.core import (EvalBudget, Objective, _finite, all_finite, as_vector,
                           finite_diff_grad)

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
