import numpy as np
import pytest

from stepplan import theory
from stepplan.problems import LmsStream, random_spd
from stepplan.theory import (RateReport, SingularDirectionError, _grid_component_gap,
                             check_instance, ideal_diag_step, kantorovich_bound,
                             optimal_diag_step, optimal_scalar_step,
                             quadratic_value, reduction_ratio,
                             summarize_reports, verify_theorems)


class TestOptimalScalarStep:
    def test_identity_matrix(self, rng):
        for _ in range(10):
            w = rng.standard_normal(3)
            assert np.isclose(optimal_scalar_step(np.eye(3), w), 1.0, rtol=1e-12)

    def test_hand_instance(self):
        # diag(1, 2), w = (1, 1): (1 + 4) / (1 + 8)
        assert np.isclose(optimal_scalar_step(np.diag([1.0, 2.0]), [1.0, 1.0]), 5.0 / 9.0)

    def test_beats_grid(self, rng):
        q, mu, L = random_spd(rng, 4, 300.0)
        w = rng.standard_normal(4)
        a_star = optimal_scalar_step(q, w)
        f_star_ratio = reduction_ratio(q, w, a_star)
        alphas = np.linspace(0.0, 2.0 / L, 10 ** 4)
        for a in alphas[:: 500]:
            assert f_star_ratio <= reduction_ratio(q, w, float(a)) + 1e-12

    def test_rayleigh_range(self, rng):
        # w^T Q^2 w / w^T Q^3 w always lies in [1/L, 1/mu]
        for _ in range(200):
            d = int(rng.integers(1, 9))
            q, mu, L = random_spd(rng, d, 10.0 ** rng.uniform(0, 5))
            w = rng.standard_normal(d)
            a = optimal_scalar_step(q, w)
            assert 1.0 / L - 1e-9 / L <= a <= 1.0 / mu + 1e-9 / mu

    def test_zero_w(self):
        with pytest.raises(ValueError, match="w = 0"):
            optimal_scalar_step(np.eye(2), [0.0, 0.0])

    def test_an_underflowing_curvature_is_a_value_error(self):
        # w != 0, but w^T Q^2 w and w^T Q^3 w both underflow to 0.0
        with pytest.raises(ValueError, match=r"w\^T Q\^3 w = 0"):
            optimal_scalar_step(np.eye(2), [1e-200, 1e-200])


class TestOptimalDiagStep:
    def test_diagonal_q_inverse_spectrum(self, rng):
        mu, L = 0.5, 800.0
        q = np.diag([mu, L])
        for _ in range(10):
            w = rng.standard_normal(2)
            w[w == 0.0] = 1.0
            assert np.allclose(optimal_diag_step(q, w), [1.0 / mu, 1.0 / L], rtol=1e-12)

    def test_coupled_hand_instance(self):
        q = np.array([[2.0, 1.0], [1.0, 2.0]])
        w = np.array([1.0, 1.0])
        alpha = optimal_diag_step(q, w)
        assert np.allclose(alpha, [1.0 / 3.0, 1.0 / 3.0])
        w_next = w - alpha * (q @ w)
        assert np.allclose(w_next, [0.0, 0.0], atol=1e-15)
        assert quadratic_value(q, w_next) == 0.0

    def test_identity_matrix(self):
        alpha = optimal_diag_step(np.eye(3), [2.0, -1.0, 0.5])
        assert np.array_equal(alpha, np.ones(3))

    def test_singular_direction(self):
        with pytest.raises(SingularDirectionError):
            optimal_diag_step(np.diag([1.0, 1.0]), [0.0, 1.0])


class TestReductionRatio:
    def test_zero_step(self, rng):
        q, _, _ = random_spd(rng, 3, 10.0)
        assert reduction_ratio(q, rng.standard_normal(3), 0.0) == 1.0

    def test_diag_step_one_iteration(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            q, _, _ = random_spd(rng, d, 10.0 ** rng.uniform(0, 6))
            w = rng.standard_normal(d)
            assert reduction_ratio(q, w, optimal_diag_step(q, w)) <= 1e-10

    def test_scalar_step_kantorovich_hand_value(self):
        q = np.diag([1.0, 1000.0])
        w = np.array([1.0, 1.0])
        ratio = reduction_ratio(q, w, optimal_scalar_step(q, w))
        assert ratio <= 1.0 - 4.0 * 1000.0 / 1001.0 ** 2 + 1e-12
        assert ratio <= 0.996008

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            reduction_ratio(np.eye(2), [0.0, 0.0], 0.1)


class TestSpdInput:
    @pytest.mark.parametrize("q", [{}, [[True]], [["1"]]])
    def test_q_entries_follow_the_vector_rule(self, q):
        with pytest.raises(ValueError, match="Q must be a number"):
            quadratic_value(q, [1.0])

    def test_q_shape_must_match_w(self):
        with pytest.raises(ValueError, match=r"Q shape \(2, 2\) does not match w dimension 3"):
            quadratic_value(np.eye(2), [1.0, 1.0, 1.0])

    def test_numeric_q_is_accepted(self):
        assert quadratic_value([[2]], [1.0]) == quadratic_value(np.eye(1) * 2.0, [1.0]) == 1.0


class TestKantorovichBound:
    def test_perfectly_conditioned(self):
        assert kantorovich_bound(2.0, 2.0) == 0.0

    def test_hand_value(self):
        assert np.isclose(kantorovich_bound(1.0, 1000.0), 0.9960079, atol=1e-7)

    def test_monotone_in_condition(self):
        assert kantorovich_bound(1.0, 10.0) < kantorovich_bound(1.0, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            kantorovich_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            kantorovich_bound(2.0, 1.0)


class TestIdealDiagStep:
    def test_lands_exactly(self, rng):
        w = rng.standard_normal(5)
        g = rng.standard_normal(5)
        target = rng.standard_normal(5)
        alpha = ideal_diag_step(w, g, target)
        assert np.allclose(w - alpha * g, target, atol=1e-12)

    def test_zero_gradient_component(self):
        with pytest.raises(SingularDirectionError):
            ideal_diag_step([1.0, 2.0], [1.0, 0.0], [0.0, 0.0])


class TestVerify:
    def test_small_run_all_satisfied(self):
        reports = verify_theorems(trials=50, d_max=6, seed=3)
        assert len(reports) == 200
        assert all(r.satisfied for r in reports)
        summary = summarize_reports(reports)
        assert set(summary) == {"scalar-rate", "scalar-grid", "diag-one-step", "ideal-step-grid"}
        assert all(entry["passed"] for entry in summary.values())

    def test_one_dimensional_instance(self):
        # d = 1: scalar and diagonal optima coincide, both solve in one step
        reports = check_instance(np.array([[4.0]]), 4.0, 4.0, np.array([3.0]))
        by_check = {r.check: r for r in reports}
        assert by_check["scalar-rate"].rho <= 1e-12
        assert by_check["scalar-rate"].bound == 0.0
        assert by_check["diag-one-step"].rho <= 1e-12

    def test_singular_direction_skips(self):
        q = np.diag([1.0, 2.0])
        reports = check_instance(q, 1.0, 2.0, np.array([0.0, 1.0]))
        by_check = {r.check: r for r in reports}
        assert by_check["diag-one-step"].skipped
        assert by_check["ideal-step-grid"].skipped
        assert not by_check["scalar-rate"].skipped
        summary = summarize_reports(reports)
        assert summary["diag-one-step"]["skipped"] == 1

    def test_an_underflowing_curvature_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"w\^T Q\^3 w = 0"):
            check_instance(np.eye(2), 1.0, 1.0, [1e-200, 1e-200])

    def test_summary_counts_a_failure(self):
        reports = [RateReport("scalar-rate", rho=0.1, bound=0.2, satisfied=True),
                   RateReport("scalar-rate", rho=0.3, bound=0.2, satisfied=False)]
        entry = summarize_reports(reports)["scalar-rate"]
        assert entry["trials"] == 2 and entry["failures"] == 1
        assert entry["passed"] is False
        assert entry["worst_rho"] == 0.3 and entry["worst_margin"] == pytest.approx(-0.1)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_theorems(trials=0)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(trials=2.5), "trials"), (dict(trials="3"), "trials"), (dict(trials=True), "trials"),
        (dict(trials=1, d_max=2.5), "d_max"),
    ], ids=["trials-float", "trials-str", "trials-bool", "d_max-float"])
    def test_counts_must_be_integers(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            verify_theorems(**kwargs)

    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer"), (True, "seed must be an integer"),
        ("3", "seed must be an integer"), (-1, "seed must be >= 0"),
    ], ids=["float", "bool", "str", "negative"])
    def test_seed_is_a_non_negative_integer(self, seed, message):
        # numpy would raise TypeError for 2.5 and "3", and run True as seed 1
        with pytest.raises(ValueError, match=message):
            verify_theorems(trials=1, seed=seed)


class TestStochasticIdealStep:
    def test_sampled_minimizer_matches_formula(self, rng):
        # noiseless stream, fixed weight: the per-component minimizer of the
        # average post-update distance is sum(g_i (w_i - w*_i)) / sum(g_i^2)
        w_star = np.array([1.0, -0.5, 2.0])
        stream = LmsStream(w_star, seed=9)
        w = np.array([0.2, 0.3, -1.0])
        grads = []
        for _ in range(400):
            x, y = stream.next()
            delta = y - float(w @ x)
            grads.append(-delta * x)  # gradient of 1/2 delta^2 in w
        grads = np.array(grads)
        num = grads * (w - w_star)[None, :]
        formula = num.sum(axis=0) / (grads ** 2).sum(axis=0)
        for i in range(3):
            radius = max(1.0, 2.0 * abs(formula[i]))
            grid = np.linspace(formula[i] - radius, formula[i] + radius, 4001)
            spacing = grid[1] - grid[0]
            # mean over samples of (w_i - a g_i - w*_i)^2
            resid = ((w[i] - grid[None, :] * grads[:, i][:, None] - w_star[i]) ** 2).mean(axis=0)
            best = grid[int(np.argmin(resid))]
            assert abs(best - formula[i]) <= spacing


def verify_instances(n, d_max=10, seed=0):
    """``n`` instances drawn as ``verify_theorems`` draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        d = int(rng.integers(1, d_max + 1))
        q, mu, L = random_spd(rng, d, 10.0 ** rng.uniform(0.0, 6.0))
        w = rng.standard_normal(d)
        while not np.any(w):
            w = rng.standard_normal(d)
        yield q, mu, L, w


def grid_component_gap_loop(w, g, exact):
    """The per-component reference: one 2001-point grid per component and a running max."""
    worst = 0.0
    for i in range(w.size):
        radius = max(1.0, 2.0 * abs(exact[i]))
        grid = np.linspace(exact[i] - radius, exact[i] + radius, 2001)
        spacing = grid[1] - grid[0]
        resid = (w[i] - grid * g[i]) ** 2
        best = grid[int(np.argmin(resid))]
        worst = max(worst, abs(best - exact[i]) / spacing)
    return worst


class TestGridComponentGap:
    """The whole-array gap equals the per-component loop, bit for bit."""

    def test_matches_the_loop_on_verify_instances(self):
        for q, _, _, w in verify_instances(1000):
            g = q @ w
            exact = optimal_diag_step(q, w)
            assert _grid_component_gap(w, g, exact) == grid_component_gap_loop(w, g, exact)

    def test_radius_rule_switches_at_a_half(self):
        # |exact_i| = 0.5 gives radius 1 under both branches of max(1, 2 |exact_i|)
        w = np.array([0.5, -0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.35])
        g = np.array([1.0, 1.0, 1.0, 1.0, 0.7])
        exact = ideal_diag_step(w, g, np.zeros(w.size))
        assert np.abs(exact[:4]).tolist() == [0.5, 0.5, np.nextafter(0.5, 0.0),
                                              np.nextafter(0.5, 1.0)]
        gap = _grid_component_gap(w, g, exact)
        assert gap == grid_component_gap_loop(w, g, exact) and gap <= 1.0

    @pytest.mark.parametrize("w, g", [([1.0, 1.0], [1e-310, 3.0]),
                                      ([1.0, 0.3], [3.0, 1e-310]),
                                      ([0.7], [1e-310])])
    def test_an_exact_step_that_overflows_to_inf_is_skipped(self, w, g):
        w, g = np.array(w), np.array(g)
        with np.errstate(over="ignore", invalid="ignore"):
            exact = ideal_diag_step(w, g, np.zeros(w.size))
            assert np.isinf(exact).any()
            gap = _grid_component_gap(w, g, exact)
            assert gap == grid_component_gap_loop(w, g, exact)
        assert gap <= 1.0  # the finite components' gap, or 0.0 when there is none


class TestCheckInstance:
    """``check_instance`` checks its input once and reuses Qw and f(w), with the
    same values as the public helpers composed."""

    def test_matches_the_public_helpers_bit_for_bit(self):
        for q, mu, L, w in verify_instances(1000):
            reports = {r.check: r for r in check_instance(q, mu, L, w)}
            rho = reduction_ratio(q, w, optimal_scalar_step(q, w))
            assert reports["scalar-rate"].rho == reports["scalar-grid"].rho == rho
            assert reports["scalar-rate"].bound == kantorovich_bound(mu, L)
            diag_step = optimal_diag_step(q, w)
            assert reports["diag-one-step"].rho == reduction_ratio(q, w, diag_step)
            assert reports["ideal-step-grid"].rho == _grid_component_gap(w, q @ w, diag_step)

    def test_checks_its_input_at_most_twice(self, monkeypatch):
        calls = []
        check = theory._check_spd_input

        def counted(q, w):
            calls.append(1)
            return check(q, w)

        monkeypatch.setattr(theory, "_check_spd_input", counted)
        for q, mu, L, w in verify_instances(20):
            calls.clear()
            check_instance(q, mu, L, w)
            assert len(calls) <= 2
