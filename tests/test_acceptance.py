"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and reports one pass/fail line
(collected into the terminal summary).  The whole module is sized to finish
in well under two minutes on a laptop.
"""

from bisect import bisect_right

import numpy as np
import pytest

import conftest
from conftest import hd_reference, make_objective, same_bits

from stepplan.core import EvalBudget, Objective, finite_diff_grad
from stepplan.harness import (ExperimentConfig, empirical_rate, run_experiment,
                              speedup_at_budget)
from stepplan.optimizers import (GradientDescent, HeavyBall, IdbdScalar,
                                 PolyakStep, make_optimizer)
from stepplan.planner import StepSizePlanner
from stepplan.problems import (LmsStream, QuadraticProblem, RosenbrockProblem,
                               random_spd)
from stepplan.theory import ideal_diag_step, kantorovich_bound, verify_theorems
from stepplan.tracing import CONVERGED, write_csv

CONVEX = {"name": "quadratic", "q_diag": [1000.0, 1.0],
          "w_star": [1.0, 1.0], "w0": [-1.0, 2.0]}
ROSEN = {"name": "rosenbrock", "w0": [-1.0, 0.0]}
SLOW = 1  # index of the unit-eigenvalue component of diag(1000, 1)


def report(num, name, passed, detail):
    line = f"criterion {num:>2} [{name}]: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


@pytest.fixture(scope="module")
def theorem_reports():
    return verify_theorems(trials=1000, d_max=10, seed=2024)


@pytest.fixture(scope="module")
def rosenbrock_runs():
    budget = EvalBudget(max_iterations=20000, max_grad_evals=10000, error_floor=None)
    gd = run_experiment(ExperimentConfig(
        problem=ROSEN, optimizer={"name": "gd", "gamma": 0.001}, budget=budget))
    planners = {
        k: run_experiment(ExperimentConfig(
            problem=ROSEN, optimizer={"name": "csawg", "gamma": 0.001, "k": k},
            budget=budget, record_alpha=True))
        for k in (2, 5, 10)
    }
    return gd, planners


def test_criterion_1_diag_one_step(theorem_reports):
    rhos = [r.rho for r in theorem_reports if r.check == "diag-one-step" and not r.skipped]
    skipped = sum(1 for r in theorem_reports if r.check == "diag-one-step" and r.skipped)
    worst = max(rhos)
    report(1, "one-iteration convergence", len(rhos) == 1000 and skipped == 0 and worst <= 1e-10,
           f"1000 trials, worst reduction ratio {worst:.3g} (tolerance 1e-10)")


def test_criterion_2_scalar_rate_and_grid(theorem_reports):
    rate = [r for r in theorem_reports if r.check == "scalar-rate"]
    grid = [r for r in theorem_reports if r.check == "scalar-grid"]
    rate_ok = all(r.rho <= r.bound + 1e-12 for r in rate)
    grid_ok = all(r.satisfied for r in grid)
    margin = min(r.bound - r.rho for r in rate)
    report(2, "scalar-optimum rate", rate_ok and grid_ok and len(rate) == 1000,
           f"Kantorovich bound respected in all 1000 trials (tightest margin {margin:.3g}); "
           f"closed form beats the 10^4-point grid everywhere")


def test_criterion_3_ideal_step_deterministic():
    rng = np.random.default_rng(77)
    worst_dist = 0.0
    worst_gap = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        q, _, _ = random_spd(rng, d, 10.0 ** rng.uniform(0, 4))
        w_star = rng.standard_normal(d)
        p = QuadraticProblem(q, w_star)
        w = w_star + rng.standard_normal(d)
        g = p.gradient(w)
        if np.any(g == 0.0):
            continue
        alpha = ideal_diag_step(w, g, w_star)
        w_next = w - alpha * g
        worst_dist = max(worst_dist, float(np.linalg.norm(w_next - w_star)))
        # brute-force oracle: per-component grid of the post-update distance
        for i in range(d):
            radius = max(1.0, 2.0 * abs(alpha[i]))
            grid = np.linspace(alpha[i] - radius, alpha[i] + radius, 2001)
            spacing = grid[1] - grid[0]
            best = grid[int(np.argmin((w[i] - grid * g[i] - w_star[i]) ** 2))]
            worst_gap = max(worst_gap, abs(best - alpha[i]) / spacing)
    report(3, "ideal step-size", worst_dist <= 1e-10 and worst_gap <= 1.0,
           f"100 quadratics: worst one-projection distance {worst_dist:.3g} (tol 1e-10), "
           f"grid minimizer within {worst_gap:.2f} grid spacings of the formula")


def test_criterion_4_convex_experiment():
    planner = run_experiment(ExperimentConfig(
        problem=CONVEX, optimizer={"name": "csawg", "gamma": 0.0009, "k": 2},
        budget=EvalBudget(max_iterations=500, error_floor=1e-12)))
    planner_ok = planner.status == CONVERGED and len(planner) <= 500

    gd = run_experiment(ExperimentConfig(
        problem=CONVEX, optimizer={"name": "gd", "gamma": 0.00099},
        budget=EvalBudget(max_iterations=5000, error_floor=None)))
    rate = empirical_rate(gd, (500, 5000))
    expected = (1.0 - 0.00099 * 1.0) ** 2
    rate_ok = abs(rate - expected) <= 1e-4

    nesterov = run_experiment(ExperimentConfig(
        problem=CONVEX,
        optimizer={"name": "nesterov", "mode": "strongly_convex", "mu": 1.0, "L": 1000.0},
        budget=EvalBudget(max_iterations=2000, error_floor=None)))
    gd_err = gd.error[1999]
    nesterov_err = nesterov.error[1999]
    ratio = gd_err / nesterov_err
    nesterov_ok = ratio >= 1e3

    report(4, "convex experiment", planner_ok and rate_ok and nesterov_ok,
           f"planner K=2 converged at iteration {len(planner)} (<500); "
           f"GD rate {rate:.8f} vs closed form {expected:.8f}; "
           f"accelerated/GD error ratio at iteration 2000 = {ratio:.3g} (>=1e3)")


def test_criterion_5_step_size_peak():
    peaks = {}
    for k, iters in ((2, 1500), (10, 3000), (100, 6000)):
        trace = run_experiment(ExperimentConfig(
            problem=CONVEX, optimizer={"name": "csawg", "gamma": 0.0009, "k": k},
            budget=EvalBudget(max_iterations=iters, error_floor=None),
            record_alpha=True))
        alphas = [trace.alpha.get(row)[SLOW] for row in trace.alpha.rows]
        peaks[k] = max(alphas)
    ok = all(abs(peak - 1.0) <= 1e-6 for peak in peaks.values())
    detail = ", ".join(f"K={k}: {peak:.9f}" for k, peak in peaks.items())
    report(5, "step-size peak", ok,
           f"unit-curvature component peaks at {detail} (target 1.0 +/- 1e-6)")


def test_criterion_6_rosenbrock_speedup(rosenbrock_runs):
    gd, planners = rosenbrock_runs
    reference_speedups = {2: 400.0, 5: 320.0, 10: 133.0}
    speedups = {k: speedup_at_budget(gd, tr, 10000) for k, tr in planners.items()}
    ok = all(s >= 50.0 for s in speedups.values())
    detail = "; ".join(f"K={k}: {s:.3g}x (reference {reference_speedups[k]:.0f}x)"
                       for k, s in speedups.items())
    report(6, "Rosenbrock speedup", ok, f"error ratio at 1e4 gradient evaluations: {detail}")


def test_criterion_7_repeated_planning():
    results = {}
    for k in (2, 10):
        obj = make_objective(RosenbrockProblem())
        planner = StepSizePlanner([-1.0, 0.0], gamma=0.001, k=k, p=5, m=10)
        from stepplan.tracing import run_steps
        trace = run_steps(planner, obj, EvalBudget(max_iterations=2000, error_floor=1e-12),
                          obj.error, record_alpha=True)
        events = len(trace.alpha)
        accounting_exact = trace.total_grad_evals == len(trace) + events * 55
        results[k] = (trace.status == CONVERGED, trace.total_grad_evals, accounting_exact)
    ok = all(conv and evals <= 1000 and acct for conv, evals, acct in results.values())
    detail = "; ".join(f"K={k}: error<=1e-12 in {evals} evals (reference {ref})"
                       for (k, (conv, evals, acct)), ref in zip(results.items(), (458, 465)))
    report(7, "repeated planning", ok, f"{detail}; per-event cost exactly 55")


def test_criterion_8_negative_step_sizes(rosenbrock_runs):
    _, planners = rosenbrock_runs
    alphas = [planners[2].alpha.get(row) for row in planners[2].alpha.rows]
    negatives = sum(1 for a in alphas if a[1] < 0.0)
    report(8, "negative step-sizes", negatives >= 1,
           f"K=2 run recorded {negatives} planning events with a negative second "
           f"component (of {len(alphas)} events)")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(99)
    checks = {}

    # gradient vs central differences, 100 points per problem; relative error
    # per component, with near-zero components measured against the vector scale
    def rel_gap(g, fd):
        denom = np.maximum(np.abs(g), np.max(np.abs(g)))
        return float(np.max(np.abs(g - fd) / denom))

    worst = 0.0
    quad = QuadraticProblem(np.diag([1000.0, 1.0]), [1.0, 1.0])
    rosen = RosenbrockProblem()
    for problem in (quad, rosen):
        obj = make_objective(problem)
        for _ in range(100):
            w = rng.uniform(-2.0, 2.0, size=problem.dimension)
            worst = max(worst, rel_gap(problem.gradient(w), finite_diff_grad(obj, w)))
    stream = LmsStream([1.0, -2.0], seed=1)
    for _ in range(100):
        x, y = stream.next()
        w = rng.standard_normal(2)
        sample_obj = Objective(2, lambda v, x=x, y=y: 0.5 * (y - v @ x) ** 2,
                               lambda v, x=x, y=y: -(y - v @ x) * x)
        worst = max(worst, rel_gap(sample_obj.grad_fn(w), finite_diff_grad(sample_obj, w)))
    checks["finite-diff agreement"] = worst <= 1e-6

    # Polyak step range on strongly convex quadratics
    in_range = True
    for _ in range(30):
        d = int(rng.integers(1, 6))
        q, mu, L = random_spd(rng, d, 10.0 ** rng.uniform(0, 3))
        p = QuadraticProblem(q, rng.standard_normal(d))
        obj = make_objective(p)
        s = PolyakStep(p.w_star + rng.standard_normal(d), f_star=0.0)
        for _ in range(5):
            s.step(obj)
            in_range &= 1.0 / (2 * L) - 1e-15 <= s.alpha <= 1.0 / (2 * mu) + 1e-15
    checks["Polyak range"] = in_range

    # hypergradient sign property, exact, on the Baydin et al. update
    q, _, _ = random_spd(rng, 2, 10.0)
    p = QuadraticProblem(q, np.zeros(2))
    obj = make_objective(p)
    w0 = rng.standard_normal(2)
    s = make_optimizer("hd", w0, {"eta": 1e-8, "alpha0": 0.01})
    ref = hd_reference(p.gradient, w0, 1e-8, 0.01)
    sign_ok, g_prev = True, np.zeros(2)
    for _ in range(500):
        prev_alpha = s.alpha
        s.step(obj)
        w, alpha, g = next(ref)
        sign_ok &= same_bits(s.point, w) and same_bits(s.alpha, alpha)
        sign_ok &= np.sign(s.alpha - prev_alpha) == np.sign(float(g @ g_prev))
        g_prev = g
    checks["HD sign property"] = sign_ok

    # hd and IdbdScalar(lam=0) bit-identical to the Baydin et al. update over 1000 steps
    q, _, _ = random_spd(rng, 2, 10.0)
    p = QuadraticProblem(q, np.array([1.0, -1.0]))
    w0 = rng.standard_normal(2)
    hd = make_optimizer("hd", w0, {"eta": 1e-8, "alpha0": 0.01})
    scalar = IdbdScalar(w0, 1e-8, 0.0, 0.01)
    ref = hd_reference(p.gradient, w0, 1e-8, 0.01)
    obj_a, obj_b = make_objective(p), make_objective(p)
    same = True
    for _ in range(1000):
        hd.step(obj_a)
        scalar.step(obj_b)
        w, alpha, _ = next(ref)
        same &= same_bits(hd.point, w) and same_bits(hd.alpha, alpha)
        same &= same_bits(scalar.point, w) and same_bits(scalar.alpha, alpha)
    checks["idbd1(lam=0) == hd"] = same

    # heavy ball p=0 bit-identical to gd
    same = True
    for _ in range(20):
        d = int(rng.integers(1, 3))
        q, _, L = random_spd(rng, d, 10.0)
        p = QuadraticProblem(q, rng.standard_normal(d))
        w0 = rng.standard_normal(d)
        hb, gd = HeavyBall(w0, 0.5 / L, 0.0), GradientDescent(w0, 0.5 / L)
        obj_a, obj_b = make_objective(p), make_objective(p)
        for _ in range(50):
            hb.step(obj_a)
            gd.step(obj_b)
            same &= np.array_equal(hb.point, gd.point)
    checks["heavy_ball(p=0) == gd"] = same

    # constant gradient: the first planning window is pure GD experience, so
    # alpha is exactly K * gamma; each later window straddles one projection
    # jump of size alpha_prev * g, giving exactly alpha_n = n * K * gamma
    # (dyadic constants keep the arithmetic exact)
    slope = np.array([2.0, -4.0])
    obj = Objective(2, lambda w: float(slope @ w), lambda w: slope.copy())
    planner = StepSizePlanner([0.0, 0.0], gamma=0.5, k=4)
    alphas = []
    for _ in range(16):
        planner.step(obj)
        if planner.last_alpha is not None:
            alphas.append(planner.last_alpha)
    k_gamma = 4 * 0.5
    exact = len(alphas) == 3 and all(
        np.array_equal(a, [k_gamma * n, k_gamma * n]) for n, a in enumerate(alphas, start=1))
    checks["constant-gradient alpha = K*gamma"] = exact

    # gradient-evaluation accounting on every run kind
    acct = True
    for optimizer, events_cost in ((({"name": "gd", "gamma": 0.0005}), 0),
                                   (({"name": "csawg", "gamma": 0.0009, "k": 3, "p": 2, "m": 4}), 10)):
        trace = run_experiment(ExperimentConfig(
            problem=CONVEX, optimizer=optimizer,
            budget=EvalBudget(max_iterations=90, error_floor=None), record_alpha=True))
        events = len(trace.alpha)
        acct &= trace.total_grad_evals == len(trace) + events * events_cost
    checks["grad-eval accounting"] = acct

    # byte-identical CSVs for fixed seeds, including the stochastic stream
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        configs = [
            ExperimentConfig(problem=CONVEX,
                             optimizer={"name": "csawg", "gamma": 0.0009, "k": 2},
                             budget=EvalBudget(max_iterations=200, error_floor=None),
                             record_w=True, record_alpha=True),
            ExperimentConfig(problem={"name": "lms", "w_star": [1.0, -1.0], "noise_std": 0.1},
                             optimizer={"name": "idbd", "eta": 0.02, "beta0": -3.0},
                             budget=EvalBudget(max_iterations=300, error_floor=None),
                             seed=13, record_w=True, record_alpha=True),
        ]
        identical = True
        for i, c in enumerate(configs):
            pa, pb = tmp / f"{i}a.csv", tmp / f"{i}b.csv"
            write_csv(run_experiment(c), pa)
            write_csv(run_experiment(c), pb)
            identical &= pa.read_bytes() == pb.read_bytes()
    checks["byte-identical CSVs"] = identical

    failed = [name for name, ok in checks.items() if not ok]
    report(9, "property suite", not failed,
           f"{len(checks)} properties checked" + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_baseline_ordering():
    """Tuned baselines on Rosenbrock keep the paper's ordering.

    Asserts that the best heavy ball beats the best GD at 5e3 gradient
    evaluations (lower error), and that the best heavy ball reaches error
    1e-12, the package's convergence floor, in strictly fewer cumulative
    gradient evaluations than the best Adam within the 2e4 horizon.  Final
    errors at 2e4 cannot rank the two: both families land bit-exactly on
    the optimum (1, 1) before then, so both best final errors are 0.0.
    """
    budget = EvalBudget(max_iterations=20000, error_floor=None)
    target = 1e-12

    def run(optimizer):
        return optimizer, run_experiment(ExperimentConfig(problem=ROSEN, optimizer=optimizer,
                                                          budget=budget))

    def err_at(trace, evals):
        return trace.error[bisect_right(trace.grad_evals, evals) - 1]

    def evals_to(trace, error, evals):
        """Fewest cumulative gradient evaluations at which the trace first has
        an error <= `error` within `evals` evaluations, or inf if it never does."""
        return next((g for g, e in zip(trace.grad_evals, trace.error)
                     if g <= evals and e <= error), float("inf"))

    def label(optimizer):
        return " ".join(f"{k}={v}" for k, v in optimizer.items() if k != "name")

    gd_runs = [run({"name": "gd", "gamma": g}) for g in (0.0005, 0.001, 0.0015, 0.002)]
    hb_runs = [run({"name": "heavy_ball", "gamma": 0.0015, "p": p}) for p in (0.8, 0.9)]
    adam_runs = [run({"name": "adam", "alpha": a, "beta1": b1, "beta2": b2})
                 for a in (0.005, 0.01)
                 for b1 in (0.9, 0.99, 0.999)
                 for b2 in (0.99, 0.999, 0.9999)]

    best_gd_5k = min(err_at(t, 5000) for _, t in gd_runs)
    best_hb_5k = min(err_at(t, 5000) for _, t in hb_runs)
    first_ok = best_hb_5k < best_gd_5k

    best_hb_evals, best_hb = min((evals_to(t, target, 20000), label(c)) for c, t in hb_runs)
    best_adam_evals, best_adam = min((evals_to(t, target, 20000), label(c)) for c, t in adam_runs)
    second_ok = best_hb_evals < best_adam_evals

    best_hb_final = min(err_at(t, 20000) for _, t in hb_runs)
    best_adam_final = min(err_at(t, 20000) for _, t in adam_runs)

    report(10, "baseline ordering", first_ok and second_ok,
           f"at 5e3 evals best heavy ball {best_hb_5k:.3g} vs best GD {best_gd_5k:.3g}; "
           f"evals to error <= {target:g}: heavy ball {best_hb_evals} ({best_hb}) vs "
           f"Adam {best_adam_evals} ({best_adam}); "
           f"at 2e4 evals best heavy ball {best_hb_final:.3g}, best Adam {best_adam_final:.3g}")


def test_criterion_11_meta_gradient_rate_bound():
    """HD and IDBD1 never beat the Kantorovich rate of the optimal scalar step.

    On 10 random SPD instances (d in [2, 5], condition number 10^U(0.5, 3))
    each runs 2000 iterations with eta = 1e-3/L^2 and alpha0 = 1/L (IDBD1
    with lam = 0.5), stopping at an error of 1e-200 so that no error in the
    window is zero.  Its rate over the second half of the recorded rows must
    lie above ``kantorovich_bound(mu, L)``; the smallest gap measured is
    0.0043, at a condition number of 459.
    """
    rng = np.random.default_rng(0)
    budget = EvalBudget(max_iterations=2000, error_floor=1e-200)
    gaps = {}
    for trial in range(10):
        d = int(rng.integers(2, 6))
        q, mu, L = random_spd(rng, d, 10.0 ** rng.uniform(0.5, 3.0))
        w0 = rng.standard_normal(d)
        for name, extra in (("hd", {}), ("idbd1", {"lam": 0.5})):
            trace = run_experiment(ExperimentConfig(
                problem={"name": "quadratic", "q": q.tolist(), "w0": w0.tolist()},
                optimizer={"name": name, "eta": 1e-3 / L ** 2, "alpha0": 1.0 / L, **extra},
                budget=budget))
            rate = empirical_rate(trace, (len(trace) // 2, len(trace)))
            gaps[name, trial] = rate - kantorovich_bound(mu, L)
    (name, trial), smallest = min(gaps.items(), key=lambda item: item[1])
    report(11, "meta-gradient rate bound", smallest > 0.0,
           f"{len(gaps)} hd/idbd1 runs above the Kantorovich rate; "
           f"smallest gap {smallest:.4f} ({name}, instance {trial})")


def test_criterion_12_planner_against_nesterov():
    """The planner against Nesterov's accelerated gradient, in evaluations to error 1e-12.

    ``csawg`` runs at gamma = 0.9/kappa and Nesterov in strongly convex mode with
    mu = 1 and L = kappa, from the criterion-4 start, within 2e5 evaluations:

    * on diag(kappa, 1), single-shot planning with K=2 (the best of K in
      {2, 5, 10, 20, 50, 100, 200} as measured) must take at most 0.85 times
      Nesterov's count at kappa = 1e2 and 1e3 (measured 0.79 and 0.74);
    * on the same spectrum rotated by 45 degrees, repeated planning (P=5,
      M=10) must take at most 0.7 times Nesterov's count at kappa = 1e3 for
      the best K in {2, 5, 10} (measured 0.57).

    Reported as data: the loss at kappa = 10, repeated planning at kappa =
    1e2, single-shot planning on the rotated problem, and the dense d=8
    instance of ``TestRepeatedPlanningDivergence``.
    """
    budget = EvalBudget(max_iterations=200000, max_grad_evals=200000, error_floor=1e-12)

    def run(problem, optimizer):
        return run_experiment(ExperimentConfig(problem=problem, optimizer=optimizer,
                                               budget=budget))

    def evals(problem, optimizer):
        """Evaluations to the error floor, or inf if the run stops short of it."""
        trace = run(problem, optimizer)
        return trace.total_grad_evals if trace.status == CONVERGED else float("inf")

    def nesterov(mu, L):
        return {"name": "nesterov", "mode": "strongly_convex", "mu": mu, "L": L}

    def csawg(gamma, k, p=1, m=0):
        return {"name": "csawg", "gamma": gamma, "k": k, "p": p, "m": m}

    def rotated_problem(kappa):
        rotation = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                             [np.sin(np.pi / 4), np.cos(np.pi / 4)]])
        q = rotation @ np.diag([kappa, 1.0]) @ rotation.T
        return {"name": "quadratic", "q": q.tolist(), "w_star": [1.0, 1.0], "w0": [-1.0, 2.0]}

    diag = {}
    for kappa in (1e1, 1e2, 1e3):
        problem = dict(CONVEX, q_diag=[kappa, 1.0])
        diag[kappa] = evals(problem, csawg(0.9 / kappa, 2)), evals(problem, nesterov(1.0, kappa))
    rotated = {}
    for kappa in (1e2, 1e3):
        problem = rotated_problem(kappa)
        rotated[kappa] = ({k: evals(problem, csawg(0.9 / kappa, k, p=5, m=10)) for k in (2, 5, 10)},
                          evals(problem, nesterov(1.0, kappa)))
    single = {k: evals(rotated_problem(1e3), csawg(0.9 / 1e3, k)) for k in (2, 5, 10)}

    rng = np.random.default_rng(0)
    q, mu, L = random_spd(rng, 8, 1e3)
    problem = {"name": "quadratic", "q": q.tolist(), "w0": rng.standard_normal(8).tolist()}
    diverging = run(problem, csawg(0.9 / L, 2, p=2))
    dense = (f"P=1 {evals(problem, csawg(0.9 / L, 2))}, "
             f"P=2 {diverging.status} after {diverging.total_grad_evals}, "
             f"Nesterov {evals(problem, nesterov(mu, L))}")

    diag_ratios = {kappa: diag[kappa][0] / diag[kappa][1] for kappa in (1e2, 1e3)}
    best_rotated, nest_rotated = min(rotated[1e3][0].values()), rotated[1e3][1]
    ok = all(r <= 0.85 for r in diag_ratios.values()) and best_rotated <= 0.7 * nest_rotated

    def counts(by_k):
        return "/".join(str(n) for n in by_k.values())

    report(12, "planner against Nesterov", ok,
           "diag(kappa, 1), K=2 vs Nesterov: "
           + ", ".join(f"kappa={kappa:g} {p} vs {n}" for kappa, (p, n) in diag.items())
           + f" (ratios {diag_ratios[1e2]:.2f}, {diag_ratios[1e3]:.2f}; bound 0.85); "
           "rotated 45 degrees, P=5 M=10 K=2/5/10 vs Nesterov: "
           + ", ".join(f"kappa={kappa:g} {counts(by_k)} vs {n}"
                       for kappa, (by_k, n) in rotated.items())
           + f" (best/Nesterov {best_rotated / nest_rotated:.2f} at 1e3; bound 0.7); "
           f"single-shot K=2/5/10 at rotated kappa=1e3: {counts(single)}; "
           f"dense d=8 kappa=1e3 K=2 M=0: {dense}")


def test_criterion_13_stochastic_negative_step_sizes():
    """Negative planned step-sizes on the ``lms`` stream, against gradient descent.

    d=3, w* = (1, 1.5, 2), noise_std = 0.1, gamma = 0.05 and 2e4 samples at
    seeds 0, 1 and 2.  At every seed, ``csawg`` K=10 must plan a step-size
    with a negative component at no fewer than 0.9 of its events (measured
    0.93-0.95), and end at no more than 0.95 times ``gd``'s population error
    (measured 0.75-0.91).

    Reported as data: K=50 at the same seeds, and noiseless runs to error
    1e-12 (``gd``, K=10 and K=2 at gamma = 0.2; K=2 at gamma = 0.05).
    """
    def run(optimizer, seed=0, noise_std=0.1, error_floor=None):
        return run_experiment(ExperimentConfig(
            problem={"name": "lms", "w_star": [1.0, 1.5, 2.0], "noise_std": noise_std},
            optimizer=optimizer, seed=seed, record_alpha=True,
            budget=EvalBudget(max_iterations=20000, max_grad_evals=20000,
                              error_floor=error_floor)))

    def csawg(k, gamma=0.05):
        return {"name": "csawg", "gamma": gamma, "k": k}

    gd = {"name": "gd", "gamma": 0.05}
    ok, seeds, k50 = True, [], []
    for seed in range(3):
        base, planned = run(gd, seed), run(csawg(10), seed)
        alphas = np.frombuffer(planned.alpha.flat).reshape(-1, planned.alpha.width)
        negative = int((alphas < 0.0).any(axis=1).sum())
        ratio = planned.final_error() / base.final_error()
        ok = ok and negative >= 0.9 * len(alphas) and ratio <= 0.95
        seeds.append(f"seed {seed}: gd {base.final_error():.3g}, K=10 "
                     f"{planned.final_error():.3g} (ratio {ratio:.2f}), {negative} of "
                     f"{len(alphas)} events negative")
        k50.append(f"{run(csawg(50), seed).final_error():.3g}")

    def noiseless(optimizer):
        trace = run(optimizer, noise_std=0.0, error_floor=1e-12)
        return f"{trace.status} after {trace.total_grad_evals}"

    report(13, "stochastic negative step-sizes", ok,
           "; ".join(seeds) + " (bounds 0.9 of events, ratio 0.95); "
           f"K=50 at seeds 0/1/2: {'/'.join(k50)}; noiseless to 1e-12, gamma=0.2: "
           f"gd {noiseless({'name': 'gd', 'gamma': 0.2})}, K=10 {noiseless(csawg(10, 0.2))}, "
           f"K=2 {noiseless(csawg(2, 0.2))}; gamma=0.05: K=2 {noiseless(csawg(2))}")
