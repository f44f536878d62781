import math

import numpy as np
import pytest

from stepplan.core import DivergenceError, Objective
from stepplan.problems import QuadraticProblem, RosenbrockProblem

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_objective(problem) -> Objective:
    return Objective(
        dimension=problem.dimension,
        value_fn=problem.value,
        grad_fn=problem.gradient,
        optimum_value=0.0,
        optimum_point=problem.w_star,
    )


def quadratic_objective(q_diag=(1000.0, 1.0), w_star=(1.0, 1.0)) -> Objective:
    return make_objective(QuadraticProblem(np.diag(q_diag), w_star))


def scalar_objective(curvature: float = 1.0) -> Objective:
    """1-d quadratic 1/2 * c * w^2."""
    return Objective(
        dimension=1,
        value_fn=lambda w: 0.5 * curvature * float(w[0]) ** 2,
        grad_fn=lambda w: np.array([curvature * float(w[0])]),
        optimum_value=0.0,
        optimum_point=np.zeros(1),
    )


def rosenbrock_objective() -> Objective:
    return make_objective(RosenbrockProblem())


def hd_reference(grad_fn, w0, eta: float, alpha0: float):
    """Hypergradient descent as Baydin et al. state it, one step per ``next``.

    ``alpha += eta * g.g_prev``, then ``w -= alpha * g``, with ``g_prev``
    zero before the first step.  Yields ``(w, alpha, g)`` after each step.
    """
    w = np.array(w0, dtype=float)
    alpha = float(alpha0)
    g_prev = np.zeros_like(w)
    while True:
        g = np.asarray(grad_fn(w), dtype=float)
        alpha = alpha + eta * float(g @ g_prev)
        w = w - alpha * g
        g_prev = g
        yield w, alpha, g


def elementwise_reference(name: str, grad_fn, w0, params: dict):
    """The five elementwise rules as whole-array numpy updates, one step per ``next``.

    ``name`` is a registry name (gd, heavy_ball, nesterov, rmsprop, adam)
    and ``params`` its hyperparameters, defaults included.  Yields the
    iterate and the state vectors after each step, as ``{"w": ...,
    "delta" | "x" | "m" | "v": ...}``.  A non-finite iterate raises
    ``DivergenceError`` after the state has moved, as in the steppers.
    """
    w = np.array(w0, dtype=float)
    zero = np.zeros_like(w)
    state = {"heavy_ball": {"delta": zero}, "nesterov": {"x": w.copy()},
             "rmsprop": {"v": zero}, "adam": {"m": zero, "v": zero}}.get(name, {})
    t = 1.0
    k = 0
    while True:
        k += 1
        with np.errstate(over="ignore", invalid="ignore"):
            if name == "gd":
                w_new = w - params["gamma"] * grad_fn(w)
            elif name == "heavy_ball":
                w_new = w - params["gamma"] * grad_fn(w) + params["p"] * state["delta"]
                state["delta"] = w_new - w
            elif name == "nesterov":
                mu, L = params["mu"], params["L"]
                step = params["step"] if params["step"] is not None else 1.0 / L
                x = state["x"]
                w_new = x - step * grad_fn(x)
                if params["mode"] == "strongly_convex":
                    gamma_k = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
                else:
                    t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
                    gamma_k = (t - 1.0) / t_next
                    t = t_next
                state["x"] = w_new + gamma_k * (w_new - w)
            elif name == "rmsprop":
                g = grad_fn(w)
                beta = params["beta"]
                state["v"] = beta * state["v"] + (1.0 - beta) * g * g
                w_new = w - params["alpha"] * g / np.sqrt(state["v"] + params["eps"])
            elif name == "adam":
                g = grad_fn(w)
                b1, b2 = params["beta1"], params["beta2"]
                state["m"] = b1 * state["m"] + (1.0 - b1) * g
                state["v"] = b2 * state["v"] + (1.0 - b2) * g * g
                m_hat = state["m"] / (1.0 - b1 ** k)
                v_hat = state["v"] / (1.0 - b2 ** k)
                w_new = w - params["alpha"] * m_hat / (np.sqrt(v_hat) + params["eps"])
            else:
                raise ValueError(f"no reference for {name!r}")
        if not np.isfinite(w_new).all():
            raise DivergenceError(f"non-finite iterate after step {k}")
        w = w_new
        yield {"w": w, **state}


def same_bits(a, b) -> bool:
    """Whether two floats or float arrays hold the same bytes."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
