import numpy as np
import pytest

from stepplan.core import Objective
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
    return make_objective(QuadraticProblem.diagonal(q_diag, w_star))


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


def same_bits(a, b) -> bool:
    """Whether two floats or float arrays hold the same bytes."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
