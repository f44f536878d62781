"""Step-size planning for gradient descent, with baselines and a harness."""

from .core import (Array, DivergenceError, EvalBudget, Objective,
                   StationaryPointError, finite_diff_grad)
from .harness import (ExperimentConfig, empirical_rate, run_experiment,
                      speedup_at_budget, sweep)
from .optimizers import make_optimizer
from .planner import ExperienceBuffer, ExperiencePair, StepSizePlanner, compute_alpha
from .problems import LmsStream, QuadraticProblem, RosenbrockProblem, make_problem
from .theory import (RateReport, kantorovich_bound, optimal_diag_step,
                     optimal_scalar_step, reduction_ratio, verify_theorems)
from .tracing import Trace, TraceRecord, run_steps, write_csv

__version__ = "0.1.0"
