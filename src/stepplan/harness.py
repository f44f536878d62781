"""Experiment orchestration: configs, runs, metrics, parameter sweeps.

An :class:`ExperimentConfig` names a problem and an optimizer from the
registries, a budget, and recording flags; ``run_experiment`` turns it
into a :class:`~stepplan.tracing.Trace` deterministically — identical
configs give byte-identical CSVs, and ``run_all`` runs several, a failing
run not stopping the others.  ``speedup_at_budget`` and ``empirical_rate``
compute the two headline metrics; ``sweep`` expands a Cartesian grid of
dotted-path overrides into configs.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, List, Tuple

from .core import EvalBudget, Objective, _count, _seed
from .optimizers import make_optimizer
from .problems import make_problem
from .tracing import CONVERGED, Trace, run_steps

__all__ = [
    "ExperimentConfig", "run_experiment", "run_all", "speedup_at_budget",
    "empirical_rate", "sweep", "apply_override", "load_config",
]


@dataclass
class ExperimentConfig:
    """A fully-specified run: problem + optimizer + budget + recording flags.

    ``problem`` and ``optimizer`` are dicts with a string ``name`` key and
    the registry parameters; the whole config round-trips through JSON
    losslessly.  Field types are checked on construction: a wrong one is a
    ``ValueError``, so the CLI exits 2 before anything runs.
    """

    problem: dict
    optimizer: dict
    budget: EvalBudget
    seed: int = 0
    record_w: bool = False
    record_alpha: bool = False
    label: str = ""

    def __post_init__(self):
        for field in ("problem", "optimizer"):
            entry = getattr(self, field)
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise ValueError(f"{field} must be an object with a string 'name', got {entry!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        try:  # the label names output files and is written into them as UTF-8
            self.label.encode()
        except UnicodeEncodeError:
            raise ValueError(f"label must be encodable as UTF-8, got {self.label!r}") from None
        self.seed = _seed(self.seed)
        for field in ("record_w", "record_alpha"):
            if not isinstance(getattr(self, field), bool):
                raise ValueError(f"{field} must be true or false, got {getattr(self, field)!r}")

    def to_dict(self) -> dict:
        return asdict(self)  # recurses into the budget

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from JSON data; malformed data is a ``ValueError``."""
        try:
            d = json.loads(json.dumps(d))  # deep copy + reject non-JSON values
        except (TypeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ValueError(f"config is not JSON data: {exc}") from None
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got {type(d).__name__}")
        known = {"problem", "optimizer", "budget", "seed", "record_w", "record_alpha", "label"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {"problem", "optimizer", "budget"} - set(d)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        try:
            budget = EvalBudget(**d.pop("budget"))
        except TypeError as exc:  # not an object, unknown or missing keys
            raise ValueError(f"invalid budget: {exc}") from None
        return cls(budget=budget, **d)


def load_config(path) -> ExperimentConfig:
    """Read a config file; malformed JSON, or JSON nested too deep to parse, is a
    ``ValueError``."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except RecursionError:
            raise ValueError("config JSON is nested too deep") from None
    return ExperimentConfig.from_dict(d)


def _split(entry: dict) -> tuple[str, dict]:
    """The registry name and the parameters of ``entry``; a null parameter counts as
    not given."""
    params = {key: value for key, value in entry.items() if value is not None}
    return params.pop("name"), params


def _prepare(cfg: ExperimentConfig) -> Callable[[], Trace]:
    """Build the problem, objective and stepper of ``cfg``; return its run."""
    problem_name, problem_params = _split(cfg.problem)
    if problem_name == "lms":
        problem_params.setdefault("seed", cfg.seed)
    problem, w0 = make_problem(problem_name, problem_params)
    optimizer_name, optimizer_params = _split(cfg.optimizer)

    if (problem_name == "lms") != (optimizer_name == "idbd"):
        raise ValueError("the 'lms' problem and the idbd optimizer run only together, "
                         f"got problem {problem_name!r} with optimizer {optimizer_name!r}")
    if problem_name == "lms":
        objective, error_fn = problem, problem.population_error
    else:
        objective = Objective(problem.dimension, problem.value, problem.gradient,
                              optimum_value=0.0)
        error_fn = objective.error
    stepper = make_optimizer(optimizer_name, w0, optimizer_params)
    return lambda: run_steps(stepper, objective, cfg.budget, error_fn,
                             record_w=cfg.record_w, record_alpha=cfg.record_alpha)


def run_experiment(cfg: ExperimentConfig) -> Trace:
    """Execute one config and return its trace.

    Every optimizer runs through ``run_steps``; on the ``lms`` problem the
    stream itself is the objective, counting one gradient evaluation per
    sample.  Divergence is recorded in the trace status, not raised; unknown
    problem/optimizer names, bad parameters and a mismatched lms/idbd
    pairing raise ``ValueError`` before the run starts.
    """
    return _prepare(cfg)()


def run_all(configs: Iterable[ExperimentConfig], on_done: Callable[[ExperimentConfig, Trace], None]
            ) -> List[Tuple[ExperimentConfig, Exception]]:
    """Run ``configs`` in order, calling ``on_done(cfg, trace)`` as each run ends.

    Every config is built first, so a bad config raises ``ValueError`` before
    any work.  A run that raises does not stop the others; returns the failed
    ``(config, error)`` pairs."""
    prepared = [(cfg, _prepare(cfg)) for cfg in configs]
    failed = []
    for cfg, run in prepared:
        try:
            trace = run()
        except Exception as exc:  # the run's own failure; the next run still goes
            failed.append((cfg, exc))
        else:
            on_done(cfg, trace)
    return failed


def speedup_at_budget(a: Trace, b: Trace, grad_evals: int) -> float:
    """error(a) / error(b) at equal gradient-evaluation cost.

    Uses the latest row of each trace with cumulative evaluations <= the
    budget.  Both traces must reach the budget.  Returns ``inf`` when b's
    error is zero and a's is not.
    """
    grad_evals = _count("grad_evals", grad_evals)
    if grad_evals < 1:
        raise ValueError("grad_evals must be positive")
    errors = []
    for name, t in (("first", a), ("second", b)):
        # a converged run covers any later budget: on these deterministic
        # problems its iterate has zero gradient, so running on would repeat
        # its final row forever
        if t.total_grad_evals < grad_evals and t.status != CONVERGED:
            raise ValueError(f"{name} trace ends before {grad_evals} gradient evaluations")
        rows = bisect_right(t.grad_evals, grad_evals)
        if not rows:
            raise ValueError(f"no record within {grad_evals} gradient evaluations")
        errors.append(t.error[rows - 1])
    ea, eb = errors
    if eb == 0.0:
        return float("inf") if ea != 0.0 else 1.0
    return ea / eb


def empirical_rate(trace: Trace, window: Tuple[int, int]) -> float:
    """Geometric mean of successive error ratios over an iteration window."""
    start, end = window
    start, end = _count("window start", start), _count("window end", end)
    if not (0 < start < end):
        raise ValueError("window must satisfy 0 < start < end")
    if end > len(trace):
        raise ValueError(f"no record at iteration {end}")
    # every record in between must be positive for the geometric mean to exist
    errors = trace.error[start - 1:end]
    for it, e in enumerate(errors, start):
        if e <= 0.0:
            raise ValueError(f"non-positive error inside the window at iteration {it}")
    return float((errors[-1] / errors[0]) ** (1.0 / (end - start)))


def apply_override(config_dict: dict, dotted_key: str, value) -> None:
    """Set ``value`` at a dotted path ('optimizer.gamma') in a config dict."""
    parts = dotted_key.split(".")
    node = config_dict
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"invalid override path: {dotted_key!r}")
        node = node[part]
    if not isinstance(node, dict):
        raise ValueError(f"invalid override path: {dotted_key!r}")
    node[parts[-1]] = value


def parse_override_value(text: str):
    """Interpret an override value as JSON when possible, else a string; JSON
    nested too deep to parse is a ``ValueError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text
    except RecursionError:
        raise ValueError(f"override value {text[:20]!r}... is nested too deep") from None


def sweep(grid: dict, base: ExperimentConfig) -> List[ExperimentConfig]:
    """The Cartesian product of dotted-path value lists over a base config, in
    grid order (keys in the given order, values left to right), each config
    labelled with its grid values; ``run_all`` runs them."""
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    keys, value_lists = list(grid), [list(values) for values in grid.values()]
    for key, values in zip(keys, value_lists):
        if not values:
            raise ValueError(f"empty value list for sweep key {key!r}")
    configs = []
    for combo in itertools.product(*value_lists):
        d = base.to_dict()
        for key, value in zip(keys, combo):
            apply_override(d, key, value)
        tags = ",".join(f"{k}={v}" for k, v in zip(keys, combo))
        d["label"] = f"{base.label}[{tags}]" if base.label else tags
        configs.append(ExperimentConfig.from_dict(d))
    return configs
