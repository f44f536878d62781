"""Vector validation, the objective contract, and run budgets.

Iterates and gradients are one-dimensional float64 numpy arrays
(the elementwise steppers keep their state vectors as lists of floats).
The helpers here validate finiteness and dimension at public boundaries;
hot loops elsewhere assume validated inputs and only re-check where an
update can blow up.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import isfinite
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class DivergenceError(RuntimeError):
    """An update produced a non-finite iterate."""


class StationaryPointError(RuntimeError):
    """A step-size rule met a zero gradient away from the known optimum."""


def all_finite(values: Sequence[float]) -> bool:
    """Whether every float in ``values`` is finite; pass an array as ``.tolist()``.

    Exact, and about the cost of a scalar operation for short sequences: a
    finite float sum means every term is finite; a non-finite sum can come
    from finite terms that overflow (``[1e308, 1e308]``), so that case
    falls back to a per-element check.
    """
    return isfinite(sum(values)) or all(map(isfinite, values))


def as_vector(x, dim: Optional[int] = None) -> Array:
    """Validate and return ``x`` as a finite 1-d float64 array.

    Dimension is checked against ``dim`` when given.  Raises ``ValueError``
    on non-finite entries, wrong rank, or mismatched length.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector of dimension >= 1, got shape {v.shape}")
    if not all_finite(v.tolist()):
        raise ValueError("vector contains non-finite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


class Objective:
    """A loss function with gradient access and evaluation accounting.

    ``grad`` increments :attr:`grad_evals` by exactly one per call;
    ``value`` increments :attr:`func_evals`.  Neither counter is ever reset
    implicitly.  The raw callables stay accessible (``value_fn``,
    ``grad_fn``) so diagnostics such as error traces and finite differences
    can evaluate without charging the optimizer.

    Instances are not thread-safe (the counters are plain ints); run each
    instance on a single thread and use distinct instances for concurrent
    runs.
    """

    def __init__(
        self,
        dimension: int,
        value_fn: Callable[[Array], float],
        grad_fn: Callable[[Array], Array],
        optimum_value: Optional[float] = None,
        optimum_point=None,
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        self.value_fn = value_fn
        self.grad_fn = grad_fn
        self.optimum_value = None if optimum_value is None else float(optimum_value)
        self.optimum_point = None if optimum_point is None else as_vector(optimum_point, dim=dimension)
        self.grad_evals = 0
        self.func_evals = 0

    def value(self, w) -> float:
        self.func_evals += 1
        return float(self.value_fn(w))

    def grad(self, w) -> Array:
        self.grad_evals += 1
        return np.asarray(self.grad_fn(w), dtype=float)

    def error(self, w) -> float:
        """Loss above the optimum, via the uncounted raw callable."""
        base = self.optimum_value if self.optimum_value is not None else 0.0
        return float(self.value_fn(w)) - base


def finite_diff_grad(obj: Objective, w, h: float = 1e-6) -> Array:
    """Central-difference gradient estimate, used as a test oracle.

    The probe for component ``i`` is ``h * max(1, |w_i|)`` so that the
    step stays meaningful for large coordinates at 64-bit precision.
    Does not touch the objective's evaluation counters.
    """
    if not (h > 0):
        raise ValueError("h must be positive")
    wv = as_vector(w, dim=obj.dimension)
    g = np.empty_like(wv)
    for i in range(wv.size):
        step = h * max(1.0, abs(wv[i]))
        wp = wv.copy()
        wm = wv.copy()
        wp[i] += step
        wm[i] -= step
        fp = float(obj.value_fn(wp))
        fm = float(obj.value_fn(wm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite objective value at probe points for component {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g


def _count(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` for bools, floats and other non-integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(name: str, value) -> float:
    """``value`` as a float; ``ValueError`` unless it is a finite number.

    Only finiteness is checked: negative step-sizes stay allowed.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass
class EvalBudget:
    """Stopping conditions for a run.

    ``max_iterations`` always applies.  ``max_grad_evals`` optionally bounds
    total gradient evaluations (checked at iteration boundaries, so a
    planner iteration may overshoot by its own per-iteration cost).
    ``error_floor`` stops the run as converged once the recorded error is
    <= the floor; ``None`` disables error-based stopping, which lets a run
    continue past an exact-zero error.
    """

    max_iterations: int
    max_grad_evals: Optional[int] = None
    error_floor: Optional[float] = 0.0

    def __post_init__(self):
        self.max_iterations = _count("max_iterations", self.max_iterations)
        if self.max_grad_evals is not None:
            self.max_grad_evals = _count("max_grad_evals", self.max_grad_evals)
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.max_grad_evals is not None and self.max_grad_evals <= 0:
            raise ValueError("max_grad_evals must be positive when set")
        floor = self.error_floor
        if floor is not None:
            if isinstance(floor, bool) or not isinstance(floor, numbers.Real) or not floor >= 0:
                raise ValueError(f"error_floor must be a non-negative number or None, got {floor!r}")
            self.error_floor = float(floor)
