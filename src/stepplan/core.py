"""Vector validation, the objective and stepper contracts, the registry rule,
and run budgets.

Every stepper keeps its iterate in ``point``.  ``_Stepper`` picks its form
once, from the start point's dimension: a list of floats at ``LIST_MAX_DIM``
entries and below, a one-dimensional float64 array above.  ``_unrolled``
renders each rule template in either form, one entry at a time on a list and
as one whole-array statement on an array, so each rule has one copy, by text
substitution alone; the one reduction, ``dot(a, b)``, is a ``+`` chain on a
list and BLAS ``@`` on an array.  The
gradient ``Objective.grad`` returns has the form of the point it was asked
at.  The helpers here validate finiteness, dimension and the ranges that
more than one field shares (``_count``'s lower bound, ``_positive``,
``_rate``) at public boundaries; hot loops elsewhere assume validated inputs
and only re-check where an update can blow up.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from functools import cache
from math import inf, isfinite, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray
# an iterate as a stepper holds it: a float64 array, or a list of floats
Point = Array | list[float]

# The largest start-point dimension at which a stepper keeps its iterate as a list
# of floats (README, "Float arithmetic in the steppers", has the µs per step of both forms).
LIST_MAX_DIM = 24


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


def _real_array(x, name: str) -> Array:
    """``x`` as a float64 array, each entry of which must pass ``_finite``; a numeric
    array meets that per-entry loop only when one ``all_finite`` pass over it fails."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu" and all_finite(x.ravel().tolist())):
        for e in np.asarray(x, dtype=object).ravel():  # .flat refuses more than 32 dims
            _finite(name, e)
    return np.asarray(x, dtype=float)


def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> Array:
    """Validate and return ``x`` as a finite 1-d float64 array.

    Dimension is checked against ``dim`` when given.  Raises ``ValueError``
    naming ``name`` on an entry that is not a finite number (``_real_array``),
    wrong rank, or mismatched length.
    """
    v = _real_array(x, name)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be 1-d with at least one entry, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} dimension mismatch: expected {dim}, got {v.size}")
    return v


class Objective:
    """A loss function with gradient access and evaluation accounting.

    ``grad`` increments :attr:`grad_evals` by exactly one per call;
    ``value`` increments :attr:`func_evals`.  Neither counter is ever reset
    implicitly.  The raw callables stay accessible (``value_fn``,
    ``grad_fn``) so diagnostics such as error traces and finite differences
    can evaluate without charging the optimizer.  Both callables receive
    the iterate as the stepper holds it, its ``point``: a float64 array, or
    a list of floats.

    Instances are not thread-safe (the counters are plain ints); run each
    instance on a single thread and use distinct instances for concurrent
    runs.
    """

    def __init__(
        self,
        dimension: int,
        value_fn: Callable[[Point], float],
        grad_fn: Callable[[Point], Point],
        optimum_value: Optional[float] = None,
        optimum_point=None,
    ):
        self.dimension = _count("dimension", dimension, 1)
        self.value_fn = value_fn
        self.grad_fn = grad_fn
        self.optimum_value = None if optimum_value is None else float(optimum_value)
        self.optimum_point = (None if optimum_point is None
                              else as_vector(optimum_point, dim=dimension, name="optimum_point"))
        self.grad_evals = 0
        self.func_evals = 0

    def value(self, w) -> float:
        self.func_evals += 1
        return float(self.value_fn(w))

    def grad(self, w):
        """The gradient at ``w``: a list of floats for a list ``w``, else a float64
        array; the callable's result is converted only when it is of the other kind.
        A result that is not one-dimensional with ``len(w)`` entries raises
        ``ValueError`` (a callable written for arrays, such as ``lambda w: 2 * w``,
        repeats a list; a one-entry array would broadcast)."""
        self.grad_evals += 1
        g = self.grad_fn(w)
        if isinstance(w, list):
            if isinstance(g, list) and len(g) == len(w):
                return g
            return _gradient(g, len(w)).tolist()
        return _gradient(g, len(w))

    def error(self, w) -> float:
        """Loss above the optimum, via the uncounted raw callable."""
        base = self.optimum_value if self.optimum_value is not None else 0.0
        return float(self.value_fn(w)) - base


def _gradient(g, n: int) -> Array:
    """``g`` as a float64 array, which must be one-dimensional with ``n`` entries."""
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        entries = f"{g.size} entries" if g.ndim == 1 else f"shape {g.shape}"
        raise ValueError(f"gradient has {entries} for a point of {n}")
    return g


class _Stepper:
    """Shared state of every optimizer: the iterate ``point`` and a step counter ``k``.

    ``point`` starts as a list of floats when ``w0`` has at most
    ``LIST_MAX_DIM`` entries, else as a float64 array, a copy of ``w0``; only
    ``Idbd`` converts it, once in its constructor.  ``run_steps`` reads ``point``.
    """

    def __init__(self, w0):
        w0 = as_vector(w0, name="w0")
        self.point = w0.tolist() if w0.size <= LIST_MAX_DIM else w0.copy()
        self.k = 0

    def _check(self, point: Point):
        """The one divergence rule: a non-finite iterate ends step ``k + 1``."""
        if not all_finite(point if isinstance(point, list) else point.tolist()):
            raise DivergenceError(f"non-finite iterate after step {self.k + 1}")

    def _commit(self, point: Point):
        """End the step at ``point``, kept as it is."""
        self._check(point)
        self.point = point
        self.k += 1


def _zeros(point: Point) -> Point:
    """Zeros of ``point``'s length and form."""
    return [0.0] * len(point) if isinstance(point, list) else np.zeros(point.size)


def _kernel(point: Point, params: str, *rules: str) -> Callable:
    """``_unrolled`` for ``point``'s form: per entry for a list, whole-array otherwise."""
    return _unrolled(len(point) if isinstance(point, list) else None, params, *rules)


def _where(c: bool, x: float, y: float) -> float:
    """``x`` if ``c`` else ``y``: ``np.where`` for one entry."""
    return x if c else y


@cache
def _unrolled(d: Optional[int], params: str, *rules: str) -> Callable:
    """A straight-line function of ``params`` that returns what ``rules`` assign.

    Each rule ``"name = expr"`` reads each vector ``v`` as ``v[i]``.  For
    ``d`` entries it becomes the list display ``name = [expr_0, ...,
    expr_{d-1}]``, where ``expr_j`` is ``expr`` with every ``[i]`` read as
    ``[j]``; ``sqrt`` is ``math.sqrt`` and ``where(c, x, y)`` is ``x if c
    else y``.  For ``d=None`` it becomes one whole-array statement, ``expr``
    without its ``[i]``, with ``np.sqrt`` and ``np.where``, one kernel for
    every dimension.  Both round each entry as ``expr`` does on one
    component, and both evaluate both branches of a ``where``.  The one
    reduction is the whole rule ``"s = dot(a, b)"``, which assigns a float:
    ``(a[0] * b[0] + ... + a[d-1] * b[d-1])``, one left-to-right chain, for
    ``d`` entries (builtin ``sum`` is compensated from Python 3.12 on), and
    ``float(a @ b)`` through BLAS for ``d=None``.  The rules run in order,
    and a later one reads what an earlier one assigned.  The rules are
    string constants in the steppers; only the integer ``d`` enters the
    source.  Each kernel is built once per process and key, and the
    steppers bind theirs in their constructors.
    """
    names, lines = [], []
    for rule in rules:
        name, expr = (part.strip() for part in rule.split("=", 1))
        dot = re.fullmatch(r"dot\((\w+), (\w+)\)", expr)
        if d is None:
            value = f"float({dot[1]} @ {dot[2]})" if dot else expr.replace("[i]", "")
        elif dot:
            value = f"({' + '.join(f'{dot[1]}[{j}] * {dot[2]}[{j}]' for j in range(d))})"
        else:
            value = f"[{', '.join(expr.replace('[i]', f'[{j}]') for j in range(d))}]"
        names.append(name)
        lines.append(f"    {name} = {value}")
    source = f"def kernel({params}):\n" + "\n".join(lines) + f"\n    return {', '.join(names)}\n"
    namespace = {"sqrt": np.sqrt, "where": np.where} if d is None else {"sqrt": sqrt, "where": _where}
    exec(source, namespace)
    return namespace["kernel"]


def _build(kind: str, table: dict, name: str, params: dict, *args):
    """The one registry rule: ``table[name](*args, **params)``, where an unknown
    ``name`` or parameter, or a missing parameter, is a ``ValueError``."""
    if name not in table:
        raise ValueError(f"unknown {kind} name: {name!r}")
    try:
        return table[name](*args, **params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for {name!r}: {exc}") from None


def finite_diff_grad(obj: Objective, w, h: float = 1e-6) -> Array:
    """Central-difference gradient estimate, used as a test oracle.

    The probe for component ``i`` is ``h * max(1, |w_i|)`` so that the
    step stays meaningful for large coordinates at 64-bit precision.
    Does not touch the objective's evaluation counters.
    """
    h = _positive("h", h)
    wv = as_vector(w, dim=obj.dimension, name="w")
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


def _count(name: str, value, least: Optional[int] = None) -> int:
    """``value`` as an int, which must be >= ``least`` when given; ``ValueError``
    for bools, floats and other non-integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _number(name: str, value) -> float:
    """``value`` as a float, an integer beyond the float range as the infinity of
    its sign; ``ValueError`` for bools, strings and other non-reals."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def _finite(name: str, value) -> float:
    """``_number(name, value)``, which must be finite.  Only finiteness is
    checked: negative step-sizes stay allowed."""
    value = _number(name, value)
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _positive(name: str, value) -> float:
    """``_finite(name, value)``, which must be > 0."""
    value = _finite(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _rate(name: str, value) -> float:
    """``_finite(name, value)``, which must be in [0, 1)."""
    value = _finite(name, value)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value!r}")
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
        self.max_iterations = _count("max_iterations", self.max_iterations, 0)
        if self.max_grad_evals is not None:
            self.max_grad_evals = _count("max_grad_evals", self.max_grad_evals, 1)
        if self.error_floor is not None:
            self.error_floor = _number("error_floor", self.error_floor)
            if not self.error_floor >= 0:
                raise ValueError(f"error_floor must be non-negative or None, got {self.error_floor!r}")
