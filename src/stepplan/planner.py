"""Step-size planning: learn a diagonal step-size from update experience.

The planner runs plain gradient descent and records its update experience
as (iterate, driving gradient) pairs in a ring of K rows, so that each new
record pairs with the one written exactly K iterations earlier.  Once a
window of K pairs has accumulated (record counts 2K, 3K, ...) it fits a
per-component step-size

    alpha_i = sum_s g_s_i (w_s_i - w_{s+K}_i)  /  sum_s g_s_i^2

— the least-squares one-shot predictor of where gradient descent will be K
steps ahead — and applies it as a projection w_i <- w_i - alpha_i g_i on a
fresh gradient.  Components whose gradients were identically zero across
the window get alpha_i = 0 (no projection) rather than a perturbed
denominator.  Entries may come out negative or exceed one; both are
intentional and no clamping is applied.

Repeated planning applies the projection P times per event, each followed
by M corrective gradient-descent steps that pull an off-track projection
back toward the descent path.  Every projection and every corrective step
evaluates a fresh gradient, so one planning event costs exactly P * (1 + M)
gradient evaluations on top of the one-per-iteration main loop.

At ``LIST_MAX_DIM`` dimensions and below, the planner computes on lists of
Python floats, one comprehension per vector, and above it on float64
arrays: at the dimensions of the paper's instances a numpy ufunc call
costs more than the arithmetic, while at d=64 the comprehensions cost
more.  ``+ - * /`` round correctly in both, and each expression keeps its
order, so both forms give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, Objective, Point, _Stepper, _count, _finite, as_vector

# The largest start-point dimension at which the planner runs on lists of floats
# (README, "Float arithmetic in the steppers", has the µs per step of both forms).
LIST_MAX_DIM = 8


class _Lists:
    """The planner's arithmetic on lists of floats, one comprehension per vector."""

    @staticmethod
    def row(w, g) -> tuple:
        return w, g  # the pushed lists themselves

    @staticmethod
    def zeros(d: int) -> list[float]:
        return [0.0] * d

    @staticmethod
    def add_pair(sum1, sum2, w_old, g_old, w):
        return ([s + go * (wo - wi) for s, go, wo, wi in zip(sum1, g_old, w_old, w)],
                [s + go * go for s, go in zip(sum2, g_old)])

    @staticmethod
    def alpha(sum1, sum2) -> list[float]:
        return [0.0 if s2 == 0.0 else s1 / s2 for s1, s2 in zip(sum1, sum2)]

    @staticmethod
    def descend(w, gamma: float, g) -> list[float]:
        return [wi - gamma * gi for wi, gi in zip(w, g)]

    @staticmethod
    def project(w, alpha, g) -> list[float]:
        return [wi - ai * gi for wi, ai, gi in zip(w, alpha, g)]


class _Arrays:
    """The same arithmetic on float64 arrays, one ufunc call per operator."""

    @staticmethod
    def row(w, g) -> tuple:
        return w.copy(), g.copy()

    zeros = staticmethod(np.zeros)

    @staticmethod
    def add_pair(sum1, sum2, w_old, g_old, w):
        sum1 += g_old * (w_old - w)
        sum2 += g_old * g_old
        return sum1, sum2

    @staticmethod
    def alpha(sum1, sum2) -> Array:
        zero = sum2 == 0.0
        return np.where(zero, 0.0, sum1 / np.where(zero, 1.0, sum2))

    @staticmethod
    def descend(w, step, g) -> Array:
        return w - step * g

    project = descend


@dataclass
class ExperiencePair:
    """One recorded update: the iterate and the gradient that drove it.  Only
    ``ExperienceBuffer.record`` takes it, for ``perfbench/micro.py`` lines 21, 122."""

    w: Array
    g: Array

    def __post_init__(self):
        self.w = as_vector(self.w)
        self.g = as_vector(self.g, dim=self.w.size)


class ExperienceBuffer:
    """A ring of K update records with the pair sums of the current window.

    ``ring`` is a list that grows to K ``(w, g)`` rows over the first K
    records; record n then goes to row ``(n - 1) mod K``, where it
    overwrites record n - K after that record's pair ``(n - K, n)`` has been
    added into ``sum1`` and ``sum2``.  Planning fires at record counts 2K,
    3K, 4K, ...; the sums restart from zeros at each window's first pair
    (record counts K + 1, 2K + 1, ...), so each event fits only the newest
    window.

    The first record sets the form: a buffer fed lists of floats keeps the
    pushed lists as its rows and lists as its sums, one fed float64 arrays
    keeps copies as its rows and arrays as its sums.
    """

    def __init__(self, k: int):
        self.k = _count("K", k)
        if self.k < 1:
            raise ValueError("buffer capacity K must be >= 1")
        self.count = 0
        self.ring = []
        self.dim = self.math = self.sum1 = self.sum2 = None

    def record(self, pair: ExperiencePair) -> bool:
        """Append a pair; return True when planning should fire now.  Kept for
        ``perfbench/micro.py`` line 122; the planner calls ``push``."""
        if self.count and pair.w.size != self.dim:
            raise ValueError(f"dimension mismatch: buffer holds {self.dim}-vectors, "
                             f"got {pair.w.size}")
        return self.push(pair.w, pair.g)

    def push(self, w: Point, g: Point) -> bool:
        """``record`` for validated vectors of the buffer's dimension and form."""
        k = self.k
        n = self.count = self.count + 1
        if n == 1:
            self.dim, self.math = len(w), _Lists if isinstance(w, list) else _Arrays
        math = self.math
        if n <= k:
            self.ring.append(math.row(w, g))
            return False
        slot = (n - 1) % k
        w_old, g_old = self.ring[slot]
        if slot == 0:
            self.sum1, self.sum2 = math.zeros(self.dim), math.zeros(self.dim)
        self.sum1, self.sum2 = math.add_pair(self.sum1, self.sum2, w_old, g_old, w)
        self.ring[slot] = math.row(w, g)
        return slot == k - 1


def compute_alpha(buf: ExperienceBuffer) -> Array:
    """Fit the diagonal step-size from the buffer's window of K pairs.

    ``alpha_i = sum1_i / sum2_i``, except alpha_i = 0 where sum2_i = 0; a
    float64 array from either form of buffer.  The planner, which has just
    seen ``push`` fire, reads ``buf.math.alpha`` in its own form instead;
    this check and conversion are kept for ``perfbench/micro.py`` line 124.
    """
    if buf.count <= buf.k or buf.count % buf.k:
        raise ValueError("planning requires a full window of K pairs")
    return np.asarray(buf.math.alpha(buf.sum1, buf.sum2), dtype=float)


class StepSizePlanner(_Stepper):
    """Stepper that interleaves GD with learned step-size projections.

    One ``step`` call is one main-loop iteration: evaluate the gradient,
    take the GD step, record the (post-update iterate, driving gradient)
    pair, and — when the record count reaches a multiple of K past the
    first 2K — run a planning event.  ``last_alpha`` exposes the fitted
    step-size on event iterations (None otherwise) so traces can snapshot
    exactly the planned values.

    ``gamma`` is the inner GD step, ``k`` the buffer size and planning
    horizon K, ``p`` the projections P per event and ``m`` the corrective
    GD steps M after each projection.

    The iterate is ``point``: a list of floats when ``w0`` has at most
    ``LIST_MAX_DIM`` entries, else a float64 array; ``last_alpha`` has the
    same form.  A step that raises ``DivergenceError`` leaves ``point`` and
    ``k`` as they were, while its GD record may already be in the buffer.
    """

    def __init__(self, w0, gamma: float, k: int, p: int = 1, m: int = 0):
        super().__init__(w0)
        self.math = _Lists
        if len(self.point) > LIST_MAX_DIM:
            self.math, self.point = _Arrays, np.array(self.point)
        self.gamma = _finite("gamma", gamma)
        self.p = _count("P", p)
        self.m = _count("M", m)
        if self.p < 1:
            raise ValueError("P must be >= 1")
        if self.m < 0:
            raise ValueError("M must be >= 0")
        self.buffer = ExperienceBuffer(k)
        self.last_alpha: Optional[Point] = None

    def step(self, obj: Objective):
        gamma, math, check, buf = self.gamma, self.math, self._check, self.buffer
        self.last_alpha = alpha = None
        g = obj.grad(self.point)
        w = math.descend(self.point, gamma, g)
        # each new iterate is checked once: before a gradient is taken at it, or by _commit
        if buf.push(w, g):
            alpha = math.alpha(buf.sum1, buf.sum2)
            for _ in range(self.p):
                check(w)
                w = math.project(w, alpha, obj.grad(w))
                for _ in range(self.m):
                    check(w)
                    w = math.descend(w, gamma, obj.grad(w))
        self._commit(w)
        self.last_alpha = alpha
