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

The planner computes in its iterate's form (``core.LIST_MAX_DIM`` picks it):
each GD step, projection, pair-sum update and alpha fit is one kernel that
``core._unrolled`` renders from one rule template, per entry on a list of
floats and whole-array on a float64 array, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, Objective, Point, _Stepper, _count, _finite, _kernel, _zeros, as_vector

# the GD step, which gradient descent shares, and the projection
_DESCEND = ("w, gamma, g", "w = w[i] - gamma * g[i]")
_PROJECT = ("w, alpha, g", "w = w[i] - alpha[i] * g[i]")
# the window's pair sums and the step-size fitted from them, 0 where sum2 is 0
_PAIR_SUMS = ("sum1, sum2, w_old, g_old, w", "sum1 = sum1[i] + g_old[i] * (w_old[i] - w[i])",
              "sum2 = sum2[i] + g_old[i] * g_old[i]")
_ALPHA = ("sum1, sum2",
          "alpha = where(sum2[i] == 0.0, 0.0, sum1[i] / where(sum2[i] == 0.0, 1.0, sum2[i]))")


@dataclass
class ExperiencePair:
    """One recorded update: the iterate and the gradient that drove it.  Only
    ``ExperienceBuffer.record`` takes it, for ``perfbench``'s ``micro._steppers``."""

    w: Array
    g: Array

    def __post_init__(self):
        self.w = as_vector(self.w, name="w")
        self.g = as_vector(self.g, dim=self.w.size, name="g")


class ExperienceBuffer:
    """A ring of K update records with the pair sums of the current window.

    ``ring`` is a list that grows to K ``(w, g)`` rows over the first K
    records; record n then goes to row ``(n - 1) mod K``, where it
    overwrites record n - K after that record's pair ``(n - K, n)`` has been
    added into ``sum1`` and ``sum2``.  Planning fires at record counts 2K,
    3K, 4K, ...; the sums restart from zeros at each window's first pair
    (record counts K + 1, 2K + 1, ...), so each event fits only the newest
    window.

    A row is ``(w, g.copy())``: the planner pushes each ``w`` as a new kernel
    result, and ``record`` copies its pair's ``w``, so no row shares an
    object with the caller's gradient.  The first record sets the form of
    the sums and of the ``add_pair`` and ``alpha`` kernels: lists of floats,
    or float64 arrays.
    """

    def __init__(self, k: int):
        self.k = _count("K", k, 1)
        self.count = 0
        self.ring = []
        self.dim = self.add_pair = self.alpha = self.sum1 = self.sum2 = None

    def record(self, pair: ExperiencePair) -> bool:
        """Append a pair; return True when planning should fire now.  Kept for
        ``perfbench``'s ``micro._steppers``; the planner calls ``push``."""
        if self.count and pair.w.size != self.dim:
            raise ValueError(f"dimension mismatch: buffer holds {self.dim}-vectors, "
                             f"got {pair.w.size}")
        return self.push(pair.w.copy(), pair.g)

    def push(self, w: Point, g: Point) -> bool:
        """``record`` for validated vectors of the buffer's dimension and form,
        where ``w`` is the caller's to hand over."""
        k = self.k
        n = self.count = self.count + 1
        if n == 1:
            self.dim = len(w)
            self.add_pair, self.alpha = _kernel(w, *_PAIR_SUMS), _kernel(w, *_ALPHA)
        if n <= k:
            self.ring.append((w, g.copy()))
            return False
        slot = (n - 1) % k
        w_old, g_old = self.ring[slot]
        if slot == 0:
            self.sum1 = self.sum2 = _zeros(w)
        self.sum1, self.sum2 = self.add_pair(self.sum1, self.sum2, w_old, g_old, w)
        self.ring[slot] = (w, g.copy())
        return slot == k - 1


def compute_alpha(buf: ExperienceBuffer) -> Array:
    """Fit the diagonal step-size from the buffer's window of K pairs.

    ``alpha_i = sum1_i / sum2_i``, except alpha_i = 0 where sum2_i = 0; a
    float64 array from either form of buffer.  The planner, which has just
    seen ``push`` fire, calls ``buf.alpha`` in its own form instead;
    this check and conversion are kept for ``perfbench``'s ``micro._steppers``.
    """
    if buf.count <= buf.k or buf.count % buf.k:
        raise ValueError("planning requires a full window of K pairs")
    return np.asarray(buf.alpha(buf.sum1, buf.sum2), dtype=float)


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

    The iterate is ``point``, in the form ``_Stepper`` picks; ``last_alpha``
    has the same form.  A step that raises ``DivergenceError`` leaves
    ``point`` and ``k`` as they were, while its GD record may already be in
    the buffer.
    """

    def __init__(self, w0, gamma: float, k: int, p: int = 1, m: int = 0):
        super().__init__(w0)
        self._descend = _kernel(self.point, *_DESCEND)
        self._project = _kernel(self.point, *_PROJECT)
        self.gamma = _finite("gamma", gamma)
        self.p = _count("P", p, 1)
        self.m = _count("M", m, 0)
        self.buffer = ExperienceBuffer(k)
        self.last_alpha: Optional[Point] = None

    def step(self, obj: Objective):
        gamma, descend, check, buf = self.gamma, self._descend, self._check, self.buffer
        self.last_alpha = alpha = None
        g = obj.grad(self.point)
        w = descend(self.point, gamma, g)
        # each new iterate is checked once: before a gradient is taken at it, or by _commit
        if buf.push(w, g):
            alpha = buf.alpha(buf.sum1, buf.sum2)
            for _ in range(self.p):
                check(w)
                w = self._project(w, alpha, obj.grad(w))
                for _ in range(self.m):
                    check(w)
                    w = descend(w, gamma, obj.grad(w))
        self._commit(w)
        self.last_alpha = alpha
