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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, Objective, _count, _finite, _Stepper, as_vector


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

    Record n goes to row ``n mod K``, where it overwrites record n - K after
    that record's pair ``(n - K, n)`` has been added into ``sum1`` and
    ``sum2``.  Planning fires at record counts 2K, 3K, 4K, ...; the sums
    restart from zeros at each window's first pair (record counts K + 1,
    2K + 1, ...), so each event fits only the newest window.
    """

    def __init__(self, k: int):
        self.k = _count("K", k)
        if self.k < 1:
            raise ValueError("buffer capacity K must be >= 1")
        self.count = 0
        self.w_ring = self.g_ring = self.sum1 = self.sum2 = None

    def record(self, pair: ExperiencePair) -> bool:
        """Append a pair; return True when planning should fire now.  Kept for
        ``perfbench/micro.py`` line 122; the planner calls ``push``."""
        if self.w_ring is not None and pair.w.size != self.w_ring.shape[1]:
            raise ValueError(f"dimension mismatch: buffer holds {self.w_ring.shape[1]}-vectors, "
                             f"got {pair.w.size}")
        return self.push(pair.w, pair.g)

    def push(self, w: Array, g: Array) -> bool:
        """``record`` for validated, same-dimension vectors."""
        k = self.k
        n = self.count = self.count + 1
        slot = n % k
        if n > k:
            if (n - 1) % k == 0:
                self.sum1 = np.zeros(w.size)
                self.sum2 = np.zeros(w.size)
            g_old = self.g_ring[slot]
            self.sum1 += g_old * (self.w_ring[slot] - w)
            self.sum2 += g_old * g_old
        elif n == 1:
            self.w_ring = np.empty((k, w.size))
            self.g_ring = np.empty((k, w.size))
        self.w_ring[slot] = w
        self.g_ring[slot] = g
        return slot == 0 and n > k


def compute_alpha(buf: ExperienceBuffer) -> Array:
    """Fit the diagonal step-size from the buffer's window of K pairs.

    ``alpha_i = sum1_i / sum2_i``, except alpha_i = 0 where sum2_i = 0.
    """
    if buf.count <= buf.k or buf.count % buf.k:
        raise ValueError("planning requires a full window of K pairs")
    zero = buf.sum2 == 0.0
    return np.where(zero, 0.0, buf.sum1 / np.where(zero, 1.0, buf.sum2))


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
    """

    def __init__(self, w0, gamma: float, k: int, p: int = 1, m: int = 0):
        super().__init__(w0)
        self.gamma = _finite("gamma", gamma)
        self.p = _count("P", p)
        self.m = _count("M", m)
        if self.p < 1:
            raise ValueError("P must be >= 1")
        if self.m < 0:
            raise ValueError("M must be >= 0")
        self.buffer = ExperienceBuffer(k)
        self.last_alpha: Optional[Array] = None

    def step(self, obj: Objective):
        gamma = self.gamma
        self.last_alpha = None
        g = obj.grad(self.w)
        w = self.w - gamma * g
        self._check(w.tolist())
        if self.buffer.push(w, g):
            alpha = compute_alpha(self.buffer)
            for _ in range(self.p):
                w = w - alpha * obj.grad(w)
                self._check(w.tolist())
                for _ in range(self.m):
                    w = w - gamma * obj.grad(w)
                    self._check(w.tolist())
            self.last_alpha = alpha
        self._commit_array(w, checked=True)  # each path above ends with a check of ``w``
