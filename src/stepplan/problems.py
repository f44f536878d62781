"""Benchmark problems.

Three instances drive every experiment in this package: a parameterized
convex quadratic (ill-conditioned in the canonical setup), the 2-d
Rosenbrock valley, and a synthetic least-mean-squares stream for online
per-parameter step-size adaptation.  The quadratic and Rosenbrock problems
are immutable and safe to share; the stream owns a stateful RNG and a
sample counter, and is single-threaded.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import Optional

import numpy as np

from .core import Array, _build, _finite, _real_array, _seed, as_vector


class QuadraticProblem:
    """f(w) = 1/2 (w - w*)^T Q (w - w*) for symmetric positive-definite Q.

    ``mu`` and ``L`` hold the extreme eigenvalues of Q, i.e. the strong
    convexity and gradient-smoothness constants.  ``w_star`` defaults to
    the origin.
    """

    def __init__(self, q, w_star=None):
        q = _real_array(q, "Q")
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"Q must be square, got shape {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("Q contains non-finite entries")
        if np.max(np.abs(q - q.T)) > 1e-12:
            raise ValueError("Q must be symmetric (within 1e-12 component-wise)")
        eigs = np.linalg.eigvalsh(q)
        if eigs[0] <= 0:
            raise ValueError(f"Q must be positive definite, smallest eigenvalue {eigs[0]}")
        self.q = q
        self.w_star = (np.zeros(q.shape[0]) if w_star is None
                       else as_vector(w_star, dim=q.shape[0], name="w_star"))
        self.mu = float(eigs[0])
        self.L = float(eigs[-1])

    @property
    def dimension(self) -> int:
        return self.q.shape[0]

    def value(self, w) -> float:
        d = np.asarray(w, dtype=float) - self.w_star
        return float(0.5 * d @ self.q @ d)

    def gradient(self, w) -> Array:
        return self.q @ (np.asarray(w, dtype=float) - self.w_star)


class RosenbrockProblem:
    """f(w) = (w1 - 1)^2 + 100 (w2 - w1^2)^2, minimized at (1, 1).

    The minimum sits in a long, narrow, curved valley; plain gradient
    descent needs thousands of evaluations to trace it.
    """

    dimension = 2

    def __init__(self):
        self.w_star = np.array([1.0, 1.0])

    def value(self, w) -> float:
        w1, w2 = w if isinstance(w, list) else np.asarray(w, dtype=float).tolist()
        try:
            return (w1 - 1.0) ** 2 + 100.0 * (w2 - w1 * w1) ** 2
        except OverflowError:  # a float's ``**`` raises where numpy's gives inf
            return inf

    def gradient(self, w) -> list[float]:
        w1, w2 = w if isinstance(w, list) else np.asarray(w, dtype=float).tolist()
        valley = w2 - w1 * w1
        return [2.0 * (w1 - 1.0) - 400.0 * w1 * valley, 200.0 * valley]


class LmsStream:
    """Synthetic stream for online linear regression.

    Each call to :meth:`next` draws an input ``x`` with components uniform
    on [low, high] and emits the target ``y* = w*.x + noise`` with Gaussian
    noise of standard deviation ``noise_std``.  Identical seeds reproduce
    identical sequences.  Each sample is one sampled gradient, so ``next``
    counts into ``grad_evals`` (``func_evals`` stays 0) and the stream
    serves as the objective of an :class:`~stepplan.optimizers.Idbd` run.
    """

    def __init__(self, w_star, low: float = -1.0, high: float = 1.0,
                 noise_std: float = 0.0, seed: int = 0):
        self.w_star = as_vector(w_star, name="w_star")
        self.low = low = _finite("low", low)
        self.high = high = _finite("high", high)
        if not (high > low and isfinite(high - low)):
            raise ValueError(f"need high > low with a finite width, got [{low!r}, {high!r}]")
        self.noise_std = _finite("noise_std", noise_std)
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.seed = _seed(seed)
        self._rng = np.random.default_rng(self.seed)
        # E[x_i^2] for uniform [low, high]
        self._second_moment = (low * low + low * high + high * high) / 3.0
        self.grad_evals = 0
        self.func_evals = 0

    @property
    def dimension(self) -> int:
        return self.w_star.size

    def next(self):
        self.grad_evals += 1
        x = self._rng.uniform(self.low, self.high, size=self.dimension)
        y = float(self.w_star @ x)
        if self.noise_std > 0:
            y += self.noise_std * float(self._rng.standard_normal())
        return x, y

    def population_error(self, w) -> float:
        """Expected squared-error loss above its minimum: 1/2 E[x_i^2] ||w - w*||^2."""
        d = np.asarray(w, dtype=float) - self.w_star
        return float(0.5 * self._second_moment * (d @ d))


def random_spd(rng: np.random.Generator, dim: int, cond: float, scale: float = 1.0):
    """Random SPD matrix with exact extreme eigenvalues (scale, scale * cond).

    Built as V^T diag(e) V with V orthogonal from the QR of a Gaussian
    matrix, so mu and L are controlled exactly.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if cond < 1:
        raise ValueError("cond must be >= 1")
    if dim == 1:
        eigs = np.array([1.0])
    else:
        interior = 10.0 ** rng.uniform(0.0, np.log10(cond), size=dim - 2)
        eigs = np.concatenate([[1.0, cond], interior])
    eigs = np.sort(eigs) * scale
    gauss = rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(gauss)
    q = v.T @ np.diag(eigs) @ v
    q = 0.5 * (q + q.T)
    return q, float(eigs[0]), float(eigs[-1])


def _quadratic(q=None, q_diag=None, w_star=None) -> QuadraticProblem:
    """The registry's quadratic: exactly one of the matrix ``q`` and its diagonal ``q_diag``."""
    if (q is None) == (q_diag is None):
        raise ValueError("quadratic problem needs exactly one of 'q' and 'q_diag'")
    q = _real_array(q, "q") if q_diag is None else np.diag(as_vector(q_diag, name="q_diag"))
    return QuadraticProblem(q, w_star)


_PROBLEMS = {"quadratic": _quadratic, "rosenbrock": RosenbrockProblem, "lms": LmsStream}

_DEFAULT_STARTS = {"rosenbrock": np.array([-1.0, 0.0])}


def make_problem(name: str, params: Optional[dict] = None):
    """Build a problem by registry name; returns ``(problem, w0)``.

    Accepted names: ``quadratic``, ``rosenbrock``, ``lms``.  ``params`` may
    carry ``w0`` to override the default start, and the constructor the rest.
    """
    params = dict(params or {})
    w0 = params.pop("w0", None)
    problem = _build("problem", _PROBLEMS, name, params)
    if w0 is None:
        w0 = _DEFAULT_STARTS.get(name, np.zeros(problem.dimension))
    return problem, as_vector(w0, dim=problem.dimension, name="w0")
