"""One-step update rules for the compared optimizers.

Each optimizer is a small stateful stepper: construct it at a start point,
then call ``step(objective)`` once per iteration.  Every step consumes
exactly one gradient evaluation; the function-value based rules (Polyak,
L4, LossGrad) additionally consume function evaluations, which the
objective counts separately.  Steppers do not police stability — finite
oscillation passes through, and only a non-finite iterate aborts.

Every stepper keeps its iterate in ``point`` and ends a step with
``_commit``.  All but ``Idbd`` keep ``point`` and their state vectors in the
form ``core._Stepper`` picks from the dimension: lists of Python floats up
to ``core.LIST_MAX_DIM`` entries, where a numpy ufunc call costs more than
the arithmetic, and float64 arrays above.  Each builds its update once, in
its constructor, from kernels that ``core._unrolled`` renders from rule
templates in that form, so a step sets up no loop.  ``+ - * /`` and
``sqrt`` round correctly in both forms, so they give the same bytes; a
reduction (``_DOT``) is a left-to-right ``+`` chain on a list and BLAS on an
array.  ``Idbd``, whose ``exp`` may round differently from ``math.exp``,
keeps ``point`` as a float64 array at every dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (Array, Objective, StationaryPointError, _Stepper, _build, _finite, _kernel,
                   _positive, _rate, _zeros)
from .planner import _DESCEND, StepSizePlanner

# the scalar product of two vectors, and the decay of L4's momentum and IDBD1's trace
_DOT = ("a, b", "s = sum(a[i] * b[i])")
_DECAY = ("v, p, g", "v = p * v[i] + g[i]")


class GradientDescent(_Stepper):
    """w <- w - gamma * f'(w) with a constant step-size."""

    def __init__(self, w0, gamma: float):
        super().__init__(w0)
        self.gamma = _finite("gamma", gamma)
        self._update = _kernel(self.point, *_DESCEND)

    def step(self, obj: Objective):
        w = self.point
        self._commit(self._update(w, self.gamma, obj.grad(w)))


class HeavyBall(_Stepper):
    """w <- w - gamma * f'(w) + p * delta, momentum on the last weight change."""

    def __init__(self, w0, gamma: float, p: float):
        super().__init__(w0)
        self.gamma = _finite("gamma", gamma)
        self.p = _rate("p", p)
        self.delta = _zeros(self.point)
        self._update = _kernel(self.point, "w, g, delta, gamma, p",
                               "w_new = w[i] - gamma * g[i] + p * delta[i]",
                               "delta = w_new[i] - w[i]")

    def step(self, obj: Objective):
        w = self.point
        w_new, self.delta = self._update(w, obj.grad(w), self.delta, self.gamma, self.p)
        self._commit(w_new)


class NesterovAGD(_Stepper):
    """Accelerated gradient with the standard momentum schedules.

    The gradient step is taken at the lookahead point x:
    ``w+ = x - step * f'(x)``, ``x+ = w+ + gamma_k (w+ - w)``.  In
    ``strongly_convex`` mode gamma_k is the constant
    (sqrt(L) - sqrt(mu)) / (sqrt(L) + sqrt(mu)); in ``convex`` mode it
    follows the t-sequence t+ = (1 + sqrt(1 + 4 t^2)) / 2 with t0 = 1 and
    gamma_k = (t - 1) / t+.  The default gradient step is 1/L.
    """

    def __init__(self, w0, mode: str, mu: float = 0.0, L: float = 1.0,
                 step: float | None = None):
        super().__init__(w0)
        if mode not in ("convex", "strongly_convex"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mu = _finite("mu", mu)
        self.L = _positive("L", L)
        self.momentum = None  # gamma_k in strongly_convex mode, where it is constant
        if mode == "strongly_convex":
            if not (0 < self.mu <= self.L):
                raise ValueError("strongly_convex mode needs 0 < mu <= L")
            self.momentum = (math.sqrt(self.L) - math.sqrt(self.mu)) / (
                math.sqrt(self.L) + math.sqrt(self.mu))
        self.mode = mode
        self.step_size = _finite("step", step) if step is not None else 1.0 / self.L
        self.x = self.point.copy()
        self.t = 1.0
        self._update = _kernel(self.point, "x, g, w, step_size, gamma_k",
                               "w_new = x[i] - step_size * g[i]",
                               "x = w_new[i] + gamma_k * (w_new[i] - w[i])")

    def step(self, obj: Objective):
        g = obj.grad(self.x)
        if self.mode == "strongly_convex":
            gamma_k = self.momentum
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * self.t * self.t)) / 2.0
            gamma_k = (self.t - 1.0) / t_next
            self.t = t_next
        w_new, self.x = self._update(self.x, g, self.point, self.step_size, gamma_k)
        self._commit(w_new)


class PolyakStep(_Stepper):
    """alpha = (f(w) - f*) / ||f'(w)||^2, requires the optimal value f*."""

    def __init__(self, w0, f_star: float = 0.0):
        super().__init__(w0)
        self.f_star = _finite("f_star", f_star)
        self.alpha = 0.0
        self._dot, self._descend = _kernel(self.point, *_DOT), _kernel(self.point, *_DESCEND)

    def step(self, obj: Objective):
        w = self.point
        fval = obj.value(w)
        g = obj.grad(w)
        gg = self._dot(g, g)
        if gg == 0.0:
            if fval > self.f_star:
                raise StationaryPointError(
                    f"zero gradient with f(w) = {fval} above f* = {self.f_star}"
                )
            self.alpha = 0.0
            self._commit(w)
            return
        self.alpha = (fval - self.f_star) / gg
        self._commit(self._descend(w, self.alpha, g))


class L4(_Stepper):
    """alpha = (f(w) - f*) / (f'(w).v + eps) along a direction v.

    ``direction='gradient'`` uses the raw gradient (where the rule and the
    Polyak step coincide as eps -> 0); ``direction='momentum'`` smooths the
    direction with v <- p * v + g.
    """

    def __init__(self, w0, f_star: float = 0.0, eps: float = 1e-12,
                 direction: str = "gradient", p: float = 0.9):
        super().__init__(w0)
        self.f_star = _finite("f_star", f_star)
        self.eps = _positive("eps", eps)
        if direction not in ("gradient", "momentum"):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        self.p = _finite("p", p)
        self.v = _zeros(self.point)
        self.alpha = 0.0
        self._dot, self._descend = _kernel(self.point, *_DOT), _kernel(self.point, *_DESCEND)
        self._decay = _kernel(self.point, *_DECAY)

    def step(self, obj: Objective):
        w = self.point
        fval = obj.value(w)
        v = g = obj.grad(w)
        if self.direction == "momentum":
            v = self.v = self._decay(self.v, self.p, g)
        self.alpha = (fval - self.f_star) / (self._dot(g, v) + self.eps)
        self._commit(self._descend(w, self.alpha, v))


class LossGrad(_Stepper):
    """Multiplicative step-size control from the linearization residual.

    With the current scalar alpha, compare f(w - alpha g) against the
    linear model f(w) - alpha ||g||^2.  The residual ratio
    r = e / (alpha ||g||^2) decides: increase alpha by the factor rho when
    r < 1/2, otherwise decrease.  Costs one extra function evaluation per
    step (the probe) on top of f(w); no extra gradient.  Where alpha ||g||^2
    is 0.0 (g = 0, or the product underflows) a step keeps w and alpha.
    """

    def __init__(self, w0, alpha0: float, rho: float = 1.1):
        super().__init__(w0)
        self.alpha = _positive("alpha0", alpha0)
        self.rho = _finite("rho", rho)
        if self.rho <= 1:
            raise ValueError("adjustment factor rho must exceed 1")
        self._dot, self._descend = _kernel(self.point, *_DOT), _kernel(self.point, *_DESCEND)

    def step(self, obj: Objective):
        w = self.point
        g = obj.grad(w)
        gg = self._dot(g, g)
        if self.alpha * gg == 0.0:
            self._commit(w)
            return
        fval = obj.value(w)
        probe = obj.value(self._descend(w, self.alpha, g))
        e = probe - (fval - self.alpha * gg)
        r = e / (self.alpha * gg)
        if r < 0.5:
            self.alpha *= self.rho
        else:
            self.alpha /= self.rho
        self._commit(self._descend(w, self.alpha, g))


class RMSprop(_Stepper):
    """Normalize the gradient by a running average of its square.

    v <- beta v + (1 - beta) g*g;  w <- w - alpha * g / sqrt(v + eps).
    The eps sits inside the square root.
    """

    def __init__(self, w0, alpha: float, beta: float, eps: float = 1e-8):
        super().__init__(w0)
        self.alpha = _finite("alpha", alpha)
        self.beta = _rate("beta", beta)
        self.eps = _positive("eps", eps)
        self.v = _zeros(self.point)
        self._c = 1.0 - self.beta  # taken once, not per entry
        self._update = _kernel(self.point, "w, g, v, alpha, beta, c, eps",
                               "v = beta * v[i] + c * g[i] * g[i]",
                               "w = w[i] - alpha * g[i] / sqrt(v[i] + eps)")

    def step(self, obj: Objective):
        w = self.point
        self.v, w = self._update(w, obj.grad(w), self.v, self.alpha, self.beta, self._c,
                                 self.eps)
        self._commit(w)


class Adam(_Stepper):
    """Bias-corrected first/second moment smoothing (momentum + RMSprop)."""

    def __init__(self, w0, alpha: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(w0)
        self.alpha = _finite("alpha", alpha)
        self.beta1 = _rate("beta1", beta1)
        self.beta2 = _rate("beta2", beta2)
        self.eps = _positive("eps", eps)
        self.m, self.v = _zeros(self.point), _zeros(self.point)
        self._c1, self._c2 = 1.0 - self.beta1, 1.0 - self.beta2  # taken once, not per entry
        self._update = _kernel(self.point, "w, g, m, v, alpha, b1, c1, b2, c2, eps, d1, d2",
                               "m = b1 * m[i] + c1 * g[i]",
                               "v = b2 * v[i] + c2 * g[i] * g[i]",
                               "w = w[i] - alpha * (m[i] / d1) / (sqrt(v[i] / d2) + eps)")

    def step(self, obj: Objective):
        b1, b2, w = self.beta1, self.beta2, self.point
        g = obj.grad(w)
        k = self.k + 1
        self.m, self.v, w = self._update(w, g, self.m, self.v, self.alpha, b1, self._c1, b2,
                                         self._c2, self.eps, 1.0 - b1 ** k, 1.0 - b2 ** k)
        self._commit(w)


class IdbdScalar(_Stepper):
    """Scalar step-size adaptation against a decaying gradient trace.

    alpha <- alpha + eta * g.h;  w <- w - alpha g;  h <- lam * h + g.
    With lam = 0 the trace holds exactly the previous gradient, and the
    update is hypergradient descent (registered as "hd"): the first step
    leaves alpha unchanged.  alpha may go negative; no clamping.
    """

    def __init__(self, w0, eta: float, lam: float, alpha0: float):
        super().__init__(w0)
        self.eta = _finite("eta", eta)
        self.lam = _rate("lam", lam)
        self.alpha = _finite("alpha0", alpha0)
        self.h = _zeros(self.point)
        self._dot, self._descend = _kernel(self.point, *_DOT), _kernel(self.point, *_DESCEND)
        self._decay = _kernel(self.point, *_DECAY)

    def step(self, obj: Objective):
        w = self.point
        g = obj.grad(w)
        self.alpha = self.alpha + self.eta * self._dot(g, self.h)
        self._commit(self._descend(w, self.alpha, g))
        self.h = self._decay(self.h, self.lam, g)


class Idbd(_Stepper):
    """Per-parameter log step-sizes for online least-mean-squares.

    Runs on the LMS stream only: ``step(stream)`` draws one sample (x, y*)
    with ``stream.next()`` and applies, with error delta = y* - w.x,

        beta_i  += eta * delta * x_i * h_i
        alpha_i  = exp(beta_i)
        w_i     += alpha_i * delta * x_i
        h_i      = h_i * relu(1 - alpha_i * x_i^2) + alpha_i * delta * x_i

    The exponential keeps every alpha_i positive; the relu zeroes the trace
    decay exactly when alpha_i * x_i^2 >= 1, resetting the memory instead
    of letting a negative decay destabilize it.  beta has no check of its
    own: a beta_i of +inf or NaN makes w non-finite at the same sample, and a
    beta_i of -inf gives alpha_i = 0, as any beta_i below -745 does.
    """

    def __init__(self, w0, eta: float, beta0: float):
        super().__init__(w0)
        self.point = np.array(self.point)
        self.eta = _finite("eta", eta)
        self.beta = np.full_like(self.point, _finite("beta0", beta0))
        self.h = np.zeros_like(self.point)
        # exp(beta), the step-sizes in force, for traces; a beta0 above 709 gives inf
        with np.errstate(over="ignore"):
            self.last_alpha = np.exp(self.beta)

    def step(self, stream):
        x, y_star = stream.next()
        self.step_sample(x, y_star)

    def step_sample(self, x: Array, y_star: float):
        """One update on the sample ``(x, y_star)``.

        ``x`` is the float64 array of the iterate's dimension that
        ``LmsStream.next()`` returns; it is not validated here.
        """
        delta = float(y_star) - float(self.point @ x)
        beta = self.beta + self.eta * delta * x * self.h
        alpha = np.exp(beta)
        move = alpha * delta * x
        h = self.h * np.maximum(0.0, 1.0 - alpha * x * x) + move
        self._commit(self.point + move)
        self.beta, self.h, self.last_alpha = beta, h, alpha


def _hd(w0, eta: float, alpha0: float) -> IdbdScalar:
    """Hypergradient descent: alpha <- alpha + eta * f'(w_k).f'(w_{k-1})."""
    return IdbdScalar(w0, eta, 0.0, alpha0)


_OPTIMIZERS = {"gd": GradientDescent, "heavy_ball": HeavyBall, "nesterov": NesterovAGD,
               "polyak": PolyakStep, "l4": L4, "lossgrad": LossGrad, "rmsprop": RMSprop,
               "adam": Adam, "hd": _hd, "idbd1": IdbdScalar, "idbd": Idbd,
               "csawg": StepSizePlanner}


def make_optimizer(name: str, w0, params: dict | None = None):
    """Build a stepper by its registry name.

    Names: gd, heavy_ball, nesterov, polyak, l4, lossgrad, rmsprop, adam,
    hd, idbd, idbd1, csawg.
    """
    return _build("optimizer", _OPTIMIZERS, name, params or {}, w0)
