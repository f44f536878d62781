"""One-step update rules for the compared optimizers.

Each optimizer is a small stateful stepper: construct it at a start point,
then call ``step(objective)`` once per iteration.  Every step consumes
exactly one gradient evaluation; the function-value based rules (Polyak,
L4, LossGrad) additionally consume function evaluations, which the
objective counts separately.  Steppers do not police stability — finite
oscillation passes through, and only a non-finite iterate aborts.

Every stepper keeps its iterate in ``point`` and ends a step with
``_commit``.  The purely elementwise rules (gd, heavy_ball, nesterov,
rmsprop, adam) update each component on Python floats and keep ``point``
and their state vectors as lists, which they pass to the objective as they
are: at the dimensions they run in, a numpy ufunc call, or a conversion
between a tiny array and a list, costs more than the arithmetic.  ``+ - * /``
and ``sqrt`` round correctly in both, so the bytes are those of the
whole-array form.  The rules with a reduction (``g @ v``) or ``exp``, whose
results may round differently from a Python sum or ``math.exp``, keep
``point`` as a float64 array.  On every stepper ``w`` is a new float64 array
built from ``point``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Array, Objective, StationaryPointError, _Stepper, _build, _finite
from .planner import StepSizePlanner


class GradientDescent(_Stepper):
    """w <- w - gamma * f'(w) with a constant step-size."""

    def __init__(self, w0, gamma: float):
        super().__init__(w0)
        self.gamma = _finite("gamma", gamma)

    def step(self, obj: Objective):
        gamma, w = self.gamma, self.point
        self._commit([wi - gamma * gi for wi, gi in zip(w, obj.grad(w))])


class HeavyBall(_Stepper):
    """w <- w - gamma * f'(w) + p * delta, momentum on the last weight change."""

    def __init__(self, w0, gamma: float, p: float):
        super().__init__(w0)
        self.gamma = _finite("gamma", gamma)
        self.p = _finite("p", p)
        if not (0.0 <= self.p < 1.0):
            raise ValueError("momentum rate p must be in [0, 1)")
        self.delta = [0.0] * len(self.point)

    def step(self, obj: Objective):
        gamma, p, w = self.gamma, self.p, self.point
        g = obj.grad(w)
        w_new = [wi - gamma * gi + p * di for wi, gi, di in zip(w, g, self.delta)]
        self.delta = [wn - wi for wn, wi in zip(w_new, w)]
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
        self.L = _finite("L", L)
        if self.L <= 0:
            raise ValueError("L must be positive")
        if mode == "strongly_convex":
            if not (0 < self.mu <= self.L):
                raise ValueError("strongly_convex mode needs 0 < mu <= L")
        self.mode = mode
        self.step_size = _finite("step", step) if step is not None else 1.0 / self.L
        self.x = list(self.point)
        self.t = 1.0

    def step(self, obj: Objective):
        step_size = self.step_size
        g = obj.grad(self.x)
        w_new = [xi - step_size * gi for xi, gi in zip(self.x, g)]
        if self.mode == "strongly_convex":
            gamma_k = (math.sqrt(self.L) - math.sqrt(self.mu)) / (
                math.sqrt(self.L) + math.sqrt(self.mu)
            )
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * self.t * self.t)) / 2.0
            gamma_k = (self.t - 1.0) / t_next
            self.t = t_next
        self.x = [wn + gamma_k * (wn - wi) for wn, wi in zip(w_new, self.point)]
        self._commit(w_new)


class PolyakStep(_Stepper):
    """alpha = (f(w) - f*) / ||f'(w)||^2, requires the optimal value f*."""

    def __init__(self, w0, f_star: float = 0.0):
        super().__init__(w0)
        self.point = np.array(self.point)
        self.f_star = _finite("f_star", f_star)
        self.alpha = 0.0

    def step(self, obj: Objective):
        fval = obj.value(self.point)
        g = obj.grad(self.point)
        gg = float(g @ g)
        if gg == 0.0:
            if fval > self.f_star:
                raise StationaryPointError(
                    f"zero gradient with f(w) = {fval} above f* = {self.f_star}"
                )
            self.alpha = 0.0
            self._commit(self.point)
            return
        self.alpha = (fval - self.f_star) / gg
        self._commit(self.point - self.alpha * g)


class L4(_Stepper):
    """alpha = (f(w) - f*) / (f'(w).v + eps) along a direction v.

    ``direction='gradient'`` uses the raw gradient (where the rule and the
    Polyak step coincide as eps -> 0); ``direction='momentum'`` smooths the
    direction with v <- p * v + g.
    """

    def __init__(self, w0, f_star: float = 0.0, eps: float = 1e-12,
                 direction: str = "gradient", p: float = 0.9):
        super().__init__(w0)
        self.point = np.array(self.point)
        self.f_star = _finite("f_star", f_star)
        self.eps = _finite("eps", eps)
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if direction not in ("gradient", "momentum"):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        self.p = _finite("p", p)
        self.v = np.zeros_like(self.point)
        self.alpha = 0.0

    def step(self, obj: Objective):
        fval = obj.value(self.point)
        g = obj.grad(self.point)
        if self.direction == "gradient":
            v = g
        else:
            self.v = self.p * self.v + g
            v = self.v
        self.alpha = (fval - self.f_star) / (float(g @ v) + self.eps)
        self._commit(self.point - self.alpha * v)


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
        self.point = np.array(self.point)
        self.alpha = _finite("alpha0", alpha0)
        self.rho = _finite("rho", rho)
        if self.alpha <= 0:
            raise ValueError("alpha0 must be positive")
        if self.rho <= 1:
            raise ValueError("adjustment factor rho must exceed 1")

    def step(self, obj: Objective):
        g = obj.grad(self.point)
        gg = float(g @ g)
        if self.alpha * gg == 0.0:
            self._commit(self.point)
            return
        fval = obj.value(self.point)
        probe = obj.value(self.point - self.alpha * g)
        e = probe - (fval - self.alpha * gg)
        r = e / (self.alpha * gg)
        if r < 0.5:
            self.alpha *= self.rho
        else:
            self.alpha /= self.rho
        self._commit(self.point - self.alpha * g)


class RMSprop(_Stepper):
    """Normalize the gradient by a running average of its square.

    v <- beta v + (1 - beta) g*g;  w <- w - alpha * g / sqrt(v + eps).
    The eps sits inside the square root.
    """

    def __init__(self, w0, alpha: float, beta: float, eps: float = 1e-8):
        super().__init__(w0)
        self.alpha = _finite("alpha", alpha)
        self.beta = _finite("beta", beta)
        self.eps = _finite("eps", eps)
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        self.v = [0.0] * len(self.point)

    def step(self, obj: Objective):
        alpha, beta, eps = self.alpha, self.beta, self.eps
        g = obj.grad(self.point)
        self.v = v = [beta * vi + (1.0 - beta) * gi * gi for vi, gi in zip(self.v, g)]
        self._commit([wi - alpha * gi / math.sqrt(vi + eps)
                      for wi, gi, vi in zip(self.point, g, v)])


class Adam(_Stepper):
    """Bias-corrected first/second moment smoothing (momentum + RMSprop)."""

    def __init__(self, w0, alpha: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(w0)
        self.alpha = _finite("alpha", alpha)
        self.beta1 = _finite("beta1", beta1)
        self.beta2 = _finite("beta2", beta2)
        self.eps = _finite("eps", eps)
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1, beta2 must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        self.m = [0.0] * len(self.point)
        self.v = [0.0] * len(self.point)

    def step(self, obj: Objective):
        alpha, b1, b2, eps = self.alpha, self.beta1, self.beta2, self.eps
        g = obj.grad(self.point)
        k = self.k + 1
        self.m = m = [b1 * mi + (1.0 - b1) * gi for mi, gi in zip(self.m, g)]
        self.v = v = [b2 * vi + (1.0 - b2) * gi * gi for vi, gi in zip(self.v, g)]
        d1 = 1.0 - b1 ** k
        d2 = 1.0 - b2 ** k
        self._commit([wi - alpha * (mi / d1) / (math.sqrt(vi / d2) + eps)
                      for wi, mi, vi in zip(self.point, m, v)])


class IdbdScalar(_Stepper):
    """Scalar step-size adaptation against a decaying gradient trace.

    alpha <- alpha + eta * g.h;  w <- w - alpha g;  h <- lam * h + g.
    With lam = 0 the trace holds exactly the previous gradient, and the
    update is hypergradient descent (registered as "hd"): the first step
    leaves alpha unchanged.  alpha may go negative; no clamping.
    """

    def __init__(self, w0, eta: float, lam: float, alpha0: float):
        super().__init__(w0)
        self.point = np.array(self.point)
        self.eta = _finite("eta", eta)
        self.lam = _finite("lam", lam)
        self.alpha = _finite("alpha0", alpha0)
        if not (0.0 <= self.lam < 1.0):
            raise ValueError("lam must be in [0, 1)")
        self.h = np.zeros_like(self.point)

    def step(self, obj: Objective):
        g = obj.grad(self.point)
        self.alpha = self.alpha + self.eta * float(g @ self.h)
        self._commit(self.point - self.alpha * g)
        self.h = self.lam * self.h + g


class Idbd(_Stepper):
    """Per-parameter log step-sizes for online least-mean-squares.

    Driven by a stream rather than an objective: ``step(stream)`` draws one
    sample (x, y*) and applies, with error delta = y* - w.x,

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

    @property
    def alpha(self) -> Array:
        return np.exp(self.beta)

    # the per-parameter step-sizes in force after every step, for traces
    last_alpha = alpha

    def step(self, stream):
        x, y_star = stream.next()
        self.step_sample(x, y_star)

    def step_sample(self, x: Array, y_star: float):
        """One update on the sample ``(x, y_star)``.

        ``x`` is the float64 array of ``w``'s dimension that
        ``LmsStream.next()`` returns; it is not validated here.
        """
        delta = float(y_star) - float(self.point @ x)
        beta = self.beta + self.eta * delta * x * self.h
        alpha = np.exp(beta)
        w = self.point + alpha * delta * x
        h = self.h * np.maximum(0.0, 1.0 - alpha * x * x) + alpha * delta * x
        self._commit(w)
        self.beta, self.h = beta, h


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
