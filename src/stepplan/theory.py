"""Closed-form optimal step-sizes on quadratics and their numeric checks.

For f(w) = 1/2 w^T Q w with SPD Q (the optimum translated to zero):

* the best scalar step for one iteration is  a* = w^T Q^2 w / w^T Q^3 w,
  and its one-step error-reduction ratio never exceeds the Kantorovich
  limit 1 - 4 mu L / (mu + L)^2;
* the best diagonal step is  a*_i = w_i / (Qw)_i, which reaches the
  optimum in a single iteration whenever no (Qw)_i vanishes — for
  diagonal Q this is exactly the inverse spectrum (1/mu, ..., 1/L);
* for a known target, the per-component step (w_i - target_i) / g_i lands
  exactly on the target, the deterministic form of the distance-minimizing
  diagonal step.

``verify_theorems`` stress-tests all three statements on random SPD
instances against brute-force grid oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array, _count, _real_array, _seed, as_vector
from .problems import random_spd


class SingularDirectionError(ValueError):
    """A diagonal step is undefined: some gradient component, (Qw)_i on a
    quadratic, is exactly zero."""


def _check_spd_input(q, w) -> tuple[Array, Array]:
    q = _real_array(q, "Q")
    w = as_vector(w)
    if q.shape != (w.size, w.size):
        raise ValueError(f"Q shape {q.shape} does not match w dimension {w.size}")
    return q, w


def quadratic_value(q, w) -> float:
    """f(w) = 1/2 w^T Q w (optimum-at-zero convention)."""
    q, w = _check_spd_input(q, w)
    return _value(q, w)


def _value(q: Array, w: Array) -> float:
    return float(0.5 * w @ q @ w)


def optimal_scalar_step(q, w) -> float:
    """w^T Q^2 w / w^T Q^3 w, the scalar step minimizing the next loss."""
    q, w = _check_spd_input(q, w)
    return _scalar_step(q, q @ w)


def _scalar_step(q: Array, y: Array) -> float:
    """``optimal_scalar_step`` from y = Qw; a zero curvature w^T Q^3 w, at w = 0
    or where it underflows, is a ``ValueError``."""
    curvature = float(y @ (q @ y))
    if curvature == 0.0:
        raise ValueError("optimal scalar step is undefined where w^T Q^3 w = 0 "
                         "(at w = 0, or when it underflows)")
    return float(y @ y) / curvature


def optimal_diag_step(q, w) -> Array:
    """w_i / (Qw)_i, the diagonal step reaching the optimum in one iteration:
    ``ideal_diag_step`` with the gradient Qw and the target 0."""
    q, w = _check_spd_input(q, w)
    return ideal_diag_step(w, q @ w, np.zeros(w.size))


def ideal_diag_step(w, g, target) -> Array:
    """(w_i - target_i) / g_i: the step that lands each component on the target."""
    w = as_vector(w)
    g = as_vector(g, dim=w.size)
    target = as_vector(target, dim=w.size)
    if np.any(g == 0.0):
        bad = int(np.flatnonzero(g == 0.0)[0])
        raise SingularDirectionError(f"gradient component {bad} is zero")
    return (w - target) / g


def reduction_ratio(q, w, step) -> float:
    """f(w - step * Qw) / f(w) for a scalar or per-component step."""
    q, w = _check_spd_input(q, w)
    return _ratio(q, w, q @ w, _value(q, w), np.asarray(step, dtype=float))


def _ratio(q: Array, w: Array, y: Array, fw: float, step) -> float:
    """``reduction_ratio`` from y = Qw and fw = f(w)."""
    if fw == 0.0:
        raise ValueError("reduction ratio undefined at f(w) = 0")
    return _value(q, w - step * y) / fw


def kantorovich_bound(mu: float, L: float) -> float:
    """1 - 4 mu L / (mu + L)^2, the scalar-optimum rate limit."""
    if not (0 < mu <= L):
        raise ValueError("need 0 < mu <= L")
    return 1.0 - 4.0 * mu * L / (mu + L) ** 2


@dataclass
class RateReport:
    """Outcome of one theorem check on one instance."""

    check: str
    rho: float
    bound: float
    satisfied: bool
    skipped: bool = False


def _grid_scalar_oracle(q, w, y, fw: float, L: float) -> float:
    """Brute-force the best next-loss ratio over a 10 000-point step grid on [0, 2/L],
    from y = Qw and fw = f(w)."""
    alphas = np.linspace(0.0, 2.0 / L, 10_000)
    candidates = w[None, :] - alphas[:, None] * y[None, :]
    values = 0.5 * np.einsum("ij,jk,ik->i", candidates, q, candidates)
    return float(values.min()) / fw


def _grid_component_gap(w, g, exact) -> float:
    """Largest distance (in grid spacings) between the per-component grid
    minimizer of the post-update distance to 0 and the closed-form step ``exact``,
    on one 2001-point grid row per component, ``exact_i +- max(1, 2 |exact_i|)``."""
    radius = np.fmax(1.0, 2.0 * np.abs(exact))
    grid = np.linspace(exact - radius, exact + radius, 2001, axis=1)
    spacing = grid[:, 1] - grid[:, 0]
    best = grid[np.arange(w.size), np.argmin((w[:, None] - grid * g[:, None]) ** 2, axis=1)]
    return float(np.fmax.reduce(np.abs(best - exact) / spacing, initial=0.0))  # skips NaN


def check_instance(q, mu: float, L: float, w) -> list[RateReport]:
    """Run the four checks on one SPD instance.

    * ``scalar-rate``      rho(a*) <= Kantorovich bound,
    * ``scalar-grid``      f(a*) <= min over a 10 000-point step grid,
    * ``diag-one-step``    rho(diagonal a*) <= 1e-10 (skipped, with the
      next check, when some (Qw)_i = 0),
    * ``ideal-step-grid``  per-component grid minimizer of the post-update
      distance within one grid spacing of the closed form.

    ``(q, w)`` is checked once, and Qw and f(w) are computed once for all four.
    """
    q, w = _check_spd_input(q, w)
    y = q @ w
    fw = _value(q, w)
    reports: list[RateReport] = []

    rho = _ratio(q, w, y, fw, _scalar_step(q, y))
    bound = kantorovich_bound(mu, L)
    reports.append(RateReport("scalar-rate", rho, bound, rho <= bound + 1e-12))

    grid_best = _grid_scalar_oracle(q, w, y, fw, L)
    reports.append(RateReport("scalar-grid", rho, grid_best, rho <= grid_best + 1e-12))

    if not y.all():
        for check in ("diag-one-step", "ideal-step-grid"):
            reports.append(RateReport(check, float("nan"), 1e-10, True, skipped=True))
        return reports

    diag_step = ideal_diag_step(w, y, np.zeros(w.size))
    rho_d = _ratio(q, w, y, fw, diag_step)
    reports.append(RateReport("diag-one-step", rho_d, 1e-10, rho_d <= 1e-10 + 1e-12))

    gap = _grid_component_gap(w, y, diag_step)
    reports.append(RateReport("ideal-step-grid", gap, 1.0, gap <= 1.0 + 1e-12))
    return reports


def verify_theorems(trials: int, d_max: int = 10, seed: int = 0) -> list[RateReport]:
    """Check the closed-form results on random SPD instances.

    Per trial: random dimension <= d_max, condition number log-uniform up
    to 1e6, random nonzero w, then the four :func:`check_instance` checks.
    Failures are reported, not raised.
    """
    trials, d_max, seed = _count("trials", trials), _count("d_max", d_max), _seed(seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (1 <= d_max <= 64):
        raise ValueError("d_max must be in [1, 64] (dense instances only)")
    rng = np.random.default_rng(seed)
    reports: list[RateReport] = []
    for _ in range(trials):
        d = int(rng.integers(1, d_max + 1))
        cond = 10.0 ** rng.uniform(0.0, 6.0)  # up to 1e6
        q, mu, L = random_spd(rng, d, cond)
        w = rng.standard_normal(d)
        while not np.any(w):
            w = rng.standard_normal(d)
        reports.extend(check_instance(q, mu, L, w))
    return reports


def summarize_reports(reports: list[RateReport]) -> dict:
    """Aggregate reports per check: counts, worst rho/margin, pass flag.

    Bounds differ per instance (Kantorovich depends on mu and L; the grid
    oracle on the instance), so the aggregate keeps the worst margin
    ``bound - rho`` rather than any single bound.
    """
    summary: dict = {}
    for r in reports:
        entry = summary.setdefault(r.check, {
            "trials": 0, "failures": 0, "skipped": 0,
            "worst_rho": None, "worst_margin": None,
        })
        entry["trials"] += 1
        if r.skipped:
            entry["skipped"] += 1
            continue
        if not r.satisfied:
            entry["failures"] += 1
        if entry["worst_rho"] is None or r.rho > entry["worst_rho"]:
            entry["worst_rho"] = r.rho
        margin = r.bound - r.rho
        if entry["worst_margin"] is None or margin < entry["worst_margin"]:
            entry["worst_margin"] = margin
    for entry in summary.values():
        entry["passed"] = entry["failures"] == 0
    return summary
