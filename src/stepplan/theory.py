"""Closed-form optimal step-sizes on quadratics and their numeric checks.

For f(w) = 1/2 w^T Q w with symmetric positive-definite Q, a
:class:`~stepplan.problems.QuadraticProblem` with its optimum at zero:

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

from dataclasses import dataclass, field

import numpy as np

from .core import Array, _count, _finite, as_vector
from .problems import QuadraticProblem, random_spd


class SingularDirectionError(ValueError):
    """A diagonal step is undefined: some gradient component, (Qw)_i on a
    quadratic, is exactly zero."""


def _scalar_step(q: Array, y: Array) -> float:
    """w^T Q^2 w / w^T Q^3 w, the scalar step minimizing the next loss, from
    y = Qw; a zero curvature w^T Q^3 w, at w = 0 or where it underflows, is a
    ``ValueError``."""
    curvature = float(y @ (q @ y))
    if curvature == 0.0:
        raise ValueError("optimal scalar step is undefined where w^T Q^3 w = 0 "
                         "(at w = 0, or when it underflows)")
    return float(y @ y) / curvature


def ideal_diag_step(w, g, target) -> Array:
    """(w_i - target_i) / g_i: the step that lands each component on the target."""
    w = as_vector(w, name="w")
    g, target = as_vector(g, w.size, "g"), as_vector(target, w.size, "target")
    if not g.all():
        bad = int(np.flatnonzero(g == 0.0)[0])
        raise SingularDirectionError(f"gradient component {bad} is zero")
    return (w - target) / g


def kantorovich_bound(mu: float, L: float) -> float:
    """1 - 4 mu L / (mu + L)^2, the scalar-optimum rate limit."""
    mu, L = _finite("mu", mu), _finite("L", L)
    if not (0 < mu <= L):
        raise ValueError(f"need 0 < mu <= L, got mu={mu!r}, L={L!r}")
    return 1.0 - 4.0 * mu * L / (mu + L) ** 2


@dataclass
class RateReport:
    """Outcome of one theorem check on one instance."""

    check: str
    rho: float
    bound: float
    skipped: bool = field(default=False, kw_only=True)

    @property
    def satisfied(self) -> bool:
        """Whether the check was skipped or ``rho <= bound`` to within 1e-12."""
        return self.skipped or self.rho <= self.bound + 1e-12


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
    """Run the four checks on one instance: ``q`` symmetric positive definite by
    :class:`~stepplan.problems.QuadraticProblem`'s rule, ``w`` of its
    dimension, and ``mu`` and ``L`` its extreme eigenvalues, to within
    1e-12 * L of the ones ``eigvalsh`` finds; they enter the Kantorovich bound
    and the grid as given.

    * ``scalar-rate``      rho(a*) <= Kantorovich bound,
    * ``scalar-grid``      f(a*) <= min over a 10 000-point step grid,
    * ``diag-one-step``    rho(diagonal a*) <= 1e-10 (skipped, with the
      next check, when some (Qw)_i = 0),
    * ``ideal-step-grid``  per-component grid minimizer of the post-update
      distance within one grid spacing of the closed form.

    ``(q, w)`` is checked once, and Qw and f(w) are computed once for all four.
    A zero curvature w^T Q^3 w, checked before f(w) = 0, is a ``ValueError``; so is f(w) = 0.
    """
    f = QuadraticProblem(q)
    w = as_vector(w, f.dimension, name="w")
    y = f.gradient(w)
    fw = f.value(w)
    reports: list[RateReport] = []

    step = _scalar_step(f.q, y)
    if fw == 0.0:
        raise ValueError("reduction ratio undefined at f(w) = 0")
    rho = f.value(w - step * y) / fw
    bound = kantorovich_bound(mu, L)
    if abs(mu - f.mu) > 1e-12 * f.L or abs(L - f.L) > 1e-12 * f.L:
        raise ValueError(f"mu and L must be Q's extreme eigenvalues {f.mu!r} and {f.L!r} "
                         f"(within 1e-12 * L), got mu={mu!r}, L={L!r}")
    reports.append(RateReport("scalar-rate", rho, bound))

    grid_best = _grid_scalar_oracle(f.q, w, y, fw, L)
    reports.append(RateReport("scalar-grid", rho, grid_best))

    if not y.all():
        for check in ("diag-one-step", "ideal-step-grid"):
            reports.append(RateReport(check, float("nan"), 1e-10, skipped=True))
        return reports

    diag_step = w / y
    rho_d = f.value(w - diag_step * y) / fw
    reports.append(RateReport("diag-one-step", rho_d, 1e-10))

    gap = _grid_component_gap(w, y, diag_step)
    reports.append(RateReport("ideal-step-grid", gap, 1.0))
    return reports


def verify_theorems(trials: int, d_max: int = 10, seed: int = 0) -> list[RateReport]:
    """Check the closed-form results on random SPD instances.

    Per trial: random dimension <= d_max, condition number log-uniform up
    to 1e6, random nonzero w, then the four :func:`check_instance` checks.
    Failures are reported, not raised.
    """
    trials, d_max = _count("trials", trials, 1), _count("d_max", d_max)
    seed = _count("seed", seed, 0)
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
