"""Seeded invariant checks cross-validating the closed forms against oracles.

Each check draws its own samples from a seeded generator, returns the
violations it found (as human-readable strings), and never raises on a
violation, so a runner can report everything at once.  The same
functions back both the command-line `verify` subcommand and the
acceptance test suite; only the sample counts differ.

The generators are NumPy's, imported by `_rng` when a check first draws,
so importing this module (as `coopjam.cli` does) does not load NumPy.
A check draws all its samples as one array (`_uniform_rows`), in blocks
of rows where it rejects some (`_kept_rows`).  NumPy computes
`rng.uniform(lo, hi)` as lo + (hi - lo) * u from the generator's next
double u, and so do these, row by row, so every sample has the bits of
the one-at-a-time `rng.uniform` calls made in the same order.

The soundness and interferer-off checks evaluate their samples as
columns, with the sweep's kernels (`_columns`, imported by the checks
themselves, which set their own floating-point error state), and replay
the rows those flag through the scalar functions, as `sweep` does; the
other checks see their samples as Python floats.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .achievable import Thresholds, achievable_rate, wiretap_capacity
from .bound import (
    _f_numerator,
    _star_terms,
    _unsound,
    rho_min_oracle,
    rho_star,
    sato_f,
    sato_upper_bound,
)
from .model import _GRID_STEPS, ChannelGains, DomainError, PowerAllocation, PowerBudget
from .power import (
    _check_grid_steps,
    asymptotic_rate,
    grid_search_allocation,
    optimal_allocation,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CheckResult",
    "asymptotics_check",
    "continuity_check",
    "interferer_off_check",
    "power_oracle_check",
    "rho_star_check",
    "run_all",
    "soundness_check",
]

ORACLE_RATE_TOL = 2e-3
GRID_EXCESS_TOL = 1e-9
RHO_F_TOL = 1e-8
STATIONARITY_TOL = 1e-6
DEGENERATION_TOL = 1e-12
CONTINUITY_PROBE = 1e-7
CONTINUITY_TOL = 1e-5
ASYMPTOTIC_TOL = 1e-2
ASYMPTOTIC_BUDGET = 1e8
LINE_MARGIN = 0.05


@dataclass
class CheckResult:
    """Outcome of one check: its name, sample count, any violations, and
    its wall time in seconds (set by `run_all`)."""

    name: str
    samples: int
    violations: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(seed)


# The sampling box: gains, budgets and the continuity probes' powers.
_GAIN = (0.05, 5.0)
_POWER = (0.1, 10.0)
# A draw from here is the fraction of a budget a row spends.
_SHARE = (0.0, 1.0)


def _uniform_rows(rng: np.random.Generator, n: int, ranges) -> np.ndarray:
    """n rows of `rng.uniform(lo, hi)` for each (lo, hi) of `ranges`, in order.

    Returns an (n, len(ranges)) array whose row-major order is the order
    of the one-at-a-time draws.  lo + (hi - lo) * u is NumPy's own
    formula, so the bits are the same too; a share u times a budget P is
    `rng.uniform(0.0, P)`.
    """
    import numpy as np

    lo, hi = np.array(ranges, dtype=float).T
    return lo + (hi - lo) * rng.random((n, len(ranges)))


def _kept_rows(rng: np.random.Generator, n: int, ranges, keep) -> np.ndarray:
    """The first n rows of `_uniform_rows` whose columns `keep` accepts.

    Blocks of rows are drawn from `rng` until n are kept, so the rows are
    those a one-row-at-a-time rejection loop would keep, in its order.
    """
    import numpy as np

    kept = np.empty((0, len(ranges)))
    while len(kept) < n:
        rows = _uniform_rows(rng, n - len(kept), ranges)
        kept = np.concatenate([kept, rows[keep(*rows.T)]])
    return kept


def soundness_check(n_samples: int, seed: int) -> CheckResult:
    """Every achievable rate at a feasible allocation stays below the bound.

    The rate and the bound come from the sweep's column kernels, which
    flag the rows they cannot vouch for, unsound ones included; those are
    replayed through `achievable_rate` and `sato_upper_bound`, so a
    violation is reported with the scalar path's values.
    """
    from ._columns import _rate_and_bound

    rows = _uniform_rows(_rng(seed), n_samples, (_GAIN, _GAIN, _POWER, _POWER, _SHARE, _SHARE))
    rows[:, 4:] *= rows[:, 2:4]
    a, b, pb1, pb2, p1, p2 = rows.T
    replay = _rate_and_bound(a, b, p1, p2, pb1, pb2)[3]
    result = CheckResult("soundness", n_samples)
    for a, b, pb1, pb2, p1, p2 in rows[replay].tolist():
        gains = ChannelGains(a, b)
        budget = PowerBudget(pb1, pb2)
        alloc = PowerAllocation(p1, p2)
        rate, _ = achievable_rate(gains, alloc)
        upper = sato_upper_bound(gains, budget).final_bound
        if _unsound(rate.value, upper.value):
            result.violations.append(
                f"rate {rate.value} > bound {upper.value} at {gains}, {alloc}"
            )
    return result


def power_oracle_check(n_configs: int, seed: int, n_steps: int = _GRID_STEPS) -> CheckResult:
    """Closed-form power control agrees with the augmented-lattice maximum.

    The lattice contains the closed-form operating point by
    construction, so the grid can fall short of the closed form only by
    its own resolution, and must never beat it materially: a grid win
    beyond tolerance would mean the case analysis is not optimal.
    """
    rows = _uniform_rows(_rng(seed), n_configs, (_GAIN, _GAIN, _POWER, _POWER))
    result = CheckResult("power-oracle", n_configs)
    for a, b, pb1, pb2 in rows.tolist():
        gains = ChannelGains(a, b)
        budget = PowerBudget(pb1, pb2)
        closed = optimal_allocation(gains, budget)
        grid = grid_search_allocation(gains, budget, n_steps)
        diff = closed.rate.value - grid.rate.value
        if abs(diff) > ORACLE_RATE_TOL:
            result.violations.append(
                f"closed {closed.rate.value} vs grid {grid.rate.value} at {gains}, {budget}"
            )
        if diff < -GRID_EXCESS_TOL:
            result.violations.append(
                f"grid beats closed form by {-diff} at {gains}, {budget}"
            )
    return result


def _f_slope(a: float, b: float, p1: float, p2: float, rho: float) -> float:
    """df/drho at `rho`, from f's cancellation-free numerator.

    f = (1/2) log2(N / ((1 - rho^2) B)) with N = A*B - (rho + s)^2, so
    df/drho = [2 rho / ((1 - rho)(1 + rho)) - 2 (rho + s) / N] / (2 ln 2).
    N is `bound._f_numerator`: it keeps its digits where rho* nears 1 and
    N is small, where a difference quotient of f in floats does not.
    """
    s, _, d_lo, _, _ = _star_terms(a, b, p1, p2)
    n = _f_numerator(rho, s, d_lo)
    return (2.0 * rho / ((1.0 - rho) * (1.0 + rho)) - 2.0 * (rho + s) / n) / (2.0 * math.log(2.0))


def rho_star_check(n_points: int, seed: int) -> CheckResult:
    """Closed-form correlation minimizer matches the golden-section oracle,
    and f's slope in rho vanishes there (`_f_slope`)."""
    import numpy as np

    def cross_amplitude(a, b, p1, p2):  # s of `bound`, away from its s = 0 case
        return np.sqrt(a) * p1 + np.sqrt(b) * p2 > 1e-3

    ranges = (_GAIN, _GAIN, (0.0, 10.0), (0.0, 10.0))
    rows = _kept_rows(_rng(seed), n_points, ranges, cross_amplitude)
    result = CheckResult("rho-star", n_points)
    for a, b, p1, p2 in rows.tolist():
        gains = ChannelGains(a, b)
        alloc = PowerAllocation(p1, p2)
        star = rho_star(gains, alloc)
        numeric = rho_min_oracle(gains, alloc)
        f_star = sato_f(gains, alloc, star)
        f_numeric = sato_f(gains, alloc, numeric)
        if abs(f_star - f_numeric) > RHO_F_TOL:
            result.violations.append(
                f"|f(rho*) - f(oracle)| = {abs(f_star - f_numeric)} at {gains}, {alloc}"
            )
        slope = _f_slope(a, b, p1, p2, star.rho)
        if abs(slope) > STATIONARITY_TOL:
            result.violations.append(
                f"|df/drho| = {abs(slope)} at rho*={star.rho} for {gains}, {alloc}"
            )
    return result


def interferer_off_check(n_points: int, seed: int) -> CheckResult:
    """With the jammer silent, every branch collapses to the wiretap baseline.

    The rate comes from the sweep's rate kernel, and a row it flags is
    replayed through `achievable_rate`; the baseline is `wiretap_capacity`.
    """
    from ._columns import _rate_columns

    rows = _uniform_rows(_rng(seed), n_points, ((0.0, 5.0), (0.0, 8.0), (0.0, 10.0)))
    rates, _, replay = _rate_columns(*rows.T, 0.0)
    result = CheckResult("interferer-off", n_points)
    for (a, b, p1), rate, again in zip(rows.tolist(), rates.tolist(), replay.tolist()):
        if again:
            rate = achievable_rate(ChannelGains(a, b), PowerAllocation(p1, 0.0))[0].value
        baseline = wiretap_capacity(a, p1)
        if abs(rate - baseline.value) > DEGENERATION_TOL:
            result.violations.append(
                f"|rate - wiretap| = {abs(rate - baseline.value)} at a={a}, b={b}, p1={p1}"
            )
    return result


# What one cycle of the six continuity kinds draws, in order: each kind's
# p1 and p2, then its own gain; kind 5 redraws p2 below 3.5, then b.
_CONTINUITY_DRAWS = (
    *(_POWER, _POWER, _GAIN) * 2,
    *(_POWER, _POWER, (0.05, 0.95)) * 2,
    _POWER, _POWER, (0.0, 5.0),
    _POWER, _POWER, (0.1, 3.5), (0.0, 5.0),
)


def continuity_check(n_points: int, seed: int) -> CheckResult:
    """The rate is continuous across every piecewise boundary.

    Cycles through the six boundary families (b = 1+P1, b = 1, b =
    beta1, b = beta2, a = 1, a = 1+P2), probing each sampled boundary
    from both sides.
    """
    cycles = -(-n_points // 6)
    draws = iter(_uniform_rows(_rng(seed), cycles, _CONTINUITY_DRAWS).ravel().tolist())
    result = CheckResult("continuity", n_points)
    eps = CONTINUITY_PROBE

    def rate(a: float, b: float, p1: float, p2: float) -> float:
        r, _ = achievable_rate(ChannelGains(a, b), PowerAllocation(p1, p2))
        return r.value

    for i in range(n_points):
        kind = i % 6
        p1, p2 = next(draws), next(draws)
        if kind == 0:  # b = 1 + P1, either regime
            a = next(draws)
            lo, hi = rate(a, 1.0 + p1 - eps, p1, p2), rate(a, 1.0 + p1 + eps, p1, p2)
            where = f"b=1+P1, a={a}"
        elif kind == 1:  # b = 1
            a = next(draws)
            lo, hi = rate(a, 1.0 - eps, p1, p2), rate(a, 1.0 + eps, p1, p2)
            where = f"b=1, a={a}"
        elif kind in (2, 3):  # b = beta1 or b = beta2, needs a < 1
            a = next(draws)
            th = Thresholds.at(ChannelGains(a, 0.0), PowerAllocation(p1, p2))
            name, b0 = ("beta1", th.beta1) if kind == 2 else ("beta2", th.beta2)
            lo, hi = rate(a, b0 - eps, p1, p2), rate(a, b0 + eps, p1, p2)
            where = f"b={name}={b0}, a={a}"
        elif kind == 4:  # a = 1
            b = next(draws)
            lo, hi = rate(1.0 - eps, b, p1, p2), rate(1.0 + eps, b, p1, p2)
            where = f"a=1, b={b}"
        else:  # a = 1 + P2
            p2, b = next(draws), next(draws)
            a0 = 1.0 + p2
            lo, hi = rate(a0 - eps, b, p1, p2), rate(a0 + eps, b, p1, p2)
            where = f"a=1+P2={a0}, b={b}"
        if abs(hi - lo) > CONTINUITY_TOL:
            result.violations.append(
                f"jump {abs(hi - lo)} across {where}, p1={p1}, p2={p2}"
            )
    return result


def asymptotics_check(n_points: int, seed: int) -> CheckResult:
    """Power control at a huge budget approaches the unconstrained limit.

    Samples keep |b - 1| and |ab - 1| at least 0.05, away from the lines
    b = 1 and ab = 1 where the limit function switches branch.
    """

    def off_the_lines(a, b):
        return (abs(b - 1.0) >= LINE_MARGIN) & (abs(a * b - 1.0) >= LINE_MARGIN)

    rows = _kept_rows(_rng(seed), n_points, (_GAIN, _GAIN), off_the_lines)
    result = CheckResult("asymptotics", n_points)
    budget = PowerBudget(ASYMPTOTIC_BUDGET, ASYMPTOTIC_BUDGET)
    for a, b in rows.tolist():
        gains = ChannelGains(a, b)
        limit = asymptotic_rate(gains)
        attained = optimal_allocation(gains, budget).rate
        if abs(attained.value - limit.value) > ASYMPTOTIC_TOL:
            result.violations.append(
                f"|rate {attained.value} - limit {limit.value}| at {gains}"
            )
    return result


def _timed(check, *args) -> CheckResult:
    start = time.perf_counter()
    result = check(*args)
    result.elapsed_s = time.perf_counter() - start
    return result


def run_all(samples: int, seed: int, grid_steps: int = _GRID_STEPS) -> list[CheckResult]:
    """Run every check, scaling the heavier ones down from `samples`.

    The arguments are checked before any check runs.
    """
    for name, value, minimum in (("samples", samples, 1), ("seed", seed, 0)):
        # bool is an int subclass, but True is not a count.
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise DomainError(f"{name} must be >= {minimum}, got {value}")
    _check_grid_steps(grid_steps)
    return [
        _timed(soundness_check, samples, seed),
        _timed(power_oracle_check, max(10, samples // 20), seed + 1, grid_steps),
        _timed(rho_star_check, max(50, samples // 4), seed + 2),
        _timed(interferer_off_check, max(100, samples // 2), seed + 3),
        _timed(continuity_check, max(60, samples // 10), seed + 4),
        _timed(asymptotics_check, max(40, samples // 10), seed + 5),
    ]
