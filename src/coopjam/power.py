"""Rate-maximizing power control, its brute-force oracle, and power limits.

The closed-form allocation follows two case analyses, one for a >= 1 and
one for a < 1.  Two critical powers appear in them:

* p1_star = b - 1: the largest transmit power at which the receiver can
  still decode the jamming signal first and cancel it.
* p2_star: the stationary jammer power of the treat-as-noise branch,
  beyond which extra jamming hurts the receiver more than the
  eavesdropper.

`grid_search_allocation` is an independently-maximizing lattice oracle
used to validate the closed form.  It evaluates the same rate terms and
interval tests as `achievable_rate` and never consults the allocation
case analysis (it only adds the critical points as extra lattice
candidates, so agreement is not limited by lattice resolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .achievable import BranchLabel, _conditions, _terms, achievable_rate
from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _require_finite,
    pos_part,
)

__all__ = [
    "AllocationResult",
    "AllocationSource",
    "CriticalPowers",
    "asymptotic_rate",
    "critical_powers",
    "grid_search_allocation",
    "optimal_allocation",
    "wiretap_asymptotic_rate",
]

# The p2_star formula divides by 1 - a*b; closer to the degraded line
# than this it is ill-conditioned and the grid oracle takes over.
_DEGRADED_TOL = 1e-9
# critical_powers refuses p2_star this close to a*b = 1, where 1 - a*b may
# round to zero, and the grid asks for it only outside; _DEGRADED_TOL is
# wider because it is about the closed form's accuracy, not definedness.
_DEGRADED_EXACT_TOL = 1e-12


class AllocationSource(Enum):
    CLOSED_FORM = "closed_form"
    GRID_ORACLE = "grid_oracle"


@dataclass(frozen=True, slots=True)
class AllocationResult:
    """A chosen operating point, the rate it achieves, and where it came from."""

    alloc: PowerAllocation
    rate: RateValue
    source: AllocationSource
    branch: BranchLabel


@dataclass(frozen=True, slots=True)
class CriticalPowers:
    """The two closed-form critical powers for a given budget.

    p1_star may be negative when b < 1 (the decode-first strategy is
    then never available).  p2_star is +inf when b == 0, where jamming
    never reaches the receiver and any jammer power helps; it is NaN
    when the stationary point does not exist (negative radicand), which
    can happen only outside the allocation cases that consume it.
    """

    p1_star: float
    p2_star: float


def critical_powers(gains: ChannelGains, budget: PowerBudget) -> CriticalPowers:
    """Evaluate both critical powers; requires a*b < 1 for p2_star."""
    a, b = gains.a, gains.b
    if a * b >= 1.0 - _DEGRADED_EXACT_TOL:
        raise DomainError(f"p2_star is defined only for a*b < 1, got a*b = {a * b}")
    p1_star = b - 1.0
    if b == 0.0:
        p2_star = math.inf
    else:
        radicand = (a - 1.0) ** 2 + (1.0 / b - a) * (
            a - b + (1.0 - b) * a * budget.p1_max
        )
        if radicand >= -1e-12:
            p2_star = (a - 1.0 + math.sqrt(max(radicand, 0.0))) / (1.0 - a * b)
        else:
            p2_star = math.nan
    return CriticalPowers(p1_star, p2_star)


def optimal_allocation(
    gains: ChannelGains, budget: PowerBudget, *, fallback_grid_steps: int = 300
) -> AllocationResult:
    """Rate-maximizing powers within `budget`, by the closed-form cases.

    Near the degraded line a*b = 1.0 (within 1e-9), the branches that
    need p2_star fall back to the grid oracle because the closed form is
    numerically unstable there; the result then reports GRID_ORACLE as
    its source.
    """
    a, b = gains.a, gains.b
    pb1, pb2 = budget.p1_max, budget.p2_max
    ab = a * b

    if a >= 1.0:
        if b > 1.0 and pb2 > a - 1.0:
            alloc = PowerAllocation(min(pb1, b - 1.0), pb2)
        elif ab < 1.0 and pb2 * (1.0 - ab) > a - 1.0:
            if 1.0 - ab < _DEGRADED_TOL:
                return grid_search_allocation(gains, budget, fallback_grid_steps)
            p2_star = critical_powers(gains, budget).p2_star
            if not p2_star >= 0.0:
                raise InvariantViolation(f"p2_star {p2_star} < 0 at {gains}, {budget}")
            alloc = PowerAllocation(pb1, min(pb2, p2_star))
        else:
            alloc = PowerAllocation(0.0, 0.0)
    else:
        if b >= 1.0 and pb1 < b - 1.0:
            alloc = PowerAllocation(pb1, pb2)
        elif ab >= 1.0 and pb1 >= b - 1.0 and pb2 * (ab - 1.0) < 1.0 - a:
            alloc = PowerAllocation(pb1, pb2)
        elif ab >= 1.0 and pb1 >= b - 1.0:
            alloc = PowerAllocation(b - 1.0, pb2)
        elif b >= 1.0 and b - 1.0 <= pb1 and pb1 * (1.0 - ab) < b - 1.0:
            alloc = PowerAllocation(pb1, pb2)
        elif b < 1.0 and a * (1.0 - b) * pb1 >= b - a:
            if 1.0 - ab < _DEGRADED_TOL:
                return grid_search_allocation(gains, budget, fallback_grid_steps)
            p2_star = critical_powers(gains, budget).p2_star
            if not p2_star >= 0.0:
                raise InvariantViolation(f"p2_star {p2_star} < 0 at {gains}, {budget}")
            alloc = PowerAllocation(pb1, min(pb2, p2_star))
        else:
            alloc = PowerAllocation(pb1, 0.0)

    if not alloc.within(budget):
        raise InvariantViolation(f"allocation {alloc} exceeds budget {budget}")
    rate, branch = achievable_rate(gains, alloc)
    return AllocationResult(alloc, rate, AllocationSource.CLOSED_FORM, branch)


def _rate_grid(a: float, b: float, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Achievable rate on the outer product of two power vectors.

    Evaluates the terms and tests of `achievable_rate` on whole arrays so
    the lattice oracle stays fast.  Returns a (len(p1), len(p2)) array.
    """
    P1 = np.asarray(p1, dtype=float)[:, None]
    P2 = np.asarray(p2, dtype=float)[None, :]
    zero, decode, joint, mid = _conditions(a, b, P1, P2)
    v_decode, v_joint, v_mid, v_noise = _terms(a, b, P1, P2, np.log2)
    inner = np.where(joint, v_joint, np.where(mid, v_mid, v_noise))
    rate = np.where(zero, 0.0, np.where(decode, v_decode, inner))
    return np.maximum(rate, 0.0)


def grid_search_allocation(
    gains: ChannelGains, budget: PowerBudget, n_steps: int
) -> AllocationResult:
    """Brute-force maximization over a lattice spanning the budget box.

    Evaluates the rate on an (n_steps+1)^2 lattice augmented with the
    closed-form critical powers (clamped to the budget, when finite and
    nonnegative).  Deterministic: ties are broken toward the smallest
    p1, then the smallest p2.
    """
    if not isinstance(n_steps, int) or n_steps < 2:
        raise DomainError(f"n_steps must be an integer >= 2, got {n_steps!r}")
    a, b = gains.a, gains.b
    pb1, pb2 = budget.p1_max, budget.p2_max

    cand1 = np.linspace(0.0, pb1, n_steps + 1)
    cand2 = np.linspace(0.0, pb2, n_steps + 1)
    if b - 1.0 >= 0.0:
        cand1 = np.append(cand1, min(b - 1.0, pb1))
    if a * b < 1.0 - _DEGRADED_EXACT_TOL:
        p2_star = critical_powers(gains, budget).p2_star
        if math.isfinite(p2_star) and p2_star >= 0.0:
            cand2 = np.append(cand2, min(p2_star, pb2))
    cand1 = np.unique(cand1)
    cand2 = np.unique(cand2)

    rates = _rate_grid(a, b, cand1, cand2)
    # C-order argmax scans p1-major, p2-minor: first maximum found is the
    # lexicographically smallest allocation among exact ties.
    i, j = divmod(int(np.argmax(rates)), rates.shape[1])
    alloc = PowerAllocation(float(cand1[i]), float(cand2[j]))
    rate, branch = achievable_rate(gains, alloc)
    return AllocationResult(alloc, rate, AllocationSource.GRID_ORACLE, branch)


def asymptotic_rate(gains: ChannelGains) -> RateValue:
    """Secrecy rate in the limit of unconstrained power on both budgets.

    A gain of exactly zero on either link makes the limit diverge; the
    returned value is then the unbounded marker (+inf).
    """
    a, b = gains.a, gains.b
    if a == 0.0 or b == 0.0:
        return RateValue(math.inf)
    if a >= 1.0:
        if b > 1.0:
            value = 0.5 * math.log2(b)
        elif a * b < 1.0:
            value = 0.5 * math.log2(1.0 / (a * b))
        else:
            value = 0.0
    else:
        if a * b > 1.0:
            value = 0.5 * math.log2(b)
        elif b < 1.0:
            value = 0.5 * math.log2(1.0 / (a * b))
        else:
            value = 0.5 * math.log2(1.0 / a)
    return RateValue(value)


def wiretap_asymptotic_rate(a: float) -> RateValue:
    """Power-unconstrained secrecy capacity without a jammer: (1/2)[log2(1/a)]+."""
    a = _require_finite("gain a", a, minimum=0.0)
    if a == 0.0:
        return RateValue(math.inf)
    return RateValue(pos_part(0.5 * math.log2(1.0 / a)))
