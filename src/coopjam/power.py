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

The lattice evaluates each cell's rate term only where its tests select
it.  The decode-first and joint tests read p1 alone, so they hold for
whole rows; the ZERO test reads p2 alone and holds for whole columns;
only the cancel-free test (b >= beta2, regime II) is decided per cell,
between treat-as-noise and the row's cancel-free value.  Every cell gets
the bits of the scalar terms evaluated with `np.log2`: the same
expression on the same operands, and `np.log2` always on a fresh
contiguous array, since numpy may take another inner loop for a strided
one.

NumPy is imported inside the lattice functions, on their first call, so
the closed forms (`optimal_allocation` away from a*b = 1,
`critical_powers`, the asymptotic rates) run without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .achievable import BranchLabel, _cap, _conditions, _term_snrs, achievable_rate
from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _require_finite,
    _square,
    pos_part,
)

if TYPE_CHECKING:
    import numpy as np

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
# A p2_star radicand above -this is rounding noise around zero.
_RADICAND_TOL = 1e-12
# The lattice resolution of the grid fallback, and the default of the
# lattice checks in `verify` and `coopjam power --check-grid`.
_GRID_STEPS = 300


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
        real, root = _p2_star_terms(a, b, budget.p1_max)
        p2_star = root if real else math.nan
    return CriticalPowers(p1_star, p2_star)


def _p2_star_terms(a, b, pb1, sqrt=math.sqrt, square=_square, maximum=max):
    """Whether p2_star exists, and the root it takes when it does.

    p2_star exists where its radicand is not negative beyond rounding.
    Float or array inputs, with `sqrt`, `square` and `maximum` to match;
    defined for b > 0 and a*b < 1.  Nothing is checked.
    """
    radicand = square(a - 1.0, "(a - 1)^2 in p2_star") + (1.0 / b - a) * (
        a - b + (1.0 - b) * a * pb1
    )
    root = (a - 1.0 + sqrt(maximum(radicand, 0.0))) / (1.0 - a * b)
    return radicand >= -_RADICAND_TOL, root


def _allocation_cases(a, b, pb1, pb2, regime_i, minimum=min):
    """The closed-form cases of one regime: their tests, p1s and p2s.

    `regime_i` selects the cases for a >= 1, otherwise those for a < 1.
    The first case whose test holds applies; the last test is True.  A
    p2 of None marks the jamming case, which transmits min(pb2, p2_star)
    and falls back to the grid oracle near the degraded line.  Gains and
    budgets may be floats or arrays (with `minimum` to match), so the
    tests combine with `&`.
    """
    ab = a * b
    if regime_i:
        return (
            ((b > 1.0) & (pb2 > a - 1.0), (ab < 1.0) & (pb2 * (1.0 - ab) > a - 1.0), True),
            (minimum(pb1, b - 1.0), pb1, 0.0),
            (pb2, None, 0.0),
        )
    return (
        (
            (b >= 1.0) & (pb1 < b - 1.0),
            (ab >= 1.0) & (pb1 >= b - 1.0) & (pb2 * (ab - 1.0) < 1.0 - a),
            (ab >= 1.0) & (pb1 >= b - 1.0),
            (b >= 1.0) & (b - 1.0 <= pb1) & (pb1 * (1.0 - ab) < b - 1.0),
            (b < 1.0) & (a * (1.0 - b) * pb1 >= b - a),
            True,
        ),
        (pb1, pb1, b - 1.0, pb1, pb1, pb1),
        (pb2, pb2, pb2, pb2, None, 0.0),
    )


def optimal_allocation(gains: ChannelGains, budget: PowerBudget) -> AllocationResult:
    """Rate-maximizing powers within `budget`, by the closed-form cases.

    Near the degraded line a*b = 1.0 (within 1e-9), the branches that
    need p2_star fall back to the grid oracle because the closed form is
    numerically unstable there; the result then reports GRID_ORACLE as
    its source.
    """
    a, b = gains.a, gains.b
    pb1, pb2 = budget.p1_max, budget.p2_max
    tests, p1s, p2s = _allocation_cases(a, b, pb1, pb2, a >= 1.0)
    k = tests.index(True)
    p1, p2 = p1s[k], p2s[k]
    if p2 is None:
        if 1.0 - a * b < _DEGRADED_TOL:
            return grid_search_allocation(gains, budget, _GRID_STEPS)
        p2_star = critical_powers(gains, budget).p2_star
        if not p2_star >= 0.0:
            raise InvariantViolation(f"p2_star {p2_star} < 0 at {gains}, {budget}")
        p2 = min(pb2, p2_star)
    alloc = PowerAllocation(p1, p2)
    if not alloc.within(budget):
        raise InvariantViolation(f"allocation {alloc} exceeds budget {budget}")
    rate, branch = achievable_rate(gains, alloc)
    return AllocationResult(alloc, rate, AllocationSource.CLOSED_FORM, branch)


# The lattice is evaluated in blocks of rows of about this many cells.
# Temporaries of that size (128 KiB) are reused from the heap; larger ones
# are mapped and page-faulted in anew on every call, which cost a whole
# 302 x 302 lattice about a third of its time.
_GRID_BLOCK_CELLS = 1 << 14


def _rate_grid(a: float, b: float, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Achievable rate on the outer product of two power vectors.

    Evaluates the terms and tests of `achievable_rate` on arrays, in
    blocks of rows, so the lattice oracle stays fast.  Each cell holds
    the term its tests select, computed by the same expression on the
    same operands as evaluating every term on the whole lattice would,
    so the bits match that evaluation.  Returns a (len(p1), len(p2))
    array.
    """
    import numpy as np

    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    # decode and joint read p1 alone and zero reads p2 alone, so each is
    # tested once, on its own vector; the other power, 0.0, goes unread.
    _, decode, joint, _ = _conditions(a, b, p1, 0.0)
    zero = _conditions(a, b, 0.0, p2)[0]
    row_term = np.where(decode, 0, np.where(joint, 1, 3))
    rates = np.empty((len(p1), len(p2)))
    rows = max(1, _GRID_BLOCK_CELLS // max(len(p2), 1))
    for i in range(0, len(p1), rows):
        block = slice(i, i + rows)
        _rate_block(a, b, p1[block], p2, row_term[block], zero, rates[block])
    return rates


def _rate_block(
    a: float, b: float, p1: np.ndarray, p2: np.ndarray, row_term: np.ndarray,
    zero: np.ndarray, out: np.ndarray,
) -> None:
    """Write the rate on the lattice p1 x p2 into `out`, one row class at a time.

    `row_term` is the term of each row's decode or joint test, else 3.
    Decode rows (b >= 1 + p1) take one 2-D log2, joint rows (b >= beta1)
    two, and the remaining rows two for treat-as-noise, whose cells with
    b >= beta2 (regime II only) take the row's cancel-free value instead.
    The `zero` columns (a >= 1 + p2) become 0 last, then negative rates
    are clipped, as in the scalar rate.
    """
    import numpy as np

    P2 = p2[None, :]
    for k in (0, 1, 3):
        rows = row_term == k
        if not rows.any():
            continue
        P1 = p1[rows][:, None]
        rate = _lattice_term(k, a, b, P1, P2)
        if k == 3 and a < 1.0:
            mid = _conditions(a, b, P1, P2)[3]
            np.copyto(rate, _lattice_term(2, a, b, P1, 0.0), where=mid)
        out[rows] = rate
    out[:, zero] = 0.0
    np.maximum(out, 0.0, out=out)


def _lattice_term(k: int, a: float, b: float, P1: np.ndarray, P2) -> np.ndarray:
    import numpy as np

    x, y = _term_snrs(k, a, b, P1, P2)
    return _cap(x, np.log2) - _cap(y, np.log2)


def _check_grid_steps(n_steps: int) -> None:
    """Raise DomainError unless `n_steps` is a valid lattice resolution."""
    if not isinstance(n_steps, int) or n_steps < 2:
        raise DomainError(f"n_steps must be an integer >= 2, got {n_steps!r}")


def grid_search_allocation(
    gains: ChannelGains, budget: PowerBudget, n_steps: int
) -> AllocationResult:
    """Brute-force maximization over a lattice spanning the budget box.

    Evaluates the rate on an (n_steps+1)^2 lattice augmented with the
    closed-form critical powers (clamped to the budget, when finite and
    nonnegative).  Deterministic: ties are broken toward the smallest
    p1, then the smallest p2.  A cell whose rate is not finite (an SNR
    overflowed) is never chosen.
    """
    import numpy as np

    _check_grid_steps(n_steps)
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

    with np.errstate(over="ignore", invalid="ignore"):
        rates = _rate_grid(a, b, cand1, cand2)
    # C-order argmax scans p1-major, p2-minor: first maximum found is the
    # lexicographically smallest allocation among exact ties.  argmax picks
    # a NaN or +inf cell first, so only then are those cells masked.
    best = int(np.argmax(rates))
    if not math.isfinite(rates.flat[best]):
        best = int(np.argmax(np.where(np.isfinite(rates), rates, -np.inf)))
    i, j = divmod(best, rates.shape[1])
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
    a = _require_finite("gain a", a)
    if a == 0.0:
        return RateValue(math.inf)
    return RateValue(pos_part(0.5 * math.log2(1.0 / a)))
