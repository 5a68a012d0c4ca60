"""Rate-maximizing power control, its brute-force oracle, and power limits.

The closed-form allocation follows two case analyses, one for a >= 1 and
one for a < 1.  Two critical powers appear in them:

* p1_star = b - 1: the largest transmit power at which the receiver can
  still decode the jamming signal first and cancel it.
* p2_star: the stationary jammer power of the treat-as-noise branch,
  beyond which extra jamming hurts the receiver more than the
  eavesdropper.  `_p2_star_terms` writes it without cancellation up to
  the degraded line a*b = 1, so every case is answered in closed form.

`grid_search_allocation` is an independently-maximizing lattice oracle
used to validate the closed form.  It evaluates the same rate terms and
interval tests as `achievable_rate` and never consults the allocation
case analysis (it only adds the critical points as extra lattice
candidates, so agreement is not limited by lattice resolution).

The lattice evaluates each cell's rate term only where its tests select
it.  The decode-first and joint tests read p1 alone, so they hold for
whole rows; the ZERO test reads p2 alone and holds for whole columns,
which are never evaluated: they are a prefix of the ascending p2 the
oracle passes, and are set to 0 at once.  Only the cancel-free test
(b >= beta2, regime II) is decided per cell,
between treat-as-noise and the row's cancel-free value.  Every cell gets
the bits of the scalar terms evaluated with `np.log2`: the same
expression on the same operands, and `np.log2` always on a fresh
contiguous array, since numpy may take another inner loop for a strided
one.

NumPy is imported inside the lattice functions, on their first call, so
the closed forms (`optimal_allocation`, `critical_powers`, the asymptotic
rates) run without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .achievable import BranchLabel, _conditions, _term_snrs, achievable_rate
from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _cap,
    _FLOATS,
    _require_finite,
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

# A p2_star radicand above -this is rounding noise around zero.
_RADICAND_TOL = 1e-12
# The default lattice resolution of `verify` and `power --check-grid`.
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
    if a * b >= 1.0:
        raise DomainError(f"p2_star is defined only for a*b < 1, got a*b = {a * b}")
    p1_star = b - 1.0
    p2_star = math.inf if b == 0.0 else _p2_star_terms(a, b, budget.p1_max)
    return CriticalPowers(p1_star, p2_star)


def _p2_star_terms(a, b, pb1, ops=_FLOATS):
    """p2_star, or NaN where it does not exist.

    p2_star is the larger root of (1 - ab) x^2 - 2(a - 1) x - c/b, where
    c = a - b + (1 - b) a pb1, and exists where R = (a - 1)^2 + (1/b - a) c
    is not negative beyond rounding.  Where a < 1 and sqrt(R) < 2(1 - a),
    the plain numerator a - 1 + sqrt(R) would lose more than a bit, so
    the conjugate c / (b (sqrt(R) + 1 - a)) is taken; either is as exact
    as the root's conditioning, about 2^-53 / (1 - ab), up to a*b = 1.
    Float or array inputs, with `ops` to match; defined for b > 0 and
    a*b < 1.  Nothing is checked.
    """
    c = a - b + (1.0 - b) * a * pb1
    radicand = ops.square(a - 1.0, "(a - 1)^2 in p2_star") + (1.0 / b - a) * c
    root = ops.sqrt(ops.where(radicand < 0.0, 0.0, radicand))
    num = a - 1.0 + root
    plain = num >= 1.0 - a
    p2_star = ops.where(plain, num, c) / ops.where(plain, 1.0 - a * b, b * (root + 1.0 - a))
    return ops.where(radicand >= -_RADICAND_TOL, p2_star, math.nan)


def _allocation_cases(a, b, pb1, pb2, ops=_FLOATS):
    """The closed-form cases of both regimes: their tests, p1s and p2s.

    Regime I's three cases (a >= 1) come first, then regime II's six;
    each test includes its regime's, and the first test that holds
    applies.  A p2 of None marks the jamming case, which transmits
    min(pb2, p2_star) and has a*b < 1.  Gains and budgets may be floats
    or arrays (with `ops` to match), so the tests combine with `&`.
    """
    ab = a * b
    i, ii = a >= 1.0, a < 1.0
    return (
        (
            i & (b > 1.0) & (pb2 > a - 1.0),
            i & (ab < 1.0) & (pb2 * (1.0 - ab) > a - 1.0),
            i,
            ii & (b >= 1.0) & (pb1 < b - 1.0),
            ii & (ab >= 1.0) & (pb1 >= b - 1.0) & (pb2 * (ab - 1.0) < 1.0 - a),
            ii & (ab >= 1.0) & (pb1 >= b - 1.0),
            ii & (b >= 1.0) & (b - 1.0 <= pb1) & (pb1 * (1.0 - ab) < b - 1.0),
            ii & (b < 1.0) & (a * (1.0 - b) * pb1 >= b - a),
            ii,
        ),
        (ops.min(pb1, b - 1.0), pb1, 0.0, pb1, pb1, b - 1.0, pb1, pb1, pb1),
        (pb2, None, 0.0, pb2, pb2, pb2, pb2, None, 0.0),
    )


def optimal_allocation(gains: ChannelGains, budget: PowerBudget) -> AllocationResult:
    """Rate-maximizing powers within `budget`, by the closed-form cases.

    Every case is answered in closed form, up to the degraded line
    a*b = 1 (see `_p2_star_terms`), so the source is always CLOSED_FORM.
    """
    a, b = gains.a, gains.b
    pb1, pb2 = budget.p1_max, budget.p2_max
    tests, p1s, p2s = _allocation_cases(a, b, pb1, pb2)
    k = tests.index(True)
    p1, p2 = p1s[k], p2s[k]
    if p2 is None:
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

    `p2` should ascend, as `grid_search_allocation` passes it: the ZERO
    columns (a >= 1 + p2) are then a prefix, which is filled with 0 and
    never evaluated.  Any order gives the same array; ZERO columns after
    the first other one are evaluated, then zeroed.
    """
    import numpy as np

    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    # decode and joint read p1 alone and zero reads p2 alone, so each is
    # tested once, on its own vector; the other power, 0.0, goes unread.
    _, decode, joint, _ = _conditions(a, b, p1, 0.0)
    zero = _conditions(a, b, 0.0, p2)[0]
    rates = np.zeros((len(p1), len(p2)))
    if zero.all():  # a >= 1 + max(p2): every cell is 0, so take no log2
        return rates
    start = int(np.argmin(zero))  # the first column that is not ZERO
    row_term = np.where(decode, 0, np.where(joint, 1, 3))
    rows = max(1, _GRID_BLOCK_CELLS // (len(p2) - start))
    for i in range(0, len(p1), rows):
        block = slice(i, i + rows)
        _rate_block(
            a, b, p1[block], p2[start:], row_term[block], zero[start:], rates[block, start:]
        )
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
    if a * b < 1.0:
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
            value = _half_log2_inverse(a, b)
        else:
            value = 0.0
    else:
        if a * b > 1.0:
            value = 0.5 * math.log2(b)
        elif b < 1.0:
            value = _half_log2_inverse(a, b)
        else:
            value = _half_log2_inverse(a)
    return RateValue(value)


def wiretap_asymptotic_rate(a: float) -> RateValue:
    """Power-unconstrained secrecy capacity without a jammer: (1/2)[log2(1/a)]+."""
    a = _require_finite("gain a", a)
    if a == 0.0:
        return RateValue(math.inf)
    return RateValue(_half_log2_inverse(a))


def _half_log2_inverse(*gains: float) -> float:
    """(1/2) log2(1 / product of `gains`), clipped at 0, as -(1/2) times the
    sum of their log2, so that no product or reciprocal leaves the float range."""
    return pos_part(-0.5 * sum(map(math.log2, gains)))
