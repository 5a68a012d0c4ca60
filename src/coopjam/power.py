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

The lattice maximizes the log argument (1 + x) / (1 + y) of each cell's
rate term, with the SNRs (x, y) of `achievable._term_snrs`, in place of
the rate: log2 is monotone, so the same cell wins, up to the rounding of
the rate's two logarithms, and no logarithm is taken until
`achievable_rate` evaluates the chosen cell.  Each cell's term is
evaluated only where its tests select it.  The decode-first and joint
tests read p1 alone, so they hold for whole rows; the ZERO test reads p2
alone and holds for whole columns, which are never evaluated: they are a
prefix of the ascending p2 the oracle passes, and their rate is 0.  Only
the cancel-free test (b >= beta2, regime II) is decided per cell,
between treat-as-noise and the row's cancel-free value.  The lattice is
written a block of rows at a time into one buffer, and each block is
reduced to its first largest argument before the next, so the whole
lattice is never held.  Division and addition round correctly, so each
cell has the bits of the same expression evaluated on the whole lattice
at once.

NumPy is imported inside the lattice functions, on their first call, so
the closed forms (`optimal_allocation`, `critical_powers`, the asymptotic
rates) run without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator

from .achievable import BranchLabel, _conditions, _term_snrs, achievable_rate
from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _first,
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


def _p2_star_exists(p2_star):
    """Where `p2_star` exists: >= 0, so not NaN; float or array."""
    return p2_star >= 0.0


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
    k = _first(tests)
    p1, p2 = p1s[k], p2s[k]
    if p2 is None:
        p2_star = critical_powers(gains, budget).p2_star
        if not _p2_star_exists(p2_star):
            raise InvariantViolation(f"p2_star {p2_star} < 0 at {gains}, {budget}")
        p2 = min(pb2, p2_star)
    alloc = PowerAllocation(p1, p2)
    if not alloc.within(budget):
        raise InvariantViolation(f"allocation {alloc} exceeds budget {budget}")
    rate, branch = achievable_rate(gains, alloc)
    return AllocationResult(alloc, rate, AllocationSource.CLOSED_FORM, branch)


# The lattice is evaluated in blocks of rows of at most this many cells
# (or one row), each reduced to its first largest argument before the
# next is written into the same buffer, so no array has more cells than
# a block.  Arrays of that size (128 KiB) are reused from the heap;
# larger ones are mapped and page-faulted in anew on every call.
_GRID_BLOCK_CELLS = 1 << 14


def _argument_blocks(a: float, b: float, p1: np.ndarray, p2: np.ndarray) -> Iterator[tuple]:
    """The rate's log argument on the outer product of two power vectors.

    Each cell holds (1 + x) / (1 + y) for the SNRs (x, y) of the rate term
    that the tests of `achievable_rate` select, so its rate is half the
    log2 of it, up to rounding, where that is positive, and 0 where the
    argument is <= 1.  Yields (rows, cols, block): slices of the lattice
    and its cells there, in ascending rows.  `block` is a view of one
    buffer that the next block overwrites.

    A block lies within one run of rows of the same class: decode rows
    (b >= 1 + p1) take the decode-first term, joint rows (b >= beta1)
    the joint term, and the other rows treat-as-noise, whose cells with
    b >= beta2 (regime II only) take the row's cancel-free value instead.
    In ascending p1 the decode rows come first, then the joint rows, so
    there are few runs; in any order the cells are the same, in more
    blocks.

    The ZERO cells (a >= 1 + p2) have rate 0 and argument 1.  `p2` should
    ascend, as `grid_search_allocation` passes it: the ZERO columns are
    then a prefix, which no block covers.  In any order the other cells
    are the same; ZERO columns after the first other one are covered,
    with argument 1.
    """
    import numpy as np

    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    # decode and joint read p1 alone and zero reads p2 alone, so each is
    # tested once, on its own vector; the other power, 0.0, goes unread.
    _, decode, joint, _ = _conditions(a, b, p1, 0.0)
    zero = _conditions(a, b, 0.0, p2)[0]
    if zero.all() or p1.size == 0:  # no cells, or all ZERO: a >= 1 + max(p2)
        return
    start = int(np.argmin(zero))  # the first column that is not ZERO
    cols, zero = slice(start, None), zero[start:]
    late_zero = zero.any()  # only where p2 does not ascend
    P2 = p2[None, cols]
    row_term = np.where(decode, 0, np.where(joint, 1, 3))
    runs = [0, *(np.flatnonzero(row_term[1:] != row_term[:-1]) + 1).tolist(), len(p1)]
    height = max(1, _GRID_BLOCK_CELLS // P2.size)
    buffer = np.empty(min(height, len(p1)) * P2.size)
    for first, end in zip(runs, runs[1:]):
        k = int(row_term[first])
        for i in range(first, end, height):
            rows = slice(i, min(i + height, end))
            P1 = p1[rows, None]
            block = buffer[: P1.size * P2.size].reshape(P1.size, P2.size)
            _term_argument(k, a, b, P1, P2, block)
            if k == 3 and a < 1.0:
                mid = _conditions(a, b, P1, P2)[3]
                np.copyto(block, _term_argument(2, a, b, P1, 0.0), where=mid)
            if late_zero:
                block[:, zero] = 1.0
            yield rows, cols, block


def _term_argument(k: int, a: float, b: float, P1: np.ndarray, P2, out=None) -> np.ndarray:
    """(1 + x) / (1 + y) for the SNRs of rate term k, into `out` if given."""
    import numpy as np

    x, y = _term_snrs(k, a, b, P1, P2)
    # 1 + x and 1 + y overwrite the SNRs, which are new arrays, except
    # where x is P1 itself: a block's worth of temporaries costs more than
    # the arithmetic.
    x = np.add(1.0, x, out=None if x is P1 else x)
    return np.divide(x, np.add(1.0, y, out=y), out=out)


def _check_grid_steps(n_steps: int) -> None:
    """Raise DomainError unless `n_steps` is a valid lattice resolution."""
    if not isinstance(n_steps, int) or n_steps < 2:
        raise DomainError(f"n_steps must be an integer >= 2, got {n_steps!r}")


def grid_search_allocation(
    gains: ChannelGains, budget: PowerBudget, n_steps: int
) -> AllocationResult:
    """Brute-force maximization over a lattice spanning the budget box.

    Searches an (n_steps+1)^2 lattice augmented with the closed-form
    critical powers (clamped to the budget, when finite and nonnegative)
    for the largest log argument of the rate (see `_argument_blocks`);
    log2 is monotone, so no logarithm is taken until the chosen cell is
    evaluated by `achievable_rate`.  Deterministic: ties are broken toward
    the smallest p1, then the smallest p2.  Where no argument exceeds 1,
    every rate is 0 and the cell (0, 0) is chosen.  A cell whose argument
    is not finite (an SNR overflowed) is never chosen.
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
        if math.isfinite(p2_star) and _p2_star_exists(p2_star):
            cand2 = np.append(cand2, min(p2_star, pb2))
    cand1 = np.unique(cand1)
    cand2 = np.unique(cand2)

    best, i, j = 1.0, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols, block in _argument_blocks(a, b, cand1, cand2):
            # C-order argmax scans p1-major, p2-minor, and a later block
            # must be strictly larger: the first maximum found is the
            # lexicographically smallest allocation among exact ties.
            # argmax picks a NaN or +inf cell first, so only then are
            # those cells masked.
            k = int(np.argmax(block))
            if not math.isfinite(block.flat[k]):
                np.copyto(block, -np.inf, where=~np.isfinite(block))
                k = int(np.argmax(block))
            if block.flat[k] > best:
                best = block.flat[k]
                i, j = rows.start + k // block.shape[1], cols.start + k % block.shape[1]
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
