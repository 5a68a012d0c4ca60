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

The lattice is walked row by row as floats (`_scalar_lattice`) while
NumPy is not loaded and the cells fit the process's scalar budget
(`model._scalar_pays`), as in `power --check-grid` at its default 300
steps; otherwise it is evaluated as NumPy blocks (`_array_lattice`).
Both take the same candidates and cell arguments and choose the same
cell.  NumPy is imported only by the array lattice, so the closed forms
(`optimal_allocation`, `critical_powers`, the asymptotic rates) never
load it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    _scalar_pays,
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
# A sweep row, the unit of `_scalar_pays`, costs about as much as this
# many cells of the scalar lattice: 15-30 us against at most 0.25 us a
# cell, where every cell is evaluated, on a 2-CPU Xeon.
_CELLS_PER_ROW = 64


def _row_term(decode, joint, ops=_FLOATS):
    """The rate term of lattice rows with these (float or array) tests:
    decode-first (0), joint (1), or treat-as-noise (3), whose cells take
    the cancel-free term 2 where its test holds.  Reads `ops.where` only."""
    return ops.where(decode, 0, ops.where(joint, 1, 3))


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
    row_term = _row_term(decode, joint, _FLOATS._replace(where=np.where))
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


def _critical_candidates(gains: ChannelGains, budget: PowerBudget) -> tuple[list, list]:
    """The critical powers the lattice adds to its p1 and p2 candidates.

    min(b - 1, pb1) where b >= 1, and min(p2_star, pb2) where p2_star is
    finite and exists; two lists of at most one power each.
    """
    a, b = gains.a, gains.b
    extra1, extra2 = [], []
    if b - 1.0 >= 0.0:
        extra1.append(min(b - 1.0, budget.p1_max))
    if a * b < 1.0:
        p2_star = critical_powers(gains, budget).p2_star
        if math.isfinite(p2_star) and _p2_star_exists(p2_star):
            extra2.append(min(p2_star, budget.p2_max))
    return extra1, extra2


def _array_lattice(gains: ChannelGains, budget: PowerBudget, n_steps: int) -> tuple:
    """(p1, p2) of `grid_search_allocation`, by blocks of NumPy arrays."""
    import numpy as np

    a, b = gains.a, gains.b
    extra1, extra2 = _critical_candidates(gains, budget)
    # Of 0.0 and -0.0 (a -0.0 budget), np.unique keeps the one its sort
    # puts first, which varies with the length and the CPU; + 0.0 keeps 0.0.
    cand1 = np.unique(np.append(np.linspace(0.0, budget.p1_max, n_steps + 1), extra1)) + 0.0
    cand2 = np.unique(np.append(np.linspace(0.0, budget.p2_max, n_steps + 1), extra2)) + 0.0

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
    return float(cand1[i]), float(cand2[j])


def _linspace(stop: float, n: int) -> list:
    """np.linspace(0.0, stop, n + 1) as a list, bit for bit.

    NumPy takes k * step, or (k / n) * stop where the step stop / n is 0,
    adds the start 0.0, which turns -0.0 into 0.0, and ends on stop.
    """
    step = stop / n
    if step == 0.0:
        points = [k / n * stop + 0.0 for k in range(n)]
    else:
        points = [k * step + 0.0 for k in range(n)]
    points.append(stop)
    return points


def _scalar_lattice(gains: ChannelGains, budget: PowerBudget, n_steps: int) -> tuple:
    """(p1, p2) of `grid_search_allocation`, walked row by row as floats.

    The candidates are those of `_array_lattice`: ascending, each value
    once, and 0.0 (the first point) kept over -0.0.  Each cell's
    argument is the one `_argument_blocks` gives it, and the first
    largest finite one above 1 wins.  ZERO columns are skipped, and so
    are a regime-II noise row's cancel-free cells after its first: each
    rounded operation of beta2 is monotone in p2, so b >= beta2 holds
    from one p2 on, and the cancel-free term does not read p2, so those
    cells all have the first one's argument.
    """
    a, b = gains.a, gains.b
    extra1, extra2 = _critical_candidates(gains, budget)
    cand1 = sorted(dict.fromkeys(_linspace(budget.p1_max, n_steps) + extra1))
    cand2 = sorted(dict.fromkeys(_linspace(budget.p2_max, n_steps) + extra2))
    cols = [p2 for p2 in cand2 if not _conditions(a, b, 0.0, p2)[0]]

    best, cell = 1.0, (cand1[0], cand2[0])
    for p1 in cand1:
        _, decode, joint, _ = _conditions(a, b, p1, 0.0)
        row = _row_term(decode, joint)
        mid = len(cols)  # the first cancel-free column
        if row == 3 and a < 1.0:
            mid = bisect_left(cols, True, key=lambda p2: _conditions(a, b, p1, p2)[3])
        for j, p2 in enumerate(cols[: mid + 1]):
            x, y = _term_snrs(row if j < mid else 2, a, b, p1, p2)
            argument = (1.0 + x) / (1.0 + y)
            if best < argument < math.inf:
                best, cell = argument, (p1, p2)
    return cell


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

    The lattice is walked as floats while that pays (`_scalar_pays`),
    else as NumPy arrays; both choose the same cell.
    """
    _check_grid_steps(n_steps)
    side = n_steps + 1
    lattice = _scalar_lattice if _scalar_pays(side * side / _CELLS_PER_ROW) else _array_lattice
    alloc = PowerAllocation(*lattice(gains, budget, n_steps))
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
