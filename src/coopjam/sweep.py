"""Parameter sweeps over a channel gain, emitted as CSV data tables.

A sweep fixes the power budgets and walks one gain (or both, locked
together) across a range, recording for each abscissa the chosen
allocation, the achievable rate, and the capacity upper bound.  Every
emitted row is checked against the soundness invariant
achievable <= upper_bound + 1e-9.

A curve is evaluated as NumPy columns over the abscissa, a block of
rows at a time: the allocation (the closed-form cases of `power`,
selected per row), the rate's interval tests and branch label, the rate,
and the full-budget bound.  The columns reuse the very formulas of the
scalar functions, which take their `sqrt`, `log2` and square as
arguments, so every value is bit-identical to `optimal_allocation`,
`achievable_rate` and `sato_upper_bound` at that abscissa.  The rule that makes it exact:
NumPy does only correctly rounded operations (+, -, *, /, sqrt),
comparisons and selection, in the scalar code's expression order, and
every log2 and square goes through libm (`math.log2`, `math.pow`) one
element at a time, because NumPy's log2 and x ** 2 round differently
from libm in about 0.1% of inputs.

A row replays the scalar path instead when the columns cannot vouch for
it: when its allocation needs the grid oracle near a*b = 1, when its
bound takes the cancelled form (rho* >= 1 - 1e-9), when a value is
non-finite or a square overflows, or when it fails a check that raises
in the scalar path (an invariant, a RateValue check, soundness).  Those
rows replay in ascending abscissa, so a sweep raises exactly what the
row-by-row evaluation raises.

CSV output is byte-deterministic: fixed header, 12 significant digits,
'.' decimal separator, LF line endings, no locale dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .achievable import (
    _NEG_TOL,
    _TERM_BRANCHES,
    _ZERO_BRANCH,
    BranchLabel,
    Regime,
    _cap,
    _conditions,
    _term_snrs,
    achievable_rate,
)
from .bound import (
    _DEGENERATE_S,
    _DELTA_TOL,
    _RHO_EDGE,
    _f_log_arg,
    _rho_root,
    _star_terms,
    sato_upper_bound,
)
from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _require_finite,
    gauss_cap,
)
from .power import (
    _DEGRADED_TOL,
    _RADICAND_TOL,
    _allocation_cases,
    _p2_star_terms,
    optimal_allocation,
)

__all__ = [
    "CSV_HEADER",
    "PowerMode",
    "SweepRow",
    "SweepSpec",
    "render_csv",
    "run_sweep",
]

_SOUNDNESS_TOL = 1e-9

CSV_HEADER = "x,achievable_rate,upper_bound,p1,p2,branch"


class PowerMode(Enum):
    """How the transmit powers are chosen along a sweep."""

    OPTIMAL_CONTROL = "optimal"
    FULL_POWER = "full"


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Description of one sweep.

    `param` names the swept gain ("a" or "b"); `fixed_gain` is the value
    of the other one.  With `symmetric` set, both gains track the
    abscissa and `fixed_gain` is ignored.
    """

    param: str
    start: float
    end: float
    steps: int
    budget: PowerBudget
    fixed_gain: float = 0.0
    symmetric: bool = False
    power_mode: PowerMode = PowerMode.OPTIMAL_CONTROL

    def __post_init__(self) -> None:
        if self.param not in ("a", "b"):
            raise DomainError(f"param must be 'a' or 'b', got {self.param!r}")
        start = _require_finite("start", self.start, minimum=0.0)
        end = _require_finite("end", self.end, minimum=0.0)
        if start > end:
            raise DomainError(f"start {start} exceeds end {end}")
        # bool is an int subclass, but True is not a step count.
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise DomainError(f"steps must be an integer >= 1, got {self.steps!r}")
        fixed = _require_finite("fixed_gain", self.fixed_gain, minimum=0.0)
        if not isinstance(self.budget, PowerBudget):
            raise DomainError("budget must be a PowerBudget")
        if not isinstance(self.power_mode, PowerMode):
            raise DomainError("power_mode must be a PowerMode")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "fixed_gain", fixed)
        object.__setattr__(self, "symmetric", bool(self.symmetric))


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One abscissa of a sweep with everything needed to plot it."""

    x: float
    achievable: RateValue
    upper_bound: RateValue
    p1: float
    p2: float
    branch: BranchLabel


# Column stand-ins for the scalar helpers the formulas take as arguments.
# min and max mirror Python's: the first argument unless the second is
# strictly smaller (larger).  A libm function that would raise returns
# NaN instead, which flags its row for replay.

def _minimum(x, y):
    return np.where(y < x, y, x)


def _maximum(x, y):
    return np.where(y > x, y, x)


def _each(fn, x, *args):
    """fn(element, *args) through libm, one element at a time, shape kept."""
    v = np.asarray(x, dtype=float)
    values = map(fn, v.ravel().tolist(), *map(repeat, args))
    return np.fromiter(values, float, v.size).reshape(v.shape)


def _log2(x):
    v = np.asarray(x, dtype=float)
    return _each(math.log2, np.where(v > 0.0, v, np.nan))


# libm pow(x, 2) may overflow from here on; math.pow would then raise.
_SQUARE_LIMIT = 1e154


def _square(x, name=None):
    v = np.asarray(x, dtype=float)
    return _each(math.pow, np.where(np.abs(v) < _SQUARE_LIMIT, v, np.nan), 2.0)


# Branch labels by column code: 0 is ZERO-1, then four rate terms per regime.
_LABELS = (_ZERO_BRANCH, *_TERM_BRANCHES[Regime.REGIME_I], *_TERM_BRANCHES[Regime.REGIME_II])


def _allocation_columns(a, b, pb1, pb2):
    """p1, p2 of `optimal_allocation` per row, and the rows it cannot vouch for."""
    tests, p1s, p2s = [], [], []
    for regime_i, in_regime in ((True, a >= 1.0), (False, a < 1.0)):
        t, p1, p2 = _allocation_cases(a, b, pb1, pb2, regime_i, _minimum)
        tests += [in_regime & test for test in t]
        p1s += p1
        p2s += p2
    radicand, root = _p2_star_terms(a, b, pb1, np.sqrt, _square, _maximum)
    p2_star = np.where(b == 0.0, np.inf, np.where(radicand >= -_RADICAND_TOL, root, np.nan))
    case = np.select(tests, range(len(tests)))
    jam = np.choose(case, [p2 is None for p2 in p2s])
    p1 = np.choose(case, p1s)
    p2 = np.choose(case, [_minimum(pb2, p2_star) if p2 is None else p2 for p2 in p2s])
    replay = jam & ((1.0 - a * b < _DEGRADED_TOL) | ~(p2_star >= 0.0))
    # PowerAllocation's checks, and allocation within the budget.
    replay |= ~((0.0 <= p1) & (p1 <= pb1) & (0.0 <= p2) & (p2 <= pb2))
    return p1, p2, replay


def _rate_columns(a, b, p1, p2):
    """The rate and branch code of `achievable_rate` per row, and rows to replay."""
    regime_i = a >= 1.0
    zero, decode, joint, mid = _conditions(a, b, p1, p2, True)
    _, _, joint_ii, mid_ii = _conditions(a, b, p1, p2, False)
    joint = np.where(regime_i, joint, joint_ii)
    mid = np.where(regime_i, mid, mid_ii)
    k = np.select([decode, joint, mid], [0, 1, 2], 3)
    xs, ys = zip(*(_term_snrs(t, a, b, p1, p2) for t in range(4)))
    x, y = np.choose(k, xs), np.choose(k, ys)
    raw = _cap(x, _log2) - _cap(y, _log2)
    rate = np.where(zero | ~(raw > 0.0), 0.0, raw)
    code = np.where(zero, 0, np.where(regime_i, 1, 5) + k)
    bad = ~np.isfinite(raw) | ((raw < _NEG_TOL) & (~regime_i | (k == 0)))
    return rate, code, ~zero & bad


def _bound_columns(a, b, pb1, pb2):
    """final_bound of `sato_upper_bound` per row, and the rows to replay."""
    s, m, _, _, delta = _star_terms(a, b, pb1, pb2, np.sqrt, _square)
    replay = ~(delta >= -_DELTA_TOL)
    delta = _maximum(delta, 0.0)
    rho = np.where(s <= _DEGENERATE_S, 0.0, _rho_root(s, m, delta, np.sqrt))
    # The cancelled form near rho = 1, and sato_f's domain check.
    replay |= ~((-1.0 < rho) & (rho < 1.0 - _RHO_EDGE))
    num, arg = _f_log_arg(a, b, pb1, pb2, rho, np.sqrt, _square)
    f_at = 0.5 * _log2(arg)
    replay |= ~(num > 0.0) | ~np.isfinite(f_at)
    bound = _minimum(f_at, gauss_cap(pb1))
    return np.where(bound > 0.0, bound, 0.0), replay


def _gain_pair(spec: SweepSpec, x, fixed):
    """(a, b) at abscissa `x` (a float or a column) and fixed gain `fixed`."""
    if spec.symmetric:
        return x, x
    return (x, fixed) if spec.param == "a" else (fixed, x)


def _scalar_row(spec: SweepSpec, x: float) -> SweepRow:
    """The row at `x` by the scalar functions, with its soundness check."""
    gains = ChannelGains(*_gain_pair(spec, x, spec.fixed_gain))
    if spec.power_mode is PowerMode.OPTIMAL_CONTROL:
        result = optimal_allocation(gains, spec.budget)
        alloc, rate, branch = result.alloc, result.rate, result.branch
    else:
        alloc = PowerAllocation(spec.budget.p1_max, spec.budget.p2_max)
        rate, branch = achievable_rate(gains, alloc)
    upper = sato_upper_bound(gains, spec.budget).final_bound
    if rate.value > upper.value + _SOUNDNESS_TOL:
        raise InvariantViolation(
            f"achievable {rate.value} exceeds bound {upper.value} at x={x}"
        )
    return SweepRow(x, rate, upper, alloc.p1, alloc.p2, branch)


# Columns are evaluated this many rows at a time, so that their
# temporaries stay small next to the rows a long sweep returns.
_BLOCK_ROWS = 4096


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate `spec`, returning steps+1 rows in ascending abscissa.

    A degenerate range (start == end) collapses to the single row the
    single-point commands would produce.
    """
    if spec.start == spec.end:
        x = np.array([spec.start])
    else:
        span = spec.end - spec.start
        x = spec.start + span * (np.arange(spec.steps + 1) / spec.steps)
    rows: list[SweepRow] = []
    for i in range(0, x.size, _BLOCK_ROWS):
        rows += _block_rows(spec, x[i : i + _BLOCK_ROWS])
    return rows


def _block_rows(spec: SweepSpec, x: np.ndarray) -> list[SweepRow]:
    """The rows at abscissae `x`, from columns, with flagged rows replayed."""
    # The fixed gain becomes a 0-d array, so that every operation on it is
    # NumPy's and a division by zero in a discarded case cannot raise.
    a, b = _gain_pair(spec, x, np.asarray(spec.fixed_gain))
    pb1, pb2 = spec.budget.p1_max, spec.budget.p2_max
    n = x.size

    with np.errstate(all="ignore"):
        if spec.power_mode is PowerMode.OPTIMAL_CONTROL:
            p1, p2, replay = _allocation_columns(a, b, pb1, pb2)
        else:
            p1, p2, replay = pb1, pb2, False
        rate, code, bad_rate = _rate_columns(a, b, p1, p2)
        bound, bad_bound = _bound_columns(a, b, pb1, pb2)
        replay = replay | bad_rate | bad_bound | (rate > bound + _SOUNDNESS_TOL)
    # Placeholders in the rows to replay; RateValue would reject some values.
    rate = np.where(replay, 0.0, rate)
    bound = np.where(replay, 0.0, bound)

    zero = RateValue(0.0)  # immutable, so the zero-rate rows share it
    xs = x.tolist()
    rows = list(
        map(
            SweepRow,
            xs,
            [zero if v == 0.0 else RateValue(v) for v in rate.tolist()],
            [zero if v == 0.0 else RateValue(v) for v in bound.tolist()],
            np.broadcast_to(p1, n).tolist(),
            np.broadcast_to(p2, n).tolist(),
            map(_LABELS.__getitem__, code.tolist()),
        )
    )
    # In ascending abscissa, so the first row that raises is the one the
    # row-by-row evaluation would raise at.
    for i in np.flatnonzero(replay).tolist():
        rows[i] = _scalar_row(spec, xs[i])
    return rows


def render_csv(rows: list[SweepRow]) -> str:
    """Serialize rows to the fixed CSV schema (trailing newline included)."""
    # Rows share a few label objects; keyed by identity, since hashing a
    # BranchLabel costs more than formatting the rest of its row.
    labels = {id(r.branch): r.branch for r in rows}
    text = {key: str(branch) for key, branch in labels.items()}
    line = "%.12g,%.12g,%.12g,%.12g,%.12g,%s".__mod__
    body = [
        line((r.x, r.achievable.value, r.upper_bound.value, r.p1, r.p2, text[id(r.branch)]))
        for r in rows
    ]
    return "\n".join([CSV_HEADER, *body, ""])
