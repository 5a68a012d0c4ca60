"""Parameter sweeps over a channel gain, emitted as CSV data tables.

A sweep fixes the power budgets and walks one gain (or both, locked
together) across a range, recording for each abscissa the chosen
allocation, the achievable rate, and the capacity upper bound.  Every
emitted row is checked against the soundness invariant
achievable <= upper_bound + 1e-9.

A curve is evaluated as NumPy columns over the abscissa, a block of
rows at a time, by the private module `_columns`: the allocation, the
rate's tests and branch label, the rate, and the full-budget bound, each
bit-identical to `optimal_allocation`, `achievable_rate` and
`sato_upper_bound` at that abscissa.  `run_sweep` imports `_columns`,
and with it NumPy, on its first call; this module does not import NumPy.

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

from dataclasses import dataclass
from enum import Enum

from .achievable import BranchLabel, achievable_rate
from .bound import SOUNDNESS_TOL, sato_upper_bound
from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _require_finite,
)
from .power import optimal_allocation

__all__ = [
    "CSV_HEADER",
    "PowerMode",
    "SweepRow",
    "SweepSpec",
    "render_csv",
    "run_sweep",
]

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
        start = _require_finite("start", self.start)
        end = _require_finite("end", self.end)
        if start > end:
            raise DomainError(f"start {start} exceeds end {end}")
        # bool is an int subclass, but True is not a step count.
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise DomainError(f"steps must be an integer >= 1, got {self.steps!r}")
        fixed = _require_finite("fixed_gain", self.fixed_gain)
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
    if rate.value > upper.value + SOUNDNESS_TOL:
        raise InvariantViolation(
            f"achievable {rate.value} exceeds bound {upper.value} at x={x}"
        )
    return SweepRow(x, rate, upper, alloc.p1, alloc.p2, branch)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate `spec`, returning steps+1 rows in ascending abscissa.

    A degenerate range (start == end) collapses to the single row the
    single-point commands would produce.
    """
    from ._columns import column_blocks  # imports NumPy on the first sweep

    rows: list[SweepRow] = []
    for columns in column_blocks(spec):
        rows += _block_rows(spec, columns)
    return rows


def _block_rows(spec: SweepSpec, columns: tuple) -> list[SweepRow]:
    """The rows of one block of columns, with the flagged rows replayed."""
    xs, rate, bound, p1, p2, labels, replay = columns
    zero = RateValue(0.0)  # immutable, so the zero-rate rows share it
    rows = list(
        map(
            SweepRow,
            xs,
            [zero if v == 0.0 else RateValue(v) for v in rate],
            [zero if v == 0.0 else RateValue(v) for v in bound],
            p1,
            p2,
            labels,
        )
    )
    # In ascending abscissa, so the first row that raises is the one the
    # row-by-row evaluation would raise at.
    for i in replay:
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
