"""Parameter sweeps over a channel gain, emitted as CSV data tables.

A sweep fixes the power budgets and walks one gain (or both, locked
together) across a range, recording for each abscissa the chosen
allocation, the achievable rate, and the capacity upper bound.  Every
emitted row is checked against the soundness invariant
achievable <= upper_bound + 1e-9.

`run_sweep` evaluates a curve row by row through `optimal_allocation`,
`achievable_rate` and `sato_upper_bound` while NumPy is not loaded and
the rows fit the process's scalar budget (`model._scalar_pays`): a
one-shot command's sweep then costs less than importing NumPy.
Otherwise it evaluates the curve as NumPy columns over the abscissa,
4,096 rows at a time, with the kernels of the private module `_columns`:
the allocation, the rate and its branch, and the full-budget bound, each
bit-identical to those functions at that abscissa.  Only the column path
imports `_columns`, and with it NumPy; this module does not.

A row replays the scalar path instead when the columns cannot vouch for
it: when its bound takes the cancelled form (rho* >= 1 - 1e-9), when a
value is non-finite or a square overflows, or when it fails a check
that raises in the scalar path (an invariant, a RateValue check, soundness).  Those
rows replay in ascending abscissa, so a sweep raises exactly what the
row-by-row evaluation raises, and the replayed values are written back
into the columns.

`run_sweep` returns the columns themselves, as a `SweepTable`: an
immutable sequence of rows that builds each `SweepRow` when it is read,
so a sweep makes no row object that nobody reads.  The scalar path's
columns are lists of floats and `BranchLabel`s; the column path's stay
the kernels' float64 arrays and integer branch codes, and a read row's
floats and label are made from them then.  `render_csv` formats straight
from the columns: lists by `'%.12g' %`, arrays by the vectorized `%.12g`
of `_columns._csv_lines`, which writes the same bytes.

CSV output is byte-deterministic: fixed header, 12 significant digits,
'.' decimal separator, LF line endings, no locale dependence.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .achievable import _LABELS, BranchLabel, achievable_rate
from .bound import _unsound, sato_upper_bound
from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _require_finite,
    _scalar_pays,
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

# run_sweep evaluates its columns, and render_csv joins its lines, this
# many rows at a time, so that one block's temporaries or line strings
# stay small next to the rows, whatever the row count.
_BLOCK_ROWS = 4096


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
    if _unsound(rate.value, upper.value):
        raise InvariantViolation(
            f"achievable {rate.value} exceeds bound {upper.value} at x={x}"
        )
    return SweepRow(x, rate, upper, alloc.p1, alloc.p2, branch)


def _row(x, rate, bound, p1, p2, branch) -> SweepRow:
    """The row whose column values are these; `_fields` inverts it."""
    return SweepRow(x, RateValue(rate), RateValue(bound), p1, p2, branch)


def _fields(row: SweepRow) -> tuple:
    """The column values of `row`, in column order."""
    return (row.x, row.achievable.value, row.upper_bound.value, row.p1, row.p2, row.branch)


class SweepTable(Sequence):
    """The rows of a sweep, held as columns: an immutable Sequence[SweepRow].

    The scalar path holds six lists: x, rate, bound, p1 and p2 as floats,
    and the `BranchLabel`s.  The column path holds five float64 arrays
    and an array of branch codes, indices into `achievable._LABELS`; a
    row's floats and label are made when it is read.  Reading a row
    builds a `SweepRow` equal to the one the scalar functions give at
    its abscissa; a slice is a list of rows.  A table equals another
    table, or a list, with equal rows, as a list of rows does.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple) -> None:
        object.__setattr__(self, "_columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("a SweepTable is immutable")

    def __delattr__(self, name):
        raise AttributeError("a SweepTable is immutable")

    def _arrays(self) -> bool:
        """Whether the columns are the column path's arrays."""
        return not isinstance(self._columns[0], list)

    def _lists(self) -> tuple:
        """The six columns as lists: floats, then `BranchLabel`s."""
        if not self._arrays():
            return self._columns
        *values, codes = self._columns
        return (*(column.tolist() for column in values), [_LABELS[c] for c in codes.tolist()])

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        *values, branch = [column[i] for column in self._columns]
        if self._arrays():
            values, branch = map(float, values), _LABELS[branch]
        return _row(*values, branch)

    def __iter__(self):
        return map(_row, *self._lists())

    def __eq__(self, other):
        if isinstance(other, SweepTable):
            return self._lists() == other._lists()
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def _abscissa(spec: SweepSpec, k):
    """start + (end - start) * (k / steps): row k's abscissa, for an int or an np.arange."""
    return spec.start + (spec.end - spec.start) * (k / spec.steps)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate `spec`, returning steps+1 rows in ascending abscissa.

    The rows come as a `SweepTable`, an immutable sequence: it has no
    `append` and takes no item assignment, and a slice of it is a list.
    A degenerate range (start == end) collapses to the single row the
    single-point commands would produce.
    """
    rows = 1 if spec.start == spec.end else spec.steps + 1
    sweep = _scalar_sweep if _scalar_pays(rows) else _column_sweep
    return sweep(spec, rows)


def _scalar_sweep(spec: SweepSpec, rows: int) -> SweepTable:
    """The `rows` rows of `spec` (1 for a degenerate range) by `_scalar_row`."""
    xs = [spec.start] if rows == 1 else [_abscissa(spec, k) for k in range(rows)]
    return SweepTable(_columns_of([_scalar_row(spec, x) for x in xs]))


def _column_sweep(spec: SweepSpec, rows: int) -> SweepTable:
    """The `rows` rows of `spec` as NumPy columns, `_BLOCK_ROWS` rows at a time."""
    import numpy as np

    from ._columns import _allocation_columns, _rate_and_bound

    xs = np.array([spec.start]) if rows == 1 else _abscissa(spec, np.arange(rows))
    pb1, pb2 = spec.budget.p1_max, spec.budget.p2_max
    rate, bound, p1, p2 = (np.empty(rows) for _ in range(4))
    code = np.empty(rows, np.intp)
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        # The fixed gain becomes a 0-d array, so that every operation on it is
        # NumPy's and a division by zero in a discarded case cannot raise.
        a, b = _gain_pair(spec, xs[block], np.asarray(spec.fixed_gain))
        if spec.power_mode is PowerMode.OPTIMAL_CONTROL:
            p1[block], p2[block], replay = _allocation_columns(a, b, pb1, pb2)
        else:
            p1[block], p2[block], replay = pb1, pb2, False
        rate[block], code[block], bound[block], bad = _rate_and_bound(
            a, b, p1[block], p2[block], pb1, pb2
        )
        # In ascending abscissa, so the first row that raises is the one the
        # row-by-row evaluation would raise at.
        for k in (start + i for i in np.flatnonzero(replay | bad).tolist()):
            row = _scalar_row(spec, xs[k].item())
            rate[k], bound[k], p1[k], p2[k] = _fields(row)[1:5]
            code[k] = _LABELS.index(row.branch)
    return SweepTable((xs, rate, bound, p1, p2, code))


def _columns_of(rows: Sequence[SweepRow]) -> tuple:
    """The six lists of `rows`: a table's own, or a list's transposed."""
    if isinstance(rows, SweepTable):
        return rows._lists()
    return tuple(map(list, zip(*map(_fields, rows)))) or ([], [], [], [], [], [])


def render_csv(rows: Sequence[SweepRow]) -> str:
    """Serialize rows to the fixed CSV schema (trailing newline included).

    A `SweepTable` of the column path is formatted from its arrays by the
    vectorized `%.12g` of `_columns._csv_lines`, `_BLOCK_ROWS` rows at a
    time.  Any other table, or sequence of `SweepRow`s, is formatted by
    `'%.12g' %` from its lists, transposed from the rows first; both give
    the same text.
    """
    if isinstance(rows, SweepTable) and rows._arrays():
        from ._columns import _csv_lines

        blocks = (
            _csv_lines(*[column[start : start + _BLOCK_ROWS] for column in rows._columns])
            for start in range(0, len(rows), _BLOCK_ROWS)
        )
        return "".join([CSV_HEADER, "\n", *blocks])
    x, rate, bound, p1, p2, branch = _columns_of(rows)
    # Rows share a few label objects; keyed by identity, since hashing a
    # BranchLabel costs more than formatting the rest of its row.
    labels = dict(zip(map(id, branch), branch))
    text = {key: str(label) for key, label in labels.items()}
    names = map(text.__getitem__, map(id, branch))
    line = "%.12g,%.12g,%.12g,%.12g,%.12g,%s".__mod__
    lines = map(line, zip(x, rate, bound, p1, p2, names))
    # No line is empty, so neither is a block until the lines run out.
    blocks = iter(lambda: "\n".join(islice(lines, _BLOCK_ROWS)), "")
    return "\n".join([CSV_HEADER, *blocks, ""])
