"""NumPy columns of the scalar functions: the kernels behind `sweep.run_sweep`
and `verify`'s soundness and interferer-off checks.

This is the only module of the sweep that imports NumPy, and
`run_sweep` imports it on its first call, as those checks do, so
`import coopjam` and the scalar commands never load NumPy.

A sweep's curve is evaluated as columns over the abscissa, a block of
rows at a time: the allocation (the closed-form cases of `power`,
selected per row), the rate's interval tests and branch label, the
rate, and the full-budget bound.  `verify` passes its samples as the
columns instead.  The columns reuse the very formulas of the scalar
functions, which take their `min`, `sqrt`, square, `where` and `log2`
as one `ops` argument, so every value is bit-identical to
`optimal_allocation`, `achievable_rate` and `sato_upper_bound` at that
row.  The rule that makes it exact: NumPy does only correctly rounded
operations (+, -, *, /, sqrt, and each square as x * x, as the scalar
`_square` does), comparisons and selection, in the scalar code's
expression order.  Only log2 goes through libm (`math.log2`), one
element at a time, because NumPy's log2 rounds differently from libm in
about 0.1% of inputs.

The columns restate no rule or tolerance of the scalar path.  Each has
one owner, called here with `_COLUMNS`, the column `ops`: the interval
tests, branch codes and labels and the misselection test
(`achievable._conditions`, `_branch_code`, `_LABELS`, `_misselected`),
the allocation's cases of both regimes and p2_star
(`power._allocation_cases`, `_p2_star_terms`), rho_star, when
f(rho_star) is evaluated directly, the final bound and soundness
(`bound._rho_root`, `_direct`, `_final_bound`, `_unsound`), and which
values a RateValue accepts (`model._valid_rate`).

Each kernel also names the rows the columns cannot vouch for; `sweep`
and `verify` replay those through the scalar functions.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .achievable import _LABELS, _branch_code, _conditions, _misselected, _term_snrs
from .bound import _direct, _f_log_arg, _final_bound, _rho_root, _star_terms, _unsound
from .model import _cap, _Ops, _valid_rate
from .power import _allocation_cases, _p2_star_terms
from .sweep import PowerMode, SweepSpec, _gain_pair


def _log2(x):
    """math.log2 one element at a time, shape kept; NaN where x <= 0."""
    v = np.asarray(x, dtype=float)
    values = map(math.log2, np.where(v > 0.0, v, np.nan).ravel().tolist())
    return np.fromiter(values, float, v.size).reshape(v.shape)


def _square(x, name=None):
    square = x * x
    return np.where(np.isinf(square), np.nan, square)


# The column `ops`.  min mirrors Python's: the first argument unless the
# second is strictly smaller.  Where a scalar helper would raise, its
# stand-in gives NaN instead, which flags the row for replay.
_COLUMNS = _Ops(lambda x, y: np.where(y < x, y, x), np.sqrt, _square, np.where, _log2)


def _allocation_columns(a, b, pb1, pb2):
    """p1, p2 of `optimal_allocation` per row, and the rows it cannot vouch for."""
    tests, p1s, p2s = _allocation_cases(a, b, pb1, pb2, _COLUMNS)
    p2_star = _p2_star_terms(a, b, pb1, _COLUMNS)
    p2_star = np.where(b == 0.0, np.inf, p2_star)
    case = np.select(tests, range(len(tests)))
    jam = np.choose(case, [p2 is None for p2 in p2s])
    p1 = np.choose(case, p1s)
    p2 = np.choose(case, [_COLUMNS.min(pb2, p2_star) if p2 is None else p2 for p2 in p2s])
    replay = jam & ~(p2_star >= 0.0)
    # PowerAllocation's checks, and allocation within the budget.
    replay |= ~((0.0 <= p1) & (p1 <= pb1) & (0.0 <= p2) & (p2 <= pb2))
    return p1, p2, replay


def _rate_columns(a, b, p1, p2):
    """The rate and branch code of `achievable_rate` per row, and rows to replay."""
    zero, decode, joint, mid = _conditions(a, b, p1, p2, _COLUMNS)
    k = np.select([decode, joint, mid], [0, 1, 2], 3)
    xs, ys = zip(*(_term_snrs(t, a, b, p1, p2) for t in range(4)))
    x, y = np.choose(k, xs), np.choose(k, ys)
    raw = _cap(x, _COLUMNS.log2) - _cap(y, _COLUMNS.log2)
    rate = np.where(zero | ~(raw > 0.0), 0.0, raw)
    code = np.where(zero, 0, _branch_code(a, k, _COLUMNS))
    bad = ~np.isfinite(raw) | _misselected(raw, a, k)
    return rate, code, ~zero & bad


def _bound_columns(a, b, pb1, pb2):
    """final_bound of `sato_upper_bound` per row, and the rows to replay."""
    s, m, _, _, delta = _star_terms(a, b, pb1, pb2, _COLUMNS)
    rho = _rho_root(s, m, delta, _COLUMNS)
    num, arg = _f_log_arg(a, b, pb1, pb2, rho, _COLUMNS)
    f_at = 0.5 * _COLUMNS.log2(arg)
    # The cancelled form near rho = 1 or a NaN root, and `_f_value`'s check.
    replay = ~_direct(rho) | ~(num > 0.0) | ~np.isfinite(f_at)
    return _final_bound(f_at, pb1, _COLUMNS), replay


def _rate_and_bound(a, b, p1, p2, pb1, pb2):
    """The rate, branch code and bound columns, and the rows to replay.

    A row is replayed where either kernel flags it, where the rate
    exceeds the bound (which the scalar path reports), and where a value
    is no RateValue: no RateValue is built from a column value, so its
    rule runs here.
    """
    rate, code, bad_rate = _rate_columns(a, b, p1, p2)
    bound, bad_bound = _bound_columns(a, b, pb1, pb2)
    replay = bad_rate | bad_bound | _unsound(rate, bound)
    replay |= ~_valid_rate(rate) | ~_valid_rate(bound)
    return rate, code, bound, replay


# Columns are evaluated this many rows at a time, so that their
# temporaries stay small next to the rows a long sweep returns.
_BLOCK_ROWS = 4096


def column_blocks(spec: SweepSpec) -> Iterator[tuple]:
    """`spec`'s steps+1 rows in ascending abscissa, as blocks of columns.

    Each block is (x, rate, bound, p1, p2, labels, replay): Python lists
    of the abscissae, the rate and bound values and the powers, an
    iterator over the branch labels, then the ascending indices of the
    rows to replay, whose values the columns do not vouch for.  A
    degenerate range (start == end) is a single row.
    """
    if spec.start == spec.end:
        x = np.array([spec.start])
    else:
        span = spec.end - spec.start
        x = spec.start + span * (np.arange(spec.steps + 1) / spec.steps)
    for i in range(0, x.size, _BLOCK_ROWS):
        yield _block_columns(spec, x[i : i + _BLOCK_ROWS])


def _block_columns(spec: SweepSpec, x: np.ndarray) -> tuple:
    """The columns at abscissae `x`, and the rows they cannot vouch for."""
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
        rate, code, bound, bad = _rate_and_bound(a, b, p1, p2, pb1, pb2)
        replay = replay | bad
    return (
        x.tolist(),
        rate.tolist(),
        bound.tolist(),
        np.broadcast_to(p1, n).tolist(),
        np.broadcast_to(p2, n).tolist(),
        map(_LABELS.__getitem__, code.tolist()),
        np.flatnonzero(replay).tolist(),
    )
