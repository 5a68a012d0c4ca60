"""NumPy columns of a sweep: the kernel behind `sweep.run_sweep`.

This is the only module of the sweep that imports NumPy, and
`run_sweep` imports it on its first call, so `import coopjam` and the
scalar commands never load NumPy.

A curve is evaluated as columns over the abscissa, a block of rows at a
time: the allocation (the closed-form cases of `power`, selected per
row), the rate's interval tests and branch label, the rate, and the
full-budget bound.  The columns reuse the very formulas of the scalar
functions, which take their `sqrt`, `log2` and square as arguments, so
every value is bit-identical to `optimal_allocation`, `achievable_rate`
and `sato_upper_bound` at that abscissa.  The rule that makes it exact:
NumPy does only correctly rounded operations (+, -, *, /, sqrt),
comparisons and selection, in the scalar code's expression order, and
every log2 and square goes through libm (`math.log2`, `math.pow`) one
element at a time, because NumPy's log2 and x ** 2 round differently
from libm in about 0.1% of inputs.

The columns restate no rule of the scalar path: the interval tests
and their threshold clamp (`achievable._conditions`), the branch-label
table (`achievable._LABELS`), the misselection test
(`achievable._misselected`) and the p2_star radicand test
(`power._p2_star_terms`) each have one owner, called here with column
stand-ins for `min`, `max`, `sqrt`, `log2` and the square.

Each block also names the rows the columns cannot vouch for; `sweep`
replays those through the scalar functions.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator

import numpy as np

from .achievable import _LABELS, _cap, _conditions, _misselected, _term_snrs
from .bound import (
    SOUNDNESS_TOL,
    _DEGENERATE_S,
    _DELTA_TOL,
    _RHO_EDGE,
    _f_log_arg,
    _rho_root,
    _star_terms,
)
from .model import gauss_cap
from .power import _DEGRADED_TOL, _allocation_cases, _p2_star_terms
from .sweep import PowerMode, SweepSpec, _gain_pair


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


def _allocation_columns(a, b, pb1, pb2):
    """p1, p2 of `optimal_allocation` per row, and the rows it cannot vouch for."""
    tests, p1s, p2s = [], [], []
    for regime_i, in_regime in ((True, a >= 1.0), (False, a < 1.0)):
        t, p1, p2 = _allocation_cases(a, b, pb1, pb2, regime_i, _minimum)
        tests += [in_regime & test for test in t]
        p1s += p1
        p2s += p2
    real, root = _p2_star_terms(a, b, pb1, np.sqrt, _square, _maximum)
    p2_star = np.where(b == 0.0, np.inf, np.where(real, root, np.nan))
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
    zero, decode, joint, mid = _conditions(a, b, p1, p2, _minimum)
    k = np.select([decode, joint, mid], [0, 1, 2], 3)
    xs, ys = zip(*(_term_snrs(t, a, b, p1, p2) for t in range(4)))
    x, y = np.choose(k, xs), np.choose(k, ys)
    raw = _cap(x, _log2) - _cap(y, _log2)
    rate = np.where(zero | ~(raw > 0.0), 0.0, raw)
    code = np.where(zero, 0, np.where(a >= 1.0, 1, 5) + k)
    bad = ~np.isfinite(raw) | _misselected(raw, a, k)
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


# Columns are evaluated this many rows at a time, so that their
# temporaries stay small next to the rows a long sweep returns.
_BLOCK_ROWS = 4096


def column_blocks(spec: SweepSpec) -> Iterator[tuple]:
    """`spec`'s steps+1 rows in ascending abscissa, as blocks of columns.

    Each block is (x, rate, bound, p1, p2, labels, replay): Python lists
    of the abscissae, the rate and bound values and the powers, an
    iterator over the branch labels, then the ascending indices of the
    rows to replay, which hold placeholders.  A degenerate range
    (start == end) is a single row.
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
        rate, code, bad_rate = _rate_columns(a, b, p1, p2)
        bound, bad_bound = _bound_columns(a, b, pb1, pb2)
        replay = replay | bad_rate | bad_bound | (rate > bound + SOUNDNESS_TOL)
    # Placeholders in the rows to replay; RateValue would reject some values.
    rate = np.where(replay, 0.0, rate)
    bound = np.where(replay, 0.0, bound)
    return (
        x.tolist(),
        rate.tolist(),
        bound.tolist(),
        np.broadcast_to(p1, n).tolist(),
        np.broadcast_to(p2, n).tolist(),
        map(_LABELS.__getitem__, code.tolist()),
        np.flatnonzero(replay).tolist(),
    )
