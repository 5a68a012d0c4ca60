"""NumPy columns of the scalar functions: the kernels behind `sweep.run_sweep`
and `verify`'s soundness and interferer-off checks.

It is the one module that imports NumPy at its top; `run_sweep`'s column
path and those checks import it on their first call, so `import coopjam`
and the scalar paths never load NumPy.  It imports only `achievable`,
`bound`, `model` and `power`.

Each kernel takes gains, powers and budgets as columns (a sweep's block
of rows, `verify`'s samples) and gives, bit-identical to the scalar
function at every row, the allocation of `optimal_allocation`, the rate
and branch code of `achievable_rate`, or the bound of
`sato_upper_bound`.  It reuses their very formulas, which take their
`min`, `sqrt`, square, `where` and `log2` as one `ops` (`_COLUMNS`
here).  The rule that makes it exact: NumPy does only correctly rounded
operations (+, -, *, /, sqrt, and each square as x * x, as the scalar
`_square` does), comparisons and selection, in the scalar code's
expression order.  Only log2 goes through libm (`math.log2`), one
element at a time, because NumPy's log2 rounds differently from libm in
about 0.1% of inputs.

Each rule has one owner, which both paths call: the interval tests,
branch codes and misselection (`achievable._conditions`, `_branch_code`,
`_misselected`), the allocation's cases, p2_star and whether it exists
(`power._allocation_cases`, `_p2_star_terms`, `_p2_star_exists`),
rho_star, when f(rho_star) is evaluated directly, whether f's numerator
is positive, the final bound and soundness (`bound._rho_root`,
`_direct`, `_f_defined`, `_final_bound`, `_unsound`), and the first test
that holds, the clip at 0, the budget and the values a RateValue accepts
(`model._first`, `_clip`, `_in_budget`, `_valid_rate`).  Both paths
write one rule: p2_star is +inf where b == 0 (here and in
`critical_powers`), because Python's 1.0 / b raises where NumPy's gives
inf.

Where the scalar code raises, a kernel gives NaN, so each kernel sets
its own `np.errstate(all="ignore")`, and it names the rows it cannot
vouch for; `sweep` and `verify` replay those through the scalar
functions.
"""

from __future__ import annotations

import math

import numpy as np

from .achievable import _branch_code, _conditions, _misselected, _term_snrs
from .bound import _direct, _f_defined, _f_log_arg, _final_bound, _rho_root, _star_terms, _unsound
from .model import _cap, _clip, _first, _in_budget, _Ops, _valid_rate
from .power import _allocation_cases, _p2_star_exists, _p2_star_terms


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
    with np.errstate(all="ignore"):
        tests, p1s, p2s = _allocation_cases(a, b, pb1, pb2, _COLUMNS)
        p2_star = np.where(b == 0.0, np.inf, _p2_star_terms(a, b, pb1, _COLUMNS))
        case = _first(tests, _COLUMNS)
        jam = np.choose(case, [p2 is None for p2 in p2s])
        p1 = np.choose(case, p1s)
        p2 = np.choose(case, [_COLUMNS.min(pb2, p2_star) if p2 is None else p2 for p2 in p2s])
        # PowerAllocation's checks and `within`, and p2_star where it is used.
        replay = (jam & ~_p2_star_exists(p2_star)) | ~_in_budget(p1, p2, pb1, pb2)
    return p1, p2, replay


def _rate_columns(a, b, p1, p2):
    """The rate and branch code of `achievable_rate` per row, and rows to replay."""
    with np.errstate(all="ignore"):
        zero, decode, joint, mid = _conditions(a, b, p1, p2, _COLUMNS)
        k = _first((decode, joint, mid), _COLUMNS)
        xs, ys = zip(*(_term_snrs(t, a, b, p1, p2) for t in range(4)))
        x, y = np.choose(k, xs), np.choose(k, ys)
        raw = _cap(x, _COLUMNS.log2) - _cap(y, _COLUMNS.log2)
        rate = np.where(zero, 0.0, _clip(raw, _COLUMNS))
        code = np.where(zero, 0, _branch_code(a, k, _COLUMNS))
        bad = ~np.isfinite(raw) | _misselected(raw, a, k)
    return rate, code, ~zero & bad


def _bound_columns(a, b, pb1, pb2):
    """final_bound of `sato_upper_bound` per row, and the rows to replay."""
    with np.errstate(all="ignore"):
        s, m, _, _, delta = _star_terms(a, b, pb1, pb2, _COLUMNS)
        rho = _rho_root(s, m, delta, _COLUMNS)
        num, arg = _f_log_arg(a, b, pb1, pb2, rho, _COLUMNS)
        f_at = 0.5 * _COLUMNS.log2(arg)
        # The cancelled form near rho = 1 or a NaN root, and `_f_value`'s check.
        replay = ~_direct(rho) | ~_f_defined(num) | ~np.isfinite(f_at)
        bound = _final_bound(f_at, pb1, _COLUMNS)
    return bound, replay


def _rate_and_bound(a, b, p1, p2, pb1, pb2):
    """The rate, branch code and bound columns, and the rows to replay.

    A row is replayed where either kernel flags it, where the rate
    exceeds the bound (which the scalar path reports), and where a value
    is no RateValue: no RateValue is built from a column value, so its
    rule runs here.
    """
    rate, code, bad_rate = _rate_columns(a, b, p1, p2)
    bound, bad_bound = _bound_columns(a, b, pb1, pb2)
    with np.errstate(all="ignore"):
        replay = bad_rate | bad_bound | _unsound(rate, bound)
        replay |= ~_valid_rate(rate) | ~_valid_rate(bound)
    return rate, code, bound, replay
