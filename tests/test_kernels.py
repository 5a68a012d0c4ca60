"""The kernels behind the public functions, on columns, across the float range.

`achievable_rate`, `optimal_allocation` and `sato_upper_bound` each call
their kernel on floats; the sweep and `verify` call the same kernels on
NumPy columns.  Where a scalar function raises, the columns must flag the
row, so that it is replayed; every other row must carry the scalar value,
bit for bit.
"""

import hashlib
import random

import numpy as np

from coopjam._columns import _apply
from coopjam.achievable import _LABELS, _rate_kernel, achievable_rate
from coopjam.bound import _bound_kernel, sato_upper_bound
from coopjam.model import ChannelGains, PowerAllocation, PowerBudget
from coopjam.power import _allocation_kernel, optimal_allocation


def _wide_points():
    """4,000 (a, b, p1, p2): every fourth point's gains in 10^U(-3, 3), the
    other gains and all powers in 10^U(-300, 300)."""
    rng = random.Random(3)
    points = []
    for i in range(4000):
        exponents = (-3.0, 3.0) if i % 4 == 0 else (-300.0, 300.0)
        a, b = (10.0 ** rng.uniform(*exponents) for _ in range(2))
        p1, p2 = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        points.append((a, b, p1, p2))
    return points


_POINTS = _wide_points()


def _outcome(call):
    """The value `call` returns, or the exception it raises."""
    try:
        return call()
    except Exception as exc:
        return exc


def _scalar(point):
    """The outcomes of the three public functions at `point`, powers at the budgets."""
    a, b, p1, p2 = point
    gains = ChannelGains(a, b)
    return (
        _outcome(lambda: achievable_rate(gains, PowerAllocation(p1, p2))),
        _outcome(lambda: optimal_allocation(gains, PowerBudget(p1, p2))),
        _outcome(lambda: sato_upper_bound(gains, PowerBudget(p1, p2))),
    )


_SCALAR = [_scalar(point) for point in _POINTS]


def _text(outcome):
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return repr(outcome)


def test_scalar_outcomes_are_pinned():
    # Each value's repr, or its exception's type and message.
    text = "\n".join(_text(outcome) for outcomes in _SCALAR for outcome in outcomes)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "59b9a7b8164800f6d950ba33bbe4e861b45530a0387f8cd1523e1629d5ba7a51"


def _columns():
    return [np.array(column) for column in zip(*_POINTS)]


def _raising(index):
    return [isinstance(outcomes[index], Exception) for outcomes in _SCALAR]


def test_rate_kernel_flags_every_raising_row_and_matches_the_rest():
    rate, code, _, finite, misselected = _apply(_rate_kernel, *_columns())
    flagged = (~finite | misselected).tolist()
    assert sum(_raising(0)) == 73
    for outcome, flag, value, label in zip(_SCALAR, flagged, rate.tolist(), code.tolist()):
        if isinstance(outcome[0], Exception):
            assert flag, outcome[0]
        elif not flag:
            assert (repr(outcome[0][0].value), outcome[0][1]) == (repr(value), _LABELS[label])


def test_bound_kernel_flags_every_raising_row_and_matches_the_rest():
    _, f_at, bound, _, _ = _apply(_bound_kernel, *_columns())
    flagged = (~np.isfinite(f_at)).tolist()
    assert sum(_raising(2)) == 2147
    for outcome, flag, f, value in zip(_SCALAR, flagged, f_at.tolist(), bound.tolist()):
        if isinstance(outcome[2], Exception):
            assert flag, outcome[2]
        elif not flag:
            evaluation = outcome[2]
            want = (repr(evaluation.f_at_star), repr(evaluation.final_bound.value))
            assert (repr(f), repr(value)) == want


def test_allocation_kernel_flags_every_raising_row_through_the_rate_kernel():
    a, b, pb1, pb2 = _columns()
    p1, p2, _, exists, within = _apply(_allocation_kernel, a, b, pb1, pb2)
    rate, code, _, finite, misselected = _apply(_rate_kernel, a, b, p1, p2)
    allocation_flags = (~exists | ~within).tolist()
    flagged = (~exists | ~within | ~finite | misselected).tolist()
    assert sum(_raising(1)) == 36
    # The allocation kernel flags 13 of them; the other 23 are rates that
    # overflow at the chosen powers, which the rate kernel flags.
    late = [
        str(outcome[1])
        for outcome, flag in zip(_SCALAR, allocation_flags)
        if isinstance(outcome[1], Exception) and not flag
    ]
    assert len(late) == 23 and all(" overflows at " in message for message in late)
    rows = zip(_SCALAR, flagged, p1.tolist(), p2.tolist(), rate.tolist(), code.tolist())
    for outcome, flag, x, y, value, label in rows:
        if isinstance(outcome[1], Exception):
            assert flag, outcome[1]
        elif not flag:
            result = outcome[1]
            want = (result.alloc.p1, result.alloc.p2, result.rate.value)
            assert (repr((x, y, value)), _LABELS[label]) == (repr(want), result.branch)
