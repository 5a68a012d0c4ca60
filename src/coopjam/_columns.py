"""NumPy columns of the scalar functions: the kernels behind `sweep.run_sweep`
and `verify`'s soundness and interferer-off checks, and the CSV text of
`run_sweep`'s column-path tables.

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

`_csv_lines` renders a block of a column-path table as CSV text, each
value byte for byte as `'%.12g' %` writes it, without making a Python
float per value.  It rounds each value to 12 significant digits where
that rounding is certain, writes their four-digit groups from one table,
and lays them out in `%g`'s fixed style.  Every other value (within
2^-13 of a rounding tie, in exponent style, +-inf or NaN) falls back to
`'%.12g' %` itself.  Its limits are named constants of this module.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .achievable import _LABELS, _branch_code, _conditions, _misselected, _term_snrs
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


# `_csv_lines` writes each line as 47 four-byte words, then deletes their
# NUL bytes.  Each of a row's five values takes 9 words:
#   0    a comma (none before x), then a minus sign or NUL
#   1-3  the integer part's 12 digits: leading zeros NUL, "0" if it is 0
#   4    the decimal point, NUL where the fraction is 0
#   5-8  the fraction's 16 digits: trailing zeros NUL
# and its branch label 2, as ",II-4\n" padded with NUL.  `_words()` holds
# every four-digit group 0000-9999 rendered four ways, then the other
# words, so that one `take` turns a block's word indices into its text.
_FULL = 0
_NO_LEADING = 10_000
_LAST = 20_000  # as _NO_LEADING, but 0 is "0"
_NO_TRAILING = 30_000
_NUL = 40_000
_MINUS = _NUL + 1
_COMMA = _NUL + 2
_COMMA_MINUS = _NUL + 3
_POINT = _NUL + 4
_LABEL = _NUL + 5  # then two words per branch code
_VALUE_WORDS = 9
_LINE_WORDS = 5 * _VALUE_WORDS + 2
# A value that `'%.12g' %` writes fills its 9 words: 3 bytes of NUL or
# comma, then its text padded with NUL.
_TEXT_BYTES = 4 * _VALUE_WORDS - 3

# %.12g writes a value of decimal exponent e in fixed style where
# -4 <= e <= 11, as n * 10^(e - 11) with n its 12 significant digits.
_E_MIN = -4
_E_MAX = 11
_N_MIN = 1e11
_N_MAX = 1e12
# m = |v| * 10^(11 - e) < 2^40 is within 2^-14 of the exact product, so
# rint(m) is n wherever m is further than this from a half-integer.  (A
# correctly rounded product cannot cross a half-integer, itself a float
# here, so any band > 0 would do; this one bounds the product's error, so
# that a value's own error bound can widen it.)
_TIE = 1.0 / 8192  # 2^-13
_HALF = 0.5
_GROUP = 1e4
# By k, the digits of n after the point, 0 <= k <= 15: 10^k, each exact;
# and the fraction's k digits as 16, a first and a last 8, formed exactly
# as x * _UP[k] / _DOWN[k] and (x * _UP[k] - first * _DOWN[k]) * _LOW[k].
_POWERS = np.cumprod([1.0] + [10.0] * 15)
_UP = _POWERS[np.maximum(8 - np.arange(16), 0)]
_DOWN = _POWERS[np.maximum(np.arange(16) - 8, 0)]
_LOW = _POWERS[np.minimum(16 - np.arange(16), 8)]


@cache
def _words() -> np.ndarray:
    """The four renderings of 0000-9999, then the other words; built on
    first use, so that the checks of `verify` that import this module do
    not build it."""
    digit = np.arange(10, dtype=np.uint8)
    groups = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1).reshape(-1, 4)
    # Where a nonzero digit is at or before, and at or after, each byte.
    leading, trailing = groups.astype(bool), groups.astype(bool)
    for j in range(1, 4):
        leading[:, j] |= leading[:, j - 1]
        trailing[:, 3 - j] |= trailing[:, 4 - j]
    groups += ord("0")
    last = groups * leading
    last[0, -1] = ord("0")
    other = [b"", b"\0\0\0-", b"\0\0,", b"\0\0,-", b"\0\0\0."]
    text = b"".join(word.ljust(4, b"\0") for word in other)
    text += b"".join(f",{label}\n".encode().ljust(8, b"\0") for label in _LABELS)
    words = [groups, groups * leading, last, groups * trailing, np.frombuffer(text, np.uint8)]
    return np.concatenate([word.ravel() for word in words]).view(np.uint32)


def _split(x):
    """x // 10^4 and x % 10^4, exactly, for whole x < 2^53."""
    high = np.floor(x / _GROUP)
    return high, x - high * _GROUP


def _value_words(values, out):
    """The `_words()` indices of each value's 9 words, written to `out`.

    Returns where those words are the value's `%.12g`: where its 12
    significant digits are certain and it takes fixed style, and at +-0.
    """
    with np.errstate(all="ignore"):
        size = np.abs(values)
        e = np.floor(np.log10(size))
        fast = (_E_MIN <= e) & (e <= _E_MAX)
        k = np.where(fast, _E_MAX - e, 0).astype(np.intp)  # n's digits after the point
        m = size * _POWERS.take(k)
        n = np.rint(m)
        # Near a tie, or where an ulp of error in log10 put m below 1e11 or
        # n above 1e12, the value falls back.
        fast &= (np.abs(m - n) < _HALF - _TIE) & (_N_MIN <= m) & (n <= _N_MAX)
        # n = 10^12 rounds up to 10^(e + 1): n = 10^11 with one digit more
        # before the point, or exponent style from e = 11.
        carry = fast & (n == _N_MAX)
        fast &= ~carry | (e < _E_MAX)
        n = np.where(fast, n, 0.0)
        n[carry] = _N_MIN
        k -= carry
        fast |= np.logical_not(size)  # +-0, whose n and k are 0
    # n = whole * 10^k + part; each of the two splits into four-digit groups.
    scale = _POWERS.take(k)
    whole = np.floor(n / scale)
    part = n - whole * scale
    up, down = _UP.take(k), _DOWN.take(k)
    first = np.floor(part * up / down)
    last = (part * up - first * down) * _LOW.take(k)
    sign = np.signbit(values) & fast
    out[:, 0] = _COMMA + sign
    out[0, 0] = _NUL + sign[0]
    if whole.max() < _GROUP:  # as in most blocks: words 1 and 2 are NUL
        out[:, 1:3] = _NO_LEADING
        out[:, 3] = whole + _LAST
    else:
        above, w3 = _split(whole)
        w1, w2 = _split(above)
        out[:, 1] = w1 + _NO_LEADING
        out[:, 2] = w2 + np.where(w1, _FULL, _NO_LEADING)
        out[:, 3] = w3 + np.where(above, _FULL, _LAST)
    out[:, 4] = np.where(part, _POINT, _NUL)
    f0, f1 = _split(first)
    f2, f3 = _split(last)
    out[:, 5] = f0 + np.where(f1 + last, _FULL, _NO_TRAILING)
    out[:, 6] = f1 + np.where(last, _FULL, _NO_TRAILING)
    out[:, 7] = f2 + np.where(f3, _FULL, _NO_TRAILING)
    out[:, 8] = f3 + _NO_TRAILING
    return fast


def _csv_lines(x, rate, bound, p1, p2, code) -> str:
    """The CSV lines of a block of rows, each ending in a newline.

    Each value is written as `'%.12g' % value` writes it: by the words
    of `_value_words` where they are its text, by `'%.12g' %` elsewhere.
    `code` holds the branch codes, indices into `achievable._LABELS`.
    """
    values = np.stack([x, rate, bound, p1, p2])
    rows = values.shape[1]
    index = np.empty((_LINE_WORDS, rows), np.intp)
    fast = _value_words(values, index[:-2].reshape(5, _VALUE_WORDS, rows))
    index[-2] = _LABEL + 2 * code
    index[-1] = index[-2] + 1
    words = _words().take(index)
    column, row = np.nonzero(~fast)
    if row.size:
        texts = [("\0\0," if c else "\0\0\0") + ("%.12g" % v).ljust(_TEXT_BYTES, "\0")
                 for c, v in zip(column.tolist(), values[column, row].tolist())]
        text = np.frombuffer("".join(texts).encode(), np.uint32).reshape(-1, _VALUE_WORDS)
        words[:-2].reshape(5, _VALUE_WORDS, rows)[column, :, row] = text
    return words.T.tobytes().translate(None, b"\0").decode()
