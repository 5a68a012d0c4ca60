"""Core domain types and scalar helpers shared by every other module.

All types are immutable value objects validated at construction: plain
classes on one base, `_Value`, which gives them repr, equality, hash,
frozen fields, copy and pickle from their `__slots__`.  No class code is
generated for them, so they have no `__match_args__` and the standard
library's field helpers (`fields`, `replace`, `asdict`) do not apply.
All functions are pure except `_scalar_pays`, which charges coopjam's one
piece of mutable state, a per-process budget of scalar work.  Rates are
expressed in bits per channel use with base-2 logarithms throughout.
Direct links and noise variances are normalized to one, so channels are
described purely by the two cross power gains.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

__all__ = [
    "ChannelGains",
    "DomainError",
    "InvariantViolation",
    "PowerAllocation",
    "PowerBudget",
    "RateValue",
    "gauss_cap",
    "pos_part",
]


class DomainError(ValueError):
    """An input lies outside the domain an operation is defined on."""


class InvariantViolation(RuntimeError):
    """An internal quantity broke a condition that should hold analytically.

    Raised instead of silently clamping, so that branch-selection or
    formula bugs surface rather than being masked.
    """


def _real(name: str, value: float) -> float:
    """`value` as a float, or a DomainError that names the quantity `name`."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc


def _require_finite(name: str, value: float) -> float:
    """`value` as a finite float >= 0, or a DomainError that names `name`."""
    x = _real(name, value)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"{name} must be >= 0.0, got {x}")
    return x


class _Value:
    """Base of the value types: a plain class whose fields are its `__slots__`.

    A subclass names its fields in `__slots__`, in the order of its
    `__init__`'s parameters, and sets each once there through `_setfield`,
    after its checks.  From the slots it gets the repr
    `Name(field=value, ...)`, `==` between instances of the same type with
    equal field tuples, the field tuple's hash, fields that cannot be
    assigned or deleted, and copy and pickle that rebuild an instance
    through `__init__`.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is type(self):
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


# How a value type's `__init__` sets a field past `_Value.__setattr__`.
_setfield = object.__setattr__


class ChannelGains(_Value):
    """Cross power gains describing the interference geometry.

    a: power gain of the transmitter-to-eavesdropper link.
    b: power gain of the interferer-to-receiver link.

    These are the squared amplitude gains exactly as the rate formulas
    consume them; both direct links have unit gain.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        _setfield(self, "a", _require_finite("gain a", a))
        _setfield(self, "b", _require_finite("gain b", b))


class PowerBudget(_Value):
    """Block-average power limits of the transmitter and the interferer."""

    __slots__ = ("p1_max", "p2_max")

    def __init__(self, p1_max: float, p2_max: float) -> None:
        _setfield(self, "p1_max", _require_finite("p1_max", p1_max))
        _setfield(self, "p2_max", _require_finite("p2_max", p2_max))


class PowerAllocation(_Value):
    """An operating point: the powers actually transmitted."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1: float, p2: float) -> None:
        _setfield(self, "p1", _require_finite("p1", p1))
        _setfield(self, "p2", _require_finite("p2", p2))

    def within(self, budget: PowerBudget) -> bool:
        """True when this allocation respects both limits of `budget`."""
        return _in_budget(self.p1, self.p2, budget.p1_max, budget.p2_max)


def _in_budget(p1, p2, pb1, pb2):
    """Where powers p1, p2 are >= 0 and within limits pb1, pb2; float or array."""
    return (0.0 <= p1) & (p1 <= pb1) & (0.0 <= p2) & (p2 <= pb2)


class RateValue(_Value):
    """A secrecy rate in bits per channel use.

    `math.inf` is allowed and marks a power-unconstrained limit that
    diverges (no finite rate exists); finite values must be nonnegative.
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        x = _real("rate", value)
        if not _valid_rate(x):
            if math.isnan(x):
                raise DomainError("rate must not be NaN")
            raise DomainError(f"rate must be >= 0, got {x}")
        _setfield(self, "value", x)

    @property
    def unbounded(self) -> bool:
        """True when the represented rate grows without bound."""
        return math.isinf(self.value)


def _valid_rate(x):
    """Where `x` may be a RateValue: not NaN and >= 0; float or array `x`."""
    return x >= 0.0


def gauss_cap(x: float) -> float:
    """Capacity of a unit-noise Gaussian channel at SNR `x`: (1/2) log2(1 + x).

    Strictly increasing with gauss_cap(0) == 0.  Raises DomainError for
    negative or non-finite SNR.
    """
    x = _require_finite("snr", x)
    return _cap(x, math.log2)


def _cap(x, log2):
    """gauss_cap unchecked, with the `log2` of float or array `x`."""
    return 0.5 * log2(1.0 + x)


def pos_part(x: float) -> float:
    """max(x, 0); the clipping applied to rate differences."""
    return _clip(x)


def _square(x: float, name: str) -> float:
    """x * x, which IEEE multiplication rounds correctly (libm's pow may not).

    A finite x whose square overflows is a DomainError that names `name`.
    """
    square = x * x
    if math.isinf(square) and math.isfinite(x):
        raise DomainError(f"{name} overflows the float range (squaring {x!r})")
    return square


# A formula shared by floats and NumPy columns takes its helpers as one
# `ops`: these by default, the columns' array stand-ins in the sweep and
# in `verify`.  `pick(k, cases, term)` is term(cases[k]): on floats only
# the chosen case's term is evaluated, so a kernel raises what the scalar
# code raises and nothing more; on columns each row takes its own k's.
_Ops = namedtuple("_Ops", "min sqrt square where log2 pick isfinite")
_FLOATS = _Ops(
    min, math.sqrt, _square, lambda test, x, y: x if test else y, math.log2,
    lambda k, cases, term: term(cases[k]), math.isfinite,
)


def _clip(x, ops=_FLOATS):
    """max(x, 0) as x where x > 0, else 0.0 (NaN included); float or array `x`."""
    return ops.where(x > 0.0, x, 0.0)


def _first(tests):
    """The index of the first of `tests` that holds, len(tests) where none does.

    It is len(tests), less one for each test at or after the first that
    holds.  Only `|` and `-` compute it, so bools and NumPy bool arrays
    take the same code, and it needs no `ops`.
    """
    first, seen = len(tests), False
    for test in tests:
        seen = seen | test
        first = first - seen
    return first


# The default lattice resolution of `verify` and `power --check-grid`.
_GRID_STEPS = 300

# One NumPy import costs a process about as much as this many scalar
# sweep rows: 100-160 ms against 15-30 us a row on a 2-CPU Xeon.
_IMPORT_ROWS = 4096
_scalar_rows_left = _IMPORT_ROWS


def _scalar_pays(work: float) -> bool:
    """Whether a call that can run as scalar code or on arrays runs scalar.

    True, and `work` (in sweep rows) charged to this process's budget of
    `_IMPORT_ROWS`, while NumPy is not loaded and the budget still covers
    `work`; so the scalar paths never cost a process more than about one
    import over loading NumPy at once.  A None entry in sys.modules, which
    makes every `import numpy` raise, counts as not loaded.  The budget is
    coopjam's one piece of mutable state: both paths give identical
    answers, so a race between threads on it can change which path runs,
    never an answer.
    """
    global _scalar_rows_left
    if sys.modules.get("numpy") is not None or work > _scalar_rows_left:
        return False
    _scalar_rows_left -= work
    return True
