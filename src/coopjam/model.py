"""Core domain types and scalar helpers shared by every other module.

All types are immutable value objects validated at construction; all
functions are pure.  Rates are expressed in bits per channel use with
base-2 logarithms throughout.  Direct links and noise variances are
normalized to one, so channels are described purely by the two cross
power gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class ChannelGains:
    """Cross power gains describing the interference geometry.

    a: power gain of the transmitter-to-eavesdropper link.
    b: power gain of the interferer-to-receiver link.

    These are the squared amplitude gains exactly as the rate formulas
    consume them; both direct links have unit gain.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_finite("gain a", self.a))
        object.__setattr__(self, "b", _require_finite("gain b", self.b))


@dataclass(frozen=True, slots=True)
class PowerBudget:
    """Block-average power limits of the transmitter and the interferer."""

    p1_max: float
    p2_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1_max", _require_finite("p1_max", self.p1_max))
        object.__setattr__(self, "p2_max", _require_finite("p2_max", self.p2_max))


@dataclass(frozen=True, slots=True)
class PowerAllocation:
    """An operating point: the powers actually transmitted."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", _require_finite("p1", self.p1))
        object.__setattr__(self, "p2", _require_finite("p2", self.p2))

    def within(self, budget: PowerBudget) -> bool:
        """True when this allocation respects both limits of `budget`."""
        return self.p1 <= budget.p1_max and self.p2 <= budget.p2_max


@dataclass(frozen=True, slots=True)
class RateValue:
    """A secrecy rate in bits per channel use.

    `math.inf` is allowed and marks a power-unconstrained limit that
    diverges (no finite rate exists); finite values must be nonnegative.
    """

    value: float

    def __post_init__(self) -> None:
        x = _real("rate", self.value)
        if math.isnan(x):
            raise DomainError("rate must not be NaN")
        if x < 0.0:
            raise DomainError(f"rate must be >= 0, got {x}")
        object.__setattr__(self, "value", x)

    @property
    def unbounded(self) -> bool:
        """True when the represented rate grows without bound."""
        return math.isinf(self.value)


def gauss_cap(x: float) -> float:
    """Capacity of a unit-noise Gaussian channel at SNR `x`: (1/2) log2(1 + x).

    Strictly increasing with gauss_cap(0) == 0.  Raises DomainError for
    negative or non-finite SNR.
    """
    x = _require_finite("snr", x)
    return 0.5 * math.log2(1.0 + x)


def pos_part(x: float) -> float:
    """max(x, 0); the clipping applied to rate differences."""
    return x if x > 0.0 else 0.0


def _square(x: float, name: str) -> float:
    """x ** 2 through libm pow, exactly as Python's `x ** 2` (not x * x).

    An overflow is a DomainError that names the quantity `name`.
    """
    try:
        return math.pow(x, 2.0)
    except OverflowError:
        raise DomainError(f"{name} overflows the float range (squaring {x!r})") from None
