"""Achievable secrecy rate of the jammer-assisted wiretap channel.

The rate is one piecewise expression over the eavesdropper gain `a` and
the interference gain `b`.  The first of the left-closed tests b >= 1 + P1,
b >= beta1 and b >= beta2 that holds selects the decode-first, joint or
cancel-free rate term; otherwise the jamming is treated as noise.  Three
regimes exist in `a`:

* ZERO       (a >= 1 + P2): the jammer cannot mask the transmitter at
  all; no positive rate is achievable.
* REGIME_I   (1 <= a < 1 + P2): the eavesdropper's direct channel is
  stronger, secrecy comes entirely from jamming.  Both thresholds
  collapse to 1, so the cancel-free term is never selected.
* REGIME_II  (a < 1): the legitimate channel is stronger to begin with.

`_conditions` and `_terms` write the tests and the terms once, for float
or NumPy powers, so the lattice oracle in `power` evaluates them too.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import (
    ChannelGains,
    DomainError,
    InvariantViolation,
    PowerAllocation,
    RateValue,
    _require_finite,
    gauss_cap,
    pos_part,
)

__all__ = [
    "BranchLabel",
    "Regime",
    "Thresholds",
    "achievable_rate",
    "wiretap_capacity",
]

# Rate terms stay nonnegative on their own intervals, except regime I's
# clipped joint and treat-as-noise terms; below this, a branch was misselected.
_NEG_TOL = -1e-9


class Regime(Enum):
    """Which of the three `a`-regimes produced a rate."""

    ZERO = "ZERO"
    REGIME_I = "I"
    REGIME_II = "II"


_MAX_SUB_CASE = {Regime.ZERO: 1, Regime.REGIME_I: 3, Regime.REGIME_II: 4}


@dataclass(frozen=True, slots=True)
class BranchLabel:
    """Identifies the exact piecewise branch that produced a rate."""

    regime: Regime
    sub_case: int

    def __post_init__(self) -> None:
        if not isinstance(self.regime, Regime):
            raise TypeError(f"regime must be a Regime, got {self.regime!r}")
        if not 1 <= self.sub_case <= _MAX_SUB_CASE[self.regime]:
            raise ValueError(
                f"sub_case {self.sub_case} invalid for regime {self.regime.value}"
            )

    def __str__(self) -> str:
        return f"{self.regime.value}-{self.sub_case}"


# Labels are immutable, so each is built once.  The rate terms of `_terms`
# map to sub-cases in order; regime I never reaches the cancel-free term.
_ZERO_BRANCH = BranchLabel(Regime.ZERO, 1)
_TERM_BRANCHES = {
    regime: tuple(None if sub is None else BranchLabel(regime, sub) for sub in subs)
    for regime, subs in (
        (Regime.REGIME_I, (1, 2, None, 3)),
        (Regime.REGIME_II, (1, 2, 3, 4)),
    )
}


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Interference-gain cutoffs between the REGIME_II sub-cases.

    beta1 separates joint decoding from the cancel-free middle branch,
    beta2 separates that branch from treating the jamming as noise.
    For a < 1 they satisfy beta2 <= 1 <= beta1 <= 1 + P1; at a == 1 both
    collapse to 1.  Only meaningful for a <= 1.
    """

    beta1: float
    beta2: float

    @classmethod
    def at(cls, gains: ChannelGains, alloc: PowerAllocation) -> "Thresholds":
        return cls(*_betas(gains.a, alloc.p1, alloc.p2))


def _betas(a, p1, p2):
    """(beta1, beta2) at float or array powers."""
    beta1 = (1.0 + p1) / (1.0 + a * p1)
    den = 1.0 + a * p1 + (1.0 - a) * p2
    # den >= 1 for every a <= 1, the only gains that reach this with array
    # powers; for a > 1 the threshold is moot.
    beta2 = a * (1.0 + p1) / den if a <= 1.0 or den > 0.0 else math.inf
    return beta1, beta2


def _conditions(a, b, p1, p2):
    """The left-closed interval tests, in priority order.

    The ZERO regime, then the decode-first, joint and cancel-free terms;
    treat-as-noise applies when none holds.  Powers may be floats or
    broadcastable arrays; the gains are floats.
    """
    beta1, beta2 = (1.0, 1.0) if a >= 1.0 else _betas(a, p1, p2)
    return a >= 1.0 + p2, b >= 1.0 + p1, b >= beta1, b >= beta2


def _cap(x, log2):
    return 0.5 * log2(1.0 + x)


def _terms(a, b, p1, p2, log2):
    """The decode-first, joint, cancel-free and treat-as-noise rate terms.

    `log2` is `math.log2` for floats and `np.log2` for arrays.  Nothing
    is validated: a term whose SNR overflows comes out non-finite.
    """
    direct = _cap(p1, log2)
    eave = _cap(a * p1 / (1.0 + p2), log2)
    return (
        direct - eave,
        _cap(p1 + b * p2, log2) - _cap(a * p1 + p2, log2),
        direct - _cap(a * p1, log2),
        _cap(p1 / (1.0 + b * p2), log2) - eave,
    )


def achievable_rate(
    gains: ChannelGains, alloc: PowerAllocation
) -> tuple[RateValue, BranchLabel]:
    """Secrecy rate guaranteed at a fixed power operating point.

    Returns the rate together with the branch that applied.  Interval
    ties follow the stated inequality directions (left-closed), so the
    label is deterministic; the rate itself is continuous across every
    boundary.  Raises DomainError when the selected term overflows.
    """
    a, b = gains.a, gains.b
    p1, p2 = alloc.p1, alloc.p2

    zero, decode, joint, mid = _conditions(a, b, p1, p2)
    if zero:
        return RateValue(0.0), _ZERO_BRANCH
    k = 0 if decode else 1 if joint else 2 if mid else 3
    raw = _terms(a, b, p1, p2, math.log2)[k]
    branch = _TERM_BRANCHES[Regime.REGIME_I if a >= 1.0 else Regime.REGIME_II][k]
    if not math.isfinite(raw):
        raise DomainError(f"rate of branch {branch} overflows at {gains}, {alloc}")
    if raw < _NEG_TOL and (a < 1.0 or k == 0):
        raise InvariantViolation(f"rate {raw} < 0 in {branch} at {gains}, {alloc}")
    return RateValue(raw if raw > 0.0 else 0.0), branch


def wiretap_capacity(a: float, p1: float) -> RateValue:
    """Secrecy capacity with the jammer silent: [g(p1) - g(a*p1)]+.

    Positive only when the eavesdropper's gain `a` is below one.
    """
    a = _require_finite("gain a", a, minimum=0.0)
    p1 = _require_finite("p1", p1, minimum=0.0)
    return RateValue(pos_part(gauss_cap(p1) - gauss_cap(a * p1)))
