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

`_betas` clamps `a` at 1 itself, which makes both thresholds exactly 1
in regime I, so no caller tells the regimes apart to test the intervals.
`_conditions`, `_term_snrs`, `_misselected` and `_branch_code` write the
tests, the rate terms' SNRs, the misselection check and the branch code
once, for float or NumPy inputs, so the lattice oracle in `power` and
the sweep's columns evaluate them too; a caller with an array `a` passes
one `ops` of array stand-ins.  `_LABELS` is indexed by a branch
code: 0 is ZERO-1, 1 + k is regime I's term k and 5 + k regime II's.

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
    _cap,
    _clip,
    _first,
    _FLOATS,
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


# Labels by branch code, each built once.  The rate terms of `_term_snrs`
# map to sub-cases in order; regime I never reaches the cancel-free term.
_LABELS = (
    BranchLabel(Regime.ZERO, 1),
    *(None if sub is None else BranchLabel(Regime.REGIME_I, sub) for sub in (1, 2, None, 3)),
    *(BranchLabel(Regime.REGIME_II, sub) for sub in (1, 2, 3, 4)),
)


def _branch_code(a, k, ops=_FLOATS):
    """The `_LABELS` index of rate term k outside ZERO; float or array `a`."""
    return ops.where(a >= 1.0, 1, 5) + k


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Interference-gain cutoffs between the REGIME_II sub-cases.

    beta1 separates joint decoding from the cancel-free middle branch,
    beta2 separates that branch from treating the jamming as noise.
    For a < 1 they satisfy beta2 <= 1 <= beta1 <= 1 + P1; for a >= 1 both
    are 1, the values the rate's interval tests use there.
    """

    beta1: float
    beta2: float

    @classmethod
    def at(cls, gains: ChannelGains, alloc: PowerAllocation) -> "Thresholds":
        return cls(*_betas(gains.a, alloc.p1, alloc.p2))


def _betas(a, p1, p2, ops=_FLOATS):
    """(beta1, beta2) at float or array inputs, with `ops` to match.

    `a` is clamped at 1 first, so the denominator of beta2 is at least 1.
    For a >= 1 both come out exactly 1.0 at finite powers: (1 + p1) / (1 + p1)
    rounds to 1 and 0.0 * p2 is 0.
    """
    a = ops.min(a, 1.0)
    beta1 = (1.0 + p1) / (1.0 + a * p1)
    beta2 = a * (1.0 + p1) / (1.0 + a * p1 + (1.0 - a) * p2)
    return beta1, beta2


def _conditions(a, b, p1, p2, ops=_FLOATS):
    """The left-closed interval tests, in priority order.

    The ZERO regime, then the decode-first, joint and cancel-free terms;
    treat-as-noise applies when none holds.  Gains and powers may be
    floats or broadcastable arrays, with `ops` to match.  Both
    thresholds are 1 for a >= 1, so the cancel-free term is never
    selected there.
    """
    beta1, beta2 = _betas(a, p1, p2, ops)
    return a >= 1.0 + p2, b >= 1.0 + p1, b >= beta1, b >= beta2


def _misselected(raw, a, k):
    """Where the unclipped rate `raw` of term k is negative beyond rounding.

    Only regime I's joint and treat-as-noise terms may go negative on
    their own intervals.  Float or array inputs.
    """
    return (raw < _NEG_TOL) & ((a < 1.0) | (k == 0))


def _term_snrs(k, a, b, p1, p2):
    """The SNRs (x, y) of rate term k, which is _cap(x) - _cap(y).

    Terms in order: decode-first, joint, cancel-free, treat-as-noise.
    Float or array inputs; nothing is validated, so an SNR that overflows
    comes out infinite.  The cancel-free term does not read p2.
    """
    if k == 1:
        return p1 + b * p2, a * p1 + p2
    if k == 2:
        return p1, a * p1
    # Decode-first and treat-as-noise share the eavesdropper's SNR.
    x = p1 if k == 0 else p1 / (1.0 + b * p2)
    return x, a * p1 / (1.0 + p2)


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
        return RateValue(0.0), _LABELS[0]
    k = _first((decode, joint, mid))
    x, y = _term_snrs(k, a, b, p1, p2)
    raw = _cap(x, math.log2) - _cap(y, math.log2)
    branch = _LABELS[_branch_code(a, k)]
    if not math.isfinite(raw):
        raise DomainError(f"rate of branch {branch} overflows at {gains}, {alloc}")
    if _misselected(raw, a, k):
        raise InvariantViolation(f"rate {raw} < 0 in {branch} at {gains}, {alloc}")
    return RateValue(_clip(raw)), branch


def wiretap_capacity(a: float, p1: float) -> RateValue:
    """Secrecy capacity with the jammer silent: [g(p1) - g(a*p1)]+.

    Positive only when the eavesdropper's gain `a` is below one.
    """
    a = _require_finite("gain a", a)
    p1 = _require_finite("p1", p1)
    return RateValue(pos_part(gauss_cap(p1) - gauss_cap(a * p1)))
