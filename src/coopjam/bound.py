"""Genie-aided upper bound on the secrecy capacity.

The bound hands the eavesdropper's observation to the receiver as side
information.  Its value depends on the correlation `rho` between the
two receivers' (unit-variance) noises, which the bound is free to
minimize over because capacity depends on the marginals only.  The
conditional mutual information is

    f(P1, P2, rho) = (1/2) log2( (A*B - (rho + s)^2) / ((1 - rho^2) * B) )

with A = 1 + P1 + b*P2, B = 1 + a*P1 + P2 and s = sqrt(a)*P1 +
sqrt(b)*P2.  f is convex in rho with a closed-form minimizer rho_star,
and increasing in both powers, so the bound evaluates at full budgets.
The final capacity bound additionally caps this with the jamming-free
direct-link capacity g(P1_max).

`_bound_kernel` is the code of `sato_upper_bound`: rho_star and its
terms, f there and the final bound, from the rules that decide them
(`_star_terms`, `_rho_root`, `_direct`, `_f_defined`, `_final_bound`).
It takes float or array inputs with one `ops` to match:
`sato_upper_bound` calls it on floats and raises from what it returns,
and `sweep` and `verify` call it on columns (see `_columns`), as they
call `_unsound`.  Only the cancelled form of f near the degraded line
(`_f_at_star_cancelled`) is floats only: the kernel gives f as NaN
there, and the columns replay those rows.

`rho_min_oracle` re-derives the minimizer numerically (golden-section
over the convex profile) and exists purely to cross-check rho_star.
"""

from __future__ import annotations

import math
import sys

from .model import (
    ChannelGains,
    DomainError,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _cap,
    _clip,
    _FLOATS,
    _real,
    _setfield,
    _square,
    _Value,
)

__all__ = [
    "NoiseCorrelation",
    "SatoEvaluation",
    "rho_min_oracle",
    "rho_star",
    "sato_f",
    "sato_upper_bound",
]

# f is singular at rho = +-1; the numeric search stays this far inside,
# and a closed-form minimizer closer than this to 1 switches the bound
# evaluation to the cancelled quotient.
_RHO_EDGE = 1e-9
_RHO_CLAMP = 1.0 - 1e-12
# The golden-section oracle stops once its bracket is this narrow.
_ORACLE_TOL = 1e-10
# The rounding an achievable rate may exceed the bound by (sweep, verify).
SOUNDNESS_TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_rho(rho: float) -> float:
    """`rho` as a float strictly inside (-1, 1), or a DomainError naming rho."""
    r = _real("rho", rho)
    if not -1.0 < r < 1.0:
        raise DomainError(f"rho must lie strictly inside (-1, 1), got {r!r}")
    return r


class NoiseCorrelation(_Value):
    """Correlation between the two receivers' noise variables, in (-1, 1)."""

    __slots__ = ("rho",)

    def __init__(self, rho: float) -> None:
        _setfield(self, "rho", _check_rho(rho))


class SatoEvaluation(_Value):
    """Full breakdown of the bound at a budget.

    final_bound = min(f_at_star, g(p1_max)) clipped at zero, where
    f_at_star is the genie term f evaluated at full budgets and the
    minimizing rho.
    """

    __slots__ = ("rho_star", "f_at_star", "final_bound", "discriminant")

    def __init__(
        self,
        rho_star: NoiseCorrelation,
        f_at_star: float,
        final_bound: RateValue,
        discriminant: float,
    ) -> None:
        _setfield(self, "rho_star", rho_star)
        _setfield(self, "f_at_star", f_at_star)
        _setfield(self, "final_bound", final_bound)
        _setfield(self, "discriminant", discriminant)


def sato_f(gains: ChannelGains, alloc: PowerAllocation, rho: float | NoiseCorrelation) -> float:
    """The genie-aided conditional mutual information at one (powers, rho) point.

    A numerator that is not positive in floats is a DomainError.
    """
    r = rho.rho if isinstance(rho, NoiseCorrelation) else _check_rho(rho)
    a, b, p1, p2 = gains.a, gains.b, alloc.p1, alloc.p2
    num, arg = _f_log_arg(a, b, p1, p2, r)
    if not _f_defined(num):
        raise _numerator_error(num, a, b, p1, p2, r)
    return 0.5 * math.log2(arg)


def _numerator_error(num: float, a: float, b: float, p1: float, p2: float, r: float):
    """The DomainError where f's numerator `num` at rho = r is not positive."""
    # Positive for |rho| < 1, but A*B and (rho + s)^2 may cancel in floats.
    return DomainError(
        f"A*B - (rho + s)^2 in the bound is {num}, not > 0, in floats"
        f" at a={a}, b={b}, p1={p1}, p2={p2}, rho={r}"
    )


def _f_defined(num):
    """Where f's log argument, of numerator `num`, is positive; float or array."""
    return num > 0.0


def _f_log_arg(a, b, p1, p2, r, ops=_FLOATS):
    """The numerator A*B - (rho + s)^2 of f's log argument, and the argument.

    Float or array inputs, with `ops` to match; nothing is checked.
    """
    eave = 1.0 + a * p1 + p2
    s = ops.sqrt(a) * p1 + ops.sqrt(b) * p2
    num = (1.0 + p1 + b * p2) * eave - ops.square(r + s, "(rho + s)^2 in the bound")
    return num, num / ((1.0 - r * r) * eave)


def _star_terms(a, b, p1, p2, ops=_FLOATS):
    """s, m, the two discriminant factors and delta, for float or array inputs.

    The factors equal m - 2s and m + 2s but are computed as sums of
    nonnegative products, so delta = lo * hi is >= 0 by construction.  The
    cross term (sqrt(ab) - 1)^2 p1 p2 is 0 where either power is, also
    where a*b overflows, so it is never inf * 0 = NaN.  Nothing is checked.
    """
    ra, rb = ops.sqrt(a), ops.sqrt(b)
    s = ra * p1 + rb * p2
    cross = ops.square(ops.sqrt(a * b) - 1.0, "(sqrt(a*b) - 1)^2 in the bound") * p1 * p2
    cross = ops.where((p1 == 0.0) | (p2 == 0.0), 0.0, cross)
    m = (1.0 + a) * p1 + (1.0 + b) * p2 + cross
    d_lo = (
        ops.square(ra - 1.0, "(sqrt(a) - 1)^2 in the bound") * p1
        + ops.square(rb - 1.0, "(sqrt(b) - 1)^2 in the bound") * p2
        + cross
    )
    d_hi = (
        ops.square(ra + 1.0, "(sqrt(a) + 1)^2 in the bound") * p1
        + ops.square(rb + 1.0, "(sqrt(b) + 1)^2 in the bound") * p2
        + cross
    )
    return s, m, d_lo, d_hi, d_lo * d_hi


def _rho_root(s, m, d_lo, d_hi, delta, ops=_FLOATS):
    """The minimizer 2s / (m + sqrt(delta)), >= 0 or NaN; 0 / 1 where s == 0.

    Only s == 0 makes it 0/0, where f is flat in the powers and minimized
    at rho = 0: for s > 0 some power is positive, so m >= p1 + p2 > 0.
    Where delta = d_lo * d_hi is below the smallest normal double, the
    product has lost digits or underflowed to 0 (budgets below about
    1e-154), so sqrt(delta) is taken as sqrt(d_lo) * sqrt(d_hi).
    """
    flat = s == 0.0
    tiny = delta < sys.float_info.min
    root = ops.where(tiny, ops.sqrt(d_lo) * ops.sqrt(d_hi), ops.sqrt(delta))
    return ops.where(flat, 0.0, 2.0 * s) / ops.where(flat, 1.0, m + root)


def _f_numerator(rho, s, d_lo):
    """A*B - (rho + s)^2 as (1 - rho)(1 + rho + 2s) + d_lo, every term >= 0.

    It equals `_f_log_arg`'s numerator, since A*B - s^2 = 1 + m and
    m - 2s = d_lo, but subtracts nothing; float or array inputs.
    """
    return (1.0 - rho) * (1.0 + rho + 2.0 * s) + d_lo


def _direct(rho):
    """Where f(rho*) is evaluated directly: rho* < 1 - 1e-9, so not NaN."""
    return rho < 1.0 - _RHO_EDGE


def _final_bound(f_at, p1, ops=_FLOATS):
    """max(min(f(rho*), g(p1)), 0), for float or array `f_at` and `p1`."""
    return _clip(ops.min(f_at, _cap(p1, ops.log2)), ops)


def _unsound(rate, bound):
    """Where an achievable `rate` exceeds `bound` beyond rounding."""
    return rate > bound + SOUNDNESS_TOL


def _root_error(terms: tuple, a: float, b: float, p1: float, p2: float):
    """The DomainError where the root of `terms` is NaN: s and m overflow (inf/inf)."""
    s, m, _, _, delta = terms
    return DomainError(
        f"rho* = 2s / (m + sqrt(delta)) is {2.0 * s}/{m + math.sqrt(delta)}: "
        f"s = {s} and m = {m} overflow at a={a}, b={b}, p1={p1}, p2={p2}"
    )


def rho_star(gains: ChannelGains, alloc: PowerAllocation) -> NoiseCorrelation:
    """Closed-form minimizer of f over rho for fixed powers.

    Computed in the conjugate form 2s / (m + sqrt(delta)), which avoids
    the cancellation the quoted difference form suffers for small s.
    The result lies in [0, 1 - 1e-12]: where s == 0 (both
    cross-amplitudes zero) f is flat and 0 is returned, and a root of 1,
    which occurs only on the degraded line, or within 1e-12 of it is
    clamped to 1 - 1e-12, inside the open interval.  `rho_min_oracle`
    re-derives the root to within its bracket width 1e-10.  A NaN root,
    where s and m overflow, is a DomainError.
    """
    a, b, p1, p2 = gains.a, gains.b, alloc.p1, alloc.p2
    terms = _star_terms(a, b, p1, p2)
    rho = _rho_root(*terms)
    if math.isnan(rho):
        raise _root_error(terms, a, b, p1, p2)
    return NoiseCorrelation(min(rho, _RHO_CLAMP))


def rho_min_oracle(gains: ChannelGains, alloc: PowerAllocation) -> NoiseCorrelation:
    """Numeric minimizer of f over rho, independent of the closed form.

    Golden-section search over [-1 + 1e-9, 1 - 1e-9] until the bracket
    is 1e-10 wide, returning its midpoint; convexity of f in rho
    guarantees convergence.  When the two probes tie exactly the
    minimum lies between them, so both ends contract; a constant profile
    therefore converges to the midpoint 0.
    """
    lo, hi = -1.0 + _RHO_EDGE, 1.0 - _RHO_EDGE

    def f(r: float) -> float:
        return sato_f(gains, alloc, r)

    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > _ORACLE_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        elif fd < fc:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        else:
            lo, hi = c, d
            c = hi - _INV_PHI * (hi - lo)
            d = lo + _INV_PHI * (hi - lo)
            fc, fd = f(c), f(d)
    return NoiseCorrelation(0.5 * (lo + hi))


def _f_at_star_cancelled(
    a: float,
    p1: float,
    p2: float,
    s: float,
    m: float,
    d_lo: float,
    d_hi: float,
    rho: float,
) -> float:
    """f at the closed-form minimizer with the vanishing root cancelled.

    At the minimizer, the (1 - rho) factor of the denominator shares a
    root with the numerator as the degraded line is approached, so the
    raw quotient degenerates to 0/0 noise there.  Writing u = sqrt(A*B)
    - s, the shared sqrt(u - 1) factor cancels algebraically:

        (u - rho) / (1 - rho)
            = (sqrt(d_lo)*(u+1)*(u+2s)/t + u*sqrt(d_hi))
              / (sqrt(d_lo) + sqrt(d_hi)),   t = u + 1 + 2s

    which is exact for every interior minimizer and finite at u = 1.
    """
    u = (m + 1.0) / (math.sqrt(_square(s, "s^2 in the bound") + m + 1.0) + s)
    t = u + 1.0 + 2.0 * s
    r_lo, r_hi = math.sqrt(d_lo), math.sqrt(d_hi)
    ratio = (r_lo * (u + 1.0) * (u + 2.0 * s) / t + u * r_hi) / (r_lo + r_hi)
    eave = 1.0 + a * p1 + p2
    return 0.5 * math.log2(ratio * (u + 2.0 * s + rho) / ((1.0 + rho) * eave))


def _bound_kernel(a, b, p1, p2, ops=_FLOATS):
    """rho*, f(rho*) and the final bound of `sato_upper_bound` at budgets p1, p2.

    Returns (rho, f_at, bound, terms, num): rho before clamping, the
    `_star_terms` it came from, and f's numerator.  f is evaluated only
    where `_direct(rho)`, so not at a NaN root, and its log only where
    num is positive; elsewhere num and f_at are NaN, and
    `sato_upper_bound` takes the cancelled form or raises.  Float or
    array inputs, with `ops` to match.
    """
    terms = _star_terms(a, b, p1, p2, ops)
    rho = _rho_root(*terms, ops)

    def direct_f(direct):
        if not direct:
            return math.nan, math.nan
        num, arg = _f_log_arg(a, b, p1, p2, rho, ops)
        # The log of NaN, where num is not positive, is NaN and raises nowhere.
        return num, 0.5 * ops.log2(ops.where(_f_defined(num), arg, math.nan))

    num, f_at = ops.pick(_direct(rho), (False, True), direct_f)
    return rho, f_at, _final_bound(f_at, p1, ops), terms, num


def sato_upper_bound(gains: ChannelGains, budget: PowerBudget) -> SatoEvaluation:
    """Evaluate the capacity upper bound at full budgets.

    f increases in both powers, so the inner maximization sits at the
    budget corner; the outer minimization over rho is the closed form.
    Within 1e-9 of rho = 1 the quotient is evaluated in cancelled form
    (see `_f_at_star_cancelled`), keeping the bound exact on and near
    the degraded line.
    """
    a, b, p1, p2 = gains.a, gains.b, budget.p1_max, budget.p2_max
    rho, f_at, bound, terms, num = _bound_kernel(a, b, p1, p2)
    if math.isnan(f_at):  # f is not evaluated directly, or log2 of inf / inf
        if math.isnan(rho):
            raise _root_error(terms, a, b, p1, p2)
        if not _direct(rho):
            f_at = _f_at_star_cancelled(a, p1, p2, *terms[:4], rho)
            bound = _final_bound(f_at, p1)
        elif not _f_defined(num):
            raise _numerator_error(num, a, b, p1, p2, rho)
    return SatoEvaluation(NoiseCorrelation(min(rho, _RHO_CLAMP)), f_at, RateValue(bound), terms[4])
