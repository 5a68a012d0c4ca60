"""Reference values in stdlib `decimal` arithmetic, for checking float formulas.

Every float converts to a Decimal exactly, so each reference is the
formula itself evaluated at `DIGITS` significant digits on the very
inputs the float code saw: far more than a double's 17, and enough to
absorb the cancellation near the degraded line a*b = 1.  Decimal
exponents reach far beyond a double's, so no intermediate overflows.
Results are Decimals; compare them with `float(...)` or in Decimal.
"""

from decimal import Decimal, localcontext

DIGITS = 60


def _dec(*xs):
    return [Decimal(x) for x in xs]


def p2_star(a, b, pb1, digits=DIGITS):
    """The stationary jammer power: the positive root of
    (1 - ab) x^2 - 2(a - 1) x - c/b, c = a - b + (1 - b) a pb1, for b > 0
    and a*b < 1, by the plain quadratic formula; NaN where the
    discriminant is negative and no root exists."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, pb1 = _dec(a, b, pb1)
        c = a - b + (1 - b) * a * pb1
        radicand = (a - 1) ** 2 + (1 / b - a) * c
        if radicand < 0:
            return Decimal("NaN")
        return (a - 1 + radicand.sqrt()) / (1 - a * b)


def _cap(x):
    return (1 + x).ln() / (2 * Decimal(2).ln())


def rate_terms(a, b, p1, p2, digits=DIGITS):
    """The four rate terms: decode-first, joint, cancel-free, treat-as-noise."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, p1, p2 = _dec(a, b, p1, p2)
        eave = _cap(a * p1 / (1 + p2))
        return (
            _cap(p1) - eave,
            _cap(p1 + b * p2) - _cap(a * p1 + p2),
            _cap(p1) - _cap(a * p1),
            _cap(p1 / (1 + b * p2)) - eave,
        )


def rate(a, b, p1, p2, digits=DIGITS):
    """The achievable rate, its term selected by the exact interval tests.

    The tests are those of `achievable_rate`, cross-multiplied so that
    they are exact: a >= 1 + p2 gives 0, then b >= 1 + p1, b >= beta1 and
    b >= beta2 (both thresholds 1 when a >= 1) select the terms in order.
    Negative values are clipped to 0.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        A, B, P1, P2 = _dec(a, b, p1, p2)
        if A >= 1 + P2:
            return Decimal(0)
        if A >= 1:
            tests = (B >= 1 + P1, B >= 1, B >= 1)
        else:
            tests = (
                B >= 1 + P1,
                B * (1 + A * P1) >= 1 + P1,
                B * (1 + A * P1 + (1 - A) * P2) >= A * (1 + P1),
            )
        k = next((k for k, test in enumerate(tests) if test), 3)
        value = rate_terms(a, b, p1, p2, digits)[k]
        return max(value, Decimal(0))


def half_log2_inverse(*gains, digits=DIGITS):
    """(1/2) log2(1 / product of `gains`): the power-unconstrained limits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return -sum(x.ln() for x in _dec(*gains)) / (2 * Decimal(2).ln())


def _sato_terms(a, b, p1, p2):
    """A = 1 + p1 + b p2, B = 1 + a p1 + p2 and s = sqrt(a) p1 + sqrt(b) p2."""
    return 1 + p1 + b * p2, 1 + a * p1 + p2, a.sqrt() * p1 + b.sqrt() * p2


def sato_f(a, b, p1, p2, rho, digits=DIGITS):
    """The bound's f = (1/2) log2((A B - (rho + s)^2) / ((1 - rho^2) B))."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, p1, p2, rho = _dec(a, b, p1, p2, rho)
        big_a, big_b, s = _sato_terms(a, b, p1, p2)
        ratio = (big_a * big_b - (rho + s) ** 2) / ((1 - rho * rho) * big_b)
        return ratio.ln() / (2 * Decimal(2).ln())


def rho_star(a, b, p1, p2, digits=DIGITS):
    """f's minimizer over rho: the root in [0, 1] of s rho^2 - m rho + s,
    where m = A B - s^2 - 1, as 2s / (m + sqrt(m^2 - 4 s^2)); 0 where s = 0.

    m cancels the 1 of A B, so powers of 1e-j leave it about `digits` - j
    digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, p1, p2 = _dec(a, b, p1, p2)
        big_a, big_b, s = _sato_terms(a, b, p1, p2)
        if s == 0:
            return Decimal(0)
        m = big_a * big_b - s * s - 1
        return 2 * s / (m + (m * m - 4 * s * s).sqrt())
