import math
import sys

import numpy as np
import pytest

import decimal_reference as ref
from coopjam.bound import (
    NoiseCorrelation,
    _f_at_star_cancelled,
    _rho_root,
    _star_terms,
    rho_min_oracle,
    rho_star,
    sato_f,
    sato_upper_bound,
)
from coopjam.model import (
    ChannelGains,
    DomainError,
    PowerAllocation,
    PowerBudget,
    gauss_cap,
)
from coopjam.power import optimal_allocation


def f_at(a, b, p1, p2, rho):
    return sato_f(ChannelGains(a, b), PowerAllocation(p1, p2), rho)


class TestSatoF:
    def test_zero_powers(self):
        assert f_at(0.7, 1.3, 0.0, 0.0, 0.0) == 0.0

    def test_symmetric_unit_gains(self):
        # (25 - 16) / 5 inside the log, hand evaluated.
        assert f_at(1.0, 1.0, 2.0, 2.0, 0.0) == pytest.approx(
            0.42399845327747504, abs=1e-12
        )

    def test_frozen_off_minimum_point(self):
        value = f_at(0.6, 0.6, 2.0, 2.0, 0.5)
        assert value == pytest.approx(0.2873661422565704, abs=1e-12)
        at_star = f_at(0.6, 0.6, 2.0, 2.0, rho_star(ChannelGains(0.6, 0.6), PowerAllocation(2.0, 2.0)))
        assert at_star == pytest.approx(0.27982736761909166, abs=1e-12)
        assert value > at_star

    @pytest.mark.parametrize("rho", [-1.0, 1.0, 1.5, math.nan])
    def test_rejects_rho_outside_open_interval(self, rho):
        with pytest.raises(DomainError):
            f_at(1.0, 1.0, 2.0, 2.0, rho)

    def test_accepts_noise_correlation_objects(self):
        assert f_at(1.0, 1.0, 2.0, 2.0, NoiseCorrelation(0.0)) == f_at(
            1.0, 1.0, 2.0, 2.0, 0.0
        )


class TestRhoStar:
    def test_degraded_point_clamps_just_inside(self):
        for p in (0.5, 2.0, 7.0):
            star = rho_star(ChannelGains(1.0, 1.0), PowerAllocation(p, p))
            assert 1.0 - 1e-9 < star.rho < 1.0

    def test_degenerate_powers_return_zero(self):
        assert rho_star(ChannelGains(1.0, 1.0), PowerAllocation(0.0, 0.0)).rho == 0.0
        assert rho_star(ChannelGains(0.0, 0.0), PowerAllocation(3.0, 4.0)).rho == 0.0

    def test_stationarity_by_central_difference(self):
        star = rho_star(ChannelGains(0.25, 0.25), PowerAllocation(2.0, 2.0))
        h = 1e-5
        slope = (
            f_at(0.25, 0.25, 2.0, 2.0, star.rho + h)
            - f_at(0.25, 0.25, 2.0, 2.0, star.rho - h)
        ) / (2.0 * h)
        assert abs(slope) <= 1e-6

    def test_matches_numeric_argmin(self):
        for a, b, p1, p2 in [(4.0, 0.25, 1.0, 1.0), (0.25, 0.25, 2.0, 2.0), (2.0, 0.3, 2.0, 2.0)]:
            gains = ChannelGains(a, b)
            alloc = PowerAllocation(p1, p2)
            assert abs(rho_star(gains, alloc).rho - rho_min_oracle(gains, alloc).rho) <= 1e-6

    def test_quoted_difference_form_agrees(self):
        # Conjugate form used internally equals the literal difference form.
        rng = np.random.default_rng(19)
        for _ in range(300):
            a, b = rng.uniform(0.05, 5.0, size=2)
            p1, p2 = rng.uniform(0.01, 10.0, size=2)
            s, m, _, _, delta = _star_terms(a, b, p1, p2)
            quoted = (m - math.sqrt(delta)) / (2.0 * s)
            star = rho_star(ChannelGains(a, b), PowerAllocation(p1, p2))
            assert star.rho == pytest.approx(quoted, abs=1e-9)

    def test_minimizes_over_dense_rho_grid(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(-0.999, 0.999, 1001)
        for _ in range(40):
            a, b = rng.uniform(0.05, 5.0, size=2)
            p1, p2 = rng.uniform(0.01, 10.0, size=2)
            gains = ChannelGains(a, b)
            alloc = PowerAllocation(p1, p2)
            if math.sqrt(a) * p1 + math.sqrt(b) * p2 <= 1e-6:
                continue
            best = f_at(a, b, p1, p2, rho_star(gains, alloc))
            for r in grid:
                assert best <= f_at(a, b, p1, p2, float(r)) + 1e-12


class TestRhoMinOracle:
    def test_flat_profile_returns_midpoint(self):
        assert rho_min_oracle(ChannelGains(1.0, 1.0), PowerAllocation(0.0, 0.0)).rho == 0.0

    def test_agreement_with_closed_form(self):
        for a, b in [(0.25, 0.25), (2.0, 0.3)]:
            gains = ChannelGains(a, b)
            alloc = PowerAllocation(2.0, 2.0)
            assert abs(rho_min_oracle(gains, alloc).rho - rho_star(gains, alloc).rho) <= 1e-6


class TestConvexityAndMonotonicity:
    def test_convex_in_rho(self):
        rng = np.random.default_rng(47)
        h = 1e-4
        for _ in range(300):
            a, b = rng.uniform(0.05, 5.0, size=2)
            p1, p2 = rng.uniform(0.0, 10.0, size=2)
            r = rng.uniform(-0.99, 0.99)
            second = (
                f_at(a, b, p1, p2, r + h)
                - 2.0 * f_at(a, b, p1, p2, r)
                + f_at(a, b, p1, p2, r - h)
            ) / (h * h)
            assert second >= -1e-9

    def test_increasing_in_each_power(self):
        rng = np.random.default_rng(53)
        step = 1e-4
        for _ in range(300):
            a, b = rng.uniform(0.05, 5.0, size=2)
            p1, p2 = rng.uniform(0.0, 10.0, size=2)
            r = rng.uniform(-0.95, 0.95)
            base = f_at(a, b, p1, p2, r)
            assert f_at(a, b, p1 + step, p2, r) >= base - 1e-9
            assert f_at(a, b, p1, p2 + step, r) >= base - 1e-9


class TestSatoUpperBound:
    def test_zero_budget(self):
        ev = sato_upper_bound(ChannelGains(0.7, 1.3), PowerBudget(0.0, 0.0))
        assert ev.final_bound.value == 0.0
        assert ev.rho_star.rho == 0.0

    def test_degraded_symmetric_point_is_exactly_zero(self):
        ev = sato_upper_bound(ChannelGains(1.0, 1.0), PowerBudget(2.0, 2.0))
        assert ev.f_at_star == 0.0
        assert ev.final_bound.value == 0.0
        assert ev.discriminant == 0.0
        assert ev.rho_star.rho > 1.0 - 1e-9

    def test_direct_link_cap_applies(self):
        ev = sato_upper_bound(ChannelGains(3.0, 3.0), PowerBudget(2.0, 2.0))
        assert ev.f_at_star > gauss_cap(2.0)
        assert ev.final_bound.value == pytest.approx(gauss_cap(2.0), abs=1e-15)

    def test_weak_interference_gap_is_small(self):
        gains = ChannelGains(0.36, 0.36)
        budget = PowerBudget(2.0, 2.0)
        ev = sato_upper_bound(gains, budget)
        best = optimal_allocation(gains, budget)
        assert ev.final_bound.value >= best.rate.value
        assert ev.final_bound.value - best.rate.value < 0.06

    def test_bound_never_below_numeric_rho_minimum(self):
        # The reported value is the true minimum over rho, up to the
        # oracle's own resolution.
        rng = np.random.default_rng(59)
        for _ in range(50):
            gains = ChannelGains(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            budget = PowerBudget(rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0))
            ev = sato_upper_bound(gains, budget)
            numeric = sato_f(
                gains,
                PowerAllocation(budget.p1_max, budget.p2_max),
                rho_min_oracle(gains, PowerAllocation(budget.p1_max, budget.p2_max)),
            )
            assert ev.f_at_star <= numeric + 1e-10

    def test_cancelled_form_matches_raw_when_well_conditioned(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            a, b = rng.uniform(0.05, 5.0, size=2)
            p1, p2 = rng.uniform(0.05, 10.0, size=2)
            s, m, d_lo, d_hi, delta = _star_terms(a, b, p1, p2)
            raw_rho = 2.0 * s / (m + math.sqrt(delta))
            if raw_rho >= 1.0 - 1e-6:
                continue
            stable = _f_at_star_cancelled(a, p1, p2, s, m, d_lo, d_hi, raw_rho)
            direct = f_at(a, b, p1, p2, raw_rho)
            assert stable == pytest.approx(direct, abs=1e-10)

    def test_near_degraded_evaluation_tracks_the_oracle(self):
        # Just off a*b = 1 the raw quotient is noisy; the bound must stay
        # glued to the clipped-interval numeric minimum.
        for a in (0.5, 0.9, 1.0, 2.0):
            b = 1.0 / a
            gains = ChannelGains(a, b)
            budget = PowerBudget(2.0, 2.0)
            ev = sato_upper_bound(gains, budget)
            full = PowerAllocation(2.0, 2.0)
            numeric = sato_f(gains, full, rho_min_oracle(gains, full))
            assert ev.f_at_star == pytest.approx(numeric, abs=1e-7)
            assert ev.f_at_star <= numeric + 1e-10

    def test_discriminant_nonnegative_on_samples(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            gains = ChannelGains(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
            budget = PowerBudget(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
            assert sato_upper_bound(gains, budget).discriminant >= 0.0


def test_overflowing_square_is_a_domain_error(capsys):
    # (rho + s)^2 in f's numerator leaves the float range; no bare
    # OverflowError may escape, and the CLI reports a domain error.
    from coopjam.cli import main

    with pytest.raises(DomainError, match=r"\(rho \+ s\)\^2"):
        sato_upper_bound(ChannelGains(1e200, 0.5), PowerBudget(1e200, 1e200))
    argv = ["bound", "--a", "1e200", "--b", "0.5", "--pbar1", "1e200", "--pbar2", "1e200"]
    assert main(argv) == 2
    assert "(rho + s)^2" in capsys.readouterr().err


@pytest.mark.parametrize("p1, p2", [(2.0, 1e155), (1e160, 0.0)])
def test_cancelled_form_where_s_squared_overflows_is_a_domain_error(capsys, p1, p2):
    # On the degraded line a = b = 1, rho* = 1 takes the cancelled form,
    # whose s^2 leaves the float range there: a domain error that names
    # it, where log2(0) used to escape as a ValueError.
    from coopjam.cli import main

    with pytest.raises(DomainError, match=r"s\^2 in the bound"):
        sato_upper_bound(ChannelGains(1.0, 1.0), PowerBudget(p1, p2))
    argv = ["bound", "--a", "1", "--b", "1", "--pbar1", repr(p1), "--pbar2", repr(p2)]
    assert main(argv) == 2
    assert "s^2 in the bound" in capsys.readouterr().err
    # Below the overflow the degraded line's bound is still 0.
    below = sato_upper_bound(ChannelGains(1.0, 1.0), PowerBudget(2.0, 1.3e154))
    assert below.final_bound.value == 0.0


def test_overflowing_rho_root_is_a_domain_error(capsys):
    # s and m both overflow, so rho* = 2s / (m + sqrt(delta)) is inf/inf;
    # the error names them instead of a rho the user never gave.
    from coopjam.cli import main

    gains = ChannelGains(4.44e252, 2.92e-177)
    with pytest.raises(DomainError, match="inf/inf: s = inf and m = inf"):
        sato_upper_bound(gains, PowerBudget(3.47e210, 2.47e-199))
    with pytest.raises(DomainError, match="inf/inf: s = inf and m = inf"):
        rho_star(gains, PowerAllocation(3.47e210, 2.47e-199))
    argv = ["bound", "--a", "4.44e252", "--b", "2.92e-177"]
    assert main(argv + ["--pbar1", "3.47e210", "--pbar2", "2.47e-199"]) == 2
    err = capsys.readouterr().err
    assert "s = inf and m = inf overflow at a=4.44e+252" in err
    assert "rho must lie" not in err


def test_nan_discriminant_is_the_overflow_domain_error(capsys):
    # s and m overflow, and p2 = 0 keeps the cross term 0, not inf * 0 =
    # NaN, so rho* is inf/inf = NaN: an overflow, not an internal bug.
    from coopjam.cli import main

    gains = ChannelGains(1e200, 1e-100)
    with pytest.raises(DomainError, match="inf/inf: s = inf and m = inf"):
        sato_upper_bound(gains, PowerBudget(1e300, 0.0))
    with pytest.raises(DomainError, match="inf/inf: s = inf and m = inf"):
        rho_star(gains, PowerAllocation(1e300, 0.0))
    argv = ["bound", "--a", "1e200", "--b", "1e-100", "--pbar1", "1e300", "--pbar2", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_cancelling_numerator_is_a_domain_error(capsys):
    # A*B and (rho + s)^2 agree in every kept bit, so f's numerator cancels
    # to <= 0 in floats: a domain error that names it, not an internal bug.
    from coopjam.cli import main

    with pytest.raises(DomainError, match=r"^A\*B - \(rho \+ s\)\^2 in the bound is -1\.37"):
        sato_upper_bound(ChannelGains(1.22e37, 6.22e-61), PowerBudget(5.57e67, 9.63e-183))
    argv = ["bound", "--a", "1.22e37", "--b", "6.22e-61", "--pbar1", "5.57e67"]
    assert main(argv + ["--pbar2", "9.63e-183"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: A*B - (rho + s)^2 in the bound is -1.37" in captured.err
    # s overflows, so the numerator is inf - inf = NaN: the same error.
    with pytest.raises(DomainError, match=r"^A\*B - \(rho \+ s\)\^2 in the bound is nan"):
        sato_f(ChannelGains(1e300, 0.0), PowerAllocation(1e300, 0.0), 0.5)


def test_zero_budget_makes_the_cross_term_zero_not_nan(capsys):
    # a*b overflows, so (sqrt(ab) - 1)^2 is inf; times p2 = 0 the cross
    # term is 0, not inf * 0 = NaN, so the discriminant stays finite.
    from coopjam.cli import main

    argv = ["bound", "--a", "1e50", "--b", "1e300", "--pbar1", "1e-40", "--pbar2", "0"]
    assert main(argv) == 0
    values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert "nan" not in (value.split()[0] for value in values.values())
    assert math.isfinite(float(values["discriminant"]))


def test_infinite_m_with_finite_s_still_answers():
    # m overflows alone, so rho* = 0 and the bound is g(p1).
    p1 = 2.859267070172949e-268
    ev = sato_upper_bound(
        ChannelGains(1.658167020909777e172, 8.922481437879276e173),
        PowerBudget(p1, 3.7306426991850555e-79),
    )
    assert ev.rho_star.rho == 0.0
    assert ev.final_bound.value == gauss_cap(p1)


# s = sqrt(a) p1 + sqrt(b) p2 is 3.99e-13 here, and rho* is far from 0.
_TINY = (0.9, 1.1, 2e-13, 2e-13)


def test_rho_star_at_a_tiny_cross_amplitude_is_the_minimizer():
    a, b, p1, p2 = _TINY
    ev = sato_upper_bound(ChannelGains(a, b), PowerBudget(p1, p2))
    assert ev.rho_star.rho == pytest.approx(float(ref.rho_star(*_TINY)), abs=1e-12)
    assert rho_star(ChannelGains(a, b), PowerAllocation(p1, p2)).rho == ev.rho_star.rho
    truth = float(ref.sato_f(*_TINY, ref.rho_star(*_TINY)))
    assert ev.f_at_star == pytest.approx(truth, rel=0.1)
    assert ev.final_bound.value == ev.f_at_star


def test_bound_is_nondecreasing_in_the_budget_across_tiny_cross_amplitudes():
    # s = 1e-12 at p = 5.0e-13; f's float error is a few 1e-15 here, and
    # each step of 1e-13 raises the bound by about 1.4e-14.
    bounds = [
        sato_upper_bound(ChannelGains(0.9, 1.1), PowerBudget(k * 1e-13, k * 1e-13)).final_bound.value
        for k in range(1, 11)
    ]
    assert bounds == sorted(bounds)


# delta = d_lo * d_hi underflows below budgets of about 1e-154: subnormal
# at 1e-160, 0 at 1e-300 and at the unequal pair.
_UNDERFLOW = [(0.9, 1.1, 1e-160, 1e-160), (0.9, 1.1, 1e-300, 1e-300), (0.5, 2.0, 1e-200, 3e-250)]


@pytest.mark.parametrize("point", _UNDERFLOW)
def test_rho_star_where_the_discriminant_underflows(point):
    a, b, p1, p2 = point
    # m = A*B - s^2 - 1 keeps about `digits` - 300 digits at budgets of 1e-300.
    truth = float(ref.rho_star(*point, digits=400))
    ev = sato_upper_bound(ChannelGains(a, b), PowerBudget(p1, p2))
    assert ev.discriminant < sys.float_info.min
    assert ev.rho_star.rho == pytest.approx(truth, rel=1e-12)
    assert rho_star(ChannelGains(a, b), PowerAllocation(p1, p2)).rho == ev.rho_star.rho


def test_column_rho_root_equals_the_scalar_one_where_the_discriminant_underflows():
    from coopjam._columns import _COLUMNS

    points = [*_UNDERFLOW, (0.9, 1.1, 2.0, 2.0), (0.0, 0.0, 1.0, 1.0)]
    a, b, p1, p2 = (np.array(column) for column in zip(*points))
    rho = _rho_root(*_star_terms(a, b, p1, p2, _COLUMNS), _COLUMNS)
    assert rho.tolist() == [_rho_root(*_star_terms(*point)) for point in points]


def test_cli_prints_rho_star_where_the_discriminant_underflows(capsys):
    from coopjam.cli import main

    assert main(["bound", "--a", "0.9", "--b", "1.1", "--pbar1", "1e-300", "--pbar2", "1e-300"]) == 0
    assert "rho_star = 0.951129872263\n" in capsys.readouterr().out
