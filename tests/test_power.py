import math

import numpy as np
import pytest

from coopjam import power
from coopjam.achievable import achievable_rate
from coopjam.cli import main
from coopjam.model import InvariantViolation
from coopjam.model import ChannelGains, DomainError, PowerAllocation, PowerBudget
from coopjam.power import (
    AllocationSource,
    _rate_grid,
    asymptotic_rate,
    critical_powers,
    grid_search_allocation,
    optimal_allocation,
    wiretap_asymptotic_rate,
)


class TestOptimalAllocation:
    def test_strong_eavesdropper_weak_interference_gives_up(self):
        # b < 1/a but the interferer budget is below the activation
        # threshold (a-1)/(1-ab) = 2.5, so no positive rate exists.
        res = optimal_allocation(ChannelGains(2.0, 0.3), PowerBudget(2.0, 2.0))
        assert res.alloc == PowerAllocation(0.0, 0.0)
        assert res.rate.value == 0.0
        grid = grid_search_allocation(ChannelGains(2.0, 0.3), PowerBudget(2.0, 2.0), 150)
        assert grid.rate.value <= 1e-12

    def test_strong_eavesdropper_decodable_interference(self):
        # Transmitter holds power at b - 1 so the receiver can cancel.
        res = optimal_allocation(ChannelGains(2.0, 1.5), PowerBudget(2.0, 2.0))
        assert res.alloc == PowerAllocation(0.5, 2.0)
        assert res.rate.value == pytest.approx(0.08496250072115621, abs=1e-12)

    def test_weak_eavesdropper_interior_jammer_power(self):
        # p2_star = (-0.5 + sqrt(1.0)) / 0.75 = 2/3, hand evaluated.
        res = optimal_allocation(ChannelGains(0.5, 0.5), PowerBudget(2.0, 2.0))
        assert res.alloc.p1 == 2.0
        assert res.alloc.p2 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert res.rate.value == pytest.approx(0.32192809488736235, abs=1e-12)

    def test_no_interferer_budget_with_strong_eavesdropper(self):
        for a in (1.0, 1.7, 4.2):
            res = optimal_allocation(ChannelGains(a, 0.8), PowerBudget(3.0, 0.0))
            assert res.rate.value == 0.0

    def test_zero_allocation_rate_is_exactly_zero(self):
        # The give-up branch must agree exactly with the rate function.
        gains = ChannelGains(2.0, 0.3)
        res = optimal_allocation(gains, PowerBudget(2.0, 2.0))
        direct, _ = achievable_rate(gains, res.alloc)
        assert res.rate.value == 0.0 == direct.value

    def test_rate_matches_achievable_rate_at_chosen_point(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            gains = ChannelGains(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            budget = PowerBudget(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
            res = optimal_allocation(gains, budget)
            assert res.alloc.within(budget)
            direct, branch = achievable_rate(gains, res.alloc)
            assert res.rate.value == direct.value
            assert res.branch == branch

    def test_near_degraded_line_falls_back_to_grid(self):
        res = optimal_allocation(ChannelGains(1.0, 1.0 - 5e-10), PowerBudget(2.0, 2.0))
        assert res.source is AllocationSource.GRID_ORACLE
        assert res.rate.value < 1e-6

    def test_dominates_silent_interferer(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            gains = ChannelGains(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            budget = PowerBudget(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
            res = optimal_allocation(gains, budget)
            baseline, _ = achievable_rate(
                gains, PowerAllocation(budget.p1_max, 0.0)
            )
            assert res.rate.value >= baseline.value - 1e-12

    def test_rate_monotone_in_interferer_budget(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            gains = ChannelGains(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            pb1 = rng.uniform(0.1, 10.0)
            pb2 = rng.uniform(0.1, 10.0)
            extra = rng.uniform(0.0, 5.0)
            small = optimal_allocation(gains, PowerBudget(pb1, pb2))
            large = optimal_allocation(gains, PowerBudget(pb1, pb2 + extra))
            assert large.rate.value >= small.rate.value - 1e-12


class TestGridSearch:
    def test_degenerate_budget(self):
        res = grid_search_allocation(ChannelGains(1.3, 0.7), PowerBudget(0.0, 0.0), 10)
        assert res.alloc == PowerAllocation(0.0, 0.0)
        assert res.rate.value == 0.0

    def test_finds_the_augmented_critical_point(self):
        res = grid_search_allocation(ChannelGains(0.5, 0.5), PowerBudget(2.0, 2.0), 300)
        assert res.alloc.p1 == 2.0
        assert res.alloc.p2 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert res.rate.value == pytest.approx(0.32192809488736235, abs=2e-3)

    def test_agrees_with_closed_form(self):
        closed = optimal_allocation(ChannelGains(2.0, 1.5), PowerBudget(2.0, 2.0))
        grid = grid_search_allocation(ChannelGains(2.0, 1.5), PowerBudget(2.0, 2.0), 300)
        assert abs(closed.rate.value - grid.rate.value) <= 2e-3

    def test_rejects_tiny_step_count(self):
        with pytest.raises(DomainError):
            grid_search_allocation(ChannelGains(1.0, 1.0), PowerBudget(1.0, 1.0), 1)

    def test_oracle_agreement_randomized(self):
        # The closed-form point is always on the augmented lattice, so
        # the grid may only beat it through a genuine optimality gap.
        rng = np.random.default_rng(41)
        for _ in range(60):
            gains = ChannelGains(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            budget = PowerBudget(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
            closed = optimal_allocation(gains, budget)
            grid = grid_search_allocation(gains, budget, 120)
            diff = closed.rate.value - grid.rate.value
            assert -1e-9 <= diff <= 2e-3

    def test_vectorized_grid_matches_scalar_rate(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = rng.uniform(0.0, 5.0)
            b = rng.uniform(0.0, 5.0)
            p1s = rng.uniform(0.0, 10.0, size=7)
            p2s = rng.uniform(0.0, 10.0, size=7)
            matrix = _rate_grid(a, b, np.sort(p1s), np.sort(p2s))
            for i, p1 in enumerate(np.sort(p1s)):
                for j, p2 in enumerate(np.sort(p2s)):
                    scalar, _ = achievable_rate(
                        ChannelGains(a, b), PowerAllocation(float(p1), float(p2))
                    )
                    assert matrix[i, j] == pytest.approx(scalar.value, abs=1e-12)


class TestCriticalPowers:
    def test_reference_point(self):
        cp = critical_powers(ChannelGains(0.5, 0.5), PowerBudget(2.0, 2.0))
        assert cp.p1_star == -0.5
        assert cp.p2_star == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_interference_gain_gives_unbounded_p2_star(self):
        cp = critical_powers(ChannelGains(0.5, 0.0), PowerBudget(2.0, 2.0))
        assert math.isinf(cp.p2_star)

    def test_rejects_degraded_and_beyond(self):
        with pytest.raises(DomainError):
            critical_powers(ChannelGains(2.0, 0.5), PowerBudget(2.0, 2.0))
        with pytest.raises(DomainError):
            critical_powers(ChannelGains(2.0, 0.9), PowerBudget(2.0, 2.0))


class TestAsymptoticRate:
    def test_piecewise_values(self):
        assert asymptotic_rate(ChannelGains(2.0, 4.0)).value == pytest.approx(1.0, abs=1e-15)
        assert asymptotic_rate(ChannelGains(2.0, 0.25)).value == pytest.approx(0.5, abs=1e-15)
        assert asymptotic_rate(ChannelGains(0.5, 1.5)).value == pytest.approx(0.5, abs=1e-15)

    def test_dead_band_above_unit_gain(self):
        assert asymptotic_rate(ChannelGains(2.0, 0.7)).value == 0.0

    def test_zero_gain_diverges(self):
        assert asymptotic_rate(ChannelGains(0.0, 2.0)).unbounded
        assert asymptotic_rate(ChannelGains(2.0, 0.0)).unbounded

    def test_matches_power_control_at_huge_budgets(self):
        rng = np.random.default_rng(37)
        budget = PowerBudget(1e8, 1e8)
        checked = 0
        while checked < 60:
            a = rng.uniform(0.05, 5.0)
            b = rng.uniform(0.05, 5.0)
            if (
                abs(b - 1.0) < 0.05
                or abs(a * b - 1.0) < 0.05
                or abs(b - 1.0 / a) < 0.05
            ):
                continue
            checked += 1
            limit = asymptotic_rate(ChannelGains(a, b))
            res = optimal_allocation(ChannelGains(a, b), budget)
            assert res.rate.value == pytest.approx(limit.value, abs=1e-2)

    def test_wiretap_limit_in_the_flat_band(self):
        # For a < 1 and b inside [1, 1/a] the jammer stops helping in the
        # limit and the jammer-free asymptote is attained.
        rng = np.random.default_rng(43)
        budget = PowerBudget(1e8, 1e8)
        checked = 0
        while checked < 40:
            a = rng.uniform(0.1, 0.9)
            b = rng.uniform(1.0 + 0.05, 1.0 / a - 0.05) if 1.0 / a - 0.05 > 1.05 else None
            if b is None:
                continue
            checked += 1
            res = optimal_allocation(ChannelGains(a, b), budget)
            assert res.rate.value == pytest.approx(
                wiretap_asymptotic_rate(a).value, abs=1e-2
            )

    def test_wiretap_asymptote_values(self):
        assert wiretap_asymptotic_rate(0.25).value == pytest.approx(1.0, abs=1e-15)
        assert wiretap_asymptotic_rate(2.0).value == 0.0
        assert wiretap_asymptotic_rate(0.0).unbounded


def test_negative_p2_star_is_an_invariant_violation(monkeypatch, capsys):
    # The a >= 1 jamming case takes p2_star; a negative one is a bug that
    # must surface under python -O too, and map to exit code 1.
    monkeypatch.setattr(
        power, "critical_powers", lambda gains, budget: power.CriticalPowers(-0.5, -1.0)
    )
    with pytest.raises(InvariantViolation):
        optimal_allocation(ChannelGains(1.5, 0.5), PowerBudget(2.0, 3.0))
    code = main(["power", "--a", "1.5", "--b", "0.5", "--pbar1", "2", "--pbar2", "3"])
    assert code == 1
    assert "invariant violation:" in capsys.readouterr().err


def test_overflowing_p2_star_square_is_a_domain_error(capsys):
    # The jamming case of a >= 1 needs p2_star, whose (a - 1)^2 leaves the
    # float range; no bare OverflowError may escape.
    with pytest.raises(DomainError, match=r"\(a - 1\)\^2"):
        optimal_allocation(ChannelGains(1e200, 1e-300), PowerBudget(1e5, 1e300))
    argv = ["power", "--a", "1e200", "--b", "1e-300", "--pbar1", "1e5", "--pbar2", "1e300"]
    assert main(argv) == 2
    assert "(a - 1)^2" in capsys.readouterr().err


def _whole_lattice_rate(a, b, p1, p2):
    """Reference: every rate term on every cell, selected by nested np.where."""
    P1 = np.asarray(p1, dtype=float)[:, None]
    P2 = np.asarray(p2, dtype=float)[None, :]
    if a >= 1.0:
        beta1 = beta2 = 1.0
    else:
        beta1 = (1.0 + P1) / (1.0 + a * P1)
        beta2 = a * (1.0 + P1) / (1.0 + a * P1 + (1.0 - a) * P2)

    def cap(x):
        return 0.5 * np.log2(1.0 + x)

    eave = cap(a * P1 / (1.0 + P2))
    v_decode = cap(P1) - eave
    v_joint = cap(P1 + b * P2) - cap(a * P1 + P2)
    v_mid = cap(P1) - cap(a * P1)
    v_noise = cap(P1 / (1.0 + b * P2)) - eave
    inner = np.where(b >= beta1, v_joint, np.where(b >= beta2, v_mid, v_noise))
    rate = np.where(a >= 1.0 + P2, 0.0, np.where(b >= 1.0 + P1, v_decode, inner))
    return np.maximum(rate, 0.0)


def _reference_lattices(rng):
    """(a, b, p1, p2) lattices over both regimes, the exact ties and extremes."""
    for k in range(120):
        pb1, pb2 = rng.uniform(0.1, 10.0, size=2)
        p1 = np.linspace(0.0, pb1, int(rng.integers(2, 40)))
        p2 = np.linspace(0.0, pb2, int(rng.integers(2, 40)))
        a = [rng.uniform(0.05, 0.99), rng.uniform(1.0, 5.0), 1.0, 1.0 + rng.choice(p2)][k % 4]
        b = [rng.uniform(0.05, 5.0), 1.0, 1.0 + rng.choice(p1), 1.0 / a][k // 4 % 4]
        if k % 3 == 0:
            p1, p2 = rng.permutation(p1), rng.permutation(p2)
        yield a, b, p1, p2
    for _ in range(40):
        a, b = 10.0 ** rng.uniform(-300.0, 300.0, size=2)
        p1 = np.sort(10.0 ** rng.uniform(-300.0, 300.0, size=25))
        p2 = np.sort(10.0 ** rng.uniform(-300.0, 300.0, size=25))
        yield a, b, np.append(0.0, p1), np.append(0.0, p2)
    # Several row blocks, and empty power vectors.
    yield 0.6, 0.9, np.linspace(0.0, 3.0, 301), np.linspace(0.0, 3.0, 301)
    yield 2.0, 1.3, np.linspace(0.0, 3.0, 301), np.linspace(0.0, 3.0, 301)
    yield 0.5, 1.5, np.empty(0), np.linspace(0.0, 2.0, 7)
    yield 0.5, 1.5, np.linspace(0.0, 2.0, 7), np.empty(0)


def test_rate_grid_bytes_equal_whole_lattice_reference():
    # The row-partitioned lattice must give every cell the bits of the
    # whole-lattice evaluation on this machine, NaN and zeros included.
    rng = np.random.default_rng(53)
    with np.errstate(all="ignore"):
        for a, b, p1, p2 in _reference_lattices(rng):
            got = _rate_grid(a, b, p1, p2)
            want = _whole_lattice_rate(a, b, p1, p2)
            assert got.shape == want.shape == (len(p1), len(p2))
            assert got.dtype == want.dtype
            assert np.array_equal(got.tobytes(), want.tobytes()), (a, b)


def test_rate_grid_matches_scalar_rate_in_every_row_class():
    # Decode and joint tests hold per row, ZERO per column, and regime II's
    # cancel-free test per cell; each class must appear in some lattice.
    # ZERO needs a >= 1 + p2 and the cancel-free term a < 1, so each of
    # those two classes exists in one regime only.
    seen = set()
    p1 = np.linspace(0.0, 4.0, 21)
    p2 = np.linspace(0.0, 4.0, 21)
    for a, b in ((0.5, 1.5), (0.5, 0.8), (2.0, 1.5), (2.0, 0.5)):
        grid = _rate_grid(a, b, p1, p2)
        labels = np.empty(grid.shape, dtype=object)
        for i, x in enumerate(p1):
            for j, y in enumerate(p2):
                rate, label = achievable_rate(
                    ChannelGains(a, b), PowerAllocation(float(x), float(y))
                )
                assert grid[i, j] == pytest.approx(rate.value, abs=1e-12)
                labels[i, j] = str(label)
        regime = "I" if a >= 1.0 else "II"
        seen.update(f"{regime} zero column" for col in labels.T if set(col) == {"ZERO-1"})
        for row in labels:
            subs = {label.split("-")[1] for label in row if label != "ZERO-1"}
            if subs == {"1"}:
                seen.add(f"{regime} decode row")
            elif subs == {"2"}:
                seen.add(f"{regime} joint row")
            elif regime == "II" and subs == {"3", "4"}:
                seen.add("II mixed row")
            elif subs == {"3"} and regime == "I":
                seen.add("I noise row")
    assert seen == {
        "I zero column",
        "I decode row",
        "I joint row",
        "I noise row",
        "II decode row",
        "II joint row",
        "II mixed row",
    }


def test_grid_steps_below_two_exit_2_before_any_output(capsys):
    point = ["--a", "2", "--b", "0.5", "--pbar1", "2", "--pbar2", "2"]
    for argv in (
        ["power", *point, "--check-grid", "--grid-steps", "1"],
        ["verify", "--grid-steps", "1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_steps must be an integer >= 2, got 1" in captured.err


# Both SNRs of a term overflow in some cells of the first lattice (inf - inf
# is NaN, others are +inf); the second only overflows in unselected terms.
@pytest.mark.parametrize(
    "a, b, pbar, expected",
    [(2.0, 2.0, 1e308, (1.0, 1e308 / 300, 0.5)), (1e200, 0.5, 1e200, (0.0, 0.0, 0.0))],
)
def test_grid_never_chooses_a_non_finite_cell(a, b, pbar, expected):
    gains, budget = ChannelGains(a, b), PowerBudget(pbar, pbar)
    grid = grid_search_allocation(gains, budget, 300)
    assert (grid.alloc.p1, grid.alloc.p2, grid.rate.value) == expected
    assert grid.rate == optimal_allocation(gains, budget).rate
