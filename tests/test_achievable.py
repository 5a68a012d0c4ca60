import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopjam.achievable import (
    BranchLabel,
    Regime,
    Thresholds,
    achievable_rate,
    wiretap_capacity,
)
from coopjam.model import ChannelGains, PowerAllocation, gauss_cap
from coopjam.model import DomainError
from coopjam.power import _argument_blocks


def rate_at(a, b, p1, p2):
    return achievable_rate(ChannelGains(a, b), PowerAllocation(p1, p2))


class TestKnownPoints:
    def test_zero_regime(self):
        rate, branch = rate_at(4.0, 0.5, 2.0, 2.0)
        assert rate.value == 0.0
        assert branch == BranchLabel(Regime.ZERO, 1)

    def test_no_transmit_power(self):
        rate, _ = rate_at(0.7, 1.3, 0.0, 5.0)
        assert rate.value == 0.0

    def test_treat_as_noise_branch(self):
        # b below beta2 = 0.642857...: g(1.5) - g(0.6), hand evaluated.
        rate, branch = rate_at(0.5, 0.5, 2.0, 2.0 / 3.0)
        assert rate.value == pytest.approx(0.32192809488736235, abs=1e-12)
        assert branch == BranchLabel(Regime.REGIME_II, 4)

    def test_decode_and_cancel_branch(self):
        # b >= 1 + P1: g(2) - g(1/3), hand evaluated.
        rate, branch = rate_at(0.5, 7.0, 2.0, 2.0)
        assert rate.value == pytest.approx(0.5849625007211562, abs=1e-12)
        assert branch == BranchLabel(Regime.REGIME_II, 1)

    def test_zero_boundary_is_closed(self):
        # a exactly 1 + P2 sits in the zero regime.
        rate, branch = rate_at(3.0, 0.5, 2.0, 2.0)
        assert rate.value == 0.0
        assert branch.regime is Regime.ZERO


class TestWiretapCapacity:
    def test_known_points(self):
        assert wiretap_capacity(1.0, 5.0).value == 0.0
        assert wiretap_capacity(2.0, 5.0).value == 0.0
        assert wiretap_capacity(0.5, 2.0).value == pytest.approx(
            0.29248125036057804, abs=1e-12
        )

    def test_rejects_bad_inputs(self):
        from coopjam.model import DomainError

        with pytest.raises(DomainError):
            wiretap_capacity(-1.0, 2.0)
        with pytest.raises(DomainError):
            wiretap_capacity(0.5, math.inf)


class TestThresholds:
    def test_collapse_at_unit_gain(self):
        th = Thresholds.at(ChannelGains(1.0, 1.0), PowerAllocation(3.0, 7.0))
        assert th.beta1 == pytest.approx(1.0, abs=1e-15)
        assert th.beta2 == pytest.approx(1.0, abs=1e-15)

    def test_ordering_below_unit_gain(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = rng.uniform(0.0, 1.0)
            p1 = rng.uniform(0.0, 10.0)
            p2 = rng.uniform(0.0, 10.0)
            th = Thresholds.at(ChannelGains(a, 1.0), PowerAllocation(p1, p2))
            assert th.beta2 <= 1.0 + 1e-12
            assert 1.0 - 1e-12 <= th.beta1 <= 1.0 + p1 + 1e-12
            assert th.beta2 <= th.beta1 + 1e-12

    def test_clamp_gives_exact_unit_thresholds_from_unit_gain_on(self):
        powers = (0.0, 1e-300, 3.0, 1e300)
        for a, p1, p2 in itertools.product((1.0, 1.5, 4.0, 1e300), powers, powers):
            th = Thresholds.at(ChannelGains(a, 1.0), PowerAllocation(p1, p2))
            assert (th.beta1, th.beta2) == (1.0, 1.0), (a, p1, p2)

    def test_array_clamp_matches_scalar_elementwise(self):
        from coopjam._columns import _COLUMNS
        from coopjam.achievable import _betas

        a = np.array([0.0, 0.25, 0.999999, 1.0, 1.000001, 2.0, 1e300])
        for p1, p2 in ((0.0, 0.0), (3.0, 7.0), (1e-300, 1e300), (1e300, 2.0)):
            beta1, beta2 = _betas(a, p1, p2, _COLUMNS)
            expected = [_betas(x, p1, p2) for x in a.tolist()]
            assert list(zip(beta1.tolist(), beta2.tolist())) == expected

    def test_beta2_defined_at_extreme_interferer_power(self):
        # Denominator 1 + a*P1 + (1-a)*P2 stays positive for a < 1.
        th = Thresholds.at(ChannelGains(0.5, 0.2), PowerAllocation(2.0, 1e12))
        assert math.isfinite(th.beta2) and th.beta2 > 0.0
        rate, _ = rate_at(0.5, 0.2, 2.0, 1e12)
        assert 0.0 <= rate.value <= gauss_cap(2.0)


class TestBranchLabel:
    def test_string_form(self):
        assert str(BranchLabel(Regime.REGIME_II, 4)) == "II-4"
        assert str(BranchLabel(Regime.ZERO, 1)) == "ZERO-1"

    def test_sub_case_ranges(self):
        with pytest.raises(ValueError):
            BranchLabel(Regime.ZERO, 2)
        with pytest.raises(ValueError):
            BranchLabel(Regime.REGIME_I, 4)
        with pytest.raises(ValueError):
            BranchLabel(Regime.REGIME_II, 5)


@settings(max_examples=300, derandomize=True)
@given(
    a=st.floats(min_value=0.0, max_value=6.0),
    b=st.floats(min_value=0.0, max_value=6.0),
    p1=st.floats(min_value=0.0, max_value=12.0),
    p2=st.floats(min_value=0.0, max_value=12.0),
)
def test_rate_is_nonnegative(a, b, p1, p2):
    rate, _ = rate_at(a, b, p1, p2)
    assert rate.value >= 0.0


@settings(max_examples=300, derandomize=True)
@given(
    a=st.floats(min_value=0.0, max_value=6.0),
    b=st.floats(min_value=0.0, max_value=8.0),
    p1=st.floats(min_value=0.0, max_value=12.0),
)
def test_silent_interferer_recovers_wiretap_capacity(a, b, p1):
    rate, _ = rate_at(a, b, p1, 0.0)
    assert rate.value == pytest.approx(wiretap_capacity(a, p1).value, abs=1e-12)


def test_unclipped_branches_nonnegative_on_their_intervals():
    # The middle branches carry no explicit clipping; recompute them raw
    # and confirm the interval conditions alone keep them nonnegative.
    rng = np.random.default_rng(7)
    g = gauss_cap
    seen = set()
    for _ in range(4000):
        a = rng.uniform(0.0, 0.999)
        b = rng.uniform(0.0, 6.0)
        p1 = rng.uniform(0.0, 10.0)
        p2 = rng.uniform(0.0, 10.0)
        _, branch = rate_at(a, b, p1, p2)
        if branch.regime is not Regime.REGIME_II or branch.sub_case == 1:
            continue
        seen.add(branch.sub_case)
        if branch.sub_case == 2:
            raw = g(p1 + b * p2) - g(a * p1 + p2)
        elif branch.sub_case == 3:
            raw = g(p1) - g(a * p1)
        else:
            raw = g(p1 / (1.0 + b * p2)) - g(a * p1 / (1.0 + p2))
        assert raw >= -1e-12
    assert seen == {2, 3, 4}


def test_continuity_across_all_boundaries():
    rng = np.random.default_rng(13)
    eps = 1e-7
    for _ in range(200):
        p1 = rng.uniform(0.1, 10.0)
        p2 = rng.uniform(0.1, 10.0)
        a_low = rng.uniform(0.05, 0.95)
        th = Thresholds.at(ChannelGains(a_low, 1.0), PowerAllocation(p1, p2))
        probes = [
            (rng.uniform(0.05, 5.0), 1.0 + p1),
            (rng.uniform(0.05, 5.0), 1.0),
            (a_low, th.beta1),
            (a_low, th.beta2),
        ]
        for a, b0 in probes:
            lo, _ = rate_at(a, b0 - eps, p1, p2)
            hi, _ = rate_at(a, b0 + eps, p1, p2)
            assert abs(hi.value - lo.value) <= 1e-5
        b = rng.uniform(0.0, 5.0)
        for a0 in (1.0, 1.0 + p2):
            lo, _ = rate_at(a0 - eps, b, p1, p2)
            hi, _ = rate_at(a0 + eps, b, p1, p2)
            assert abs(hi.value - lo.value) <= 1e-5


def test_rate_non_increasing_in_eavesdropper_gain():
    # Within each regime's interior, a stronger eavesdropper never helps.
    rng = np.random.default_rng(5)
    step = 1e-4
    for _ in range(400):
        b = rng.uniform(0.0, 5.0)
        p1 = rng.uniform(0.1, 10.0)
        p2 = rng.uniform(0.1, 10.0)
        if rng.uniform() < 0.5:
            a = rng.uniform(0.01, 0.99 - step)
        else:
            a = rng.uniform(1.0, 1.0 + p2 - step) if p2 > 2 * step else 0.5
        r0, _ = rate_at(a, b, p1, p2)
        r1, _ = rate_at(a + step, b, p1, p2)
        assert r1.value <= r0.value + 1e-9


# Points on a boundary take the branch its left-closed test selects.
# Labels taken from the implementation that wrote each regime out apart.
@pytest.mark.parametrize(
    "a, b, p1, p2, label",
    [
        (1.0, 0.5, 1.0, 1.0, "I-3"),
        (1.0, 1.0, 1.0, 1.0, "I-2"),
        (1.0, 2.0, 1.0, 1.0, "I-1"),
        (2.0, 2.0, 1.0, 1.0, "ZERO-1"),
        (2.0, 3.0, 1.0, 3.0, "I-1"),
        (0.5, 2.0, 1.0, 1.0, "II-1"),
        (0.5, 1.5, 2.0, 1.0, "II-2"),
        (0.5, 1.0, 1.0, 1.0, "II-3"),
        (0.5, 0.75, 2.0, 1.0, "II-3"),
        (0.5, 0.5, 2.0, 2.0, "II-3"),
        (0.5, 0.25, 2.0, 2.0, "II-4"),
    ],
)
def test_exact_ties_keep_left_closed_labels(a, b, p1, p2, label):
    rate, branch = rate_at(a, b, p1, p2)
    assert str(branch) == label
    # The lattice's log argument of this one cell; a ZERO cell is in no
    # block and has argument 1.
    blocks = _argument_blocks(a, b, np.array([p1]), np.array([p2]))
    argument = next((block[0, 0] for _, _, block in blocks), 1.0)
    assert max(0.5 * math.log2(argument), 0.0) == pytest.approx(rate.value, abs=1e-12)


def test_selected_term_overflow_is_a_domain_error():
    # The joint term's SNR p1 + b*p2 overflows to inf.
    with pytest.raises(DomainError):
        rate_at(0.5, 1e10, 1e300, 1e300)


def test_unselected_term_overflow_leaves_rate_finite():
    # Only the joint and treat-as-noise SNRs overflow; decode-first applies.
    rate, branch = rate_at(0.5, 1e300, 1e300, 1e300)
    assert str(branch) == "II-1"
    assert rate.value == pytest.approx(497.996732983, abs=1e-9)
