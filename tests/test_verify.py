"""verify's checks draw their samples as arrays; these pin them to the
samples of one `rng.uniform` call per value, made in the checks' order."""

import math

import numpy as np
import pytest

import coopjam._columns as columns
import coopjam.achievable as achievable
import coopjam.bound as bound
import coopjam.power as power
import coopjam.verify as verify
from coopjam.achievable import Thresholds, achievable_rate, wiretap_capacity
from coopjam.bound import sato_upper_bound
from coopjam.model import ChannelGains, PowerAllocation, PowerBudget


def _record(monkeypatch, names):
    """Calls of the named `coopjam.verify` globals, or of the `_columns`
    functions that checks import themselves, as (name, args), in order.

    An array argument is recorded as its bytes, so samples compare bit
    for bit."""
    calls = []
    for name in names:
        module = verify if hasattr(verify, name) else columns

        def recorded(*args, _fn=getattr(module, name), _name=name):
            calls.append((_name, tuple(_bits(arg) for arg in args)))
            return _fn(*args)

        monkeypatch.setattr(module, name, recorded)
    return calls


def _bits(arg):
    return arg.tobytes() if isinstance(arg, np.ndarray) else arg


def _column_bits(rows):
    """The bytes of each column of `rows`, as a kernel receives them."""
    return tuple(np.array(column, dtype=float).tobytes() for column in zip(*rows))


# The references draw one value per rng.uniform call, rejection loops
# included, and yield the calls a check makes with those values.

def _gains(rng):
    return ChannelGains(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))


def _budget(rng):
    return PowerBudget(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))


def _soundness_samples(rng, n):
    for _ in range(n):
        gains, budget = _gains(rng), _budget(rng)
        alloc = PowerAllocation(
            rng.uniform(0.0, budget.p1_max), rng.uniform(0.0, budget.p2_max)
        )
        yield gains, budget, alloc


def _soundness(rng, n):
    # One call of the column kernels on every sample; a row they flag would
    # be replayed by the scalar functions, which are not recorded here.
    rows = [
        (gains.a, gains.b, alloc.p1, alloc.p2, budget.p1_max, budget.p2_max)
        for gains, budget, alloc in _soundness_samples(rng, n)
    ]
    yield "_rate_and_bound", _column_bits(rows)


def _power_oracle(n_steps):
    def reference(rng, n):
        for _ in range(n):
            gains, budget = _gains(rng), _budget(rng)
            yield "optimal_allocation", (gains, budget)
            yield "grid_search_allocation", (gains, budget, n_steps)

    return reference


def _rho_star(rng, n):
    for _ in range(n):
        while True:
            gains = _gains(rng)
            alloc = PowerAllocation(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
            if math.sqrt(gains.a) * alloc.p1 + math.sqrt(gains.b) * alloc.p2 > 1e-3:
                break
        yield "rho_star", (gains, alloc)
        yield "rho_min_oracle", (gains, alloc)


def _interferer_off_samples(rng, n):
    for _ in range(n):
        yield rng.uniform(0.0, 5.0), rng.uniform(0.0, 8.0), rng.uniform(0.0, 10.0)


def _interferer_off(rng, n):
    # The rate kernel on every sample with p2 = 0, then the scalar baseline.
    rows = list(_interferer_off_samples(rng, n))
    yield "_rate_kernel", (*_column_bits(rows), 0.0, columns._COLUMNS)
    for a, b, p1 in rows:
        yield "wiretap_capacity", (a, p1)


def _continuity(rng, n):
    eps = verify.CONTINUITY_PROBE
    for i in range(n):
        kind = i % 6
        p1, p2 = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
        if kind < 2:  # b = 1 + P1, b = 1
            a = rng.uniform(0.05, 5.0)
            b0 = 1.0 + p1 if kind == 0 else 1.0
            probes = [(a, b0 - eps), (a, b0 + eps)]
        elif kind < 4:  # b = beta1, b = beta2
            a = rng.uniform(0.05, 0.95)
            th = Thresholds.at(ChannelGains(a, 0.0), PowerAllocation(p1, p2))
            b0 = th.beta1 if kind == 2 else th.beta2
            probes = [(a, b0 - eps), (a, b0 + eps)]
        elif kind == 4:  # a = 1
            b = rng.uniform(0.0, 5.0)
            probes = [(1.0 - eps, b), (1.0 + eps, b)]
        else:  # a = 1 + P2
            p2 = rng.uniform(0.1, 3.5)
            b = rng.uniform(0.0, 5.0)
            probes = [(1.0 + p2 - eps, b), (1.0 + p2 + eps, b)]
        for a, b in probes:
            yield "achievable_rate", (ChannelGains(a, b), PowerAllocation(p1, p2))


def _asymptotics(rng, n):
    budget = PowerBudget(verify.ASYMPTOTIC_BUDGET, verify.ASYMPTOTIC_BUDGET)
    for _ in range(n):
        while True:
            gains = _gains(rng)
            a, b = gains.a, gains.b
            if abs(b - 1.0) >= 0.05 and abs(a * b - 1.0) >= 0.05:
                break
        yield "asymptotic_rate", (gains,)
        yield "optimal_allocation", (gains, budget)


_CHECKS = {
    "soundness": (verify.soundness_check, _soundness, 50),
    "power-oracle": (verify.power_oracle_check, _power_oracle(300), 4),
    "power-oracle-60": (
        lambda n, seed: verify.power_oracle_check(n, seed, 60), _power_oracle(60), 12
    ),
    "rho-star": (verify.rho_star_check, _rho_star, 20),
    "interferer-off": (verify.interferer_off_check, _interferer_off, 50),
    # Not a whole number of six-kind cycles.
    "continuity": (verify.continuity_check, _continuity, 65),
    "asymptotics": (verify.asymptotics_check, _asymptotics, 60),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", _CHECKS)
def test_check_calls_get_the_one_at_a_time_samples(monkeypatch, name, seed):
    check, reference, n = _CHECKS[name]
    want = list(reference(np.random.default_rng(seed), n))
    calls = _record(monkeypatch, {called for called, _ in want})
    check(n, seed)
    assert calls == want


def test_kept_rows_are_those_of_a_one_row_at_a_time_rejection_loop():
    # Keeps about a third of the rows, so the blocks are drawn many times.
    ranges = ((0.05, 5.0), (0.0, 10.0))

    def keep(a, p):
        return a * p > 12.0

    for seed in range(3):
        rng = np.random.default_rng(seed)
        want = []
        while len(want) < 200:
            a, p = rng.uniform(*ranges[0]), rng.uniform(*ranges[1])
            if keep(a, p):
                want.append([a, p])
        assert verify._kept_rows(np.random.default_rng(seed), 200, ranges, keep).tolist() == want


def test_uniform_rows_leave_the_generator_where_single_draws_do():
    ranges = ((0.05, 5.0), (0.1, 3.5), (0.0, 1.0))
    one, rows = np.random.default_rng(5), np.random.default_rng(5)
    want = [[one.uniform(lo, hi) for lo, hi in ranges] for _ in range(300)]
    assert verify._uniform_rows(rows, 300, ranges).tolist() == want
    assert one.random() == rows.random()


def _scalar_soundness(n, seed):
    """soundness_check's violations, by the scalar functions at every sample."""
    violations = []
    for gains, budget, alloc in _soundness_samples(np.random.default_rng(seed), n):
        rate, _ = achievable_rate(gains, alloc)
        upper = sato_upper_bound(gains, budget).final_bound
        if rate.value > upper.value + bound.SOUNDNESS_TOL:
            violations.append(f"rate {rate.value} > bound {upper.value} at {gains}, {alloc}")
    return violations


def _scalar_interferer_off(n, seed):
    """interferer_off_check's violations, by the scalar functions at every sample."""
    violations = []
    for a, b, p1 in _interferer_off_samples(np.random.default_rng(seed), n):
        rate, _ = achievable_rate(ChannelGains(a, b), PowerAllocation(p1, 0.0))
        gap = abs(rate.value - wiretap_capacity(a, p1).value)
        if gap > verify.DEGENERATION_TOL:
            violations.append(f"|rate - wiretap| = {gap} at a={a}, b={b}, p1={p1}")
    return violations


@pytest.mark.parametrize(
    "check, scalar, module, tolerance, value",
    [
        (verify.soundness_check, _scalar_soundness, bound, "SOUNDNESS_TOL", -math.inf),
        (verify.interferer_off_check, _scalar_interferer_off, verify, "DEGENERATION_TOL", -1.0),
    ],
    ids=["soundness", "interferer-off"],
)
@pytest.mark.parametrize("seed", range(3))
def test_column_checks_report_what_the_scalar_path_reports(
    monkeypatch, check, scalar, module, tolerance, value, seed
):
    # With the tolerance moved so that every sample violates, each row goes
    # through the report: the columns' replay for soundness, the columns'
    # own rate for interferer-off.  Both must print the scalar path's values.
    monkeypatch.setattr(module, tolerance, value)
    want = scalar(50, seed)
    assert len(want) == 50
    assert check(50, seed).violations == want


# rho_star_check's seeds at the bench's verify requests where a central
# difference of f with h = 1e-6 read |df/drho| above 1e-6 at a stationary
# rho* near 1: the difference's truncation error, not a wrong rho*.
@pytest.mark.parametrize("seed", [5006025, 17013011])
def test_rho_star_check_passes_where_the_difference_quotient_failed(seed):
    assert verify.rho_star_check(500, seed).violations == []


def test_rho_star_check_reports_a_moved_rho_star(monkeypatch):
    def moved(gains, alloc):
        return bound.NoiseCorrelation(bound.rho_star(gains, alloc).rho + 1e-4)

    monkeypatch.setattr(verify, "rho_star", moved)
    violations = verify.rho_star_check(50, 2).violations
    assert any(v.startswith("|df/drho|") for v in violations)


# Each fault below is patched into the one owner of a rule, which the
# scalar functions and the column kernels both call.


@pytest.mark.parametrize("seed", range(3))
def test_power_oracle_check_reports_a_moved_p2_star(monkeypatch, seed):
    # p2_star 0.1% too large.  At run_all's 100 configs the lattice beats it
    # beyond 1e-9 at some seeds only (not at seed 0, nor there at 3%):
    # few configs jam below their budget.  400 configs catch it at each.
    p2_star = power._p2_star
    monkeypatch.setattr(power, "_p2_star", lambda *args: p2_star(*args) * (1.0 + 1e-3))
    violations = verify.power_oracle_check(400, seed).violations
    assert violations and all(v.startswith("grid beats closed form") for v in violations)


@pytest.mark.parametrize("seed", range(3))
def test_soundness_check_reports_a_lowered_bound_on_the_column_pass(monkeypatch, seed):
    # The samples are random allocations, whose rates sit far below the
    # bound: a bound 0.1% low goes unseen even in 20,000 samples, and 1%
    # low at seed 0 in 2,000.  5% low is seen at each seed.  The column
    # pass must flag every row the scalar path reports.
    final_bound = bound._final_bound
    monkeypatch.setattr(bound, "_final_bound", lambda *args: final_bound(*args) * 0.95)
    want = _scalar_soundness(2000, seed)
    assert want
    assert verify.soundness_check(2000, seed).violations == want


@pytest.mark.parametrize("seed", range(3))
def test_continuity_check_reports_a_swapped_rate_term(monkeypatch, seed):
    # Regime I's joint term evaluates the treat-as-noise term instead,
    # which jumps at b = 1 + P1 and at a = 1.  Regime I's two terms may go
    # negative on their own intervals, so no misselection check fires.
    term_snrs = achievable._term_snrs

    def swapped(k, a, b, p1, p2):
        return term_snrs(3 if k == 1 and a >= 1.0 else k, a, b, p1, p2)

    monkeypatch.setattr(achievable, "_term_snrs", swapped)
    violations = verify.continuity_check(200, seed).violations
    assert violations and all(v.startswith("jump") for v in violations)


@pytest.mark.parametrize("seed", range(3))
def test_interferer_off_check_reports_a_rate_offset_on_the_column_pass(monkeypatch, seed):
    # Every rate 1e-9 high, against the check's 1e-12.  The column rates
    # carry it: the check must report what the scalar path reports.
    clip = achievable._clip
    monkeypatch.setattr(achievable, "_clip", lambda *args: clip(*args) + 1e-9)
    want = _scalar_interferer_off(500, seed)
    assert len(want) == 500
    assert verify.interferer_off_check(500, seed).violations == want


def test_f_slope_is_the_derivative_of_f():
    # Away from rho = 1 a central difference is accurate to about 1e-9.
    a, b, p1, p2 = 0.7, 1.3, 2.0, 1.5
    alloc, gains = PowerAllocation(p1, p2), ChannelGains(a, b)
    for rho in (-0.5, 0.0, 0.3, 0.8):
        h = 1e-5
        quotient = (bound.sato_f(gains, alloc, rho + h) - bound.sato_f(gains, alloc, rho - h)) / (2 * h)
        assert verify._f_slope(a, b, p1, p2, rho) == pytest.approx(quotient, abs=1e-8)
