"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them inline).
"""

import math
import time
from contextlib import contextmanager

import pytest

from coopjam.cli import main
from coopjam.model import DomainError
from coopjam.sweep import PowerBudget, PowerMode, SweepSpec, run_sweep
from coopjam.verify import (
    asymptotics_check,
    continuity_check,
    interferer_off_check,
    power_oracle_check,
    rho_star_check,
    run_all,
    soundness_check,
)

SEED = 20250808


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def _assert_clean(result):
    head = "; ".join(result.violations[:5])
    assert result.ok, f"{result.name}: {len(result.violations)} violations: {head}"


def test_criterion_1_soundness_sweep():
    with criterion(1, "achievable rate <= capacity bound on 10000 random samples"):
        _assert_clean(soundness_check(10_000, SEED))


def test_criterion_2_power_oracle_agreement():
    with criterion(2, "closed-form power control matches 300-step grid on 500 configs"):
        _assert_clean(power_oracle_check(500, SEED, n_steps=300))


def test_criterion_3_rho_star_verification():
    with criterion(3, "closed-form rho* matches convex search on 1000 points"):
        _assert_clean(rho_star_check(1_000, SEED))


def test_criterion_4_interferer_off_degeneration():
    with criterion(4, "silent jammer recovers the wiretap capacity to 1e-12"):
        _assert_clean(interferer_off_check(1_000, SEED))


def test_criterion_5_piecewise_continuity():
    with criterion(5, "rate continuous across 200 sampled branch boundaries"):
        _assert_clean(continuity_check(200, SEED))


def test_criterion_6_asymptotics():
    with criterion(6, "power control at budget 1e8 reaches the unconstrained limit"):
        _assert_clean(asymptotics_check(200, SEED))


def test_criterion_7_symmetric_sweep_shape():
    with criterion(7, "symmetric sweep reproduces the published curve shape"):
        spec = SweepSpec(
            param="a",
            start=0.0,
            end=4.0,
            steps=400,
            budget=PowerBudget(2.0, 2.0),
            symmetric=True,
            power_mode=PowerMode.OPTIMAL_CONTROL,
        )
        rows = run_sweep(spec)
        assert len(rows) == 401

        def band(lo, hi):
            return [r for r in rows if lo < r.x < hi]

        falling = band(0.05, 0.95)
        for prev, cur in zip(falling, falling[1:]):
            assert cur.achievable.value < prev.achievable.value
        rising = band(1.05, 1.70)
        for prev, cur in zip(rising, rising[1:]):
            assert cur.achievable.value > prev.achievable.value
        falling_again = band(1.80, 2.95)
        for prev, cur in zip(falling_again, falling_again[1:]):
            assert cur.achievable.value < prev.achievable.value
        for r in rows:
            if r.x >= 3.0:
                assert r.achievable.value == 0.0
            assert r.achievable.value <= r.upper_bound.value + 1e-9

        interior = band(1.0, 3.0)
        argmax = max(interior, key=lambda r: r.achievable.value).x
        grid_step = 4.0 / 400
        assert abs(argmax - math.sqrt(3.0)) <= grid_step

        by_x = {round(r.x, 10): r for r in rows}
        gap_half = by_x[0.5].upper_bound.value - by_x[0.5].achievable.value
        gap_three = by_x[3.0].upper_bound.value - by_x[3.0].achievable.value
        assert gap_half < gap_three


def test_criterion_8_sweep_byte_determinism(tmp_path):
    with criterion(8, "identical sweep invocations are byte-identical"):
        argv = [
            "sweep", "--param", "a", "--symmetric", "--from", "0", "--to", "4",
            "--steps", "400", "--pbar1", "2", "--pbar2", "2",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().startswith(b"x,achievable_rate,upper_bound,p1,p2,branch\n")


def test_run_all_times_every_check():
    results = run_all(40, 7, 60)
    assert len(results) == 6
    assert all(r.elapsed_s > 0.0 for r in results)


def test_run_all_checks_its_arguments_before_any_check(monkeypatch):
    def no_check(*args):
        raise AssertionError("a check ran before the arguments were checked")

    monkeypatch.setattr("coopjam.verify.soundness_check", no_check)
    for args, message in (
        ((2000, 0, 1), "n_steps must be an integer >= 2, got 1"),
        ((10, -1), "seed must be >= 0, got -1"),
        ((0, 0), "samples must be >= 1, got 0"),
        ((2.5, 0), "samples must be an integer, got 2.5"),
        ((10, 1.5), "seed must be an integer, got 1.5"),
        ((True, 0), "samples must be an integer, got True"),
    ):
        with pytest.raises(DomainError, match=message):
            run_all(*args)
