import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coopjam
from coopjam.cli import main
from coopjam.model import InvariantViolation


def test_rate_zero_regime(capsys):
    code = main(["rate", "--a", "4", "--b", "0.5", "--p1", "2", "--p2", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "secrecy_rate = 0 " in out
    assert "ZERO" in out


def test_rate_positive_branch(capsys):
    code = main(["rate", "--a", "0.5", "--b", "0.5", "--p1", "2", "--p2", "0.6666666666666666"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.321928094887" in out
    assert "II-4" in out


def test_power_with_grid_check(capsys):
    code = main(
        ["power", "--a", "2", "--b", "1.5", "--pbar1", "2", "--pbar2", "2",
         "--check-grid", "--grid-steps", "80"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "p1 = 0.5" in out
    assert "grid_rate" in out
    assert "closed_minus_grid" in out


def test_bound_breakdown(capsys):
    code = main(["bound", "--a", "1", "--b", "1", "--pbar1", "2", "--pbar2", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho_star = 0.999999999999" in out
    assert "r_u = 0 " in out
    assert "direct_link_cap = 0.79248125036" in out
    assert "final_bound = 0 " in out


def test_domain_error_exits_2(capsys):
    code = main(["rate", "--a", "-1", "--b", "0.5", "--p1", "2", "--p2", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_missing_required_flag_exits_2(capsys):
    code = main(["rate", "--a", "1", "--b", "0.5", "--p1", "2"])
    assert code == 2
    assert "--p2" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["rate", "--bogus", "1"])
    assert excinfo.value.code == 2


def test_sweep_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    argv = [
        "sweep", "--param", "a", "--symmetric", "--from", "0", "--to", "4",
        "--steps", "25", "--pbar1", "2", "--pbar2", "2",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("x,achievable_rate,upper_bound,p1,p2,branch\n")
    assert len(text.splitlines()) == 27


def test_sweep_to_stdout(capsys):
    code = main(
        ["sweep", "--param", "b", "--a", "0.6", "--from", "0", "--to", "4",
         "--steps", "10", "--pbar1", "2", "--pbar2", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("x,achievable_rate,upper_bound,p1,p2,branch\n")
    assert len(out.splitlines()) == 12


def test_sweep_requires_fixed_gain(capsys):
    code = main(
        ["sweep", "--param", "b", "--from", "0", "--to", "4",
         "--steps", "10", "--pbar1", "2", "--pbar2", "2"]
    )
    assert code == 2
    assert "--a" in capsys.readouterr().err


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("# single operating point\na = 4\nb = 0.5\np1 = 2\np2 = 2\n")
    assert main(["rate", "--config", str(cfg)]) == 0
    assert "ZERO" in capsys.readouterr().out
    assert main(["rate", "--config", str(cfg), "--a", "0.5", "--b", "7"]) == 0
    out = capsys.readouterr().out
    assert "II-1" in out
    assert "0.584962500721" in out


def test_config_file_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("a 4\n")
    assert main(["rate", "--config", str(cfg)]) == 2


def test_fig2_preset(capsys):
    code = main(["fig2", "--steps", "16"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,achievable_rate,upper_bound,p1,p2,branch"
    assert len(lines) == 18
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("4,")


def test_fig3_preset_writes_one_file_per_curve(tmp_path):
    out = tmp_path / "fig3.csv"
    code = main(["fig3", "--steps", "8", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "fig3_a0.6.csv").exists()
    assert (tmp_path / "fig3_a1.2.csv").exists()


def test_fig4_preset_stdout_has_two_headers(capsys):
    code = main(["fig4", "--steps", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("x,achievable_rate,upper_bound,p1,p2,branch\n") == 2


def test_verify_small_run_exits_zero(capsys):
    code = main(["verify", "--samples", "40", "--seed", "7", "--grid-steps", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed = 7" in out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_verify_reports_violations_and_exits_one(capsys, monkeypatch):
    from coopjam.verify import CheckResult

    def broken(samples, seed, grid_steps):
        return [
            CheckResult("soundness", samples),
            CheckResult("power-oracle", 10, ["rate 0.5 > bound 0.4 somewhere"]),
        ]

    monkeypatch.setattr("coopjam.cli.run_all", broken)
    code = main(["verify", "--samples", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "PASS soundness" in captured.out
    assert "FAIL power-oracle" in captured.out
    assert "rate 0.5 > bound 0.4" in captured.err


PRESET_STDOUT_SHA256 = {
    "fig2": "d656414c8ed4e10a3c07a11fc60d305cd7fc651a5348aad7693079c736b8252b",
    "fig3": "26efc97abe44b99ba4efc7cef2836973c654af856d0f8fc38d48283dfaf21dab",
    "fig4": "c9a09d2b75942763968f63ce8bc5307bdd5cc954cb49c04ff23ed8bd39a563a0",
}


@pytest.mark.parametrize("preset", sorted(PRESET_STDOUT_SHA256))
def test_preset_default_stdout_is_golden(preset, capsys):
    assert main([preset]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PRESET_STDOUT_SHA256[preset]


_POWER_POINT = "a = 2\nb = 1.5\npbar1 = 2\npbar2 = 2\ngrid-steps = 80\n"


def _data_rows(out):
    return [line.split(",") for line in out.splitlines() if not line.startswith("x,")]


@pytest.mark.parametrize(
    "command, text, check",
    [
        ("power", _POWER_POINT + "check-grid = false\n", lambda out: "grid_rate" not in out),
        ("power", _POWER_POINT + "check-grid = 0\n", lambda out: "grid_rate" not in out),
        ("power", _POWER_POINT + "check-grid = true\n", lambda out: "n_steps = 80" in out),
        ("power", _POWER_POINT + "check-grid = on\n", lambda out: "n_steps = 80" in out),
        (
            "fig3",
            "steps = 8\npower-mode = full\n",
            lambda out: len(_data_rows(out)) == 18
            and all(row[3:5] == ["2", "2"] for row in _data_rows(out)),
        ),
        (
            "sweep",
            "param = b\na = 0.6\nfrom = 1\nto = 3\nsteps = 4\npbar1 = 2\npbar2 = 2\n",
            lambda out: [row[0] for row in _data_rows(out)] == ["1", "1.5", "2", "2.5", "3"],
        ),
        (
            "sweep",
            "symmetric = yes\nfrom = 0\nto = 4\nsteps = 2\npbar1 = 2\npbar2 = 2\n"
            "power-mode = full\n",
            lambda out: [row[0] for row in _data_rows(out)] == ["0", "2", "4"]
            and all(row[3:5] == ["2", "2"] for row in _data_rows(out)),
        ),
        (
            "verify",
            "samples = 40\nseed = 7\ngrid-steps = 60\n",
            lambda out: "seed = 7" in out and "PASS soundness (samples=40)" in out,
        ),
    ],
    ids=[
        "check-grid-false", "check-grid-0", "check-grid-true", "check-grid-on",
        "fig3", "sweep", "sweep-symmetric", "verify",
    ],
)
def test_config_file_supplies_every_option_kind(tmp_path, capsys, command, text, check):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 0
    assert check(capsys.readouterr().out)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("rate", "a = x\nb = 0.5\np1 = 2\np2 = 2\n", "a"),
        ("rate", "a = 4\nb = 0.5\np1 = 2\np2 = 2\nbogus = 3\n", "bogus"),
        ("power", _POWER_POINT + "grid_steps = 80\n", "grid_steps"),
        ("power", _POWER_POINT + "check-grid = maybe\n", "check-grid"),
    ],
    ids=["bad-float", "unknown-key", "misspelt-key", "bad-bool"],
)
def test_config_file_bad_entry_exits_2(tmp_path, capsys, command, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert _exit_code([command, "--config", str(cfg)]) == 2
    last_line = capsys.readouterr().err.strip().splitlines()[-1]
    assert re.search(rf"\b{named}\b", last_line)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--samples", "10", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["--samples", "-5"], "samples must be >= 1, got -5"),
    ],
)
def test_verify_bad_arguments_exit_2_before_any_output(flags, message, capsys):
    assert main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize(
    "patched, argv",
    [
        (
            "grid_search_allocation",
            ["power", "--a", "2", "--b", "1.5", "--pbar1", "2", "--pbar2", "2", "--check-grid"],
        ),
        ("run_all", ["verify", "--samples", "10"]),
    ],
)
def test_failing_command_prints_nothing(monkeypatch, capsys, patched, argv):
    def fail(*args):
        raise InvariantViolation("injected")

    monkeypatch.setattr(f"coopjam.cli.{patched}", fail)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation: injected" in captured.err


# Each lattice overflows a float somewhere.  Run in a fresh interpreter, so
# that a NumPy warning reaches stderr as it would for a user.
@pytest.mark.parametrize(
    "point, grid_line",
    [
        (["--a", "2", "--b", "2", "--pbar1", "1e308", "--pbar2", "1e308"],
         "grid_rate = 0.5 at p1 = 1, p2 = 3.33333333333e+305"),
        (["--a", "1e200", "--b", "0.5", "--pbar1", "1e200", "--pbar2", "1e200"],
         "grid_rate = 0 at p1 = 0, p2 = 0"),
    ],
)
def test_overflowing_lattice_exits_0_without_warnings(point, grid_line):
    src = str(Path(coopjam.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coopjam.cli", "power", *point, "--check-grid"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert grid_line in proc.stdout
