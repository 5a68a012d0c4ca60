"""A command imports only the coopjam modules it runs, and NumPy only
where it builds arrays.

A sweep or a lattice runs as scalar code while NumPy is not loaded and
the process's scalar work stays within about one NumPy import
(`model._scalar_pays`); beyond that it builds arrays.  Each case runs in
a fresh interpreter, since this test process has loaded NumPy long
before, so its own outputs come from the array paths.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy  # noqa: F401  (so the in-process outputs come from the array paths)
import pytest

import coopjam
from coopjam.cli import main

_SRC = str(Path(coopjam.__file__).resolve().parent.parent)

# Answered by the closed forms alone, up to the degraded line a*b = 1,
# or by sweeps and lattices within the scalar budget of 4,096 sweep rows.
SCALAR_COMMANDS = {
    "rate": ["rate", "--a", "0.5", "--b", "0.5", "--p1", "2", "--p2", "0.6666666666666666"],
    "bound": ["bound", "--a", "0.5", "--b", "1.5", "--pbar1", "2", "--pbar2", "2"],
    "power-II": ["power", "--a", "0.5", "--b", "0.5", "--pbar1", "2", "--pbar2", "2"],
    "power-I": ["power", "--a", "2", "--b", "1.5", "--pbar1", "2", "--pbar2", "2"],
    "power-near-line": ["power", "--a", "1", "--b", "0.9999999999", "--pbar1", "2", "--pbar2", "2"],
    # 401 and 2 x 401 rows, and a lattice of 301^2 cells, 1/64 row each.
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "sweep": ["sweep", "--from", "0", "--to", "4", "--symmetric", "--pbar1", "2", "--pbar2", "2"],
    "check-grid": ["power", "--a", "0.5", "--b", "0.5", "--pbar1", "2", "--pbar2", "2", "--check-grid"],
}

# Each builds an array: a sweep or a lattice over the scalar budget,
# verify's generators.
NUMPY_COMMANDS = {
    "fig2": ["fig2", "--steps", "5000"],
    "sweep": [
        "sweep", "--from", "0", "--to", "4", "--symmetric", "--pbar1", "2", "--pbar2", "2",
        "--steps", "5000",
    ],
    "check-grid": [
        "power", "--a", "2", "--b", "1.5", "--pbar1", "2", "--pbar2", "2",
        "--check-grid", "--grid-steps", "1000",
    ],
    "verify": ["verify", "--samples", "10"],
}


# The coopjam modules each command loads besides `coopjam`, `coopjam.cli`
# and `coopjam.model`: a handler imports what it calls when it runs.
COMMAND_MODULES = {
    "rate": ["achievable"],
    "bound": ["bound"],
    "power-II": ["achievable", "power"],
    "check-grid": ["achievable", "power"],
    # No `verify`, and no `_columns` while the sweep runs as scalar code.
    "fig2": ["achievable", "bound", "power", "sweep"],
    "sweep": ["achievable", "bound", "power", "sweep"],
}


def _child(source):
    """Run `source` in a fresh interpreter that imports coopjam from this tree."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", source],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_import_leaves_numpy_unloaded():
    proc = _child(
        "import sys\n"
        "import coopjam\n"
        "print('numpy' in sys.modules)\n"
        "import coopjam.cli\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse\n"


# Child source that prints the loaded coopjam modules as a line of stderr.
_PRINT_LOADED = (
    "print(*sorted(m for m in sys.modules if m.startswith('coopjam')), file=sys.stderr)\n"
)


def test_bare_import_loads_no_submodule():
    proc = _child("import sys\nimport coopjam\n" + _PRINT_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "coopjam\n"


@pytest.mark.parametrize("name", sorted(COMMAND_MODULES))
def test_command_loads_only_the_modules_it_runs(name):
    proc = _child(
        "import sys\n"
        "import coopjam.cli\n"
        f"code = coopjam.cli.main({SCALAR_COMMANDS[name]!r})\n"
        + _PRINT_LOADED
        + "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    expected = ["coopjam", "coopjam.cli", "coopjam.model"]
    expected += [f"coopjam.{module}" for module in COMMAND_MODULES[name]]
    assert proc.stderr.splitlines()[-1].split() == sorted(expected)


@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_command_runs_where_numpy_cannot_import(name, capsys):
    argv = SCALAR_COMMANDS[name]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    # A None entry in sys.modules makes every `import numpy` raise.
    proc = _child(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import coopjam\n"
        "import coopjam.cli\n"
        f"sys.exit(coopjam.cli.main({argv!r}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    if argv[0] == "power":
        assert "source = closed_form" in expected


@pytest.mark.parametrize("name", sorted(NUMPY_COMMANDS))
def test_array_command_loads_numpy_when_run(name):
    proc = _child(
        "import sys\n"
        "import coopjam.cli\n"
        "before = 'numpy' in sys.modules\n"
        f"code = coopjam.cli.main({NUMPY_COMMANDS[name]!r})\n"
        "after = 'numpy' in sys.modules\n"
        "print(f'numpy loaded: {before} -> {after}', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("numpy loaded: False -> True\n")


def test_numpy_loads_at_the_sweep_that_would_overrun_the_scalar_budget():
    # 10 sweeps of 401 rows fit in 4,096 rows; the 11th would not.
    proc = _child(
        "import sys\n"
        "import coopjam\n"
        "spec = coopjam.SweepSpec('a', 0.0, 4.0, 400, coopjam.PowerBudget(2.0, 2.0), symmetric=True)\n"
        "loaded = []\n"
        "for _ in range(13):\n"
        "    coopjam.run_sweep(spec)\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded.index(True) + 1, all(loaded[loaded.index(True):]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "11 True\n"


def test_threads_racing_on_the_scalar_budget_get_the_same_tables():
    # A race on the budget may change which path a sweep takes, never its
    # rows: 8 threads of 3 sweeps overrun 4,096 rows, so both paths run.
    proc = _child(
        "import sys, threading\n"
        "import coopjam\n"
        "sys.setswitchinterval(1e-6)\n"
        "spec = coopjam.SweepSpec('b', 0.0, 4.0, 400, coopjam.PowerBudget(2.0, 2.0), 0.6)\n"
        "texts = []\n"
        "def work():\n"
        "    for _ in range(3):\n"
        "        texts.append(coopjam.render_csv(coopjam.run_sweep(spec)))\n"
        "threads = [threading.Thread(target=work) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "alive = any(t.is_alive() for t in threads)\n"
        "print(len(texts), len(set(texts)), 'numpy' in sys.modules, alive)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "24 1 True False\n"
