"""NumPy is imported only by the commands that build arrays.

Each case runs in a fresh interpreter, since this test process has
loaded NumPy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coopjam
from coopjam.cli import main

_SRC = str(Path(coopjam.__file__).resolve().parent.parent)

# Answered by the closed forms alone, up to the degraded line a*b = 1.
SCALAR_COMMANDS = {
    "rate": ["rate", "--a", "0.5", "--b", "0.5", "--p1", "2", "--p2", "0.6666666666666666"],
    "bound": ["bound", "--a", "0.5", "--b", "1.5", "--pbar1", "2", "--pbar2", "2"],
    "power-II": ["power", "--a", "0.5", "--b", "0.5", "--pbar1", "2", "--pbar2", "2"],
    "power-I": ["power", "--a", "2", "--b", "1.5", "--pbar1", "2", "--pbar2", "2"],
    "power-near-line": ["power", "--a", "1", "--b", "0.9999999999", "--pbar1", "2", "--pbar2", "2"],
}

# Each builds an array: a sweep, the lattice oracle, verify's generators.
NUMPY_COMMANDS = {
    "fig2": ["fig2", "--steps", "8"],
    "check-grid": [
        "power", "--a", "2", "--b", "1.5", "--pbar1", "2", "--pbar2", "2",
        "--check-grid", "--grid-steps", "4",
    ],
    "verify": ["verify", "--samples", "10"],
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
