"""The paper's numerical finding, pinned on the fig2/3/4 presets.

The upper bound is close to the achievable rate when interference is
weak (a < 1) on symmetric channels, and under more general conditions on
asymmetric ones; it pulls away as the eavesdropper's gain grows.  Each
case reads the gap bound - rate from a preset's CSV at its default 400
steps and budgets (2, 2), with a stated margin on the value measured.
"""

import pytest

from coopjam.cli import main
from coopjam.sweep import CSV_HEADER


def _gaps(command, capsys):
    """Each curve of a fig preset as {x: upper_bound - achievable_rate}."""
    assert main([command]) == 0
    curves = []
    for line in capsys.readouterr().out.splitlines():
        if line == CSV_HEADER:
            curves.append({})
            continue
        x, rate, bound = map(float, line.split(",")[:3])
        curves[-1][x] = bound - rate
    return curves


# (preset, curve index, closed abscissa range on the 0.01 grid, side, limit):
# the gap's "max" is < limit or its "min" > limit on that range.
# Measured: 0.0367, 0.161, 0.0311, 0.243, 0.0298, 0.0437.
FINDING = [
    ("fig2", 0, (0.0, 0.99), "max", 0.04),
    ("fig2", 0, (1.5, 2.99), "min", 0.15),
    ("fig3", 0, (0.2, 2.2), "max", 0.035),
    ("fig3", 0, (4.0, 4.0), "min", 0.2),
    ("fig4", 0, (0.0, 0.99), "max", 0.035),
    ("fig4", 1, (0.0, 0.99), "max", 0.05),
]


@pytest.mark.parametrize("command, curve, span, side, limit", FINDING)
def test_bound_gap_on_presets(command, curve, span, side, limit, capsys):
    lo, hi = span
    gaps = [g for x, g in _gaps(command, capsys)[curve].items() if lo <= x <= hi]
    assert gaps
    if side == "max":
        assert max(gaps) < limit, max(gaps)
    else:
        assert min(gaps) > limit, min(gaps)
