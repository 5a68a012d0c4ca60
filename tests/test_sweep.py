import collections.abc
import hashlib
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopjam.sweep as sweep
from coopjam._columns import _csv_lines
from coopjam.achievable import _LABELS, BranchLabel, Regime, achievable_rate
from coopjam.bound import sato_upper_bound
from coopjam.model import (
    ChannelGains,
    DomainError,
    PowerAllocation,
    PowerBudget,
    RateValue,
)
from coopjam.power import _allocation_cases, optimal_allocation
from coopjam.sweep import (
    CSV_HEADER,
    PowerMode,
    SweepRow,
    SweepSpec,
    SweepTable,
    _scalar_row,
    render_csv,
    run_sweep,
)


def symmetric_spec(**overrides):
    base = dict(
        param="a",
        start=0.0,
        end=4.0,
        steps=400,
        budget=PowerBudget(2.0, 2.0),
        symmetric=True,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_row_count_and_endpoints():
    rows = run_sweep(symmetric_spec())
    assert len(rows) == 401
    assert rows[0].x == 0.0
    assert rows[-1].x == 4.0
    assert rows[-1].achievable.value == 0.0


def test_rows_ascend_and_stay_sound():
    rows = run_sweep(symmetric_spec(steps=80))
    xs = [r.x for r in rows]
    assert xs == sorted(xs)
    for r in rows:
        assert r.achievable.value <= r.upper_bound.value + 1e-9


def test_degenerate_range_collapses_to_single_point():
    spec = SweepSpec(
        param="a",
        start=0.7,
        end=0.7,
        steps=1,
        budget=PowerBudget(2.0, 2.0),
        fixed_gain=1.3,
    )
    rows = run_sweep(spec)
    assert len(rows) == 1
    gains = ChannelGains(0.7, 1.3)
    expected = optimal_allocation(gains, PowerBudget(2.0, 2.0))
    assert rows[0].achievable.value == expected.rate.value
    assert rows[0].p1 == expected.alloc.p1
    assert rows[0].p2 == expected.alloc.p2
    assert (
        rows[0].upper_bound.value
        == sato_upper_bound(gains, PowerBudget(2.0, 2.0)).final_bound.value
    )


def test_full_power_mode_pins_the_allocation():
    rows = run_sweep(symmetric_spec(steps=40, power_mode=PowerMode.FULL_POWER))
    for r in rows:
        assert r.p1 == 2.0 and r.p2 == 2.0
        expected, _ = achievable_rate(
            ChannelGains(r.x, r.x), PowerAllocation(2.0, 2.0)
        )
        assert r.achievable.value == expected.value


def test_b_sweep_uses_fixed_a():
    spec = SweepSpec(
        param="b",
        start=0.0,
        end=4.0,
        steps=40,
        budget=PowerBudget(2.0, 2.0),
        fixed_gain=0.6,
    )
    rows = run_sweep(spec)
    assert len(rows) == 41
    # Spot-check one row against a direct evaluation at (a=0.6, b=x).
    row = rows[20]
    direct = optimal_allocation(ChannelGains(0.6, row.x), PowerBudget(2.0, 2.0))
    assert row.achievable.value == direct.rate.value


def test_csv_shape_and_determinism():
    rows = run_sweep(symmetric_spec(steps=25))
    text = render_csv(rows)
    again = render_csv(run_sweep(symmetric_spec(steps=25)))
    assert text == again
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 25 + 3  # header + 26 rows + empty tail
    assert "\r" not in text
    first = lines[1].split(",")
    assert len(first) == 6
    float(first[0]), float(first[1]), float(first[2])
    assert first[5].count("-") == 1


def test_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec(param="c", start=0.0, end=1.0, steps=3, budget=PowerBudget(1, 1))
    with pytest.raises(DomainError):
        SweepSpec(param="a", start=2.0, end=1.0, steps=3, budget=PowerBudget(1, 1))
    with pytest.raises(DomainError):
        SweepSpec(param="a", start=0.0, end=1.0, steps=0, budget=PowerBudget(1, 1))
    with pytest.raises(DomainError):
        SweepSpec(param="a", start=-1.0, end=1.0, steps=3, budget=PowerBudget(1, 1))


def test_bool_steps_is_rejected():
    with pytest.raises(DomainError, match="steps"):
        SweepSpec("a", 0.0, 4.0, True, PowerBudget(1.0, 1.0))


def _direct_row(spec, x):
    """(reprs of rate, bound, p1, p2, label), near_line, rho_star by scalar calls at x.

    `near_line` is whether the allocation is a jamming case, min(pb2, p2_star),
    within 1e-9 of the degraded line a*b = 1.
    """
    if spec.symmetric:
        gains = ChannelGains(x, x)
    elif spec.param == "a":
        gains = ChannelGains(x, spec.fixed_gain)
    else:
        gains = ChannelGains(spec.fixed_gain, x)
    near_line = False
    if spec.power_mode is PowerMode.OPTIMAL_CONTROL:
        best = optimal_allocation(gains, spec.budget)
        alloc, rate, branch = best.alloc, best.rate, best.branch
        a, b, pb1, pb2 = gains.a, gains.b, spec.budget.p1_max, spec.budget.p2_max
        tests, _, p2s = _allocation_cases(a, b, pb1, pb2)
        near_line = p2s[tests.index(True)] is None and 1.0 - a * b < 1e-9
    else:
        alloc = PowerAllocation(spec.budget.p1_max, spec.budget.p2_max)
        rate, branch = achievable_rate(gains, alloc)
    ev = sato_upper_bound(gains, spec.budget)
    values = (repr(rate), repr(ev.final_bound), repr(alloc.p1), repr(alloc.p2), str(branch))
    return values, near_line, ev.rho_star.rho


_B2 = PowerBudget(2.0, 2.0)
_EQUIVALENCE_CURVES = [
    # The fig2/3/4 presets at 800 steps; at x = 0.285 of the two 1.2
    # curves, squaring by x * x instead of libm pow changes the bound.
    SweepSpec("a", 0.0, 4.0, 800, _B2, symmetric=True),
    SweepSpec("b", 0.0, 4.0, 800, _B2, 0.6),
    SweepSpec("b", 0.0, 4.0, 800, _B2, 1.2),
    SweepSpec("a", 0.0, 4.0, 800, _B2, 0.2),
    SweepSpec("a", 0.0, 4.0, 800, _B2, 1.2),
    # Fixed-gain curves crossing a*b = 1 next to a = b = 1, where the
    # allocation jams within 1e-9 of the line and the bound is cancelled.
    SweepSpec("a", 1.0 - 2e-9, 1.0 + 2e-9, 12, _B2, 1.0 - 5e-10),
    SweepSpec("b", 1.0 - 2e-9, 1.0 + 2e-9, 12, _B2, 1.0 - 5e-10),
    # A large jammer budget moves the jamming case away from a = 1: two
    # rows jam within 1e-9 of the line while rho* stays near 0.99995.
    SweepSpec("a", 1.0 / 0.9999 - 2e-9, 1.0 / 0.9999 + 2e-9, 8, PowerBudget(2.0, 1e6), 0.9999),
    SweepSpec("a", 1.0, 3.0, 40, _B2, 0.5),
    SweepSpec("a", 0.0, 4.0, 80, _B2, symmetric=True, power_mode=PowerMode.FULL_POWER),
    # Longer than one block of columns; its last row (a = b = 1) replays.
    SweepSpec("a", 0.0, 1.0, 5000, _B2, symmetric=True),
    # b reaches 1 + P1 = 3 exactly after six of its eight steps.
    SweepSpec("b", 0.0, 4.0, 8, _B2, 0.5),
    SweepSpec("a", 0.7, 0.7, 5, _B2, 1.3),
    SweepSpec("b", 0.5, 2.5, 1, _B2, 0.6),
    # s = sqrt(a) P1 + sqrt(b) P2 rises through rho* = 0's cutoff 1e-12
    # near a = 1e-18 (b = 1e-18 below), after rows with 0 < s <= 1e-12.
    SweepSpec("a", 0.0, 4e-18, 8, PowerBudget(1e-3, 0.0), 0.5),
    SweepSpec("b", 0.0, 4e-18, 8, PowerBudget(1e-16, 1e-3), 2.0),
    # Rows at a = 1 - 1 ulp, 1, 1 and 1 + 1 ulp: the allocation's regime
    # split, on both sides of b = 1.
    SweepSpec("a", 0.9999999999999999, 1.0000000000000002, 3, _B2, 0.5),
    SweepSpec("a", 0.9999999999999999, 1.0000000000000002, 3, _B2, 1.5),
]


def _on_both_paths(spec):
    """The table of `spec` by the column and by the scalar path of `run_sweep`.

    The two must give the same rows, by repr, and the same CSV bytes, or
    raise the same exception type with the same message, which is raised.
    """
    rows = 1 if spec.start == spec.end else spec.steps + 1
    outcomes = []
    for path in (sweep._column_sweep, sweep._scalar_sweep):
        try:
            outcomes.append(path(spec, rows))
        except Exception as exc:
            outcomes.append(exc)
    column, scalar = outcomes
    if isinstance(column, Exception) or isinstance(scalar, Exception):
        assert (type(column), str(column)) == (type(scalar), str(scalar)), spec
        raise column
    assert repr(column._lists()) == repr(scalar._lists()), spec
    assert render_csv(column) == render_csv(scalar), spec
    return column


_FIG_PRESETS = [
    SweepSpec("a", 0.0, 4.0, 400, _B2, symmetric=True, power_mode=mode) for mode in PowerMode
] + [
    SweepSpec(param, 0.0, 4.0, 400, _B2, fixed, power_mode=mode)
    for param, fixed in (("b", 0.6), ("b", 1.2), ("a", 0.2), ("a", 1.2))
    for mode in PowerMode
]


def test_scalar_and_column_paths_give_the_same_table():
    for spec in _EQUIVALENCE_CURVES + _FIG_PRESETS:
        assert len(_on_both_paths(spec)) == (1 if spec.start == spec.end else spec.steps + 1)


def test_rows_equal_the_scalar_path_row_by_row():
    near_line_jamming, rhos = 0, []
    for spec in _EQUIVALENCE_CURVES:
        for row in run_sweep(spec):
            values, near_line, rho = _direct_row(spec, row.x)
            got = (repr(row.achievable), repr(row.upper_bound), repr(row.p1), repr(row.p2), str(row.branch))
            assert got == values, (spec, row.x)
            near_line_jamming += near_line
            rhos.append(rho)
    assert near_line_jamming > 0
    assert max(rhos) >= 1.0 - 1e-9


def test_columns_read_only_their_own_numeric_constants():
    # A tolerance borrowed from achievable, bound or power would restate
    # that module's rule here; the columns call its owner instead.
    import ast
    import inspect

    from coopjam import _columns

    tree = ast.parse(inspect.getsource(_columns))
    own = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    numeric = {name for name, value in vars(_columns).items() if type(value) in (int, float)}
    assert numeric <= own


def test_columns_are_a_leaf_that_restates_no_scalar_rule():
    # `_columns` calls the owners of the scalar rules; a comparison with a
    # number would restate one, except log2's domain.
    import ast
    import inspect

    from coopjam import _columns

    tree = ast.parse(inspect.getsource(_columns))
    imported = set()  # dotted names, a relative import's under "coopjam."
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "coopjam." * (node.level > 0) + (node.module or "")
            imported |= {base if node.module else base + a.name for a in node.names}
    package = {name.split(".")[1] for name in imported if name.startswith("coopjam.")}
    assert package <= {"achievable", "bound", "model", "power"}

    def number(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    compared = {
        (getattr(top, "name", None), ast.unparse(node))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Compare) and any(map(number, [node.left, *node.comparators]))
    }
    assert compared == {("_log2", "v > 0.0")}


def test_overflowing_square_in_a_sweep_is_a_domain_error():
    spec = SweepSpec("a", 0.0, 1e200, 400, PowerBudget(1e200, 1e200), 0.5)
    with pytest.raises(DomainError, match=r"\(rho \+ s\)\^2"):
        _on_both_paths(spec)


def test_overflowing_cancelled_bound_in_a_sweep_is_a_domain_error():
    # Row a = b = 1 takes the bound's cancelled form, whose s^2 overflows.
    spec = SweepSpec("a", 0.0, 4.0, 4, PowerBudget(1e160, 1e160), symmetric=True)
    with pytest.raises(DomainError, match=r"s\^2 in the bound"):
        _on_both_paths(spec)


def test_nan_discriminant_in_a_sweep_is_a_domain_error():
    # From the second row on, s and m overflow, so rho* is inf/inf = NaN.
    spec = SweepSpec("a", 0.0, 1e250, 400, PowerBudget(1e300, 0.0), 1e-100)
    with pytest.raises(DomainError, match="inf/inf: s = inf and m = inf"):
        _on_both_paths(spec)


def test_cancelling_bound_numerator_in_a_sweep_is_a_domain_error():
    # Row 0 is sound; row 1 is the point of `coopjam bound --a 1.22e37
    # --b 6.22e-61 --pbar1 5.57e67 --pbar2 9.63e-183`, replayed.
    budget = PowerBudget(5.57e67, 9.63e-183)
    assert len(_on_both_paths(SweepSpec("a", 9.4e36, 9.4e36, 1, budget, 6.22e-61))) == 1
    with pytest.raises(DomainError, match=r"A\*B - \(rho \+ s\)\^2 in the bound .* a=1\.22e\+37"):
        _on_both_paths(SweepSpec("a", 9.4e36, 1.22e37, 1, budget, 6.22e-61))


def test_csv_renders_special_values_like_format_specs():
    ii4, zero = BranchLabel(Regime.REGIME_II, 4), BranchLabel(Regime.ZERO, 1)
    rows = [
        SweepRow(-0.0, RateValue(0.0), RateValue(math.inf), 1e-300, 1e300, ii4),
        SweepRow(1e-300, RateValue(1e300), RateValue(math.inf), -0.0, 2.5e-7, zero),
        SweepRow(1e300, RateValue(1 / 3), RateValue(123456789012345.0), 0.1, 1e16, ii4),
    ]
    assert render_csv(rows) == (
        "x,achievable_rate,upper_bound,p1,p2,branch\n"
        "-0,0,inf,1e-300,1e+300,II-4\n"
        "1e-300,1e+300,inf,-0,2.5e-07,ZERO-1\n"
        "1e+300,0.333333333333,1.23456789012e+14,0.1,1e+16,II-4\n"
    )


# Crosses one block of columns (sweep._BLOCK_ROWS) and ends on a replayed
# row (a = b = 1).
_ACROSS_BLOCKS = SweepSpec("a", 0.0, 1.0, 5000, _B2, symmetric=True)


def _replayed(spec):
    """The indices of the rows of `spec`, whose abscissae are distinct, that
    `run_sweep` leaves to the scalar path, in the order it replays them."""
    xs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_scalar_row", lambda spec, x: xs.append(x) or _scalar_row(spec, x))
        index = {row.x: k for k, row in enumerate(run_sweep(spec))}
    return [index[x] for x in xs]


def _golden_curves():
    rng = random.Random(17)
    curves = [_ACROSS_BLOCKS]
    while sum(spec.steps + 1 for spec in curves) < 197_028:
        lo, hi = sorted(rng.uniform(0.0, 4.0) for _ in range(2))
        budget = PowerBudget(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        curves.append(
            SweepSpec(
                rng.choice("ab"), lo, hi, rng.randrange(1, 12_000), budget, rng.uniform(0.05, 3.0),
                symmetric=rng.random() < 0.2, power_mode=rng.choice(list(PowerMode)),
            )
        )
    return curves


def test_csv_of_many_rows_is_golden():
    # 35 curves, 197,888 rows; the digest was taken from the row-object
    # sweep, which built a SweepRow per row and rendered from those.
    assert _replayed(_ACROSS_BLOCKS)[-1] == 5000
    digest = hashlib.sha256()
    for spec in _golden_curves():
        table = run_sweep(spec)
        text = render_csv(table)
        assert text == render_csv(list(table)), spec
        digest.update(text.encode())
    assert digest.hexdigest() == "df8b5909937b127ab21118da2549b2f88de132e569f31184ae626bd63cd90b94"


def test_sweep_table_is_an_immutable_sequence_of_rows():
    table = run_sweep(_ACROSS_BLOCKS)
    rows = [table[k] for k in range(len(table))]
    assert isinstance(table, collections.abc.Sequence)
    assert len(table) == 5001 and list(table) == rows
    assert table[-1] == rows[5000] and table[-5001] == rows[0]
    for past in (5001, -5002):
        with pytest.raises(IndexError):
            table[past]
    assert table[4090:4100] == rows[4090:4100] and type(table[4090:4100]) is list
    assert table[::-1000] == rows[::-1000]

    with pytest.raises(TypeError):
        table[0] = rows[1]
    with pytest.raises(TypeError):
        del table[0]
    assert not hasattr(table, "append")
    for name in ("_columns", "rows"):
        with pytest.raises(AttributeError):
            setattr(table, name, [])
    with pytest.raises(AttributeError):
        del table._columns
    with pytest.raises(TypeError):
        hash(table)

    again = run_sweep(_ACROSS_BLOCKS)
    assert table == again and table == rows and rows == table
    assert table != rows[:-1] and table != run_sweep(symmetric_spec(steps=5000))
    assert table != tuple(rows)  # as a list of rows is not

    replayed = _replayed(_ACROSS_BLOCKS)
    assert replayed
    for k in replayed:
        assert table[k] == sweep._row(*_scalar_row(_ACROSS_BLOCKS, table[k].x))


# The vectorized %.12g of `_columns._csv_lines`, which renders the column
# path's tables, against `'%.12g' %`.
_CODES = [code for code, label in enumerate(_LABELS) if label is not None]


def _lines_by_format(values, codes):
    rows = zip(*values.tolist(), (str(_LABELS[code]) for code in codes.tolist()))
    return "".join("%.12g,%.12g,%.12g,%.12g,%.12g,%s\n" % row for row in rows)


def _assert_formats_like_format_spec(doubles):
    values = np.array(doubles, dtype=float)
    values = np.resize(values, (5, -(-values.size // 5)))  # repeats to fill 5 columns
    codes = np.resize(np.array(_CODES), values.shape[1])
    assert _csv_lines(*values, codes) == _lines_by_format(values, codes)


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_DOUBLES = st.one_of(
    # Any bit pattern: subnormals, +-0, +-inf and NaNs included.
    st.integers(0, 2**64 - 1).map(_double),
    # Fixed style and its limits at 1e-4 and 1e12, either sign.
    st.floats(1e-5, 1e13).flatmap(lambda x: st.sampled_from([x, -x])),
    # Next to a tie at the 12th significant digit.
    st.builds(lambda n, e: float(f"{n}5e{e}"), st.integers(10**11, 10**12 - 1), st.integers(-17, 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_DOUBLES, min_size=1, max_size=60))
def test_csv_lines_format_any_double_like_format_spec(doubles):
    _assert_formats_like_format_spec(doubles)


def test_csv_lines_format_edge_values_like_format_spec():
    powers = [float(f"1e{j}") for j in range(-8, 16)]
    edges = [
        # Ties at the 12th digit, exact in binary or nearest to one.
        123456789012.5, 999999999999.5, 0.1234567890125, 1.0000000000005, 2.0000000000015,
        # Each side of fixed style's limits.
        9.999999999995e-05, 9.9999999999949e-05, 0.0001, 99999999999.99, 999999999999.4,
        999999999999.6, 1e12, 1e11, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        0.0, -0.0, math.inf, -math.inf, math.nan, 1 / 3, 2 / 3, 4.0, 0.1, 0.5,
    ]
    for x in powers:
        edges += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    _assert_formats_like_format_spec(edges + [-x for x in edges])


def test_array_table_renders_special_values_like_format_specs():
    columns = [
        [-0.0, 1e-300, 1e300],
        [0.0, 1e300, 1 / 3],
        [math.inf, math.inf, 123456789012345.0],
        [1e-300, -0.0, 0.1],
        [1e300, 2.5e-7, 1e16],
    ]
    codes = [_LABELS.index(BranchLabel(Regime.REGIME_II, 4)), 0, _LABELS.index(BranchLabel(Regime.REGIME_II, 4))]
    table = SweepTable((*map(np.array, columns), np.array(codes)))
    assert render_csv(table) == render_csv(list(table)) == (
        "x,achievable_rate,upper_bound,p1,p2,branch\n"
        "-0,0,inf,1e-300,1e+300,II-4\n"
        "1e-300,1e+300,inf,-0,2.5e-07,ZERO-1\n"
        "1e+300,0.333333333333,1.23456789012e+14,0.1,1e+16,II-4\n"
    )
    assert repr(list(table)) == repr([table[k] for k in range(3)])
    assert type(table[0].x) is float and type(table[0].p2) is float


_FALLBACK_CURVES = [
    # A start of -0.0: the first row of the single-point curve is x = -0.
    SweepSpec("a", -0.0, -0.0, 1, _B2, 0.5),
    SweepSpec("b", -0.0, 4.0, 8, _B2, 0.5),
    # Budgets of 1e-300 and 1e300 print in exponent style, by '%.12g' %.
    SweepSpec("b", 0.0, 4.0, 40, PowerBudget(1e-300, 1e-300), 0.5),
    SweepSpec("a", 0.0, 4.0, 40, PowerBudget(1e-300, 1e-300), 0.5, symmetric=True, power_mode=PowerMode.FULL_POWER),
    SweepSpec("a", 0.0, 1e-300, 40, PowerBudget(1e300, 2.0), 0.5),
    SweepSpec("b", 0.0, 1e-300, 40, PowerBudget(2.0, 1e300), 0.5),
]


def test_fallback_rows_render_alike_on_both_paths():
    texts = [render_csv(_on_both_paths(spec)) for spec in _FALLBACK_CURVES]
    assert texts[0].splitlines()[1].startswith("-0,")
    assert all("e-300" in text or "e+300" in text for text in texts[2:])


@pytest.mark.parametrize("error", [-0.7, -1e-9, 1e-9, 0.7])
def test_csv_lines_survive_an_inexact_log10(monkeypatch, error):
    # A log10 that errs only costs fallbacks: m falls below 1e11, or n
    # rises above 1e12, wherever the decimal exponent it gives is wrong.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + error)
    digits = (1, 1.23456789012345, 2.5, 3.14159265358979, 6.66666666666666, 9.99, 9.9999999999996)
    values = [float(f"{d}e{j}") for d in digits for j in range(-5, 12)]
    _assert_formats_like_format_spec([math.nextafter(v, t) for v in values for t in (0.0, math.inf)] + values)
