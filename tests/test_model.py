import ast
import copy
import itertools
import math
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopjam
from coopjam._columns import _COLUMNS
from coopjam._columns import _square as _column_square
from coopjam.achievable import BranchLabel, Regime, Thresholds
from coopjam.bound import NoiseCorrelation, SatoEvaluation, _f_defined, sato_f
from coopjam.model import (
    ChannelGains,
    DomainError,
    PowerAllocation,
    PowerBudget,
    RateValue,
    _clip,
    _first,
    _in_budget,
    _square,
    _valid_rate,
    gauss_cap,
    pos_part,
)
from coopjam.power import AllocationResult, AllocationSource, CriticalPowers, _p2_star_exists
from coopjam.sweep import PowerMode, SweepRow, SweepSpec
from coopjam.verify import CheckResult


def test_gauss_cap_known_points():
    assert gauss_cap(0.0) == 0.0
    assert gauss_cap(1.0) == pytest.approx(0.5, abs=1e-15)
    assert gauss_cap(3.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [-1.0, -1e-9, math.nan, math.inf, -math.inf])
def test_gauss_cap_rejects_out_of_domain(bad):
    with pytest.raises(DomainError):
        gauss_cap(bad)


def test_pos_part():
    assert pos_part(-0.3) == 0.0
    assert pos_part(0.0) == 0.0
    assert pos_part(0.7) == 0.7


@settings(max_examples=200, derandomize=True)
@given(
    x=st.floats(min_value=0.0, max_value=1e6),
    delta=st.floats(min_value=1e-6, max_value=1e3),
)
def test_gauss_cap_strictly_increasing(x, delta):
    assert gauss_cap(x) < gauss_cap(x + delta)


@settings(max_examples=200, derandomize=True)
@given(
    p=st.floats(min_value=0.0, max_value=1e9),
    q=st.floats(min_value=0.0, max_value=1e9),
)
def test_gauss_cap_difference_identity(p, q):
    # The difference form used throughout the piecewise rate branches.
    direct = gauss_cap(p) - gauss_cap(q)
    ratio = 0.5 * math.log2((1.0 + p) / (1.0 + q))
    assert direct == pytest.approx(ratio, abs=1e-12)


def test_channel_gains_validation():
    gains = ChannelGains(0.5, 2.0)
    assert gains.a == 0.5 and gains.b == 2.0
    with pytest.raises(DomainError):
        ChannelGains(-0.1, 1.0)
    with pytest.raises(DomainError):
        ChannelGains(1.0, math.nan)
    with pytest.raises(DomainError):
        ChannelGains(math.inf, 1.0)


def test_power_budget_validation():
    PowerBudget(0.0, 0.0)
    with pytest.raises(DomainError):
        PowerBudget(-1.0, 2.0)
    with pytest.raises(DomainError):
        PowerBudget(2.0, math.inf)


def test_power_allocation_within_budget():
    budget = PowerBudget(2.0, 3.0)
    assert PowerAllocation(2.0, 3.0).within(budget)
    assert PowerAllocation(0.0, 0.0).within(budget)
    assert not PowerAllocation(2.1, 0.0).within(budget)
    with pytest.raises(DomainError):
        PowerAllocation(-0.5, 1.0)


def test_rate_value_contract():
    assert RateValue(0.0).value == 0.0
    assert not RateValue(1.5).unbounded
    assert RateValue(math.inf).unbounded
    with pytest.raises(DomainError):
        RateValue(-1e-6)
    with pytest.raises(DomainError):
        RateValue(math.nan)


_RATE_RULE = [(math.nan, False), (-0.0, True), (-1e-300, False), (0.0, True), (math.inf, True)]


@pytest.mark.parametrize("value, valid", _RATE_RULE, ids=["nan", "-0", "-1e-300", "0", "inf"])
def test_rate_value_raises_exactly_where_its_rule_rejects(value, valid):
    # The sweep's columns apply the same owner to arrays instead of
    # building a RateValue per row.
    assert _valid_rate(value) is valid
    if valid:
        assert repr(RateValue(value).value) == repr(value)
    else:
        with pytest.raises(DomainError, match="^rate must "):
            RateValue(value)


def test_rate_rule_takes_arrays():
    values, valid = zip(*_RATE_RULE)
    assert _valid_rate(np.array(values)).tolist() == list(valid)


def test_types_are_immutable():
    gains = ChannelGains(1.0, 1.0)
    with pytest.raises(AttributeError):
        gains.a = 2.0


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: ChannelGains("x", 1), "gain a"),
        (lambda: PowerBudget(None, 1), "p1_max"),
        (lambda: PowerAllocation(1, "y"), "p2"),
        (lambda: RateValue("z"), "rate"),
        (lambda: NoiseCorrelation("x"), "rho"),
        (lambda: NoiseCorrelation(1.0), "rho"),
        (lambda: NoiseCorrelation(math.nan), "rho"),
        (lambda: NoiseCorrelation(NoiseCorrelation(0.25)), "rho"),
        (lambda: sato_f(ChannelGains(1, 1), PowerAllocation(1, 1), "x"), "rho"),
    ],
    ids=[
        "gains", "budget", "allocation", "rate", "rho-text", "rho-one", "rho-nan",
        "rho-nested", "sato_f-rho",
    ],
)
def test_value_checks_name_the_quantity(build, named):
    with pytest.raises(DomainError, match=rf"^{named} must "):
        build()


_LABEL = BranchLabel(Regime.REGIME_II, 3)
_LABEL_REPR = "BranchLabel(regime=<Regime.REGIME_II: 'II'>, sub_case=3)"

# Each value type: keyword arguments for every field, in field order, and
# the repr of the value they build.
VALUE_TYPES = {
    "ChannelGains": (ChannelGains, {"a": 1, "b": 2.5}, "ChannelGains(a=1.0, b=2.5)"),
    "PowerBudget": (
        PowerBudget, {"p1_max": 2, "p2_max": 0.5}, "PowerBudget(p1_max=2.0, p2_max=0.5)"
    ),
    "PowerAllocation": (
        PowerAllocation, {"p1": 1.0, "p2": 0}, "PowerAllocation(p1=1.0, p2=0.0)"
    ),
    "RateValue": (RateValue, {"value": math.inf}, "RateValue(value=inf)"),
    "BranchLabel": (BranchLabel, {"regime": Regime.REGIME_II, "sub_case": 3}, _LABEL_REPR),
    "Thresholds": (Thresholds, {"beta1": 1.5, "beta2": 0.5}, "Thresholds(beta1=1.5, beta2=0.5)"),
    "NoiseCorrelation": (NoiseCorrelation, {"rho": -0.25}, "NoiseCorrelation(rho=-0.25)"),
    "SatoEvaluation": (
        SatoEvaluation,
        {
            "rho_star": NoiseCorrelation(0.5),
            "f_at_star": 0.75,
            "final_bound": RateValue(0.5),
            "discriminant": 4.0,
        },
        "SatoEvaluation(rho_star=NoiseCorrelation(rho=0.5), f_at_star=0.75,"
        " final_bound=RateValue(value=0.5), discriminant=4.0)",
    ),
    "AllocationResult": (
        AllocationResult,
        {
            "alloc": PowerAllocation(1.0, 0.5),
            "rate": RateValue(0.25),
            "source": AllocationSource.CLOSED_FORM,
            "branch": _LABEL,
        },
        "AllocationResult(alloc=PowerAllocation(p1=1.0, p2=0.5), rate=RateValue(value=0.25),"
        f" source=<AllocationSource.CLOSED_FORM: 'closed_form'>, branch={_LABEL_REPR})",
    ),
    "CriticalPowers": (
        CriticalPowers, {"p1_star": -0.5, "p2_star": 3.0}, "CriticalPowers(p1_star=-0.5, p2_star=3.0)"
    ),
    "SweepSpec": (
        SweepSpec,
        {
            "param": "b",
            "start": 0,
            "end": 4,
            "steps": 8,
            "budget": PowerBudget(2.0, 2.0),
            "fixed_gain": 1,
            "symmetric": 1,
            "power_mode": PowerMode.FULL_POWER,
        },
        "SweepSpec(param='b', start=0.0, end=4.0, steps=8,"
        " budget=PowerBudget(p1_max=2.0, p2_max=2.0), fixed_gain=1.0, symmetric=True,"
        " power_mode=<PowerMode.FULL_POWER: 'full'>)",
    ),
    "SweepRow": (
        SweepRow,
        {
            "x": 0.5,
            "achievable": RateValue(0.25),
            "upper_bound": RateValue(0.5),
            "p1": 2.0,
            "p2": 1.0,
            "branch": _LABEL,
        },
        "SweepRow(x=0.5, achievable=RateValue(value=0.25), upper_bound=RateValue(value=0.5),"
        f" p1=2.0, p2=1.0, branch={_LABEL_REPR})",
    ),
    "CheckResult": (
        CheckResult,
        {"name": "soundness", "samples": 10, "violations": ["x"], "elapsed_s": 0.5},
        "CheckResult(name='soundness', samples=10, violations=['x'], elapsed_s=0.5)",
    ),
}


@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_type_is_a_record_of_its_fields(name):
    cls, kwargs, text = VALUE_TYPES[name]
    value = cls(**kwargs)
    fields = tuple(getattr(value, field) for field in kwargs)
    assert repr(value) == text
    assert value == cls(*kwargs.values()) and not value != cls(*kwargs.values())
    assert value != fields and fields != value
    assert all(value != other(**args) for other, args, _ in VALUE_TYPES.values() if other is not cls)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value and repr(clone) == text
    if cls is CheckResult:
        # The one mutable type: unhashable, and a fresh violations list each.
        with pytest.raises(TypeError):
            hash(value)
        value.elapsed_s = 1.5
        assert value.elapsed_s == 1.5
        first, second = CheckResult("a", 1), CheckResult("a", 1)
        first.violations.append("x")
        assert second.violations == []
        assert copy.deepcopy(value).violations is not value.violations
        return
    assert hash(value) == hash(fields)
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert tuple(getattr(value, field) for field in kwargs) == fields


def test_value_types_of_equal_fields_differ_by_type_and_value():
    assert ChannelGains(1, 2) != PowerBudget(1, 2)
    assert PowerAllocation(1, 2) != PowerBudget(1, 2)
    assert ChannelGains(1, 2) != ChannelGains(1, 3)
    assert ChannelGains(1, 2) == ChannelGains(1.0, 2.0)
    assert len({ChannelGains(1, 2), ChannelGains(1.0, 2.0), PowerBudget(1, 2)}) == 2


def test_sweep_spec_defaults():
    spec = SweepSpec("a", 0.0, 4.0, 10, PowerBudget(2.0, 2.0))
    assert (spec.fixed_gain, spec.symmetric, spec.power_mode) == (
        0.0, False, PowerMode.OPTIMAL_CONTROL
    )
    assert spec == SweepSpec(
        param="a", start=0.0, end=4.0, steps=10, budget=PowerBudget(2.0, 2.0),
        fixed_gain=0.0, symmetric=False, power_mode=PowerMode.OPTIMAL_CONTROL,
    )


_BUDGET = PowerBudget(2.0, 2.0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ChannelGains(-1, 1), DomainError, "gain a must be >= 0.0, got -1.0"),
        (lambda: PowerBudget(math.inf, 1), DomainError, "p1_max must be finite, got inf"),
        (lambda: PowerAllocation(1, "y"), DomainError, "p2 must be a real number, got 'y'"),
        (lambda: RateValue(math.nan), DomainError, "rate must not be NaN"),
        (lambda: RateValue(-0.5), DomainError, "rate must be >= 0, got -0.5"),
        (lambda: BranchLabel("I", 1), TypeError, "regime must be a Regime, got 'I'"),
        (lambda: BranchLabel(Regime.ZERO, 2), ValueError, "sub_case 2 invalid for regime ZERO"),
        (
            lambda: NoiseCorrelation(NoiseCorrelation(0.25)),
            DomainError,
            "rho must be a real number, got NoiseCorrelation(rho=0.25)",
        ),
        (
            lambda: NoiseCorrelation(1),
            DomainError,
            "rho must lie strictly inside (-1, 1), got 1.0",
        ),
        (
            lambda: SweepSpec("c", 0, 1, 1, _BUDGET),
            DomainError,
            "param must be 'a' or 'b', got 'c'",
        ),
        (lambda: SweepSpec("a", 2, 1, 1, _BUDGET), DomainError, "start 2.0 exceeds end 1.0"),
        (
            lambda: SweepSpec("a", 0, 1, True, _BUDGET),
            DomainError,
            "steps must be an integer >= 1, got True",
        ),
        (
            lambda: SweepSpec("a", 0, 1, 1, _BUDGET, fixed_gain=-1),
            DomainError,
            "fixed_gain must be >= 0.0, got -1.0",
        ),
        (lambda: SweepSpec("a", 0, 1, 1, (2, 2)), DomainError, "budget must be a PowerBudget"),
        (
            lambda: SweepSpec("a", 0, 1, 1, _BUDGET, power_mode="full"),
            DomainError,
            "power_mode must be a PowerMode",
        ),
    ],
)
def test_value_type_validation_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_square_is_the_correctly_rounded_product():
    # libm pow(x, 2) is one ulp off at about 0.1% of x; x * x never is.
    rng = np.random.default_rng(16)
    x = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-150.0, 150.0, 20_000)
    scalar = [_square(v, "x") for v in x.tolist()]
    assert scalar == [float(Fraction(v) ** 2) for v in x.tolist()]
    assert _column_square(x).tobytes() == np.array(scalar).tobytes()

    big = [1.35e154, -1.35e154, 1e200, sys.float_info.max]
    for v in big:
        with pytest.raises(DomainError, match=r"^x overflows the float range"):
            _square(v, "x")
    with np.errstate(over="ignore"):
        assert np.isnan(_column_square(np.array(big))).all()


def test_no_module_calls_pow():
    # Squares are x * x and roots sqrt, both correctly rounded; libm pow,
    # behind ** and math.pow, need not be.
    found = []
    for path in sorted(Path(coopjam.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(getattr(node, "op", None), ast.Pow) or name == "pow":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_parameter_is_read():
    # A parameter that no line reads is a knob with no effect.  `_columns`'
    # `_square` takes `name` only to share `model._square`'s signature.
    unread = []
    for path in sorted(Path(coopjam.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            if getattr(fn, "name", "").startswith("__"):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for p in params:
                if p.arg not in read:
                    unread.append(f"{path.name}:{getattr(fn, 'name', 'lambda')}({p.arg})")
    assert unread == ["_columns.py:_square(name)"]


def test_only_ops_defaults_to_a_callable():
    # The float and column paths differ only in the one `ops` they pass; a
    # bare stand-in default (a `min`, `sqrt` or `where`) would be a second knob.
    import importlib
    import inspect

    found = []
    for module in ("achievable", "power", "bound", "model"):
        mod = importlib.import_module(f"coopjam.{module}")
        for name, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.default is not p.empty and callable(p.default) and p.name != "ops":
                    found.append(f"{module}.{name}({p.name})")
    assert found == []


def test_shared_owners_answer_floats_and_arrays_alike():
    # Each rule that the column kernels share with the scalar code has one
    # owner; a Python float and a one-element array get the same answer.
    edges = [-0.0, 0.0, 2.0, math.nextafter(2.0, math.inf), math.nan, math.inf, -math.inf]

    def alike(owner, *args):
        scalar = owner(*args)
        array = owner(*(np.array([v]) for v in args))
        assert np.array([scalar]).tobytes() == array.tobytes(), (owner, args)
        return scalar

    for v in edges:
        assert alike(_p2_star_exists, v) is (v >= 0.0)
        assert alike(_f_defined, v) is (v > 0.0)
        clipped = _clip(v)
        assert _clip(np.array([v]), _COLUMNS).tobytes() == np.array([clipped]).tobytes()
        assert repr(clipped) == repr(pos_part(v))
        assert clipped == (v if v > 0.0 else 0.0) and math.copysign(1.0, clipped) == 1.0
    budget = PowerBudget(2.0, 2.0)
    for p1, p2 in itertools.product(edges, repeat=2):
        try:
            within = PowerAllocation(p1, p2).within(budget)
        except DomainError:
            within = False
        assert alike(_in_budget, p1, p2, 2.0, 2.0) is within, (p1, p2)
    for tests in itertools.product((False, True), repeat=3):
        first = tests.index(True) if True in tests else 3
        assert _first(tests) == first
        assert _first([np.array([t]) for t in tests]).tolist() == [first]
