"""The package's public names: exactly these, each its submodule's object."""

import coopjam
from coopjam import achievable, bound, model, power, sweep

PUBLIC = [
    "AllocationResult",
    "AllocationSource",
    "BranchLabel",
    "CSV_HEADER",
    "ChannelGains",
    "CriticalPowers",
    "DomainError",
    "InvariantViolation",
    "NoiseCorrelation",
    "PowerAllocation",
    "PowerBudget",
    "PowerMode",
    "RateValue",
    "Regime",
    "SatoEvaluation",
    "SweepRow",
    "SweepSpec",
    "Thresholds",
    "achievable_rate",
    "asymptotic_rate",
    "critical_powers",
    "gauss_cap",
    "grid_search_allocation",
    "optimal_allocation",
    "pos_part",
    "render_csv",
    "rho_min_oracle",
    "rho_star",
    "run_sweep",
    "sato_f",
    "sato_upper_bound",
    "wiretap_asymptotic_rate",
    "wiretap_capacity",
]


def test_all_lists_the_public_names():
    assert coopjam.__all__ == PUBLIC


def test_each_public_name_is_its_submodule_object():
    owners = {}
    for module in (achievable, bound, model, power, sweep):
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    assert sorted(owners) == PUBLIC
    for name in PUBLIC:
        (module,) = owners[name]
        assert getattr(coopjam, name) is getattr(module, name), name
