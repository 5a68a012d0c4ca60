"""Secrecy rates, power control, and capacity bounds for the
jammer-assisted Gaussian wiretap channel.

A confidential transmission is overheard by an eavesdropper while an
independent helper injects interference to mask it.  This package
computes the achievable secrecy rate of that channel, the power
allocation maximizing it, its power-unconstrained limits, and a
genie-aided upper bound on the secrecy capacity, cross-validating every
closed form against an independent numerical oracle.

The public names, the submodules' `__all__`, are exported lazily: `import
coopjam` loads no submodule, and a name's first use imports up to its owner.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each imports only the modules before it, so a lookup stops at the owner.
_SUBMODULES = ("model", "bound", "achievable", "power", "sweep")


def __getattr__(name: str) -> object:
    """Import submodules in order until one is `name` or exports it (PEP 562)."""
    for sub in _SUBMODULES:
        module = import_module(f"{__name__}.{sub}")
        if name in module.__all__:
            globals()[name] = getattr(module, name)
        if name in globals():  # the export, or the submodule `name` itself
            return globals()[name]
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = sorted({n for sub in _SUBMODULES for n in globals()[sub].__all__})
    return globals()[name]


def __dir__() -> list[str]:
    return __getattr__("__all__")
