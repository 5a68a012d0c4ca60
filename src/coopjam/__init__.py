"""Secrecy rates, power control, and capacity bounds for the
jammer-assisted Gaussian wiretap channel.

A confidential transmission is overheard by an eavesdropper while an
independent helper injects interference to mask it.  This package
computes the achievable secrecy rate of that channel, the power
allocation maximizing it, its power-unconstrained limits, and a
genie-aided upper bound on the secrecy capacity, cross-validating every
closed form against an independent numerical oracle.
"""

from . import achievable, bound, model, power, sweep
from .achievable import *
from .bound import *
from .model import *
from .power import *
from .sweep import *

__version__ = "0.1.0"

__all__ = sorted(
    {*achievable.__all__, *bound.__all__, *model.__all__, *power.__all__, *sweep.__all__}
)
