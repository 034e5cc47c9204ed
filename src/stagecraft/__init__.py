"""Comparison-function toolkit for certified discrete-time control.

The package is organized around four certificate shapes (state decay,
control decay, energy budget, total cost), grid-checked conversions
between them, stage-cost synthesis from an energy budget, and a
constructive converse that rebuilds an energy budget from a total-cost
certificate.  A small shortest-path oracle for finite systems and a
library of builtin benchmark systems support end-to-end checks.
"""

from . import certificates, cmpfn, converse, errors, library, oracle, synthesis, system
from .cmpfn import *
from .system import *
from .certificates import *
from .synthesis import *
from .converse import *
from .oracle import *
from .library import *
from .errors import *

__version__ = "0.1.0"

# each module declares its public names once; the package exports their union
__all__ = [
    name
    for module in (cmpfn, system, certificates, synthesis, converse, oracle, library, errors)
    for name in module.__all__
]
