"""Entropy-conserving wavefunction collapse for a single spin-1/2.

The model: a measurement of axis n_i on a pure state fixes the next
measurement axis n_f by minimizing the transfer entropy between the two
axes' outcome distributions, subject to conserving the state's outcome
entropy.  This package provides the spin-1/2 kinematics, the binary-entropy
functionals, a closed-form constrained solver with brute-force and descent
cross-checks, pluggable deterministic outcome rules, a trajectory simulator,
and a command-line interface (`spincollapse`).
"""

from . import entropy as _entropy
from . import risk as _risk
from . import simulate as _simulate
from . import solver as _solver
from . import spin as _spin
from .entropy import *
from .risk import *
from .simulate import *
from .solver import *
from .spin import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted(
    [*_spin.__all__, *_entropy.__all__, *_solver.__all__, *_risk.__all__, *_simulate.__all__]
) + ["__version__"]
