"""Entropy-conserving wavefunction collapse for a single spin-1/2.

The model: a measurement of axis n_i on a pure state fixes the next
measurement axis n_f by minimizing the transfer entropy between the two
axes' outcome distributions, subject to conserving the state's outcome
entropy.  This package provides the spin-1/2 kinematics, the binary-entropy
functionals, a closed-form constrained solver with brute-force and descent
cross-checks, pluggable deterministic outcome rules, a trajectory simulator,
and a command-line interface (`spincollapse`).
"""

from .entropy import LN2, binary_entropy, s_down, s_i, s_up
from .risk import RiskContext, RiskFunction, builtin_risks, get_risk, select_outcome
from .simulate import RNG_NAME, SimConfig, TrajectoryStep, make_rng, simulate, step
from .solver import (
    Extremum,
    FeasibleSet,
    InfeasibleGridError,
    NoCollapseError,
    SolverSolution,
    azimuth_descent,
    brute_force_oracle,
    constraint_residual,
    feasible_set,
    solve,
)
from .spin import (
    DEFAULT_ATOL,
    Axis,
    PureState,
    Spinor,
    amplitudes,
    antipode,
    axis_from_vector,
    bloch_vector,
    born_up,
    eigenpair,
    overlap,
    spin_operator,
    state_from_amplitudes,
    state_from_bloch,
    state_from_eigenvector,
    unit_vector,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "DEFAULT_ATOL",
    "Extremum",
    "FeasibleSet",
    "InfeasibleGridError",
    "LN2",
    "NoCollapseError",
    "PureState",
    "RNG_NAME",
    "RiskContext",
    "RiskFunction",
    "SimConfig",
    "SolverSolution",
    "Spinor",
    "TrajectoryStep",
    "amplitudes",
    "antipode",
    "axis_from_vector",
    "azimuth_descent",
    "binary_entropy",
    "bloch_vector",
    "born_up",
    "brute_force_oracle",
    "builtin_risks",
    "constraint_residual",
    "eigenpair",
    "feasible_set",
    "get_risk",
    "make_rng",
    "overlap",
    "s_down",
    "s_i",
    "s_up",
    "select_outcome",
    "simulate",
    "solve",
    "spin_operator",
    "state_from_amplitudes",
    "state_from_bloch",
    "state_from_eigenvector",
    "step",
    "unit_vector",
    "__version__",
]
