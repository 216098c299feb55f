"""Vibrational ladder-descent optimal control toolkit.

Computes bound vibrational states and dipole couplings of a 1-D diatomic
potential, propagates the nuclear wavefunction under chirped laser pulses
with an absorbing boundary, and optimizes the five pulse parameters with a
genetic algorithm to concentrate population in a target level.
"""

__version__ = "0.1.0"

from .curves import (
    ExpRampDipole,
    MorsePotential,
    TabulatedCurve,
    krb_standin_dipole,
    krb_standin_potential,
    load_tabulated,
)
from .dvr import (
    RadialGrid,
    VibrationalSpectrum,
    build_hamiltonian,
    lifetime,
    sdme_map,
    solve_bound_states,
)
from .ga import (
    GaConfig,
    GaHistory,
    LadderProblem,
    SurrogateProblem,
    evolve_generation,
    init_population,
    optimize,
)
from .propagator import (
    POP_TOL,
    CapSpec,
    EigenStepper,
    PropagationRecord,
    SplitStepper,
    TimeStepChoice,
    TimeStepError,
    WavefunctionState,
    cap_value,
    populations,
    propagate,
    tolerance_time_step,
)
from .pulse import (
    ChirpedPulseParams,
    ParamRanges,
    amplitude,
    bandwidth,
    heuristic_ranges,
    instantaneous_frequency,
    spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
