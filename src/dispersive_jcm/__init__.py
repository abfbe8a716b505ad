"""Closed-form decoherence dynamics of a dispersively coupled atom-cavity system.

A two-level atom sits in a damped cavity driven by a classical source,
coupled dispersively to the mode.  Starting from the balanced atomic
superposition with the field in the driven mode's stationary coherent
state, the joint state stays a rank-two mixture of coherent-state
branches, so entropies, correlations, concurrence, and the decoherence
time scales all have closed forms.

Modules
-------
model
    Parameter and grid types, checked at construction.
analytic
    The closed forms: conditioned amplitudes, the dephasing exponent,
    entropies, correlation, concurrence, time scales, critical instants.
lie
    The superoperator algebra behind the solution: commutator table,
    ODE residual checks, and operator-level disentangling identities.
oracle
    Independent verification: brute-force master-equation integration on
    a truncated Fock space, partial traces, the two-qubit embedding, and
    the Wootters concurrence.
acceptance
    The eight-criterion acceptance suite tying everything together.
cli
    Deterministic CSV output and the verify gate (``dispersive-jcm``).

Importing the package loads numpy and the top-level ``scipy`` package
only; the modules call scipy by qualified name, so each scipy submodule
loads the first time a call needs it.  The closed forms need none.
"""

from . import acceptance, analytic, lie, model, oracle
from .analytic import (
    CoherentPair,
    CriticalInstant,
    PhaseParts,
    characteristic_times,
    coherent_pair,
    concurrence,
    critical_instants,
    zeta_atom,
    zeta_field,
    zeta_global,
)
from .model import AtomicAmplitudes, DispersiveValidityWarning, ModelParams, TimeGrid
from .oracle import FockDensityMatrix, IntegratorConfig, OracleError, evolve, evolve_trajectory

__version__ = "0.1.0"

__all__ = [
    "acceptance",
    "analytic",
    "lie",
    "model",
    "oracle",
    "CoherentPair",
    "CriticalInstant",
    "PhaseParts",
    "characteristic_times",
    "coherent_pair",
    "concurrence",
    "critical_instants",
    "zeta_atom",
    "zeta_field",
    "zeta_global",
    "AtomicAmplitudes",
    "DispersiveValidityWarning",
    "ModelParams",
    "TimeGrid",
    "FockDensityMatrix",
    "IntegratorConfig",
    "OracleError",
    "evolve",
    "evolve_trajectory",
    "__version__",
]
